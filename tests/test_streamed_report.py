"""The text report is written straight from the violation keys: its bytes
equal `format_violation` over `all_violations()` in both engines, and its
lines are exactly the brute-force pair oracle's violations.

The instances cover constant, self-form and general-form consequents,
multi-literal rules split into normal form, p = 0 same-timestamp pairs,
q >= T, a rule without matches and a run without rules.  The key-width
guard and the text path's independence from the violation tuples are
checked here too.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tgfd.detection as detection
from tgfd.cli import _write_detection_text, main
from tgfd.detection import (
    ConstantViolation,
    DetectionResult,
    KeyedViolations,
    PairViolation,
    detect_sequential,
    format_violation,
    violation_key,
)
from tgfd.errors import ReportKeyOverflow, TgfdError
from tgfd.graph import AttrSet, graph_to_texts
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    Tgfd,
    VariableLiteral,
    normalize,
)
from tgfd.parallel import ParallelResult, run_parallel

from util import (
    build_graph,
    extend,
    format_tgfd,
    oracle_violations,
    rule_shapes,
    shaped_instance,
)


def written(result) -> str:
    out = io.StringIO()
    _write_detection_text(out, result)
    return out.getvalue()


def materialized(result) -> str:
    """The report built from the violation tuples."""
    lines = [f"{format_violation(v)}\n" for v in result.all_violations()]
    lines += [
        f"# {name} nontrivial={'yes' if result.nontrivial[name] else 'no'}\n"
        for name in sorted(result.nontrivial)
    ]
    return "".join(lines) or "\n"


def items_of(text: str) -> tuple:
    return tuple(tuple(pair.split("=")) for pair in text.split(","))


def line_key(line: str) -> tuple:
    """A violation line as the oracle's key (rule, t_i, t_j, items_i, items_j)."""
    name, kind, *rest = line.split(" ")
    if kind == "PAIR":
        t_i, t_j, a, b = rest
        return (name, int(t_i[4:]), int(t_j[4:]), items_of(a), items_of(b))
    assert kind == "CONST"
    t, a, _ = rest
    return (name, int(t[2:]), int(t[2:]), items_of(a), items_of(a))


def multi_literal_rule(sigma: Tgfd) -> Tgfd:
    """sigma's pattern, interval and X with a Y of three literals: sigma's
    own, a constant and a self-form one."""
    var = sorted(sigma.pattern.vars)[0]
    y = {
        sigma.y_literal,
        ConstantLiteral(var, "rank", "a"),
        VariableLiteral(var, "code", var, "code"),
    }
    return Tgfd(f"{sigma.name}m", sigma.pattern, sigma.delta, sigma.x_literals, y)


UNMATCHED = Tgfd(
    "unmatched", GraphPattern([("x", "nosuchtype")]), Delta(0, 2), [],
    [VariableLiteral("x", "code", "x", "code")],
)


def check_report(g, rules, workers, chunk) -> None:
    want = set()
    for sigma in rules:
        for part in normalize(sigma):
            want |= oracle_violations(g, part)
    engines = [detect_sequential(g, rules)] + [run_parallel(g, rules, n, seed=n) for n in workers]
    reports = []
    with mock.patch.object(detection, "REPORT_CHUNK", chunk):
        for result in engines:
            found = result.all_violations()
            assert found == sorted(found, key=violation_key)
            text = written(result)
            assert text == materialized(result)
            lines = [line for line in text.splitlines() if line and not line.startswith("# ")]
            keys = [line_key(line) for line in lines]
            assert len(set(keys)) == len(keys) and set(keys) == want
            reports.append(text)
    assert all(text == reports[0] for text in reports)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    multi=st.booleans(),
    unmatched=st.booleans(),
    workers=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
    chunk=st.integers(1, 5),
)
def test_streamed_report_equals_materialized_and_oracle(seed, multi, unmatched, workers, chunk):
    g, rules = shaped_instance(seed)
    if multi:
        rules.append(multi_literal_rule(rules[0]))
    if unmatched:
        rules.append(UNMATCHED)
    check_report(g, rules, workers, chunk)


def test_streamed_report_covers_every_shape():
    """The seeds below give every consequent form, multi-literal rules,
    violating p = 0 pairs at one timestamp and q >= T."""
    shapes, same_t, split = set(), 0, set()
    for seed in range(12):
        g, rules = shaped_instance(seed)
        rules += [multi_literal_rule(rules[0]), UNMATCHED]
        check_report(g, rules, workers=[2], chunk=3)
        for sigma in rules:
            shapes |= rule_shapes(sigma, g.T)
        for v in detect_sequential(g, rules).all_violations():
            if isinstance(v, PairViolation):
                same_t += v.binding_i.t == v.binding_j.t
            if "#" in v.tgfd:
                split.add(type(v))
    assert {"general Y", "constant Y", "q >= T"} <= shapes
    assert same_t and split == {PairViolation, ConstantViolation}


def test_run_without_rules_writes_one_empty_line():
    g, _ = shaped_instance(0)
    for result in (detect_sequential(g, []), run_parallel(g, [], 2)):
        assert written(result) == materialized(result) == "\n"


# ---------------------------------------------------------------------------
# the key-width guard
# ---------------------------------------------------------------------------


def toy_instance():
    """Five `plays` matches at each of three timestamps; y.code changes."""
    people = [f"p{i}" for i in range(5)]
    g = build_graph(
        {**{p: "person" for p in people}, "b": "team"},
        [(p, "plays", "b") for p in people],
        {**{p: {"name": "x"} for p in people}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])
    g = extend(g, [AttrSet("b", "code", "3")])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    return g, [sigma]


def test_entries_beyond_the_id_field_raise(monkeypatch):
    g, rules = toy_instance()  # 15 profiled matches
    monkeypatch.setattr(detection, "ID_BITS", 3)  # ids 0..7
    message = "r: more than 8 profiled matches; a violation key numbers at most that many per rule"
    with pytest.raises(ReportKeyOverflow, match=message) as caught:
        detect_sequential(g, rules)
    assert isinstance(caught.value, TgfdError)
    with pytest.raises(ReportKeyOverflow, match=message):
        run_parallel(g, rules, 2)


def test_narrow_id_field_that_fits_keeps_the_report(monkeypatch):
    g, rules = toy_instance()
    want = written(detect_sequential(g, rules))
    monkeypatch.setattr(detection, "ID_BITS", 4)  # ids 0..15 hold all 15
    result = detect_sequential(g, rules)
    assert written(result) == materialized(result) == want
    assert written(run_parallel(g, rules, 2)) == want


def test_key_width_overflow_exits_2(monkeypatch, tmp_path, capsys):
    g, rules = toy_instance()
    argv = write_inputs(tmp_path, g, rules)
    monkeypatch.setattr(detection, "ID_BITS", 3)
    assert main(["detect", *argv]) == 2
    assert capsys.readouterr().err.startswith("error: r: more than 8 profiled matches")


# ---------------------------------------------------------------------------
# the text path builds no violation tuple
# ---------------------------------------------------------------------------


def write_inputs(tmp_path, g, rules) -> list:
    snapshot, changes = graph_to_texts(g)
    (tmp_path / "g.snapshot").write_text(snapshot)
    (tmp_path / "g.changes").write_text(changes)
    (tmp_path / "rules.tgfd").write_text("\n".join(format_tgfd(s) for s in rules))
    return ["--graph", str(tmp_path / "g.snapshot"), "--changes", str(tmp_path / "g.changes"),
            "--tgfds", str(tmp_path / "rules.tgfd")]


def unreadable(self):
    raise AssertionError("the text report read the violation tuples")


def test_text_report_never_reads_the_violation_tuples(monkeypatch, tmp_path):
    g, rules = toy_instance()
    pattern = rules[0].pattern
    rules.append(Tgfd("c", pattern, Delta(0, 0), [], [ConstantLiteral("y", "code", "1")]))
    inputs = write_inputs(tmp_path, g, rules)
    commands = {
        "detect": ["detect"],
        "parallel": ["detect-parallel", "--workers", "2", "--tl", "0", "--tu", "inf"],
    }

    def reports() -> dict:
        out = {}
        for name, command in commands.items():
            path = tmp_path / f"{name}.out"
            assert main([*command, *inputs, "--out", str(path)]) == 0
            out[name] = path.read_text()
        return out

    want = reports()
    assert " PAIR " in want["detect"] and " CONST " in want["detect"]
    for cls in (DetectionResult, ParallelResult):
        monkeypatch.setattr(cls, "violations", property(unreadable))
        monkeypatch.setattr(cls, "all_violations", unreadable)
    monkeypatch.setattr(KeyedViolations, "__iter__", unreadable)
    assert reports() == want

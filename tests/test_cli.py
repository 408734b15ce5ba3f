import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tgfd
from tgfd.cli import _RUNNERS, _build_parser, main
from tgfd.graph import apply_changes, graph_to_texts, load_graph

from conftest import (
    CONFLICT_RULES,
    CONFLICT_RULES_DISJOINT,
    DUPLICATE_RULES,
    MEDICATION_CHANGES,
    MEDICATION_RULES,
    MEDICATION_SNAPSHOT,
)
from util import exotic_rule, format_tgfd, random_changes, random_graph, random_tgfd


@pytest.fixture
def med_files(tmp_path):
    snap = tmp_path / "graph.snapshot"
    snap.write_text(MEDICATION_SNAPSHOT)
    changes = tmp_path / "graph.changes"
    changes.write_text(MEDICATION_CHANGES)
    rules = tmp_path / "rules.tgfd"
    rules.write_text(MEDICATION_RULES)
    return snap, changes, rules


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_detect_medication_fixture(capsys, med_files):
    snap, changes, rules = med_files
    code, out, _ = run(
        capsys,
        ["detect", "--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules)],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 1
    assert lines[0].startswith("dosage_rule CONST t=6")


def test_detect_jsonlike(capsys, med_files):
    snap, changes, rules = med_files
    code, out, _ = run(
        capsys,
        [
            "detect", "--graph", str(snap), "--changes", str(changes),
            "--tgfds", str(rules), "--format", "jsonlike",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["kind"] == "constant"
    assert doc["violations"][0]["t"] == 6
    assert doc["nontrivial"]["dosage_rule"] is True


def test_detect_output_byte_stable(capsys, med_files, tmp_path):
    snap, changes, rules = med_files
    outs = []
    for i in (1, 2):
        path = tmp_path / f"out{i}.txt"
        code = main(
            [
                "detect", "--graph", str(snap), "--changes", str(changes),
                "--tgfds", str(rules), "--out", str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_detect_parallel_single_worker_identical(capsys, med_files, tmp_path):
    snap, changes, rules = med_files
    seq_out = tmp_path / "seq.txt"
    par_out = tmp_path / "par.txt"
    assert main(
        ["detect", "--graph", str(snap), "--changes", str(changes),
         "--tgfds", str(rules), "--out", str(seq_out)]
    ) == 0
    assert main(
        ["detect-parallel", "--graph", str(snap), "--changes", str(changes),
         "--tgfds", str(rules), "--workers", "1", "--tl", "0", "--tu", "1e9",
         "--out", str(par_out)]
    ) == 0
    seq_lines = [l for l in seq_out.read_text().splitlines() if not l.startswith("#")]
    par_lines = par_out.read_text().splitlines()
    assert par_lines[: len(seq_lines)] == seq_lines


def test_sat_exit_codes(capsys, tmp_path):
    bad = tmp_path / "bad.tgfd"
    bad.write_text(CONFLICT_RULES)
    code, out, _ = run(capsys, ["sat", "--tgfds", str(bad)])
    assert code == 3
    assert out.startswith("unsatisfiable")
    assert "100mg" in out and "20mL" in out

    good = tmp_path / "good.tgfd"
    good.write_text(CONFLICT_RULES_DISJOINT)
    code, out, _ = run(capsys, ["sat", "--tgfds", str(good)])
    assert code == 0
    assert out.startswith("satisfiable")


def test_implies(capsys, tmp_path):
    base = tmp_path / "rules.tgfd"
    base.write_text(
        "tgfd wide\nvertex x person\nvertex y team\nedge x plays y\n"
        "delta (0, 5)\nx: x.name == x.name\ny: y.code == y.code\n"
    )
    query = tmp_path / "query.tgfd"
    query.write_text(
        "tgfd narrow\nvertex x person\nvertex y team\nedge x plays y\n"
        "delta (1, 3)\nx: x.name == x.name\ny: y.code == y.code\n"
    )
    code, out, _ = run(capsys, ["implies", "--tgfds", str(base), "--query", str(query)])
    assert code == 0
    assert "narrow: implied" in out

    wider = tmp_path / "wider.tgfd"
    wider.write_text(query.read_text().replace("delta (1, 3)", "delta (0, 9)"))
    code, out, _ = run(capsys, ["implies", "--tgfds", str(base), "--query", str(wider)])
    assert code == 0
    assert "not-implied" in out


QUIET_SNAPSHOT = "v a person name=x\nv b team code=1\ne a plays b\n"
QUIET_RULES = """\
tgfd quiet
vertex x person
vertex y team
edge x plays y
delta (0, 2)
y: y.code == y.code

tgfd also
vertex y team
delta (1, 3)
x: y.code == y.code
y: y.code = "1"
"""
PARALLEL_ARGS = ["--workers", "3", "--tl", "0", "--tu", "1e9"]


@pytest.fixture
def quiet_files(tmp_path):
    snap = tmp_path / "quiet.snapshot"
    snap.write_text(QUIET_SNAPSHOT)
    rules = tmp_path / "quiet.tgfd"
    rules.write_text(QUIET_RULES)
    return ["--graph", str(snap), "--tgfds", str(rules)]


@pytest.mark.parametrize("to_file", [False, True])
def test_report_without_violations(capsys, quiet_files, tmp_path, to_file):
    """Only the nontrivial lines (or keys) and a final newline, on stdout
    and in the --out file alike."""
    out_file = tmp_path / "report.out"

    def report(*argv):
        code, out, err = run(capsys, [*argv, *quiet_files, *(["--out", str(out_file)] if to_file else [])])
        assert (code, err) == (0, "")
        if to_file:
            assert out == ""
            return out_file.read_text(encoding="utf-8")
        return out

    assert report("detect") == "# also nontrivial=no\n# quiet nontrivial=no\n"
    doc = {"nontrivial": {"also": False, "quiet": False}, "violations": []}
    assert report("detect", "--format", "jsonlike") == json.dumps(doc, indent=2) + "\n"
    text = report("detect-parallel", *PARALLEL_ARGS)
    assert text.startswith("# also nontrivial=no\n# quiet nontrivial=no\nt=1 worker=1 ")
    parallel = report("detect-parallel", *PARALLEL_ARGS, "--format", "jsonlike")
    assert parallel == json.dumps(json.loads(parallel), indent=2, sort_keys=True) + "\n"
    assert json.loads(parallel)["violations"] == []


@pytest.mark.parametrize("command", [["detect"], ["detect-parallel", *PARALLEL_ARGS]])
@pytest.mark.parametrize("fmt", ["text", "jsonlike"])
def test_unwritable_out_exits_2(capsys, med_files, tmp_path, command, fmt):
    snap, changes, rules = med_files
    argv = [*command, "--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules),
            "--format", fmt]
    missing = tmp_path / "no-such-dir" / "report.out"
    assert run(capsys, [*argv, "--out", str(missing)]) == (
        2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert not missing.parent.exists()
    assert run(capsys, [*argv, "--out", str(tmp_path)]) == (
        2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    )


def test_usage_error_exit_1(capsys):
    assert main(["detect"]) == 1
    assert main(["no-such-command"]) == 1


def test_parse_error_exit_2(capsys, tmp_path):
    snap = tmp_path / "g.snapshot"
    snap.write_text("v a person\n")
    rules = tmp_path / "r.tgfd"
    rules.write_text("tgfd broken\nvertex x person\ndelta (3, 1)\ny: x.a = \"1\"\n")
    assert main(["detect", "--graph", str(snap), "--tgfds", str(rules)]) == 2
    assert main(["detect", "--graph", "/nope/missing", "--tgfds", str(rules)]) == 2


@pytest.mark.parametrize(
    "changes, line",
    [('t 2\n""\n', 2), ("t 2\n+a a name=x\nt 2\n", 3), ("t 3\n", 1)],
)
def test_malformed_change_file_exit_2_with_line(capsys, tmp_path, changes, line):
    snap = tmp_path / "g.snapshot"
    snap.write_text("v a person name=y\n")
    changes_file = tmp_path / "g.changes"
    changes_file.write_text(changes)
    rules = tmp_path / "r.tgfd"
    rules.write_text('tgfd r\nvertex x person\ndelta (0, 1)\ny: x.name = "y"\n')
    code, _, err = run(
        capsys,
        ["detect", "--graph", str(snap), "--changes", str(changes_file), "--tgfds", str(rules)],
    )
    assert code == 2
    assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["detect-parallel", "--workers", "0", "--tl", "0", "--tu", "1"],
         "error: need at least one worker"),
        (["inject", "--err", "2", "--out-prefix", "unused"], "error: error rate must lie in [0, 1]"),
        (["detect-parallel", "--workers", "2", "--tl", "5", "--tu", "1"],
         "error: job-time bounds [5, 1] must be numbers with t_l <= t_u"),
        (["detect-parallel", "--workers", "2", "--tl", "nan", "--tu", "1"],
         "error: job-time bounds [nan, 1] must be numbers with t_l <= t_u"),
    ],
)
def test_option_errors_exit_2(capsys, med_files, argv, message):
    snap, changes, rules = med_files
    io = ["--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules)]
    code, _, err = run(capsys, [argv[0], *io, *argv[1:]])
    assert code == 2
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["plan", "detect-parallel"])
def test_worker_count_above_the_cap_exit_2_before_any_fragment(capsys, med_files, monkeypatch,
                                                               command):
    from tgfd import parallel

    def forbidden(*args, **kwargs):
        raise AssertionError("built before the worker count was checked")

    monkeypatch.setattr(parallel, "Fragment", forbidden)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", forbidden)
    snap, changes, rules = med_files
    n = parallel.MAX_WORKERS + 1
    argv = [command, "--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules),
            "--workers", str(n), "--tl", "0", "--tu", "inf"]
    message = f"error: {n} workers exceed the most a run takes, {parallel.MAX_WORKERS}\n"
    assert run(capsys, argv) == (2, "", message)


def test_repeated_rule_name_exit_2(capsys, med_files, tmp_path):
    snap, changes, _ = med_files
    rules = tmp_path / "twice.tgfd"
    rules.write_text(DUPLICATE_RULES)
    argv = ["detect", "--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules)]
    assert run(capsys, argv) == (2, "", "error: rule name 'r' is used twice\n")


def test_gen_size_error_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["gen", "--vertices", "1", "--edges", "1", "--types", "1", "--attrs", "1",
         "--T", "2", "--chg", "0.1", "--seed", "1", "--out-prefix", str(tmp_path / "g")],
    )
    assert code == 2
    assert err == "error: need at least two vertices and one timestamp\n"


def gen_argv(tmp_path, edges, chg, T=3):
    return ["gen", "--vertices", "3", "--edges", str(edges), "--types", "1", "--attrs", "1",
            "--T", str(T), "--chg", str(chg), "--profile", "skewed_ei", "--seed", "1",
            "--out-prefix", str(tmp_path / "g")]


def test_gen_too_many_insertions_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, gen_argv(tmp_path, 18, 1.0))
    assert (code, err) == (
        2, "error: 15 edge insertions at t=2 exceed the 1 free edge slots "
        "that 3 vertices and 3 labels leave\n",
    )
    assert not list(tmp_path.iterdir())


def test_gen_insertions_that_just_fit(capsys, tmp_path):
    # T = 2 fills all 18 slots; T = 3 asks for 7 insertions into 1 free slot
    assert run(capsys, gen_argv(tmp_path, 12, 0.7, T=2)) == (0, "vertices=3 edges=12 T=2\n", "")
    graph = load_graph((tmp_path / "g.snapshot").read_text(), (tmp_path / "g.changes").read_text())
    assert len(graph.view(2).edges) == 18
    assert run(capsys, gen_argv(tmp_path, 12, 0.7))[0] == 2


GEN_ARGS = {"--vertices": "4", "--edges": "3", "--types": "1", "--attrs": "1",
            "--T": "2", "--chg": "0.5"}


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--types", "0", "need at least one vertex type"),
        ("--edges", "-5", "edge and attribute counts must be >= 0"),
        ("--attrs", "-1", "edge and attribute counts must be >= 0"),
        ("--chg", "-1", "change rate -1.0 must be a finite number >= 0"),
        ("--chg", "nan", "change rate nan must be a finite number >= 0"),
        ("--chg", "inf", "change rate inf must be a finite number >= 0"),
        ("--edges", "37", "37 edges exceed the 36 that 4 vertices and 3 labels can hold"),
    ],
)
def test_gen_option_errors_exit_2(capsys, tmp_path, option, value, message):
    argv = ["gen", "--out-prefix", str(tmp_path / "g")]
    for name, default in GEN_ARGS.items():
        argv += [name, value if name == option else default]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("zeta", ["-5", "nan"])
def test_detect_parallel_zeta_error_exit_2(capsys, med_files, zeta):
    snap, changes, rules = med_files
    code, out, err = run(
        capsys,
        ["detect-parallel", "--graph", str(snap), "--changes", str(changes),
         "--tgfds", str(rules), "--workers", "2", "--tl", "0", "--tu", "1e9",
         "--zeta", zeta],
    )
    assert (code, out) == (2, "")
    assert err == f"error: zeta {float(zeta)} must be a number >= 0\n"


@pytest.mark.parametrize(
    "ledger, message",
    [
        ("{}", "ledger lacks the key 'gamma_plus'"),
        ("[]", "malformed ledger: "),
        ('{"gamma_plus": [["r", [1]]], "gamma_minus": [], "mutations": []}', "malformed ledger: "),
        (
            '{"gamma_plus": [], "gamma_minus": [], "mutations": [[1, "a"]], "pool_size": 0,'
            ' "sampled_positive": 0, "sampled_negative": 0, "flags": []}',
            "malformed ledger: ",
        ),
    ],
)
def test_eval_malformed_ledger_exit_2(capsys, med_files, tmp_path, ledger, message):
    snap, changes, rules = med_files
    path = tmp_path / "bad.ledger"
    path.write_text(ledger)
    code, out, err = run(
        capsys,
        ["eval", "--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules),
         "--ledger", str(path)],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_undecodable_input_exit_2(capsys, tmp_path):
    rules = tmp_path / "r.tgfd"
    rules.write_bytes(b"tgfd r\xff\n")
    code, _, err = run(capsys, ["sat", "--tgfds", str(rules)])
    assert code == 2
    assert err.startswith("error: ")


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch, tmp_path):
    # only engine errors map to exit 2; a bare ValueError is a bug and surfaces
    def broken(tgfds):
        raise ValueError("internal invariant")

    monkeypatch.setattr("tgfd.cli.check_satisfiability", broken)
    rules = tmp_path / "r.tgfd"
    rules.write_text(CONFLICT_RULES)
    with pytest.raises(ValueError, match="internal invariant"):
        main(["sat", "--tgfds", str(rules)])


def test_gen_inject_eval_pipeline(capsys, tmp_path):
    prefix = tmp_path / "syn"
    code, out, _ = run(
        capsys,
        ["gen", "--vertices", "24", "--edges", "40", "--types", "2", "--attrs", "2",
         "--T", "4", "--chg", "0.05", "--seed", "3", "--out-prefix", str(prefix)],
    )
    assert code == 0
    assert (tmp_path / "syn.snapshot").exists()
    assert (tmp_path / "syn.changes").exists()

    rules = tmp_path / "r.tgfd"
    rules.write_text(
        "tgfd synrule\nvertex x T0\nvertex y T1\nedge x l0 y\n"
        "delta (0, 2)\nx: x.a0 == x.a0\ny: y.a1 == y.a1\n"
    )
    inj_prefix = tmp_path / "mut"
    code, out, _ = run(
        capsys,
        ["inject", "--graph", str(tmp_path / "syn.snapshot"),
         "--changes", str(tmp_path / "syn.changes"), "--tgfds", str(rules),
         "--err", "0.2", "--seed", "5", "--out-prefix", str(inj_prefix)],
    )
    assert code == 0
    assert (tmp_path / "mut.ledger").exists()

    code, out, _ = run(
        capsys,
        ["eval", "--graph", str(tmp_path / "mut.snapshot"),
         "--changes", str(tmp_path / "mut.changes"), "--tgfds", str(rules),
         "--ledger", str(tmp_path / "mut.ledger")],
    )
    assert code == 0
    metrics = dict(
        line.split("=", 1) for line in out.strip().splitlines() if "=" in line
    )
    assert float(metrics["precision"]) == 1.0
    assert float(metrics["recall"]) == 1.0


def test_plan_prints_assignment(capsys, med_files):
    snap, changes, rules = med_files
    code, out, _ = run(
        capsys,
        ["plan", "--graph", str(snap), "--changes", str(changes),
         "--tgfds", str(rules), "--workers", "2", "--tl", "0", "--tu", "1e9"],
    )
    assert code == 0
    assert out.startswith("makespan=")
    assert "job=dosage_rule@f1 worker=" in out
    assert "job=dosage_rule@f2 worker=" in out


@pytest.mark.parametrize("seed", range(8))
def test_plan_jobs_equal_the_first_parallel_assignment(capsys, tmp_path, seed):
    """plan prints the assignment detect-parallel starts from: its job lines
    are detect-parallel's `assignment t=1` lines, for random instances,
    worker counts, fragment seeds and job-time bounds."""
    rng = random.Random(600 + seed)
    g = random_graph(rng, 16, 36)
    for t in range(2, 5):
        g = apply_changes(g, random_changes(rng, g, t, 6))
    rules = [random_tgfd(rng, "r", T=g.T), exotic_rule(rng, "e")]
    snap_text, changes_text = graph_to_texts(g)
    rules_text = "\n".join(map(format_tgfd, rules))
    files = {"graph": snap_text, "changes": changes_text, "tgfds": rules_text}
    argv = []
    for flag, text in files.items():
        (tmp_path / flag).write_text(text, encoding="utf-8")
        argv += [f"--{flag}", str(tmp_path / flag)]
    argv += ["--workers", str(1 + seed % 4), "--seed", str(seed), "--tl", "0"]
    argv += ["--tu", "inf" if seed % 2 else "1e6"]
    code, plan, _ = run(capsys, ["plan", *argv])
    assert code == 0
    code, parallel, _ = run(capsys, ["detect-parallel", *argv])
    assert code == 0
    first = [line[len("assignment t=1 "):] for line in parallel.splitlines()
             if line.startswith("assignment t=1 ")]
    assert first and plan.splitlines()[1:] == first


SELF_LOOP_SNAPSHOT = """\
v a person name=ann
v b person name=ann
v c person name=bob
v s team code=1
v u team code=2
e a rates a
e a plays s
e b plays u
e c rates c
e c plays s
"""

SELF_LOOP_CHANGES = """\
t 2
+e b rates b
-e c rates c
t 3
-e a rates a
+e c rates c
+a u code=1
"""

SELF_LOOP_RULES = """\
tgfd loop_rule
vertex x person
vertex y team
edge x rates x
edge x plays y
delta (0, 2)
x: x.name == x.name
y: y.code == y.code
"""


def test_self_loop_rule_detect_and_parallel_agree(tmp_path):
    snap = tmp_path / "loop.snapshot"
    snap.write_text(SELF_LOOP_SNAPSHOT)
    changes = tmp_path / "loop.changes"
    changes.write_text(SELF_LOOP_CHANGES)
    rules = tmp_path / "loop.tgfd"
    rules.write_text(SELF_LOOP_RULES)
    io = ["--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules)]
    seq_out = tmp_path / "seq.txt"
    par_out = tmp_path / "par.txt"
    assert main(["detect", *io, "--out", str(seq_out)]) == 0
    assert main(
        ["detect-parallel", *io, "--workers", "2", "--tl", "0", "--tu", "1e9",
         "--out", str(par_out)]
    ) == 0
    seq_lines = [l for l in seq_out.read_text().splitlines() if l.startswith("loop_rule")]
    par_lines = [l for l in par_out.read_text().splitlines() if l.startswith("loop_rule")]
    # b's loop arrives at t=2, a's leaves at t=3, u's code changes at t=3
    assert seq_lines == [
        "loop_rule PAIR t_i=1 t_j=2 x=a,y=s x=b,y=u",
        "loop_rule PAIR t_i=2 t_j=2 x=a,y=s x=b,y=u",
        "loop_rule PAIR t_i=2 t_j=3 x=b,y=u x=b,y=u",
    ]
    assert par_lines == seq_lines


def test_parser_reused_after_usage_error(capsys, tmp_path):
    """The parser is built once per process: a usage error must leave it
    fit for the next call, which must match a run in a fresh process."""
    rules = tmp_path / "bad.tgfd"
    rules.write_text(CONFLICT_RULES)
    out_file = tmp_path / "sat.out"
    argv = ["sat", "--tgfds", str(rules), "--out", str(out_file)]
    src = str(Path(tgfd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from tgfd.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    fresh_out = out_file.read_text()
    out_file.unlink()

    assert main(["sat", "--no-such-option"]) == 1
    capsys.readouterr()
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 3
    assert out_file.read_text() == fresh_out


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


@pytest.fixture
def full_lines(med_files, tmp_path):
    """{subcommand: a valid command line naming every option it takes}
    over the medication fixture; the inject line writes eval's ledger."""
    snap, changes, rules = med_files
    io = ["--graph", str(snap), "--changes", str(changes), "--tgfds", str(rules)]
    bounds = ["--workers", "2", "--tl", "0", "--tu", "1e9"]

    def out(name):
        return ["--out", str(tmp_path / name)]

    return {
        "detect": ["detect", *io, *out("detect.out"), "--format", "jsonlike", "--mode", "gfd"],
        "detect-parallel": [
            "detect-parallel", *io, *out("parallel.out"), "--format", "jsonlike",
            "--seed", "2", "--mode", "upper-only", *bounds, "--zeta", "0.2",
            "--time-model", "wall",
        ],
        "sat": ["sat", "--tgfds", str(rules), *out("sat.out")],
        "implies": ["implies", "--tgfds", str(rules), "--query", str(rules), *out("implies.out")],
        "inject": [
            "inject", *io, *out("inject.out"), "--seed", "3", "--err", "0.5", "--negative",
            "--out-prefix", str(tmp_path / "mut"),
        ],
        "eval": [
            "eval", *io, *out("eval.out"), "--ledger", str(tmp_path / "mut.ledger"),
            "--mode", "upper-only",
        ],
        "gen": [
            "gen", "--vertices", "6", "--edges", "8", "--types", "2", "--attrs", "1",
            "--T", "3", "--chg", "0.2", "--profile", "skewed_au", "--seed", "2",
            "--out-prefix", str(tmp_path / "gen"),
        ],
        "plan": ["plan", *io, *out("plan.out"), "--seed", "2", *bounds],
    }


def _option_dests(argv):
    return {a[2:].replace("-", "_") for a in argv if a.startswith("--")}


@pytest.mark.parametrize("command", sorted(_RUNNERS))
def test_every_parsed_option_is_read_by_its_runner(capsys, full_lines, command):
    assert main(full_lines["inject"]) == 0  # eval reads the ledger it writes
    argv = full_lines[command]
    args = _build_parser().parse_args(argv, namespace=_ReadRecorder())
    parsed = set(vars(args)) - {"command", "_reads"}
    assert parsed == _option_dests(argv)
    args.__dict__["_reads"] = set()  # parsing read some; count the runner's only
    assert _RUNNERS[command](args) in (0, 3)
    assert parsed - args.__dict__["_reads"] == set()


def test_option_count_per_subcommand(full_lines):
    parse = _build_parser().parse_args
    counts = {cmd: len(vars(parse(argv))) - 1 for cmd, argv in full_lines.items()}  # - command
    assert counts == {
        "detect": 6, "detect-parallel": 12, "sat": 2, "implies": 3,
        "inject": 8, "eval": 6, "gen": 9, "plan": 8,
    }
    assert sum(counts.values()) == 54


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("detect", "--seed", "1"),
        ("sat", "--format", "text"),
        ("sat", "--seed", "1"),
        ("implies", "--format", "text"),
        ("implies", "--seed", "1"),
        ("inject", "--format", "text"),
        ("eval", "--format", "text"),
        ("eval", "--seed", "1"),
        ("eval", "--workers", "2"),
        ("eval", "--zeta", "0.1"),
        ("eval", "--tl", "0"),
        ("eval", "--tu", "1e9"),
        ("plan", "--format", "text"),
    ],
)
def test_removed_option_is_a_usage_error(capsys, tmp_path, full_lines, command, option, value):
    code, out, err = run(capsys, [*full_lines[command], option, value])
    assert (code, out) == (1, "")
    assert err.startswith("usage: tgfd ")
    assert err.endswith(f"error: unrecognized arguments: {option} {value}\n")
    assert not list(tmp_path.glob("*.out")) and not list(tmp_path.glob("mut.*"))

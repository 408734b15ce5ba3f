import random

import networkx as nx
import pytest

from tgfd.detection import detect_sequential
from tgfd.errors import (
    DuplicateRule,
    EmptyConsequent,
    InvalidDelta,
    InvalidPattern,
    TgfdSyntaxError,
    UnknownVariable,
)
from tgfd.evaluation import inject_errors
from tgfd.foundations import check_satisfiability
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    MatchBinding,
    Tgfd,
    VariableLiteral,
    normalize,
    normalize_all,
    parse_tgfd_file,
)
from tgfd.parallel import run_parallel

from conftest import DUPLICATE_RULES

from util import (
    build_graph,
    chain_pattern,
    exotic_pattern,
    extend,
    format_tgfd,
    grid_pattern,
    labelled_digraph,
    pair_satisfies,
)
from tgfd.graph import AttrSet


def small_pattern():
    return GraphPattern(
        [("x", "patient"), ("y", "medication")], [("x", "prescribed", "y")]
    )


def test_delta_validation():
    assert Delta(0, 0).contains(0)
    assert Delta(1, 4).contains(-3)
    assert not Delta(1, 4).contains(0)
    with pytest.raises(InvalidDelta):
        Delta(3, 1)
    with pytest.raises(InvalidDelta):
        Delta(-1, 1)


def test_delta_algebra():
    assert Delta(0, 3).intersect(Delta(2, 5)) == Delta(2, 3)
    assert Delta(0, 1).intersect(Delta(3, 4)) is None
    assert Delta(1, 2).within(Delta(0, 5))
    assert not Delta(0, 5).within(Delta(1, 2))


def test_pattern_validation():
    with pytest.raises(ValueError):
        GraphPattern([("x", "a"), ("y", "b")], [])  # disconnected
    with pytest.raises(ValueError):
        GraphPattern([("x", "a"), ("x", "b")], [])  # duplicate var
    with pytest.raises(UnknownVariable):
        GraphPattern([("x", "a")], [("x", "l", "zz")])


def test_input_errors_are_engine_errors():
    # still ValueErrors for existing callers, and TgfdErrors for the CLI
    from tgfd.errors import InvalidGraph, InvalidOption, InvalidPattern, TgfdError
    from tgfd.evaluation import generate_synthetic
    from tgfd.parallel import make_fragments

    for exc in (InvalidGraph, InvalidOption, InvalidPattern):
        assert issubclass(exc, TgfdError) and issubclass(exc, ValueError)
    with pytest.raises(InvalidPattern):
        GraphPattern([], [])
    g = build_graph({"a": "p", "b": "p"}, [("a", "l", "b")], {})
    with pytest.raises(InvalidGraph):
        g.snapshot(2)
    with pytest.raises(InvalidOption):
        make_fragments(g, 0)
    with pytest.raises(InvalidOption):
        generate_synthetic(5, 5, 1, 1, T=2, chg_rate=0.1, seed=1, profile="nope")


def test_pattern_diameter_and_center():
    chain = GraphPattern(
        [("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")],
        [("a", "l", "b"), ("b", "l", "c"), ("c", "l", "d")],
    )
    assert chain.diameter == 3
    center, radius = chain.radius_center()
    assert center in ("b", "c") and radius == 2


def assert_geometry_like_networkx(pattern: GraphPattern, undirected) -> None:
    ecc = nx.eccentricity(undirected)
    for var in pattern.vars:
        assert pattern.distances_from(var) == nx.single_source_shortest_path_length(undirected, var)
    assert pattern.diameter == nx.diameter(undirected)
    # the first variable, in vars order, of least eccentricity
    center = min(pattern.vars, key=ecc.__getitem__)
    assert pattern.radius_center() == (center, nx.radius(undirected))


def test_pattern_geometry_agrees_with_networkx():
    """distances_from, diameter, radius_center and the connectivity check
    agree with networkx on the pattern taken as an undirected graph: random
    nodes and edges (self-loops and parallel labels among them), chains,
    grids and the exotic shapes.  A pattern networkx finds disconnected is
    refused."""
    refused = centered_late = 0
    for seed in range(200):
        rng = random.Random(seed)
        variables = [f"v{i}" for i in range(rng.randint(1, 7))]
        rng.shuffle(variables)
        nodes = [(v, rng.choice(["A", "_"])) for v in variables]
        edges = [
            (rng.choice(variables), rng.choice("ab"), rng.choice(variables))
            for _ in range(rng.randint(0, 2 * len(variables)))
        ]
        undirected = labelled_digraph(nodes, edges).to_undirected()
        if not nx.is_connected(undirected):
            with pytest.raises(InvalidPattern):
                GraphPattern(nodes, edges)
            refused += 1
            continue
        pattern = GraphPattern(nodes, edges)
        assert_geometry_like_networkx(pattern, undirected)
        centered_late += pattern.radius_center()[0] != pattern.vars[0]
        for shaped in (
            chain_pattern(rng, rng.randint(2, 12)),
            grid_pattern(rng, rng.randint(1, 3), rng.randint(2, 4)),
            exotic_pattern(rng),
        ):
            assert_geometry_like_networkx(
                shaped, labelled_digraph(shaped.nodes, shaped.edges).to_undirected()
            )
    assert refused >= 20 and centered_late >= 20


def test_normalize():
    p = small_pattern()
    l1 = ConstantLiteral("y", "name", "Veklury")
    l2 = VariableLiteral("y", "code", "y", "code")
    single = Tgfd("s", p, Delta(0, 1), [], [l1])
    assert normalize(single) == [single]
    multi = Tgfd("m", p, Delta(0, 1), [], [l1, l2])
    parts = normalize(multi)
    assert len(parts) == 2
    assert {next(iter(r.y_literals)) for r in parts} == {l1, l2}
    assert all(r.x_literals == multi.x_literals for r in parts)
    assert sorted(r.name for r in parts) == ["m#1", "m#2"]
    # idempotent: renormalizing the parts changes nothing
    assert [normalize(r) for r in parts] == [[parts[0]], [parts[1]]]
    triple = Tgfd("t3", p, Delta(0, 1), [], [l1, l2, ConstantLiteral("x", "name", "Jo")])
    out = normalize(triple)
    assert len(out) == 3
    assert frozenset().union(*(r.y_literals for r in out)) == triple.y_literals
    with pytest.raises(EmptyConsequent):
        normalize(Tgfd("e", p, Delta(0, 1), [], []))


def test_repeated_rule_name_is_rejected():
    with pytest.raises(DuplicateRule, match="rule name 'r' is used twice"):
        parse_tgfd_file(DUPLICATE_RULES)
    # a rule named like a split part collides with that part
    p = small_pattern()
    lits = [ConstantLiteral("y", "name", "Veklury"), VariableLiteral("y", "code", "y", "code")]
    rules = [Tgfd("r#1", p, Delta(0, 1), [], lits[:1]), Tgfd("r", p, Delta(0, 1), [], lits)]
    with pytest.raises(DuplicateRule, match="rule name 'r#1' is used twice"):
        normalize_all(rules)
    assert [r.name for r in normalize_all(rules[1:])] == ["r#1", "r#2"]


@pytest.mark.parametrize(
    "engine",
    [
        lambda graph, rules: detect_sequential(graph, rules),
        lambda graph, rules: run_parallel(graph, rules, 2),
        lambda graph, rules: inject_errors(graph, rules, 0.5, seed=1),
        lambda graph, rules: check_satisfiability(rules),
    ],
    ids=["detect_sequential", "run_parallel", "inject_errors", "check_satisfiability"],
)
def test_every_engine_rejects_a_repeated_rule_name(medication_graph, engine):
    pairs = Tgfd(
        "r", small_pattern(), Delta(0, 4),
        [VariableLiteral("x", "name", "x", "name")], [VariableLiteral("y", "name", "y", "name")],
    )
    const = Tgfd(
        "r", GraphPattern([("p", "patient")], []), Delta(0, 1),
        [], [ConstantLiteral("p", "name", "y")],
    )
    with pytest.raises(DuplicateRule, match="rule name 'r' is used twice"):
        engine(medication_graph, [pairs, const])


def medication_pair_graph():
    g = build_graph(
        {"p": "patient", "m": "medication", "w": "dosage"},
        [("p", "prescribed", "m"), ("m", "dose", "w")],
        {"p": {"name": "Jack"}, "m": {"name": "Veklury"}, "w": {"val": "100mg"}},
    )
    return extend(g, [AttrSet("w", "val", "50mg")])


def test_pair_satisfies_empty_set_vacuous():
    g = medication_pair_graph()
    h1 = MatchBinding.of(1, {"x": "p"})
    h2 = MatchBinding.of(2, {"x": "p"})
    assert pair_satisfies(h1, h2, [], g)


def test_pair_satisfies_constant_dosage():
    g = medication_pair_graph()
    lit = [ConstantLiteral("w", "val", "100mg")]
    h1 = MatchBinding.of(1, {"w": "w"})
    h2 = MatchBinding.of(2, {"w": "w"})
    assert pair_satisfies(h1, h1, lit, g)
    # the t=2 side carries 50mg, so the pair fails the constant
    assert not pair_satisfies(h1, h2, lit, g)


def test_pair_satisfies_variable_and_missing_attr():
    g = medication_pair_graph()
    lit = [VariableLiteral("x", "name", "x", "name")]
    h1 = MatchBinding.of(1, {"x": "p"})
    h2 = MatchBinding.of(2, {"x": "p"})
    assert pair_satisfies(h1, h2, lit, g)
    g2 = extend(medication_pair_graph(), [AttrSet("p", "name", "Jill")])
    h3 = MatchBinding.of(3, {"x": "p"})
    assert not pair_satisfies(h1, h3, lit, g2)
    missing = [VariableLiteral("x", "nope", "x", "nope")]
    assert not pair_satisfies(h1, h2, missing, g)


def test_pair_satisfies_symmetry_for_self_form():
    g = medication_pair_graph()
    lit = [VariableLiteral("x", "name", "x", "name")]
    h1 = MatchBinding.of(1, {"x": "p"})
    h2 = MatchBinding.of(2, {"x": "p"})
    assert pair_satisfies(h1, h2, lit, g) == pair_satisfies(h2, h1, lit, g)


def test_pair_satisfies_general_form_is_directional():
    g = build_graph(
        {"p": "patient", "m": "medication"},
        [("p", "prescribed", "m")],
        {"p": {"name": "A"}, "m": {"label": "B"}},
    )
    g = extend(g, [AttrSet("p", "name", "B"), AttrSet("m", "label", "C")])
    # hi's left side (p.name at t) vs hj's right side (m.label at t')
    lit = [VariableLiteral("x", "name", "y", "label")]
    h1 = MatchBinding.of(1, {"x": "p", "y": "m"})
    h2 = MatchBinding.of(2, {"x": "p", "y": "m"})
    # h2.name = "B" matches h1.label = "B", but not the other way round
    assert pair_satisfies(h2, h1, lit, g)
    assert not pair_satisfies(h1, h2, lit, g)


VEKLURY_DSL = """\
tgfd veklury
vertex x patient
vertex z disease
vertex y medication
vertex w dosage
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (1, 4)
x: z.name = "Covid19"; y.name = "Veklury"; x.name == x.name
y: w.val = "100mg"
"""


def test_parse_veklury_rule():
    rules = parse_tgfd_file(VEKLURY_DSL)
    assert len(rules) == 1
    r = rules[0]
    assert r.name == "veklury"
    assert r.delta == Delta(1, 4)
    assert len(r.pattern.edges) == 3
    assert ConstantLiteral("z", "name", "Covid19") in r.x_literals
    assert VariableLiteral("x", "name", "x", "name") in r.x_literals
    assert r.y_literal == ConstantLiteral("w", "val", "100mg")


def test_parse_invalid_delta():
    bad = VEKLURY_DSL.replace("delta (1, 4)", "delta (3, 1)")
    with pytest.raises(InvalidDelta):
        parse_tgfd_file(bad)


def test_parse_two_rules_with_multi_consequent():
    text = VEKLURY_DSL + (
        "\ntgfd second\n"
        "vertex a team\n"
        "vertex b person\n"
        "edge b plays a\n"
        "delta (0, 2)\n"
        "x: b.name == b.name\n"
        'y: a.name == a.name; a.code = "x1"\n'
    )
    rules = parse_tgfd_file(text)
    assert len(rules) == 3  # second rule split into two
    assert {r.name for r in rules} == {"veklury", "second#1", "second#2"}


def test_parse_errors():
    with pytest.raises(TgfdSyntaxError):
        parse_tgfd_file("vertex x t\n")
    with pytest.raises(UnknownVariable):
        parse_tgfd_file(
            "tgfd r\nvertex x t\ndelta (0, 1)\nx: q.name == q.name\ny: x.a = \"1\"\n"
        )
    with pytest.raises(EmptyConsequent):
        parse_tgfd_file("tgfd r\nvertex x t\ndelta (0, 1)\nx: x.a = \"1\"\n")
    with pytest.raises(TgfdSyntaxError):
        parse_tgfd_file("tgfd r\nvertex x t\ndelta (0, 1)\ny: x.a = 1\n")


def test_wildcard_label_allowed():
    rules = parse_tgfd_file(
        "tgfd w\nvertex x _\nvertex y team\nedge x plays y\ndelta (0, 1)\ny: x.name == x.name\n"
    )
    assert rules[0].pattern.label_of("x") == "_"


def test_format_roundtrip():
    rules = parse_tgfd_file(VEKLURY_DSL)
    text = format_tgfd(rules[0])
    again = parse_tgfd_file(text)
    assert again[0].x_literals == rules[0].x_literals
    assert again[0].y_literals == rules[0].y_literals
    assert again[0].delta == rules[0].delta

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from tgfd.detection import (
    ConstantViolation,
    IndexEntry,
    MatchIndex,
    PairViolation,
    ReportOrder,
    RulePlan,
    apply_mode,
    detect_sequential,
    format_violation,
    incted_step,
    nontrivially_exercised,
    pair_id,
    replay,
    violation_key,
)
from tgfd.errors import InvalidGraph
from tgfd.evaluation import generate_synthetic
from tgfd.graph import (
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    apply_changes,
    changes_to_text,
    derive_changesets,
    graph_to_texts,
    load_graph,
    snapshot_to_text,
)
from tgfd.model import (
    WILDCARD,
    ConstantLiteral,
    Delta,
    GraphPattern,
    MatchBinding,
    Tgfd,
    VariableLiteral,
)

from util import (
    Renaming,
    attrs_at,
    build_graph,
    engine_violation_keys,
    extend,
    gfd_snapshot_oracle,
    oracle_violations,
    random_changes,
    random_graph,
    random_tgfd,
    reversed_graph,
    rule_shapes,
    shaped_instance,
)


# ---------------------------------------------------------------------------
# fixtures and single steps
# ---------------------------------------------------------------------------


def test_medication_constant_violation(medication_graph, medication_rules):
    result = detect_sequential(medication_graph, medication_rules)
    vios = result.all_violations()
    assert len(vios) == 1
    v = vios[0]
    assert isinstance(v, ConstantViolation)
    assert v.binding.t == 6
    assert v.failed == ConstantLiteral("w", "val", "100mg")
    assert result.nontrivial["dosage_rule"]


def test_single_match_no_pairs():
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"a": {"name": "x"}, "b": {"code": "1"}},
    )
    for _ in range(4):
        g = extend(g, [])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    result = detect_sequential(g, [sigma])
    assert result.all_violations() == []
    assert result.nontrivial["r"]


def test_variable_consequent_pair_violation():
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"a": {"name": "x"}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    vios = detect_sequential(g, [sigma]).all_violations()
    assert len(vios) == 1
    v = vios[0]
    assert isinstance(v, PairViolation)
    assert (v.binding_i.t, v.binding_j.t) == (1, 2)


def test_constant_x_filtering():
    # bindings failing a constant X literal never produce violations
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"a": {"name": "x", "rank": "low"}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [ConstantLiteral("x", "rank", "high")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    result = detect_sequential(g, [sigma])
    assert result.all_violations() == []
    assert not result.nontrivial["r"]


def test_general_x_that_no_pair_realizes_is_not_nontrivial():
    # X x.a == y.a compares one match's x with the other's y: 1 and 3
    # against 9 and 7, so no pair of the 4 matches realizes X, in either
    # orientation, although 6 pairs lie inside the interval
    g = build_graph(
        {"x1": "A", "y1": "B", "x2": "A", "y2": "B"},
        [("x1", "l", "y1"), ("x2", "l", "y2")],
        {
            "x1": {"a": "1", "b": "2"}, "y1": {"a": "9", "b": "8"},
            "x2": {"a": "3", "b": "4"}, "y2": {"a": "7", "b": "6"},
        },
    )
    g = extend(g, [])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "A"), ("y", "B")], [("x", "l", "y")]),
        Delta(0, 1),
        [VariableLiteral("x", "a", "y", "a")],
        [VariableLiteral("x", "b", "y", "b")],
    )
    result = detect_sequential(g, [sigma])
    assert result.pairs_compared["r"] == 6
    assert result.all_violations() == []
    assert not result.nontrivial["r"]


def test_same_timestamp_distinct_bindings_checked_when_p_zero():
    g = build_graph(
        {"a1": "person", "a2": "person", "b1": "team", "b2": "team"},
        [("a1", "plays", "b1"), ("a2", "plays", "b2")],
        {
            "a1": {"name": "same"},
            "a2": {"name": "same"},
            "b1": {"code": "1"},
            "b2": {"code": "2"},
        },
    )
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 1),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    vios = detect_sequential(g, [sigma]).all_violations()
    assert len(vios) == 1
    assert vios[0].binding_i.t == vios[0].binding_j.t == 1
    # with p >= 1 the same-timestamp pair is out of range
    sigma2 = sigma.with_delta(Delta(1, 2), suffix="2")
    assert detect_sequential(g, [sigma2]).all_violations() == []


def test_incted_step_returns_only_new_violations():
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"a": {"name": "x"}, "b": {"code": "1"}},
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
    index = MatchIndex(RulePlan(sigma, ReportOrder(g.vertices, g.T), g))
    match = (("x", "a"), ("y", "b"))

    def entries(t):
        return index.plan.entries([match], t)

    step1 = list(incted_step(index, sigma, entries(1)))
    assert step1 == []
    step2 = list(incted_step(index, sigma, entries(2)))
    assert len(step2) == 1 and step2[0].binding_j.t == 2
    step3 = list(incted_step(index, sigma, entries(3)))
    # two fresh pairs (1,3) and (2,3); the (1,2) pair is not re-reported
    assert len(step3) == 2
    assert all(v.binding_j.t == 3 for v in step3)


def test_index_partitions_are_consistent():
    names = {"a1": "x", "a2": "x", "a3": "z"}
    g = build_graph(
        {**{a: "person" for a in names}, "b": "team"},
        [(a, "plays", "b") for a in names],
        {**{a: {"name": n} for a, n in names.items()}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("a3", "name", "x")])
    g = extend(g, [])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    index = MatchIndex(RulePlan(sigma, ReportOrder(g.vertices, g.T), g))
    inserted = []
    for t in (1, 2, 3):
        matches = [MatchBinding.of(t, {"x": a, "y": "b"}) for a in names]
        incted_step(index, sigma, index.plan.entries([b.items for b in matches], t))
        inserted += sorted(matches, key=lambda b: b.items)
    # every inserted match sits in the class of its X value, the class
    # lists its entries in insertion order, which is timestamp order, and
    # beside them their timestamps
    want = {}
    for b in inserted:
        xkey = (g.snapshot(b.t).attr(b.get("x"), "name"),)
        want.setdefault(xkey, []).append(b)
    got = {
        key: [MatchBinding(e.t, e.items) for e in entries]
        for key, (entries, _) in index.classes.items()
    }
    assert got == want
    for entries, ts in index.classes.values():
        assert ts == [e.t for e in entries] == sorted(ts)
    assert set(got) == {("x",), ("z",)}
    assert [(b.t, b.get("x")) for b in got[("x",)]] == [
        (1, "a1"), (1, "a2"), (2, "a1"), (2, "a2"), (2, "a3"), (3, "a1"), (3, "a2"), (3, "a3")
    ]


def entry(t: int, key: str, n: int, x_general=()) -> IndexEntry:
    return IndexEntry(t=t, items=(("x", f"v{n}"),), xkey=(key,), x_general=x_general, y=None)


def index_of(entries, general: bool = False) -> MatchIndex:
    """An index of entries under a one-node rule, whose X holds one
    general-form literal (x.name == x.rank) when general."""
    sigma = Tgfd(
        "r", GraphPattern([("x", "person")], []), Delta(0, 0),
        [VariableLiteral("x", "name", "x", "rank")] if general else [],
        [VariableLiteral("x", "code", "x", "code")],
    )
    index = MatchIndex(RulePlan(sigma, ReportOrder((), 1), build_graph({}, [])))
    for e in entries:
        index.insert(e)
    return index


# (timestamp, X class) per indexed entry, in insertion order
entry_specs = st.lists(st.tuples(st.integers(1, 30), st.sampled_from("ab")), max_size=40)
deltas = st.integers(0, 40).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 40)))


@settings(max_examples=200, deadline=None)
@given(specs=entry_specs, pq=deltas, probe=st.sampled_from("abc"))
@example(specs=[(4, "a"), (4, "a"), (4, "b")], pq=(0, 0), probe="a")  # p = 0 at one t
@example(specs=[(1, "a"), (3, "a"), (4, "a"), (6, "a")], pq=(2, 3), probe="a")  # p > 0
@example(specs=[(1, "a"), (2, "b"), (30, "a")], pq=(0, 40), probe="a")  # q >= T
@example(specs=[(1, "a"), (2, "a")], pq=(0, 5), probe="c")  # an empty class
def test_partners_are_the_earlier_class_entries_in_the_interval(specs, pq, probe):
    """Indexed in timestamp order, each entry's partners are exactly the
    entries of its class indexed before it whose timestamps lie inside
    the interval of its own, in insertion order; so is a last entry's of
    class probe, at the last timestamp."""
    delta = Delta(*pq)
    specs = sorted(specs, key=lambda spec: spec[0])  # stable: one t keeps its order
    entries = [entry(t, key, n) for n, (t, key) in enumerate(specs)]
    entries.append(entry(specs[-1][0] if specs else 1, probe, len(entries)))
    index = index_of([])
    for n, new in enumerate(entries):
        want = [e for e in entries[:n] if e.xkey == new.xkey and delta.contains(new.t - e.t)]
        assert index.partners(new, delta) == want
        index.insert(new)


def test_an_entry_older_than_its_class_is_rejected():
    """An index takes each class's entries in timestamp order: an entry
    at the class's last timestamp or later goes in, an older one raises
    InvalidGraph naming both timestamps and leaves the index as it was;
    other classes keep their own order."""
    index = index_of([entry(3, "a", 0), entry(3, "a", 1), entry(5, "a", 2), entry(1, "b", 3)])
    before = {key: (list(es), list(ts)) for key, (es, ts) in index.classes.items()}
    with pytest.raises(InvalidGraph, match=r"r: entry at t=4 indexed after one at t=5"):
        index.insert(entry(4, "a", 4))
    assert index.classes == before
    index.insert(entry(2, "b", 5))
    index.insert(entry(5, "a", 6))
    assert [ts for _, ts in index.classes.values()] == [[3, 3, 5, 5], [1, 2]]
    with pytest.raises(InvalidGraph):
        incted_step(index, index.plan.sigma, [entry(4, "a", 7)])


# (left, right) values of one general-form X literal per indexed entry
general_values = st.lists(
    st.tuples(st.sampled_from([None, "u", "v"]), st.sampled_from([None, "u", "v"])), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(specs=entry_specs, pq=deltas, values=st.none() | general_values)
@example(specs=[(4, "a"), (4, "a")], pq=(0, 0), values=None)  # two matches at one t exercise p = 0
@example(specs=[(4, "a"), (4, "a")], pq=(1, 5), values=None)
@example(specs=[(1, "a"), (4, "b"), (9, "a")], pq=(0, 7), values=None)
@example(specs=[(1, "a"), (4, "b"), (9, "a")], pq=(8, 8), values=None)
# general X that no pair realizes, then one that the later match's left
# value realizes with the earlier's right only
@example(specs=[(1, "a"), (1, "a"), (2, "a")], pq=(0, 1), values=[("u", "v")] * 3)
@example(specs=[(1, "a"), (2, "a")], pq=(0, 1), values=[(None, "u"), ("u", None)])
def test_nontrivially_exercised_equals_pairwise_definition(specs, pq, values):
    # values None: X without general-form literals, where sharing an X
    # class realizes X; else entry n carries values[n] (or none realizing)
    general = values is not None
    if general:
        values = values + [(None, None)] * len(specs)
    entries = [
        entry(t, key, n, (values[n],) if general else ()) for n, (t, key) in enumerate(specs)
    ]
    entries.sort(key=lambda e: e.t)  # an index takes them in timestamp order
    delta = Delta(*pq)

    def x_ok(a, b):  # a on the left
        left, right = a.x_general[0][0], b.x_general[0][1]
        return left is not None and left == right

    pairwise = any(
        a.xkey == b.xkey
        and delta.contains(b.t - a.t)
        and (not general or x_ok(a, b) or x_ok(b, a))
        for i, a in enumerate(entries)
        for b in entries[i + 1:]
    )
    assert nontrivially_exercised(index_of(entries, general), delta) == pairwise


# ---------------------------------------------------------------------------
# replaying parsed change sets
# ---------------------------------------------------------------------------


def knows_rule() -> Tgfd:
    """A pair rule over every `knows` edge: random graphs give it many
    X-equal pairs inside the interval."""
    return Tgfd(
        "k",
        GraphPattern([("x", WILDCARD), ("y", WILDCARD)], [("x", "knows", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )


def detect_lines(graph, rules):
    result = detect_sequential(graph, rules)
    lines = [format_violation(v) for v in result.all_violations()]
    return lines, result.nontrivial, result.pairs_compared


def iso_searches(graph, rules):
    return detect_sequential(graph, rules).iso_searches


def canonical(graph):
    """The graph reloaded from its canonical files: no no-op changes."""
    return load_graph(*graph_to_texts(graph))


def test_parsed_changesets_detect_like_derived_ones():
    team_rule = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    base = build_graph(
        {"a1": "person", "a2": "person", "b1": "team", "b2": "team"},
        [("a1", "plays", "b1")],
        {"a1": {"name": "n"}, "a2": {"name": "n"}, "b1": {"code": "1"}, "b2": {"code": "2"}},
    )
    changes = (
        "t 2\n"
        "+e a2 plays b2\n-e a2 plays b2\n"   # insert and delete in one set
        "+e a1 plays b1\n"                    # re-insert a present edge
        "+a b1 code=1\n"                      # write the current value
        "t 3\n"
        "-e a1 plays b1\n+e a1 plays b1\n"   # delete, then re-insert
        "+e a2 plays b2\n"
        "t 4\n"
        "+a b2 code=1\n+a b2 code=2\n"       # change and change back
        "+e a2 plays b1\n"
    )
    g = load_graph(snapshot_to_text(base), changes)
    clean = canonical(g)
    assert clean.T == g.T
    assert all(attrs_at(clean, t) == attrs_at(g, t) for t in range(1, g.T + 1))
    assert all(clean.view(t).edges == g.view(t).edges for t in range(1, g.T + 1))
    assert list(g.changesets) != list(clean.changesets) == derive_changesets(g)
    replayed = detect_lines(g, [team_rule])
    assert replayed == detect_lines(clean, [team_rule])
    assert replayed[0]  # the rule does fire: b1 and b2 disagree from t=3 on
    # Matchers take flips, not changes as written: the edge inserted and
    # deleted at t=2 and the one deleted and re-inserted at t=3 cost nothing.
    assert iso_searches(g, [team_rule]) == iso_searches(clean, [team_rule])

    for seed in range(12):
        rng = random.Random(seed)
        g = random_graph(rng, 18, 36)
        noisy = []
        for t in range(2, 6):
            cs = random_changes(rng, g, t, 8)
            g = apply_changes(g, cs)
            noisy.append(ChangeSet(t, noop_changes(rng, g, t - 1) + cs.changes))
        rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=5) for i in range(3)]
        rules.append(knows_rule())
        parsed = load_graph(snapshot_to_text(g), changes_to_text(noisy))
        assert parsed.T == g.T
        assert all(attrs_at(parsed, t) == attrs_at(g, t) for t in range(1, g.T + 1))
        assert all(parsed.view(t).edges == g.view(t).edges for t in range(1, g.T + 1))
        assert list(parsed.changesets) == noisy != derive_changesets(parsed)
        assert detect_lines(parsed, rules) == detect_lines(canonical(parsed), rules), seed
        assert iso_searches(parsed, rules) == iso_searches(canonical(g), rules), seed


def test_replay_matchers_share_one_view():
    rng = random.Random(4)
    g = random_graph(rng, 16, 30)
    for t in range(2, 6):
        g = apply_changes(g, random_changes(rng, g, t, 8))
    rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=g.T) for i in range(3)]
    views = set()
    for t, matchers, flipped in replay(g, rules):
        views.update(id(m.view) for m in matchers.values())
        view = next(iter(matchers.values())).view
        assert view.t == t and view.edges == g.view(t).edges
        before = g.view(t - 1).edges if t > 1 else view.edges
        assert flipped == sorted(before ^ view.edges)
    assert len(views) == 1


def noop_changes(rng: random.Random, graph, t: int):
    """Changes that leave snapshot t as it is: an insert and delete of an
    absent edge, a re-insert of a present edge, a delete and re-insert of
    another, and a write of an attribute's current value."""
    attrs, edges = attrs_at(graph, t), graph.view(t).edges
    present = sorted(edges)
    vids = sorted({e[0] for e in present} | {e[2] for e in present})
    absent = next(
        e for e in ((a, "knows", b) for a in vids for b in vids if a != b)
        if e not in edges
    )
    kept, redone = rng.sample(present, 2)
    vid = rng.choice(sorted(attrs))
    name = rng.choice(sorted(attrs[vid]))
    return (
        EdgeInsert(*absent), EdgeDelete(*absent),
        EdgeInsert(*kept),
        EdgeDelete(*redone), EdgeInsert(*redone),
        AttrSet(vid, name, attrs[vid][name]),
    )


# ---------------------------------------------------------------------------
# streamed detection vs the pairwise oracle
# ---------------------------------------------------------------------------


def run_equivalence(seed: int, T: int = 5, n_vertices: int = 25, n_rules: int = 3):
    rng = random.Random(seed)
    g = random_graph(rng, n_vertices, n_vertices * 2)
    for t in range(2, T + 1):
        g = apply_changes(g, random_changes(rng, g, t, 6))
    rules = [random_tgfd(rng, f"r{i}", max_edges=3, T=T) for i in range(n_rules)]
    result = detect_sequential(g, rules)
    got = engine_violation_keys(result.all_violations())
    want = set()
    for sigma in rules:
        want |= oracle_violations(g, sigma)
    assert got == want, f"seed={seed}"


def test_detection_matches_pairwise_oracle():
    for seed in range(12):
        run_equivalence(seed)


def test_gfd_mode_equals_snapshot_local_oracle():
    for seed in range(6):
        rng = random.Random(100 + seed)
        g = random_graph(rng, 20, 40)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 6))
        rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=4) for i in range(2)]
        gfd_rules = apply_mode(rules, "gfd")
        got = engine_violation_keys(detect_sequential(g, gfd_rules).all_violations())
        want = set()
        for sigma in gfd_rules:
            want |= gfd_snapshot_oracle(g, sigma)
        assert got == want, f"seed={seed}"


def test_upper_only_mode_zeroes_lower_bound():
    rng = random.Random(5)
    rules = [random_tgfd(rng, "r0", max_edges=2)]
    out = apply_mode(rules, "upper-only")
    assert out[0].delta.p == 0
    assert out[0].delta.q == rules[0].delta.q


def test_deleted_match_keeps_past_pairs_only():
    # a match removed at t=3 still pairs for t<=2 but produces nothing after
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"a": {"name": "x"}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])  # violation (1, 2)
    from tgfd.graph import EdgeDelete

    g = extend(g, [EdgeDelete("a", "plays", "b")])
    g = extend(g, [])
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 3),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    vios = detect_sequential(g, [sigma]).all_violations()
    assert {(v.binding_i.t, v.binding_j.t) for v in vios} == {(1, 2)}


def test_wildcard_pattern_through_detection():
    for seed in range(5):
        rng = random.Random(500 + seed)
        g = random_graph(rng, 18, 36)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 6))
        sigma = Tgfd(
            "wild",
            GraphPattern([("x", "_"), ("y", "team")], [("x", "plays", "y")]),
            Delta(0, 2),
            [VariableLiteral("x", "name", "x", "name")],
            [VariableLiteral("y", "code", "y", "code")],
        )
        got = engine_violation_keys(detect_sequential(g, [sigma]).all_violations())
        assert got == oracle_violations(g, sigma), f"seed={seed}"


def test_general_form_literals_through_detection():
    # cross-attribute literals bypass hashing and are evaluated pairwise
    for seed in range(8):
        rng = random.Random(700 + seed)
        g = random_graph(rng, 16, 32)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 6))
        sigma = Tgfd(
            "general",
            GraphPattern(
                [("x", "person"), ("y", "team")], [("x", "plays", "y")]
            ),
            Delta(0, 2),
            [VariableLiteral("x", "name", "y", "code")],
            [VariableLiteral("x", "rank", "y", "rank")],
        )
        got = engine_violation_keys(detect_sequential(g, [sigma]).all_violations())
        assert got == oracle_violations(g, sigma), f"seed={seed}"


def test_shaped_rules_equal_pairwise_oracle():
    """General-form X and Y, constant X, empty X, constant Y and q >= T,
    against the brute-force pair oracle; general-form literals must be
    evaluated in both orientations."""
    shapes = set()
    found = 0
    for seed in range(40):
        g, rules = shaped_instance(seed)
        got = engine_violation_keys(detect_sequential(g, rules).all_violations())
        want = set()
        for sigma in rules:
            want |= oracle_violations(g, sigma)
            shapes |= rule_shapes(sigma, g.T)
        assert got == want, f"seed={seed}"
        found += len(want)
    assert shapes == {"general X", "general Y", "constant X", "empty X", "constant Y", "q >= T"}
    assert found > 0


def test_long_t_shaped_rules_equal_pairwise_oracle():
    """T = 200 with three changes per step: wide (q >= T) and narrow
    intervals against the brute-force pair oracle."""
    shapes = set()
    narrow = 0
    for seed in range(3):
        g, rules = shaped_instance(seed, T=200, changes=3)
        got = engine_violation_keys(detect_sequential(g, rules).all_violations())
        want = set()
        for sigma in rules:
            want |= oracle_violations(g, sigma)
            shapes |= rule_shapes(sigma, g.T)
            narrow += sigma.delta.q < 10
        assert got == want, f"seed={seed}"
        assert want, f"seed={seed}"
    assert "q >= T" in shapes and narrow


def assert_time_reversal(g, rules) -> int:
    """Detection on g played backwards gives the same pair identities with
    each t read as T + 1 - t, and the same nontrivial verdicts: a pair's
    interval test and its check of both orientations do not depend on the
    direction of time.  Returns the violation count."""
    forward = detect_sequential(g, rules)
    backward = detect_sequential(reversed_graph(g), rules)
    flipped = set()
    for v in backward.iter_violations():
        name, (ti, ids_i), (tj, ids_j) = pair_id(v)
        flipped.add((name, *sorted([(g.T + 1 - ti, ids_i), (g.T + 1 - tj, ids_j)])))
    want = {pair_id(v) for v in forward.iter_violations()}
    assert want == flipped
    assert forward.nontrivial == backward.nontrivial
    return len(want)


def shapes_with_wildcard(sigma: Tgfd, T: int):
    """rule_shapes, and "wildcard" when a pattern variable is `_`."""
    wildcard = any(label == WILDCARD for _, label in sigma.pattern.nodes)
    return rule_shapes(sigma, T) | ({"wildcard"} if wildcard else set())


def test_time_reversal_relation_on_shaped_rules():
    shapes = set()
    found = 0
    for seed in range(40):
        g, rules = shaped_instance(seed)
        found += assert_time_reversal(g, rules)
        for sigma in rules:
            shapes |= shapes_with_wildcard(sigma, g.T)
    assert shapes == {
        "general X", "general Y", "constant X", "empty X", "constant Y", "q >= T", "wildcard"
    }
    assert found > 0


def test_time_reversal_relation_at_long_t():
    shapes = set()
    for seed in range(3):
        g, rules = shaped_instance(seed, T=200, changes=3)
        assert assert_time_reversal(g, rules), f"seed={seed}"
        for sigma in rules:
            shapes |= shapes_with_wildcard(sigma, g.T)
    assert {"general X", "general Y", "q >= T", "wildcard"} <= shapes


def test_interval_clamp_relation_on_shaped_rules():
    """Two timestamps of a graph lie at most T - 1 apart, so every q >=
    T - 1 admits the same pairs: with each rule's p clamped to T - 1,
    detection under q = T, 2T and 10⁹ gives the report, the comparisons
    and the nontrivial verdicts of q = T - 1, each rule keeping its name."""
    shapes = set()
    found = 0
    for seed in range(40):
        g, rules = shaped_instance(seed)
        last = g.T - 1
        runs = []
        for q in (last, g.T, 2 * g.T, 10**9):
            clamped = [s.with_delta(Delta(min(s.delta.p, last), q)) for s in rules]
            result = detect_sequential(g, clamped)
            runs.append(("".join(result.text_chunks()), result.pairs_compared, result.nontrivial))
        assert all(run == runs[0] for run in runs), f"seed={seed}"
        found += runs[0][0].count("\n")
        for sigma in rules:
            shapes |= shapes_with_wildcard(sigma, g.T)
    assert shapes >= {"general X", "general Y", "constant X", "empty X", "constant Y", "wildcard"}
    assert found > 0


def renamed_pair_id(v, ids):
    """pair_id of v after renaming its vertex ids, sides sorted again."""
    name, (ti, ids_i), (tj, ids_j) = pair_id(v)
    sides = [(ti, tuple(sorted(ids[x] for x in ids_i))), (tj, tuple(sorted(ids[x] for x in ids_j)))]
    return (name, *sorted(sides))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), order=st.randoms(use_true_random=False))
@example(seed=4, order=random.Random(1))
@example(seed=30, order=random.Random(2))
def test_renaming_relation_on_shaped_rules(seed, order):
    """Renaming the vertex ids by a drawn bijection, and the types, labels,
    attribute names and values by their own, renames detect's violations
    the same way, compared by pair_id with their multiplicities, and keeps
    the nontrivial verdicts: detection reads names only through equality,
    and the report order only through its sort."""
    g, rules = shaped_instance(seed)
    vids = sorted(g.vertices)
    targets = [f"n{i}" for i in range(len(vids))]
    order.shuffle(targets)
    renaming = Renaming(dict(zip(vids, targets)))
    before = detect_sequential(g, rules)
    after = detect_sequential(renaming.graph(g), [renaming.rule(sigma) for sigma in rules])
    want = Counter(renamed_pair_id(v, renaming.ids) for v in before.iter_violations())
    assert Counter(pair_id(v) for v in after.iter_violations()) == want
    assert after.nontrivial == before.nontrivial


def test_renaming_examples_hold_a_wildcard_anchor_under_general_x():
    # the explicit examples above always run: each has a rule anchored on a
    # wildcard whose X holds a general-form literal, and that rule violates
    for seed in (4, 30):
        g, rules = shaped_instance(seed)
        found = detect_sequential(g, rules)
        assert any(
            sigma.pattern.label_of(sigma.pattern.radius_center()[0]) == WILDCARD
            and "general X" in rule_shapes(sigma, g.T)
            and found.violations[sigma.name]
            for sigma in rules
        )


def test_interval_split_is_a_disjoint_union_at_size():
    """For p <= m < q, the pair violations under (p, q) are the disjoint
    union of those under (p, m) and (m + 1, q); constant violations do not
    depend on the interval and repeat in all three runs.  The engine is
    checked against itself at a size the brute-force oracle cannot reach,
    one rule per consequent form, with q below, near and past T."""
    g = generate_synthetic(300, 900, 3, 3, T=30, chg_rate=0.04, seed=5)
    pattern = GraphPattern([("x", "T0"), ("y", "T1")], [("x", "l0", "y")])
    x = [VariableLiteral("x", "a0", "x", "a0"), VariableLiteral("y", "a0", "y", "a0")]
    forms = {
        "const": ConstantLiteral("y", "a1", "val1"),
        "self": VariableLiteral("y", "a1", "y", "a1"),
        "general": VariableLiteral("x", "a2", "y", "a2"),
    }
    for p, m, q in ((0, 1, 3), (1, 6, 25), (2, 2, 45)):
        parts = {"pq": Delta(p, q), "pm": Delta(p, m), "mq": Delta(m + 1, q)}
        rules = [
            Tgfd(f"{form}.{part}", pattern, delta, x, [y])
            for form, y in forms.items()
            for part, delta in parts.items()
        ]
        found = detect_sequential(g, rules).violations
        for form in forms:
            # a violation without its rule name: the bindings (and failed literal)
            whole, low, high = ([v[1:] for v in found[f"{form}.{part}"]] for part in parts)
            if form == "const":
                assert whole and whole == low == high, (p, m, q)
            else:
                assert low and high, (form, p, m, q)
                assert len(set(whole)) == len(whole) == len(low) + len(high), (form, p, m, q)
                assert set(whole) == set(low) | set(high), (form, p, m, q)


def test_empty_antecedent_supported():
    g = build_graph(
        {"a": "person", "b": "team"},
        [("a", "plays", "b")],
        {"b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])
    sigma = Tgfd(
        "noX",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 2),
        [],
        [VariableLiteral("y", "code", "y", "code")],
    )
    got = engine_violation_keys(detect_sequential(g, [sigma]).all_violations())
    assert got == oracle_violations(g, sigma)
    assert len(got) == 1


def test_violation_report_lines(medication_graph, medication_rules):
    vios = detect_sequential(medication_graph, medication_rules).all_violations()
    line = format_violation(vios[0])
    assert line.startswith("dosage_rule CONST t=6 ")
    assert 'failed=w.val="100mg"' in line


def test_violation_ordering_deterministic():
    for seed in (3, 4):
        rng = random.Random(seed)
        g = random_graph(rng, 18, 36)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 8))
        rules = [random_tgfd(random.Random(seed), "r0", max_edges=2, T=4), knows_rule()]
        a = detect_sequential(g, rules).all_violations()
        b = detect_sequential(g, rules).all_violations()
        keys = [violation_key(v) for v in a]
        assert keys == [violation_key(v) for v in b]
        assert keys == sorted(keys) and len(set(k[1:3] for k in keys)) > 3

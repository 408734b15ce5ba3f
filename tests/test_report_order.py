"""Report order: the integer report keys of `ReportOrder` sort every rule's
violations exactly as `violation_key` does, in the sequential engine and in
the parallel one with 1-4 workers.

The instances stress what an integer key could get wrong: automorphic
matches (one label with edges both ways, so one vertex set is matched two
ways), a wildcard anchor, vertex ids whose string order is not their
numeric order (v9 < v10 numerically, v10 < v9 as strings), constant and
pair consequents, and T = 1 as well as T = 200.
"""

import random

from hypothesis import given, settings, strategies as st

from tgfd.detection import (
    KeyedViolations,
    PairViolation,
    ReportOrder,
    detect_sequential,
    identity_diff,
    pair_id,
    violation_key,
)
from tgfd.graph import AttrSet, EdgeDelete, EdgeInsert
from tgfd.model import (
    WILDCARD,
    ConstantLiteral,
    Delta,
    GraphPattern,
    Tgfd,
    VariableLiteral,
    normalize_all,
)
from tgfd.parallel import run_parallel

from util import build_graph, exotic_rule, extend, random_temporal_graph, random_tgfd

# Numbers whose ids sort differently as strings: v1 < v10 < v100 < v11 < v9.
VERTEX_NUMBERS = (1, 2, 9, 10, 11, 99, 100)
VALUES = ("0", "1", "2")


def rules_for(delta: Delta) -> list:
    """Pair and constant rules over an automorphic pattern (x -l-> y, both
    of type A) and over a wildcard anchor."""
    auto = GraphPattern([("x", "A"), ("y", "A")], [("x", "l", "y")])
    wild = GraphPattern([("x", WILDCARD), ("y", "A")], [("x", "l", "y")])
    same_a = VariableLiteral("x", "a", "x", "a")
    return [
        Tgfd("auto_pair", auto, delta, [same_a], [VariableLiteral("y", "b", "y", "b")]),
        Tgfd("auto_empty_x", auto, delta, [], [VariableLiteral("x", "b", "x", "b")]),
        Tgfd("auto_const", auto, delta, [same_a], [ConstantLiteral("y", "b", "1")]),
        Tgfd("auto_general", auto, delta, [], [VariableLiteral("x", "b", "y", "b")]),
        Tgfd("wild_pair", wild, delta, [], [VariableLiteral("y", "b", "y", "b")]),
        Tgfd("wild_const", wild, delta, [ConstantLiteral("x", "a", "1")],
             [ConstantLiteral("x", "b", "0")]),
    ]


@st.composite
def instances(draw, T):
    """A small temporal graph over ids drawn from VERTEX_NUMBERS whose edges
    all carry one label, often both ways, plus the rules of rules_for."""
    numbers = draw(st.lists(st.sampled_from(VERTEX_NUMBERS), min_size=2, max_size=6, unique=True))
    vids = [f"v{n}" for n in numbers]
    types = {vid: draw(st.sampled_from("AAB")) for vid in vids}
    edges = set()
    for a, b, both in draw(st.lists(
        st.tuples(st.sampled_from(vids), st.sampled_from(vids), st.booleans()), max_size=10
    )):
        if a != b:
            edges.add((a, "l", b))
            if both:
                edges.add((b, "l", a))
    attrs = {vid: {"a": draw(st.sampled_from(VALUES[:2])), "b": draw(st.sampled_from(VALUES))}
             for vid in vids}
    g = build_graph(types, sorted(edges), attrs)
    # a few changes at drawn timestamps; the other change sets are empty
    at = {}
    for t, a, b, kind, value in draw(st.lists(st.tuples(
        st.integers(2, max(T, 2)), st.sampled_from(vids), st.sampled_from(vids),
        st.sampled_from(["a", "b", "edge"]), st.sampled_from(VALUES),
    ), max_size=0 if T == 1 else 12)):
        at.setdefault(t, []).append((a, b, kind, value))
    live = set(edges)
    for t in range(2, T + 1):
        changes, touched = [], set()
        for a, b, kind, value in at.get(t, ()):
            if kind != "edge":
                if (a, kind) not in touched:
                    touched.add((a, kind))
                    changes.append(AttrSet(a, kind, value))
            elif a != b and (a, b) not in touched:
                touched.add((a, b))
                e = (a, "l", b)
                changes.append(EdgeDelete(*e) if e in live else EdgeInsert(*e))
                live ^= {e}
        g = extend(g, changes)
    p = draw(st.integers(0, 2))
    # q >= T pairs every two timestamps: at T = 200 that is 10^5 violations
    # per rule, so long runs draw bounded intervals only
    q = draw(st.sampled_from([p, p + 1, p + 3] + ([T, T + 5] if T < 10 else [p + 12])))
    return g, rules_for(Delta(p, max(p, q)))


def report_key(order: ReportOrder, sigma: Tgfd):
    """The integer report key of a violation of sigma, from ReportOrder's
    halves: the violation key without its two entry ids."""
    w1, w2, _, digits = order.halves(sigma)

    def halves(b):
        hi, lo = digits(b.items)
        return b.t * w1 + hi, b.t * w2 + lo

    def key(v) -> int:
        if isinstance(v, PairViolation):
            return halves(v.binding_i)[0] + halves(v.binding_j)[1]
        hi, lo = halves(v.binding)
        return hi + lo

    return key


def check_engine_keys(result, order: ReportOrder, sigma: Tgfd) -> None:
    """Each violation key of the result is the violation's report key over
    the ids of its two entries: the earlier match's, then the later one's
    (a constant violation's one match twice)."""
    keyed = result.found[sigma.name]
    keys, table, found = keyed.keys, keyed.plan.table, result.violations[sigma.name]
    bits = order.id_bits
    mask = (1 << bits) - 1
    assert keys == sorted(keys) and len(keys) == len(found), sigma.name
    assert len(table) <= 1 << bits
    key = report_key(order, sigma)
    for k, v in zip(keys, found):
        a, b = (v.binding_i, v.binding_j) if isinstance(v, PairViolation) else (v.binding,) * 2
        assert k >> 2 * bits << 2 * bits == key(v)
        for eid, binding in ((k >> bits & mask, a), (k & mask, b)):
            assert (table[eid].t, table[eid].items) == (binding.t, binding.items)


def check_report_order(g, rules, seed: int, workers=range(1, 5)) -> None:
    seq = detect_sequential(g, rules)
    order = ReportOrder(g.vertices, g.T)
    for sigma in rules:
        found = seq.violations[sigma.name]
        assert found == sorted(found, key=violation_key), sigma.name
        key = report_key(order, sigma)
        keys = [key(v) for v in found]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), sigma.name
        # the report key leaves the entry ids' bits zero
        assert all(k & ((1 << 2 * order.id_bits) - 1) == 0 for k in keys), sigma.name
        shuffled = list(found)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled, key=key) == sorted(shuffled, key=violation_key), sigma.name
        check_engine_keys(seq, order, sigma)
    for n in workers:
        par = run_parallel(g, rules, n, seed=seed)
        assert par.violations == seq.violations, f"n={n}"
        for sigma in rules:
            check_engine_keys(par, order, sigma)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 2, 4]), seed=st.integers(0, 3))
def test_report_keys_sort_as_violation_key(data, T, seed):
    g, rules = data.draw(instances(T))
    check_report_order(g, rules, seed)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), seed=st.integers(0, 3), n=st.integers(1, 4))
def test_report_keys_sort_as_violation_key_at_T_200(data, seed, n):
    g, rules = data.draw(instances(200))
    check_report_order(g, rules, seed, workers=[n])


def test_automorphic_matches_with_string_ordered_ids():
    """Both orientations of v9 <-> v10 and v10 <-> v100 match, each at every
    t; every vertex's b value differs from its neighbours' at some t."""
    vids = ["v9", "v10", "v100"]
    edges = [("v9", "l", "v10"), ("v10", "l", "v9"), ("v10", "l", "v100"), ("v100", "l", "v10")]
    g = build_graph({v: "A" for v in vids}, edges,
                    {v: {"a": "1", "b": str(i)} for i, v in enumerate(vids)})
    g = extend(g, [AttrSet("v9", "b", "1")])
    g = extend(g, [AttrSet("v100", "b", "1"), EdgeDelete("v10", "l", "v9")])
    rules = rules_for(Delta(0, 2))
    check_report_order(g, rules, seed=0)
    seq = detect_sequential(g, rules)
    # the run holds automorphic pairs: one vertex set under two items
    pairs = [v for v in seq.violations["auto_empty_x"] if isinstance(v, PairViolation)]
    assert any(
        v.binding_i.sorted_ids == v.binding_j.sorted_ids and v.binding_i.items != v.binding_j.items
        for v in pairs
    )
    assert seq.violations["auto_const"] and seq.violations["wild_pair"]


def check_identities(result, order: ReportOrder, sigma: Tgfd) -> bool:
    """`KeyedViolations.identity_keys` maps one-to-one onto pair_id: each
    violation's identity is its pair_id's two sides, each numbered as
    ReportOrder numbers a side (hi // W3 of a match at t whose items are
    the side's sorted ids), the smaller shifted left by the plan's
    side_bits, and there are as many distinct identities as distinct
    pair_ids.  identity_diff against an empty report gives every pair_id
    once, in the order of its first violation.  Returns whether some
    pair's earlier match has the later sorted ids (a pair at one timestamp
    whose items order is not its sorted-ids order)."""
    keyed = result.found[sigma.name]
    w1, _, w3, digits = order.halves(sigma)
    names = sorted(sigma.pattern.vars)
    shift = keyed.plan.side_bits

    def side(t, ids) -> int:
        number = (t * w1 + digits(tuple(zip(names, ids)))[0]) // w3
        assert 0 <= number < 1 << shift
        return number

    violations = list(keyed)
    pids = [pair_id(v) for v in violations]
    identities = keyed.identity_keys()
    assert len(identities) == len(pids) == len(keyed.keys), sigma.name
    for ident, (_, a, b), v in zip(identities, pids, violations):
        assert ident == side(*a) << shift | side(*b), (sigma.name, v)
    assert len(set(identities)) == len(set(pids)), sigma.name
    assert identity_diff(keyed, KeyedViolations(keyed.plan)) == list(dict.fromkeys(pids))
    assert identity_diff(keyed, keyed) == []
    return any(
        v.binding_i.t == v.binding_j.t and v.binding_i.sorted_ids > v.binding_j.sorted_ids
        for v in violations if isinstance(v, PairViolation)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 2, 4]))
def test_violation_identities_map_one_to_one_onto_pair_id(data, T):
    g, rules = data.draw(instances(T))
    result, order = detect_sequential(g, rules), ReportOrder(g.vertices, g.T)
    for sigma in rules:
        check_identities(result, order, sigma)


def test_identity_of_a_pair_whose_earlier_match_has_the_later_sorted_ids():
    """At one timestamp (x=v1, y=v9) precedes (x=v10, y=v1) in items order,
    but its sorted ids (v1, v9) follow (v1, v10), since v10 < v9 as strings:
    the pair's identity puts the later match's side first, as pair_id does.
    The constant rules report their violations as degenerate pairs."""
    vids = ["v1", "v9", "v10"]
    g = build_graph({v: "A" for v in vids}, [("v1", "l", "v9"), ("v10", "l", "v1")],
                    {v: {"a": "1", "b": str(i)} for i, v in enumerate(vids)})
    g = extend(g, [AttrSet("v9", "b", "1")])
    rules = rules_for(Delta(0, 1))
    result, order = detect_sequential(g, rules), ReportOrder(g.vertices, g.T)
    swapped = {sigma.name: check_identities(result, order, sigma) for sigma in rules}
    assert swapped["auto_empty_x"] and swapped["auto_pair"]
    assert result.violations["auto_const"] and result.violations["wild_const"]


def test_violation_identities_on_random_instances_at_several_seeds():
    """Random graphs over ids v0..v29, whose string order is not their
    numeric order, with random and exotic rules and, over one wildcard
    edge, a general-form and a constant consequent: every match of an edge
    at one timestamp meets every other in one X class."""
    edge = GraphPattern([("x", WILDCARD), ("y", WILDCARD)], [("x", "knows", "y")])
    swapped = set()
    for seed in range(6):
        rng = random.Random(seed)
        g = random_temporal_graph(rng, n_vertices=30, n_edges=120, T=6, chg=0.15)
        rules = normalize_all(
            [random_tgfd(rng, f"r{i}", max_edges=2, T=5) for i in range(3)]
            + [exotic_rule(rng, "exotic"),
               Tgfd("edge_general", edge, Delta(0, 1), [],
                    [VariableLiteral("x", "name", "y", "rank")]),
               Tgfd("edge_const", edge, Delta(0, 1), [], [ConstantLiteral("y", "code", "a")])]
        )
        result, order = detect_sequential(g, rules), ReportOrder(g.vertices, g.T)
        for sigma in rules:
            if check_identities(result, order, sigma):
                swapped.add(sigma.name)
        assert result.violations["edge_const"], seed
    assert "edge_general" in swapped

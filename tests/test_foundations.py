import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tgfd.errors import ArityMismatch
from tgfd.foundations import (
    ClosureEntry,
    Conflict,
    ImplicationResult,
    SatResult,
    _closure_at_gap,
    _EqualityAtoms,
    _translated_rules,
    all_embeddings,
    axiom_check,
    check_implication,
    check_satisfiability,
    closure_for_implication,
    embedded_class,
    find_embedding,
    intervals_contain,
    overlap_class,
)
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    Tgfd,
    VariableLiteral,
    literal_sort_key,
    normalize_all,
    parse_tgfd_file,
)

from conftest import CONFLICT_RULES
from util import (
    chain_pattern,
    exotic_pattern,
    grid_pattern,
    nx_monomorphisms,
    random_pattern,
    sub_pattern,
)


def pat(nodes, edges):
    return GraphPattern(nodes, edges)


BASE = pat(
    [("x", "patient"), ("y", "medication"), ("w", "dosage")],
    [("x", "prescribed", "y"), ("y", "dose", "w")],
)
BIGGER = pat(
    [("x", "patient"), ("y", "medication"), ("w", "dosage"), ("r", "symptom")],
    [("x", "prescribed", "y"), ("y", "dose", "w"), ("x", "shows", "r")],
)


# ---------------------------------------------------------------------------
# pointwise reference: one closure per integer gap
# ---------------------------------------------------------------------------


def runs_to_intervals(points):
    """Maximal runs of consecutive integers."""
    out = []
    for p in sorted(set(points)):
        if out and p == out[-1][1] + 1:
            out[-1] = (out[-1][0], p)
        else:
            out.append((p, p))
    return tuple(out)


def pointwise_closure(x_literals, members, delta, horizon=None):
    rules = _translated_rules(members)
    seeds = sorted(set(x_literals), key=literal_sort_key)
    if horizon is None:
        horizon = max([delta.q] + [r.delta.q for r in rules])
    valid_points = {}
    for gap in range(0, horizon + 1):
        for lit in _closure_at_gap(gap, seeds, delta, rules):
            valid_points.setdefault(lit, []).append(gap)
    entries = [
        ClosureEntry(literal=lit, validity=runs_to_intervals(points))
        for lit, points in valid_points.items()
    ]
    return sorted(entries, key=lambda e: literal_sort_key(e.literal))


def pointwise_satisfiability(tgfds):
    """The first conflicting constant pair in gap order and its first run."""
    rules_nf = normalize_all(tgfds)
    for anchor in sorted(rules_nf, key=lambda s: s.name):
        rules = _translated_rules(overlap_class(anchor, rules_nf))
        horizon = max([anchor.delta.q] + [r.delta.q for r in rules])
        seeds = sorted(set(anchor.x_literals), key=literal_sort_key)
        found_at = []
        for gap in range(0, horizon + 1):
            active = _closure_at_gap(gap, seeds, anchor.delta, rules)
            consts = sorted(
                (l for l in active if isinstance(l, ConstantLiteral)),
                key=literal_sort_key,
            )
            atoms = _EqualityAtoms(active)
            for i in range(len(consts)):
                for j in range(i + 1, len(consts)):
                    a, b = consts[i], consts[j]
                    if a.value != b.value and atoms.constants_joined(a.value, b.value):
                        found_at.append((gap, (a, b)))
        if found_at:
            witness = found_at[0][1]
            points = [gap for gap, pair in found_at if pair == witness]
            interval = runs_to_intervals(points)[0]
            return SatResult(False, Conflict(anchor.name, witness[0], witness[1], interval))
    return SatResult(True)


def pointwise_implication(tgfds, sigma):
    rules_nf = normalize_all(tgfds)
    witness = None
    for query in normalize_all([sigma]):
        rules = _translated_rules(embedded_class(query.pattern, rules_nf))
        horizon = max([query.delta.q] + [r.delta.q for r in rules])
        seeds = sorted(set(query.x_literals), key=literal_sort_key)
        y = query.y_literal
        good_points = [
            gap
            for gap in range(0, horizon + 1)
            if _EqualityAtoms(_closure_at_gap(gap, seeds, query.delta, rules)).derivable(y)
        ]
        validity = runs_to_intervals(good_points)
        if intervals_contain(validity, query.delta) is None:
            entry = ClosureEntry(literal=y, validity=validity) if validity else None
            return ImplicationResult(implied=False, entry=entry)
        witness = ClosureEntry(literal=y, validity=validity)
    return ImplicationResult(implied=True, entry=witness)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_runs_to_intervals():
    assert runs_to_intervals([0, 1, 2, 4]) == ((0, 2), (4, 4))
    assert runs_to_intervals([]) == ()
    assert intervals_contain(((0, 4),), Delta(1, 3)) == (0, 4)
    assert intervals_contain(((0, 2), (4, 6)), Delta(1, 5)) is None


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def test_embedding_identity():
    f = find_embedding(BASE, BASE)
    assert f is not None
    assert f.mapping == {"x": "x", "y": "y", "w": "w"}


def test_embedding_into_augmented_pattern():
    assert find_embedding(BASE, BIGGER) is not None
    assert find_embedding(BIGGER, BASE) is None


def test_embedding_wildcard_rule():
    small = pat([("a", "_")], [])
    big = pat([("b", "anything")], [])
    assert find_embedding(small, big) is not None
    # a labeled node never maps onto a wildcard
    small2 = pat([("a", "thing")], [])
    big2 = pat([("b", "_")], [])
    assert find_embedding(small2, big2) is None


def brute_embeddings(q_small, q_big):
    small = sorted(q_small.vars)
    out = []
    for combo in itertools.permutations(sorted(q_big.vars), len(small)):
        m = dict(zip(small, combo))
        ok = all(
            q_small.label_of(v) == "_" or q_small.label_of(v) == q_big.label_of(m[v])
            for v in small
        )
        if ok and all(
            (m[s], l, m[d]) in set(q_big.edges) for (s, l, d) in q_small.edges
        ):
            out.append(tuple(sorted(m.items())))
    return set(out)


def wildcard_edge(pattern):
    """pattern's first edge between wildcard nodes (one node for a loop)."""
    src, label, dst = pattern.edges[0]
    if src == dst:
        return GraphPattern([("s", "_")], [("s", label, "s")])
    return GraphPattern([("s", "_"), ("d", "_")], [("s", label, "d")])


def test_embedding_agrees_with_brute_force():
    """all_embeddings finds every embedding, in the sorted order whose first
    entry find_embedding returns: on tree patterns, on the exotic shapes
    (wildcard hubs, cycles, parallel labels, self-loops), for one wildcard
    node, which embeds once per variable, and for a wildcard copy of an
    edge, which embeds once per edge with its label."""
    lone = GraphPattern([("n", "_")], [])
    several = 0
    for seed in range(25):
        rng = random.Random(seed)
        a = random_pattern(rng, 3)
        b = random_pattern(rng, 4)
        c, d = exotic_pattern(rng), exotic_pattern(rng)
        cases = [(a, b), (c, d), (d, c), (a, c)]
        for big in (a, b, c, d):
            cases += [(lone, big), (wildcard_edge(big), big)]
        for small, big in cases:
            got = [e.items for e in all_embeddings(small, big)]
            assert got == sorted(brute_embeddings(small, big)), f"seed={seed}"
            several += len(got) >= 2 and small is not lone
    assert several >= 25  # edge copies with several embeddings, not only lone


def test_embedding_agrees_with_networkx_at_size():
    """all_embeddings equals networkx's VF2 monomorphisms, in sorted order,
    of connected pieces of 6-12 node chains and grids, of 3-6 node chains,
    2 x 2 grids, exotic shapes and wildcard edge copies into them, and of
    exotic shapes into each other: wildcard nodes on both sides, self-loops
    and parallel labels."""
    seen = dict.fromkeys(("several", "onto_wildcard", "from_wildcard", "loop", "parallel"), 0)
    for seed in range(30):
        rng = random.Random(seed)
        bigs = [
            chain_pattern(rng, rng.randint(6, 12)),
            grid_pattern(rng, 3, rng.randint(2, 4)),
            grid_pattern(rng, 2, 3),
            exotic_pattern(rng),
        ]
        for big in bigs:
            smalls = [
                sub_pattern(rng, big, rng.randint(3, 6)),
                chain_pattern(rng, rng.randint(3, 6)),
                grid_pattern(rng, 2, 2),
                exotic_pattern(rng),
                wildcard_edge(big),
            ]
            for small in smalls:
                got = [e.items for e in all_embeddings(small, big)]
                assert got == sorted(nx_monomorphisms(small, big.nodes, big.edges)), f"seed={seed}"
                if not got:
                    continue
                pairs = [(s, d) for s, _, d in small.edges]
                seen["several"] += len(got) >= 2
                seen["onto_wildcard"] += any(big.label_of(v) == "_" for _, v in got[0])
                seen["from_wildcard"] += "_" in small.labels.values()
                seen["loop"] += any(s == d for s, d in pairs)
                seen["parallel"] += len(set(pairs)) < len(pairs)
    assert min(seen.values()) >= 40, seen


# ---------------------------------------------------------------------------
# satisfiability
# ---------------------------------------------------------------------------


def test_conflicting_value_constraints_unsatisfiable(conflict_rules):
    verdict = check_satisfiability(conflict_rules)
    assert not verdict.satisfiable
    values = {verdict.conflict.literal_a.value, verdict.conflict.literal_b.value}
    assert values == {"100mg", "20mL"}
    lo, hi = verdict.conflict.interval
    assert 30 <= lo <= hi <= 120


def test_disjoint_intervals_satisfiable(conflict_rules_disjoint):
    assert check_satisfiability(conflict_rules_disjoint).satisfiable


def test_single_rule_satisfiable(medication_rules):
    assert check_satisfiability(medication_rules).satisfiable


def test_satisfiability_permutation_invariant(conflict_rules):
    for perm in itertools.permutations(conflict_rules):
        assert not check_satisfiability(list(perm)).satisfiable


def test_contradictory_antecedent_is_unsatisfiable():
    sigma = Tgfd(
        "s",
        BASE,
        Delta(0, 2),
        [ConstantLiteral("y", "name", "A"), ConstantLiteral("y", "name", "B")],
        [ConstantLiteral("w", "val", "1")],
    )
    assert not check_satisfiability([sigma]).satisfiable


# ---------------------------------------------------------------------------
# implication closure
# ---------------------------------------------------------------------------


def ident(p):
    return find_embedding(p, p)


def test_closure_empty_ruleset_keeps_x():
    x = [ConstantLiteral("y", "name", "Veklury")]
    entries = closure_for_implication(x, [], Delta(1, 3))
    assert len(entries) == 1
    assert entries[0].literal == x[0]
    assert entries[0].validity == ((1, 3),)


def test_closure_merges_validity_intervals():
    y = ConstantLiteral("w", "val", "100mg")
    s1 = Tgfd("s1", BASE, Delta(0, 2), [], [y])
    s2 = Tgfd("s2", BASE, Delta(1, 4), [], [y])
    entries = closure_for_implication(
        [], [(s1, ident(BASE)), (s2, ident(BASE))], Delta(0, 4)
    )
    got = {e.literal: e.validity for e in entries}
    assert got[y] == ((0, 4),)


def test_closure_transitive_chain():
    x = ConstantLiteral("x", "name", "Jack")
    w = ConstantLiteral("y", "name", "Veklury")
    y = ConstantLiteral("w", "val", "100mg")
    first = Tgfd("first", BASE, Delta(0, 3), [x], [w])
    second = Tgfd("second", BASE, Delta(0, 3), [w], [y])
    entries = closure_for_implication(
        [x], [(first, ident(BASE)), (second, ident(BASE))], Delta(0, 3)
    )
    got = {e.literal: e.validity for e in entries}
    assert got[y] == ((0, 3),)


def test_closure_equality_transitivity():
    # x.A = u and y.B = u make x.A = y.B derivable
    shared = pat([("a", "t1"), ("b", "t2")], [("a", "l", "b")])
    r1 = Tgfd("r1", shared, Delta(0, 2), [], [ConstantLiteral("a", "A", "u")])
    r2 = Tgfd("r2", shared, Delta(0, 2), [], [ConstantLiteral("b", "B", "u")])
    query = Tgfd(
        "q", shared, Delta(0, 2), [], [VariableLiteral("a", "A", "b", "B")]
    )
    assert check_implication([r1, r2], query).implied


def test_closure_monotone_under_new_rules():
    x = [ConstantLiteral("x", "name", "Jack")]
    w = ConstantLiteral("y", "name", "V")
    extra = Tgfd("e", BASE, Delta(0, 2), x, [w])
    before = {
        e.literal: e.validity
        for e in closure_for_implication(x, [], Delta(0, 4))
    }
    after = {
        e.literal: e.validity
        for e in closure_for_implication(x, [(extra, ident(BASE))], Delta(0, 4))
    }
    for lit, validity in before.items():
        assert lit in after
        before_points = {g for lo, hi in validity for g in range(lo, hi + 1)}
        after_points = {g for lo, hi in after[lit] for g in range(lo, hi + 1)}
        assert before_points <= after_points


# ---------------------------------------------------------------------------
# implication verdicts
# ---------------------------------------------------------------------------


def make_rule(name, pattern, delta, x, y):
    return Tgfd(name, pattern, delta, x, y)


X1 = [VariableLiteral("x", "name", "x", "name")]
Y1 = [ConstantLiteral("w", "val", "100mg")]


def test_implication_reflexive():
    sigma = make_rule("s", BASE, Delta(1, 3), X1, Y1)
    assert check_implication([sigma], sigma).implied


def test_implication_interval_containment():
    premise = make_rule("p", BASE, Delta(0, 5), X1, Y1)
    query = make_rule("q", BASE, Delta(1, 3), X1, Y1)
    res = check_implication([premise], query)
    assert res.implied
    assert intervals_contain(res.entry.validity, Delta(1, 3))


def test_implication_interval_intersection():
    p1 = make_rule("p1", BASE, Delta(0, 2), X1, Y1)
    p2 = make_rule("p2", BASE, Delta(1, 4), X1, Y1)
    query = make_rule("q", BASE, Delta(1, 2), X1, Y1)
    assert check_implication([p1, p2], query).implied


def test_implication_negative():
    premise = make_rule("p", BASE, Delta(0, 2), X1, Y1)
    query = make_rule("q", BASE, Delta(0, 5), X1, Y1)  # wider than the premise
    assert not check_implication([premise], query).implied
    other = make_rule(
        "o", BASE, Delta(0, 2), X1, [ConstantLiteral("w", "val", "20mL")]
    )
    assert not check_implication([premise], other).implied


# ---------------------------------------------------------------------------
# segment-wise reasoning equals the pointwise reference
# ---------------------------------------------------------------------------

SMALL = pat([("x", "patient"), ("y", "medication")], [("x", "prescribed", "y")])
PATTERNS = (SMALL, BASE, BIGGER)
ATTRS = ("a", "b")
VALUES = ("1", "2", "3")


@st.composite
def literals(draw, variables):
    var = st.sampled_from(variables)
    attr = st.sampled_from(ATTRS)
    if draw(st.booleans()):
        return ConstantLiteral(draw(var), draw(attr), draw(st.sampled_from(VALUES)))
    return VariableLiteral(draw(var), draw(attr), draw(var), draw(attr))


@st.composite
def rules(draw, name, max_q=60):
    pattern = draw(st.sampled_from(PATTERNS))
    variables = sorted(pattern.vars)
    p = draw(st.integers(0, max_q))
    q = draw(st.integers(p, max_q))
    x = draw(st.lists(literals(variables), max_size=2))
    y = draw(st.lists(literals(variables), min_size=1, max_size=2))
    return Tgfd(name, pattern, Delta(p, q), x, y)


rule_sets = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[rules(f"r{i}") for i in range(n)])
)


@settings(deadline=None)
@given(
    rule_set=rule_sets,
    anchor=st.sampled_from(PATTERNS),
    data=st.data(),
    horizon=st.one_of(st.none(), st.integers(-1, 70)),
)
def test_segment_closure_equals_pointwise(rule_set, anchor, data, horizon):
    x = data.draw(st.lists(literals(sorted(anchor.vars)), max_size=3))
    p = data.draw(st.integers(0, 60))
    delta = Delta(p, data.draw(st.integers(p, 60)))
    members = embedded_class(anchor, rule_set)
    assert closure_for_implication(x, members, delta, horizon) == pointwise_closure(
        x, members, delta, horizon
    )


@settings(deadline=None)
@given(rule_set=rule_sets)
def test_segment_satisfiability_equals_pointwise(rule_set):
    assert check_satisfiability(rule_set) == pointwise_satisfiability(rule_set)


@settings(deadline=None)
@given(rule_set=rule_sets, sigma=rules("sigma"))
def test_segment_implication_equals_pointwise(rule_set, sigma):
    assert check_implication(rule_set, sigma) == pointwise_implication(rule_set, sigma)


def test_closure_horizon_shorter_than_rule_interval():
    # the horizon cuts s2's interval (3, 40) and X's own (0, 20)
    x = ConstantLiteral("x", "a", "1")
    y = ConstantLiteral("w", "b", "2")
    s1 = Tgfd("s1", BASE, Delta(5, 30), [x], [y])
    s2 = Tgfd("s2", BASE, Delta(3, 40), [y], [ConstantLiteral("y", "a", "3")])
    members = [(s1, ident(BASE)), (s2, ident(BASE))]
    for horizon in (-1, 0, 4, 12, 25):
        got = closure_for_implication([x], members, Delta(0, 20), horizon)
        assert got == pointwise_closure([x], members, Delta(0, 20), horizon), horizon
    got = {e.literal: e.validity for e in closure_for_implication([x], members, Delta(0, 20), 12)}
    assert got[x] == ((0, 12),)
    assert got[y] == ((5, 12),)
    assert got[ConstantLiteral("y", "a", "3")] == ((5, 12),)


def test_conflict_witness_is_its_first_run():
    # the 1 vs 2 conflict holds on gaps 5..10 and again on 30..40
    two = Tgfd("r0", BASE, Delta(0, 60), [], [ConstantLiteral("w", "b", "2")])
    early = Tgfd("r1", BASE, Delta(5, 10), [], [ConstantLiteral("w", "b", "1")])
    late = Tgfd("r2", BASE, Delta(30, 40), [], [ConstantLiteral("w", "b", "1")])
    verdict = check_satisfiability([two, early, late])
    assert verdict == pointwise_satisfiability([two, early, late])
    assert verdict.conflict.anchor == "r0"
    assert verdict.conflict.interval == (5, 10)


def test_reasoning_at_q_one_billion():
    # gaps in seconds over ~30 years: no per-gap loop could answer this
    q = 10 ** 9
    conflict_text = CONFLICT_RULES.replace("delta (30, 120)", f"delta (30, {q})")
    conflict = parse_tgfd_file(conflict_text)
    verdict = check_satisfiability(conflict)
    assert not verdict.satisfiable
    assert verdict.conflict.anchor == "symptom_dosage"
    assert verdict.conflict.interval == (30, q)

    disjoint = parse_tgfd_file(
        conflict_text.replace(
            f"delta (30, {q})\nx: x.name == x.name; r.name == r.name",
            "delta (20, 25)\nx: x.name == x.name; r.name == r.name",
        )
    )
    assert disjoint[1].delta == Delta(20, 25)
    assert check_satisfiability(disjoint).satisfiable

    base = conflict[0]
    narrow = base.with_delta(Delta(40, q - 10), "_narrow")
    res = check_implication(conflict, narrow)
    assert res.implied
    assert res.entry.validity == ((40, q - 10),)

    wide = base.with_delta(Delta(10, q + 10), "_wide")
    res = check_implication(disjoint, wide)
    assert not res.implied
    assert res.entry.validity == ((30, q),)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------


def axiom_instances():
    """One concrete instance per axiom: (name, premises, conclusion)."""
    l1 = ConstantLiteral("y", "name", "Veklury")
    l2 = VariableLiteral("x", "name", "x", "name")
    y = ConstantLiteral("w", "val", "100mg")
    w = ConstantLiteral("y", "name", "Veklury")
    d = Delta(1, 3)

    reflexive = make_rule("c", BASE, d, [l1, l2], [l1])

    aug_premise = make_rule("p", BASE, d, [l2], [y])
    aug_conclusion = make_rule("c", BASE, d, [l1, l2], [y])

    pat_premise = make_rule("p", BASE, d, [l2], [y])
    pat_conclusion = make_rule("c", BIGGER, d, [l2], [y])

    trans_first = make_rule("p1", BASE, d, [l2], [w])
    trans_second = make_rule("p2", BIGGER, d, [w], [y])
    trans_conclusion = make_rule("c", BIGGER, d, [l2], [y])

    deco_premise = make_rule("p", BASE, d, [l2], [y, l1])
    deco_conclusion = make_rule("c", BASE, d, [l2], [y])

    inter_p1 = make_rule("p1", BASE, Delta(0, 2), [l2], [y])
    inter_p2 = make_rule("p2", BASE, Delta(1, 4), [l2], [y])
    inter_conclusion = make_rule("c", BASE, Delta(1, 2), [l2], [y])

    contain_premise = make_rule("p", BASE, Delta(0, 5), [l2], [y])
    contain_conclusion = make_rule("c", BASE, Delta(1, 3), [l2], [y])

    return [
        ("literal-reflexivity", [], reflexive),
        ("literal-augmentation", [aug_premise], aug_conclusion),
        ("pattern-augmentation", [pat_premise], pat_conclusion),
        ("transitivity", [trans_first, trans_second], trans_conclusion),
        ("decomposition", [deco_premise], deco_conclusion),
        ("interval-intersection", [inter_p1, inter_p2], inter_conclusion),
        ("interval-containment", [contain_premise], contain_conclusion),
    ]


def test_axiom_schemas_accept_their_instances():
    for name, premises, conclusion in axiom_instances():
        assert axiom_check(name, premises, conclusion), name


def test_axiom_soundness_bridge():
    # whatever a schema accepts, the closure-based checker also accepts
    for name, premises, conclusion in axiom_instances():
        res = check_implication(premises, conclusion)
        assert res.implied, name


def test_axiom_schema_rejections():
    l2 = VariableLiteral("x", "name", "x", "name")
    y = ConstantLiteral("w", "val", "100mg")
    p1 = make_rule("p1", BASE, Delta(0, 2), [l2], [y])
    p2 = make_rule("p2", BASE, Delta(1, 4), [l2], [y])
    wrong = make_rule("c", BASE, Delta(0, 4), [l2], [y])  # not the intersection
    assert not axiom_check("interval-intersection", [p1, p2], wrong)
    not_subset = make_rule("c", BASE, Delta(0, 3), [l2], [y])
    assert not axiom_check("interval-containment", [p1], not_subset)
    assert not axiom_check("literal-reflexivity", [], p1)  # Y not in X


def test_axiom_arity_mismatch():
    _, premises, conclusion = axiom_instances()[1]
    with pytest.raises(ArityMismatch):
        axiom_check("interval-intersection", premises, conclusion)
    with pytest.raises(ValueError):
        axiom_check("no-such-axiom", premises, conclusion)

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tgfd.detection import apply_mode, detect_sequential, pair_id
from tgfd.errors import InvalidOption
from tgfd.evaluation import (
    CHANGE_PROFILES,
    InjectionLedger,
    Mutation,
    apply_mutations,
    generate_synthetic,
    inject_errors,
    ledger_from_text,
    ledger_to_text,
    score,
)
from tgfd.graph import AttrDelete, AttrSet, EdgeInsert, graph_to_texts, load_graph
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    Tgfd,
    VariableLiteral,
    normalize_all,
    parse_tgfd_file,
)

from util import (
    GOLDEN_RULES,
    exotic_rule,
    extend,
    mutated_attr_maps,
    nonempty_attrs,
    oracle_ledger,
    pair_isolated_instance,
    pair_satisfies,
    random_changes,
    random_temporal_graph,
    random_tgfd,
    satisfying_pairs,
)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_zero_change_rate_keeps_snapshots_identical():
    g = generate_synthetic(30, 60, 3, 2, T=5, chg_rate=0.0, seed=1)
    for t in range(2, g.T + 1):
        assert g.view(t).edges == g.view(1).edges
        assert g.snapshot(t).attrs == g.snapshot(1).attrs


def test_change_count_matches_rate():
    g = generate_synthetic(50, 100, 3, 2, T=3, chg_rate=0.1, seed=2)
    from tgfd.graph import derive_changesets

    for cs in derive_changesets(g):
        # deletions of re-inserted edges can cancel in the diff, so the diff
        # is a lower bound; the generator aims for exactly 10 per step
        assert len(cs.changes) <= 10
        assert len(cs.changes) >= 6


def test_uniform_profile_split_within_one():
    # forced by the rounding rule: remainder goes to attribute updates
    n = 10
    au, ed, ei = CHANGE_PROFILES["uniform"]
    n_ed, n_ei = round(ed * n), round(ei * n)
    n_au = n - n_ed - n_ei
    assert abs(n_au - au * n) <= 1
    assert abs(n_ed - ed * n) <= 1
    assert abs(n_ei - ei * n) <= 1


def test_generator_deterministic():
    g1 = generate_synthetic(30, 60, 3, 2, T=4, chg_rate=0.05, seed=42)
    g2 = generate_synthetic(30, 60, 3, 2, T=4, chg_rate=0.05, seed=42)
    assert g1.base_edges == g2.base_edges
    assert g1.changesets == g2.changesets
    for s1, s2 in zip(g1.snapshots, g2.snapshots):
        assert s1.attrs == s2.attrs


def test_generator_refuses_more_edges_than_the_graph_holds():
    # two vertices hold two ordered pairs, each under GEN_LABELS = 3 labels
    g = generate_synthetic(2, 6, 1, 1, T=2, chg_rate=0.0, seed=1)
    assert len(g.base_edges) == 6
    with pytest.raises(InvalidOption, match="7 edges exceed the 6 that 2 vertices"):
        generate_synthetic(2, 7, 1, 1, T=2, chg_rate=0.0, seed=1)


def test_generator_refuses_more_insertions_than_free_slots():
    # 18 changes per timestamp, 0.85 of them insertions, into a graph whose
    # 18 edge slots are all live but for the one deletion
    with pytest.raises(InvalidOption, match="15 edge insertions at t=2 exceed the 1 free"):
        generate_synthetic(3, 18, 1, 1, T=3, chg_rate=1.0, seed=1, profile="skewed_ei")


def insertion_counts(g):
    return [sum(isinstance(c, EdgeInsert) for c in cs.changes) for cs in g.changesets]


def test_generator_fills_the_last_free_slots():
    # 12 live edges, 1 deletion and 7 insertions fill all 18 slots
    g = generate_synthetic(3, 12, 1, 1, T=2, chg_rate=0.7, seed=1, profile="skewed_ei")
    assert len(g.base_edges) == 12
    assert insertion_counts(g) == [7] and len(g.changesets[0].changes) == 8
    assert len(g.view(2).edges) == 18


def test_generator_takes_free_slots_when_draws_run_out(monkeypatch):
    """Once the change loop starts, every vertex draw returns one vertex, so
    the insertion draws never find an edge; the free slots make up the
    rest."""

    class StuckDraws(random.Random):
        stuck = False

        def sample(self, population, k):
            self.stuck = True  # the first sample draws t = 2's deletions
            return super().sample(population, k)

        def choice(self, seq):
            return seq[0] if self.stuck else super().choice(seq)

    monkeypatch.setattr(random, "Random", StuckDraws)
    g = generate_synthetic(3, 12, 1, 1, T=2, chg_rate=0.7, seed=1, profile="skewed_ei")
    inserted = [c for c in g.changesets[0].changes if isinstance(c, EdgeInsert)]
    assert len(inserted) == 7
    assert len(g.view(2).edges) == 18


# ---------------------------------------------------------------------------
# injection
# ---------------------------------------------------------------------------


def test_inject_zero_rate_is_noop():
    graph, sigma = pair_isolated_instance(20, slots=2)
    mutated, ledger = inject_errors(graph, [sigma], 0.0, seed=1)
    assert not ledger.mutations
    assert not ledger.gamma_plus and not ledger.gamma_minus
    for s1, s2 in zip(graph.snapshots, mutated.snapshots):
        assert s1.attrs == s2.attrs


def test_inject_exact_positive_count():
    graph, sigma = pair_isolated_instance(100, slots=5)
    pool = satisfying_pairs(graph, sigma)
    assert len(pool) == 100
    mutated, ledger = inject_errors(graph, [sigma], 0.03, seed=7)
    assert ledger.pool_size == 100
    assert ledger.sampled_positive == round(0.03 * 100) == 3
    assert len(ledger.gamma_plus) == 3
    assert not ledger.flags


def test_injection_soundness():
    # every ledgered pair is a genuine violation on the mutated graph
    graph, sigma = pair_isolated_instance(60, slots=3)
    mutated, ledger = inject_errors(graph, [sigma], 0.1, seed=5)
    pool = satisfying_pairs(graph, sigma)
    by_key = {}
    for hi, hj in pool:
        sides = sorted([(hi.t, hi.sorted_ids), (hj.t, hj.sorted_ids)])
        by_key[(sigma.name, sides[0], sides[1])] = (hi, hj)
    for key in ledger.gamma_plus:
        hi, hj = by_key[key]
        assert pair_satisfies(hi, hj, list(sigma.x_literals), mutated)
        assert not pair_satisfies(hi, hj, list(sigma.y_literals), mutated)


def test_inject_deterministic():
    graph, sigma = pair_isolated_instance(40, slots=2)
    _, l1 = inject_errors(graph, [sigma], 0.1, seed=9)
    _, l2 = inject_errors(graph, [sigma], 0.1, seed=9)
    assert l1.gamma_plus == l2.gamma_plus
    assert l1.mutations == l2.mutations


def test_inject_insufficient_pool_flagged():
    graph, sigma = pair_isolated_instance(4, slots=2)
    _, ledger = inject_errors(graph, [sigma], 1.0, seed=1, include_negative=True)
    assert any(f.startswith("insufficient-pairs") for f in ledger.flags)


def test_detection_finds_exactly_the_ledger():
    graph, sigma = pair_isolated_instance(100, slots=5)
    mutated, ledger = inject_errors(graph, [sigma], 0.05, seed=11)
    result = detect_sequential(mutated, [sigma])
    metrics = score(result.all_violations(), ledger)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0
    assert metrics.f1 == 1.0


def test_positive_error_on_general_consequent_is_ledgered():
    # x.a0 == y.a1 -> x.a2 == y.a2: pool pairs satisfy X as (earlier,
    # later), which reads y.a2 of the later match; a rewrite of its x.a2
    # would leave that orientation satisfied
    sigma = Tgfd(
        "general",
        GraphPattern([("x", "T0"), ("y", "T1")], [("x", "l0", "y")]),
        Delta(0, 3),
        [VariableLiteral("x", "a0", "y", "a1")],
        [VariableLiteral("x", "a2", "y", "a2")],
    )
    graph = generate_synthetic(120, 360, 4, 3, T=8, chg_rate=0.1, seed=5)
    mutated, ledger = inject_errors(graph, [sigma], 0.2, seed=1)
    assert (ledger.pool_size, ledger.sampled_positive) == (41, 8)
    assert len(ledger.mutations) == 8
    for m in ledger.mutations:
        assert any(
            (m.t, m.vid) in {(t, vid) for t, ids in key[1:] for vid in ids}
            for key in ledger.gamma_plus
        ), m
    metrics = score(detect_sequential(mutated, [sigma]).all_violations(), ledger)
    assert metrics.recall == 1.0


def test_cross_rule_collateral_is_ledgered():
    # two rules share the consequent attribute; mutations sampled for one
    # also break pairs of the other, and the ledger must capture both
    from tgfd.model import Delta, Tgfd

    graph, sigma = pair_isolated_instance(60, slots=3)
    wide = Tgfd(
        "wide", sigma.pattern, Delta(0, 2), list(sigma.x_literals), list(sigma.y_literals)
    )
    mutated, ledger = inject_errors(graph, [sigma, wide], 0.05, seed=23)
    rules_hit = {k[0] for k in ledger.gamma_plus}
    assert rules_hit == {"pairs", "wide"}
    metrics = score(detect_sequential(mutated, [sigma, wide]).all_violations(), ledger)
    assert metrics.precision == 1.0
    assert metrics.recall == 1.0


def test_negative_error_into_another_rules_antecedent_is_ledgered():
    """A negative error of ra writes x1.b = q at t = 2, which rb reads in X:
    x2 at t = 1 and x1 at t = 2 become X-equal under rb and differ on c, a
    pair that was no pool pair of rb.  The ledger holds it, as a negative
    error, and detection reports every ledgered pair."""
    from tgfd.graph import ChangeSet, TemporalGraph, Vertex, apply_changes

    graph = apply_changes(
        TemporalGraph(
            {"x1": Vertex("x1", "A"), "x2": Vertex("x2", "A")},
            [],
            {"x1": {"k": "1", "b": "p", "c": "1"}, "x2": {"k": "1", "b": "q", "c": "2"}},
        ),
        ChangeSet(2, ()),
    )
    pattern = GraphPattern([("x", "A")], [])
    ra = Tgfd("ra", pattern, Delta(1, 1), [VariableLiteral("x", "k", "x", "k")],
              [VariableLiteral("x", "b", "x", "b")])
    rb = Tgfd("rb", pattern, Delta(0, 1), [VariableLiteral("x", "b", "x", "b")],
              [VariableLiteral("x", "c", "x", "c")])
    mutated, ledger = inject_errors(graph, [ra, rb], 0.3, seed=1, include_negative=True)
    assert Mutation(2, "x1", "b", "p", "q", "-") in ledger.mutations
    assert ("rb", (1, ("x2",)), (2, ("x1",))) in ledger.gamma_minus
    found = {pair_id(v) for v in detect_sequential(mutated, [ra, rb]).all_violations()}
    assert set(ledger.gamma_plus) | set(ledger.gamma_minus) <= found


def test_ledger_skips_violations_that_predate_injection():
    """x0 violates rc (`x.c = "ok"`) before injection.  A positive error of
    ra writes x0.b at t = 2, which rc never reads: the ledger must not blame
    it for rc's violation at (2, x0), so eval precision counts that
    violation as a false positive, the one at (1, x0) too."""
    from tgfd.graph import ChangeSet, TemporalGraph, Vertex, apply_changes

    attrs = {f"x{i}": {"k": "1", "b": "p", "c": "ok"} for i in range(4)}
    attrs["x0"]["c"] = "bad"
    graph = apply_changes(
        TemporalGraph({vid: Vertex(vid, "A") for vid in attrs}, [], attrs), ChangeSet(2, ())
    )
    pattern = GraphPattern([("x", "A")], [])
    ra = Tgfd("ra", pattern, Delta(0, 1), [VariableLiteral("x", "k", "x", "k")],
              [VariableLiteral("x", "b", "x", "b")])
    rc = Tgfd("rc", pattern, Delta(0, 0), [], [ConstantLiteral("x", "c", "ok")])
    mutated, ledger = inject_errors(graph, [ra, rc], 0.2, seed=0)
    assert Mutation(2, "x0", "b", "p", "__err1__", "+") in ledger.mutations
    assert ("rc", (2, ("x0",)), (2, ("x0",))) not in ledger.gamma_plus
    # the error written to x3.c at t = 1 is the one rc violation inject caused
    assert [k for k in ledger.gamma_plus if k[0] == "rc"] == [("rc", (1, ("x3",)), (1, ("x3",)))]
    plus, minus, _ = oracle_ledger(graph, mutated, [ra, rc], ledger.mutations)
    assert (ledger.gamma_plus, ledger.gamma_minus) == (sorted(plus), sorted(minus))
    metrics = score(detect_sequential(mutated, [ra, rc]).all_violations(), ledger)
    assert metrics.precision == pytest.approx(28 / 30)


def test_ledger_skips_a_pool_pair_that_violated_the_other_way():
    """(u, w) satisfies `x.p == x.q` as (u, w), so it is a pool pair, but
    fails it as (w, u): it violates before injection.  The error written to
    w.q does not cause that violation, so nothing is ledgered."""
    from tgfd.graph import TemporalGraph, Vertex

    attrs = {"u": {"p": "1", "q": "2"}, "w": {"p": "3", "q": "1"}}
    graph = TemporalGraph({vid: Vertex(vid, "A") for vid in attrs}, [], attrs)
    rule = Tgfd("rg", GraphPattern([("x", "A")], []), Delta(0, 0), [],
                [VariableLiteral("x", "p", "x", "q")])
    violation = ("rg", (1, ("u",)), (1, ("w",)))
    assert {pair_id(v) for v in detect_sequential(graph, [rule]).all_violations()} == {violation}
    mutated, ledger = inject_errors(graph, [rule], 1.0, seed=0)
    assert ledger.pool_size == 1
    assert ledger.mutations == [Mutation(1, "w", "q", "1", "__err0__", "+")]
    assert ledger.gamma_plus == [] and oracle_ledger(graph, mutated, [rule], ledger.mutations)[0] == set()


def test_negative_injection_uses_overlapping_rule_domain():
    from tgfd.model import ConstantLiteral, Delta, GraphPattern, Tgfd, VariableLiteral

    graph, sigma = pair_isolated_instance(30, slots=3)
    donor = Tgfd(
        "donor",
        GraphPattern([("y", "team")], []),
        Delta(0, 1),
        [ConstantLiteral("y", "code", "target")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    mutated, ledger = inject_errors(
        graph, [sigma, donor], 0.1, seed=3, include_negative=True
    )
    assert ledger.sampled_negative > 0
    neg_values = {
        m.new for m in ledger.mutations if m.kind == "-" and m.attr == "code"
    }
    assert neg_values <= {"target"}
    assert ledger.gamma_minus
    assert not (set(ledger.gamma_plus) & set(ledger.gamma_minus))


# General form in X and in Y; its X reads `code`, the attribute the other
# rules' consequents write, so negative errors draw from its domain and move
# its X values.
GENERAL_RULE = Tgfd(
    "general",
    GraphPattern([("x", "person"), ("y", "_")], [("x", "knows", "y")]),
    Delta(0, 2),
    [VariableLiteral("x", "code", "y", "code")],
    [VariableLiteral("x", "name", "y", "rank")],
)
# Its consequent writes x.code, which its own antecedent hashes on, so an
# injected error also moves the mutated match's X key.
OVERLAP_RULE = Tgfd(
    "overlap",
    GraphPattern([("x", "person"), ("y", "_")], [("x", "knows", "y")]),
    Delta(0, 2),
    [VariableLiteral("x", "code", "x", "code")],
    [VariableLiteral("x", "code", "y", "code")],
)
CONSTANT_RULE = Tgfd(
    "constant",
    GraphPattern([("x", "person"), ("y", "city")], [("x", "in", "y")]),
    Delta(0, 1),
    [VariableLiteral("x", "name", "x", "name")],
    [ConstantLiteral("y", "code", "a")],
)


# q reaches past T; an empty X puts every match of the pattern in one class.
LONG_RULE = Tgfd(
    "long",
    GraphPattern([("x", "person"), ("y", "_")], [("x", "knows", "y")]),
    Delta(1, 8),
    [VariableLiteral("x", "name", "x", "name")],
    [VariableLiteral("y", "rank", "y", "rank")],
)
EMPTY_X_RULE = Tgfd(
    "empty",
    GraphPattern([("x", "city")]),
    Delta(0, 2),
    [],
    [VariableLiteral("x", "code", "x", "code")],
)


def random_injection(seed, rate=0.2):
    """(graph, normal-form rules, mutated, ledger): a random graph and rules
    of every shape, injected at rate with negative errors."""
    rng = random.Random(seed)
    graph = random_temporal_graph(rng, n_vertices=30, n_edges=120, T=6, chg=0.15)
    rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=5) for i in range(3)]
    rules += [exotic_rule(rng, "exotic"), GENERAL_RULE, OVERLAP_RULE, CONSTANT_RULE]
    rules = normalize_all(rules + [LONG_RULE, EMPTY_X_RULE])
    mutated, ledger = inject_errors(graph, rules, rate, seed=seed, include_negative=True)
    return graph, rules, mutated, ledger


def assert_ledger_equals_oracle(graph, rules, mutated, ledger):
    """The pool size and both ledger halves equal tests/util.oracle_ledger's;
    returns the oracle's (gamma_plus, gamma_minus)."""
    plus, minus, pool_size = oracle_ledger(graph, mutated, rules, ledger.mutations)
    assert ledger.pool_size == pool_size
    assert ledger.gamma_plus == sorted(plus)
    assert ledger.gamma_minus == sorted(minus)
    return plus, minus


def test_ledger_equals_pair_oracle_with_negative_errors():
    ledgered, negative = set(), set()
    for seed in range(8):
        plus, minus = assert_ledger_equals_oracle(*random_injection(seed))
        ledgered |= {key[0] for key in plus | minus}
        negative |= {key[0] for key in minus}
    assert {"general", "constant", "long", "empty"} <= ledgered
    assert {"general", "constant"} <= negative


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rate=st.floats(0, 1))
def test_ledger_equals_pair_oracle_at_drawn_seeds_and_rates(seed, rate):
    assert_ledger_equals_oracle(*random_injection(seed, rate))


def assert_ledger_is_detection_diff(graph, rules, mutated, ledger):
    """gamma_plus and gamma_minus together are the pairs that detection
    finds on mutated and not on graph, among those holding a mutated
    (t, vid); gamma_minus is the part touched by a negative error.  Returns
    that detection diff."""
    kinds_at = {}
    for m in ledger.mutations:
        kinds_at.setdefault((m.t, m.vid), set()).add(m.kind)

    def kinds(key):
        return set().union(*(kinds_at.get((t, vid), set()) for t, ids in key[1:] for vid in ids))

    after = {pair_id(v) for v in detect_sequential(mutated, rules).iter_violations()}
    before = {pair_id(v) for v in detect_sequential(graph, rules).iter_violations()}
    diff = {key for key in after - before if kinds(key)}
    assert set(ledger.gamma_plus) | set(ledger.gamma_minus) == diff
    assert set(ledger.gamma_minus) == {key for key in diff if "-" in kinds(key)}
    return diff


def golden_injection():
    """The golden CLI instance (tests/test_golden.py) through the API."""
    rules = parse_tgfd_file(GOLDEN_RULES)
    graph = generate_synthetic(120, 360, 4, 3, T=8, chg_rate=0.1, seed=5)
    return (graph, rules, *inject_errors(graph, rules, 0.2, seed=2, include_negative=True))


def audit_sized_injection():
    """The audit benchmark's graph (500 V, 1,500 E, T = 20, uniform) with
    the golden rules, which include a general-form one."""
    rules = parse_tgfd_file(GOLDEN_RULES)
    graph = generate_synthetic(500, 1500, 4, 3, T=20, chg_rate=0.04, seed=1)
    return (graph, rules, *inject_errors(graph, rules, 0.03, seed=1, include_negative=True))


@pytest.mark.parametrize("instance", ["golden", "audit", "random"])
def test_ledger_is_the_detection_diff(instance):
    if instance == "golden":
        graph, rules, mutated, ledger = golden_injection()
        diff = assert_ledger_is_detection_diff(graph, rules, mutated, ledger)
        assert (len(diff), len(ledger.gamma_minus)) == (332, 230)
        # X holds for this r4 pair only as (later, earlier), so it is no pool
        # pair; the negative error written to v10.a2 at t = 5 breaks Y
        assert ("r4", (5, ("v10", "v104")), (5, ("v35", "v82"))) in ledger.gamma_minus
    elif instance == "audit":
        diff = assert_ledger_is_detection_diff(*audit_sized_injection())
        assert {"r1", "r2", "r4"} <= {key[0] for key in diff}
    else:
        for seed in range(8):
            assert_ledger_is_detection_diff(*random_injection(seed))


def test_ledger_holds_a_pair_that_violates_only_the_other_way():
    """Three matches of `x.a0 == y.a0 -> x.a2 == y.a2` at one timestamp.
    (m0, m1) is the one pool pair; the pair of m1 and m2 satisfies X only
    as (m2, m1), later first.  The error written to w1.a2 breaks Y in both
    pairs, and the ledger holds both."""
    from tgfd.graph import TemporalGraph, Vertex

    attrs = {
        "u0": {"a0": "k", "a2": "s"}, "w0": {"a0": "r", "a2": "s0"},
        "u1": {"a0": "p", "a2": "s1"}, "w1": {"a0": "k", "a2": "s"},
        "u2": {"a0": "k", "a2": "s"}, "w2": {"a0": "q", "a2": "s2"},
    }
    vertices = {vid: Vertex(vid, "A" if vid[0] == "u" else "B") for vid in attrs}
    graph = TemporalGraph(vertices, [(f"u{i}", "l", f"w{i}") for i in range(3)], attrs)
    rule = Tgfd("r", GraphPattern([("x", "A"), ("y", "B")], [("x", "l", "y")]), Delta(0, 0),
                [VariableLiteral("x", "a0", "y", "a0")], [VariableLiteral("x", "a2", "y", "a2")])
    mutated, ledger = inject_errors(graph, [rule], 1.0, seed=0)
    assert ledger.pool_size == 1
    assert ledger.mutations == [Mutation(1, "w1", "a2", "s", "__err0__", "+")]
    assert ledger.gamma_plus == [
        ("r", (1, ("u0", "w0")), (1, ("u1", "w1"))),
        ("r", (1, ("u1", "w1")), (1, ("u2", "w2"))),
    ]
    assert_ledger_is_detection_diff(graph, [rule], mutated, ledger)


def test_ledger_skips_an_identity_that_violated_through_another_match():
    """rc's matches (x=a, y=b) and (x=b, y=a) share one scoring identity, the
    vertices {a, b} at one timestamp.  (x=b, y=a) violates `x.c = "ok"`
    before injection; the error ra writes to a.c at t = 2 makes (x=a, y=b)
    violate too, but detection reported that identity already, so the
    ledger holds only ra's pair."""
    from tgfd.graph import ChangeSet, TemporalGraph, Vertex, apply_changes

    attrs = {"a": {"k": "1", "c": "ok"}, "b": {"k": "2", "c": "bad"}}
    graph = apply_changes(
        TemporalGraph({vid: Vertex(vid, "A") for vid in attrs}, [("a", "l", "b"), ("b", "l", "a")], attrs),
        ChangeSet(2, ()),
    )
    ra = Tgfd("ra", GraphPattern([("x", "A")]), Delta(0, 1), [VariableLiteral("x", "k", "x", "k")],
              [VariableLiteral("x", "c", "x", "c")])
    rc = Tgfd("rc", GraphPattern([("x", "A"), ("y", "A")], [("x", "l", "y")]), Delta(0, 0), [],
              [ConstantLiteral("x", "c", "ok")])
    mutated, ledger = inject_errors(graph, [ra, rc], 0.5, seed=0)
    assert ledger.mutations == [Mutation(2, "a", "c", "ok", "__err0__", "+")]
    assert ledger.gamma_plus == [("ra", (1, ("a",)), (2, ("a",)))]
    assert_ledger_is_detection_diff(graph, [ra, rc], mutated, ledger)


def assert_mutated_like_oracle(graph, mutated, mutations):
    """mutated holds graph's edges at every t, and the attributes that the
    oracle writes into each timestamp's map."""
    maps = mutated_attr_maps(graph, mutations)
    assert mutated.T == graph.T
    for t in range(1, graph.T + 1):
        assert nonempty_attrs(mutated.snapshot(t).attrs) == nonempty_attrs(maps[t - 1]), t
        assert mutated.view(t).edges == graph.view(t).edges, t


def assert_detects_like_reloaded(mutated, rules):
    reloaded = load_graph(*graph_to_texts(mutated))
    ours, theirs = detect_sequential(mutated, rules), detect_sequential(reloaded, rules)
    assert ours.all_violations() == theirs.all_violations()
    assert ours.nontrivial == theirs.nontrivial


@pytest.mark.parametrize("seed", range(6))
def test_mutations_as_change_set_edits_equal_rewritten_snapshots(seed):
    rng = random.Random(seed)
    graph = random_temporal_graph(rng, n_vertices=16, n_edges=40, T=4, chg=0.2)
    vids = sorted(graph.vertices)
    written, gone = rng.sample(vids, 2)
    # change set T + 1 writes one slot and deletes another
    graph = extend(graph, [AttrSet(written, "name", "w"), AttrDelete(gone, "rank")])
    graph = extend(graph, random_changes(rng, graph, graph.T + 1, 8).changes)
    T = graph.T
    slot = (rng.choice(vids), rng.choice(["name", "rank", "code"]))
    mutations = [
        Mutation(1, rng.choice(vids), "code", None, "at-first"),
        Mutation(T, rng.choice(vids), "name", None, "at-last"),
        Mutation(2, *slot, None, "consecutive-2"),
        Mutation(3, *slot, None, "consecutive-3"),
        Mutation(4, written, "name", None, "before-write"),
        Mutation(4, gone, "rank", None, "before-delete"),
        Mutation(rng.randint(1, T), rng.choice(vids), "fresh", None, "was-absent"),
        Mutation(2, *slot, None, "consecutive-2-again"),  # the later write wins
    ]
    head = mutations[:-1]
    rng.shuffle(head)
    mutations = head + mutations[-1:]
    mutated = apply_mutations(graph, mutations)
    assert mutated.snapshot(5).attr(written, "name") == "w"
    assert mutated.snapshot(5).attr(gone, "rank") is None
    assert mutated.snapshot(2).attr(*slot) == "consecutive-2-again"
    assert_mutated_like_oracle(graph, mutated, mutations)
    rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=T) for i in range(3)] + [GENERAL_RULE]
    assert_detects_like_reloaded(mutated, rules)


def test_injected_graph_equals_rewritten_snapshots():
    at_ends = set()
    for seed in range(6):
        rng = random.Random(100 + seed)
        graph = random_temporal_graph(rng, n_vertices=30, n_edges=120, T=5, chg=0.2)
        rules = [random_tgfd(rng, f"r{i}", max_edges=2, T=5) for i in range(3)]
        rules += [GENERAL_RULE, OVERLAP_RULE, CONSTANT_RULE]
        mutated, ledger = inject_errors(graph, rules, 0.3, seed=seed, include_negative=True)
        assert ledger.mutations
        at_ends |= {m.t for m in ledger.mutations} & {1, graph.T}
        assert_mutated_like_oracle(graph, mutated, ledger.mutations)
        assert_detects_like_reloaded(mutated, rules)
    assert at_ends == {1, 5}


# any text: quotes, backslashes, control and non-ASCII characters
TEXTS = st.text(max_size=6)
KEYS = st.tuples(
    TEXTS,
    st.tuples(st.integers(0, 10**6), st.lists(TEXTS, max_size=3).map(tuple)),
    st.tuples(st.integers(0, 10**6), st.lists(TEXTS, max_size=3).map(tuple)),
)


@given(
    plus=st.lists(KEYS, max_size=4),
    minus=st.lists(KEYS, max_size=4),
    mutations=st.lists(st.builds(
        Mutation, st.integers(1, 10**6), TEXTS, TEXTS, st.none() | TEXTS, TEXTS,
        st.sampled_from("+-"),
    ), max_size=4),
    flags=st.lists(TEXTS, max_size=3),
    counts=st.tuples(*[st.integers(0, 10**9)] * 3),
)
def test_ledger_text_is_json_dumps_of_its_document(plus, minus, mutations, flags, counts):
    """The ledger writer lays the document out byte for byte as
    json.dumps(indent=2, sort_keys=True) does: None old values, quotes,
    non-ASCII text, empty flags, lists and id tuples."""
    ledger = InjectionLedger(plus, minus, mutations, *counts, flags)
    doc = {
        "pool_size": ledger.pool_size,
        "sampled_positive": ledger.sampled_positive,
        "sampled_negative": ledger.sampled_negative,
        "flags": list(ledger.flags),
        "mutations": [[m.t, m.vid, m.attr, m.old, m.new, m.kind] for m in ledger.mutations],
        "gamma_plus": [[r, [ti, list(i)], [tj, list(j)]] for r, (ti, i), (tj, j) in plus],
        "gamma_minus": [[r, [ti, list(i)], [tj, list(j)]] for r, (ti, i), (tj, j) in minus],
    }
    text = ledger_to_text(ledger)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    back = ledger_from_text(text)
    assert (back.gamma_plus, back.gamma_minus, back.mutations) == (plus, minus, mutations)


def test_ledger_roundtrip():
    graph, sigma = pair_isolated_instance(30, slots=3)
    _, ledger = inject_errors(graph, [sigma], 0.1, seed=3)
    text = ledger_to_text(ledger)
    back = ledger_from_text(text)
    assert back.gamma_plus == ledger.gamma_plus
    assert back.mutations == ledger.mutations
    assert back.pool_size == ledger.pool_size


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_score_perfect_detection():
    ledger = InjectionLedger(gamma_plus=[("r", (1, ("a",)), (2, ("a",)))])
    from tgfd.detection import PairViolation
    from tgfd.model import MatchBinding

    v = PairViolation(
        "r", MatchBinding.of(1, {"x": "a"}), MatchBinding.of(2, {"x": "a"})
    )
    m = score([v], ledger)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert m.fpr == 0.0 and not m.fpr_defined


def test_score_empty_detection_nonempty_ledger():
    ledger = InjectionLedger(gamma_plus=[("r", (1, ("a",)), (2, ("a",)))])
    m = score([], ledger)
    assert m.recall == 0.0
    assert m.f1 == 0.0


def test_score_both_empty():
    m = score([], InjectionLedger())
    assert m.precision == 1.0 and m.recall == 1.0


def test_score_mixed_hand_computed():
    from tgfd.detection import PairViolation
    from tgfd.model import MatchBinding

    def pv(name, t1, v1, t2, v2):
        return PairViolation(
            name, MatchBinding.of(t1, {"x": v1}), MatchBinding.of(t2, {"x": v2})
        )

    detected = [pv("r", 1, "a", 2, "a"), pv("r", 2, "b", 3, "b"), pv("r", 4, "c", 5, "c")]
    ledger = InjectionLedger(
        gamma_plus=[
            ("r", (1, ("a",)), (2, ("a",))),
            ("r", (7, ("z",)), (8, ("z",))),
        ],
        gamma_minus=[("r", (2, ("b",)), (3, ("b",)))],
    )
    m = score(detected, ledger)
    assert m.precision == pytest.approx(1 / 3)
    assert m.recall == pytest.approx(1 / 2)
    assert m.fpr == pytest.approx(1.0)
    assert m.fpr_defined
    assert m.f1 == pytest.approx(2 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2))


# ---------------------------------------------------------------------------
# GFD-mode recall gap
# ---------------------------------------------------------------------------


def test_gfd_mode_recall_gap():
    graph, sigma = pair_isolated_instance(60, slots=3, duplicate_names=4)
    mutated, ledger = inject_errors(graph, [sigma], 0.15, seed=13)
    plus = ledger.plus_set()
    assert plus
    cross = {k for k in plus if k[1][0] != k[2][0]}
    phi = len(cross) / len(plus)
    assert phi > 0

    tgfd_result = detect_sequential(mutated, [sigma])
    tgfd_metrics = score(tgfd_result.all_violations(), ledger)
    assert tgfd_metrics.recall == 1.0

    gfd_rules = apply_mode([sigma], "gfd")
    gfd_result = detect_sequential(mutated, gfd_rules)
    # score against the same ledger: rename rule ids back
    renamed = [
        v for v in gfd_result.all_violations()
    ]
    gfd_metrics = score(renamed, ledger)
    assert gfd_metrics.recall <= 1 - phi + 1e-9

import gc
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tgfd.graph import (
    AttrDelete,
    AttrSet,
    ChangeSet,
    EdgeInsert,
    GraphView,
    advance_view,
    apply_changes,
)
from tgfd.matcher import IncrementalMatcher, match_snapshot
from tgfd.model import GraphPattern, MatchBinding

from util import (
    brute_matches,
    brute_matches_all_maps,
    build_graph,
    complete_keys,
    exotic_pattern,
    live_matches,
    nx_monomorphisms,
    random_changes,
    random_graph,
    random_pattern,
)


def nx_matches(pattern: GraphPattern, view) -> set:
    """The networkx oracle's matches of the pattern in the view."""
    nodes = [(vid, view.type_of(vid)) for vid in view.vertices()]
    return {MatchBinding(view.t, items) for items in nx_monomorphisms(pattern, nodes, view.edges)}


def assert_matches_current(matcher, pattern, view, where):
    """The incremental state equals the batch matcher and the networkx
    oracle on the current view."""
    got = live_matches(matcher, view.t)
    assert got == match_snapshot(pattern, view), f"batch divergence {where}"
    assert got == nx_matches(pattern, view), f"networkx divergence {where}"


def flip(view, matcher, e):
    """Flip edge e in the shared view, then hand the flip to the matcher."""
    if e in view.edges:
        view.remove_edge(e)
    else:
        view.add_edge(e)
    return matcher.apply(e)


def advance(view, cs, *matchers):
    """Advance the shared view by cs and hand every flipped edge to each
    matcher; returns the flips."""
    flipped = advance_view(view, cs)
    for e in flipped:
        for matcher in matchers:
            matcher.apply(e)
    return flipped


def advisor_pattern():
    # advisor -> student -> university, with a department branch onto the
    # university
    return GraphPattern(
        [("x", "advisor"), ("y", "student"), ("z", "university"), ("w", "department")],
        [("x", "supervise", "y"), ("y", "study", "z"), ("w", "partOf", "z")],
    )


# ---------------------------------------------------------------------------
# snapshot matching
# ---------------------------------------------------------------------------


def test_match_single_node_pattern():
    g = build_graph({"a": "person", "b": "person", "c": "city"}, [("a", "in", "c")])
    p = GraphPattern([("x", "person")], [])
    found = match_snapshot(p, g.view(1))
    assert {b.get("x") for b in found} == {"a", "b"}


def test_match_medication_fixture(medication_graph, medication_rules):
    sigma = medication_rules[0]
    for t in range(1, 7):
        found = match_snapshot(sigma.pattern, medication_graph.view(t))
        assert len(found) == 1
        b = next(iter(found))
        assert b.assignment == {"x": "p1", "z": "d1", "y": "m1", "w": "w1"}


def test_match_equals_brute_force_small():
    rng = random.Random(21)
    for seed in range(30):
        rng = random.Random(seed)
        g = random_graph(rng, 8, 14)
        pattern = random_pattern(rng, 3)
        view = g.view(1)
        assert match_snapshot(pattern, view) == brute_matches_all_maps(pattern, view)


def test_match_wildcard():
    g = build_graph({"a": "person", "c": "city"}, [("a", "in", "c")])
    p = GraphPattern([("x", "_"), ("y", "city")], [("x", "in", "y")])
    found = match_snapshot(p, g.view(1))
    assert {b.get("x") for b in found} == {"a"}


def test_match_injective():
    g = build_graph({"a": "t"}, [])
    # two vars of the same type cannot share the one vertex
    p = GraphPattern([("x", "t"), ("y", "t")], [("x", "l", "y")])
    assert not match_snapshot(p, g.view(1))


# ---------------------------------------------------------------------------
# incremental maintenance
# ---------------------------------------------------------------------------


def study_graph(with_study_edge: bool):
    edges = [("Adv", "supervise", "Bob"), ("Dep", "partOf", "Uni"), ("o1", "near", "o2")]
    if with_study_edge:
        edges.append(("Bob", "study", "Uni"))
    return build_graph(
        {
            "Bob": "student",
            "Adv": "advisor",
            "Uni": "university",
            "Dep": "department",
            "o1": "org",
            "o2": "org",
        },
        edges,
        {"Uni": {"name": "Waterloo"}},
    )


STUDY_MATCH = (("w", "Dep"), ("x", "Adv"), ("y", "Bob"), ("z", "Uni"))


def test_attribute_change_returns_nothing_and_never_searches():
    g = study_graph(with_study_edge=True)
    view = g.view(1)
    matcher = IncrementalMatcher(advisor_pattern(), view)
    before = complete_keys(matcher)
    assert before == {STUDY_MATCH}
    cs = ChangeSet(2, (AttrSet("Uni", "name", "McMaster"), AttrDelete("Uni", "name")))
    assert advance(view, cs, matcher) == []
    assert matcher.iso_searches == 0
    assert complete_keys(matcher) == before


def test_edge_insert_adds_exactly_the_new_match():
    g = study_graph(with_study_edge=False)
    view = g.view(1)
    matcher = IncrementalMatcher(advisor_pattern(), view)
    assert matcher.view is view
    assert live_matches(matcher, 1) == set()
    added, removed = flip(view, matcher, ("Bob", "study", "Uni"))
    assert added == {STUDY_MATCH} and removed == set()
    assert matcher.iso_searches == 1
    assert live_matches(matcher, 2) == {MatchBinding(t=2, items=STUDY_MATCH)}
    # re-inserting a present edge flips nothing, so the matcher never hears of it
    assert advance(view, ChangeSet(3, (EdgeInsert("Bob", "study", "Uni"),)), matcher) == []
    assert matcher.iso_searches == 1


def test_edge_delete_removes_exactly_its_match():
    g = study_graph(with_study_edge=True)
    view = g.view(1)
    matcher = IncrementalMatcher(advisor_pattern(), view)
    # an edge no match uses removes nothing
    assert flip(view, matcher, ("o1", "near", "o2")) == (set(), set())
    assert complete_keys(matcher) == {STUDY_MATCH}
    added, removed = flip(view, matcher, ("Adv", "supervise", "Bob"))
    assert added == set() and removed == {STUDY_MATCH}
    assert complete_keys(matcher) == set()
    assert matcher.iso_searches == 0


@pytest.mark.parametrize("profile", [(0.4, 0.3, 0.3), (0.85, 0.075, 0.075), (0.075, 0.85, 0.075), (0.075, 0.075, 0.85)])
def test_incremental_equals_batch_random_streams(profile):
    for seed in range(8):
        rng = random.Random(seed)
        g = random_graph(rng, 24, 45)
        pattern = random_pattern(rng, 3)
        view = g.view(1)
        matcher = IncrementalMatcher(pattern, view)
        assert_matches_current(matcher, pattern, g.view(1), f"seed={seed} t=1")
        for t in range(2, 6):
            cs = random_changes(rng, g, t, 8, profile)
            g = apply_changes(g, cs)
            advance(view, cs, matcher)
            assert_matches_current(matcher, pattern, g.view(t), f"seed={seed} t={t}")


def test_incremental_equals_batch_exotic_patterns():
    # diamonds, directed cycles, parallel labels, wildcard hubs, self-loops;
    # the change streams insert and delete data self-loops
    loop_patterns = 0
    for seed in range(30):
        rng = random.Random(10_000 + seed)
        g = random_graph(rng, rng.randint(10, 30), rng.randint(20, 60))
        pattern = exotic_pattern(rng)
        loop_patterns += any(e[0] == e[2] for e in pattern.edges)
        view = g.view(1)
        matcher = IncrementalMatcher(pattern, view)
        assert_matches_current(matcher, pattern, g.view(1), f"seed={seed} t=1")
        for t in range(2, 5):
            cs = random_changes(rng, g, t, rng.randint(4, 10), loops=rng.randint(2, 6))
            g = apply_changes(g, cs)
            advance(view, cs, matcher)
            assert_matches_current(matcher, pattern, g.view(t), f"seed={seed} t={t}")
    assert loop_patterns


def test_self_loop_patterns_under_loop_heavy_streams():
    # every stream inserts and deletes self-loops; some matches must appear
    # and disappear, so the equality is not vacuous
    seen_added = seen_removed = 0
    for seed in range(20):
        rng = random.Random(20_000 + seed)
        g = random_graph(rng, 8, 16, n_types=2)
        la, lb = rng.sample(["knows", "in", "plays", "owns"], 2)
        pattern = [
            GraphPattern([("x", "person")], [("x", la, "x")]),
            GraphPattern([("x", "_"), ("y", "city")], [("x", la, "x"), ("x", lb, "y")]),
            GraphPattern([("x", "person"), ("y", "person")], [("x", la, "y"), ("y", la, "y")]),
        ][seed % 3]
        view = g.view(1)
        matcher = IncrementalMatcher(pattern, view)
        assert_matches_current(matcher, pattern, g.view(1), f"seed={seed} t=1")
        for t in range(2, 7):
            cs = random_changes(rng, g, t, 6, loops=6)
            g = apply_changes(g, cs)
            for e in advance_view(view, cs):
                added, removed = matcher.apply(e)
                seen_added += len(added)
                seen_removed += len(removed)
            assert_matches_current(matcher, pattern, g.view(t), f"seed={seed} t={t}")
            assert brute_matches(pattern, g.view(t)) == brute_matches_all_maps(pattern, g.view(t))
    assert seen_added and seen_removed


def test_brute_matches_checks_self_loops():
    g = build_graph({"a": "person", "b": "person"}, [("a", "knows", "a"), ("a", "in", "b")])
    loop = GraphPattern([("x", "person")], [("x", "knows", "x")])
    assert {b.get("x") for b in brute_matches(loop, g.view(1))} == {"a"}
    both = GraphPattern([("x", "person"), ("y", "person")], [("y", "in", "x"), ("x", "knows", "x")])
    assert brute_matches(both, g.view(1)) == set()
    assert brute_matches(both, g.view(1)) == nx_matches(both, g.view(1))


def test_search_leaves_no_cyclic_garbage():
    """A search's nested closures are freed when it returns, so the view
    they read does not wait for the cyclic garbage collector."""
    pattern, view = advisor_pattern(), study_graph(with_study_edge=True).view(1)
    assert match_snapshot(pattern, view)  # builds the pattern's own view once
    gc.collect()
    gc.disable()
    try:
        assert match_snapshot(pattern, view)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_attribute_only_stream_never_searches():
    rng = random.Random(3)
    g = random_graph(rng, 20, 40)
    pattern = random_pattern(rng, 3)
    view = g.view(1)
    matcher = IncrementalMatcher(pattern, view)
    for t in range(2, 6):
        cs = random_changes(rng, g, t, 10, (1.0, 0.0, 0.0))
        g = apply_changes(g, cs)
        assert advance(view, cs, matcher) == []
        assert live_matches(matcher, t) == match_snapshot(pattern, g.view(t))
    assert matcher.iso_searches == 0


def test_locality_of_changes():
    # a change on an edge far from any candidate leaves states untouched
    g = build_graph(
        {"a": "person", "b": "person", "far1": "org", "far2": "org"},
        [("a", "knows", "b"), ("far1", "near", "far2")],
    )
    pattern = GraphPattern([("x", "person"), ("y", "person")], [("x", "knows", "y")])
    view = g.view(1)
    matcher = IncrementalMatcher(pattern, view)
    before = complete_keys(matcher)
    flip(view, matcher, ("far1", "near", "far2"))
    flip(view, matcher, ("far2", "near", "far1"))
    assert complete_keys(matcher) == before


# ---------------------------------------------------------------------------
# stateful oracle
# ---------------------------------------------------------------------------

MACHINE_TYPES = {"a": "person", "b": "person", "c": "person", "d": "city", "e": "city"}
MACHINE_EDGES = st.tuples(
    st.sampled_from(sorted(MACHINE_TYPES)),
    st.sampled_from(["knows", "in"]),
    st.sampled_from(sorted(MACHINE_TYPES)),
)
MACHINE_PATTERNS = [
    # wildcard labels at both ends
    GraphPattern([("x", "_"), ("y", "_")], [("x", "in", "y")]),
    # a self-loop plus an edge to a wildcard
    GraphPattern([("x", "person"), ("y", "_")], [("x", "knows", "x"), ("x", "in", "y")]),
    # two parallel pattern edges with different labels
    GraphPattern([("x", "person"), ("y", "_")], [("x", "knows", "y"), ("x", "in", "y")]),
    # a directed triangle, whose last variable has two placed neighbours
    GraphPattern(
        [("x", "person"), ("y", "person"), ("z", "_")],
        [("x", "knows", "y"), ("y", "in", "z"), ("z", "knows", "x")],
    ),
    # a star: a search seeded at one leaf reaches the others through the centre
    GraphPattern(
        [("x", "person"), ("y", "city"), ("z", "_")],
        [("x", "in", "y"), ("x", "knows", "z")],
    ),
    # edge-free
    GraphPattern([("x", "person")], []),
]


class MatcherMachine(RuleBasedStateMachine):
    """Two IncrementalMatchers with different patterns read one shared view,
    which the machine moves itself: edge inserts and deletes, one at a time
    or several at once, and attribute writes.  After every step both are
    checked against networkx and a batch match of a view rebuilt from the
    shared one's vertices and edges.

    Patterns are connected, so a variable with no placed neighbour occurs
    only at the start of an unseeded search: the matchers' initial batch
    matches and every `match_snapshot` comparison.
    """

    @initialize(
        which=st.lists(
            st.integers(0, len(MACHINE_PATTERNS) - 1), min_size=2, max_size=2, unique=True
        ),
        edges=st.sets(MACHINE_EDGES, max_size=8),
    )
    def start(self, which, edges):
        self.view = GraphView(1, MACHINE_TYPES, edges)
        self.matchers = [IncrementalMatcher(MACHINE_PATTERNS[i], self.view) for i in which]
        self.searches = [0] * len(self.matchers)

    def _seeds_search(self, pattern, e) -> bool:
        """Whether inserting e seeds a search: some pattern edge can play it."""
        src, label, dst = e
        return any(
            plabel == label
            and (psrc == pdst) == (src == dst)
            and pattern.label_of(psrc) in ("_", self.view.type_of(src))
            and pattern.label_of(pdst) in ("_", self.view.type_of(dst))
            for (psrc, plabel, pdst) in pattern.edges
        )

    def _toggle(self, e) -> None:
        if e in self.view.edges:
            self.view.remove_edge(e)
        else:
            self.view.add_edge(e)

    def _hand_over(self, flipped) -> None:
        for i, matcher in enumerate(self.matchers):
            for e in flipped:
                if e in self.view.edges and self._seeds_search(matcher.pattern, e):
                    self.searches[i] += 1
                matcher.apply(e)

    @rule(e=MACHINE_EDGES)
    def flip_edge(self, e):
        before = set(self.view.edges)
        self._toggle(e)
        self._hand_over(sorted(before ^ self.view.edges))

    @rule(es=st.lists(MACHINE_EDGES, max_size=5))
    def flip_together(self, es):
        # the net flips of several toggles, handed over in reverse order
        before = set(self.view.edges)
        for e in es:
            self._toggle(e)
        self._hand_over(sorted(before ^ self.view.edges, reverse=True))

    @rule(vid=st.sampled_from(sorted(MACHINE_TYPES)), value=st.sampled_from(["p", "q"]))
    def write_attribute(self, vid, value):
        cs = ChangeSet(self.view.t + 1, (AttrSet(vid, "name", value),))
        assert advance_view(self.view, cs) == []

    @invariant()
    def matches_equal_oracles(self):
        rebuilt = GraphView(self.view.t, self.view.types, self.view.edges)
        for matcher, searches in zip(self.matchers, self.searches):
            assert matcher.view is self.view
            assert_matches_current(matcher, matcher.pattern, rebuilt, "after step")
            assert matcher.iso_searches == searches


MatcherMachine.TestCase.settings = settings(stateful_step_count=25, deadline=None)
test_matcher_state_machine = MatcherMachine.TestCase

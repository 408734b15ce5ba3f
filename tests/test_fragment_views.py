"""Kept fragment views against views rebuilt from scratch.

The parallel engine builds each fragment's working view once and advances
it from every change set.  At every timestamp it must hold exactly the view
that `util.fragment_view_from_scratch` builds from the full snapshot, emit
exactly the flips of the full diff `util.view_delta`, and count the same
shipped edges and size-model attribute units.
"""

import random

import pytest

from tgfd.detection import detect_sequential
from tgfd.graph import (
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    advance_view,
    apply_changes,
    changed_attrs,
)
from tgfd.matcher import IncrementalMatcher, match_snapshot
from tgfd.model import Delta, GraphPattern, Tgfd, VariableLiteral, normalize_all
from tgfd.parallel import _FragmentView, make_fragments, run_parallel

from util import (
    ATTR_POOL,
    LABEL_POOL,
    TYPE_POOL,
    VALUE_POOL,
    canonical_pairs,
    engine_violation_keys,
    exotic_rule,
    fragment_view_from_scratch,
    random_graph,
    random_tgfd,
    view_delta,
)


def churn(rng, graph, t, gone):
    """A valid change set for t that flips some edges and churns others:
    self-loops, an edge inserted and deleted again, an edge deleted and
    re-inserted, an edge deleted at an earlier t inserted again, an insert
    of a present edge, attribute writes.  gone collects deleted edges."""
    vids = sorted(graph.vertices)
    live = graph.view(graph.T).edges
    changes = []

    def insert(e):
        changes.append(EdgeInsert(*e))
        live.add(e)

    def delete(e):
        changes.append(EdgeDelete(*e))
        live.discard(e)
        gone.add(e)

    def some_edge():
        src = rng.choice(vids)
        dst = src if rng.random() < 0.2 else rng.choice(vids)
        return (src, rng.choice(LABEL_POOL), dst)

    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(7)
        if kind == 0 and live:
            delete(rng.choice(sorted(live)))
        elif kind == 1:
            insert(some_edge())
        elif kind == 2:
            e = some_edge()
            insert(e)
            delete(e)
        elif kind == 3 and live:
            e = rng.choice(sorted(live))
            delete(e)
            insert(e)
        elif kind == 4 and gone - live:
            insert(rng.choice(sorted(gone - live)))
        elif kind == 5 and live:
            insert(rng.choice(sorted(live)))
        else:
            changes.append(
                AttrSet(rng.choice(vids), rng.choice(ATTR_POOL), rng.choice(VALUE_POOL))
            )
    return ChangeSet(t=t, changes=tuple(changes))


def churned_graph(rng, max_vertices=12, max_T=8):
    graph = random_graph(rng, rng.randint(2, max_vertices), rng.randint(0, 20), n_types=3)
    gone = set()
    for t in range(2, rng.randint(2, max_T) + 1):
        graph = apply_changes(graph, churn(rng, graph, t, gone))
    return graph


def cross_edges(view, owned):
    return {e for e in view.edges if e[0] not in owned or e[2] not in owned}


def net_changed_attrs(graph, t):
    """(vertex, attribute) slots whose value differs between snapshots
    t - 1 and t, over every slot of both."""
    before, after = graph.snapshot(t - 1), graph.snapshot(t)
    slots = {
        (vid, name) for snap in (before, after) for vid, named in snap.attrs.items() for name in named
    }
    return {k for k in slots if before.attr(*k) != after.attr(*k)}


def assert_same_view(kept, want):
    assert kept.t == want.t
    assert kept.types == want.types
    assert kept.edges == want.edges
    for vid in want.types:
        assert kept.out_edges(vid) == want.out_edges(vid)
        assert kept.in_edges(vid) == want.in_edges(vid)
    for label in set(want.types.values()):
        assert kept.vertices_of_type(label) == want.vertices_of_type(label)


@pytest.mark.parametrize("seed", range(80))
def test_kept_views_equal_views_from_scratch(seed):
    rng = random.Random(seed)
    graph = churned_graph(rng)
    labels = TYPE_POOL[:3] + ["_"]
    specs = sorted({(rng.choice(labels), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))})
    frags = make_fragments(graph, rng.randint(1, 4), seed)

    full = graph.view(1)
    kept = [_FragmentView(full, f.owned_vertices, specs) for f in frags]
    prev = [fragment_view_from_scratch(graph.view(1), f.owned_vertices, specs) for f in frags]
    for fv, want, frag in zip(kept, prev, frags):
        assert_same_view(fv.view, want)
        assert fv.shipped == len(cross_edges(want, frag.owned_vertices))

    for t in range(2, graph.T + 1):
        flipped = advance_view(full, graph.changesets[t - 2])
        assert full.t == t
        assert full.edges == graph.view(t).edges
        assert set(flipped) == graph.view(t - 1).edges ^ full.edges
        changed = changed_attrs(graph, t)
        net = net_changed_attrs(graph, t)
        for i, frag in enumerate(frags):
            owned = frag.owned_vertices
            want = fragment_view_from_scratch(graph.view(t), owned, specs)
            flips = kept[i].advance(full, flipped, changed)
            assert flips == view_delta(prev[i], want)
            assert_same_view(kept[i].view, want)
            assert kept[i].shipped == len(cross_edges(want, owned) - cross_edges(prev[i], owned))
            assert kept[i].attr_units == sum(
                1 for vid, _ in net if vid in prev[i].types and vid in want.types
            )
            prev[i] = want


def test_single_node_balls_hold_only_their_center():
    """Radius-0 balls (single-node patterns) never grow, whatever the edges
    around them do; self-loops on owned centers stay in the view."""
    rng = random.Random(7)
    graph = churned_graph(rng, max_vertices=6, max_T=10)
    frag = make_fragments(graph, 2, 3)[0]
    full = graph.view(1)
    fv = _FragmentView(full, frag.owned_vertices, [("_", 0)])
    for t in range(2, graph.T + 1):
        fv.advance(full, advance_view(full, graph.changesets[t - 2]), changed_attrs(graph, t))
        assert all(ball.keys() == {center} for (center, _), ball in fv.balls.items())
        assert set(fv.view.types) == set(frag.owned_vertices)
        assert_same_view(fv.view, fragment_view_from_scratch(graph.view(t), frag.owned_vertices, [("_", 0)]))


# one vertex on its own: its matches change only as vertices enter or
# leave a view, which `sync_vertex` handles
SINGLE_VERTEX_RULE = Tgfd(
    "c",
    GraphPattern([("x", "_")], []),
    Delta(0, 2),
    [VariableLiteral("x", "name", "x", "name")],
    [VariableLiteral("x", "code", "x", "code")],
)


@pytest.mark.parametrize("seed", range(16))
def test_run_parallel_on_churned_graphs(seed, monkeypatch):
    """Per superstep, the shipped edges are the cross edges new to each
    rebuilt view, every matcher's matches are those of the view it reads,
    and the violations equal sequential detection's."""
    rng = random.Random(1000 + seed)
    graph = churned_graph(rng, max_vertices=14)
    rules = [exotic_rule(rng, "a"), random_tgfd(rng, "b", max_edges=2, T=graph.T)]
    rules.append(SINGLE_VERTEX_RULE)
    n = rng.randint(1, 4)
    topological_matches = IncrementalMatcher.topological_matches

    def checked(self, t):
        found = topological_matches(self, t)
        assert self.view.t == t and found == match_snapshot(self.pattern, self.view)
        return found

    monkeypatch.setattr(IncrementalMatcher, "topological_matches", checked)
    result = run_parallel(graph, rules, n, seed=seed)

    specs = sorted({
        (s.pattern.label_of(s.pattern.radius_center()[0]), s.pattern.diameter)
        for s in normalize_all(rules)
    })
    frags = make_fragments(graph, n, seed)
    prev_cross = {f.worker_id: set() for f in frags}
    for step in result.report.supersteps:
        expected = {}
        for frag in frags:
            view = fragment_view_from_scratch(graph.view(step.t), frag.owned_vertices, specs)
            cross = cross_edges(view, frag.owned_vertices)
            expected[frag.worker_id] = len(cross - prev_cross[frag.worker_id])
            prev_cross[frag.worker_id] = cross
        assert step.shipped_edges == expected

    sequential = detect_sequential(graph, rules)
    for sigma in rules:
        assert engine_violation_keys(result.violations[sigma.name]) == engine_violation_keys(
            sequential.violations[sigma.name]
        )
        assert result.violations[sigma.name] == sequential.violations[sigma.name]
        assert canonical_pairs(result.violations[sigma.name])

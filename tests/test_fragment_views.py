"""Kept fragment views against views rebuilt from scratch.

The parallel engine builds each fragment's view once and advances it from
every change set, repairing only the balls a flip reaches.  At every
timestamp it must hold exactly the vertices and edges of the view that
`util.fragment_view_from_scratch` builds from the full snapshot, keep every
ball's hop map equal to a fresh BFS, emit exactly the edge flips of the
full diff `util.view_delta`, and count the same shipped edges and size-model
attribute units.  The size model itself is checked against the engine as
it was before matching moved to the full view: one `IncrementalMatcher` per
job, reading its fragment's view.
"""

import random

import pytest

from tgfd.detection import detect_sequential
from tgfd.graph import (
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    Fragment,
    GraphView,
    advance_view,
    apply_changes,
    ball_vertices,
    changed_attrs,
)
from tgfd.matcher import IncrementalMatcher, match_snapshot
from tgfd.model import Delta, GraphPattern, MatchBinding, Tgfd, VariableLiteral, normalize_all
from tgfd.parallel import _FragmentView, anchor_balls, make_fragments, owner_map, run_parallel

from util import (
    ATTR_POOL,
    LABEL_POOL,
    TYPE_POOL,
    VALUE_POOL,
    build_graph,
    canonical_pairs,
    engine_violation_keys,
    exotic_rule,
    extend,
    fragment_view_from_scratch,
    neighbors,
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


def assert_same_view(kept, want, full):
    """The kept fragment holds the rebuilt view's vertices and edges (equal
    edge sets give equal adjacency), and each of its balls' hop maps is a
    fresh BFS of the full view."""
    assert kept.vertices == want.vertices()
    assert kept.edges == want.edges
    for (center, radius), hops in kept.balls.items():
        fresh = {}
        ball_vertices(full, center, radius, fresh)
        assert hops == fresh, (center, radius)


def check_kept_views(graph, frags, specs):
    """Advance one kept view per fragment through the graph's change sets,
    comparing it with the view rebuilt from scratch at every timestamp."""
    full = graph.view(1)
    kept = [
        _FragmentView(full, f.owned_vertices, anchor_balls(full, f.owned_vertices, specs))
        for f in frags
    ]
    prev = [fragment_view_from_scratch(graph.view(1), f.owned_vertices, specs) for f in frags]
    for fv, want, frag in zip(kept, prev, frags):
        assert_same_view(fv, want, full)
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
            assert flips == view_delta(prev[i], want)[0]
            assert_same_view(kept[i], want, full)
            assert kept[i].shipped == len(cross_edges(want, owned) - cross_edges(prev[i], owned))
            assert kept[i].attr_units == sum(
                1 for vid, _ in net if vid in prev[i].types and vid in want.types
            )
            prev[i] = want


@pytest.mark.parametrize("seed", range(80))
def test_kept_views_equal_views_from_scratch(seed):
    rng = random.Random(seed)
    graph = churned_graph(rng)
    labels = TYPE_POOL[:3] + ["_"]
    specs = sorted({(rng.choice(labels), rng.randint(0, 3)) for _ in range(rng.randint(1, 4))})
    check_kept_views(graph, make_fragments(graph, rng.randint(1, 4), seed), specs)


def shortcut_churn(rng, graph, t):
    """A change set for t that, around a random vertex c, deletes the first
    edge of a shortest path to a vertex u three or more hops away and inserts
    a shortcut from c to another vertex w two or more hops away, plus a few
    random flips and attribute writes."""
    view = graph.view(graph.T)
    vids = sorted(graph.vertices)
    live = set(view.edges)
    changes = []
    c = rng.choice(vids)
    hops = {}
    ball_vertices(view, c, 5, hops)
    far = sorted(v for v, h in hops.items() if h >= 3)
    if far:
        # walk back from u to c along hop levels; delete the step out of c
        u = rng.choice(far)
        while hops[u] > 1:
            u = min(o for o in neighbors(view, u) if hops.get(o) == hops[u] - 1)
        first = sorted(
            e for e in live if {e[0], e[2]} == {c, u}
        )
        for e in first:
            changes.append(EdgeDelete(*e))
            live.discard(e)
    near = sorted(v for v, h in hops.items() if h >= 2)
    if near:
        e = (c, rng.choice(LABEL_POOL), rng.choice(near))
        if rng.random() < 0.5:
            e = (e[2], e[1], e[0])
        if e not in live:
            changes.append(EdgeInsert(*e))
            live.add(e)
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5 and live:
            e = rng.choice(sorted(live))
            changes.append(EdgeDelete(*e))
            live.discard(e)
        else:
            e = (rng.choice(vids), rng.choice(LABEL_POOL), rng.choice(vids))
            if e not in live:
                changes.append(EdgeInsert(*e))
                live.add(e)
    changes.append(AttrSet(rng.choice(vids), rng.choice(ATTR_POOL), rng.choice(VALUE_POOL)))
    return ChangeSet(t=t, changes=tuple(changes))


@pytest.mark.parametrize("seed", range(30))
def test_kept_views_with_wide_balls_under_shortcuts(seed):
    """Sparse graphs and balls of radius 3 to 5: change sets cut a ball's
    shortest path at its first edge and add a shortcut, so hop maps lose,
    regain and shorten distances in one step."""
    rng = random.Random(5000 + seed)
    n = rng.randint(8, 20)
    graph = random_graph(rng, n, rng.randint(n - 2, n + 6), n_types=2)
    for t in range(2, rng.randint(4, 9) + 1):
        graph = apply_changes(graph, shortcut_churn(rng, graph, t))
    labels = TYPE_POOL[:2] + ["_"]
    specs = sorted({(rng.choice(labels), rng.randint(3, 5)) for _ in range(rng.randint(1, 3))})
    check_kept_views(graph, make_fragments(graph, rng.randint(1, 3), seed), specs)


def test_ball_loses_its_only_shortest_path_and_gains_a_shortcut():
    """A path c-a-b-x-y-z and a radius-3 ball around c.  One change set cuts
    c-a, the only path to a, b and x, and adds the shortcut c-x: a falls
    back to three hops, b keeps two over a new parent, x comes to one, y and
    z enter.  Later sets move the shortcut, cut c off and restore c-a."""
    types = {v: "T" for v in "cabxyzw"}
    path = [("c", "l", "a"), ("a", "l", "b"), ("b", "l", "x"), ("x", "l", "y"), ("y", "l", "z")]
    g = build_graph(types, path + [("w", "l", "z")])
    g = extend(g, [EdgeDelete("c", "l", "a"), EdgeInsert("c", "l", "x")])
    g = extend(g, [EdgeDelete("c", "l", "x"), EdgeInsert("b", "l", "c")])
    g = extend(g, [EdgeDelete("b", "l", "c")])
    g = extend(g, [EdgeInsert("c", "l", "a"), EdgeInsert("c", "l", "c")])
    frags = [
        Fragment(worker_id=1, owned_vertices=frozenset({"c"})),
        Fragment(worker_id=2, owned_vertices=frozenset("abxyzw")),
    ]
    check_kept_views(g, frags, [("T", 3)])
    full = g.view(1)
    owned = frags[0].owned_vertices
    fv = _FragmentView(full, owned, anchor_balls(full, owned, [("T", 3)]))
    seen = []
    for t in range(2, g.T + 1):
        fv.advance(full, advance_view(full, g.changesets[t - 2]), changed_attrs(g, t))
        seen.append(dict(sorted(fv.balls[("c", 3)].items())))
    assert seen == [
        {"a": 3, "b": 2, "c": 0, "x": 1, "y": 2, "z": 3},
        {"a": 2, "b": 1, "c": 0, "x": 2, "y": 3},
        {"c": 0},
        {"a": 1, "b": 2, "c": 0, "x": 3},
    ]


def test_single_node_balls_hold_only_their_center():
    """Radius-0 balls (single-node patterns) never grow, whatever the edges
    around them do; self-loops on owned centers stay in the view."""
    rng = random.Random(7)
    graph = churned_graph(rng, max_vertices=6, max_T=10)
    frag = make_fragments(graph, 2, 3)[0]
    full = graph.view(1)
    owned = frag.owned_vertices
    fv = _FragmentView(full, owned, anchor_balls(full, owned, [("_", 0)]))
    for t in range(2, graph.T + 1):
        fv.advance(full, advance_view(full, graph.changesets[t - 2]), changed_attrs(graph, t))
        assert all(ball.keys() == {center} for (center, _), ball in fv.balls.items())
        assert fv.vertices == set(frag.owned_vertices)
        want = fragment_view_from_scratch(graph.view(t), frag.owned_vertices, [("_", 0)])
        assert_same_view(fv, want, full)


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

    def checked(self):
        found = topological_matches(self)
        assert found == sorted(set(found))
        bindings = {MatchBinding(self.view.t, items) for items in found}
        assert bindings == match_snapshot(self.pattern, self.view)
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


def reference_costs(graph, rules, frags):
    """Per superstep: each job's size-model time and each fragment's
    shipped edges, as the engine measured them when every job kept its own
    IncrementalMatcher.  A fragment's view is rebuilt from scratch at every
    t; its jobs' matchers read one view that takes that view's edge flips
    (all vertices present, so no vertex ever enters), and a job owns the
    matches whose anchor its fragment owns."""
    rules = normalize_all(rules)
    anchors = {s.name: s.pattern.radius_center()[0] for s in rules}
    specs = sorted({(s.pattern.label_of(anchors[s.name]), s.pattern.diameter) for s in rules})
    owners = owner_map(frags)
    types = {vid: v.type_label for vid, v in graph.vertices.items()}
    views, matchers, prev = {}, {}, {}
    out = []
    for t in range(1, graph.T + 1):
        full = graph.view(t)
        times, shipped = {}, {}
        for frag in frags:
            r, owned = frag.worker_id, frag.owned_vertices
            want = fragment_view_from_scratch(full, owned, specs)
            if t == 1:
                flips, units = [], 0
                views[r] = GraphView(1, types, want.edges)
                shipped[r] = len(cross_edges(want, owned))
            else:
                flips = view_delta(prev[r], want)[0]
                for e in flips:
                    (views[r].remove_edge if e in views[r].edges else views[r].add_edge)(e)
                shipped[r] = len(cross_edges(want, owned) - cross_edges(prev[r], owned))
                units = sum(
                    1 for vid, _ in net_changed_attrs(graph, t)
                    if vid in prev[r].types and vid in want.types
                )
            prev[r] = want
            for sigma in rules:
                name = f"{sigma.name}@f{r}"
                if t == 1:
                    matchers[name] = IncrementalMatcher(sigma.pattern, views[r])
                matcher = matchers[name]
                searches = matcher.iso_searches
                for e in flips:
                    matcher.apply(e)
                searches = matcher.iso_searches - searches
                mine = sum(
                    1 for items in matcher.topological_matches()
                    if owners[dict(items)[anchors[sigma.name]]] == r
                )
                times[name] = 1.0 + len(flips) + units + 2.0 * searches + mine
        out.append((times, shipped))
    return out


@pytest.mark.parametrize("seed", range(12))
def test_size_model_equals_per_job_matchers(seed):
    """Every superstep's size-model job times, before the time hook, and
    shipped edges equal the per-job-matcher reference, for 1-4 workers with
    rebalances forced at even timestamps."""
    rng = random.Random(7000 + seed)
    graph = churned_graph(rng, max_vertices=14)
    rules = [exotic_rule(rng, "a"), random_tgfd(rng, "b", max_edges=3, T=graph.T)]
    rules.append(SINGLE_VERTEX_RULE)
    n = 1 + seed % 4
    measured = {}

    def spike(t, name, size):
        measured.setdefault(t, {})[name] = size
        return size + (1000.0 if t % 2 == 0 and name.endswith("@f1") else 0.0)

    result = run_parallel(graph, rules, n, seed=seed, bounds=(0.0, 500.0), time_hook=spike)
    frags = make_fragments(graph, n, seed)
    want = reference_costs(graph, rules, frags)
    assert [measured[t] for t in sorted(measured)] == [times for times, _ in want]
    assert [s.shipped_edges for s in result.report.supersteps] == [shipped for _, shipped in want]
    if graph.T > 2:
        assert result.report.rebalances >= 1

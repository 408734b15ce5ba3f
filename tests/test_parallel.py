import itertools
import os
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tgfd.errors import InvalidOption, JobOutOfBounds
from tgfd.graph import (
    AttrDelete,
    AttrSet,
    EdgeDelete,
    EdgeInsert,
    Fragment,
    apply_changes,
)
from tgfd import parallel
from tgfd.matcher import match_snapshot
from tgfd.model import (
    WILDCARD,
    ConstantLiteral,
    Delta,
    GraphPattern,
    MatchBinding,
    Tgfd,
    VariableLiteral,
    normalize,
    normalize_all,
)
from tgfd.detection import detect_sequential
from tgfd.parallel import (
    MAX_WORKERS,
    _greedy_pack,
    Job,
    RuleShape,
    anchor_balls,
    build_cardinality_model,
    build_jobs,
    gen_assign,
    make_fragments,
    owner_map,
    run_parallel,
)

from util import (
    reference_gen_assign,
    reference_greedy_pack,
    LABEL_POOL,
    VALUE_POOL,
    build_graph,
    canonical_pairs,
    engine_violation_keys,
    exotic_pattern,
    extend,
    oracle_violations,
    random_changes,
    random_graph,
    random_tgfd,
)


# ---------------------------------------------------------------------------
# job sizes and ship costs, against counts from scratch
# ---------------------------------------------------------------------------


def brute_job(graph, sigma, owned, t=1):
    """(size, ship_in, ship_all) of the job running sigma on the fragment
    that owns `owned`, counted from scratch.  The anchor is the pattern's
    radius_center(); its candidates are the owned vertices its label
    admits that meet its X constants.  The size is the candidate count
    times, per edge of a BFS tree of the pattern from the anchor (each
    other variable, in vars order, joined to a variable one hop nearer by
    the first such pattern edge), that edge's owned data edges per owned
    vertex its source admits; the ship costs count the edges inside each
    candidate's radius ball of the full snapshot, ship_in only those with
    an endpoint off the fragment."""
    snap, edges = graph.snapshot(t), graph.view(t).edges
    types = {vid: v.type_label for vid, v in graph.vertices.items()}
    pattern = sigma.pattern

    def admits(var, vid):
        return pattern.label_of(var) in (WILDCARD, types[vid])

    anchor, radius = pattern.radius_center()
    hops, level = {anchor: 0}, 0
    while len(hops) < len(pattern.vars):
        for src, _, dst in pattern.edges:
            for near, far in ((src, dst), (dst, src)):
                if hops.get(near) == level and far not in hops:
                    hops[far] = level + 1
        level += 1
    owned_edges = [e for e in edges if e[0] in owned and e[2] in owned]
    candidates = [
        v for v in sorted(owned)
        if admits(anchor, v)
        and all(
            snap.attr(v, lit.attr) == lit.value
            for lit in sigma.x_literals
            if isinstance(lit, ConstantLiteral) and lit.var == anchor
        )
    ]
    size = float(len(candidates))
    for var in pattern.vars:
        if var == anchor:
            continue
        src, elabel, dst = next(
            e for e in pattern.edges
            if var in (e[0], e[2]) and hops[e[2] if e[0] == var else e[0]] == hops[var] - 1
        )
        sources = [v for v in owned if admits(src, v)]
        hits = [
            e for e in owned_edges if e[1] == elabel and admits(src, e[0]) and admits(dst, e[2])
        ]
        size *= len(hits) / len(sources) if sources else 0.0
    ship_in = ship_all = 0
    for center in candidates:
        ball = {center}
        for _ in range(radius):
            ball = ball | {
                e[2] if e[0] in ball else e[0]
                for e in edges if e[0] in ball or e[2] in ball
            }
        inside = [e for e in edges if e[0] in ball and e[2] in ball]
        ship_all += len(inside)
        ship_in += sum(1 for e in inside if e[0] not in owned or e[2] not in owned)
    return size, ship_in, ship_all


def plain_rule(pattern, name="r"):
    var = pattern.vars[0]
    return Tgfd(
        name, pattern, Delta(0, 1),
        [VariableLiteral(var, "name", var, "name")],
        [VariableLiteral(var, "code", var, "code")],
    )


def jobs_at(graph, rules, frags, t=1):
    """build_jobs at t, reading the anchor balls of the full view there,
    which equal the balls the kept fragment views hold at t
    (tests/test_fragment_views.py)."""
    shapes = [RuleShape.of(sigma) for sigma in normalize_all(rules)]
    full = graph.view(t)
    specs = [shape.spec for shape in shapes]
    balls = [anchor_balls(full, frag.owned_vertices, specs) for frag in frags]
    return build_jobs(graph, shapes, frags, full, balls)


def whole_graph_job(graph, sigma):
    [job] = jobs_at(graph, [sigma], [Fragment(1, frozenset(graph.vertices))])
    return job


def assert_job_matches_brute(graph, sigma, job, owned, t=1):
    size, ship_in, ship_all = brute_job(graph, sigma, owned, t)
    assert job.size == pytest.approx(size)
    assert (job.ship_in, job.ship_all) == (ship_in, ship_all)


def test_estimate_single_edge_unit_fanout():
    # every source has exactly one matching edge -> size = source count
    g = build_graph(
        {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B", "b3": "B"},
        [("a1", "l", "b1"), ("a2", "l", "b2"), ("a3", "l", "b3")],
    )
    sigma = plain_rule(GraphPattern([("x", "A"), ("y", "B")], [("x", "l", "y")]))
    job = whole_graph_job(g, sigma)
    assert job.size == pytest.approx(3.0)
    assert_job_matches_brute(g, sigma, job, frozenset(g.vertices))


def test_estimate_two_edge_chain_product():
    # fan-outs 2 then 3 over a chain with 4 middle candidates -> 24
    vertices = {"r0": "R", "r1": "R"}
    edges = []
    for i in range(4):
        vertices[f"m{i}"] = "M"
    for i in range(2):  # each R reaches two Ms: fan-out(R->M) = 2
        edges.append((f"r{i}", "a", f"m{2 * i}"))
        edges.append((f"r{i}", "a", f"m{2 * i + 1}"))
    for i in range(4):  # each M reaches three Ss: fan-out(M->S) = 3
        for j in range(3):
            vertices[f"s{i}{j}"] = "S"
            edges.append((f"m{i}", "b", f"s{i}{j}"))
    g = build_graph(vertices, edges)
    chain = GraphPattern(
        [("x", "R"), ("y", "M"), ("z", "S")], [("x", "a", "y"), ("y", "b", "z")]
    )
    assert chain.radius_center() == ("y", 1)  # middle of the chain, 4 candidates
    sigma = plain_rule(chain)
    job = whole_graph_job(g, sigma)
    assert job.size == pytest.approx(4 * 2 * 3)
    assert_job_matches_brute(g, sigma, job, frozenset(g.vertices))


def star_instance():
    """Two hubs, each with two l-edges to As and three m-edges to Bs, and
    the star pattern over them: 2 x 2 x 3 = 12 matches."""
    vertices = {"h1": "H", "h2": "H"}
    edges = []
    for h in (1, 2):
        for i in range(2):
            vertices[f"a{h}{i}"] = "A"
            edges.append((f"h{h}", "l", f"a{h}{i}"))
        for i in range(3):
            vertices[f"b{h}{i}"] = "B"
            edges.append((f"h{h}", "m", f"b{h}{i}"))
    g = build_graph(vertices, edges, {"h1": {"rank": "top", "code": "c"}, "h2": {}})
    star = GraphPattern([("x", "H"), ("y", "A"), ("z", "B")], [("x", "l", "y"), ("x", "m", "z")])
    return g, star


def test_estimate_star_multiplies_every_arm():
    # anchor x (eccentricity 1), 2 hub candidates, fan-outs 2 and 3: the
    # size is 2 * 2 * 3 = 12, the exact match count.  Each hub's radius-1
    # ball holds its 5 edges, so ship_all = 2 * 5.  (Per directed path,
    # the smallest estimate was 2 * 2 = 4, and each hub's ball was paid
    # once per arm: 20.)
    g, star = star_instance()
    assert star.radius_center() == ("x", 1)
    sigma = plain_rule(star)
    job = whole_graph_job(g, sigma)
    assert job.size == pytest.approx(12.0)
    assert (job.ship_in, job.ship_all) == (0, 10)
    assert_job_matches_brute(g, sigma, job, frozenset(g.vertices))


def test_estimate_filters_the_anchor_by_x_constants_only():
    # only h1 has rank "top" and code "c": an X constant on the anchor
    # halves the star's job, a Y constant there (which matches violate
    # rather than leave) keeps both hubs
    g, star = star_instance()
    by_x = Tgfd("x", star, Delta(0, 1), [ConstantLiteral("x", "rank", "top")],
                [VariableLiteral("y", "code", "y", "code")])
    by_y = Tgfd("y", star, Delta(0, 1), [VariableLiteral("x", "name", "x", "name")],
                [ConstantLiteral("x", "code", "c")])
    whole = frozenset(g.vertices)
    for sigma, size, ship_all in ((by_x, 6.0, 5), (by_y, 12.0, 10)):
        job = whole_graph_job(g, sigma)
        assert (job.size, job.ship_all) == (pytest.approx(size), ship_all), sigma.name
        assert_job_matches_brute(g, sigma, job, whole)


def test_estimate_cycle_follows_the_bfs_tree_from_the_anchor():
    # x:A -> y:B -> z:C -> x over 2 As, 4 Bs, 2 Cs; every vertex lies on
    # one of the 4 matching triangles a -> b -> c -> a.  Anchor x; its BFS
    # tree keeps x -> y (fan-out A->B 2) and z -> x (fan-out C->A 1), not
    # y -> z: size 2 * 2 * 1 = 4.  Each a's radius-1 ball holds its two
    # out-edges, the two b -> c edges and c -> a: ship_all = 2 * 5.  (The
    # path cover y-centred x->y->z and z-centred y->z->x gave
    # min(4 * 2 * 1, 2 * 1 * 1) = 2.)
    vertices = {"a1": "A", "a2": "A", "c1": "C", "c2": "C"}
    edges = [("c1", "l", "a1"), ("c2", "l", "a2")]
    for i in range(4):
        a, c = ("a1", "c1") if i < 2 else ("a2", "c2")
        vertices[f"b{i}"] = "B"
        edges += [(a, "l", f"b{i}"), (f"b{i}", "l", c)]
    g = build_graph(vertices, edges)
    cycle = GraphPattern(
        [("x", "A"), ("y", "B"), ("z", "C")], [("x", "l", "y"), ("y", "l", "z"), ("z", "l", "x")]
    )
    assert cycle.radius_center() == ("x", 1)
    sigma = plain_rule(cycle)
    job = whole_graph_job(g, sigma)
    assert len(match_snapshot(cycle, g.view(1))) == 4
    assert job.size == pytest.approx(4.0)
    assert (job.ship_in, job.ship_all) == (0, 10)
    assert_job_matches_brute(g, sigma, job, frozenset(g.vertices))
    # split: fragment 1 owns a1 and its triangles' b and c; its ball of a1
    # is all owned, fragment 2's ball of a2 likewise
    frags = [
        Fragment(1, frozenset({"a1", "b0", "b1", "c1"})),
        Fragment(2, frozenset({"a2", "b2", "b3", "c2"})),
    ]
    for job, frag in zip(jobs_at(g, [sigma], frags), frags):
        assert (job.size, job.ship_in, job.ship_all) == (pytest.approx(2.0), 0, 5)
        assert_job_matches_brute(g, sigma, job, frag.owned_vertices)


def test_mean_fanout_with_wildcard_target_counts_sources_once():
    # two A vertices with three l-edges out of them, to two target types:
    # 3 edges per 2 sources, however many signatures the wildcard covers
    g = build_graph(
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C"},
        [("a1", "l", "b1"), ("a1", "l", "c1"), ("a2", "l", "b2")],
    )
    model = build_cardinality_model(g.view(1), frozenset(g.vertices))
    assert model.mean_fanout("A", "l", WILDCARD) == pytest.approx(1.5)
    assert model.mean_fanout("A", "l", "B") == pytest.approx(1.0)
    assert model.mean_fanout(WILDCARD, "l", "B") == pytest.approx(2 / 5)
    assert model.mean_fanout(WILDCARD, "l", WILDCARD) == pytest.approx(3 / 5)


def test_estimate_within_factor_four_on_regular_graphs():
    hits = 0
    trials = 100
    sigma = plain_rule(GraphPattern([("x", "A"), ("y", "B")], [("x", "l", "y")]))
    for seed in range(trials):
        rng = random.Random(seed)
        n = 12
        vertices = {}
        for i in range(n):
            vertices[f"a{i}"] = "A"
            vertices[f"b{i}"] = "B"
        edges = set()
        # every A gets exactly k out-edges to distinct Bs
        k = rng.randint(1, 3)
        for i in range(n):
            for b in rng.sample(range(n), k):
                edges.add((f"a{i}", "l", f"b{b}"))
        g = build_graph(vertices, sorted(edges))
        est = whole_graph_job(g, sigma).size
        exact = len(edges)
        if exact and est and max(est / exact, exact / est) <= 4.0:
            hits += 1
    assert hits >= 90


def test_ccost_zero_when_ball_owned():
    g = build_graph(
        {"a": "A", "b": "B", "c": "C"}, [("a", "l", "b"), ("b", "l", "c")]
    )
    # the chain's center is y (vertex b); its radius-1 ball holds both edges
    sigma = plain_rule(
        GraphPattern([("x", "A"), ("y", "B"), ("z", "C")], [("x", "l", "y"), ("y", "l", "z")])
    )
    job = whole_graph_job(g, sigma)
    assert (job.ship_in, job.ship_all) == (0, 2)
    assert_job_matches_brute(g, sigma, job, frozenset(g.vertices))


def test_ccost_cut_edge_counts_for_both_sides():
    g = build_graph({"a": "N", "b": "N"}, [("a", "l", "b")])
    sigma = plain_rule(GraphPattern([("x", "N"), ("y", "N")], [("x", "l", "y")]))
    frags = [Fragment(1, frozenset({"a"})), Fragment(2, frozenset({"b"}))]
    jobs = jobs_at(g, [sigma], frags)
    assert [(j.home, j.ship_in, j.ship_all) for j in jobs] == [(1, 1, 1), (2, 1, 1)]


def exotic_rule(rng, name):
    """A rule over an exotic pattern (cycles, diamonds, parallel labels,
    wildcard hubs, self-loops) with an X constant and a constant Y, each
    on a random variable, so sometimes on the anchor."""
    pattern = exotic_pattern(rng)
    var = lambda: rng.choice(pattern.vars)
    return Tgfd(
        name, pattern, Delta(0, 1),
        [ConstantLiteral(var(), "rank", rng.choice(VALUE_POOL))],
        [ConstantLiteral(var(), "code", rng.choice(VALUE_POOL))],
    )


def test_ccost_matches_direct_count_random():
    for seed in range(10):
        rng = random.Random(seed)
        g = random_graph(rng, 16, 30)
        g = apply_changes(g, random_changes(rng, g, 2, 8))
        rules = [random_tgfd(rng, f"r{i}", max_edges=4) for i in range(3)]
        rules += [exotic_rule(rng, f"e{i}") for i in range(3)]
        frags = make_fragments(g, 3, seed=seed)
        for t in (1, 2):
            jobs = {j.name: j for j in jobs_at(g, rules, frags, t)}
            assert len(jobs) == len(rules) * len(frags)
            for sigma in rules:
                for frag in frags:
                    job = jobs[f"{sigma.name}@f{frag.worker_id}"]
                    assert_job_matches_brute(g, sigma, job, frag.owned_vertices, t)


def anchor_constant_rules(rng):
    """Rules whose anchor carries an X constant: a wildcard-anchored star
    (x: _ knows a person and is in a city) and a typed chain anchored on
    its middle, plus two exotic rules."""
    star = GraphPattern(
        [("x", WILDCARD), ("y", "person"), ("z", "city")], [("x", "knows", "y"), ("x", "in", "z")]
    )
    chain = GraphPattern(
        [("x", "person"), ("y", "team"), ("z", "person")],
        [("x", "plays", "y"), ("z", "plays", "y")],
    )
    rules = [
        Tgfd(name, pattern, Delta(0, 2),
             [ConstantLiteral(pattern.radius_center()[0], "rank", rng.choice(VALUE_POOL))],
             [VariableLiteral("y", "code", "y", "code")])
        for name, pattern in (("star", star), ("chain", chain))
    ]
    assert [sigma.pattern.radius_center()[0] for sigma in rules] == ["x", "y"]
    return rules + [exotic_rule(rng, f"e{i}") for i in range(2)]


@pytest.mark.parametrize("seed", range(6))
def test_rebalanced_jobs_equal_counts_from_scratch(seed, monkeypatch):
    """A rebalance forced at every t rebuilds the jobs from the kept,
    repaired balls; each rebuilt job equals brute_job at that t, and
    build_jobs searches no ball, in the graph or in a pattern."""
    import tgfd.graph
    import tgfd.model
    import tgfd.parallel

    rng = random.Random(300 + seed)
    g = random_graph(rng, 18, 40)
    for t in range(2, 6):
        g = apply_changes(g, random_changes(rng, g, t, 8))
    rules = anchor_constant_rules(rng)
    n = 1 + seed % 3
    built, inside = [], []

    def no_search(*args, **kwargs):
        assert not inside, "build_jobs searched a ball"
        return searched(*args, **kwargs)

    searched = tgfd.graph.ball_vertices
    for module in (tgfd.graph, tgfd.model, tgfd.parallel):
        monkeypatch.setattr(module, "ball_vertices", no_search)
    estimate = tgfd.parallel.build_jobs

    def recorded(graph, shapes, fragments, full, balls):
        inside.append(True)
        try:
            jobs = estimate(graph, shapes, fragments, full, balls)
        finally:
            inside.pop()
        built.append((full.t, jobs))
        return jobs

    monkeypatch.setattr(tgfd.parallel, "build_jobs", recorded)
    spike = lambda t, name, size: 2e9 if name.endswith("@f1") else size
    result = run_parallel(g, rules, n, seed=seed, bounds=(0.0, 1e9), time_hook=spike)
    assert result.report.rebalances == g.T - 1
    assert [t for t, _ in built] == list(range(1, g.T))
    frags = {f.worker_id: f.owned_vertices for f in make_fragments(g, n, seed)}
    by_name = {sigma.name: sigma for sigma in rules}
    for t, jobs in built:
        assert len(jobs) == len(rules) * n
        for job in jobs:
            assert_job_matches_brute(g, by_name[job.tgfd], job, frags[job.home], t)


def test_balls_are_searched_once_per_anchor_candidate(monkeypatch):
    """Over a whole run with rebalances, the engine searches one ball per
    (fragment, owned anchor candidate, ball radius) and no other."""
    import tgfd.parallel

    rng = random.Random(41)
    g = random_graph(rng, 20, 45)
    for t in range(2, 5):
        g = apply_changes(g, random_changes(rng, g, t, 8))
    rules = anchor_constant_rules(rng)
    calls = []
    search = tgfd.parallel.ball_vertices

    def counted(view, center, d, hops=None):
        calls.append((center, d))
        return search(view, center, d, hops)

    monkeypatch.setattr(tgfd.parallel, "ball_vertices", counted)
    spike = lambda t, name, size: 2e9 if t > 1 else size
    result = run_parallel(g, rules, 3, seed=2, bounds=(0.0, 1e9), time_hook=spike)
    assert result.report.rebalances == g.T - 2
    types = {vid: v.type_label for vid, v in g.vertices.items()}
    want = []
    for frag in make_fragments(g, 3, 2):
        specs = {
            (sigma.pattern.label_of(sigma.pattern.radius_center()[0]), sigma.pattern.diameter)
            for sigma in rules
        }
        want += list({
            (vid, radius)
            for label, radius in specs
            for vid in frag.owned_vertices
            if label in (WILDCARD, types[vid])
        })
    assert sorted(calls) == sorted(want)


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def abstract_jobs(sizes, ccosts=None):
    ccosts = ccosts or [0] * len(sizes)
    return [
        Job(tgfd=f"j{i}", home=1, size=s, ship_in=c, ship_all=c)
        for i, (s, c) in enumerate(zip(sizes, ccosts))
    ]


def brute_force_makespan(sizes, n):
    best = float("inf")
    for combo in itertools.product(range(n), repeat=len(sizes)):
        loads = [0.0] * n
        for s, w in zip(sizes, combo):
            loads[w] += s
        best = min(best, max(loads))
    return best


def test_gen_assign_single_worker():
    jobs = abstract_jobs([5, 4, 3])
    a = gen_assign(jobs, 1, (0, 100))
    assert set(a.mapping.values()) == {1}
    assert a.makespan == pytest.approx(12)


def test_gen_assign_known_optimum():
    jobs = abstract_jobs([5, 4, 3, 3, 3])
    a = gen_assign(jobs, 2, (0, 100))
    assert a.makespan == pytest.approx(9)


def test_gen_assign_out_of_bounds():
    jobs = abstract_jobs([5, 40])
    with pytest.raises(JobOutOfBounds):
        gen_assign(jobs, 2, (0, 10))
    with pytest.raises(JobOutOfBounds):
        gen_assign(jobs, 2, (6, 100))


@pytest.mark.parametrize(
    "bounds, shown",
    [((5, 1), "[5, 1]"), ((float("nan"), 100), "[nan, 100]"), ((0, float("nan")), "[0, nan]")],
)
def test_gen_assign_rejects_bad_bounds_before_any_job(bounds, shown):
    # the 40-size job lies outside every one of these bounds, yet the
    # bounds themselves are blamed
    for jobs in ([], abstract_jobs([5, 40])):
        with pytest.raises(InvalidOption, match=re.escape(f"job-time bounds {shown} must be")):
            gen_assign(jobs, 2, bounds)


def test_gen_assign_two_approximation_random():
    for seed in range(50):
        rng = random.Random(seed)
        k = rng.randint(1, 8)
        sizes = [rng.randint(1, 20) for _ in range(k)]
        jobs = abstract_jobs(sizes, [rng.randint(0, 5) for _ in range(k)])
        a = gen_assign(jobs, 3, (0, 100))
        opt = brute_force_makespan(sizes, 3)
        assert a.makespan <= 2 * opt + 1e-9, f"seed={seed}"


def test_gen_assign_single_job_exact():
    jobs = abstract_jobs([7])
    a = gen_assign(jobs, 3, (0, 100))
    assert a.makespan == pytest.approx(7)


def test_gen_assign_prefers_cheap_worker():
    # two equal jobs, two workers: each job should run at home (zero cost)
    j1 = Job(tgfd="r", home=1, size=5, ship_in=0, ship_all=10)
    j2 = Job(tgfd="r", home=2, size=5, ship_in=0, ship_all=10)
    a = gen_assign([j1, j2], 2, (0, 100))
    assert a.mapping[j1.name] == 1
    assert a.mapping[j2.name] == 2
    assert a.total_cost == 0


# sizes drawn from a few values, some of whose sums tie only up to rounding
job_sizes = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 1 / 3, 2.5, 7.0]) | st.floats(0.0, 50.0)


@st.composite
def job_sets(draw):
    """(jobs, n): n <= 64 workers and jobs with homes in 0..n + 1, so that
    some home lies outside the workers, and ship costs in either order."""
    n = draw(st.integers(1, 64))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n + 1), job_sizes, st.integers(0, 4), st.integers(0, 4)),
        max_size=24,
    ))
    return [Job(f"j{i}", home, size, ship_in, ship_all)
            for i, (home, size, ship_in, ship_all) in enumerate(rows)], n


@settings(max_examples=150, deadline=None)
@given(drawn=job_sets(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@example(drawn=([Job("a", 1, 0.1, 0, 1), Job("b", 2, 0.2, 0, 1), Job("c", 2, 0.3, 0, 1)], 2),
         fractions=[0.5])  # 0.1 + 0.2 > 0.3 in floating point
@example(drawn=([Job("a", 2, 1.0, 3, 1), Job("b", 2, 1.0, 3, 1), Job("c", 1, 1.0, 3, 1)], 3),
         fractions=[0.34])  # home costs more than elsewhere
@example(drawn=([Job("a", 1, 0.1, 1, 0)], 1), fractions=[1.0])  # ... and is the last worker
def test_gen_assign_maps_every_job_as_the_reference_packer(drawn, fractions):
    """The packer behind gen_assign picks, for each job, the worker the
    reference (every fitting worker sorted by (cost, id)) picks, at every
    cap, ties under floating-point rounding included, and caps at which a
    job fills a worker exactly to the limit (cap + 1e-9); so gen_assign
    returns the reference's assignment."""
    jobs, n = drawn
    order = sorted(jobs, key=lambda j: (-j.size, j.ship_in, j.name))
    total = sum(j.size for j in jobs)
    exact = [j.size - 1e-9 for j in order[:2]]
    for cap in [total * fraction for fraction in fractions] + exact:
        assert _greedy_pack(order, n, cap) == reference_greedy_pack(jobs, n, cap)
    assert gen_assign(jobs, n, (0, 100)) == reference_gen_assign(jobs, n, (0, 100))


# ---------------------------------------------------------------------------
# the parallel run
# ---------------------------------------------------------------------------


def simple_rule(name="r", delta=Delta(0, 2)):
    return Tgfd(
        name,
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        delta,
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )


def test_parallel_single_worker_equals_sequential():
    rng = random.Random(0)
    g = random_graph(rng, 20, 40)
    for t in range(2, 5):
        g = apply_changes(g, random_changes(rng, g, t, 6))
    rules = [random_tgfd(random.Random(1), "r0", max_edges=2, T=4)]
    seq_list = detect_sequential(g, rules).all_violations()
    seq = engine_violation_keys(seq_list)
    par = run_parallel(g, rules, n=1, bounds=(0.0, float("inf")))
    assert engine_violation_keys(par.all_violations()) == seq
    assert par.all_violations() == seq_list
    assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list)


@pytest.mark.parametrize("n", [2, 4])
def test_parallel_equals_sequential_small(n):
    for seed in range(6):
        rng = random.Random(seed)
        g = random_graph(rng, 18, 36)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 5))
        rules = [random_tgfd(random.Random(seed + 50), "r0", max_edges=3, T=4)]
        seq_list = detect_sequential(g, rules).all_violations()
        seq = engine_violation_keys(seq_list)
        par = run_parallel(g, rules, n=n, seed=seed, bounds=(0.0, float("inf")))
        assert engine_violation_keys(par.all_violations()) == seq, f"seed={seed}"
        assert par.all_violations() == seq_list, f"seed={seed}"
        assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list), f"seed={seed}"


def test_multi_literal_consequent_built_through_the_api():
    """A rule built with Tgfd, not parsed, whose Y mixes a constant, a
    self-form and a general-form literal: both engines split it into its
    normal form at their boundary, named r#1..r#3 in literal order, and
    report exactly the union of the parts' oracle violations."""
    y = [
        ConstantLiteral("y", "code", "a"),
        VariableLiteral("x", "code", "x", "code"),
        VariableLiteral("x", "rank", "y", "rank"),
    ]
    sigma = Tgfd(
        "r",
        GraphPattern([("x", "person"), ("y", "city")], [("x", "knows", "y")]),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        y,
    )
    parts = normalize(sigma)
    assert [(part.name, part.y_literal) for part in parts] == [
        ("r#1", y[0]), ("r#2", y[1]), ("r#3", y[2])
    ]
    hit = set()
    for seed in range(4):
        rng = random.Random(800 + seed)
        g = random_graph(rng, 16, 48, n_types=2)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 6))
        want = set()
        for part in parts:
            found = oracle_violations(g, part)
            if found:
                hit.add(part.name)
            want |= found
        seq = detect_sequential(g, [sigma])
        assert sorted(seq.violations) == ["r#1", "r#2", "r#3"]
        assert engine_violation_keys(seq.all_violations()) == want, f"seed={seed}"
        for n in (1, 2, 3):
            par = run_parallel(g, [sigma], n=n, seed=seed, bounds=(0.0, float("inf")))
            assert par.all_violations() == seq.all_violations(), f"seed={seed} n={n}"
    assert hit == {"r#1", "r#2", "r#3"}


def test_parallel_equals_sequential_skewed_fragmentation_exotic_rules():
    from util import exotic_rule, skewed_fragments

    for seed in range(12):
        rng = random.Random(30_000 + seed)
        g = random_graph(rng, rng.randint(12, 30), rng.randint(25, 60))
        T = rng.randint(2, 6)
        for t in range(2, T + 1):
            g = apply_changes(g, random_changes(rng, g, t, rng.randint(4, 8), loops=2))
        rules = [exotic_rule(rng, f"r{i}") for i in range(rng.randint(1, 3))]
        seq_list = detect_sequential(g, rules).all_violations()
        seq = engine_violation_keys(seq_list)
        assert canonical_pairs(seq_list), f"seed={seed}"
        frags = skewed_fragments(g, 2, random.Random(seed))
        par = run_parallel(g, rules, n=2, fragments=frags, bounds=(0.0, float("inf")))
        assert engine_violation_keys(par.all_violations()) == seq, f"seed={seed}"
        assert par.all_violations() == seq_list, f"seed={seed}"
        assert canonical_pairs(par.all_violations()), f"seed={seed}"
        par5 = run_parallel(g, rules, n=5, seed=seed, bounds=(0.0, float("inf")))
        assert engine_violation_keys(par5.all_violations()) == seq, f"seed={seed}"
        assert par5.all_violations() == seq_list, f"seed={seed}"
        assert canonical_pairs(par5.all_violations()), f"seed={seed}"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parallel_equals_sequential_shaped_rules(n):
    from util import shaped_instance

    for seed in range(20):
        g, rules = shaped_instance(seed)
        seq_list = detect_sequential(g, rules).all_violations()
        seq = engine_violation_keys(seq_list)
        par = run_parallel(g, rules, n=n, seed=seed, bounds=(0.0, float("inf")))
        assert engine_violation_keys(par.all_violations()) == seq, f"seed={seed}"
        assert par.all_violations() == seq_list, f"seed={seed}"
        assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list), f"seed={seed}"


def test_parallel_equals_sequential_long_t():
    from util import shaped_instance

    for seed in range(3):
        g, rules = shaped_instance(seed, T=200, changes=3)
        seq = detect_sequential(g, rules).all_violations()
        par = run_parallel(g, rules, n=2, seed=seed, bounds=(0.0, float("inf")))
        assert par.all_violations() == seq, f"seed={seed}"
        assert canonical_pairs(seq), f"seed={seed}"


def test_parallel_single_node_pattern_more_workers_than_matches():
    rng = random.Random(77)
    g = random_graph(rng, 6, 10)
    for t in (2, 3):
        g = apply_changes(g, random_changes(rng, g, t, 3))
    from util import TYPE_POOL

    single = Tgfd(
        "lone",
        GraphPattern([("x", TYPE_POOL[0])], []),
        Delta(0, 2),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("x", "code", "x", "code")],
    )
    seq_list = detect_sequential(g, [single]).all_violations()
    seq = engine_violation_keys(seq_list)
    par = run_parallel(g, [single], n=8, seed=1, bounds=(0.0, float("inf")))
    assert engine_violation_keys(par.all_violations()) == seq
    assert par.all_violations() == seq_list
    assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list)


def test_pool_is_sized_by_the_fragments_that_own_vertices(monkeypatch):
    """n = 40 on 12 vertices: 28 fragments own no vertex, so the pool holds
    at most 12 threads, and the run still equals the sequential one.  A
    larger pool fails in its constructor, before any thread starts."""
    import tgfd.parallel as parallel

    sizes = []

    class Recording(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            assert max_workers is not None and max_workers <= 12
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
    rng = random.Random(5)
    g = random_graph(rng, 12, 30)
    for t in (2, 3):
        g = apply_changes(g, random_changes(rng, g, t, 4))
    rules = [simple_rule()]
    seq = detect_sequential(g, rules).all_violations()
    par = run_parallel(g, rules, n=40, seed=1)
    assert len(sizes) == 1 and sizes[0] <= 12
    assert seq and par.all_violations() == seq


def test_pool_is_capped_at_the_cores(monkeypatch):
    """Eight fragments own vertices, but a machine of two cores gets a pool
    of two threads, and the run still equals the sequential one.  The
    recording pool refuses a larger size before any thread starts."""
    import tgfd.parallel as parallel

    sizes = []

    class Recording(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            assert max_workers is not None and max_workers <= 2
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = random.Random(5)
    g = random_graph(rng, 12, 30)
    for t in (2, 3):
        g = apply_changes(g, random_changes(rng, g, t, 4))
    rules = [simple_rule()]
    seq = detect_sequential(g, rules).all_violations()
    assert all(f.owned_vertices for f in make_fragments(g, 8, 1))
    par = run_parallel(g, rules, n=8, seed=1)
    assert sizes == [2]
    assert seq and par.all_violations() == seq


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cross_checked_pairs_equal_a_brute_force_oracle(n):
    """The coordinator compares exactly the pairs of brute matches that lie
    in the interval, realize X's constants, agree on its self-form values
    and whose anchors have different owners, each once, earlier match
    first; a rule with a constant Y compares none."""
    from util import brute_matches_by_t, shaped_instance

    def x_class(graph, sigma, h):
        values = []
        for lit in sigma.x_literals:
            if isinstance(lit, ConstantLiteral):
                if graph.snapshot(h.t).attr(h.get(lit.var), lit.attr) != lit.value:
                    return None
            elif lit.is_self_form:
                value = graph.snapshot(h.t).attr(h.get(lit.var1), lit.attr1)
                if value is None:
                    return None
                values.append((str(lit), value))
        return sorted(values)

    compared = 0
    for seed in range(12):
        g, rules = shaped_instance(seed)
        result = run_parallel(g, rules, n=n, seed=seed, bounds=(0.0, float("inf")))
        owners = owner_map(make_fragments(g, n, seed))
        for sigma in normalize_all(rules):
            got = sorted(
                ((a.t, a.items), (b.t, b.items)) for a, b in result.report.cross_checked[sigma.name]
            )
            if isinstance(sigma.y_literal, ConstantLiteral):
                assert got == [], f"seed={seed}"
                continue
            anchor = sigma.pattern.radius_center()[0]
            matches = brute_matches_by_t(g, sigma.pattern)
            want = sorted(
                ((hi.t, hi.items), (hj.t, hj.items))
                for ti in range(1, g.T + 1)
                for tj in range(ti, g.T + 1)
                if sigma.delta.contains(tj - ti)
                for hi in matches[ti]
                for hj in matches[tj]
                if (ti, hi.items) < (tj, hj.items)
                and owners[hi.get(anchor)] != owners[hj.get(anchor)]
                and x_class(g, sigma, hi) is not None
                and x_class(g, sigma, hi) == x_class(g, sigma, hj)
            )
            assert got == want, f"seed={seed} rule={sigma.name}"
            compared += len(want)
    assert compared


def test_parallel_deterministic_report():
    rng = random.Random(2)
    g = random_graph(rng, 16, 30)
    for t in (2, 3):
        g = apply_changes(g, random_changes(rng, g, t, 5))
    rules = [simple_rule()]
    r1 = run_parallel(g, rules, n=3, seed=9, bounds=(0.0, float("inf")))
    r2 = run_parallel(g, rules, n=3, seed=9, bounds=(0.0, float("inf")))
    assert [s.worker_times for s in r1.report.supersteps] == [
        s.worker_times for s in r2.report.supersteps
    ]
    assert r1.report.assignments == r2.report.assignments
    assert engine_violation_keys(r1.all_violations()) == engine_violation_keys(
        r2.all_violations()
    )


def cross_worker_fixture(t5_extra=()):
    """Two entity groups on two workers; matches at t1/t4 (worker 1) and
    t1/t5 (worker 2); interval (0, 3).  t5_extra goes at the end of the
    last change set."""
    g = build_graph(
        {"a1": "person", "b1": "team", "a2": "person", "b2": "team"},
        [("a1", "plays", "b1"), ("a2", "plays", "b2")],
        {
            "a1": {"name": "same"},
            "a2": {"name": "same"},
            "b1": {"code": "ok"},
            "b2": {"code": "ok"},
        },
    )
    g = extend(g, [EdgeDelete("a1", "plays", "b1"), EdgeDelete("a2", "plays", "b2")])  # t2
    g = extend(g, [])  # t3
    g = extend(g, [EdgeInsert("a1", "plays", "b1")])  # t4
    g = extend(g, [EdgeDelete("a1", "plays", "b1"), EdgeInsert("a2", "plays", "b2"), *t5_extra])  # t5
    frags = [
        Fragment(worker_id=1, owned_vertices=frozenset({"a1", "b1"})),
        Fragment(worker_id=2, owned_vertices=frozenset({"a2", "b2"})),
    ]
    return g, frags


def test_coordinator_validates_exactly_the_cross_pairs():
    g, frags = cross_worker_fixture()
    sigma = simple_rule("sigma", Delta(0, 3))
    result = run_parallel(
        g, [sigma], n=2, fragments=frags, bounds=(0.0, float("inf"))
    )
    checked = {
        tuple(sorted([(a.t, dict(a.items)["x"]), (b.t, dict(b.items)["x"])]))
        for a, b in result.report.cross_checked["sigma"]
    }
    assert checked == {
        ((1, "a1"), (1, "a2")),  # (h1, h'1)
        ((1, "a2"), (4, "a1")),  # (h4, h'1)
        ((4, "a1"), (5, "a2")),  # (h4, h'5)
    }
    # and the local side skipped (h'1, h'5): gap 4 outside the interval
    assert engine_violation_keys(result.all_violations()) == set()


def test_rebalance_trigger_and_preserved_results():
    rng = random.Random(4)
    g = random_graph(rng, 18, 36)
    for t in range(2, 6):
        g = apply_changes(g, random_changes(rng, g, t, 5))
    rules = [simple_rule()]
    seq_list = detect_sequential(g, rules).all_violations()
    seq = engine_violation_keys(seq_list)

    def spike(t, job_name, measured):
        return measured + (1000.0 if t == 3 and job_name.endswith("f1") else 0.0)

    par = run_parallel(
        g,
        rules,
        n=2,
        seed=4,
        bounds=(0.0, 500.0),
        zeta=0.1,
        time_hook=spike,
    )
    assert par.report.rebalances >= 1
    assert any(s.rebalanced for s in par.report.supersteps)
    assert engine_violation_keys(par.all_violations()) == seq
    assert par.all_violations() == seq_list
    assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list)


def test_jobs_sharing_fragment_views_under_thread_switching():
    # Every job of a fragment reads the one view the coordinator advances
    # between supersteps.  With more workers than cores, a switch interval
    # of a microsecond and rebalances that move jobs between workers, the
    # run must still equal sequential detection.
    rng = random.Random(12)
    g = random_graph(rng, 24, 50)
    for t in range(2, 7):
        g = apply_changes(g, random_changes(rng, g, t, 8))
    rules = [
        Tgfd(
            f"r{i}",
            GraphPattern([("x", "_"), ("y", "_")], [("x", label, "y")]),
            Delta(0, 2),
            [VariableLiteral("x", "name", "x", "name")],
            [VariableLiteral("y", "code", "y", "code")],
        )
        for i, label in enumerate(LABEL_POOL)
    ]
    seq_list = detect_sequential(g, rules).all_violations()
    seq = engine_violation_keys(seq_list)
    assert seq

    def spike(t, job_name, measured):
        return measured + (1000.0 if t % 2 == 0 and job_name.endswith("@f1") else 0.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = run_parallel(
            g, rules, n=(os.cpu_count() or 1) + 2, seed=12, bounds=(0.0, 500.0), time_hook=spike
        )
    finally:
        sys.setswitchinterval(interval)
    assert par.report.rebalances >= 1
    assert engine_violation_keys(par.all_violations()) == seq
    assert par.all_violations() == seq_list
    assert canonical_pairs(par.all_violations()) and canonical_pairs(seq_list)


def test_no_rebalance_when_within_bounds():
    rng = random.Random(4)
    g = random_graph(rng, 18, 36)
    for t in range(2, 5):
        g = apply_changes(g, random_changes(rng, g, t, 5))
    par = run_parallel(
        g, [simple_rule()], n=2, seed=4, bounds=(0.0, 1e9), zeta=0.1
    )
    assert par.report.rebalances == 0


def test_build_jobs_shapes():
    rng = random.Random(6)
    g = random_graph(rng, 14, 25)
    frags = make_fragments(g, 2, seed=6)
    jobs = jobs_at(g, [simple_rule()], frags)
    assert len(jobs) == 2
    for job in jobs:
        assert job.size >= 0
        assert job.ship_in <= job.ship_all


def test_no_double_counting_between_local_and_cross():
    # a violating cross-worker pair shows up exactly once, and every pair the
    # coordinator examined joins matches owned by different fragments
    # make the t5 match disagree on the consequent: (h4, h'5) now violates
    g, frags = cross_worker_fixture([AttrSet("b2", "code", "different")])

    sigma = simple_rule("sigma", Delta(0, 3))
    result = run_parallel(g, [sigma], n=2, fragments=frags, bounds=(0.0, float("inf")))
    owners = owner_map(frags)
    for a, b in result.report.cross_checked["sigma"]:
        assert owners[dict(a.items)["x"]] != owners[dict(b.items)["x"]]
    vios = result.all_violations()
    assert {(v.binding_i.t, v.binding_j.t) for v in vios} == {(4, 5)}
    keys = [
        (v.binding_i.t, v.binding_j.t, v.binding_i.items, v.binding_j.items)
        for v in vios
    ]
    assert len(keys) == len(set(keys)) == 1


# ---------------------------------------------------------------------------
# time models
# ---------------------------------------------------------------------------


def net_attr_changes(graph, t):
    """Attributes whose value differs between snapshots t - 1 and t."""
    before, after = graph.snapshot(t - 1), graph.snapshot(t)
    return sum(
        1
        for vid in graph.vertices
        for name in set(before.attrs.get(vid, {})) | set(after.attrs.get(vid, {}))
        if before.attr(vid, name) != after.attr(vid, name)
    )


def test_size_model_charges_net_attribute_changes():
    # attribute-only stream with no-op writes: each job's time is one plus
    # the attributes that really changed plus its live matches
    rng = random.Random(21)
    g = random_graph(rng, 16, 30)
    for t in range(2, 6):
        snap = g.snapshots[-1]
        vid = rng.choice(sorted(snap.attrs))
        name = rng.choice(sorted(snap.attrs[vid]))
        other = rng.choice(sorted(snap.attrs))
        noops = [
            AttrSet(vid, name, snap.attrs[vid][name]),     # the current value
            AttrSet(other, "rank", "zz"),                  # set, then reset
            AttrSet(other, "rank", snap.attr(other, "rank")),
            AttrDelete(vid, "absent"),                     # no such attribute
        ]
        real = random_changes(rng, g, t, 4, profile=(1.0, 0.0, 0.0)).changes
        if t % 2:
            real += (AttrDelete(other, "name"),)
        g = extend(g, noops[:2] + list(real) + noops[2:])
    rules = [
        simple_rule(),
        plain_rule(GraphPattern([("x", "person"), ("y", "city")], [("x", "in", "y")]), "s"),
    ]
    result = run_parallel(g, rules, n=1, bounds=(0.0, float("inf")))
    for step in result.report.supersteps[1:]:
        net = net_attr_changes(g, step.t)
        assert net > 0
        assert step.job_times == {
            f"{sigma.name}@f1": 1.0 + net + len(match_snapshot(sigma.pattern, g.view(step.t)))
            for sigma in rules
        }


def test_size_model_ignores_attribute_changes_outside_the_view():
    g = build_graph(
        {"a1": "person", "b1": "team", "a2": "person", "b2": "team"},
        [("a1", "plays", "b1"), ("a2", "plays", "b2")],
    )
    frags = [
        Fragment(worker_id=1, owned_vertices=frozenset({"a1", "b1"})),
        Fragment(worker_id=2, owned_vertices=frozenset({"a2", "b2"})),
    ]
    g = extend(g, [AttrSet("a2", "name", "m"), AttrSet("b2", "code", "d")])  # t2
    g = extend(g, [AttrSet("b1", "code", "e")])  # t3
    result = run_parallel(g, [simple_rule()], n=2, fragments=frags, bounds=(0.0, float("inf")))
    # each fragment's view is its own pair, holding one live match
    assert [s.job_times for s in result.report.supersteps[1:]] == [
        {"r@f1": 1.0 + 0 + 1, "r@f2": 1.0 + 2 + 1},
        {"r@f1": 1.0 + 1 + 1, "r@f2": 1.0 + 0 + 1},
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wall_time_model_equals_sequential(n):
    for seed in range(4):
        rng = random.Random(40_000 + seed)
        g = random_graph(rng, 18, 36)
        for t in range(2, 5):
            g = apply_changes(g, random_changes(rng, g, t, 5))
        rule_rng = random.Random(seed + 60)
        rules = [random_tgfd(rule_rng, f"r{i}", max_edges=3, T=4) for i in range(2)]
        seq = detect_sequential(g, rules)
        par = run_parallel(
            g, rules, n=n, seed=seed, time_model="wall", bounds=(0.0, float("inf"))
        )
        assert engine_violation_keys(par.all_violations()) == engine_violation_keys(
            seq.all_violations()
        ), f"seed={seed}"
        assert par.all_violations() == seq.all_violations(), f"seed={seed}"
        assert canonical_pairs(par.all_violations()), f"seed={seed}"
        assert canonical_pairs(seq.all_violations()), f"seed={seed}"
        assert par.nontrivial == seq.nontrivial, f"seed={seed}"
        assert all(s.job_times for s in par.report.supersteps)


def test_unknown_time_model_rejected():
    g = build_graph({"a": "person", "b": "team"}, [("a", "plays", "b")])
    with pytest.raises(InvalidOption, match="unknown time model 'wal'"):
        run_parallel(g, [simple_rule()], n=1, time_model="wal")


def test_make_fragments_partition():
    rng = random.Random(8)
    g = random_graph(rng, 17, 30)
    frags = make_fragments(g, 4, seed=3)
    seen = set()
    for f in frags:
        assert not (seen & f.owned_vertices)
        seen |= f.owned_vertices
    assert seen == set(g.vertices)


# ---------------------------------------------------------------------------
# worker counts and given fragments
# ---------------------------------------------------------------------------


def _forbidden(*args, **kwargs):
    raise AssertionError("built before the worker count was checked")


@pytest.mark.parametrize("n", [MAX_WORKERS + 1, 3_000_000])
def test_worker_count_above_the_cap_is_refused_before_any_fragment_or_thread(monkeypatch, n):
    g = build_graph({"a": "person", "b": "team"}, [("a", "plays", "b")])
    monkeypatch.setattr(parallel, "Fragment", _forbidden)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _forbidden)
    message = f"{n} workers exceed the most a run takes, {MAX_WORKERS}"
    with pytest.raises(InvalidOption, match=message):
        make_fragments(g, n)
    with pytest.raises(InvalidOption, match=message):
        run_parallel(g, [simple_rule()], n)
    frags = [Fragment(worker_id=1, owned_vertices=frozenset({"a", "b"}))]
    with pytest.raises(InvalidOption, match=message):
        run_parallel(g, [simple_rule()], n, fragments=frags)


def test_worker_count_at_the_cap_is_taken():
    g = build_graph({"a": "person", "b": "team"}, [("a", "plays", "b")])
    frags = make_fragments(g, MAX_WORKERS, seed=1)
    assert [f.worker_id for f in frags] == list(range(1, MAX_WORKERS + 1))
    assert owner_map(frags).keys() == g.vertices.keys()


def _frags(*owned):
    """Fragments with worker ids and owned sets (worker id, vertices...)."""
    return [Fragment(worker_id=w, owned_vertices=frozenset(vids)) for w, *vids in owned]


@pytest.mark.parametrize(
    "frags, message",
    [
        (_frags((1, "a1", "b1"), (2, "a2")), "own every vertex of the graph once"),
        (_frags((1, "a1", "b1", "a2"), (2, "a2", "b2")), "own every vertex of the graph once"),
        (_frags((1, "a1", "b1", "zz"), (2, "a2", "b2")), "own every vertex of the graph once"),
        (_frags((1, "a1", "b1"), (1, "a2", "b2")), r"worker ids 1\.\.2, each once"),
        (_frags((1, "a1", "b1"), (3, "a2", "b2")), r"worker ids 1\.\.2, each once"),
        (_frags((1, "a1", "b1"), (2, "a2"), (3, "b2")), r"worker ids 1\.\.2, each once"),
        (_frags((1, "a1", "b1", "a2", "b2")), r"worker ids 1\.\.2, each once"),
    ],
    ids=["missing", "owned-twice", "unknown", "repeated-id", "id-out-of-range", "too-many",
         "too-few"],
)
def test_given_fragments_must_partition_the_vertices_over_workers_1_to_n(
    monkeypatch, frags, message
):
    g, _ = cross_worker_fixture()
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _forbidden)
    with pytest.raises(InvalidOption, match=message):
        run_parallel(g, [simple_rule()], n=2, fragments=frags)


def test_given_fragments_in_any_order_are_taken():
    g, frags = cross_worker_fixture()
    want = run_parallel(g, [simple_rule()], n=2, fragments=frags)
    got = run_parallel(g, [simple_rule()], n=2, fragments=frags[::-1])
    assert got.all_violations() == want.all_violations() == detect_sequential(
        g, [simple_rule()]
    ).all_violations()


# ---------------------------------------------------------------------------
# a match is its items: bindings are built by the batch match only
# ---------------------------------------------------------------------------


def test_bindings_are_built_only_by_the_first_batch_match(monkeypatch):
    """Both engines replay T = 60 timestamps and build one MatchBinding per
    t = 1 batch match (`match_snapshot`, one per rule's matcher), however
    many (match, timestamp) entries they profile."""
    from util import shaped_instance

    g, rules = shaped_instance(0, T=60, changes=4)
    rules = normalize_all(rules)
    batch = sum(len(match_snapshot(sigma.pattern, g.view(1))) for sigma in rules)
    built = []
    init = MatchBinding.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatchBinding, "__init__", counted)
    seq = detect_sequential(g, rules)
    assert len(built) == batch
    entries = sum(len(keyed.plan.table) for keyed in seq.found.values())
    assert batch > 0 and entries > 20 * batch
    del built[:]
    par = run_parallel(g, rules, 3, seed=1)
    assert len(built) == batch
    # reading the violations back builds at most one binding per entry
    del built[:]
    assert par.all_violations() == seq.all_violations()
    assert len(built) <= 2 * entries

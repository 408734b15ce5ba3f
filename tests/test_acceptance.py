"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned in the assertions, not configurable.
"""

import random
import time

from tgfd.detection import apply_mode, detect_sequential
from tgfd.evaluation import inject_errors, score
from tgfd.foundations import (
    check_implication,
    check_satisfiability,
    closure_for_implication,
)
from tgfd.graph import Fragment, advance_view, apply_changes
from tgfd.matcher import IncrementalMatcher, match_snapshot
from tgfd.model import ConstantLiteral, Delta, Tgfd
from tgfd.parallel import gen_assign, run_parallel

from test_foundations import axiom_instances, BASE, ident
from test_parallel import (
    abstract_jobs,
    brute_force_makespan,
    cross_worker_fixture,
    simple_rule,
)
from util import (
    canonical_pairs,
    engine_violation_keys,
    gfd_snapshot_oracle,
    live_matches,
    oracle_violations,
    pair_isolated_instance,
    random_changes,
    random_graph,
    random_tgfd,
    satisfying_pairs,
)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# 1. pairwise-oracle equivalence on 100 seeded instances
# ---------------------------------------------------------------------------


def test_criterion_1_pairwise_oracle_equivalence():
    started = time.monotonic()
    checked_pairs = 0
    for seed in range(100):
        rng = random.Random(seed)
        n_vertices = rng.randint(30, 200)
        T = rng.randint(3, 10)
        n_rules = rng.randint(1, 5)
        g = random_graph(rng, n_vertices, int(n_vertices * 1.8))
        for t in range(2, T + 1):
            g = apply_changes(g, random_changes(rng, g, t, rng.randint(4, 14)))
        rules = [random_tgfd(rng, f"r{i}", max_edges=4, T=T) for i in range(n_rules)]
        got = engine_violation_keys(detect_sequential(g, rules).all_violations())
        want = set()
        for sigma in rules:
            want |= oracle_violations(g, sigma)
        assert got == want, f"criterion 1: divergence at seed={seed}"
        checked_pairs += len(want)
    elapsed = time.monotonic() - started
    verdict(
        "criterion 1: detection equals the pairwise oracle on 100 seeds",
        elapsed < 60.0,
        f"{elapsed:.1f}s, {checked_pairs} violations compared",
    )


# ---------------------------------------------------------------------------
# 2. parallel == sequential for n in {1, 2, 4, 8} over 50 seeds
# ---------------------------------------------------------------------------


def test_criterion_2_parallel_equals_sequential():
    mismatches = 0
    forced_rebalances = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, rng.randint(16, 48), 64)
        T = rng.randint(3, 6)
        for t in range(2, T + 1):
            g = apply_changes(g, random_changes(rng, g, t, 7))
        rules = [
            random_tgfd(rng, f"r{i}", max_edges=3, T=T)
            for i in range(rng.randint(1, 2))
        ]
        seq_list = detect_sequential(g, rules).all_violations()
        seq = engine_violation_keys(seq_list)
        if not canonical_pairs(seq_list):
            mismatches += 1
        for n in (1, 2, 4, 8):
            par = run_parallel(
                g, rules, n=n, seed=seed, bounds=(0.0, float("inf"))
            )
            if engine_violation_keys(par.all_violations()) != seq:
                mismatches += 1
            # item for item, not only as sets
            if par.all_violations() != seq_list or not canonical_pairs(par.all_violations()):
                mismatches += 1
        if seed % 10 == 0:
            # force a mid-run rebalance and require identical output
            def spike(t, job_name, measured, _T=T):
                return measured + (1e9 if t == max(2, _T // 2) else 0.0)

            par = run_parallel(
                g, rules, n=2, seed=seed, bounds=(0.0, 1e6), zeta=0.1,
                time_hook=spike,
            )
            forced_rebalances += par.report.rebalances
            if engine_violation_keys(par.all_violations()) != seq:
                mismatches += 1
            if par.all_violations() != seq_list or not canonical_pairs(par.all_violations()):
                mismatches += 1
    verdict(
        "criterion 2: parallel equals sequential for n in {1,2,4,8} over 50 seeds",
        mismatches == 0 and forced_rebalances >= 5,
        f"mismatches={mismatches}, forced rebalances={forced_rebalances}",
    )


# ---------------------------------------------------------------------------
# 3. incremental == batch matching per change set; attr-only streams search-free
# ---------------------------------------------------------------------------


def test_criterion_3_incremental_equals_batch():
    profiles = {
        "uniform": (0.4, 0.3, 0.3),
        "skewed_au": (0.85, 0.075, 0.075),
        "skewed_ed": (0.075, 0.85, 0.075),
        "skewed_ei": (0.075, 0.075, 0.85),
    }
    divergences = 0
    for seed in range(100):
        profile = list(profiles.values())[seed % 4]
        rng = random.Random(2000 + seed)
        g = random_graph(rng, 24, 45)
        pattern = random_tgfd(rng, "r", max_edges=3).pattern
        view = g.view(1)
        matcher = IncrementalMatcher(pattern, view)
        if live_matches(matcher, 1) != match_snapshot(pattern, g.view(1)):
            divergences += 1
        for t in range(2, 6):
            cs = random_changes(rng, g, t, 8, profile)
            g = apply_changes(g, cs)
            for e in advance_view(view, cs):
                matcher.apply(e)
            if live_matches(matcher, t) != match_snapshot(pattern, g.view(t)):
                divergences += 1
    # attribute-only streams: the localized search never runs
    searches = 0
    for seed in range(10):
        rng = random.Random(3000 + seed)
        g = random_graph(rng, 20, 40)
        pattern = random_tgfd(rng, "r", max_edges=3).pattern
        view = g.view(1)
        matcher = IncrementalMatcher(pattern, view)
        for t in range(2, 6):
            cs = random_changes(rng, g, t, 10, (1.0, 0.0, 0.0))
            g = apply_changes(g, cs)
            for e in advance_view(view, cs):
                matcher.apply(e)
            assert live_matches(matcher, t) == match_snapshot(pattern, g.view(t))
        searches += matcher.iso_searches
    verdict(
        "criterion 3: incremental matches equal batch after every change set",
        divergences == 0 and searches == 0,
        f"divergences={divergences}, attr-only searches={searches}",
    )


# ---------------------------------------------------------------------------
# 4. delta (0,0) equals an independent snapshot-local validator
# ---------------------------------------------------------------------------


def test_criterion_4_gfd_subsumption():
    mismatches = 0
    for seed in range(25):
        rng = random.Random(4000 + seed)
        g = random_graph(rng, 22, 44)
        for t in range(2, 6):
            g = apply_changes(g, random_changes(rng, g, t, 6))
        rules = apply_mode(
            [random_tgfd(rng, f"r{i}", max_edges=3, T=5) for i in range(2)], "gfd"
        )
        got = engine_violation_keys(detect_sequential(g, rules).all_violations())
        want = set()
        for sigma in rules:
            want |= gfd_snapshot_oracle(g, sigma)
        if got != want:
            mismatches += 1
    verdict(
        "criterion 4: interval (0,0) equals the snapshot-local validator",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


# ---------------------------------------------------------------------------
# 5. reasoning fixtures
# ---------------------------------------------------------------------------


def test_criterion_5_foundations_fixtures(conflict_rules, conflict_rules_disjoint):
    unsat = not check_satisfiability(conflict_rules).satisfiable
    sat = check_satisfiability(conflict_rules_disjoint).satisfiable

    bridge_ok = True
    for name, premises, conclusion in axiom_instances():
        from tgfd.foundations import axiom_check

        if not axiom_check(name, premises, conclusion):
            bridge_ok = False
        if not check_implication(premises, conclusion).implied:
            bridge_ok = False

    y = ConstantLiteral("w", "val", "100mg")
    s1 = Tgfd("s1", BASE, Delta(0, 2), [], [y])
    s2 = Tgfd("s2", BASE, Delta(1, 4), [], [y])
    entries = closure_for_implication(
        [], [(s1, ident(BASE)), (s2, ident(BASE))], Delta(0, 4)
    )
    merged = {e.literal: e.validity for e in entries}.get(y) == ((0, 4),)

    verdict(
        "criterion 5: conflicting rules unsat, disjoint variant sat, "
        "axioms confirmed by implication, intervals merge",
        unsat and sat and bridge_ok and merged,
        f"unsat={unsat} sat={sat} bridge={bridge_ok} merged={merged}",
    )


# ---------------------------------------------------------------------------
# 6. assignment quality
# ---------------------------------------------------------------------------


def test_criterion_6_assignment_quality():
    worst_ratio = 1.0
    for seed in range(50):
        rng = random.Random(5000 + seed)
        k = rng.randint(1, 8)
        sizes = [rng.randint(1, 25) for _ in range(k)]
        jobs = abstract_jobs(sizes, [rng.randint(0, 6) for _ in range(k)])
        a = gen_assign(jobs, 3, (0, 1000))
        opt = brute_force_makespan(sizes, 3)
        worst_ratio = max(worst_ratio, a.makespan / opt)
        assert a.makespan <= 2 * opt + 1e-9, f"criterion 6: seed={seed}"
    single = gen_assign(abstract_jobs([13]), 3, (0, 100)).makespan == 13
    one_worker = gen_assign(abstract_jobs([5, 7, 2]), 1, (0, 100)).makespan == 14
    verdict(
        "criterion 6: makespan within 2x of brute-force optimum (50 seeds)",
        single and one_worker,
        f"worst ratio={worst_ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# 7. injection round-trip and the interval-free recall gap
# ---------------------------------------------------------------------------


def test_criterion_7_injection_round_trip():
    graph, sigma = pair_isolated_instance(100, slots=5)
    assert len(satisfying_pairs(graph, sigma)) == 100
    mutated, ledger = inject_errors(graph, [sigma], 0.03, seed=17)
    assert len(ledger.gamma_plus) == 3
    metrics = score(detect_sequential(mutated, [sigma]).all_violations(), ledger)
    exact = (metrics.precision, metrics.recall, metrics.f1) == (1.0, 1.0, 1.0)

    graph2, sigma2 = pair_isolated_instance(60, slots=3, duplicate_names=4)
    mutated2, ledger2 = inject_errors(graph2, [sigma2], 0.15, seed=19)
    plus = ledger2.plus_set()
    cross = {k for k in plus if k[1][0] != k[2][0]}
    phi = len(cross) / len(plus)
    tgfd_recall = score(
        detect_sequential(mutated2, [sigma2]).all_violations(), ledger2
    ).recall
    gfd_recall = score(
        detect_sequential(mutated2, apply_mode([sigma2], "gfd")).all_violations(),
        ledger2,
    ).recall
    gap_ok = tgfd_recall == 1.0 and gfd_recall <= 1 - phi + 1e-9 and phi > 0
    verdict(
        "criterion 7: 3% positive injection scores exactly 1.0; "
        "interval-free mode loses the cross-snapshot fraction",
        exact and gap_ok,
        f"precision={metrics.precision} recall={metrics.recall} "
        f"phi={phi:.2f} gfd_recall={gfd_recall:.2f}",
    )


# ---------------------------------------------------------------------------
# 8. burstiness behavior
# ---------------------------------------------------------------------------


def _hotspot_stream_graph(seed: int, hotspot: bool):
    """T=10 insertion-heavy stream; edge insertions concentrated on worker
    1's vertices when hotspot is set, alternating between workers otherwise."""
    rng = random.Random(seed)
    from util import build_graph

    n = 48  # 24 per worker: 12 persons, 12 teams each
    vertices = {f"v{i}": ("person" if i % 2 == 0 else "team") for i in range(n)}
    edges = [(f"v{i}", "plays", f"v{i + 1}") for i in range(0, n - 1, 2)]
    attrs = {
        vid: ({"name": f"x{i % 4}"} if i % 2 == 0 else {"code": "ok"})
        for i, vid in enumerate(vertices)
    }
    g = build_graph(vertices, edges, attrs)
    half = frozenset(f"v{i}" for i in range(0, n // 2))
    frags = [
        Fragment(worker_id=1, owned_vertices=half),
        Fragment(worker_id=2, owned_vertices=frozenset(vertices) - half),
    ]
    persons_of = {
        1: sorted(v for v in frags[0].owned_vertices if vertices[v] == "person"),
        2: sorted(v for v in frags[1].owned_vertices if vertices[v] == "person"),
    }
    teams_of = {
        1: sorted(v for v in frags[0].owned_vertices if vertices[v] == "team"),
        2: sorted(v for v in frags[1].owned_vertices if vertices[v] == "team"),
    }
    from tgfd.graph import ChangeSet, EdgeInsert

    live = set(edges)
    for t in range(2, 11):
        changes = []
        added = 0
        guard = 0
        while added < 8 and guard < 2000:
            guard += 1
            side = 1 if hotspot else (added % 2) + 1
            a = rng.choice(persons_of[side])
            b = rng.choice(teams_of[side])
            e = (a, "plays", b)
            if e in live:
                continue
            changes.append(EdgeInsert(*e))
            live.add(e)
            added += 1
        g = apply_changes(g, ChangeSet(t=t, changes=tuple(changes)))
    return g, frags


def test_criterion_8_burstiness():
    rule = simple_rule("r", Delta(0, 2))
    uniform_graph, frags = _hotspot_stream_graph(31, hotspot=False)
    # calibrate bounds from the uniform stream's own job times
    probe = run_parallel(
        uniform_graph, [rule], n=2, fragments=frags, bounds=(0.0, float("inf")), zeta=0.1
    )
    times = [t for s in probe.report.supersteps for t in s.job_times.values()]
    bounds = (0.0, max(times) * 1.5)
    uniform = run_parallel(
        uniform_graph, [rule], n=2, fragments=frags, bounds=bounds, zeta=0.1
    )
    hot_graph, frags2 = _hotspot_stream_graph(31, hotspot=True)
    skewed = run_parallel(
        hot_graph, [rule], n=2, fragments=frags2, bounds=bounds, zeta=0.1
    )
    overhead = skewed.report.overhead_fraction()
    verdict(
        "criterion 8: uniform stream triggers no rebalance; a hotspot "
        "insertion stream does, within the overhead budget",
        uniform.report.rebalances == 0
        and skewed.report.rebalances >= 1
        and overhead < 0.15,
        f"uniform={uniform.report.rebalances} skewed={skewed.report.rebalances} "
        f"overhead={overhead:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. the coordinator's validated pair list
# ---------------------------------------------------------------------------


def test_criterion_9_cross_worker_pairs():
    g, frags = cross_worker_fixture()
    sigma = simple_rule("sigma", Delta(0, 3))
    result = run_parallel(g, [sigma], n=2, fragments=frags, bounds=(0.0, float("inf")))
    checked = {
        tuple(sorted([(a.t, dict(a.items)["x"]), (b.t, dict(b.items)["x"])]))
        for a, b in result.report.cross_checked["sigma"]
    }
    expected = {
        ((1, "a1"), (1, "a2")),
        ((1, "a2"), (4, "a1")),
        ((4, "a1"), (5, "a2")),
    }
    verdict(
        "criterion 9: coordinator validates exactly the three cross-worker pairs",
        checked == expected,
        f"checked={sorted(checked)}",
    )

"""Coordinator/worker detection over fragmented graphs.

Workers are concurrent in-process units, at most MAX_WORKERS.  The vertex
set is partitioned into fragments; each (rule, fragment) pair forms a job
that owns the rule's matches anchored on the fragment's vertices.  A job's
only state is its match index, which moves with it between workers: its
rule and home fragment are read from its `Job`, and its entries are its
home's share of its rule's, which the rule's one RulePlan profiles, and so
numbers, once per superstep; a match's owner is read from its items.
Each superstep processes one timestamp under a barrier: workers detect
violations among the matches their jobs own, the coordinator pairs matches
across fragments, and job runtimes outside the allowed band trigger a
workload reassignment.

Matching happens once per rule, on the full view: `detection.replay`
advances one view by each change set and hands its flips to one incremental
matcher per rule, and each superstep splits every rule's matches by the
fragment that owns their anchor.  The split is exact: a match lies within
pattern-diameter hops of its anchor, so the view a matcher of one fragment
would read (the owned vertices plus the diameter balls around owned anchor
candidates, whose cross edges are the "shipped" ones) holds every match
anchored there.

Each rule's shape (`RuleShape`: anchor, radius, ball radius, BFS tree from
the anchor) is derived once per run, and each fragment's balls are searched
once, by `anchor_balls`: one hop map per owned anchor candidate and ball
radius.  Everything else reads those maps.

Those fragment views remain as the cost model: the size time model and the
shipped-edge counts are measured on them.  Each is a vertex set and an edge
set, built once, at t = 1, from the fragment's balls, and advanced in place
from each change set (IncEval in the sense of GRAPE): a ball takes only the
flips with an endpoint strictly inside its radius and repairs its hop map
with a bounded dynamic BFS (`graph.repair_ball`); only the flipped edges
and the edges from a vertex that entered or left a ball to that ball are
checked again.  Balls keep the diameter as radius: the pattern radius
around the anchor would hold the same matches with fewer shipped edges, but
would change every reported shipped count.

Job estimates (`build_jobs`) read the anchor that splits the matches: a
job's size is its fragment's anchor candidates times the mean fan-out of
each edge of the pattern's BFS tree from the anchor, and its ship costs
are the edges of each candidate's radius ball, its ball's hop map cut at
the radius; at a rebalance the maps are the kept views' repaired ones, so
no ball is searched again.  `plan` and `run_parallel` share the first
setup (`job_setup`); `plan` builds no view.  The paper estimates a job per
path of a path decomposition instead, each path with its own center; one
ball per rule prices the matches a job owns.
"""

from __future__ import annotations

import os
import random
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .errors import InvalidOption, JobOutOfBounds
from .graph import (
    Edge,
    Fragment,
    GraphView,
    TemporalGraph,
    ball_vertices,
    changed_attrs,
    repair_ball,
)
from .matcher import AssignmentKey, playable_edges
from .model import WILDCARD, ConstantLiteral, Tgfd, normalize_all
from .detection import (
    IndexEntry,
    KeyedReport,
    KeyedViolations,
    MatchIndex,
    ReportOrder,
    RulePlan,
    incted_step,
    nontrivially_exercised,
    replay,
)

REBALANCE_FIXED_COST = 1.0
REBALANCE_EDGE_UNIT = 0.01
# The most workers a run takes: far above any real use, and low enough that
# a mistyped count fails at once instead of building millions of fragments.
MAX_WORKERS = 1024


# ---------------------------------------------------------------------------
# fragmentation
# ---------------------------------------------------------------------------


def check_workers(n: int) -> None:
    """Raise InvalidOption unless 1 <= n <= MAX_WORKERS."""
    if n < 1:
        raise InvalidOption("need at least one worker")
    if n > MAX_WORKERS:
        raise InvalidOption(f"{n} workers exceed the most a run takes, {MAX_WORKERS}")


def make_fragments(graph: TemporalGraph, n: int, seed: Optional[int] = None) -> List[Fragment]:
    """Partition the vertex set over n workers; seeded order when given."""
    check_workers(n)
    vids = sorted(graph.vertices)
    if seed is not None:
        random.Random(seed).shuffle(vids)
    buckets: List[List[str]] = [[] for _ in range(n)]
    for i, vid in enumerate(vids):
        buckets[i % n].append(vid)
    return [
        Fragment(worker_id=r + 1, owned_vertices=frozenset(bucket))
        for r, bucket in enumerate(buckets)
    ]


def owner_map(fragments: Sequence[Fragment]) -> Dict[str, int]:
    owners: Dict[str, int] = {}
    for frag in fragments:
        for vid in frag.owned_vertices:
            owners[vid] = frag.worker_id
    return owners


# ---------------------------------------------------------------------------
# workload model
# ---------------------------------------------------------------------------


@dataclass
class Job:
    tgfd: str
    home: int
    size: float
    ship_in: int   # edges crossing into the home fragment's balls
    ship_all: int  # total ball edges, paid when the job runs elsewhere

    @property
    def name(self) -> str:
        return f"{self.tgfd}@f{self.home}"

    def cost_on(self, worker: int) -> int:
        return self.ship_in if worker == self.home else self.ship_all


@dataclass
class Assignment:
    mapping: Dict[str, int]
    makespan: float
    total_cost: float


@dataclass
class CardinalityModel:
    """Mean fan-out per edge signature (source type, label, target type),
    and the vertices of each type."""

    fanout: Dict[Tuple[str, str, str], float]
    by_type: Dict[str, List[str]]
    total_vertices: int

    def mean_fanout(self, src_type: str, label: str, dst_type: str) -> float:
        """Mean number of label edges to dst_type per src_type vertex; a
        wildcard side sums the signatures it covers, each weighted by its
        source type's count (the edges it stands for)."""
        if src_type != WILDCARD and dst_type != WILDCARD:
            return self.fanout.get((src_type, label, dst_type), 0.0)
        total = 0.0
        for (s, l, d), mean in self.fanout.items():
            if l != label:
                continue
            if src_type != WILDCARD and s != src_type:
                continue
            if dst_type != WILDCARD and d != dst_type:
                continue
            total += mean * len(self.by_type.get(s, ()))
        denom = self.total_vertices if src_type == WILDCARD else len(self.by_type.get(src_type, ()))
        return total / denom if denom else 0.0


def build_cardinality_model(view: GraphView, owned: AbstractSet[str]) -> CardinalityModel:
    """The model of the subgraph of view that owned induces."""
    types = view.types
    by_type: Dict[str, List[str]] = {}
    edge_counts: Dict[Tuple[str, str, str], int] = {}
    for src in owned:
        src_type = types[src]
        by_type.setdefault(src_type, []).append(src)
        for label, dst in view.out_edges(src):
            if dst in owned:
                sig = (src_type, label, types[dst])
                edge_counts[sig] = edge_counts.get(sig, 0) + 1
    fanout = {sig: count / len(by_type[sig[0]]) for sig, count in edge_counts.items()}
    return CardinalityModel(fanout, by_type, len(owned))


class RuleShape(NamedTuple):
    """What the cost model and the match split read of a rule's pattern,
    derived once per run: the anchor that splits its matches (the
    pattern's `radius_center()`), the anchor's eccentricity (`radius`),
    `spec` (the anchor's label and the radius of the balls the fragment
    views keep around anchor candidates, the pattern diameter) and a BFS
    tree of the pattern from the anchor, as pattern edges in their own
    orientation: for each other variable, in vars order, the first pattern
    edge joining it to a variable one hop nearer the anchor."""

    sigma: Tgfd
    anchor: str
    radius: int
    spec: Tuple[str, int]
    tree: Tuple[Edge, ...]

    @classmethod
    def of(cls, sigma: Tgfd) -> "RuleShape":
        pattern = sigma.pattern
        anchor, radius = pattern.radius_center()
        hops = pattern.distances_from(anchor)
        tree = tuple(
            next(
                (src, label, dst) for src, label, dst in pattern.edges
                if (src == var and hops[dst] == hops[var] - 1)
                or (dst == var and hops[src] == hops[var] - 1)
            )
            for var in pattern.vars if var != anchor
        )
        spec = (pattern.label_of(anchor), pattern.diameter)
        return cls(sigma, anchor, radius, spec, tree)


# (center, radius) -> hop distance of every vertex in that ball
Balls = Dict[Tuple[str, int], Dict[str, int]]


def anchor_balls(
    full: GraphView, owned: AbstractSet[str], specs: Iterable[Tuple[str, int]]
) -> Balls:
    """The balls of the full view around a fragment's anchor candidates: for
    each (anchor label, ball radius) in specs (`RuleShape.spec`), every
    owned vertex the label admits centers one ball of that radius, searched
    once, however many rules share it.  The one place fragment balls are
    searched: the kept fragment views repair these maps in place, and
    `build_jobs` reads them."""
    balls: Balls = {}
    for label, radius in sorted(set(specs)):
        for center in owned if label == WILDCARD else owned & full.vertices_of_type(label):
            if (center, radius) not in balls:
                hops: Dict[str, int] = {}
                ball_vertices(full, center, radius, hops)
                balls[(center, radius)] = hops
    return balls


def build_jobs(
    graph: TemporalGraph,
    shapes: Sequence[RuleShape],
    fragments: Sequence[Fragment],
    full: GraphView,
    balls: Sequence[Balls],
) -> List[Job]:
    """One job per (rule, fragment) at the timestamp of full, the graph's
    full view there, covering the rule's matches anchored on the fragment.
    size is the owned anchor candidates (the owned vertices of the
    anchor's label that meet its X constants, the filter `RulePlan.read`
    applies) times the mean fan-out, on the fragment's owned edges, of each
    edge of the rule's BFS tree from the anchor.  The ship costs sum the
    edges inside each candidate's radius ball, its ball in balls (one map
    per fragment, in fragment order: `anchor_balls` at full's timestamp, or
    the kept views' repaired maps) cut at the radius; no ball is searched
    here."""
    snap = graph.snapshot(full.t)
    out_edges = full.out_edges
    jobs: List[Job] = []
    for frag, frag_balls in zip(fragments, balls):
        owned = frag.owned_vertices
        model = build_cardinality_model(full, owned)
        for sigma, anchor, radius, (anchor_label, ball), tree in shapes:
            label = sigma.pattern.label_of
            fanout = 1.0
            for src, elabel, dst in tree:
                fanout *= model.mean_fanout(label(src), elabel, label(dst))
            lits = [
                (l.attr, l.value) for l in sigma.x_literals
                if isinstance(l, ConstantLiteral) and l.var == anchor
            ]
            pool = owned if anchor_label == WILDCARD else model.by_type.get(anchor_label, [])
            candidates = [
                vid for vid in pool if all(snap.attr(vid, attr) == value for attr, value in lits)
            ] if lits else pool
            ship_in = ship_all = 0
            for center in candidates:
                hops = frag_balls[(center, ball)]
                inside = hops if ball == radius else {v for v, h in hops.items() if h <= radius}
                for src in inside:
                    src_off = src not in owned
                    for _, dst in out_edges(src):
                        if dst in inside:
                            ship_all += 1
                            ship_in += src_off or dst not in owned
            size = len(candidates) * fanout
            jobs.append(Job(sigma.name, frag.worker_id, size, ship_in, ship_all))
    return jobs


def job_setup(
    graph: TemporalGraph, rules: Sequence[Tgfd], fragments: Sequence[Fragment]
) -> Tuple[List[RuleShape], GraphView, List[Balls], List[Job]]:
    """The first assignment's inputs, which `plan` and `run_parallel`
    share, for the normalized rules over the fragments: each rule's shape,
    the full view at t = 1, each fragment's anchor balls there (in
    fragment order) and the jobs they price."""
    shapes = [RuleShape.of(sigma) for sigma in rules]
    full = graph.view(1)
    balls = [anchor_balls(full, f.owned_vertices, [s.spec for s in shapes]) for f in fragments]
    return shapes, full, balls, build_jobs(graph, shapes, fragments, full, balls)


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------


def clamp_job(job: Job, bounds: Tuple[float, float]) -> Job:
    """The job with its size clamped into the job-time bounds."""
    return replace(job, size=min(max(job.size, bounds[0]), bounds[1]))


def _greedy_pack(order: Sequence[Job], n: int, cap: float) -> Optional[Dict[str, int]]:
    """First-fit of the jobs, in the given order, under a makespan cap: a
    job goes to the worker of least communication cost among those it
    fits on, the lowest id among equals, as sorting them by
    (cost_on(w), w) picks.  Only two workers can win: its home, at
    ship_in, and the lowest-id fitting worker other than home, at
    ship_all.  A tree of minimum loads over the worker ids finds the
    lowest fitting id at or after a start in O(log n); it tests a subtree
    with the fit test itself, `load + size <= cap + eps`, on its least
    load, which fits if any load there does."""
    leaves = 1
    while leaves < n:
        leaves *= 2
    tree = [0.0] * (2 * leaves)  # node i covers its children 2i, 2i + 1
    for leaf in range(leaves + n, 2 * leaves):
        tree[leaf] = float("inf")  # no worker there
    for i in range(leaves - 1, 0, -1):
        tree[i] = min(tree[2 * i], tree[2 * i + 1])
    limit = cap + 1e-9

    def first_fit(size: float, start: int) -> int:
        """The lowest worker index >= start (id - 1) that size fits on, or -1."""
        if start >= n:
            return -1
        i = leaves + start
        while not tree[i] + size <= limit:
            while i & 1:  # a right child, or the root: climb to the next subtree
                i >>= 1
            if not i:
                return -1
            i += 1
        while i < leaves:
            i *= 2
            if not tree[i] + size <= limit:
                i += 1
        return i - leaves if i - leaves < n else -1

    mapping: Dict[str, int] = {}
    for job in order:
        size, home = job.size, job.home - 1
        if 0 <= home < n and tree[leaves + home] + size <= limit and job.ship_in < job.ship_all:
            w = home
        else:
            w = first_fit(size, 0)
            if w < 0:
                return None
            if w == home and job.ship_in > job.ship_all:
                other = first_fit(size, home + 1)  # home costs more than any other
                if other >= 0:
                    w = other
        mapping[job.name] = w + 1
        i = leaves + w
        tree[i] += size
        while i > 1:
            i >>= 1
            tree[i] = min(tree[2 * i], tree[2 * i + 1])
    return mapping


def gen_assign(
    jobs: Sequence[Job],
    n: int,
    bounds: Tuple[float, float],
) -> Assignment:
    """Bisection on the candidate makespan with greedy packing at each probe,
    the jobs sorted once, by size descending; returns the feasible
    assignment with the smallest makespan found."""
    t_l, t_u = bounds
    if not t_l <= t_u:  # also false when either bound is NaN
        raise InvalidOption(
            f"job-time bounds [{t_l:.6g}, {t_u:.6g}] must be numbers with t_l <= t_u"
        )
    for job in jobs:
        if not (t_l <= job.size <= t_u):
            raise JobOutOfBounds(job.name, job.size, bounds)
    if not jobs:
        return Assignment({}, 0.0, 0.0)
    total = sum(j.size for j in jobs)
    biggest = max(j.size for j in jobs)
    lo = max(total / n, biggest)
    hi = total
    order = sorted(jobs, key=lambda j: (-j.size, j.ship_in, j.name))
    best = _greedy_pack(order, n, hi)
    assert best is not None  # one worker can always absorb everything
    best_cap = hi
    for _ in range(64):
        if hi - lo < 1e-9:
            break
        mid = (lo + hi) / 2
        packed = _greedy_pack(order, n, mid)
        if packed is not None:
            best, best_cap = packed, mid
            hi = mid
        else:
            lo = mid
    jobs_by_name = {j.name: j for j in jobs}
    loads: Dict[int, float] = {}
    cost = 0.0
    for name, worker in best.items():
        loads[worker] = loads.get(worker, 0.0) + jobs_by_name[name].size
        cost += jobs_by_name[name].cost_on(worker)
    makespan = max(loads.values()) if loads else 0.0
    return Assignment(dict(sorted(best.items())), makespan, cost)


# ---------------------------------------------------------------------------
# the parallel run
# ---------------------------------------------------------------------------


@dataclass
class SuperstepReport:
    t: int
    worker_jobs: Dict[int, int]
    worker_times: Dict[int, float]
    job_times: Dict[str, float]
    shipped_edges: Dict[int, int]
    rebalanced: bool = False


@dataclass
class RunReport:
    supersteps: List[SuperstepReport] = field(default_factory=list)
    rebalances: int = 0
    rebalance_overhead: float = 0.0
    total_time: float = 0.0
    assignments: List[Tuple[int, Dict[str, int]]] = field(default_factory=list)
    # per rule, the (partner, entry) pairs the coordinator compared
    cross_checked: Dict[str, List[Tuple[IndexEntry, IndexEntry]]] = field(default_factory=dict)

    def overhead_fraction(self) -> float:
        if self.total_time <= 0:
            return 0.0
        return self.rebalance_overhead / self.total_time


@dataclass
class ParallelResult(KeyedReport):
    """found holds each rule's worker and coordinator keys, merged and
    sorted once."""

    found: Dict[str, KeyedViolations]
    report: RunReport
    nontrivial: Dict[str, bool] = field(default_factory=dict)

    all_violations = KeyedReport._all_violations  # see DetectionResult


class _FragmentView:
    """A fragment's share of the full view, kept across supersteps as the
    size model's and the ship counts' measure: the owned vertices plus the
    balls of the full view around owned anchor candidates, and every
    full-view edge whose endpoints are both owned or lie in one ball.  It
    takes the balls from `anchor_balls` and keeps them repaired.  No
    matcher reads it: `vertices` and `edges` are the vertex and edge sets of
    the view a matcher of this fragment alone would need."""

    def __init__(self, full: GraphView, owned: frozenset, balls: Balls):
        self.owned = owned
        self.balls = balls
        # vertex -> keys of the balls holding it
        self.holders: Dict[str, Set[Tuple[str, int]]] = {}
        for key, hops in balls.items():
            for vid in hops:
                self.holders.setdefault(vid, set()).add(key)
        self.vertices: Set[str] = set(owned).union(self.holders)
        self.edges: Set[Edge] = {
            (src, label, dst)
            for src in self.vertices
            for label, dst in full.out_edges(src)
            if self._holds(src, dst)
        }
        # cross edges new to the view at its last move: owned sets never
        # change, so after the first build these are the inserted ones
        self.shipped = self._count_cross(self.edges)
        self.attr_units = 0

    def _holds(self, src: str, dst: str) -> bool:
        if src in self.owned and dst in self.owned:
            return True
        a, b = self.holders.get(src), self.holders.get(dst)
        return a is not None and b is not None and not a.isdisjoint(b)

    def advance(
        self, full: GraphView, flipped: Sequence[Edge], changed: Sequence[Tuple[str, str]]
    ) -> List[Edge]:
        """Move the view to the full view after the given edge flips; returns
        the edges whose presence in the view changed, sorted.  changed lists
        the (vertex, attribute) slots that changed value; `attr_units`
        counts those on vertices that stay in the view."""
        # A ball (its vertices and their hop distances) can change only
        # through a flipped edge with an endpoint fewer than radius hops
        # from the center: on a path of at most radius hops, the first
        # flipped edge is reached in fewer hops, over edges that did not
        # flip.  Each such ball takes only those flips.
        near: Dict[Tuple[str, int], List[Edge]] = {}
        holders, balls = self.holders, self.balls
        for e in flipped:
            src, _, dst = e
            if src == dst:
                continue  # a self-loop moves no distance
            for vid in (src, dst):
                for key in holders.get(vid, ()):
                    if balls[key][vid] < key[1]:
                        taken = near.setdefault(key, [])
                        if not taken or taken[-1] is not e:  # both ends inside
                            taken.append(e)

        # An edge's presence can change only if it flipped, or if one end
        # entered or left a ball that holds the other end (before or after).
        recheck = set(flipped)
        moved: Set[str] = set()
        for key, edges in near.items():
            hops = balls[key]
            entered, left = repair_ball(full, key[1], hops, edges)
            for vid in left:
                keys = holders[vid]
                keys.discard(key)
                if not keys:
                    del holders[vid]
            for vid in entered:
                holders.setdefault(vid, set()).add(key)
            for group in (entered, left):
                for vid in group:
                    for label, other in full.out_edges(vid):
                        if other in hops or other in left:
                            recheck.add((vid, label, other))
                    for label, other in full.in_edges(vid):
                        if other in hops or other in left:
                            recheck.add((other, label, vid))
                moved |= group

        kept = self.edges
        deleted, inserted = [], []
        for e in recheck:
            now = e in full.edges and self._holds(e[0], e[2])
            if now != (e in kept):
                (inserted if now else deleted).append(e)
        kept.difference_update(deleted)
        kept.update(inserted)
        enters = set()
        for vid in moved:
            now = vid in self.owned or vid in holders
            if now != (vid in self.vertices):
                if now:
                    self.vertices.add(vid)
                    enters.add(vid)
                else:
                    self.vertices.discard(vid)
        self.shipped = self._count_cross(inserted)
        self.attr_units = sum(
            1 for vid, _ in changed if vid in self.vertices and vid not in enters
        )
        return sorted(deleted + inserted)

    def _count_cross(self, edges: Iterable[Edge]) -> int:
        return sum(1 for src, _, dst in edges if src not in self.owned or dst not in self.owned)


def run_parallel(
    graph: TemporalGraph,
    tgfds: Sequence[Tgfd],
    n: int,
    zeta: float = 0.1,
    bounds: Tuple[float, float] = (0.0, float("inf")),
    *,
    seed: int = 1,
    time_model: str = "size",
    fragments: Optional[Sequence[Fragment]] = None,
    time_hook: Optional[Callable[[int, str, float], float]] = None,
) -> ParallelResult:
    """Detect violations with n workers over T supersteps.

    time_model "size" charges a job one unit, plus one per edge flip of its
    fragment's view and per attribute that changed value on a vertex
    staying in that view, plus two per flip inserted into that view that
    can play one of the rule's pattern edges, plus one per match it owns
    (deterministic); "wall" measures real elapsed time.  time_hook may
    rewrite a job's measured time (tests use it to force rebalances).
    Given fragments must carry worker ids 1..n, each once, and own every
    vertex of the graph once.
    """
    check_workers(n)
    if time_model not in ("size", "wall"):
        raise InvalidOption(f"unknown time model {time_model!r}")
    if not zeta >= 0:  # also false when zeta is NaN
        raise InvalidOption(f"zeta {zeta} must be a number >= 0")
    rules = normalize_all(tgfds)
    frags = list(fragments) if fragments is not None else make_fragments(graph, n, seed)
    if sorted(f.worker_id for f in frags) != list(range(1, n + 1)):
        raise InvalidOption(f"fragments must carry worker ids 1..{n}, each once")
    owners = owner_map(frags)
    owned_twice = sum(len(f.owned_vertices) for f in frags) != len(owners)
    if owned_twice or owners.keys() != graph.vertices.keys():
        raise InvalidOption("fragments must own every vertex of the graph once")
    shapes, full, balls, jobs = job_setup(graph, rules, frags)
    # a rebalance reassigns jobs by name, and a job's rule and home never change
    job_by_name = {job.name: job for job in jobs}
    order = ReportOrder(graph.vertices, graph.T)
    plans = {sigma.name: RulePlan(sigma, order, graph) for sigma in rules}
    job_index = {job.name: MatchIndex(plans[job.tgfd]) for job in jobs}

    assignment = gen_assign([clamp_job(j, bounds) for j in jobs], n, bounds)
    report = RunReport()
    report.assignments.append((1, dict(assignment.mapping)))
    report.cross_checked = {name: [] for name in sorted(plans)}

    coord_index: Dict[str, MatchIndex] = {s.name: MatchIndex(plans[s.name]) for s in rules}
    found: Dict[str, KeyedViolations] = {s.name: KeyedViolations(plans[s.name]) for s in rules}

    kept = {f.worker_id: _FragmentView(full, f.owned_vertices, b) for f, b in zip(frags, balls)}

    lo_band = (1 - zeta) * bounds[0]
    hi_band = (1 + zeta) * bounds[1]

    # a fragment without vertices owns no match, so its jobs need no thread,
    # and threads beyond the cores would only queue
    busy = sum(1 for f in frags if f.owned_vertices)
    with ThreadPoolExecutor(max_workers=max(1, min(n, busy, os.cpu_count() or 1))) as pool:
        # one matcher per rule on the full view; the views move here, on
        # this thread, and the workers only read them
        for t, matchers, flipped in replay(graph, rules, full):
            flips: Dict[int, List[Edge]] = {}
            if t > 1:
                changed = changed_attrs(graph, t)
                for r in kept:
                    flips[r] = kept[r].advance(full, flipped, changed)

            # every match lies in the ball around its anchor, which the
            # anchor owner's view holds: each job takes its home's share.
            # Each rule's matches are profiled once, here, in items order,
            # which numbers them (RulePlan.table) for every job of the rule.
            entries: Dict[str, List[IndexEntry]] = {}
            shares: Dict[str, Dict[int, List[IndexEntry]]] = {}
            owned: Dict[str, Dict[int, int]] = {}  # matches per owner
            for shape in shapes:
                name, plan = shape.sigma.name, plans[shape.sigma.name]

                def owner_of(items: AssignmentKey, slot: int = plan.slot[shape.anchor]) -> int:
                    return owners[items[slot][1]]

                matches = matchers[name].topological_matches()
                owned[name] = counts = {r: 0 for r in kept}
                for items in matches:
                    counts[owner_of(items)] += 1
                entries[name] = plan.entries(matches, t, owner_of)
                shares[name] = split = {r: [] for r in kept}
                for e in entries[name]:
                    split[e.owner].append(e)

            worker_jobs: Dict[int, List[str]] = {w: [] for w in range(1, n + 1)}
            for name, worker in assignment.mapping.items():
                worker_jobs[worker].append(name)
            for w in worker_jobs:
                worker_jobs[w].sort()

            def run_worker(w: int):
                results = []
                for name in worker_jobs[w]:
                    job, index = job_by_name[name], job_index[name]
                    home = job.home
                    started = _time.perf_counter()
                    local = incted_step(index, index.plan.sigma, shares[job.tgfd][home])
                    elapsed = _time.perf_counter() - started
                    if time_model == "wall":
                        measured = elapsed
                    else:
                        measured = 1.0 + owned[job.tgfd][home]
                        if t > 1:
                            view = kept[home]
                            pattern = index.plan.sigma.pattern
                            searches = sum(
                                1
                                for e in flips[home]
                                if e in view.edges and playable_edges(pattern, e, full.type_of)
                            )
                            measured += len(flips[home]) + view.attr_units + 2.0 * searches
                    if time_hook is not None:
                        measured = time_hook(t, name, measured)
                    results.append((name, local, measured))
                return results

            futures = {
                w: pool.submit(run_worker, w) for w in sorted(worker_jobs) if worker_jobs[w]
            }
            gathered = {w: futures[w].result() for w in sorted(futures)}

            job_times: Dict[str, float] = {}
            for w in sorted(gathered):
                for name, local, measured in gathered[w]:
                    found[job_by_name[name].tgfd].extend(local)
                    job_times[name] = measured

            # coordinator: pair the rule's entries across fragments, in
            # items order, as each job indexed its own share
            for sigma in rules:
                incted_step(
                    coord_index[sigma.name],
                    sigma,
                    entries[sigma.name],
                    cross_only=True,
                    checked_pairs=report.cross_checked[sigma.name],
                    found=found[sigma.name],
                )

            shipped_now = {r: kept[r].shipped for r in sorted(kept)}
            worker_times = {
                w: sum(job_times[name] for name in worker_jobs[w]) for w in sorted(worker_jobs)
            }
            step = SuperstepReport(
                t=t,
                worker_jobs={w: len(worker_jobs[w]) for w in sorted(worker_jobs)},
                worker_times=worker_times,
                job_times=dict(sorted(job_times.items())),
                shipped_edges=shipped_now,
            )
            report.total_time += max(worker_times.values()) if worker_times else 0.0

            out_of_band = [
                name for name, measured in sorted(job_times.items())
                if measured < lo_band or measured > hi_band
            ]
            if out_of_band and t < graph.T:
                # at t = 1 the full view is still the one jobs were built on;
                # later, the kept views hold the balls repaired to t
                fresh = jobs if t == 1 else build_jobs(
                    graph, shapes, frags, full, [kept[f.worker_id].balls for f in frags]
                )
                fresh_by_name = {j.name: j for j in fresh}
                new_assignment = gen_assign([clamp_job(j, bounds) for j in fresh], n, bounds)
                moved_cost = 0.0
                for name, worker in new_assignment.mapping.items():
                    if assignment.mapping.get(name) != worker:
                        moved_cost += fresh_by_name[name].cost_on(worker)
                assignment = new_assignment
                report.rebalances += 1
                report.rebalance_overhead += REBALANCE_FIXED_COST + REBALANCE_EDGE_UNIT * moved_cost
                report.assignments.append((t + 1, dict(assignment.mapping)))
                step.rebalanced = True

            report.supersteps.append(step)

    report.total_time += report.rebalance_overhead
    # each owned match has one owner, so local and cross pairs never overlap
    for keyed in found.values():
        keyed.keys.sort()

    # the coordinator's index holds every owned match, so it alone decides
    nontrivial = {
        sigma.name: nontrivially_exercised(coord_index[sigma.name], sigma.delta)
        for sigma in rules
    }
    return ParallelResult(found=found, report=report, nontrivial=nontrivial)


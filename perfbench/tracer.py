"""Per-layer tracing of tgfd from outside the program.

`Tracer.install()` replaces the public functions and methods named in
TARGETS with wrappers that record one span per call: name, start, end,
parent span, thread and the benchmark phase ("group") it ran in.  A
function is patched in every loaded `tgfd` module that imported it; a
method is patched once, on its class.  A target that no longer exists is
listed in `Tracer.absent` instead of raising, and so is a counter hook
whose result object changed shape, so refactors of `src/` do not break the
benchmark.

Spans stay in memory; `layer_metrics()` turns the spans of one group into
the per-layer metrics of BENCHMARK.json, and `write_spans()` dumps them
at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

_perf = time.perf_counter


def _graph_counts(result, args, kwargs):
    return {"graph.snapshots": len(result.snapshots)}


def _changeset_counts(result, args, kwargs):
    return {"graph.changes": sum(len(cs.changes) for cs in result)}


def _live_matches(result, args, kwargs):
    return {"matcher.live_matches": len(result)}


def _detection_counts(result, args, kwargs):
    counts = {
        "matcher.iso_searches": result.iso_searches,
        "detection.pairs_compared": sum(result.pairs_compared.values()),
    }
    for name, found in result.violations.items():
        counts["detection.violations"] = counts.get("detection.violations", 0) + len(found)
        counts[f"detection.violations.{name}"] = len(found)
        pairs = sum(1 for v in found if type(v).__name__ == "PairViolation")
        counts["detection.pair_violations"] = counts.get("detection.pair_violations", 0) + pairs
    return counts


def _parallel_counts(result, args, kwargs):
    rep = result.report
    per_worker: Dict[int, float] = {}
    for step in rep.supersteps:
        for w, spent in step.worker_times.items():
            per_worker[w] = per_worker.get(w, 0.0) + spent
    mean = sum(per_worker.values()) / len(per_worker) if per_worker else 0.0
    return {
        "parallel.supersteps": len(rep.supersteps),
        "parallel.shipped_edges": sum(
            sum(step.shipped_edges.values()) for step in rep.supersteps
        ),
        "parallel.rebalances": rep.rebalances,
        "parallel.cross_pairs": sum(len(p) for p in rep.cross_checked.values()),
        "parallel.worker_skew": max(per_worker.values()) / mean if mean else 0.0,
    }


def _pool_counts(result, args, kwargs):
    _, ledger = result
    return {"evaluation.pool_pairs": ledger.pool_size, "evaluation.mutations": len(ledger.mutations)}


def _step_tag(args, kwargs):
    """(rule name, coordinator call?) for an incted_step call."""
    sigma = args[1] if len(args) > 1 else kwargs.get("sigma")
    return (getattr(sigma, "name", None), bool(kwargs.get("cross_only")))


# (span name, "module:qualname", counter hook, tag hook)
TARGETS = [
    ("graph.load", "tgfd.graph:load_graph", _graph_counts, None),
    ("graph.derive_changesets", "tgfd.graph:derive_changesets", _changeset_counts, None),
    ("graph.serialize", "tgfd.graph:graph_to_texts", None, None),
    ("graph.ball", "tgfd.graph:ball_vertices", None, None),
    ("model.parse", "tgfd.model:parse_tgfd_file", None, None),
    ("matcher.init", "tgfd.matcher:IncrementalMatcher.__init__", None, None),
    ("matcher.apply", "tgfd.matcher:IncrementalMatcher.apply", None, None),
    ("matcher.topological", "tgfd.matcher:IncrementalMatcher.topological_matches", _live_matches, None),
    ("matcher.snapshot_match", "tgfd.matcher:match_snapshot", None, None),
    ("detection.detect", "tgfd.detection:detect_sequential", _detection_counts, None),
    ("detection.step", "tgfd.detection:incted_step", None, _step_tag),
    ("detection.sort", "tgfd.detection:DetectionResult.all_violations", None, None),
    ("detection.sort", "tgfd.parallel:ParallelResult.all_violations", None, None),
    ("detection.nontrivial", "tgfd.detection:nontrivially_exercised", None, None),
    ("parallel.run", "tgfd.parallel:run_parallel", _parallel_counts, None),
    ("parallel.build_jobs", "tgfd.parallel:build_jobs", None, None),
    ("parallel.assign", "tgfd.parallel:gen_assign", None, None),
    ("foundations.embed", "tgfd.foundations:all_embeddings", None, None),
    ("foundations.sat", "tgfd.foundations:check_satisfiability", None, None),
    ("foundations.implies", "tgfd.foundations:check_implication", None, None),
    ("evaluation.inject", "tgfd.evaluation:inject_errors", _pool_counts, None),
    ("evaluation.score", "tgfd.evaluation:score", None, None),
    ("evaluation.gen", "tgfd.evaluation:generate_synthetic", None, None),
]

# Counters read from returned result objects; they repeat exactly per seed.
COUNTERS = [
    "graph.snapshots",
    "graph.changes",
    "matcher.apply_calls",
    "matcher.iso_searches",
    "matcher.live_matches",
    "detection.pairs_compared",
    "detection.violations",
    "detection.violations.r1",
    "detection.violations.r2",
    "detection.violations.r3",
    "detection.pair_violations",
    "detection.hit_ratio",
    "parallel.supersteps",
    "parallel.shipped_edges",
    "parallel.rebalances",
    "parallel.cross_pairs",
    "parallel.worker_skew",
    "evaluation.pool_pairs",
    "evaluation.mutations",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "group", "tag")

    def __init__(self, name, start, parent, thread, group, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.group = group
        self.tag = tag


class Tracer:
    """Span recorder; `group` labels the benchmark phase of new spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[object, Dict[str, float]] = {}
        self.absent: List[str] = []
        self.group: object = None
        self._stacks: Dict[int, List[Span]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, tag=None) -> Span:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's top-level span belongs to whatever the main
            # thread has open (run_parallel waiting on its workers).
            main = self._stacks.get(self._main) if ident != self._main else None
            parent = main[-1] if main else None
        span = Span(name, _perf(), parent, ident, self.group, tag)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _perf()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _count(self, values: Dict[str, float]) -> None:
        with self._lock:
            bucket = self.counts.setdefault(self.group, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value

    # -- patching ----------------------------------------------------------

    def _wrap(self, name: str, target: str, fn, on_return, tag_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, tag_fn(args, kwargs) if tag_fn else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_return is not None:
                try:
                    counts = on_return(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # the result object changed shape: report, do not crash
                    tracer._mark_absent(f"{target} (counters)")
                else:
                    tracer._count(counts)
            return result

        return traced

    def _mark_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self) -> None:
        for name, target, on_return, tag_fn in TARGETS:
            module_name, _, qualname = target.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self._mark_absent(target)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self._mark_absent(target)
                continue
            wrapper = self._wrap(name, target, original, on_return, tag_fn)
            if owner_name:
                holders = [owner]
            else:
                holders = [
                    m for key, m in list(sys.modules.items())
                    if (key == "tgfd" or key.startswith("tgfd.")) and getattr(m, attr, None) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append(functools.partial(setattr, holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tthread\tgroup\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else -1
                fh.write(
                    f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{s.thread}\t{s.group}\n"
                )


def _self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[id(s)] = (s.end - s.start) - covered
    return out


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _timestamp_ms(spans: Sequence[Span]) -> List[float]:
    """Per-timestamp detection time: from the end of t-1's last sequential
    incted_step to the end of t's, for t >= 2.  Steps of one timestamp are
    the run of calls before a rule name repeats."""
    out: List[float] = []
    for run in (s for s in spans if s.name == "detection.detect"):
        steps = sorted(
            (s for s in spans if s.name == "detection.step" and s.parent is run),
            key=lambda s: s.start,
        )
        ends: List[float] = []
        seen: set = set()
        for s in steps:
            rule = s.tag[0]
            if rule in seen or not ends:
                ends.append(s.end)
                seen = set()
            seen.add(rule)
            ends[-1] = max(ends[-1], s.end)
        out.extend((b - a) * 1e3 for a, b in zip(ends, ends[1:]))
    return out


def layer_metrics(spans: Sequence[Span], counts: Optional[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer times (s), timestamp percentiles (ms) and counters for the
    spans of one benchmark phase."""
    self_t = _self_times(spans)
    dur: Dict[str, float] = {}
    self_by: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + (s.end - s.start)
        self_by[s.name] = self_by.get(s.name, 0.0) + self_t[id(s)]
        calls[s.name] = calls.get(s.name, 0) + 1

    def total(pred) -> float:
        return sum(s.end - s.start for s in spans if pred(s))

    ts = _timestamp_ms(spans)
    counts = dict(counts or {})
    m = {
        "graph.load_s": dur.get("graph.load", 0.0),
        "graph.derive_changesets_s": dur.get("graph.derive_changesets", 0.0),
        "graph.serialize_s": dur.get("graph.serialize", 0.0),
        "model.parse_s": dur.get("model.parse", 0.0),
        "matcher.init_s": dur.get("matcher.init", 0.0),
        "matcher.apply_s": dur.get("matcher.apply", 0.0),
        "matcher.topological_s": dur.get("matcher.topological", 0.0),
        "matcher.snapshot_match_s": dur.get("matcher.snapshot_match", 0.0),
        "detection.detect_s": dur.get("detection.detect", 0.0),
        "detection.self_s": self_by.get("detection.detect", 0.0),
        "detection.step_s": total(
            lambda s: s.name == "detection.step" and not _under(s, "parallel.run")
        ),
        "detection.sort_s": dur.get("detection.sort", 0.0),
        "detection.nontrivial_s": dur.get("detection.nontrivial", 0.0),
        "detection.timestamp_ms.p50": statistics.median(ts) if ts else 0.0,
        "detection.timestamp_ms.p90": statistics.quantiles(ts, n=10)[8] if len(ts) > 1 else 0.0,
        "parallel.run_s": dur.get("parallel.run", 0.0),
        "parallel.self_s": self_by.get("parallel.run", 0.0),
        "parallel.ball_s": total(
            lambda s: s.name == "graph.ball" and s.parent is not None and s.parent.name == "parallel.run"
        ),
        "parallel.worker_s": total(
            lambda s: s.thread != s.parent.thread if s.parent is not None else False
        ),
        "parallel.coordinator_s": total(lambda s: s.name == "detection.step" and s.tag[1]),
        "parallel.build_jobs_s": dur.get("parallel.build_jobs", 0.0),
        "parallel.assign_s": dur.get("parallel.assign", 0.0),
        "foundations.embed_s": dur.get("foundations.embed", 0.0),
        "foundations.closure_s": self_by.get("foundations.sat", 0.0)
        + self_by.get("foundations.implies", 0.0),
        "evaluation.inject_s": dur.get("evaluation.inject", 0.0),
        "evaluation.score_s": dur.get("evaluation.score", 0.0),
        "evaluation.gen_s": dur.get("evaluation.gen", 0.0),
        "cli.self_s": sum(self_t[id(s)] for s in spans if s.name.startswith("cli.")),
    }
    counts["matcher.apply_calls"] = calls.get("matcher.apply", 0)
    pairs = counts.get("detection.pairs_compared", 0)
    counts["detection.hit_ratio"] = counts.get("detection.pair_violations", 0) / pairs if pairs else 0.0
    for key in COUNTERS:
        m[key] = counts.get(key, 0)
    return m


def spans_of(tracer: Tracer, group) -> List[Span]:
    return [s for s in tracer.spans if s.group == group]

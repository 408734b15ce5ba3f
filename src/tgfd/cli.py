"""Command-line entry point.

Subcommands: detect, detect-parallel, sat, implies, inject, eval, gen, plan.
Each takes only options that its run reads: `--format` picks the report
layout of `detect` and `detect-parallel`, and `--seed` drives the random
choices of `detect-parallel` and `plan` (fragments), `inject` (sampling)
and `gen` (the graph).  Any other option is a usage error.
Exit codes: 0 success, 1 usage error, 2 input parse error, 3 the `sat`
verdict was unsatisfiable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, TextIO

from .errors import TgfdError
from .evaluation import (
    generate_synthetic,
    inject_errors,
    ledger_from_text,
    ledger_to_text,
    score,
)
from .foundations import check_implication, check_satisfiability
from .graph import graph_to_texts, load_graph
from .detection import (
    KeyedReport,
    PairViolation,
    Violation,
    apply_mode,
    detect_sequential,
    pair_id,
)
from .model import normalize_all, parse_tgfd_file
from .parallel import ParallelResult, clamp_job, gen_assign, job_setup, make_fragments, run_parallel


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process: building it costs more than a
    whole `sat` run, and parsing leaves it unchanged."""
    parser = _Parser(prog="tgfd", description="Temporal graph dependency engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_graph=True):
        if need_graph:
            p.add_argument("--graph", required=True, help="base snapshot file")
            p.add_argument("--changes", help="change file (t 2..T)")
        p.add_argument("--tgfds", required=True, help="rule definition file")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("detect", help="sequential violation detection")
    add_io(p)
    p.add_argument("--format", choices=["text", "jsonlike"], default="text")
    p.add_argument("--mode", choices=["tgfd", "gfd", "upper-only"], default="tgfd")

    p = sub.add_parser("detect-parallel", help="multi-worker violation detection")
    add_io(p)
    p.add_argument("--format", choices=["text", "jsonlike"], default="text")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--mode", choices=["tgfd", "gfd", "upper-only"], default="tgfd")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--zeta", type=float, default=0.1)
    p.add_argument("--tl", type=float, required=True, help="job-time lower bound")
    p.add_argument("--tu", type=float, required=True, help="job-time upper bound")
    p.add_argument("--time-model", choices=["wall", "size"], default="size")

    p = sub.add_parser("sat", help="rule-set satisfiability")
    add_io(p, need_graph=False)

    p = sub.add_parser("implies", help="does the rule set imply the query rule?")
    add_io(p, need_graph=False)
    p.add_argument("--query", required=True, help="file holding the candidate rule")

    p = sub.add_parser("inject", help="inject consequent errors into a graph")
    add_io(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--err", type=float, default=0.03, help="error rate in [0, 1]")
    p.add_argument("--negative", action="store_true", help="also inject negative errors")
    p.add_argument("--out-prefix", required=True, help="prefix for mutated graph + ledger")

    p = sub.add_parser("eval", help="score sequential detection against a ledger")
    add_io(p)
    p.add_argument("--ledger", required=True)
    p.add_argument("--mode", choices=["tgfd", "gfd", "upper-only"], default="tgfd")

    p = sub.add_parser("gen", help="generate a synthetic temporal graph")
    p.add_argument("--vertices", type=int, default=100)
    p.add_argument("--edges", type=int, default=300)
    p.add_argument("--types", type=int, default=4)
    p.add_argument("--attrs", type=int, default=3)
    p.add_argument("--T", type=int, default=10)
    p.add_argument("--chg", type=float, default=0.04)
    p.add_argument(
        "--profile",
        choices=["uniform", "skewed_au", "skewed_ed", "skewed_ei"],
        default="uniform",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("plan", help="print the workload assignment without detecting")
    add_io(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--tl", type=float, required=True)
    p.add_argument("--tu", type=float, required=True)

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_inputs(args) -> tuple:
    graph = load_graph(_read(args.graph), _read(args.changes) if args.changes else None)
    tgfds = parse_tgfd_file(_read(args.tgfds))
    return graph, tgfds


@contextlib.contextmanager
def _report_file(args) -> Iterator[TextIO]:
    """The report's destination: the `--out` file, else stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(args, text: str) -> None:
    with _report_file(args) as out:
        out.write(text)


def _violation_json(v: Violation) -> Dict:
    tgfd, side_i, side_j = pair_id(v)
    doc = {"tgfd": tgfd, "pair": [list(side_i), list(side_j)]}
    if isinstance(v, PairViolation):
        doc["kind"] = "pair"
        doc["t_i"], doc["t_j"] = v.binding_i.t, v.binding_j.t
        doc["binding_i"] = dict(v.binding_i.items)
        doc["binding_j"] = dict(v.binding_j.items)
    else:
        doc["kind"] = "constant"
        doc["t"] = v.binding.t
        doc["binding"] = dict(v.binding.items)
        doc["failed"] = str(v.failed)
    return doc


def _write_detection_text(out: TextIO, result: KeyedReport) -> None:
    """One line per violation, written in chunks straight from the keys,
    then one `# rule nontrivial=` line per rule; a run without rules
    writes one empty line."""
    out.writelines(result.text_chunks())
    out.writelines(
        f"# {name} nontrivial={'yes' if result.nontrivial[name] else 'no'}\n"
        for name in sorted(result.nontrivial)
    )
    if not result.nontrivial:
        out.write("\n")


def _write_detection_json(out: TextIO, result, report: Optional[Dict] = None) -> None:
    doc = {
        "violations": [_violation_json(v) for v in result.all_violations()],
        "nontrivial": {k: bool(v) for k, v in sorted(result.nontrivial.items())},
    }
    if report is not None:
        doc["report"] = report
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run_detect(args) -> int:
    graph, tgfds = _load_inputs(args)
    rules = apply_mode(tgfds, args.mode)
    result = detect_sequential(graph, rules)
    with _report_file(args) as out:
        if args.format == "text":
            _write_detection_text(out, result)
        else:
            _write_detection_json(out, result)
    return 0


def _report_lines(result: ParallelResult) -> Iterator[str]:
    rep = result.report
    for step in rep.supersteps:
        for w in sorted(step.worker_jobs):
            yield (
                f"t={step.t} worker={w} jobs={step.worker_jobs[w]} "
                f"time={step.worker_times[w]:.6g} shipped={step.shipped_edges.get(w, 0)}\n"
            )
        if step.rebalanced:
            yield f"t={step.t} rebalance\n"
    yield (
        f"totals supersteps={len(rep.supersteps)} rebalances={rep.rebalances} "
        f"overhead={rep.rebalance_overhead:.6g} time={rep.total_time:.6g}\n"
    )
    for t, mapping in rep.assignments:
        for job, worker in sorted(mapping.items()):
            yield f"assignment t={t} job={job} worker={worker}\n"


def _run_detect_parallel(args) -> int:
    graph, tgfds = _load_inputs(args)
    rules = apply_mode(tgfds, args.mode)
    result = run_parallel(
        graph,
        rules,
        n=args.workers,
        zeta=args.zeta,
        bounds=(args.tl, args.tu),
        seed=args.seed,
        time_model=args.time_model,
    )
    with _report_file(args) as out:
        if args.format == "text":
            _write_detection_text(out, result)
            out.writelines(_report_lines(result))
        else:
            rep = result.report
            _write_detection_json(out, result, report={
                "rebalances": rep.rebalances,
                "rebalance_overhead": rep.rebalance_overhead,
                "total_time": rep.total_time,
                "supersteps": [
                    {
                        "t": s.t,
                        "worker_jobs": s.worker_jobs,
                        "worker_times": s.worker_times,
                        "shipped_edges": s.shipped_edges,
                        "rebalanced": s.rebalanced,
                    }
                    for s in rep.supersteps
                ],
            })
    return 0


def _run_sat(args) -> int:
    tgfds = parse_tgfd_file(_read(args.tgfds))
    verdict = check_satisfiability(tgfds)
    if verdict.satisfiable:
        _emit(args, "satisfiable\n")
        return 0
    c = verdict.conflict
    _emit(
        args,
        "unsatisfiable\n"
        f"anchor={c.anchor} conflict {c.literal_a} vs {c.literal_b} "
        f"on gaps [{c.interval[0]}, {c.interval[1]}]\n",
    )
    return 3


def _run_implies(args) -> int:
    tgfds = parse_tgfd_file(_read(args.tgfds))
    queries = parse_tgfd_file(_read(args.query))
    lines = []
    for query in queries:
        res = check_implication(tgfds, query)
        verdict = "implied" if res.implied else "not-implied"
        if res.entry is not None:
            validity = ",".join(f"[{lo},{hi}]" for lo, hi in res.entry.validity)
            lines.append(f"{query.name}: {verdict} via {res.entry.literal} valid on {validity}")
        else:
            lines.append(f"{query.name}: {verdict}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _run_inject(args) -> int:
    graph, tgfds = _load_inputs(args)
    mutated, ledger = inject_errors(
        graph, tgfds, args.err, args.seed, include_negative=args.negative
    )
    snap_text, changes_text = graph_to_texts(mutated)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.snapshot").write_text(snap_text, encoding="utf-8")
    Path(f"{prefix}.changes").write_text(changes_text, encoding="utf-8")
    Path(f"{prefix}.ledger").write_text(ledger_to_text(ledger), encoding="utf-8")
    _emit(
        args,
        f"pool={ledger.pool_size} positive={len(ledger.gamma_plus)} "
        f"negative={len(ledger.gamma_minus)} mutations={len(ledger.mutations)}\n",
    )
    return 0


def _run_eval(args) -> int:
    graph, tgfds = _load_inputs(args)
    ledger = ledger_from_text(_read(args.ledger))
    result = detect_sequential(graph, apply_mode(tgfds, args.mode))
    metrics = score(result.iter_violations(), ledger)
    fpr_note = "" if metrics.fpr_defined else " (no negative pool)"
    _emit(
        args,
        f"precision={metrics.precision:.6f}\n"
        f"recall={metrics.recall:.6f}\n"
        f"f1={metrics.f1:.6f}\n"
        f"fpr={metrics.fpr:.6f}{fpr_note}\n",
    )
    return 0


def _run_gen(args) -> int:
    graph = generate_synthetic(
        vertices=args.vertices,
        edges=args.edges,
        types=args.types,
        attrs=args.attrs,
        T=args.T,
        chg_rate=args.chg,
        seed=args.seed,
        profile=args.profile,
    )
    snap_text, changes_text = graph_to_texts(graph)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.snapshot").write_text(snap_text, encoding="utf-8")
    Path(f"{prefix}.changes").write_text(changes_text, encoding="utf-8")
    sys.stdout.write(
        f"vertices={args.vertices} edges={len(graph.base_edges)} T={graph.T}\n"
    )
    return 0


def _run_plan(args) -> int:
    graph, tgfds = _load_inputs(args)
    fragments = make_fragments(graph, args.workers, args.seed)
    _, _, _, jobs = job_setup(graph, normalize_all(tgfds), fragments)
    bounds = (args.tl, args.tu)
    assignment = gen_assign([clamp_job(j, bounds) for j in jobs], args.workers, bounds)
    lines = [
        f"makespan={assignment.makespan:.6g} ccost={assignment.total_cost:.6g}"
    ]
    for name, worker in sorted(assignment.mapping.items()):
        lines.append(f"job={name} worker={worker}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


_RUNNERS = {
    "detect": _run_detect,
    "detect-parallel": _run_detect_parallel,
    "sat": _run_sat,
    "implies": _run_implies,
    "inject": _run_inject,
    "eval": _run_eval,
    "gen": _run_gen,
    "plan": _run_plan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except (TgfdError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

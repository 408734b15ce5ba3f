"""Benchmark of the tgfd engine, driven through its public CLI.

Run from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --workload long --trace 1
    python3 perfbench/run.py --sweep                 # ungated scaling curves
    python3 perfbench/run.py --smoke --workload audit

One run generates its inputs from the seed (set-up; its generating step is
timed over at least SETUP_REPS repetitions), then repeats the workload's
command sequence back to back in this process (closed loop, one client) for
`--seconds`, and checks the outputs.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the metrics
are the end-to-end ones (tracing off); with `--trace 1` they are the
per-layer ones from tracer.py, measured in a separate traced run.

The program is imported from `src/` of the checkout this file lives in; the
run exits non-zero without a result line when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 3
SETUP_MIN_S = 1.5
RECORD = HERE / "record.json"

END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}
# Untraced per-command times, reported as per-layer metrics by the traced run.
COMMAND_METRICS = ["detect_s", "detect_parallel_s", "inject_s", "sat_s", "implies_s"]


def import_program():
    """Import tgfd from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tgfd.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import tgfd from {src}: {exc}") from None
    if Path(tgfd.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: tgfd imported from {tgfd.cli.__file__}, not {src}")
    return tgfd.cli


class Bench:
    """One workload run: set-up, measured cycles, checks."""

    def __init__(self, name: str, params: Dict, seed: int, work: Path, cli):
        self.name, self.params, self.seed, self.work = name, params, seed, work
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.setup_reps = 0
        self.failures: List[str] = []

    def run_cli(self, label: str, argv: List[str], expect_rc: int) -> Optional[float]:
        """Run one CLI command in-process; returns its wall time."""
        gc.collect()
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception:
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - started
        if rc != expect_rc:
            self.failures.append(f"{label}: exit {rc}, expected {expect_rc}: {err.getvalue().strip()}")
        return elapsed

    def setup(self) -> float:
        """Median time of the generating step of set-up, over at least
        SETUP_REPS repetitions and until SETUP_MIN_S of wall time have
        passed, so that cheap set-ups are steady too.  Renaming the inputs
        for the seed is benchmark code and runs once, untimed."""
        times = []
        first = None
        begun = time.perf_counter()
        while len(times) < SETUP_REPS or time.perf_counter() - begun < SETUP_MIN_S:
            gc.collect()
            started = time.perf_counter()
            written = wl.generate(self.name, self.params, self.work, self.seed, self.run_cli)
            times.append(time.perf_counter() - started)
            digest = digest_files(written)
            if first is None:
                first = digest
            elif digest != first:
                self.failures.append("set-up is not deterministic for this seed")
        wl.rename_inputs(self.name, self.params, self.work, self.seed)
        self.setup_reps = len(times)
        return statistics.median(times)

    def cycle(self) -> Dict:
        """One pass over the workload's commands: per-metric times, digests
        and bytes of the reports written."""
        times: Dict[str, float] = {}
        digests: Dict[str, str] = {}
        report_bytes = 0
        for i, step in enumerate(wl.steps(self.name, self.params, self.work)):
            elapsed = self.run_cli(step.metric, step.argv, step.expect_rc)
            if elapsed is None:
                continue
            times[step.metric] = times.get(step.metric, 0.0) + elapsed
            files = [self.work / out for out in step.outs]
            digests[f"{i}:{step.argv[0]}"] = digest_files(files)
            report_bytes += sum(f.stat().st_size for f in files if f.exists())
        return {"times": times, "cycle_s": sum(times.values()), "digests": digests,
                "report_bytes": report_bytes}

    def check(self, cycles: List[Dict], default_inputs: bool) -> None:
        digests = [c["digests"] for c in cycles]
        if any(d != digests[0] for d in digests):
            self.failures.append("outputs differ between cycles of one run")
        if default_inputs and self.seed == DEFAULT_SEED:
            recorded = json.loads(RECORD.read_text(encoding="utf-8"))["digests"].get(self.name)
            if recorded != digests[0]:
                self.failures.append(f"report digests {digests[0]} differ from the recorded {recorded}")
        if self.name == "reason":
            outputs = {p.name: p.read_text(encoding="utf-8") for p in self.work.glob("*.out")}
            self.failures += wl.check_reason(self.params, self.seed, outputs)
            return
        self.failures += wl.check_graph_outputs(self.name, self.params, self.work, self.seed)
        if self.name == "audit":
            self.run_cli("eval", [
                "eval", "--graph", str(self.work / "mutated.snapshot"),
                "--changes", str(self.work / "mutated.changes"),
                "--tgfds", str(self.work / "rules.tgfd"),
                "--ledger", str(self.work / "mutated.ledger"),
                "--out", str(self.work / "eval.out")], 0)
            scores_file = self.work / "eval.out"
            scores = scores_file.read_text(encoding="utf-8") if scores_file.exists() else ""
            if "recall=1.000000" not in scores.splitlines():
                self.failures.append(f"eval recall is not 1: {scores!r}")


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.exists() else b"<missing>")
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench: Bench, seconds: float, tracer=None):
    """Closed loop: cycles back to back for `seconds` (at least one); the
    loop stops early rather than start a cycle that would overrun.  With a
    tracer, untraced and traced cycles alternate, so that slow drifts of the
    machine fall on both alike."""
    cycles, traced = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        cycles.append(bench.cycle())
        if tracer:
            with traced_by(bench, tracer, ("traced", len(traced))):
                traced.append(bench.cycle())
        now = time.perf_counter()
        if now + (now - begun) - started > seconds:
            return cycles, traced


@contextlib.contextmanager
def traced_by(bench: Bench, tracer, group):
    """Trace the commands run inside, as phase `group`; no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.group = group
    tracer.install()
    bench.tracer = tracer
    try:
        yield
    finally:
        tracer.uninstall()
        bench.tracer = None


def median_times(cycles: List[Dict]) -> Dict[str, float]:
    return {m: statistics.median(c["times"].get(m, 0.0) for c in cycles) for m in COMMAND_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool, overrides: Dict) -> Dict:
    """Set-up, the measured loop, output checks; the traced run also traces
    set-up and checks."""
    cli = import_program()
    params = {**wl.WORKLOADS[name], **overrides}
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    bench = Bench(name, params, seed, work, cli)
    try:
        with traced_by(bench, tracer, "setup"):
            setup_s = bench.setup()
        cycles, traced = measure(bench, seconds, tracer)
        with traced_by(bench, tracer, "check"):
            bench.check([*cycles, *traced], default_inputs=not overrides)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = median_times(cycles)
    cycle_s = statistics.median(c["cycle_s"] for c in cycles)
    print(f"{name}: seed={seed} params={json.dumps(params, sort_keys=True)}")
    print(f"{name}: digests {json.dumps(cycles[0]['digests'], sort_keys=True)}")
    print(f"{name}: measured cycles "
          + " ".join(f"{c['cycle_s']:.4f}" for c in cycles)
          + ("; traced cycles " + " ".join(f"{c['cycle_s']:.4f}" for c in traced) if traced else ""))
    for m, v in times.items():
        if any(m in c["times"] for c in cycles):
            print(f"{name}: {m} {v:.6f} s (median of {len(cycles)})")
    if not tracer:
        metrics = {"setup_s": setup_s, "cycle_s": cycle_s, "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    else:
        tracer.write_spans(HERE / ".work" / f"spans-{name}.tsv")
        metrics = traced_metrics(bench, tracer, traced, times, cycle_s)
        units = per_layer_units()
        if tracer.absent:
            print(f"{name}: absent {' '.join(tracer.absent)}")
    for m in units:
        print(f"{name}: {m} {metrics.get(m, 0):.6g} {units[m]}")
    for f in bench.failures:
        sys.stderr.write(f"FAILED [{name}] {f}\n")
    failed = min(len(bench.failures), bench.attempted)
    print(f"{name}: error_rate {failed / bench.attempted:.6f} ({failed}/{bench.attempted})")
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics.get(m, 0), "unit": units[m]} for m in units},
    }


def traced_metrics(bench: Bench, tracer, traced: List[Dict], times: Dict, cycle_s: float) -> Dict:
    """Per-layer metrics: medians over traced cycles for times, counters
    from the first traced cycle (they must repeat in every cycle)."""
    per_cycle = [
        tracing.layer_metrics(tracing.spans_of(tracer, ("traced", i)), tracer.counts.get(("traced", i)))
        for i in range(len(traced))
    ]
    layer = {}
    for key in per_cycle[0]:
        if key in tracing.COUNTERS:
            if any(pc[key] != per_cycle[0][key] for pc in per_cycle):
                bench.failures.append(f"counter {key} differs between cycles")
            layer[key] = per_cycle[0][key]
        else:
            layer[key] = statistics.median(pc[key] for pc in per_cycle)
    setup_m = tracing.layer_metrics(tracing.spans_of(tracer, "setup"), None)
    check_m = tracing.layer_metrics(tracing.spans_of(tracer, "check"), None)
    layer["evaluation.gen_s"] = setup_m["evaluation.gen_s"] / bench.setup_reps
    layer["evaluation.score_s"] = check_m["evaluation.score_s"]
    layer["cli.report_bytes"] = traced[0]["report_bytes"]
    for m, v in times.items():
        layer[f"cmd.{m}"] = v
    dp = times["detect_parallel_s"]
    layer["parallel.speedup"] = times["detect_s"] / dp if dp else 0.0
    layer["trace.overhead_s"] = statistics.median(c["cycle_s"] for c in traced) - cycle_s
    layer["trace.absent"] = len(tracer.absent)
    return layer


def per_layer_units() -> Dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def parse_overrides(items: List[str]) -> Dict:
    out = {}
    for item in items:
        key, _, value = item.partition("=")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def run_children(workloads: List[str], extra: List[str]) -> List[Dict]:
    """Each workload in a fresh interpreter; returns their result lines."""
    results = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results.append(json.loads(lines[-1]) if proc.returncode == 0 and lines else
                       {"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
    return results


SWEEP = [
    ("long", "T", [25, 50, 100]),
    ("wide", "vertices", [1000, 2500, 5000]),
    ("reason", "q", [1200, 12000, 24000]),
]


def sweep(seed: int) -> int:
    """One traced cycle per point; prints per-layer times so curves show."""
    ok = True
    for name, key, values in SWEEP:
        for value in values:
            [res] = run_children([name], ["--seed", str(seed), "--seconds", "0", "--trace", "1",
                                          "--set", f"{key}={value}"])
            ok &= res["correct"]
            times = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                     if v["unit"] == "s" and v["value"]}
            print(f"sweep {name} {key}={value} {json.dumps(times)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a workload parameter (sweep points)")
    p.add_argument("--smoke", action="store_true", help="toy sizes, one cycle")
    p.add_argument("--sweep", action="store_true", help="scaling sweep (ungated)")
    args = p.parse_args(argv)

    if args.sweep:
        import_program()
        return sweep(args.seed)
    if args.workload == "all":
        import_program()
        extra = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        extra += ["--smoke"] if args.smoke else []
        results = run_children(list(wl.WORKLOADS), extra)
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(wl.WORKLOADS, results)
                        for k, v in r["metrics"].items()},
        }))
        return 0 if all(r["correct"] for r in results) else 1
    overrides = dict(wl.SMOKE[args.workload]) if args.smoke else {}
    overrides.update(parse_overrides(args.set))
    seconds = 0 if args.smoke else args.seconds
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), overrides)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

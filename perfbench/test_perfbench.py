"""Smoke tests of the benchmark itself, at toy sizes.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "ratio", "bytes"}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    res = result_of(bench("--smoke", "--workload", workload, "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_counters_repeat(workload):
    runs = [result_of(bench("--smoke", "--workload", workload, "--trace", "1", "--seed", "7"))
            for _ in range(2)]
    for res in runs:
        assert res["correct"]
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        assert res["metrics"]["trace.absent"]["value"] == 0
    counters = [
        {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in COUNT_UNITS
         and k != "parallel.speedup"}
        for res in runs
    ]
    assert counters[0] == counters[1]


def test_traced_audit_exercises_every_parallel_layer():
    res = result_of(bench("--smoke", "--workload", "audit", "--trace", "1"))
    for key in ("parallel.run_s", "parallel.worker_s", "parallel.coordinator_s",
                "evaluation.inject_s", "evaluation.score_s", "matcher.snapshot_match_s"):
        assert res["metrics"][key]["value"] > 0, key
    assert res["metrics"]["parallel.rebalances"]["value"] >= 1


def test_missing_target_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tracer

    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("x.gone", "tgfd.graph:no_such_function", None, None),
        ("x.gone", "tgfd.no_such_module:f", None, None),
    ])
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["tgfd.graph:no_such_function", "tgfd.no_such_module:f"]
    finally:
        t.uninstall()
    import tgfd.cli
    import tgfd.graph

    assert tgfd.cli.load_graph is tgfd.graph.load_graph
    assert not hasattr(tgfd.graph.load_graph, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "reason", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_violation_check_rejects_false_reports():
    sys.path.insert(0, str(HERE))
    import workloads

    snapshot = (
        "v v0 T0 a0=val1 a1=val2 a2=val0\nv v1 T1 a0=val0 a1=val3 a2=val0\n"
        "v v2 T0 a0=val1 a1=val0 a2=val0\nv v3 T1 a0=val0 a1=val4 a2=val0\n"
        "e v0 l0 v1\ne v2 l0 v3\n"
    )
    changes = "t 2\n+a v3 a1=val3\n"

    def check(line):
        return workloads.check_violations(line + "\n", snapshot, changes, 1, workloads.RULES)

    assert check("r1 PAIR t_i=1 t_j=1 x=v0,y=v1 x=v2,y=v3") == []
    assert check("r1 PAIR t_i=2 t_j=2 x=v0,y=v1 x=v2,y=v3")  # y.a1 agrees at t=2
    assert check("r1 PAIR t_i=1 t_j=1 x=v0,y=v1 x=v2,y=v1")  # no edge v2 l0 v1
    assert check("r9 PAIR t_i=1 t_j=1 x=v0,y=v1 x=v2,y=v3")  # unknown rule


def test_expected_counts_by_brute_force():
    sys.path.insert(0, str(HERE))
    import workloads

    snapshot = (
        "v v0 T0 a0=val1 a1=val2 a2=val0\nv v1 T1 a0=val0 a1=val3 a2=val0\n"
        "v v2 T0 a0=val1 a1=val0 a2=val0\nv v3 T1 a0=val0 a1=val4 a2=val0\n"
        "v v4 T2 a0=val1\nv v5 T3 a2=val2\ne v0 l0 v1\ne v2 l0 v3\ne v4 l2 v5\n"
    )
    changes = "t 2\n+a v3 a1=val3\n+a v5 a2=val3\n"
    # r1: the two matches disagree on y.a1 at t=1, and the second match of
    # t=1 disagrees with both matches of t=2; r3: v5.a2 is not val3 at t=1.
    counts = workloads.expected_counts(snapshot, changes, workloads.RULES)
    assert counts == {"r1": 3, "r2": 0, "r3": 1}

"""Workload inputs, command sequences and output checks.

Every workload is driven through the public CLI (`tgfd.cli.main`) in this
process.  `generate()` is the timed part of set-up and `rename_inputs()`
the untimed rest: together they write the inputs of a seed.  `steps()` is
the command sequence of one measured cycle; `check_graph_outputs()` and
`check_reason()` return the failed output checks of the last cycle's files.
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# Graph generator settings shared by the graph workloads (E = 3 V).
# LABELS and VALUES are the generator's fixed label and value pool sizes.
TYPES, ATTRS, CHG, LABELS, VALUES = 4, 3, 0.04, 3, 8
# Every graph workload generates its graph, and seeds inject and
# detect-parallel, with this seed; the run's seed picks the renaming (Naming).
GEN_SEED = 1

# The rule set every graph workload detects: (name, vertices, edges,
# (p, q), X literal, Y literal); a literal is (var, attr, constant or None
# for the self form `v.a == v.a`).
RULES = (
    ("r1", (("x", "T0"), ("y", "T1")), (("x", "l0", "y"),), (0, 3),
     ("x", "a0", None), ("y", "a1", None)),
    ("r2", (("x", "T0"), ("y", "T1"), ("z", "T2")), (("x", "l0", "y"), ("y", "l1", "z")), (1, 2),
     ("z", "a0", None), ("x", "a1", None)),
    ("r3", (("x", "T2"), ("y", "T3")), (("x", "l2", "y"),), (0, 0),
     ("x", "a0", "val1"), ("y", "a2", "val3")),
)

# The CONFLICT pair from tests/conftest.py: the plain rule wants 100mg, the
# symptom-augmented rule wants 20mL over the same interval.
CONFLICT_RULES = """\
tgfd base_dosage
vertex x patient
vertex z disease
vertex y medication
vertex w dosage
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (30, 120)
x: x.name == x.name; z.name = "Covid19"; y.name = "Veklury"
y: w.val = "100mg"

tgfd symptom_dosage
vertex x patient
vertex r symptom
vertex z disease
vertex y medication
vertex w dosage
edge x shows r
edge x diagnosed z
edge x prescribed y
edge y dose w
delta (30, 120)
x: x.name == x.name; r.name == r.name; z.name = "Covid19"; y.name = "Veklury"
y: w.val = "20mL"
"""

# Workload parameters; `--set key=value` overrides them (sweep, smoke).
WORKLOADS: Dict[str, Dict[str, object]] = {
    "wide": {"vertices": 2000, "T": 10, "profile": "skewed_ei"},
    "long": {"vertices": 500, "T": 100, "profile": "skewed_au"},
    "audit": {"vertices": 500, "T": 20, "profile": "uniform", "err": 0.03, "tl": 30},
    "reason": {"q": 12000},
}

SMOKE: Dict[str, Dict[str, object]] = {
    "wide": {"vertices": 60, "T": 4},
    "long": {"vertices": 40, "T": 10},
    "audit": {"vertices": 60, "T": 6},
    "reason": {"q": 300},
}


@dataclass
class Step:
    metric: str             # per-command metric the step's time adds to
    argv: List[str]
    expect_rc: int
    outs: List[str]         # files the step writes, relative to work


def rules_text() -> str:
    blocks = []
    for name, vertices, edges, (p, q), x, y in RULES:
        lines = [f"tgfd {name}"]
        lines += [f"vertex {v} {label}" for v, label in vertices]
        lines += [f"edge {s} {label} {d}" for s, label, d in edges]
        lines.append(f"delta ({p}, {q})")
        for tag, (var, attr, const) in (("x", x), ("y", y)):
            rhs = f'"{const}"' if const is not None else None
            lines.append(f"{tag}: {var}.{attr} = {rhs}" if rhs else f"{tag}: {var}.{attr} == {var}.{attr}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def _graph_paths(work: Path, prefix: str) -> List[str]:
    return ["--graph", str(work / f"{prefix}.snapshot"), "--changes", str(work / f"{prefix}.changes")]


class Naming:
    """Seeded renaming of vertex ids, types, labels, attribute names and
    values.  Applied to one generated graph and to the rules, it gives every
    seed an isomorphic instance: the same detection work per cycle, with
    other names and therefore other sort and hash orders.  `tgfd inject`
    picks its errors in name order, so on audit the mutated graph, and with
    it the work, still differs a little from seed to seed."""

    TOKEN = re.compile(r"\b(v|T|l|a|val)(\d+)\b")

    def __init__(self, seed: int, params: Dict):
        rng = random.Random(seed)
        sizes = {"v": int(params["vertices"]), "T": TYPES, "l": LABELS, "a": ATTRS, "val": VALUES}
        self.map: Dict[str, Dict[str, str]] = {}
        for prefix, n in sizes.items():
            order = list(range(n))
            rng.shuffle(order)
            self.map[prefix] = {str(i): str(j) for i, j in enumerate(order)}

    def _sub(self, m) -> str:
        return m.group(1) + self.map[m.group(1)].get(m.group(2), m.group(2))

    def rename(self, text: str) -> str:
        return self.TOKEN.sub(self._sub, text)

    def rules(self) -> Tuple:
        """RULES under this naming."""
        r = self.rename

        def literal(var, attr, const):
            return (var, r(attr), r(const) if const is not None else None)

        return tuple(
            (name, tuple((v, r(t)) for v, t in vs), tuple((a, r(lab), b) for a, lab, b in es), d,
             literal(*x), literal(*y))
            for name, vs, es, d, x, y in RULES
        )


def generate(name: str, params: Dict, work: Path, seed: int, run_cli) -> List[Path]:
    """The timed part of set-up: `tgfd gen` for a graph workload, the
    seeded rule files for reason.  Returns the files written."""
    if name == "reason":
        texts = _reason_texts(params, seed)
        for fname, text in texts.items():
            (work / fname).write_text(text, encoding="utf-8")
        return [work / fname for fname in texts]
    v = int(params["vertices"])
    run_cli("gen", [
        "gen", "--vertices", str(v), "--edges", str(3 * v), "--types", str(TYPES),
        "--attrs", str(ATTRS), "--T", str(params["T"]), "--chg", str(CHG),
        "--profile", str(params["profile"]), "--seed", str(GEN_SEED),
        "--out-prefix", str(work / "generated"),
    ], 0)
    return [work / "generated.snapshot", work / "generated.changes"]


def rename_inputs(name: str, params: Dict, work: Path, seed: int) -> None:
    """The untimed part of set-up: write the rules and the generated graph
    under the seed's naming (graph workloads only)."""
    if name == "reason":
        return
    naming = Naming(seed, params)
    (work / "rules.tgfd").write_text(naming.rename(rules_text()), encoding="utf-8")
    for ext in ("snapshot", "changes"):
        text = (work / f"generated.{ext}").read_text(encoding="utf-8")
        (work / f"graph.{ext}").write_text(naming.rename(text), encoding="utf-8")


def steps(name: str, params: Dict, work: Path) -> List[Step]:
    rules = ["--tgfds", str(work / "rules.tgfd")]
    if name in ("wide", "long"):
        return [Step("detect_s", ["detect", *_graph_paths(work, "graph"), *rules,
                                  "--out", str(work / "detect.out")], 0, ["detect.out"])]
    if name == "audit":
        mutated = _graph_paths(work, "mutated")
        return [
            Step("inject_s", ["inject", *_graph_paths(work, "graph"), *rules,
                              "--err", str(params["err"]), "--negative", "--seed", str(GEN_SEED),
                              "--out-prefix", str(work / "mutated")], 0,
                 ["mutated.snapshot", "mutated.changes", "mutated.ledger"]),
            Step("detect_s", ["detect", *mutated, *rules, "--out", str(work / "detect.out")],
                 0, ["detect.out"]),
            Step("detect_parallel_s", [
                "detect-parallel", *mutated, *rules, "--workers", "2", "--time-model", "size",
                "--tl", str(params["tl"]), "--tu", "inf", "--seed", str(GEN_SEED),
                "--out", str(work / "parallel.out")], 0, ["parallel.out"]),
        ]
    if name == "reason":
        return [
            Step("sat_s", ["sat", "--tgfds", str(work / "conflict.tgfd"),
                           "--out", str(work / "sat_conflict.out")], 3, ["sat_conflict.out"]),
            Step("sat_s", ["sat", "--tgfds", str(work / "disjoint.tgfd"),
                           "--out", str(work / "sat_disjoint.out")], 0, ["sat_disjoint.out"]),
            Step("implies_s", ["implies", "--tgfds", str(work / "conflict.tgfd"),
                               "--query", str(work / "narrow.tgfd"),
                               "--out", str(work / "implies_narrow.out")], 0, ["implies_narrow.out"]),
            Step("implies_s", ["implies", "--tgfds", str(work / "disjoint.tgfd"),
                               "--query", str(work / "wide.tgfd"),
                               "--out", str(work / "implies_wide.out")], 0, ["implies_wide.out"]),
        ]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# reason inputs
# ---------------------------------------------------------------------------


def _reason_tokens(seed: int) -> Dict[str, str]:
    rng = random.Random(seed)
    first, second = sorted(rng.sample(range(10 ** 6), 2))
    return {
        "Covid19": f"dis{rng.randrange(10 ** 6)}",
        "Veklury": f"med{rng.randrange(10 ** 6)}",
        "100mg": f"{first}mg",
        "20mL": f"{second}mL",
    }


def _reason_texts(params: Dict, seed: int) -> Dict[str, str]:
    q = int(params["q"])
    text = CONFLICT_RULES
    for old, new in _reason_tokens(seed).items():
        text = text.replace(f'"{old}"', f'"{new}"')
    conflict = text.replace("delta (30, 120)", f"delta (30, {q})")
    disjoint = conflict.replace(
        f"delta (30, {q})\nx: x.name == x.name; r.name == r.name",
        "delta (20, 25)\nx: x.name == x.name; r.name == r.name",
    )
    base = conflict.split("\n\n")[0] + "\n"
    return {
        "conflict.tgfd": conflict,
        "disjoint.tgfd": disjoint,
        "narrow.tgfd": base.replace("tgfd base_dosage", "tgfd narrow")
        .replace(f"delta (30, {q})", f"delta (40, {q - 10})"),
        "wide.tgfd": base.replace("tgfd base_dosage", "tgfd wide")
        .replace(f"delta (30, {q})", f"delta (10, {q + 10})"),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_PAIR = re.compile(r"^(\w+) PAIR t_i=(\d+) t_j=(\d+) (\S+) (\S+)$")
_CONST = re.compile(r"^(\w+) CONST t=(\d+) (\S+) failed=(\S+)$")


def _binding(text: str) -> Dict[str, str]:
    return dict(item.split("=", 1) for item in text.split(","))


def violation_lines(report: str) -> List[str]:
    return [l for l in report.splitlines() if " PAIR " in l or " CONST " in l]


def _parse_violation(line: str, rules: Dict) -> Optional[Tuple]:
    """(rule, kind, [(t, binding), ...]), or None for a line that does not
    parse or names no known rule."""
    m = _PAIR.match(line)
    try:
        if m:
            kind = "PAIR"
            sides = [(int(m.group(2)), _binding(m.group(4))), (int(m.group(3)), _binding(m.group(5)))]
        else:
            m = _CONST.match(line)
            if not m:
                return None
            kind, sides = "CONST", [(int(m.group(2)), _binding(m.group(3)))]
    except ValueError:
        return None
    return (m.group(1), kind, sides) if m.group(1) in rules else None


def _replay(snapshot: str, changes: str, wanted: Optional[set] = None):
    """Yield (t, types, edges, attrs) for every wanted t (every t when
    None), replaying the snapshot and change files independently of tgfd's
    loader."""
    types: Dict[str, str] = {}
    attrs: Dict[str, Dict[str, str]] = {}
    edges: set = set()
    for line in snapshot.splitlines():
        tok = line.split()
        if tok and tok[0] == "v":
            types[tok[1]] = tok[2]
            attrs[tok[1]] = dict(a.split("=", 1) for a in tok[3:])
        elif tok and tok[0] == "e":
            edges.add(tuple(tok[1:4]))
    by_t: Dict[int, List[List[str]]] = {}
    current = None
    for line in changes.splitlines():
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "t":
            current = by_t.setdefault(int(tok[1]), [])
        else:
            current.append(tok)
    last = max([1, *by_t])
    for t in range(1, last + 1):
        for tok in by_t.get(t, ()):
            if tok[0] == "+e":
                edges.add(tuple(tok[1:4]))
            elif tok[0] == "-e":
                edges.discard(tuple(tok[1:4]))
            elif tok[0] == "+a":
                k, v = tok[2].split("=", 1)
                attrs.setdefault(tok[1], {})[k] = v
            elif tok[0] == "-a":
                attrs.get(tok[1], {}).pop(tok[2], None)
        if wanted is None or t in wanted:
            yield t, types, edges, attrs


def check_violations(report: str, snapshot: str, changes: str, seed: int, rules,
                     k: int = 40) -> List[str]:
    """Re-derive a seeded sample of k reported violations from the input files."""
    rules = {r[0]: r for r in rules}
    lines = violation_lines(report)
    failures, sample = [], []
    for line in random.Random(seed).sample(lines, min(k, len(lines))):
        parsed = _parse_violation(line, rules)
        if parsed is None:
            failures.append(f"unparsable violation line: {line}")
        else:
            sample.append((*parsed, line))
    wanted = {t for _, _, sides, _ in sample for t, _ in sides}
    values: Dict[Tuple[int, str], Tuple] = {}
    for t, types, edges, attrs in _replay(snapshot, changes, wanted):
        for rule, _, sides, line in sample:
            _, pvars, pedges, _, x, y = rules[rule]
            for side, (ts, b) in enumerate(sides):
                if ts != t:
                    continue
                ok = (set(b) == {v for v, _ in pvars}
                      and len(set(b.values())) == len(b)
                      and all(types.get(b[v]) == label for v, label in pvars)
                      and all((b[s], label, b[d]) in edges for s, label, d in pedges))
                values[(side, line)] = (
                    (True, attrs.get(b[x[0]], {}).get(x[1]), attrs.get(b[y[0]], {}).get(y[1]))
                    if ok else (False, None, None)
                )
    for rule, kind, sides, line in sample:
        _, _, _, (p, q), x, y = rules[rule]
        got = [values.get((side, line)) for side in range(len(sides))]
        if any(g is None or not g[0] for g in got):
            failures.append(f"not a match at its timestamp: {line}")
        elif kind == "CONST":
            xv, yv = got[0][1], got[0][2]
            if x[2] is None or y[2] is None or xv != x[2] or yv == y[2]:
                failures.append(f"constant violation does not hold: {line}")
        else:
            (t_i, _), (t_j, _) = sides
            (_, xi, yi), (_, xj, yj) = got
            if not (p <= t_j - t_i <= q) or xi is None or xi != xj or (yi == yj and yi is not None):
                failures.append(f"pair violation does not hold: {line}")
    return failures


def _matches(pvars, pedges, types: Dict[str, str], edges: set) -> List[Dict[str, str]]:
    """Every injective, type- and edge-preserving binding of a pattern whose
    variables all lie on its edges, by extending bindings edge by edge."""
    want = dict(pvars)
    by_label: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
    out: Dict[Tuple[str, str], List[str]] = defaultdict(list)
    for s, label, d in edges:
        by_label[label].append((s, d))
        out[(s, label)].append(d)
    bindings: List[Dict[str, str]] = [{}]
    for s, label, d in pedges:
        grown = []
        for b in bindings:
            pairs = [(b[s], dst) for dst in out.get((b[s], label), ())] if s in b else by_label[label]
            for vs, vd in pairs:
                if types.get(vs) != want[s] or types.get(vd) != want[d] or b.get(d, vd) != vd:
                    continue
                nb = {**b, s: vs, d: vd}
                if len(set(nb.values())) == len(nb):
                    grown.append(nb)
        bindings = grown
    return bindings


def expected_counts(snapshot: str, changes: str, rules) -> Dict[str, int]:
    """Violations per rule, counted by brute force from the input files:
    every match of each pattern at every timestamp; for a constant
    consequent, each match whose X holds and Y fails; otherwise each pair
    of matches with equal X values, timestamps p <= |t_i - t_j| <= q and Y
    values not equal (or missing).  Shares no code with tgfd, so violations
    that the engine drops or invents show as a count that differs."""
    counts = {r[0]: 0 for r in rules}
    # rule -> X value -> t -> number of matches per Y value (None: missing)
    classes: Dict[str, Dict[str, Dict[int, Counter]]] = {r[0]: {} for r in rules}
    for t, types, edges, attrs in _replay(snapshot, changes):
        for name, pvars, pedges, _, x, y in rules:
            for b in _matches(pvars, pedges, types, edges):
                xv = attrs.get(b[x[0]], {}).get(x[1])
                if xv is None or (x[2] is not None and xv != x[2]):
                    continue
                yv = attrs.get(b[y[0]], {}).get(y[1])
                if y[2] is not None:
                    counts[name] += yv != y[2]
                else:
                    classes[name].setdefault(xv, {}).setdefault(t, Counter())[yv] += 1
    for name, _, _, (p, q), _, _ in rules:
        for by_t in classes[name].values():
            for ti, ci in by_t.items():
                ni = sum(ci.values())
                for tj, cj in by_t.items():
                    if ti == tj and p == 0:
                        agree = sum(c * (c - 1) // 2 for yv, c in ci.items() if yv is not None)
                        counts[name] += ni * (ni - 1) // 2 - agree
                    elif ti < tj and p <= tj - ti <= q:
                        agree = sum(c * cj[yv] for yv, c in ci.items() if yv is not None)
                        counts[name] += ni * sum(cj.values()) - agree
    return counts


def check_reason(params: Dict, seed: int, outputs: Dict[str, str]) -> List[str]:
    q = int(params["q"])
    tok = _reason_tokens(seed)
    failures = []
    sat = outputs.get("sat_conflict.out", "")
    want = f"on gaps [30, {q}]"
    if not (sat.startswith("unsatisfiable\nanchor=symptom_dosage conflict ")
            and want in sat and tok["100mg"] in sat and tok["20mL"] in sat):
        failures.append(f"sat on CONFLICT: unexpected verdict {sat!r}")
    if outputs.get("sat_disjoint.out") != "satisfiable\n":
        failures.append(f"sat on disjoint: unexpected verdict {outputs.get('sat_disjoint.out')!r}")
    if not outputs.get("implies_narrow.out", "").startswith("narrow: implied "):
        failures.append(f"implies narrow: unexpected verdict {outputs.get('implies_narrow.out')!r}")
    if not outputs.get("implies_wide.out", "").startswith("wide: not-implied"):
        failures.append(f"implies wide: unexpected verdict {outputs.get('implies_wide.out')!r}")
    return failures


def check_graph_outputs(name: str, params: Dict, work: Path, seed: int) -> List[str]:
    """Checks of the detection reports of a graph workload."""
    failures = []
    prefix = "mutated" if name == "audit" else "graph"
    detect = (work / "detect.out").read_text(encoding="utf-8")
    nontrivial = [l for l in detect.splitlines() if l.startswith("# ")]
    if [l.split()[1] for l in nontrivial] != [r[0] for r in RULES]:
        failures.append(f"detect report lacks one nontrivial line per rule: {nontrivial}")
    snapshot = (work / f"{prefix}.snapshot").read_text(encoding="utf-8")
    changes = (work / f"{prefix}.changes").read_text(encoding="utf-8")
    rules = Naming(seed, params).rules()
    reported = Counter(line.split()[0] for line in violation_lines(detect))
    expected = expected_counts(snapshot, changes, rules)
    if reported != Counter(expected):
        failures.append(f"violations per rule {dict(reported)} differ from the expected {expected}")
    failures += check_violations(detect, snapshot, changes, seed, rules)
    if name == "audit":
        parallel = (work / "parallel.out").read_text(encoding="utf-8")
        if violation_lines(parallel) != violation_lines(detect):
            failures.append("detect-parallel violation lines differ from detect's")
        if [l for l in parallel.splitlines() if l.startswith("# ")] != nontrivial:
            failures.append("detect-parallel nontrivial lines differ from detect's")
    return failures

"""Error injection, scoring, and synthetic temporal graph generation.

Positive errors break the consequent of sampled satisfying match pairs;
negative errors retarget a consequent value into another rule's antecedent
domain.  Injection is two detections: every rule's pool of satisfying
pairs comes from the entries that detection on the clean graph profiled,
and the ledger is detection on the mutated graph minus detection on the
clean graph, by scoring identity.  Scoring compares detected violations
against the ledger over canonical pair identities.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import InvalidLedger, InvalidOption
from .graph import (
    AttrDelete,
    AttrSet,
    Change,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    TemporalGraph,
    Vertex,
    apply_changes,
)
from .model import (
    ConstantLiteral,
    Literal,
    Tgfd,
    normalize_all,
)
from .detection import (
    IndexEntry,
    MatchIndex,
    Violation,
    detect_sequential,
    identity_diff,
    pair_id,
    window_pairs,
)

CHANGE_PROFILES = {
    "uniform": (0.40, 0.30, 0.30),      # attr updates, edge deletions, edge insertions
    "skewed_au": (0.85, 0.075, 0.075),
    "skewed_ed": (0.075, 0.85, 0.075),
    "skewed_ei": (0.075, 0.075, 0.85),
}
# edge labels and attribute values of a generated graph; perfbench's
# workloads repeat these sizes as LABELS and VALUES
GEN_LABELS = 3
GEN_VALUES = 8


@dataclass(frozen=True)
class Mutation:
    t: int
    vid: str
    attr: str
    old: Optional[str]
    new: str
    kind: str = "+"


@dataclass
class InjectionLedger:
    gamma_plus: List[Tuple] = field(default_factory=list)
    gamma_minus: List[Tuple] = field(default_factory=list)
    mutations: List[Mutation] = field(default_factory=list)
    pool_size: int = 0
    sampled_positive: int = 0
    sampled_negative: int = 0
    flags: List[str] = field(default_factory=list)

    def plus_set(self) -> Set[Tuple]:
        return set(self.gamma_plus)

    def minus_set(self) -> Set[Tuple]:
        return set(self.gamma_minus)


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    fpr: float
    f1: float
    fpr_defined: bool = True


def apply_mutations(graph: TemporalGraph, mutations: Sequence[Mutation]) -> TemporalGraph:
    """graph with each mutation's slot holding its new value at its t only
    (a later mutation of the same slot and t wins).

    Each rewritten slot becomes change-set edits: a set at the end of change
    set t (in the base attributes at t = 1) and, below T, a restore of the
    slot's own value at t at the start of change set t + 1, so that set's
    own changes still apply after it.  The result is built like a loaded
    graph, in one pass, each change set checked as it is applied.
    """
    final = {(m.t, m.vid, m.attr): m.new for m in mutations}
    base = dict(graph.base_attrs)
    first: Dict[int, List[Change]] = {}
    last: Dict[int, List[Change]] = {}
    for (t, vid, attr), value in sorted(final.items()):
        if t == 1:
            base[vid] = {**base.get(vid, {}), attr: value}
        else:
            last.setdefault(t, []).append(AttrSet(vid, attr, value))
        if t < graph.T:
            own = graph.snapshot(t).attr(vid, attr)
            restore = AttrDelete(vid, attr) if own is None else AttrSet(vid, attr, own)
            first.setdefault(t + 1, []).append(restore)
    return apply_changes(
        TemporalGraph(graph.vertices, graph.base_edges, base),
        *(
            ChangeSet(cs.t, (*first.get(cs.t, ()), *cs.changes, *last.get(cs.t, ())))
            for cs in graph.changesets
        ),
    )


def _y_target(sigma: Tgfd) -> Tuple[str, str]:
    """The (variable, attribute) of a pool pair's later match that its
    consequent reads, and inject writes.  Pool pairs satisfy X as (earlier,
    later), and that orientation reads a variable literal's right-hand side,
    var2.attr2, on the later match."""
    lit = sigma.y_literal
    if isinstance(lit, ConstantLiteral):
        return lit.var, lit.attr
    return lit.var2, lit.attr2


def _attr_names(literals: Iterable[Literal]) -> Set[str]:
    names = set()
    for lit in literals:
        if isinstance(lit, ConstantLiteral):
            names.add(lit.attr)
        else:
            names.update((lit.attr1, lit.attr2))
    return names


def _domain_values(graph: TemporalGraph, attr: str) -> List[str]:
    """Every value attr takes at some t: in the base map or a slot's versions."""
    values = {named[attr] for named in graph.base_attrs.values() if attr in named}
    values.update(v for (_, name), (_, held) in graph.versions.items() if name == attr for v in held)
    values.discard(None)
    return sorted(values)


def _donor_values(graph: TemporalGraph, rules: Sequence[Tgfd], name: str, attr: str) -> List[str]:
    """The values a negative error of rule name may write to attr: the
    constants that the other rules reading attr in X give it or, when they
    give it none, every value attr takes in the graph."""
    donors = [
        other for other in rules if other.name != name and attr in _attr_names(other.x_literals)
    ]
    values = {
        lit.value
        for other in donors
        for lit in other.x_literals
        if isinstance(lit, ConstantLiteral) and lit.attr == attr
    }
    if donors and not values:
        return _domain_values(graph, attr)
    return sorted(values)


def inject_errors(
    graph: TemporalGraph,
    tgfds: Sequence[Tgfd],
    err_rate: float,
    seed: int,
    include_negative: bool = False,
) -> Tuple[TemporalGraph, InjectionLedger]:
    """Mutate consequent values of sampled satisfying pairs.

    A rule's pool is the window pairs (earlier, later) of the entries that
    detection on graph indexed that satisfy X and Y in that orientation.
    Positive errors write a fresh out-of-domain value; negative errors write
    a value drawn from the antecedent domain of another rule sharing the
    attribute name.  The ledger holds, by scoring identity, what detection
    finds on the mutated graph and not on graph, collateral pairs included:
    only pairs holding a mutated match can differ.
    """
    if not 0 <= err_rate <= 1:
        raise InvalidOption("error rate must lie in [0, 1]")
    rules = normalize_all(tgfds)
    rng = random.Random(seed)
    ledger = InjectionLedger()

    # Each rule's pool: its clean entries (the plan's table, in insertion
    # order) indexed again, and their window pairs that satisfy X and Y.
    clean = detect_sequential(graph, rules)
    pools: Dict[str, List[Tuple[IndexEntry, IndexEntry]]] = {}
    for sigma in rules:
        plan = clean.found[sigma.name].plan
        index = MatchIndex(plan)
        for entry in plan.table:
            index.insert(entry)
        x_ok, y_ok = plan.pair_x_ok, plan.pair_y_ok
        pool = pools[sigma.name] = [
            (a, b) for a, b in window_pairs(index, sigma.delta) if x_ok(a, b) and y_ok(a, b)
        ]
        pool.sort(key=lambda p: (p[0].t, p[1].t, p[0].items, p[1].items))
    ledger.pool_size = sum(len(p) for p in pools.values())

    written: Dict[Tuple[int, str, str], str] = {}
    counter = 0
    for sigma in sorted(rules, key=lambda s: s.name):
        pool = pools[sigma.name]
        want_pos = round(err_rate * len(pool))
        want_neg = round(err_rate * len(pool)) if include_negative else 0
        if want_pos + want_neg > len(pool):
            ledger.flags.append(
                f"insufficient-pairs:{sigma.name}:{len(pool)}<{want_pos + want_neg}"
            )
        order = list(range(len(pool)))
        rng.shuffle(order)
        taken: Set[Tuple] = set()
        picked_pos: List[Tuple[IndexEntry, IndexEntry]] = []
        picked_neg: List[Tuple[IndexEntry, IndexEntry]] = []
        for idx in order:
            hi, hj = pool[idx]
            endpoint = (hj.t, hj.items)
            if endpoint in taken:
                continue
            taken.add(endpoint)
            if len(picked_pos) < want_pos:
                picked_pos.append((hi, hj))
            elif len(picked_neg) < want_neg:
                picked_neg.append((hi, hj))
            else:
                break

        var, attr = _y_target(sigma)
        target = clean.found[sigma.name].plan.slot[var]  # var's place in a match's items
        donors: Optional[List[str]] = None  # drawn at the rule's first negative error
        for kind, picked in (("+", picked_pos), ("-", picked_neg)):
            for hi, hj in picked:
                vid = hj.items[target][1]
                slot = (hj.t, vid, attr)
                old = written[slot] if slot in written else graph.snapshot(hj.t).attr(vid, attr)
                if kind == "+":
                    new = f"__err{counter}__"
                else:
                    if donors is None:
                        donors = _donor_values(graph, rules, sigma.name, attr)
                    candidates = [v for v in donors if v != old]
                    if candidates:
                        new = rng.choice(candidates)
                    else:
                        new = f"__neg{counter}__"
                        ledger.flags.append(f"negative-degraded:{sigma.name}")
                counter += 1
                written[slot] = new
                ledger.mutations.append(Mutation(hj.t, vid, attr, old, new, kind))
        ledger.sampled_positive += len(picked_pos)
        ledger.sampled_negative += len(picked_neg)

    mutated = apply_mutations(graph, ledger.mutations)

    # The ledger: detection on mutated minus detection on graph, by scoring
    # identity.
    dirty = detect_sequential(mutated, rules)
    negative = {(m.t, m.vid) for m in ledger.mutations if m.kind == "-"}
    plus: List[Tuple] = []
    minus: List[Tuple] = []
    for name, keyed in dirty.found.items():
        for key in identity_diff(keyed, clean.found[name]):
            hit_negative = any((t, vid) in negative for t, ids in key[1:] for vid in ids)
            (minus if hit_negative else plus).append(key)

    ledger.gamma_plus = sorted(plus)
    ledger.gamma_minus = sorted(minus)
    return mutated, ledger


def score(violations: Iterable[Violation], ledger: InjectionLedger) -> Metrics:
    """Precision/recall/false-positive rate over canonical pair identities."""
    detected = {pair_id(v) for v in violations}
    plus = ledger.plus_set()
    minus = ledger.minus_set()
    if detected:
        precision = len(detected & plus) / len(detected)
    else:
        precision = 1.0
    if plus:
        recall = len(detected & plus) / len(plus)
    else:
        recall = 1.0
    if minus:
        fpr = len(detected & minus) / len(minus)
        fpr_defined = True
    else:
        fpr = 0.0
        fpr_defined = False
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return Metrics(precision=precision, recall=recall, fpr=fpr, f1=f1, fpr_defined=fpr_defined)


def _key_from_json(row: Sequence) -> Tuple:
    tgfd, (ti, ids_i), (tj, ids_j) = row
    return (tgfd, (ti, tuple(ids_i)), (tj, tuple(ids_j)))


def _json_list(items: List[str], pad: str) -> str:
    """A JSON list of already encoded items, laid out as
    `json.dumps(indent=2)` lays out a list opened at indentation pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def ledger_to_text(ledger: InjectionLedger) -> str:
    """The ledger as `json.dumps(doc, indent=2, sort_keys=True) + "\\n"`
    writes its document, written directly: the pure-Python encoder that
    indent selects costs more than the rest of inject's output.  A key's
    sides repeat across keys, so each side is encoded once."""
    sides: Dict[Tuple, str] = {}

    def side(t: int, ids: Tuple[str, ...]) -> str:
        text = sides.get((t, ids))
        if text is None:
            encoded = _json_list([encode_basestring_ascii(v) for v in ids], "        ")
            text = sides[(t, ids)] = f"[\n        {t},\n        {encoded}\n      ]"
        return text

    def keys_json(keys: List[Tuple]) -> str:
        return _json_list([
            f"[\n      {encode_basestring_ascii(tgfd)},\n      {side(*i)},\n      {side(*j)}\n    ]"
            for tgfd, i, j in keys
        ], "  ")

    mutations = [
        _json_list([str(m.t), *(
            "null" if v is None else encode_basestring_ascii(v)  # old is None when unset
            for v in (m.vid, m.attr, m.old, m.new, m.kind)
        )], "    ")
        for m in ledger.mutations
    ]
    fields = [
        ("flags", _json_list([encode_basestring_ascii(f) for f in ledger.flags], "  ")),
        ("gamma_minus", keys_json(ledger.gamma_minus)),
        ("gamma_plus", keys_json(ledger.gamma_plus)),
        ("mutations", _json_list(mutations, "  ")),
        ("pool_size", str(ledger.pool_size)),
        ("sampled_negative", str(ledger.sampled_negative)),
        ("sampled_positive", str(ledger.sampled_positive)),
    ]
    return "{\n" + ",\n".join(f'  "{name}": {value}' for name, value in fields) + "\n}\n"


def ledger_from_text(text: str) -> InjectionLedger:
    doc = json.loads(text)
    try:
        return InjectionLedger(
            gamma_plus=[_key_from_json(r) for r in doc["gamma_plus"]],
            gamma_minus=[_key_from_json(r) for r in doc["gamma_minus"]],
            mutations=[Mutation(*row) for row in doc["mutations"]],
            pool_size=doc["pool_size"],
            sampled_positive=doc["sampled_positive"],
            sampled_negative=doc["sampled_negative"],
            flags=list(doc["flags"]),
        )
    except KeyError as exc:
        raise InvalidLedger(f"ledger lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidLedger(f"malformed ledger: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic graphs
# ---------------------------------------------------------------------------


def generate_synthetic(
    vertices: int,
    edges: int,
    types: int,
    attrs: int,
    T: int,
    chg_rate: float,
    seed: int,
    profile: str = "uniform",
) -> TemporalGraph:
    """Random typed graph evolved over T timestamps.

    Per timestamp the change count is chg_rate times the base edge count,
    split per the profile (nearest integer, remainder to attribute updates).
    A timestamp whose edge insertions exceed the free edge slots raises
    InvalidOption.
    """
    if profile not in CHANGE_PROFILES:
        raise InvalidOption(f"unknown profile {profile!r}")
    if vertices < 2 or T < 1:
        raise InvalidOption("need at least two vertices and one timestamp")
    if types < 1:
        raise InvalidOption("need at least one vertex type")
    if edges < 0 or attrs < 0:
        raise InvalidOption("edge and attribute counts must be >= 0")
    room = vertices * (vertices - 1) * GEN_LABELS  # distinct non-loop edges
    if edges > room:
        raise InvalidOption(
            f"{edges} edges exceed the {room} that {vertices} vertices and "
            f"{GEN_LABELS} labels can hold"
        )
    if not (chg_rate >= 0 and math.isfinite(chg_rate)):
        raise InvalidOption(f"change rate {chg_rate} must be a finite number >= 0")
    rng = random.Random(seed)

    vids = [f"v{i}" for i in range(vertices)]
    vertex_map = {vid: Vertex(vid, f"T{rng.randrange(types)}") for vid in vids}
    labels = [f"l{i}" for i in range(GEN_LABELS)]
    attr_names = [f"a{i}" for i in range(attrs)]
    values = [f"val{i}" for i in range(GEN_VALUES)]

    edge_set: Set[Tuple[str, str, str]] = set()
    guard = 0
    while len(edge_set) < edges and guard < edges * 50:
        guard += 1
        src, dst = rng.choice(vids), rng.choice(vids)
        if src == dst:
            continue
        edge_set.add((src, rng.choice(labels), dst))
    attr_map = {
        vid: {name: rng.choice(values) for name in attr_names} for vid in vids
    }
    current = {vid: dict(named) for vid, named in attr_map.items()}  # at the last t

    au_frac, ed_frac, ei_frac = CHANGE_PROFILES[profile]
    n_changes = round(chg_rate * len(edge_set))
    n_ed = round(ed_frac * n_changes)
    n_ei = round(ei_frac * n_changes)
    n_au = n_changes - n_ed - n_ei
    if not attr_names:
        n_au = 0

    # live_sorted keeps the live edges in order, so rng.sample sees the same
    # list at every timestamp without a sort
    live_edges = set(edge_set)
    live_sorted = sorted(edge_set)
    changesets = []
    for t in range(2, T + 1):
        changes = []
        dropped = rng.sample(live_sorted, min(n_ed, len(live_sorted)))
        for e in dropped:
            changes.append(EdgeDelete(*e))
            live_edges.discard(e)
            del live_sorted[bisect_left(live_sorted, e)]
        free = room - len(live_sorted)
        if n_ei > free:
            raise InvalidOption(
                f"{n_ei} edge insertions at t={t} exceed the {free} free edge slots "
                f"that {vertices} vertices and {GEN_LABELS} labels leave"
            )
        inserted = 0
        guard = 0
        while inserted < n_ei and guard < n_ei * 100 + 100:
            guard += 1
            src, dst = rng.choice(vids), rng.choice(vids)
            if src == dst:
                continue
            e = (src, rng.choice(labels), dst)
            if e in live_edges:
                continue
            changes.append(EdgeInsert(*e))
            live_edges.add(e)
            insort(live_sorted, e)
            inserted += 1
        if inserted < n_ei:
            # the draws ran out on a nearly full graph: take the rest from
            # the free slots, enumerated in vertex id order
            slots = [
                (src, label, dst)
                for src in sorted(vids)
                for label in labels
                for dst in sorted(vids)
                if src != dst and (src, label, dst) not in live_edges
            ]
            for e in rng.sample(slots, n_ei - inserted):
                changes.append(EdgeInsert(*e))
                live_edges.add(e)
                insort(live_sorted, e)
        written = {}  # each update draws against the value at t - 1
        for _ in range(n_au):
            vid = rng.choice(vids)
            name = rng.choice(attr_names)
            choices = [v for v in values if v != current[vid][name]]
            value = written[vid, name] = rng.choice(choices)
            changes.append(AttrSet(vid, name, value))
        for (vid, name), value in written.items():
            current[vid][name] = value
        changesets.append(ChangeSet(t=t, changes=tuple(changes)))
    return apply_changes(TemporalGraph(vertex_map, edge_set, attr_map), *changesets)

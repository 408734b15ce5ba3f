"""Incremental violation detection over a stream of match sets.

Rules arrive in normal form, X -> l with one consequent literal l
(`normalize_all` runs at every engine's boundary).  Each match is profiled
once into one flat entry record: the values realizing the antecedent
literals (an X key), its one Y read and its report-key halves.  Entries are
partitioned by X key, and each class is bucketed by timestamp.  A new
match at time t is compared only against the buckets of its class whose
timestamps fall in its permissible range.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import InvalidGraph, InvalidOption
from .graph import Edge, GraphView, TemporalGraph, advance_view
from .matcher import IncrementalMatcher
from .model import (
    ConstantLiteral,
    Delta,
    MatchBinding,
    Tgfd,
    literal_sort_key,
    normalize_all,
)

XKey = Tuple


class PairViolation(NamedTuple):
    """Two matches whose pair breaks the rule, the earlier one first:
    (t_i, items_i) < (t_j, items_j)."""

    tgfd: str
    binding_i: MatchBinding
    binding_j: MatchBinding


class ConstantViolation(NamedTuple):
    tgfd: str
    binding: MatchBinding
    failed: ConstantLiteral


Violation = Union[PairViolation, ConstantViolation]


def violation_key(v: Violation) -> Tuple:
    """Canonical identity and the reference report order; the engines sort
    by ReportOrder's integer keys, which order each rule's violations as
    this key does."""
    if isinstance(v, PairViolation):
        a, b = v.binding_i, v.binding_j
    else:
        a = b = v.binding
    return (v.tgfd, a.t, b.t, a.sorted_ids, b.sorted_ids, a.items, b.items)


def match_pair_id(tgfd: str, a: MatchBinding, b: MatchBinding) -> Tuple:
    """(rule, (t, vertex ids) of one match, of the other), sides sorted."""
    side_a, side_b = (a.t, a.sorted_ids), (b.t, b.sorted_ids)
    if side_b < side_a:
        side_a, side_b = side_b, side_a
    return (tgfd, side_a, side_b)


def pair_id(v: Violation) -> Tuple:
    """Scoring identity: (rule, (t_i, ids_i), (t_j, ids_j)); constant
    violations count as degenerate pairs."""
    if isinstance(v, PairViolation):
        return match_pair_id(v.tgfd, v.binding_i, v.binding_j)
    return match_pair_id(v.tgfd, v.binding, v.binding)


def format_violation(v: Violation) -> str:
    if type(v) is PairViolation:
        tgfd, a, b = v
        return f"{tgfd} PAIR t_i={a.t} t_j={b.t} {a.text} {b.text}"
    tgfd, binding, failed = v
    return f"{tgfd} CONST t={binding.t} {binding.text} failed={failed}"


def permissible_range(i: int, delta: Delta, T: int) -> List[int]:
    """Timestamps j in [1, T] with p <= |j - i| <= q, ascending."""
    if not 1 <= i <= T:
        raise InvalidGraph(f"timestamp {i} outside [1, {T}]")
    lo, hi = max(1, i - delta.q), min(T, i + delta.q)
    return [j for j in range(lo, hi + 1) if delta.contains(j - i)]


# ---------------------------------------------------------------------------
# report order
# ---------------------------------------------------------------------------

# A report key is shifted left by POS_BITS, and the low bits hold the
# violation's position in its KeyedViolations list.
POS_BITS = 32
POS_MASK = (1 << POS_BITS) - 1


class ReportOrder:
    """Integer report keys that order one rule's violations as violation_key
    does, built once per run from the graph's vertex ids and T.

    Vertex ids are ranked in string order.  A match of a k-variable rule
    reads as two k-digit base-|V| numbers: its sorted ids and its items (the
    ids in variable order).  Every match of the rule has the same k
    variables, so these numbers order as the tuples do.  With B = |V|^k, a
    pair's key is the mixed-radix number

        t_i·W1 + t_j·W2 + ids_i·W3 + ids_j·W4 + items_i·W5 + items_j

    where W5 = B, W4 = B², W3 = B³, W2 = B⁴ and W1 = (T+1)·B⁴.  A match
    contributes hi (its digits as the earlier side) and lo (as the later
    side), both shifted left by POS_BITS: a pair's key is hi_i + lo_j, and
    a constant violation's is hi + lo of its one match."""

    def __init__(self, vertex_ids: Iterable[str], T: int):
        ids = sorted(vertex_ids)
        self.rank = {vid: r for r, vid in enumerate(ids)}
        self.base = max(len(ids), 1)
        self.T = T

    def halves(self, sigma: Tgfd) -> Callable[[MatchBinding], Tuple[int, int]]:
        """(hi, lo) of a match of sigma."""
        rank, base = self.rank, self.base
        b = base ** len(sigma.pattern.labels)
        w2 = b ** 4 << POS_BITS
        w1, w3, w4, w5 = (self.T + 1) * w2, b ** 3 << POS_BITS, b ** 2 << POS_BITS, b << POS_BITS

        def of(binding: MatchBinding) -> Tuple[int, int]:
            ranks = [rank[vid] for _, vid in binding.items]
            items = ids = 0
            for r in ranks:
                items = items * base + r
            for r in sorted(ranks):
                ids = ids * base + r
            t = binding.t
            return t * w1 + ids * w3 + items * w5, t * w2 + ids * w4 + (items << POS_BITS)

        return of


class KeyedViolations:
    """One rule's violations in the order found, and for each the int
    `report key << POS_BITS | position in violations`: sorting that one
    int list gives the report order."""

    __slots__ = ("violations", "keys")

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.keys: List[int] = []

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def extend(self, other: "KeyedViolations") -> None:
        offset = len(self.violations)
        self.violations.extend(other.violations)
        self.keys.extend([k + offset for k in other.keys] if offset else other.keys)

    def in_report_order(self) -> List[Violation]:
        """The violations sorted by report key; sorts keys in place."""
        keys, found = self.keys, self.violations
        keys.sort()
        return [found[k & POS_MASK] for k in keys]


# ---------------------------------------------------------------------------
# rule plans and index entries
# ---------------------------------------------------------------------------

# The form of a rule's one consequent literal: RulePlan.y_form
Y_CONST, Y_SELF, Y_GENERAL = "const", "self", "general"


class IndexEntry(NamedTuple):
    """One profiled match: the values its rule's literals read, the
    fragment owning it and its report-key halves.  y is the consequent's
    read: see RulePlan.profile."""

    t: int
    binding: MatchBinding
    xkey: XKey        # self-form X values: the match's X class
    x_general: Tuple  # (left, right) values per general X literal
    y: object
    owner: int = 0    # fragment owning the binding's anchor; 0 when sequential
    hi: int = 0       # report-key halves: see ReportOrder
    lo: int = 0


class RulePlan:
    """How a normal-form rule reads a match.

    A match's items are sorted by variable and bind every pattern variable,
    so each variable sits at one fixed position of every match's items:
    `slot` maps it there, and the profile reads each literal's vertex by
    its slot.  X constants filter matches, self-form X values key the X
    class, and general-form X values are compared pairwise.  The one Y
    literal is constant, checked per match, or a variable literal,
    self-form or general-form, compared between two matches."""

    def __init__(self, sigma: Tgfd):
        self.sigma = sigma
        slot = self.slot = {var: i for i, var in enumerate(sorted(sigma.pattern.vars))}
        # the X literals' (slot, attribute) reads, in literal order
        self._x_const: List[Tuple[int, str, str]] = []
        self._x_self: List[Tuple[int, str]] = []
        self._x_general: List[Tuple[int, str, int, str]] = []
        for lit in sorted(sigma.x_literals, key=literal_sort_key):
            if isinstance(lit, ConstantLiteral):
                self._x_const.append((slot[lit.var], lit.attr, lit.value))
            elif lit.is_self_form:
                self._x_self.append((slot[lit.var1], lit.attr1))
            else:
                self._x_general.append((slot[lit.var1], lit.attr1, slot[lit.var2], lit.attr2))
        y = self.y_literal = sigma.y_literal
        if isinstance(y, ConstantLiteral):
            self.y_form, self._y = Y_CONST, (slot[y.var], y.attr)
        elif y.is_self_form:
            self.y_form, self._y = Y_SELF, (slot[y.var1], y.attr1)
        else:
            self.y_form, self._y = Y_GENERAL, (slot[y.var1], y.attr1, slot[y.var2], y.attr2)
        # Whether the consequent compares the two matches; a constant one
        # is checked per match instead.
        self.pair_based = self.y_form != Y_CONST
        # Without general-form literals, both orientations give one verdict:
        # see pair_violates.
        self.one_orientation = not self._x_general and self.y_form != Y_GENERAL

    def profile(
        self,
        binding: MatchBinding,
        view_attr,
        owner: int = 0,
        halves: Optional[Callable[[MatchBinding], Tuple[int, int]]] = None,
    ) -> Optional[IndexEntry]:
        """binding's entry, with the values view_attr (its timestamp's
        `Snapshot.attr`) gives, keyed by halves when given; None when the
        binding can never realize X with any partner.  The entry's y is
        the failed literal or None (constant Y), the value or None when
        unset (self-form Y), or the (left, right) values (general-form Y)."""
        items = binding.items
        for i, attr, value in self._x_const:
            if view_attr(items[i][1], attr) != value:
                return None
        xkey = []
        for i, attr in self._x_self:
            value = view_attr(items[i][1], attr)
            if value is None:
                return None
            xkey.append(value)
        x_general = tuple(
            (view_attr(items[i][1], a), view_attr(items[j][1], b))
            for i, a, j, b in self._x_general
        )
        if self.y_form == Y_GENERAL:
            i, a, j, b = self._y
            y = (view_attr(items[i][1], a), view_attr(items[j][1], b))
        else:
            i, a = self._y
            y = view_attr(items[i][1], a)
            if self.y_form == Y_CONST:
                y = None if y == self.y_literal.value else self.y_literal
        hi, lo = halves(binding) if halves is not None else (0, 0)
        return tuple.__new__(
            IndexEntry, (binding.t, binding, tuple(xkey), x_general, y, owner, hi, lo)
        )

    def entries(
        self,
        matches: Iterable[MatchBinding],
        attr,
        halves: Optional[Callable[[MatchBinding], Tuple[int, int]]] = None,
        owner: int = 0,
    ) -> List[IndexEntry]:
        """One timestamp's matches as index entries, in items order: those
        that can realize X, profiled with attr, that timestamp's
        `Snapshot.attr`, and keyed by halves (`ReportOrder.halves` of the
        rule) when given.  owner is the fragment owning them (0 when
        sequential)."""
        profile = self.profile
        out = []
        for binding in sorted(matches, key=lambda b: b.items):
            entry = profile(binding, attr, owner, halves)
            if entry is not None:  # else it never enters the partitions
                out.append(entry)
        return out

    def pair_x_ok(self, a: IndexEntry, b: IndexEntry) -> bool:
        """General X literals, evaluated with a on the left."""
        for (left, _), (_, right) in zip(a.x_general, b.x_general):
            if left is None or left != right:
                return False
        return True

    def pair_y_ok(self, a: IndexEntry, b: IndexEntry) -> bool:
        """Y, evaluated with a on the left: no constant failed, one set
        self-form value, or a's left value set and equal to b's right."""
        if self.y_form == Y_CONST:
            return a.y is None and b.y is None
        if self.y_form == Y_SELF:
            return a.y is not None and a.y == b.y
        left = a.y[0]
        return left is not None and left == b.y[1]

    def pair_violates(self, a: IndexEntry, b: IndexEntry) -> bool:
        """Either orientation satisfying X while failing Y.  a and b share an
        X class: both realize X's constants and carry the same self-form X
        values.  So without general-form literals X holds both ways, and the
        Y test (constant or self-form, both symmetric) decides the pair once."""
        if self.one_orientation:
            return not self.pair_y_ok(a, b)
        for left, right in ((a, b), (b, a)):
            if self.pair_x_ok(left, right) and not self.pair_y_ok(left, right):
                return True
        return False


class MatchIndex:
    """Per-rule partition of indexed matches by X values; each class maps a
    timestamp to its entries in insertion order."""

    def __init__(self, plan: RulePlan):
        self.plan = plan
        self.classes: Dict[XKey, Dict[int, List[IndexEntry]]] = {}
        self.pairs_compared = 0

    def insert(self, entry: IndexEntry) -> None:
        by_t = self.classes.setdefault(entry.xkey, {})
        by_t.setdefault(entry.t, []).append(entry)

    def partners(self, entry: IndexEntry, rng: Sequence[int]) -> Iterator[IndexEntry]:
        """Entries of entry's class at the ascending timestamps rng, by
        timestamp, then insertion order."""
        by_t = self.classes.get(entry.xkey)
        if by_t:
            for j in rng:
                yield from by_t.get(j, ())


def incted_step(
    index: MatchIndex,
    sigma: Tgfd,
    entries: Iterable[IndexEntry],
    T: int,
    cross_only: bool = False,
    checked_pairs: Optional[List] = None,
    found: Optional[KeyedViolations] = None,
) -> KeyedViolations:
    """Pair one timestamp's entries (`RulePlan.entries`, in items order)
    with the indexed ones, index them, and append the new violations, in the
    order found and each with its report key, to found (a fresh
    KeyedViolations when omitted), which is returned.

    Every partner was indexed before the entry: at an earlier timestamp, or
    at this one with smaller items.  So each (partner, entry) pair is built
    in canonical order, (t_i, items_i) < (t_j, items_j), no entry meets
    itself, since a binding occurs once per rule and timestamp, and the
    pair's key is partner.hi + entry.lo.
    With cross_only, only pairs whose entries carry different owners are
    emitted (the coordinator's role); checked_pairs, when given, records
    every pair actually compared.
    """
    plan = index.plan
    if found is None:
        found = KeyedViolations()
    violations, keys = found.violations, found.keys
    add_violation, add_key = violations.append, keys.append
    new_tuple = tuple.__new__  # PairViolation(...) runs a Python-level __new__
    name, pair_based = sigma.name, plan.pair_based
    rng_t, rng = None, []
    compared = 0
    for entry in entries:
        if pair_based:
            if entry.t != rng_t:
                rng_t, rng = entry.t, permissible_range(entry.t, sigma.delta, T)
            binding, lo, owner = entry.binding, entry.lo, entry.owner
            for other in index.partners(entry, rng):
                if cross_only and other.owner == owner:
                    continue
                compared += 1
                if checked_pairs is not None:
                    checked_pairs.append((other.binding, binding))
                if plan.pair_violates(other, entry):
                    add_key(other.hi + lo + len(violations))
                    add_violation(new_tuple(PairViolation, (name, other.binding, binding)))
        elif not cross_only:
            # the unary check is the degenerate pair of the match with itself
            failed = entry.y
            if failed is not None and plan.pair_x_ok(entry, entry):
                add_key(entry.hi + entry.lo + len(violations))
                add_violation(ConstantViolation(name, entry.binding, failed))
        index.insert(entry)
    index.pairs_compared += compared
    return found


def nontrivially_exercised(index: MatchIndex, delta: Delta) -> bool:
    """Whether some pair of X-equal matches fell inside the interval, i.e.
    the rule constrained at least one pair."""
    step = max(delta.p, 1)  # least gap between two distinct timestamps in range
    for by_t in index.classes.values():
        if delta.p == 0 and any(len(entries) > 1 for entries in by_t.values()):
            return True
        ts = sorted(by_t)
        for i, t in enumerate(ts):
            j = bisect_left(ts, t + step, i + 1)
            if j < len(ts) and ts[j] - t <= delta.q:
                return True
    return False


@dataclass
class DetectionResult:
    violations: Dict[str, List[Violation]]
    pairs_compared: Dict[str, int]
    nontrivial: Dict[str, bool]
    iso_searches: int = 0

    def all_violations(self) -> List[Violation]:
        """Every violation in violation_key order: each rule's list was
        sorted once by its integer report keys (see ReportOrder), which
        order as violation_key does, and the key starts with the rule
        name."""
        out = []
        for name in sorted(self.violations):
            out.extend(self.violations[name])
        return out


def apply_mode(tgfds: Sequence[Tgfd], mode: str) -> List[Tgfd]:
    """tgfd keeps intervals; gfd forces (0, 0); upper-only keeps q, zeroes p."""
    if mode == "tgfd":
        return list(tgfds)
    if mode == "gfd":
        return [s.with_delta(Delta(0, 0)) for s in tgfds]
    if mode == "upper-only":
        return [s.with_delta(Delta(0, s.delta.q)) for s in tgfds]
    raise InvalidOption(f"unknown mode {mode!r}")


def replay(
    graph: TemporalGraph, rules: Sequence[Tgfd], view: Optional[GraphView] = None
) -> Iterator[Tuple[int, Dict[str, IncrementalMatcher], List[Edge]]]:
    """Yield (t, {rule name: matcher}, flipped) for t = 1..T, each matcher
    holding snapshot t and flipped the edges change set t flipped (none at
    t = 1).  One view of the first snapshot (view, when the caller reads
    it too, else graph.view(1)) is batch-matched once per rule, then
    advanced in place by each change set in turn; every matcher reads that
    view and takes each flipped edge from it."""
    if view is None:
        view = graph.view(1)
    matchers = {sigma.name: IncrementalMatcher(sigma.pattern, view) for sigma in rules}
    yield 1, matchers, []
    for cs in graph.changesets:
        flipped = advance_view(view, cs)
        for e in flipped:
            for matcher in matchers.values():
                matcher.apply(e)
        yield cs.t, matchers, flipped


def detect_sequential(graph: TemporalGraph, tgfds: Sequence[Tgfd]) -> DetectionResult:
    """Replay the graph through one incremental matcher per rule, indexing
    each timestamp's matches as it streams by."""
    rules = normalize_all(tgfds)
    order = ReportOrder(graph.vertices, graph.T)
    indexes = {sigma.name: MatchIndex(RulePlan(sigma)) for sigma in rules}
    halves = {sigma.name: order.halves(sigma) for sigma in rules}
    found = {sigma.name: KeyedViolations() for sigma in rules}
    matchers: Dict[str, IncrementalMatcher] = {}
    for t, matchers, _ in replay(graph, rules):
        attr = graph.snapshot(t).attr
        for sigma in rules:
            index = indexes[sigma.name]
            entries = index.plan.entries(
                matchers[sigma.name].topological_matches(t), attr, halves[sigma.name]
            )
            incted_step(index, sigma, entries, graph.T, found=found[sigma.name])

    return DetectionResult(
        violations={name: found.pop(name).in_report_order() for name in list(found)},
        pairs_compared={name: idx.pairs_compared for name, idx in indexes.items()},
        nontrivial={
            sigma.name: nontrivially_exercised(indexes[sigma.name], sigma.delta)
            for sigma in rules
        },
        iso_searches=sum(m.iso_searches for m in matchers.values()),
    )

"""Incremental violation detection over a stream of match sets.

Rules arrive in normal form, X -> l with one consequent literal l
(`normalize_all` runs at every engine's boundary).  A match is its items
from the matcher to the report line.  Each live match becomes one flat
entry record per timestamp: its items, the values realizing the antecedent
literals (an X key), its one Y read, its key halves and its text.  Each
rule's RulePlan keeps what is fixed per match in a memo: the text and the
t-independent key digits for good, the literal values until a change set
writes a slot they read.  So per-match work follows the distinct matches
and the attribute writes, not matches times timestamps.
Entries are partitioned by X key, and each class is one list of its
entries in timestamp order beside the list of their timestamps.  A new
match at time t is compared only against one slice of its class, the
entries from t - q to t - p that were indexed before it, bounded by two
bisections: its cost follows the partners, not the interval's width.

A violation is one int from the pairing to the report line: its report key
and the ids of its two entries in the rule's entry table (KeyedViolations).
Each rule sorts its ints once; the text report is written from them and
the table, and the violation tuples of the API are built from them on
first use, with one MatchBinding per entry they name.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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

from .errors import InvalidGraph, InvalidOption, ReportKeyOverflow
from .graph import AttrDelete, AttrSet, Edge, GraphView, TemporalGraph, advance_view
from .matcher import AssignmentKey, IncrementalMatcher
from .model import (
    ConstantLiteral,
    Delta,
    MatchBinding,
    Tgfd,
    items_text,
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


def pair_id(v: Violation) -> Tuple:
    """Scoring identity: (rule, (t, vertex ids) of one match, of the other),
    sides sorted; constant violations count as degenerate pairs."""
    if isinstance(v, PairViolation):
        a, b = v.binding_i, v.binding_j
    else:
        a = b = v.binding
    side_a, side_b = (a.t, a.sorted_ids), (b.t, b.sorted_ids)
    return (v.tgfd, side_a, side_b) if side_a <= side_b else (v.tgfd, side_b, side_a)


def format_violation(v: Violation) -> str:
    """v's report line, in the format KeyedViolations.text_chunks writes
    straight from the keys."""
    if type(v) is PairViolation:
        tgfd, a, b = v
        return f"{tgfd} PAIR t_i={a.t} t_j={b.t} {a.text} {b.text}"
    tgfd, binding, failed = v
    return f"{tgfd} CONST t={binding.t} {binding.text} failed={failed}"


def permissible_range(i: int, delta: Delta, T: int) -> List[int]:
    """Timestamps j in [1, T] with p <= |j - i| <= q, ascending: the
    definition; pairing reads the earlier half of it as one slice of a
    class (MatchIndex.partners)."""
    if not 1 <= i <= T:
        raise InvalidGraph(f"timestamp {i} outside [1, {T}]")
    lo, hi = max(1, i - delta.q), min(T, i + delta.q)
    return [j for j in range(lo, hi + 1) if delta.contains(j - i)]


# ---------------------------------------------------------------------------
# report order
# ---------------------------------------------------------------------------

# A violation is one int: its report key shifted left by 2·ID_BITS, then
# the ids of its two entries (see RulePlan.table), the earlier side's in
# the upper ID_BITS and the later side's in the lower ones.
ID_BITS = 32

# Lines per string that KeyedViolations.text_chunks joins.
REPORT_CHUNK = 4096


class ReportOrder:
    """Integer report keys that order one rule's violations as violation_key
    does, built once per run from the graph's vertex ids and T.

    Vertex ids are ranked in string order.  A match of a k-variable rule
    reads as two k-digit base-|V| numbers: its sorted ids and its items (the
    ids in variable order).  Every match of the rule has the same k
    variables, so these numbers order as the tuples do.  With B = |V|^k, a
    pair's report key is the mixed-radix number

        t_i·W1 + t_j·W2 + ids_i·W3 + ids_j·W4 + items_i·W5 + items_j

    where W5 = B, W4 = B², W3 = B³, W2 = B⁴ and W1 = (T+1)·B⁴.  A match
    contributes hi (its digits as the earlier side) and lo (as the later
    side), both shifted left by 2·id_bits: a pair's report key is
    hi_i + lo_j, and a constant violation's is hi + lo of its one match.
    Only the t digit moves with the timestamp, so hi = t·W1 + the match's
    t-independent digits, and lo = t·W2 + its others.
    The low 2·id_bits (ID_BITS when the order is built) are left for the
    two entry ids that RulePlan.entries adds; report keys are distinct, so
    the ids never decide the order."""

    def __init__(self, vertex_ids: Iterable[str], T: int):
        ids = sorted(vertex_ids)
        self.rank = {vid: r for r, vid in enumerate(ids)}
        self.base = max(len(ids), 1)
        self.T = T
        self.id_bits = ID_BITS

    def halves(
        self, sigma: Tgfd
    ) -> Tuple[int, int, int, Callable[[AssignmentKey], Tuple[int, int]]]:
        """(W1, W2, W3, digits) of sigma: a match of sigma with these items
        at t has hi = t·W1 + digits(items)[0] and lo = t·W2 +
        digits(items)[1].  hi // W3 = t·(T+1)·B + the digits of its sorted
        ids: its scoring side (t, sorted ids) as an int of the same order."""
        rank, base, shift = self.rank, self.base, 2 * self.id_bits
        b = base ** len(sigma.pattern.labels)
        w2 = b ** 4 << shift
        w1, w3, w4, w5 = (self.T + 1) * w2, b ** 3 << shift, b ** 2 << shift, b << shift

        def digits(match_items: AssignmentKey) -> Tuple[int, int]:
            ranks = [rank[vid] for _, vid in match_items]
            items = ids = 0
            for r in ranks:
                items = items * base + r
            for r in sorted(ranks):
                ids = ids * base + r
            return ids * w3 + items * w5, ids * w4 + (items << shift)

        return w1, w2, w3, digits


class _Bindings(dict):
    """One read-back's MatchBinding per entry id of a plan's table, each
    built on first use."""

    def __init__(self, table: List["IndexEntry"]) -> None:
        self.table = table

    def __missing__(self, eid: int) -> MatchBinding:
        e = self.table[eid]
        binding = self[eid] = MatchBinding(e.t, e.items)
        return binding


class KeyedViolations:
    """One rule's violations, each one int key
    `report key << 2·id_bits | earlier entry id << id_bits | later entry id`,
    an entry id being a position in the plan's entry table (a constant
    violation names its one entry twice).  Sorting the keys gives the
    report order; the violations are read back from the keys and the table
    in the keys' order: as tuples by iteration (the API), or as report
    lines by text_chunks (the text report), which builds no tuple."""

    __slots__ = ("plan", "keys")

    def __init__(self, plan: "RulePlan") -> None:
        self.plan = plan
        self.keys: List[int] = []

    def __iter__(self) -> Iterator[Violation]:
        plan = self.plan
        name, bits = plan.sigma.name, plan.id_bits
        mask = (1 << bits) - 1
        bindings = _Bindings(plan.table)
        new_tuple = tuple.__new__  # PairViolation(...) runs a Python-level __new__
        for k in self.keys:
            if plan.pair_based:
                yield new_tuple(
                    PairViolation, (name, bindings[k >> bits & mask], bindings[k & mask])
                )
            else:
                yield ConstantViolation(name, bindings[k & mask], plan.y_literal)

    def extend(self, other: "KeyedViolations") -> None:
        """Append other's keys: entry ids are the rule's, so keys of one
        plan merge by concatenation."""
        self.keys.extend(other.keys)

    def text_chunks(self) -> Iterator[str]:
        """The report lines of the violations, in the keys' order,
        REPORT_CHUNK lines per string: format_violation's format, each line
        one f-string over its entries' cached pieces."""
        plan, keys = self.plan, self.keys
        if not keys:
            return
        name, table, bits = plan.sigma.name, plan.table, plan.id_bits
        mask = (1 << bits) - 1
        # each entry's timestamp as text and its match's memoized text,
        # read once for all its lines
        ts = [str(e.t) for e in table]
        texts = [e.text for e in table]
        failed = str(plan.y_literal)  # the y of every entry a constant rule reports
        for start in range(0, len(keys), REPORT_CHUNK):
            chunk = keys[start:start + REPORT_CHUNK]
            later = [k & mask for k in chunk]
            if plan.pair_based:
                earlier = [k >> bits & mask for k in chunk]
                lines = [
                    f"{name} PAIR t_i={ts[i]} t_j={ts[j]} {texts[i]} {texts[j]}"
                    for i, j in zip(earlier, later)
                ]
            else:
                lines = [f"{name} CONST t={ts[j]} {texts[j]} failed={failed}" for j in later]
            lines.append("")
            yield "\n".join(lines)

    def identity_keys(self) -> List[int]:
        """Each violation's scoring identity (pair_id's two sides) as one
        int, in the keys' order: the smaller side shifted left by the
        plan's side_bits, or'ed with the larger.  An entry's side is
        hi // W3 (ReportOrder.halves), read once per entry.  A pair at one
        timestamp is built in items order, which need not be the order of
        its sorted ids, so the two sides are put in order."""
        plan = self.plan
        bits, w3, shift = plan.id_bits, plan.halves[2], plan.side_bits
        mask = (1 << bits) - 1
        sides = [e.hi // w3 for e in plan.table]
        pairs = ((sides[k >> bits & mask], sides[k & mask]) for k in self.keys)
        return [a << shift | b if a <= b else b << shift | a for a, b in pairs]


def identity_diff(new: KeyedViolations, old: KeyedViolations) -> List[Tuple]:
    """The pair_ids of new's violations whose scoring identity no violation
    of old holds, each once, in the order of its first violation in new:
    one rule's violations on two graphs with the same vertices and T, so
    that their ReportOrders agree.  The identities are compared as ints
    (KeyedViolations.identity_keys); a pair_id is built from the table's
    entries only for the identities kept."""
    plan = new.plan
    seen = set(old.identity_keys())
    name, table, bits = plan.sigma.name, plan.table, plan.id_bits
    mask = (1 << bits) - 1
    out = []
    for ident, k in zip(new.identity_keys(), new.keys):
        if ident in seen:
            continue
        seen.add(ident)
        a, b = table[k >> bits & mask], table[k & mask]
        side_a = (a.t, tuple(sorted(vid for _, vid in a.items)))
        side_b = (b.t, tuple(sorted(vid for _, vid in b.items)))
        out.append((name, side_a, side_b) if side_a <= side_b else (name, side_b, side_a))
    return out


# ---------------------------------------------------------------------------
# rule plans and index entries
# ---------------------------------------------------------------------------

# The form of a rule's one consequent literal: RulePlan.y_form
Y_CONST, Y_SELF, Y_GENERAL = "const", "self", "general"


class IndexEntry(NamedTuple):
    """One profiled match at one timestamp: its items, the values its rule's
    literals read, its owner, key halves and text.  y is the consequent's
    read: see RulePlan.read.  hi and lo are ReportOrder's halves with the
    entry's id added, shifted into the earlier side's id field in hi: a
    pair's KeyedViolations key is hi_i + lo_j."""

    t: int
    items: AssignmentKey
    xkey: XKey        # self-form X values: the match's X class
    x_general: Tuple  # (left, right) values per general X literal
    y: object
    owner: int = 0    # fragment owning the match's anchor; 0 when sequential
    hi: int = 0       # key halves with the entry's id (RulePlan.table)
    lo: int = 0
    text: str = ""    # items_text(items), one string per match


class RulePlan:
    """How a normal-form rule reads a match, and its memo of the matches of
    one replay of graph: the one path from live matches to index entries.

    A match's items are sorted by variable and bind every pattern variable,
    so each variable sits at one fixed position of every match's items:
    `slot` maps it there, and `read` reads each literal's vertex by its
    slot.  X constants filter matches, self-form X values key the X class,
    and general-form X values are compared pairwise.  The one Y literal is
    constant, checked per match, or a variable literal, self-form or
    general-form, compared between two matches.

    Per distinct match (its items) the memo keeps one record: the values
    `read` gives it (or that it never realizes X), its t-independent
    report-key digits and its text.  The values are read again only for a
    match whose record a change set invalidated: moving to timestamp t
    invalidates every match, live or dead (it may come back), holding a
    slot that a change set up to t wrote and the plan reads; moving back
    invalidates every record.  `table` lists the entries the plan built in
    id order, and each entry's hi and lo carry its key halves and its id
    (see KeyedViolations)."""

    def __init__(self, sigma: Tgfd, order: ReportOrder, graph: TemporalGraph):
        self.sigma = sigma
        self.graph = graph
        self.table: List[IndexEntry] = []
        self.halves = order.halves(sigma)
        self.id_bits = order.id_bits
        # a scoring side hi // W3 = t·(T+1)·B + sorted-id digits lies below
        # (T+1)²·B: KeyedViolations.identity_keys packs two in one int
        self.side_bits = ((order.T + 1) ** 2 * order.base ** len(sigma.pattern.labels)).bit_length()
        self.t = 0  # the timestamp the memo's values hold for; 0 before any
        # items -> [values or None once invalidated, hi digits, lo digits, text]
        self.records: Dict[AssignmentKey, list] = {}
        # (vertex, attribute) -> the records whose values read that slot
        self.readers: Dict[Tuple[str, str], List[list]] = {}
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
        # every (slot, attribute) that read reads: the slots whose writes
        # change a match's values
        reads = {(i, a) for i, a, _ in self._x_const} | set(self._x_self)
        for i, a, j, b in self._x_general:
            reads |= {(i, a), (j, b)}
        reads.add(self._y[:2])
        if self.y_form == Y_GENERAL:
            reads.add(self._y[2:])
        self.reads = sorted(reads)
        # Whether the consequent compares the two matches; a constant one
        # is checked per match instead.
        self.pair_based = self.y_form != Y_CONST
        # Without general-form literals, both orientations give one verdict:
        # see pair_violates.
        self.one_orientation = not self._x_general and self.y_form != Y_GENERAL

    def read(self, items: AssignmentKey, attr) -> Tuple:
        """(xkey, x_general, y): the values attr (a timestamp's
        `Snapshot.attr`) gives the literals of the match with these items;
        () when the match can never realize X with any partner.  y is the
        failed literal or None (constant Y), the value or None when unset
        (self-form Y), or the (left, right) values (general-form Y)."""
        for i, a, value in self._x_const:
            if attr(items[i][1], a) != value:
                return ()
        xkey = []
        for i, a in self._x_self:
            value = attr(items[i][1], a)
            if value is None:
                return ()
            xkey.append(value)
        x_general = tuple(
            (attr(items[i][1], a), attr(items[j][1], b)) for i, a, j, b in self._x_general
        )
        if self.y_form == Y_GENERAL:
            i, a, j, b = self._y
            y = (attr(items[i][1], a), attr(items[j][1], b))
        else:
            i, a = self._y
            y = attr(items[i][1], a)
            if self.y_form == Y_CONST:
                y = None if y == self.y_literal.value else self.y_literal
        return (tuple(xkey), x_general, y)

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

    def _move_to(self, t: int) -> None:
        """Invalidate the values that change sets self.t + 1 .. t may have
        changed: those reading a slot the sets write (every set or delete,
        a superset of `changed_attrs`)."""
        if t < self.t:
            for record in self.records.values():
                record[0] = None
        elif self.records:
            readers, changesets = self.readers, self.graph.changesets
            for cs in changesets[self.t - 1:t - 1]:
                for c in cs.changes:
                    if type(c) is AttrSet or type(c) is AttrDelete:
                        for record in readers.get((c.vid, c.name), ()):
                            record[0] = None
        self.t = t

    def _record(self, items: AssignmentKey) -> list:
        record = self.records[items] = [None, *self.halves[3](items), items_text(items)]
        readers = self.readers
        for i, a in self.reads:
            readers.setdefault((items[i][1], a), []).append(record)
        return record

    def entries(
        self,
        matches: Iterable[AssignmentKey],
        t: int,
        owner_of: Optional[Callable[[AssignmentKey], int]] = None,
    ) -> List[IndexEntry]:
        """The index entries of timestamp t's matches, given by their items
        in items order (`IncrementalMatcher.topological_matches`): those
        that can realize X, in that order, numbered and keyed in the table.
        owner_of gives the fragment owning a match (0 for all when omitted,
        as in the sequential engine)."""
        attr = self.graph.snapshot(t).attr
        self._move_to(t)
        read, table, records, bits = self.read, self.table, self.records, self.id_bits
        t_hi, t_lo = t * self.halves[0], t * self.halves[1]
        new_entry = tuple.__new__
        out = []
        for items in matches:
            record = records.get(items)
            if record is None:
                record = self._record(items)
            values = record[0]
            if values is None:
                values = record[0] = read(items, attr)
            if not values:  # it never enters the partitions
                continue
            owner = owner_of(items) if owner_of is not None else 0
            eid = len(table)  # the entry's id is its position in the table
            entry = new_entry(IndexEntry, (
                t, items, *values, owner,
                t_hi + record[1] + (eid << bits), t_lo + record[2] + eid, record[3],
            ))
            table.append(entry)
            out.append(entry)
        if len(table) > 1 << bits:
            raise ReportKeyOverflow(
                f"{self.sigma.name}: more than {1 << bits} profiled matches; "
                f"a violation key numbers at most that many per rule"
            )
        return out


class MatchIndex:
    """Per-rule partition of indexed matches by X values.  Each class is
    one list of its entries in insertion order, which must be timestamp
    order (`insert` rejects an entry older than its class's last), beside
    the list of their timestamps.  So the entries of a class inside an
    interval are one slice, bounded by bisection: every pairing (detection
    and the coordinator) takes a new entry's partners as one slice
    (`partners`) and filters it in one comprehension, and window_pairs
    walks the pairs of a whole index slice by slice."""

    def __init__(self, plan: RulePlan):
        self.plan = plan
        # X key -> (entries, their timestamps), both in insertion order
        self.classes: Dict[XKey, Tuple[List[IndexEntry], List[int]]] = {}
        self.pairs_compared = 0

    def insert(self, entry: IndexEntry) -> None:
        cls = self.classes.get(entry.xkey)
        if cls is None:
            self.classes[entry.xkey] = ([entry], [entry.t])
            return
        entries, ts = cls
        if entry.t < ts[-1]:
            raise InvalidGraph(
                f"{self.plan.sigma.name}: entry at t={entry.t} indexed after one at "
                f"t={ts[-1]} of its X class; a match index takes entries in timestamp order"
            )
        entries.append(entry)
        ts.append(entry.t)

    def partners(self, entry: IndexEntry, delta: Delta) -> List[IndexEntry]:
        """The entries of entry's class indexed before it whose timestamps
        lie in [t - q, t - p], in insertion order, for an entry at t no
        older than its class: with p = 0 the slice runs to the class's end,
        taking the entries at t indexed before it."""
        cls = self.classes.get(entry.xkey)
        if cls is None:
            return []
        entries, ts = cls
        t = entry.t
        lo = bisect_left(ts, t - delta.q)
        if delta.p == 0:
            return entries[lo:]
        return entries[lo:bisect_right(ts, t - delta.p, lo)]


def incted_step(
    index: MatchIndex,
    sigma: Tgfd,
    entries: Iterable[IndexEntry],
    *,
    cross_only: bool = False,
    checked_pairs: Optional[List] = None,
    found: Optional[KeyedViolations] = None,
) -> KeyedViolations:
    """Pair one timestamp's entries (`RulePlan.entries`, in items order)
    with the indexed ones, index them, and append the key of each new
    violation, in the order found, to found (a fresh KeyedViolations of the
    index's plan when omitted), which is returned.

    Every partner was indexed before the entry: at an earlier timestamp, or
    at this one with smaller items.  So each (partner, entry) pair is built
    in canonical order, (t_i, items_i) < (t_j, items_j), no entry meets
    itself, since a match occurs once per rule and timestamp, and the
    pair's key is partner.hi + entry.lo.  An entry's partners are one slice
    of its class (`MatchIndex.partners` under sigma's interval), filtered
    in one comprehension: by the y values when one test of Y decides the
    pair (self-form Y, no general-form X), else by `pair_violates`.
    With cross_only, the slice first drops the partners whose owner is the
    entry's, so only pairs across fragments are compared (the
    coordinator's role); checked_pairs, when given, records every pair
    compared as (partner entry, entry).
    """
    plan = index.plan
    if found is None:
        found = KeyedViolations(plan)
    add_key, add_keys = found.keys.append, found.keys.extend
    pair_based = plan.pair_based
    # violating: the partner's y unset or unequal to the entry's
    by_y = plan.one_orientation and plan.y_form == Y_SELF
    violates = plan.pair_violates
    partners, delta = index.partners, sigma.delta
    compared = 0
    for entry in entries:
        if pair_based:
            others = partners(entry, delta)
            if cross_only:
                owner = entry.owner
                others = [other for other in others if other.owner != owner]
            if others:
                compared += len(others)
                if checked_pairs is not None:
                    checked_pairs.extend([(other, entry) for other in others])
                lo, y = entry.lo, entry.y
                if not by_y:
                    add_keys([other.hi + lo for other in others if violates(other, entry)])
                elif y is None:
                    add_keys([other.hi + lo for other in others])
                else:
                    add_keys([other.hi + lo for other in others if other.y != y])
        elif not cross_only:
            # the unary check is the degenerate pair of the match with itself
            if entry.y is not None and plan.pair_x_ok(entry, entry):
                add_key(entry.hi + entry.lo)
        index.insert(entry)
    index.pairs_compared += compared
    return found


def window_pairs(index: MatchIndex, delta: Delta) -> Iterator[Tuple[IndexEntry, IndexEntry]]:
    """Every two distinct indexed entries of one X class whose timestamps
    lie inside delta of each other, as (earlier, later): each entry of a
    class, in insertion order, with the one slice of the entries after it
    at t + p .. t + q, found by bisection, in insertion order."""
    p, q = delta.p, delta.q
    for entries, ts in index.classes.values():
        for i, t in enumerate(ts):
            lo = i + 1 if p == 0 else bisect_left(ts, t + p, i + 1)
            hi = bisect_right(ts, t + q, lo)
            if lo < hi:
                yield from zip(repeat(entries[i]), entries[lo:hi])


def nontrivially_exercised(index: MatchIndex, delta: Delta) -> bool:
    """Whether some two distinct indexed matches inside the interval of
    each other realize X, in either orientation, i.e. the rule constrained
    at least one pair.  Sharing an X class realizes X unless X holds
    general-form literals, which each pair is tested on; the walk stops at
    the first pair found."""
    general, x_ok = bool(index.plan._x_general), index.plan.pair_x_ok
    return any(not general or x_ok(a, b) or x_ok(b, a) for a, b in window_pairs(index, delta))


class KeyedReport:
    """The violations of a run as each rule's KeyedViolations, sorted, in
    `found`, read back two ways: as tuples through `violations` (built on
    first use and kept), all_violations() and iter_violations(), and as
    report lines through text_chunks(), which builds no tuple."""

    found: Dict[str, KeyedViolations]

    @cached_property
    def violations(self) -> Dict[str, List[Violation]]:
        """Each rule's violations in report order."""
        return {name: list(keyed) for name, keyed in self.found.items()}

    def text_chunks(self) -> Iterator[str]:
        """Every violation's report line in violation_key order, in chunks
        (KeyedViolations.text_chunks), the rules by name."""
        for name in sorted(self.found):
            yield from self.found[name].text_chunks()

    def iter_violations(self) -> Iterator[Violation]:
        """Every violation in violation_key order, built one at a time and
        kept by nothing: the rules by name, and each rule's violations in
        the order of its sorted keys, which is violation_key's (see
        ReportOrder)."""
        for name in sorted(self.found):
            yield from self.found[name]

    def _all_violations(self) -> List[Violation]:
        """Every violation in violation_key order (iter_violations)."""
        return list(self.iter_violations())


@dataclass
class DetectionResult(KeyedReport):
    found: Dict[str, KeyedViolations]
    pairs_compared: Dict[str, int]
    nontrivial: Dict[str, bool]
    iso_searches: int = 0

    # in the class's own namespace, where a per-class wrapper (perfbench's
    # tracer) looks for it
    all_violations = KeyedReport._all_violations


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
    indexes = {sigma.name: MatchIndex(RulePlan(sigma, order, graph)) for sigma in rules}
    found = {name: KeyedViolations(index.plan) for name, index in indexes.items()}
    matchers: Dict[str, IncrementalMatcher] = {}
    for t, matchers, _ in replay(graph, rules):
        for sigma in rules:
            index = indexes[sigma.name]
            entries = index.plan.entries(matchers[sigma.name].topological_matches(), t)
            incted_step(index, sigma, entries, found=found[sigma.name])
    for keyed in found.values():
        keyed.keys.sort()

    return DetectionResult(
        found=found,
        pairs_compared={name: idx.pairs_compared for name, idx in indexes.items()},
        nontrivial={
            sigma.name: nontrivially_exercised(indexes[sigma.name], sigma.delta)
            for sigma in rules
        },
        iso_searches=sum(m.iso_searches for m in matchers.values()),
    )

"""Reasoning over rule sets: satisfiability, implication, and the axioms.

Satisfiability and implication both reduce to a closure of literals with
validity windows.  A rule fires at gap g when g lies in its interval and
its antecedent is derivable from the literals valid at g via transitivity
of equality; the consequent then becomes valid at g.  The closure at g
depends only on which intervals contain g, so it is constant between
consecutive interval endpoints (every p and every q + 1).  The gaps
0..horizon are therefore cut at those endpoints into elementary segments,
the closure is computed once per segment, and neighbouring segments with
the same result merge into maximal validity intervals.  The cost grows with
the number of rules, not with the width of their intervals.

The rules that take part are those whose pattern embeds into the anchor's.
An embedding is a match of one pattern on another's variables, so it is
the matcher's own search on `GraphPattern.view`: this module searches
nothing of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import ArityMismatch, InvalidOption
from .matcher import match_vars
from .model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    Literal,
    Tgfd,
    VariableLiteral,
    literal_sort_key,
    normalize,
    normalize_all,
)

Interval = Tuple[int, int]


def intervals_contain(intervals: Sequence[Interval], delta: Delta) -> Optional[Interval]:
    """The interval containing the whole delta, if any (intervals are
    disjoint maximal runs, so union containment equals single containment)."""
    for lo, hi in intervals:
        if lo <= delta.p and delta.q <= hi:
            return (lo, hi)
    return None


# ---------------------------------------------------------------------------
# pattern embedding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Injective, label- and edge-preserving map of one pattern's variables
    into another's.  A wildcard node maps anywhere; a labeled node never
    maps onto a wildcard."""

    items: Tuple[Tuple[str, str], ...]

    @property
    def mapping(self) -> Dict[str, str]:
        return dict(self.items)

    def translate(self, lit: Literal) -> Literal:
        m = self.mapping
        if isinstance(lit, ConstantLiteral):
            return ConstantLiteral(m[lit.var], lit.attr, lit.value)
        return VariableLiteral(m[lit.var1], lit.attr1, m[lit.var2], lit.attr2)


def all_embeddings(q_small: GraphPattern, q_big: GraphPattern) -> List[Embedding]:
    """Every embedding of q_small into q_big, in canonical order: the
    matcher's search for q_small on q_big's variables."""
    found = sorted(tuple(sorted(a.items())) for a in match_vars(q_small, q_big.view))
    return [Embedding(items) for items in found]


def find_embedding(q_small: GraphPattern, q_big: GraphPattern) -> Optional[Embedding]:
    """First embedding in canonical search order, or None."""
    found = all_embeddings(q_small, q_big)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# segment-wise closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureEntry:
    literal: Literal
    validity: Tuple[Interval, ...]


class _EqualityAtoms:
    """Union-find over the attribute terms a match pair exposes.

    A literal relates the earlier match's side ("L") to the later match's
    side ("R"): a constant pins both sides of one term to a value; a
    variable literal ties its left side to the partner's right side.  A
    self-form literal is therefore not a tautology here."""

    def __init__(self, literals: Iterable[Literal] = ()):
        self.parent: Dict = {}
        for lit in literals:
            self.add(lit)

    def _find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _union(self, a, b) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def add(self, lit: Literal) -> None:
        if isinstance(lit, ConstantLiteral):
            self._union(("L", lit.var, lit.attr), ("#", lit.value))
            self._union(("R", lit.var, lit.attr), ("#", lit.value))
        else:
            self._union(("L", lit.var1, lit.attr1), ("R", lit.var2, lit.attr2))

    def derivable(self, lit: Literal) -> bool:
        if isinstance(lit, ConstantLiteral):
            c = self._find(("#", lit.value))
            return (
                self._find(("L", lit.var, lit.attr)) == c
                and self._find(("R", lit.var, lit.attr)) == c
            )
        return self._find(("L", lit.var1, lit.attr1)) == self._find(
            ("R", lit.var2, lit.attr2)
        )

    def constants_joined(self, a: str, b: str) -> bool:
        return self._find(("#", a)) == self._find(("#", b))


@dataclass(frozen=True)
class _Rule:
    """A normal-form member rule translated into the anchor pattern's
    variables."""

    name: str
    delta: Delta
    x: Tuple[Literal, ...]
    y: Literal


def _translated_rules(members: Sequence[Tuple[Tgfd, Embedding]]) -> List[_Rule]:
    """Each member's normal-form parts, translated; a closure adds the
    consequent literals of a multi-literal rule or of its parts alike."""
    rules = []
    for sigma, f in members:
        x = tuple(sorted((f.translate(l) for l in sigma.x_literals), key=literal_sort_key))
        for part in normalize(sigma):
            rules.append(_Rule(part.name, part.delta, x, f.translate(part.y_literal)))
    return rules


def _closure_at_gap(
    gap: int,
    seeds: Sequence[Literal],
    seed_delta: Delta,
    rules: Sequence[_Rule],
) -> Set[Literal]:
    """Literals valid at one gap value, to fixpoint."""
    active: Set[Literal] = set(seeds) if seed_delta.contains(gap) else set()
    changed = True
    while changed:
        changed = False
        atoms = _EqualityAtoms(active)
        for rule in rules:
            if not rule.delta.contains(gap):
                continue
            if rule.y not in active and all(atoms.derivable(x) for x in rule.x):
                active.add(rule.y)
                changed = True
    return active


def _segments(horizon: int, deltas: Iterable[Delta]) -> List[Interval]:
    """The elementary segments of the gaps 0..horizon: the maximal runs
    that each delta either wholly contains or wholly misses, in order."""
    end = horizon + 1
    if end <= 0:
        return []
    cuts = {0, end}
    for d in deltas:
        cuts.update(c for c in (d.p, d.q + 1) if 0 < c < end)
    bounds = sorted(cuts)
    return [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]


def _segment_closures(
    seeds: Sequence[Literal],
    seed_delta: Delta,
    rules: Sequence[_Rule],
    horizon: int,
) -> Iterator[Tuple[int, int, Set[Literal]]]:
    """(lo, hi, literals valid on every gap lo..hi), one closure per
    elementary segment, in gap order."""
    deltas = [seed_delta] + [r.delta for r in rules]
    for lo, hi in _segments(horizon, deltas):
        yield lo, hi, _closure_at_gap(lo, seeds, seed_delta, rules)


def _add_run(runs: List[Interval], lo: int, hi: int) -> None:
    """Append the gaps lo..hi to runs in gap order, merging with the last
    run when they touch."""
    if runs and runs[-1][1] + 1 == lo:
        runs[-1] = (runs[-1][0], hi)
    else:
        runs.append((lo, hi))


def closure_for_implication(
    x_literals: Iterable[Literal],
    members: Sequence[Tuple[Tgfd, Embedding]],
    delta: Delta,
    horizon: Optional[int] = None,
) -> List[ClosureEntry]:
    """Literals derivable from X under the embedded rules, each with the gap
    intervals on which it holds.  X itself seeds the closure on delta."""
    rules = _translated_rules(members)
    seeds = sorted(set(x_literals), key=literal_sort_key)
    if horizon is None:
        horizon = max([delta.q] + [r.delta.q for r in rules], default=delta.q)
    valid_runs: Dict[Literal, List[Interval]] = {}
    for lo, hi, active in _segment_closures(seeds, delta, rules, horizon):
        for lit in active:
            _add_run(valid_runs.setdefault(lit, []), lo, hi)
    entries = [
        ClosureEntry(literal=lit, validity=tuple(runs))
        for lit, runs in valid_runs.items()
    ]
    return sorted(entries, key=lambda e: literal_sort_key(e.literal))


# ---------------------------------------------------------------------------
# satisfiability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Conflict:
    anchor: str
    literal_a: ConstantLiteral
    literal_b: ConstantLiteral
    interval: Interval


@dataclass(frozen=True)
class SatResult:
    satisfiable: bool
    conflict: Optional[Conflict] = None


def overlap_class(anchor: Tgfd, tgfds: Sequence[Tgfd]) -> List[Tuple[Tgfd, Embedding]]:
    """The anchor pattern's embedded_class among the rules whose interval
    overlaps the anchor's."""
    return embedded_class(anchor.pattern, [s for s in tgfds if s.delta.overlaps(anchor.delta)])


def embedded_class(anchor_pattern: GraphPattern, tgfds: Sequence[Tgfd]) -> List[Tuple[Tgfd, Embedding]]:
    """Rules embeddable into the pattern, under every embedding (implication
    membership carries no interval condition)."""
    members: List[Tuple[Tgfd, Embedding]] = []
    for sigma in tgfds:
        for f in all_embeddings(sigma.pattern, anchor_pattern):
            members.append((sigma, f))
    return members


def _conflicting_pairs(active: Set[Literal]) -> List[Tuple[ConstantLiteral, ConstantLiteral]]:
    """Pairs of distinct constants the literals join, in literal order."""
    consts = sorted(
        (l for l in active if isinstance(l, ConstantLiteral)),
        key=literal_sort_key,
    )
    atoms = _EqualityAtoms(active)
    return [
        (a, b)
        for i, a in enumerate(consts)
        for b in consts[i + 1:]
        if a.value != b.value and atoms.constants_joined(a.value, b.value)
    ]


def _conflict_scan(
    anchor: Tgfd,
    rules: Sequence[_Rule],
) -> Optional[Tuple[ConstantLiteral, ConstantLiteral, Interval]]:
    """The first pair of distinct constants that the closure of the anchor's
    antecedent binds to one attribute, in gap order, and the first run of
    gaps on which it does."""
    horizon = max([anchor.delta.q] + [r.delta.q for r in rules])
    seeds = sorted(set(anchor.x_literals), key=literal_sort_key)
    witness: Optional[Tuple[ConstantLiteral, ConstantLiteral]] = None
    run: Interval = (0, 0)
    for lo, hi, active in _segment_closures(seeds, anchor.delta, rules, horizon):
        pairs = _conflicting_pairs(active)
        if witness is None:
            if pairs:
                witness, run = pairs[0], (lo, hi)
        elif witness in pairs:
            run = (run[0], hi)
        else:
            break
    if witness is None:
        return None
    return witness[0], witness[1], run


def check_satisfiability(tgfds: Sequence[Tgfd]) -> SatResult:
    """A rule set is unsatisfiable exactly when, for some anchor rule,
    assuming its antecedent forces two distinct constants onto one
    attribute at an overlapping gap."""
    rules_nf = normalize_all(tgfds)
    for anchor in sorted(rules_nf, key=lambda s: s.name):
        members = overlap_class(anchor, rules_nf)
        translated = _translated_rules(members)
        hit = _conflict_scan(anchor, translated)
        if hit is not None:
            lit_a, lit_b, interval = hit
            return SatResult(
                satisfiable=False,
                conflict=Conflict(anchor.name, lit_a, lit_b, interval),
            )
    return SatResult(satisfiable=True)


# ---------------------------------------------------------------------------
# implication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImplicationResult:
    implied: bool
    entry: Optional[ClosureEntry] = None


def check_implication(tgfds: Sequence[Tgfd], sigma: Tgfd) -> ImplicationResult:
    """Whether the rule set forces sigma: its consequent must be derivable
    from its antecedent on every gap in its interval."""
    rules_nf = normalize_all(tgfds)
    queries = normalize_all([sigma])
    witness: Optional[ClosureEntry] = None
    for query in queries:
        members = embedded_class(query.pattern, rules_nf)
        rules = _translated_rules(members)
        horizon = max([query.delta.q] + [r.delta.q for r in rules])
        seeds = sorted(set(query.x_literals), key=literal_sort_key)
        y = query.y_literal
        runs: List[Interval] = []
        for lo, hi, active in _segment_closures(seeds, query.delta, rules, horizon):
            if _EqualityAtoms(active).derivable(y):
                _add_run(runs, lo, hi)
        validity = tuple(runs)
        if intervals_contain(validity, query.delta) is None:
            return ImplicationResult(
                implied=False,
                entry=ClosureEntry(literal=y, validity=validity) if validity else None,
            )
        witness = ClosureEntry(literal=y, validity=validity)
    return ImplicationResult(implied=True, entry=witness)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

AXIOM_ARITY = {
    "literal-reflexivity": 0,
    "literal-augmentation": 1,
    "pattern-augmentation": 1,
    "transitivity": 2,
    "decomposition": 1,
    "interval-intersection": 2,
    "interval-containment": 1,
}


def axiom_check(rule: str, premises: Sequence[Tgfd], conclusion: Tgfd) -> bool:
    """Whether premises/conclusion instantiate the named inference schema."""
    if rule not in AXIOM_ARITY:
        raise InvalidOption(f"unknown axiom {rule!r}")
    if len(premises) != AXIOM_ARITY[rule]:
        raise ArityMismatch(f"{rule} takes {AXIOM_ARITY[rule]} premises, got {len(premises)}")

    c = conclusion
    if rule == "literal-reflexivity":
        return bool(c.y_literals) and c.y_literals <= c.x_literals

    if rule == "literal-augmentation":
        (p,) = premises
        return (
            p.pattern.same_shape(c.pattern)
            and p.delta == c.delta
            and p.y_literals == c.y_literals
            and p.x_literals <= c.x_literals
        )

    if rule == "pattern-augmentation":
        (p,) = premises
        if p.delta != c.delta:
            return False
        for f in all_embeddings(p.pattern, c.pattern):
            if (
                frozenset(f.translate(l) for l in p.x_literals) == c.x_literals
                and frozenset(f.translate(l) for l in p.y_literals) == c.y_literals
            ):
                return True
        return False

    if rule == "transitivity":
        def fits(first: Tgfd, second: Tgfd) -> bool:
            # first: Q' with X -> W ; second: Q with W -> Y
            if not (first.delta == second.delta == c.delta):
                return False
            if not second.pattern.same_shape(c.pattern):
                return False
            if second.y_literals != c.y_literals:
                return False
            for f in all_embeddings(first.pattern, second.pattern):
                if (
                    frozenset(f.translate(l) for l in first.x_literals) == c.x_literals
                    and frozenset(f.translate(l) for l in first.y_literals) == second.x_literals
                ):
                    return True
            return False

        a, b = premises
        return fits(a, b) or fits(b, a)

    if rule == "decomposition":
        (p,) = premises
        return (
            p.pattern.same_shape(c.pattern)
            and p.delta == c.delta
            and p.x_literals == c.x_literals
            and len(c.y_literals) == 1
            and c.y_literals <= p.y_literals
        )

    if rule == "interval-intersection":
        a, b = premises
        if not (
            a.pattern.same_shape(c.pattern)
            and b.pattern.same_shape(c.pattern)
            and a.x_literals == b.x_literals == c.x_literals
            and a.y_literals == b.y_literals == c.y_literals
        ):
            return False
        inter = a.delta.intersect(b.delta)
        return inter is not None and inter == c.delta

    if rule == "interval-containment":
        (p,) = premises
        return (
            p.pattern.same_shape(c.pattern)
            and p.x_literals == c.x_literals
            and p.y_literals == c.y_literals
            and c.delta.within(p.delta)
        )

    raise AssertionError("unreachable")

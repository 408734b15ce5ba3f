"""Rule and pattern data model: graph patterns, literals, intervals, rules.

A rule constrains pairs of pattern matches whose timestamp gap falls in an
inclusive interval (p, q): if the pair agrees on the antecedent literals X it
must agree on the consequent Y.  (0, 0) degenerates to the snapshot-local
case.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import (
    DuplicateRule,
    EmptyConsequent,
    InvalidDelta,
    InvalidPattern,
    TgfdSyntaxError,
    UnknownVariable,
)
from .graph import GraphView, ball_vertices

WILDCARD = "_"


@dataclass(frozen=True)
class ConstantLiteral:
    var: str
    attr: str
    value: str

    def __str__(self) -> str:
        return f'{self.var}.{self.attr}="{self.value}"'


@dataclass(frozen=True)
class VariableLiteral:
    var1: str
    attr1: str
    var2: str
    attr2: str

    @property
    def is_self_form(self) -> bool:
        """Same variable and attribute on both sides: the pair agrees on one
        attribute of one entity.  Only this form is sound to hash on."""
        return self.var1 == self.var2 and self.attr1 == self.attr2

    def __str__(self) -> str:
        return f"{self.var1}.{self.attr1}=={self.var2}.{self.attr2}"


Literal = Union[ConstantLiteral, VariableLiteral]


def literal_vars(lit: Literal) -> Tuple[str, ...]:
    if isinstance(lit, ConstantLiteral):
        return (lit.var,)
    return (lit.var1, lit.var2)


def literal_sort_key(lit: Literal) -> Tuple:
    if isinstance(lit, ConstantLiteral):
        return (0, lit.var, lit.attr, lit.value)
    return (1, lit.var1, lit.attr1, lit.var2, lit.attr2)


@dataclass(frozen=True)
class Delta:
    """Inclusive bounds on the timestamp gap between compared matches."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise InvalidDelta(f"bounds must be integers, got ({self.p!r}, {self.q!r})")
        if not 0 <= self.p <= self.q:
            raise InvalidDelta(f"need 0 <= p <= q, got ({self.p}, {self.q})")

    def contains(self, gap: int) -> bool:
        return self.p <= abs(gap) <= self.q

    def intersect(self, other: "Delta") -> Optional["Delta"]:
        lo, hi = max(self.p, other.p), min(self.q, other.q)
        if lo > hi:
            return None
        return Delta(lo, hi)

    def within(self, other: "Delta") -> bool:
        return other.p <= self.p and self.q <= other.q

    def overlaps(self, other: "Delta") -> bool:
        return self.intersect(other) is not None

    def __str__(self) -> str:
        return f"({self.p}, {self.q})"


class GraphPattern:
    """Directed, connected, labeled pattern over named variables.

    Node label '_' matches any vertex type.  A pattern is a graph: `view`
    is its one adjacency, a `GraphView` whose vertices are the variables
    typed by their labels.  The matcher's search embeds patterns into it,
    and `graph.ball_vertices` walks it for the pattern's distances.
    """

    def __init__(
        self,
        nodes: Sequence[Tuple[str, str]],
        edges: Sequence[Tuple[str, str, str]] = (),
    ):
        self.nodes: Tuple[Tuple[str, str], ...] = tuple(nodes)
        self.edges: Tuple[Tuple[str, str, str], ...] = tuple(edges)
        self.labels: Dict[str, str] = {}
        for var, label in self.nodes:
            if var in self.labels:
                raise InvalidPattern(f"duplicate pattern variable {var}")
            self.labels[var] = label
        if not self.labels:
            raise InvalidPattern("a pattern needs at least one node")
        for src, _, dst in self.edges:
            if src not in self.labels or dst not in self.labels:
                raise UnknownVariable(f"edge ({src}, {dst}) uses undeclared variable")
        self.view = GraphView(0, self.labels, self.edges)
        if len(self.distances_from(self.nodes[0][0])) != len(self.labels):
            raise InvalidPattern("pattern must be connected")

    @property
    def vars(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.nodes)

    def label_of(self, var: str) -> str:
        return self.labels[var]

    def distances_from(self, var: str) -> Dict[str, int]:
        """Undirected hop distances from var to every pattern node it reaches."""
        hops: Dict[str, int] = {}
        ball_vertices(self.view, var, len(self.labels), hops)
        return hops

    @property
    def diameter(self) -> int:
        """Longest shortest undirected path between any two nodes."""
        best = 0
        for var in self.labels:
            best = max(best, max(self.distances_from(var).values()))
        return best

    def radius_center(self) -> Tuple[str, int]:
        """The first node in vars order minimizing its eccentricity, with
        that eccentricity."""
        best_var, best_r = None, None
        for var in self.vars:
            r = max(self.distances_from(var).values())
            if best_r is None or r < best_r:
                best_var, best_r = var, r
        return best_var, best_r

    def same_shape(self, other: "GraphPattern") -> bool:
        return set(self.nodes) == set(other.nodes) and set(self.edges) == set(other.edges)

    def __repr__(self) -> str:
        return f"GraphPattern(nodes={list(self.nodes)}, edges={list(self.edges)})"


def items_text(items: Tuple[Tuple[str, str], ...]) -> str:
    """A match's report text, `var=vid,...` in items order."""
    return ",".join(f"{v}={vid}" for v, vid in items)


@dataclass(frozen=True)
class MatchBinding:
    """A pattern match at one timestamp: variable -> vertex-id, injective."""

    t: int
    items: Tuple[Tuple[str, str], ...]

    @classmethod
    def of(cls, t: int, assignment: Mapping[str, str]) -> "MatchBinding":
        return cls(t=t, items=tuple(sorted(assignment.items())))

    @property
    def assignment(self) -> Dict[str, str]:
        return dict(self.items)

    def get(self, var: str) -> Optional[str]:
        for v, vid in self.items:
            if v == var:
                return vid
        return None

    # The report reads a binding's ids and text once per violation it is in;
    # both are fixed per binding, so each is computed once, on first use.
    # They live in the instance dict, outside the fields that equality and
    # hashing compare.

    @cached_property
    def sorted_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(vid for _, vid in self.items))

    @cached_property
    def text(self) -> str:
        return items_text(self.items)

    def __str__(self) -> str:
        return self.text


class Tgfd:
    """A rule: pattern, interval, and value dependency X -> Y."""

    def __init__(
        self,
        name: str,
        pattern: GraphPattern,
        delta: Delta,
        x_literals: Iterable[Literal] = (),
        y_literals: Iterable[Literal] = (),
    ):
        self.name = name
        self.pattern = pattern
        self.delta = delta
        self.x_literals: FrozenSet[Literal] = frozenset(x_literals)
        self.y_literals: FrozenSet[Literal] = frozenset(y_literals)
        for lit in list(self.x_literals) + list(self.y_literals):
            for var in literal_vars(lit):
                if var not in pattern.labels:
                    raise UnknownVariable(f"{self.name}: literal uses unknown variable {var}")

    @property
    def is_normal_form(self) -> bool:
        return len(self.y_literals) == 1

    @property
    def y_literal(self) -> Literal:
        if not self.is_normal_form:
            raise ValueError(f"{self.name} is not in normal form")
        return next(iter(self.y_literals))

    def with_delta(self, delta: Delta, suffix: str = "") -> "Tgfd":
        return Tgfd(self.name + suffix, self.pattern, delta, self.x_literals, self.y_literals)

    def __repr__(self) -> str:
        return f"Tgfd({self.name!r}, delta={self.delta})"


def normalize(sigma: Tgfd) -> List[Tgfd]:
    """Split a multi-literal consequent into one rule per consequent literal."""
    if not sigma.y_literals:
        raise EmptyConsequent(f"{sigma.name}: empty consequent")
    lits = sorted(sigma.y_literals, key=literal_sort_key)
    if len(lits) == 1:
        return [sigma]
    return [
        Tgfd(f"{sigma.name}#{i}", sigma.pattern, sigma.delta, sigma.x_literals, [lit])
        for i, lit in enumerate(lits, start=1)
    ]


def normalize_all(tgfds: Iterable[Tgfd]) -> List[Tgfd]:
    """Every rule split into normal form; the split names must be distinct."""
    out: List[Tgfd] = []
    names: Set[str] = set()
    for sigma in tgfds:
        for rule in normalize(sigma):
            if rule.name in names:
                raise DuplicateRule(f"rule name {rule.name!r} is used twice")
            names.add(rule.name)
            out.append(rule)
    return out


# ---------------------------------------------------------------------------
# rule definition language
# ---------------------------------------------------------------------------

_CONST_RE = re.compile(r'^\s*(\w+)\.(\w+)\s*=\s*"((?:[^"\\]|\\.)*)"\s*$')
_VAR_RE = re.compile(r"^\s*(\w+)\.(\w+)\s*==\s*(\w+)\.(\w+)\s*$")
_DELTA_RE = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def _parse_literal(text: str, lineno: int) -> Literal:
    m = _VAR_RE.match(text)
    if m:
        return VariableLiteral(m.group(1), m.group(2), m.group(3), m.group(4))
    m = _CONST_RE.match(text)
    if m:
        return ConstantLiteral(m.group(1), m.group(2), m.group(3).replace('\\"', '"'))
    raise TgfdSyntaxError(f"cannot parse literal {text!r}", lineno)


def parse_tgfd_file(text: str) -> List[Tgfd]:
    """Parse rule blocks and return them in normal form.

    Block grammar, one directive per line:
        tgfd <name>
        vertex <var> <type>
        edge <var> <label> <var>
        delta (<p>, <q>)
        x: <literal>[; <literal>]...
        y: <literal>[; <literal>]...
    """
    rules: List[Tgfd] = []
    block: Optional[Dict] = None

    def flush(lineno: int):
        nonlocal block
        if block is None:
            return
        if block["delta"] is None:
            raise TgfdSyntaxError(f"rule {block['name']} missing delta", lineno)
        if not block["y"]:
            raise EmptyConsequent(f"rule {block['name']} has no consequent")
        try:
            pattern = GraphPattern(block["nodes"], block["edges"])
        except InvalidPattern as exc:
            raise TgfdSyntaxError(f"rule {block['name']}: {exc}", lineno) from None
        rules.append(Tgfd(block["name"], pattern, block["delta"], block["x"], block["y"]))
        block = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        if head == "tgfd":
            flush(lineno)
            name = rest.strip()
            if not name:
                raise TgfdSyntaxError("rule needs a name", lineno)
            block = {"name": name, "nodes": [], "edges": [], "delta": None, "x": [], "y": []}
            continue
        if block is None:
            raise TgfdSyntaxError("directive before any `tgfd` header", lineno)
        if head == "vertex":
            parts = rest.split()
            if len(parts) != 2:
                raise TgfdSyntaxError("vertex needs <var> <type>", lineno)
            block["nodes"].append((parts[0], parts[1]))
        elif head == "edge":
            parts = rest.split()
            if len(parts) != 3:
                raise TgfdSyntaxError("edge needs <var> <label> <var>", lineno)
            declared = {v for v, _ in block["nodes"]}
            for var in (parts[0], parts[2]):
                if var not in declared:
                    raise UnknownVariable(f"line {lineno}: edge uses undeclared {var}")
            block["edges"].append((parts[0], parts[1], parts[2]))
        elif head == "delta":
            m = _DELTA_RE.match(rest.strip())
            if not m:
                raise TgfdSyntaxError(f"cannot parse delta {rest!r}", lineno)
            block["delta"] = Delta(int(m.group(1)), int(m.group(2)))
        elif head in ("x:", "y:"):
            key = head[0]
            items = [s for s in rest.split(";") if s.strip()]
            declared = {v for v, _ in block["nodes"]}
            for item in items:
                lit = _parse_literal(item, lineno)
                for var in literal_vars(lit):
                    if var not in declared:
                        raise UnknownVariable(f"line {lineno}: literal uses undeclared {var}")
                block[key].append(lit)
        else:
            raise TgfdSyntaxError(f"unknown directive {head!r}", lineno)
    flush(len(text.splitlines()))
    return normalize_all(rules)

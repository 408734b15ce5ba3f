"""Independent oracles and random-instance generators for the test suite.

The oracles here deliberately avoid the engine's matcher/detection code
paths: matching enumerates injective assignments directly, and violation
checking is a double loop over match pairs.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st
from networkx import DiGraph, is_weakly_connected
from networkx.algorithms.isomorphism import DiGraphMatcher

from tgfd.errors import GraphFormatError
from tgfd.graph import (
    AttrDelete,
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    GraphView,
    TemporalGraph,
    Vertex,
    Edge,
    apply_changes,
    ball_vertices,
    derive_changesets,
)
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    Literal,
    MatchBinding,
    Tgfd,
    VariableLiteral,
    literal_sort_key,
)


# ---------------------------------------------------------------------------
# graph construction helpers
# ---------------------------------------------------------------------------


def neighbors(view: GraphView, vid: str) -> Set[str]:
    """Vertices one undirected hop from vid in view."""
    seen = {dst for _, dst in view.out_edges(vid)}
    seen.update(src for _, src in view.in_edges(vid))
    return seen


def labelled_digraph(nodes, edges) -> DiGraph:
    """One networkx edge per ordered pair, carrying the set of its labels;
    self-loops included."""
    g = DiGraph()
    for node, type_label in nodes:
        g.add_node(node, type=type_label)
    for (src, label, dst) in edges:
        if g.has_edge(src, dst):
            g[src][dst]["labels"].add(label)
        else:
            g.add_edge(src, dst, labels={label})
    return g


def nx_monomorphisms(pattern: GraphPattern, nodes, edges) -> Set[Tuple[Tuple[str, str], ...]]:
    """Independent oracle: networkx VF2 monomorphisms of the pattern into
    the labeled graph (nodes, edges), as sorted (variable, node) items.
    Node match is on type with `_` as a wildcard, so a typed variable never
    maps onto a `_` node; edge match requires the pattern's labels to be a
    subset of the data labels."""
    gm = DiGraphMatcher(
        labelled_digraph(nodes, edges),
        labelled_digraph(pattern.nodes, pattern.edges),
        node_match=lambda d, p: p["type"] in ("_", d["type"]),
        edge_match=lambda d, p: p["labels"] <= d["labels"],
    )
    return {
        tuple(sorted((var, node) for node, var in m.items()))
        for m in gm.subgraph_monomorphisms_iter()
    }


def build_graph(
    vertices: Dict[str, str],
    edges: Sequence[Tuple[str, str, str]],
    attrs: Dict[str, Dict[str, str]] = None,
) -> TemporalGraph:
    vmap = {vid: Vertex(vid, label) for vid, label in vertices.items()}
    return TemporalGraph(vmap, edges, dict(attrs or {}))


def extend(graph: TemporalGraph, changes: Sequence) -> TemporalGraph:
    return apply_changes(graph, ChangeSet(t=graph.T + 1, changes=tuple(changes)))


# ---------------------------------------------------------------------------
# graph history oracles
# ---------------------------------------------------------------------------


def attrs_at(graph: TemporalGraph, t: int) -> Dict[str, Dict[str, str]]:
    """The attribute map at t, replayed from the base map through change
    sets 2..t in order, each change as written, without the graph's version
    lists: vertex -> name -> value, omitting unset slots and the vertices
    left with none."""
    assert 1 <= t <= graph.T, t
    attrs = {vid: dict(named) for vid, named in graph.base_attrs.items()}
    for cs in graph.changesets[: t - 1]:
        for c in cs.changes:
            if isinstance(c, AttrSet):
                attrs.setdefault(c.vid, {})[c.name] = c.value
            elif isinstance(c, AttrDelete):
                attrs.get(c.vid, {}).pop(c.name, None)
    return {vid: named for vid, named in attrs.items() if named}


# Attribute histories over three vertices, two names and three values (the
# empty string among them): a base map, and change sets of attribute writes.
SLOT_VIDS, SLOT_NAMES, SLOT_VALUES = ("a", "b", "c"), ("n", "m"), ("0", "1", "")
base_attr_maps = st.dictionaries(
    st.sampled_from(SLOT_VIDS),
    st.dictionaries(st.sampled_from(SLOT_NAMES), st.sampled_from(SLOT_VALUES), max_size=2),
    max_size=3,
)
attr_writes = st.lists(
    st.lists(
        st.one_of(
            st.builds(AttrSet, *(st.sampled_from(p) for p in (SLOT_VIDS, SLOT_NAMES, SLOT_VALUES))),
            st.builds(AttrDelete, st.sampled_from(SLOT_VIDS), st.sampled_from(SLOT_NAMES)),
        ),
        max_size=5,
    ),
    max_size=6,
)


def attr_history_graph(base, sets) -> TemporalGraph:
    """A graph over SLOT_VIDS, without edges: base at t = 1, then one change
    set per list in sets, loaded in one pass."""
    vertices = {vid: Vertex(vid, "T") for vid in SLOT_VIDS}
    return apply_changes(
        TemporalGraph(vertices, [], base), *(ChangeSet(t, tuple(cs)) for t, cs in enumerate(sets, 2))
    )


def attr_slots(graph: TemporalGraph) -> Set[Tuple[str, str]]:
    """Every (vertex, attribute) slot that the base map holds or a change
    set writes."""
    slots = {(vid, name) for vid, named in graph.base_attrs.items() for name in named}
    for cs in graph.changesets:
        slots.update((c.vid, c.name) for c in cs.changes if isinstance(c, (AttrSet, AttrDelete)))
    return slots


def full_diff_changesets(graph: TemporalGraph) -> List[ChangeSet]:
    """The change sets turning each snapshot into the next, from a full
    diff of their edge sets and of every attribute either one holds, in the
    canonical order: edge deletions, attribute deletions, attribute sets,
    edge insertions, each sorted."""
    out = []
    views = [graph.view(t) for t in range(1, graph.T + 1)]
    for t in range(2, graph.T + 1):
        prev, cur = graph.snapshot(t - 1), graph.snapshot(t)
        old, new = views[t - 2].edges, views[t - 1].edges
        keys = {
            (vid, name) for u in (t - 1, t) for vid, named in attrs_at(graph, u).items() for name in named
        }
        unset = sorted(k for k in keys if cur.attr(*k) is None and prev.attr(*k) is not None)
        sets = sorted((*k, cur.attr(*k)) for k in keys if cur.attr(*k) not in (None, prev.attr(*k)))
        changes = [EdgeDelete(*e) for e in sorted(old - new)]
        changes += [AttrDelete(*k) for k in unset]
        changes += [AttrSet(*k) for k in sets]
        changes += [EdgeInsert(*e) for e in sorted(new - old)]
        out.append(ChangeSet(t, tuple(changes)))
    return out


def reversed_graph(graph: TemporalGraph) -> TemporalGraph:
    """graph played backwards: its snapshot t is graph's snapshot T + 1 - t.
    The base holds the edges of view(T) and the attributes of snapshot(T).
    Each change set is one of `derive_changesets` inverted: its inserts and
    deletes swap, and each slot it changes takes its value at t - 1, or is
    deleted where that value is unset."""
    T = graph.T
    inverted = []
    for cs in reversed(derive_changesets(graph)):
        before = graph.snapshot(cs.t - 1)
        changes: List = []
        for c in cs.changes:
            if isinstance(c, EdgeInsert):
                changes.append(EdgeDelete(c.src, c.label, c.dst))
            elif isinstance(c, EdgeDelete):
                changes.append(EdgeInsert(c.src, c.label, c.dst))
            else:
                value = before.attr(c.vid, c.name)
                changes.append(AttrDelete(c.vid, c.name) if value is None else AttrSet(c.vid, c.name, value))
        inverted.append(ChangeSet(T + 2 - cs.t, tuple(changes)))
    base = TemporalGraph(graph.vertices, graph.view(T).edges, attrs_at(graph, T))
    return apply_changes(base, *inverted)


class Renaming:
    """A renaming of a temporal graph and its rules: vertex ids by the given
    bijection, and types, edge labels, attribute names and values each by
    its own injective map on strings.  The wildcard `_` and the variable
    and rule names stay."""

    def __init__(self, ids: Dict[str, str]):
        self.ids = ids
        self.type = lambda s: s if s == "_" else f"T.{s[::-1]}"
        self.label = lambda s: f"L.{s[::-1]}"
        self.attr = lambda s: f"A.{s[::-1]}"
        self.value = lambda s: f"V.{s[::-1]}"

    def graph(self, graph: TemporalGraph) -> TemporalGraph:
        ids, label, attr, value = self.ids, self.label, self.attr, self.value
        edge = lambda src, l, dst: (ids[src], label(l), ids[dst])
        vertices = {
            ids[vid]: Vertex(ids[vid], self.type(v.type_label)) for vid, v in graph.vertices.items()
        }
        attrs = {
            ids[vid]: {attr(name): value(val) for name, val in named.items()}
            for vid, named in graph.base_attrs.items()
        }
        sets = []
        for cs in graph.changesets:
            changes: List = []
            for c in cs.changes:
                if isinstance(c, (EdgeInsert, EdgeDelete)):
                    changes.append(type(c)(*edge(c.src, c.label, c.dst)))
                elif isinstance(c, AttrSet):
                    changes.append(AttrSet(ids[c.vid], attr(c.name), value(c.value)))
                else:
                    changes.append(AttrDelete(ids[c.vid], attr(c.name)))
            sets.append(ChangeSet(cs.t, tuple(changes)))
        base = TemporalGraph(vertices, [edge(*e) for e in graph.base_edges], attrs)
        return apply_changes(base, *sets)

    def literal(self, lit: Literal) -> Literal:
        if isinstance(lit, ConstantLiteral):
            return ConstantLiteral(lit.var, self.attr(lit.attr), self.value(lit.value))
        return VariableLiteral(lit.var1, self.attr(lit.attr1), lit.var2, self.attr(lit.attr2))

    def rule(self, sigma: Tgfd) -> Tgfd:
        pattern = GraphPattern(
            [(var, self.type(label)) for var, label in sigma.pattern.nodes],
            [(src, self.label(l), dst) for src, l, dst in sigma.pattern.edges],
        )
        return Tgfd(
            sigma.name, pattern, sigma.delta,
            [self.literal(l) for l in sigma.x_literals],
            [self.literal(l) for l in sigma.y_literals],
        )


def mutated_attr_maps(graph: TemporalGraph, mutations) -> List[Dict[str, Dict[str, str]]]:
    """Each timestamp's attribute map (`attrs_at`) with the mutations
    written into it, in order, each at its own timestamp only."""
    maps = [attrs_at(graph, t) for t in range(1, graph.T + 1)]
    for m in mutations:
        maps[m.t - 1].setdefault(m.vid, {})[m.attr] = m.new
    return maps


# ---------------------------------------------------------------------------
# record tokenizer oracle
# ---------------------------------------------------------------------------


def tokenize_by_characters(line: str, lineno: int) -> List[str]:
    """The graph parser's character-by-character tokenizer, kept as the
    reference for its split() fast path: whitespace (str.isspace) separates
    tokens outside quotes; inside them, \\" is a quote, \\\\ a backslash
    and " ends the quote."""
    tokens: List[str] = []
    buf: List[str] = []
    quoted = False
    i = 0
    while i < len(line):
        ch = line[i]
        if quoted:
            if ch == "\\" and i + 1 < len(line) and line[i + 1] in '"\\':
                buf.append(line[i + 1])
                i += 1
            elif ch == '"':
                quoted = False
            else:
                buf.append(ch)
        elif ch == '"':
            quoted = True
        elif ch.isspace():
            if buf:
                tokens.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
        i += 1
    if quoted:
        raise GraphFormatError("unterminated quote", lineno)
    if buf:
        tokens.append("".join(buf))
    if not tokens:
        raise GraphFormatError("record holds only empty tokens", lineno)
    return tokens


# ---------------------------------------------------------------------------
# brute-force matching
# ---------------------------------------------------------------------------


def brute_matches(pattern: GraphPattern, view: GraphView) -> Set[MatchBinding]:
    """Injective assignments by plain depth-first enumeration in declaration
    order, pruning on edges among the placed variables (self-loops included)."""
    variables = list(pattern.vars)
    candidates = {}
    for var in variables:
        label = pattern.label_of(var)
        if label == "_":
            candidates[var] = sorted(view.vertices())
        else:
            candidates[var] = sorted(view.vertices_of_type(label))
    out: Set[MatchBinding] = set()
    assignment: Dict[str, str] = {}

    def place(i: int) -> None:
        if i == len(variables):
            out.add(MatchBinding.of(view.t, dict(assignment)))
            return
        var = variables[i]
        for vid in candidates[var]:
            if vid in assignment.values():
                continue
            assignment[var] = vid
            if all(
                view.has_edge(assignment[s], l, assignment[d])
                for (s, l, d) in pattern.edges
                if var in (s, d) and s in assignment and d in assignment
            ):
                place(i + 1)
            del assignment[var]

    place(0)
    return out


def brute_matches_all_maps(pattern: GraphPattern, view: GraphView) -> Set[MatchBinding]:
    """Even more literal: every injective map of variables onto vertices."""
    variables = list(pattern.vars)
    vids = sorted(view.vertices())
    out: Set[MatchBinding] = set()
    for combo in itertools.permutations(vids, len(variables)):
        assignment = dict(zip(variables, combo))
        label_ok = all(
            pattern.label_of(v) == "_" or view.type_of(assignment[v]) == pattern.label_of(v)
            for v in variables
        )
        if not label_ok:
            continue
        if all(
            view.has_edge(assignment[s], l, assignment[d]) for (s, l, d) in pattern.edges
        ):
            out.add(MatchBinding.of(view.t, assignment))
    return out


def live_matches(matcher, t: int) -> Set[MatchBinding]:
    """matcher.topological_matches() as a set of bindings at t, after
    checking that it lists each live match's items once, in items order."""
    found = matcher.topological_matches()
    assert found == sorted(set(found)), "live matches not once each in items order"
    return {MatchBinding(t, items) for items in found}


def complete_keys(matcher) -> Set[Tuple[Tuple[str, str], ...]]:
    """The matcher's complete matches as sorted (variable, vertex) pairs."""
    return {b.items for b in live_matches(matcher, matcher.view.t)}


# ---------------------------------------------------------------------------
# rule text
# ---------------------------------------------------------------------------


def format_tgfd(sigma: Tgfd) -> str:
    """Serialize one rule in the definition language."""
    lines = [f"tgfd {sigma.name}"]
    for var, label in sigma.pattern.nodes:
        lines.append(f"vertex {var} {label}")
    for src, label, dst in sigma.pattern.edges:
        lines.append(f"edge {src} {label} {dst}")
    lines.append(f"delta ({sigma.delta.p}, {sigma.delta.q})")

    def fmt(lit: Literal) -> str:
        if isinstance(lit, ConstantLiteral):
            return f'{lit.var}.{lit.attr} = "{lit.value}"'
        return f"{lit.var1}.{lit.attr1} == {lit.var2}.{lit.attr2}"

    if sigma.x_literals:
        lines.append("x: " + "; ".join(fmt(l) for l in sorted(sigma.x_literals, key=literal_sort_key)))
    lines.append("y: " + "; ".join(fmt(l) for l in sorted(sigma.y_literals, key=literal_sort_key)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# fragment views from scratch
# ---------------------------------------------------------------------------


def ball_edges(view: GraphView, ball: Set[str]) -> Set[Edge]:
    """Edges of the view with both endpoints in ball, self-loops included."""
    return {
        (src, label, dst)
        for src in ball
        for label, dst in view.out_edges(src)
        if dst in ball
    }


def fragment_view_from_scratch(
    full: GraphView, owned: frozenset, anchor_specs: Sequence[Tuple[str, int]]
) -> GraphView:
    """A fragment's working view built from the full view alone: the owned
    subgraph plus the induced balls around owned anchor candidates;
    anchor_specs lists (anchor label, ball radius)."""
    nodes: Set[str] = set(owned)
    edges = ball_edges(full, owned)
    for label, radius in anchor_specs:
        candidates = owned if label == "_" else [v for v in owned if full.type_of(v) == label]
        for center in sorted(candidates):
            ball = ball_vertices(full, center, radius)
            nodes |= ball
            edges |= ball_edges(full, ball)
    return GraphView(full.t, {vid: full.type_of(vid) for vid in nodes}, edges)


def view_delta(prev: GraphView, cur: GraphView) -> Tuple[List, List]:
    """The full diff of two working views: the edges and the vertices in
    one but not the other, each sorted."""
    return sorted(prev.edges ^ cur.edges), sorted(prev.vertices() ^ cur.vertices())


# ---------------------------------------------------------------------------
# pairwise violation oracle
# ---------------------------------------------------------------------------


def pair_satisfies(hi: MatchBinding, hj: MatchBinding, lits: Iterable[Literal], graph) -> bool:
    """Whether the match pair satisfies every literal.

    Constant u.A=c needs both matches to carry value c; variable u.A=u'.A'
    compares hi's left side to hj's right side.  A missing attribute fails
    the literal.
    """
    si = graph.snapshot(hi.t)
    sj = graph.snapshot(hj.t)
    for lit in lits:
        if isinstance(lit, ConstantLiteral):
            vi, vj = hi.get(lit.var), hj.get(lit.var)
            if vi is None or vj is None:
                return False
            if si.attr(vi, lit.attr) != lit.value or sj.attr(vj, lit.attr) != lit.value:
                return False
        else:
            vi, vj = hi.get(lit.var1), hj.get(lit.var2)
            if vi is None or vj is None:
                return False
            a = si.attr(vi, lit.attr1)
            b = sj.attr(vj, lit.attr2)
            if a is None or b is None or a != b:
                return False
    return True


def brute_matches_by_t(graph: TemporalGraph, pattern: GraphPattern) -> Dict[int, List[MatchBinding]]:
    """{t: brute matches of snapshot t sorted by items}, t = 1..T."""
    return {
        t: sorted(brute_matches(pattern, graph.view(t)), key=lambda b: b.items)
        for t in range(1, graph.T + 1)
    }


def satisfying_pairs(
    graph: TemporalGraph,
    sigma: Tgfd,
    matches: Optional[Dict[int, List[MatchBinding]]] = None,
) -> List[Tuple[MatchBinding, MatchBinding]]:
    """Every (earlier, later) pair of brute matches inside the rule's
    interval that satisfies X and Y; matches, when given, are
    `brute_matches_by_t`'s."""
    if matches is None:
        matches = brute_matches_by_t(graph, sigma.pattern)
    x, y = list(sigma.x_literals), list(sigma.y_literals)
    return [
        (hi, hj)
        for ti in range(1, graph.T + 1)
        for tj in range(ti, graph.T + 1)
        if sigma.delta.contains(tj - ti)
        for hi in matches[ti]
        for hj in matches[tj]
        if (ti, hi.items) < (tj, hj.items)
        and pair_satisfies(hi, hj, x, graph)
        and pair_satisfies(hi, hj, y, graph)
    ]


def oracle_violations(graph: TemporalGraph, sigma: Tgfd) -> Set[Tuple]:
    """Violation keys from first principles: brute matches per snapshot, a
    double loop over in-interval pairs for variable consequents, and the
    degenerate self-pair check for constant consequents."""
    matches = brute_matches_by_t(graph, sigma.pattern)
    x = sorted(sigma.x_literals, key=str)
    y = sorted(sigma.y_literals, key=str)
    y_constant = all(isinstance(l, ConstantLiteral) for l in y)
    out: Set[Tuple] = set()
    if y_constant:
        for t in range(1, graph.T + 1):
            for h in matches[t]:
                if pair_satisfies(h, h, x, graph) and not pair_satisfies(h, h, y, graph):
                    out.add((sigma.name, t, t, h.items, h.items))
        return out
    for ti in range(1, graph.T + 1):
        for tj in range(ti, graph.T + 1):
            if not sigma.delta.contains(tj - ti):
                continue
            for hi in matches[ti]:
                for hj in matches[tj]:
                    if ti == tj and hi.items >= hj.items:
                        continue
                    violated = False
                    for a, b in ((hi, hj), (hj, hi)):
                        if pair_satisfies(a, b, x, graph) and not pair_satisfies(a, b, y, graph):
                            violated = True
                    if violated:
                        out.add((sigma.name, ti, tj, hi.items, hj.items))
    return out


def oracle_ledger(
    graph: TemporalGraph, mutated: TemporalGraph, rules: Sequence[Tgfd], mutations
) -> Tuple[Set[Tuple], Set[Tuple], int]:
    """(gamma_plus, gamma_minus, pool size) of an injection, from first
    principles.  The pool is every (earlier, later) pair of brute matches
    inside the interval that satisfies X and Y on the clean graph.  The
    candidates are each match paired with itself when Y is constant, else
    every (earlier, later) pair of brute matches inside the interval.  A
    candidate violates a graph when some orientation satisfies X and fails
    Y there.  The ledger is the scoring identities (rule, sorted sides) of
    the candidates that hold a mutated match and violate on the mutated
    graph, less those of the candidates that violate on the clean graph.
    Rules must be in normal form (one consequent literal each)."""
    kinds_at: Dict[Tuple[int, str], Set[str]] = {}
    for m in mutations:
        kinds_at.setdefault((m.t, m.vid), set()).add(m.kind)

    def touched(h: MatchBinding) -> Set[str]:
        return set().union(*(kinds_at.get((h.t, vid), set()) for _, vid in h.items))

    def violates(hi: MatchBinding, hj: MatchBinding, x, y, g: TemporalGraph) -> bool:
        """Some orientation of the pair satisfies x and fails y on g."""
        return any(
            pair_satisfies(a, b, x, g) and not pair_satisfies(a, b, y, g)
            for a, b in ((hi, hj), (hj, hi))
        )

    def key(name: str, hi: MatchBinding, hj: MatchBinding) -> Tuple:
        sides = sorted([(hi.t, hi.sorted_ids), (hj.t, hj.sorted_ids)])
        return (name, sides[0], sides[1])

    after: Dict[Tuple, Set[str]] = {}
    before: Set[Tuple] = set()
    pool_size = 0
    for sigma in rules:
        x, y = list(sigma.x_literals), list(sigma.y_literals)
        matches = brute_matches_by_t(graph, sigma.pattern)
        pool_size += len(satisfying_pairs(graph, sigma, matches))
        if all(isinstance(l, ConstantLiteral) for l in y):
            candidates = [(h, h) for ms in matches.values() for h in ms]
        else:
            candidates = [
                (hi, hj)
                for ti in range(1, graph.T + 1)
                for tj in range(ti, graph.T + 1)
                if sigma.delta.contains(tj - ti)
                for hi in matches[ti]
                for hj in matches[tj]
                if (ti, hi.items) < (tj, hj.items)
            ]
        for hi, hj in candidates:
            kinds = touched(hi) | touched(hj)
            if kinds and violates(hi, hj, x, y, mutated):
                after[key(sigma.name, hi, hj)] = kinds
            if violates(hi, hj, x, y, graph):
                before.add(key(sigma.name, hi, hj))
    new = {k: kinds for k, kinds in after.items() if k not in before}
    plus = {k for k, kinds in new.items() if "-" not in kinds}
    minus = {k for k, kinds in new.items() if "-" in kinds}
    return plus, minus, pool_size


def engine_violation_keys(violations) -> Set[Tuple]:
    """Project engine violations onto the oracle's key shape."""
    from tgfd.detection import PairViolation

    out: Set[Tuple] = set()
    for v in violations:
        if isinstance(v, PairViolation):
            a, b = sorted(
                [(v.binding_i.t, v.binding_i.items), (v.binding_j.t, v.binding_j.items)]
            )
            out.add((v.tgfd, a[0], b[0], a[1], b[1]))
        else:
            out.add((v.tgfd, v.binding.t, v.binding.t, v.binding.items, v.binding.items))
    return out


def canonical_pairs(violations) -> bool:
    """Whether every pair violation lists its earlier match first:
    (t_i, items_i) < (t_j, items_j).  engine_violation_keys sorts the two
    sides and compares sets, so it sees neither a reversed pair nor a
    duplicate; compare the lists themselves and check this as well."""
    from tgfd.detection import PairViolation

    return all(
        (v.binding_i.t, v.binding_i.items) < (v.binding_j.t, v.binding_j.items)
        for v in violations
        if isinstance(v, PairViolation)
    )


def gfd_snapshot_oracle(graph: TemporalGraph, sigma: Tgfd) -> Set[Tuple]:
    """Snapshot-local validator: each snapshot checked independently."""
    x = sorted(sigma.x_literals, key=str)
    y = sorted(sigma.y_literals, key=str)
    y_constant = all(isinstance(l, ConstantLiteral) for l in y)
    out: Set[Tuple] = set()
    for t in range(1, graph.T + 1):
        ms = sorted(brute_matches(sigma.pattern, graph.view(t)), key=lambda b: b.items)
        if y_constant:
            for h in ms:
                if pair_satisfies(h, h, x, graph) and not pair_satisfies(h, h, y, graph):
                    out.add((sigma.name, t, t, h.items, h.items))
            continue
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                hi, hj = ms[i], ms[j]
                violated = False
                for a, b in ((hi, hj), (hj, hi)):
                    if pair_satisfies(a, b, x, graph) and not pair_satisfies(a, b, y, graph):
                        violated = True
                if violated:
                    out.add((sigma.name, t, t, hi.items, hj.items))
    return out


# The golden instance's rules (tests/test_golden.py): shaped like the
# benchmark's, plus one general-form rule (r4).
GOLDEN_RULES = """\
tgfd r1
vertex x T0
vertex y T1
edge x l0 y
delta (0, 3)
x: x.a0 == x.a0
y: y.a1 == y.a1

tgfd r2
vertex x T0
vertex y T1
vertex z T2
edge x l0 y
edge y l1 z
delta (1, 2)
x: z.a0 == z.a0
y: x.a1 == x.a1

tgfd r3
vertex x T2
vertex y T3
edge x l2 y
delta (0, 0)
x: x.a0 = "val1"
y: y.a2 = "val3"

tgfd r4
vertex x T0
vertex y T1
edge x l0 y
delta (0, 3)
x: x.a0 == y.a0
y: x.a2 == y.a2
"""


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

TYPE_POOL = ["person", "city", "team", "org", "item", "tag"]
LABEL_POOL = ["knows", "in", "plays", "owns"]
ATTR_POOL = ["name", "rank", "code"]
VALUE_POOL = ["a", "b", "c", "d"]


def random_graph(rng: random.Random, n_vertices: int, n_edges: int, n_types: int = 4) -> TemporalGraph:
    vertices = {f"v{i}": TYPE_POOL[rng.randrange(n_types)] for i in range(n_vertices)}
    vids = sorted(vertices)
    edges = set()
    guard = 0
    while len(edges) < n_edges and guard < 40 * n_edges:
        guard += 1
        a, b = rng.choice(vids), rng.choice(vids)
        if a != b:
            edges.add((a, rng.choice(LABEL_POOL), b))
    attrs = {
        vid: {name: rng.choice(VALUE_POOL) for name in ATTR_POOL} for vid in vids
    }
    return build_graph(vertices, sorted(edges), attrs)


def random_changes(
    rng: random.Random,
    graph: TemporalGraph,
    t: int,
    count: int,
    profile: Tuple[float, float, float] = (0.4, 0.3, 0.3),
    loops: int = 0,
) -> ChangeSet:
    """(attr updates, edge deletions, edge insertions) fractions; `loops`
    adds up to that many deletions of live self-loops and that many
    self-loop insertions on top."""
    au_frac, ed_frac, ei_frac = profile
    n_ed = round(ed_frac * count)
    n_ei = round(ei_frac * count)
    n_au = count - n_ed - n_ei
    snap = graph.snapshots[-1]
    vids = sorted(graph.vertices)
    live = graph.view(graph.T).edges
    changes = []
    deletable = sorted(live)
    rng.shuffle(deletable)
    for e in deletable[: min(n_ed, len(deletable))]:
        changes.append(EdgeDelete(*e))
        live.discard(e)
    if loops:
        old_loops = sorted(e for e in live if e[0] == e[2])
        rng.shuffle(old_loops)
        for e in old_loops[:loops]:
            changes.append(EdgeDelete(*e))
            live.discard(e)
    for _ in range(loops):
        vid = rng.choice(vids)
        e = (vid, rng.choice(LABEL_POOL), vid)
        if e not in live:
            changes.append(EdgeInsert(*e))
            live.add(e)
    added = 0
    guard = 0
    while added < n_ei and guard < 100 * n_ei + 50:
        guard += 1
        a, b = rng.choice(vids), rng.choice(vids)
        if a == b:
            continue
        e = (a, rng.choice(LABEL_POOL), b)
        if e in live:
            continue
        changes.append(EdgeInsert(*e))
        live.add(e)
        added += 1
    for _ in range(n_au):
        vid = rng.choice(vids)
        name = rng.choice(ATTR_POOL)
        current = snap.attr(vid, name)
        changes.append(AttrSet(vid, name, rng.choice([v for v in VALUE_POOL if v != current])))
    return ChangeSet(t=t, changes=tuple(changes))


def random_temporal_graph(
    rng: random.Random,
    n_vertices: int = 40,
    n_edges: int = 80,
    T: int = 6,
    chg: float = 0.1,
    profile: Tuple[float, float, float] = (0.4, 0.3, 0.3),
) -> TemporalGraph:
    graph = random_graph(rng, n_vertices, n_edges)
    count = max(1, round(chg * n_edges))
    for t in range(2, T + 1):
        graph = apply_changes(graph, random_changes(rng, graph, t, count, profile))
    return graph


def random_pattern(rng: random.Random, max_edges: int = 4) -> GraphPattern:
    """Small connected pattern over the shared type pool."""
    n_edges = rng.randint(1, max_edges)
    variables = ["x", "y", "z", "w", "u"][: n_edges + 1]
    nodes = [(v, TYPE_POOL[rng.randrange(4)]) for v in variables]
    edges = []
    for i in range(1, len(variables)):
        # attach each new variable to a previous one; direction random
        other = variables[rng.randrange(i)]
        label = rng.choice(LABEL_POOL)
        if rng.random() < 0.5:
            edges.append((other, label, variables[i]))
        else:
            edges.append((variables[i], label, other))
    edges = edges[:n_edges]
    return GraphPattern(nodes, edges)


def pair_isolated_instance(
    n_entities: int = 100,
    slots: int = 5,
    duplicate_names: int = 0,
) -> Tuple[TemporalGraph, Tgfd]:
    """A clean instance whose satisfying-pair pool is fully known.

    Entity i is a person/team edge alive only at the two timestamps of its
    slot, so with interval (0, 1) each entity contributes exactly one
    satisfying pair and no violations exist.  duplicate_names > 0 gives that
    many entities per slot a shared name, adding same-timestamp pairs.
    """
    vertices: Dict[str, str] = {}
    attrs: Dict[str, Dict[str, str]] = {}
    base_edges: List[Tuple[str, str, str]] = []
    per_slot: Dict[int, List[Tuple[str, str, str]]] = {j: [] for j in range(slots)}
    for i in range(n_entities):
        a, b = f"a{i}", f"b{i}"
        vertices[a] = "person"
        vertices[b] = "team"
        slot = i % slots
        dup = i % slots == slot and (i // slots) < duplicate_names
        attrs[a] = {"name": f"shared{slot}" if dup else f"n{i}"}
        attrs[b] = {"code": "ok"}
        edge = (a, "plays", b)
        per_slot[slot].append(edge)
        if slot == 0:
            base_edges.append(edge)
    graph = build_graph(vertices, base_edges, attrs)
    T = 2 * slots
    for t in range(2, T + 1):
        changes: List = []
        if t % 2 == 1:  # a new slot begins at odd timestamps
            old_slot = (t - 3) // 2
            new_slot = (t - 1) // 2
            changes.extend(EdgeDelete(*e) for e in per_slot[old_slot])
            changes.extend(EdgeInsert(*e) for e in per_slot[new_slot])
        graph = apply_changes(graph, ChangeSet(t=t, changes=tuple(changes)))
    sigma = Tgfd(
        "pairs",
        GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")]),
        Delta(0, 1),
        [VariableLiteral("x", "name", "x", "name")],
        [VariableLiteral("y", "code", "y", "code")],
    )
    return graph, sigma


def exotic_pattern(rng: random.Random) -> GraphPattern:
    """Shapes the tree generator never emits: diamonds, directed cycles,
    parallel labels, wildcard hubs, self-loops."""
    t = lambda: TYPE_POOL[rng.randrange(4)]
    l = lambda: rng.choice(LABEL_POOL)
    kind = rng.randrange(5)
    if kind == 0:
        return GraphPattern(
            [("x", t()), ("y", t()), ("z", t()), ("w", t())],
            [("x", l(), "y"), ("x", l(), "z"), ("y", l(), "w"), ("z", l(), "w")],
        )
    if kind == 1:
        return GraphPattern(
            [("x", t()), ("y", t()), ("z", t())],
            [("x", l(), "y"), ("y", l(), "z"), ("z", l(), "x")],
        )
    if kind == 2:
        la, lb = rng.sample(LABEL_POOL, 2)
        return GraphPattern(
            [("x", t()), ("y", t()), ("z", t())],
            [("x", la, "y"), ("x", lb, "y"), ("y", la, "z")],
        )
    if kind == 3:
        return GraphPattern(
            [("x", "_"), ("y", t()), ("z", t())],
            [("y", l(), "x"), ("x", l(), "z")],
        )
    if rng.random() < 0.5:
        return GraphPattern([("x", t())], [("x", l(), "x")])
    return GraphPattern(
        [("x", t()), ("y", t())],
        [("x", l(), "x"), ("x", l(), "y")],
    )


def _decorated(
    rng: random.Random, variables: Sequence[str], edges: List[Tuple[str, str, str]]
) -> GraphPattern:
    """A pattern over variables and edges, over two types and two labels,
    with a wildcard node about one time in six, a self-loop one time in
    eight, and a parallel edge of the other label one time in six."""
    labels = LABEL_POOL[:2]
    nodes = [(v, "_" if rng.random() < 1 / 6 else rng.choice(TYPE_POOL[:2])) for v in variables]
    extra = [(v, rng.choice(labels), v) for v in variables if rng.random() < 1 / 8]
    for src, label, dst in list(edges):
        if rng.random() < 1 / 6:
            extra.append((src, labels[1 - labels.index(label)], dst))
    return GraphPattern(nodes, edges + extra)


def chain_pattern(rng: random.Random, n: int) -> GraphPattern:
    """n variables in a line, each edge in a random direction."""
    variables = [f"c{i}" for i in range(n)]
    edges = []
    for a, b in zip(variables, variables[1:]):
        src, dst = (a, b) if rng.random() < 0.5 else (b, a)
        edges.append((src, rng.choice(LABEL_POOL[:2]), dst))
    return _decorated(rng, variables, edges)


def grid_pattern(rng: random.Random, rows: int, cols: int) -> GraphPattern:
    """A rows x cols grid, edges pointing right and down."""
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    edges = [
        (f"g{r}{c}", rng.choice(LABEL_POOL[:2]), f"g{r2}{c2}")
        for r, c in cells
        for r2, c2 in ((r, c + 1), (r + 1, c))
        if r2 < rows and c2 < cols
    ]
    return _decorated(rng, [f"g{r}{c}" for r, c in cells], edges)


def sub_pattern(rng: random.Random, big: GraphPattern, n: int) -> GraphPattern:
    """A connected piece of big over at most n of its variables, renamed,
    with some of its edges dropped and some of its labels made wildcards,
    so that it embeds into big at least once."""
    piece = [rng.choice(big.vars)]
    while len(piece) < min(n, len(big.vars)):
        reach = sorted(
            {d for s, _, d in big.edges if s in piece} | {s for s, _, d in big.edges if d in piece}
        )
        piece.append(rng.choice([v for v in reach if v not in piece]))
    name = {v: f"s{i}" for i, v in enumerate(piece)}
    nodes = [(name[v], "_" if rng.random() < 0.25 else big.label_of(v)) for v in piece]
    edges = [(name[s], l, name[d]) for s, l, d in big.edges if s in name and d in name]
    rng.shuffle(edges)
    kept: List[Tuple[str, str, str]] = []
    for e in edges:  # once the kept edges connect the piece, drop about 30%
        if rng.random() < 0.7 or not is_weakly_connected(labelled_digraph(nodes, kept)):
            kept.append(e)
    return GraphPattern(nodes, kept)


def exotic_rule(rng: random.Random, name: str) -> Tgfd:
    pattern = exotic_pattern(rng)
    variables = list(pattern.vars)
    p = rng.randint(0, 2)
    q = rng.randint(p, p + 3)
    x = []
    if rng.random() > 0.25:  # else: empty antecedent
        var = rng.choice(variables)
        x.append(VariableLiteral(var, "name", var, "name"))
        if rng.random() < 0.4:
            x.append(ConstantLiteral(rng.choice(variables), "rank", rng.choice(VALUE_POOL)))
    y_var = rng.choice(variables)
    if rng.random() < 0.4:
        y = [ConstantLiteral(y_var, "code", rng.choice(VALUE_POOL))]
    else:
        y = [VariableLiteral(y_var, "code", y_var, "code")]
    return Tgfd(name, pattern, Delta(p, q), x, y)


def skewed_fragments(graph: TemporalGraph, n: int, rng: random.Random):
    """Worker 1 owns roughly 70% of the vertices; the rest split the rest."""
    from tgfd.graph import Fragment

    vids = sorted(graph.vertices)
    rng.shuffle(vids)
    cut = int(0.7 * len(vids))
    frags = [Fragment(worker_id=1, owned_vertices=frozenset(vids[:cut]))]
    rest = vids[cut:]
    per = max(1, len(rest) // max(1, n - 1))
    for w in range(2, n + 1):
        chunk = rest[(w - 2) * per :] if w == n else rest[(w - 2) * per : (w - 1) * per]
        frags.append(Fragment(worker_id=w, owned_vertices=frozenset(chunk)))
    owned = set()
    for f in frags:
        owned |= f.owned_vertices
    missing = frozenset(set(graph.vertices) - owned)
    if missing:
        frags[0] = Fragment(
            worker_id=1, owned_vertices=frags[0].owned_vertices | missing
        )
    return frags


def random_tgfd(rng: random.Random, name: str, max_edges: int = 4, T: int = 6) -> Tgfd:
    pattern = random_pattern(rng, max_edges)
    variables = list(pattern.vars)
    p = rng.randint(0, 2)
    q = rng.randint(p, min(T, p + 3))
    x_literals = []
    if rng.random() < 0.7:
        var = rng.choice(variables)
        x_literals.append(VariableLiteral(var, "name", var, "name"))
    if rng.random() < 0.5:
        x_literals.append(
            ConstantLiteral(rng.choice(variables), "rank", rng.choice(VALUE_POOL))
        )
    y_var = rng.choice(variables)
    if rng.random() < 0.5:
        y_literals = [VariableLiteral(y_var, "code", y_var, "code")]
    else:
        y_literals = [ConstantLiteral(y_var, "code", rng.choice(VALUE_POOL))]
    return Tgfd(name, pattern, Delta(p, q), x_literals, y_literals)


def _general_literal(rng: random.Random, variables: Sequence[str], attrs: Sequence[str]) -> VariableLiteral:
    """`u.A == w.B` that is not self-form: another variable or attribute."""
    var1, var2 = rng.choice(variables), rng.choice(variables)
    attr1, attr2 = rng.choice(attrs), rng.choice(attrs)
    if (var1, attr1) == (var2, attr2):
        attr2 = next(a for a in attrs if a != attr1)
    return VariableLiteral(var1, attr1, var2, attr2)


def shaped_pattern(rng: random.Random) -> GraphPattern:
    """One node, one edge, a wildcard anchor or a two-edge path, over the
    first two types and labels of the pools, so that shaped_instance's
    graphs match often."""
    t = lambda: rng.choice(TYPE_POOL[:2])
    l = lambda: rng.choice(LABEL_POOL[:2])
    kind = rng.randrange(4)
    if kind == 0:
        return GraphPattern([("x", t())])
    if kind == 1:
        return GraphPattern([("x", t()), ("y", t())], [("x", l(), "y")])
    if kind == 2:
        return GraphPattern([("x", "_"), ("y", t())], [("x", l(), "y")])
    return GraphPattern([("x", t()), ("y", t()), ("z", t())], [("x", l(), "y"), ("z", l(), "y")])


def shaped_rule(rng: random.Random, name: str, T: int) -> Tgfd:
    """A rule of a shape the detector's pair test branches on.

    X is any mix of a general-form literal (`x.A == y.B`), a constant and a
    self-form literal, or empty; Y is one general-form, constant or
    self-form literal; q reaches T or past it about a third of the time."""
    pattern = shaped_pattern(rng)
    variables = list(pattern.vars)
    x: List[Literal] = []
    if rng.random() < 0.5:
        x.append(_general_literal(rng, variables, ("name", "rank")))
    if rng.random() < 0.4:
        x.append(ConstantLiteral(rng.choice(variables), "rank", rng.choice(VALUE_POOL)))
    if rng.random() < 0.3:
        var = rng.choice(variables)
        x.append(VariableLiteral(var, "name", var, "name"))
    y_shape = rng.randrange(3)
    if y_shape == 0:
        y: Literal = _general_literal(rng, variables, ("code", "rank"))
    elif y_shape == 1:
        y = ConstantLiteral(rng.choice(variables), "code", rng.choice(VALUE_POOL))
    else:
        var = rng.choice(variables)
        y = VariableLiteral(var, "code", var, "code")
    p = rng.randint(0, 2)
    q = rng.randint(T, T + 3) if rng.random() < 0.35 else rng.randint(p, p + 2)
    return Tgfd(name, pattern, Delta(p, q), x, [y])


def shaped_instance(
    seed: int, T: Optional[int] = None, changes: int = 6
) -> Tuple[TemporalGraph, List[Tgfd]]:
    """A small random temporal graph over two vertex types, with two
    shaped_rule rules.  T is drawn from 3-5 unless given; each change set
    holds `changes` changes."""
    rng = random.Random(9_000 + seed)
    if T is None:
        T = rng.randint(3, 5)
    g = random_graph(rng, 12, 36, n_types=2)
    for t in range(2, T + 1):
        g = apply_changes(g, random_changes(rng, g, t, changes))
    return g, [shaped_rule(rng, f"s{i}", T) for i in range(2)]


def rule_shapes(sigma: Tgfd, T: int) -> Set[str]:
    """The shapes of shaped_rule that sigma has."""
    shapes = set()
    if not sigma.x_literals:
        shapes.add("empty X")
    for side, lits in (("X", sigma.x_literals), ("Y", sigma.y_literals)):
        for lit in lits:
            if isinstance(lit, ConstantLiteral):
                shapes.add(f"constant {side}")
            elif not lit.is_self_form:
                shapes.add(f"general {side}")
    if sigma.delta.q >= T:
        shapes.add("q >= T")
    return shapes


# ---------------------------------------------------------------------------
# the reference packer
# ---------------------------------------------------------------------------


def reference_greedy_pack(jobs, n: int, cap: float) -> Optional[Dict[str, int]]:
    """Size-descending first-fit under a makespan cap, each job on the
    fitting worker of least (cost_on(w), w): every job sorts all n
    workers.  gen_assign's packer must map every job as this one does."""
    order = sorted(jobs, key=lambda j: (-j.size, j.ship_in, j.name))
    loads = {w: 0.0 for w in range(1, n + 1)}
    mapping: Dict[str, int] = {}
    eps = 1e-9
    for job in order:
        options = [w for w in loads if loads[w] + job.size <= cap + eps]
        if not options:
            return None
        options.sort(key=lambda w: (job.cost_on(w), w))
        chosen = options[0]
        mapping[job.name] = chosen
        loads[chosen] += job.size
    return mapping


def reference_gen_assign(jobs, n: int, bounds: Tuple[float, float]):
    """gen_assign's bisection on the makespan over reference_greedy_pack,
    for jobs inside bounds."""
    from tgfd.parallel import Assignment

    if not jobs:
        return Assignment({}, 0.0, 0.0)
    total = sum(j.size for j in jobs)
    lo, hi = max(total / n, max(j.size for j in jobs)), total
    best = reference_greedy_pack(jobs, n, hi)
    for _ in range(64):
        if hi - lo < 1e-9:
            break
        mid = (lo + hi) / 2
        packed = reference_greedy_pack(jobs, n, mid)
        if packed is not None:
            best, hi = packed, mid
        else:
            lo = mid
    by_name = {j.name: j for j in jobs}
    loads: Dict[int, float] = {}
    cost = 0.0
    for name, worker in best.items():
        loads[worker] = loads.get(worker, 0.0) + by_name[name].size
        cost += by_name[name].cost_on(worker)
    return Assignment(dict(sorted(best.items())), max(loads.values()), cost)

"""In-memory temporal property graph.

A temporal graph is a fixed vertex set observed at timestamps t = 1..T
(1-based), kept as a base snapshot (directed labeled edges and string-valued
vertex attributes at t = 1) plus the ordered change sets that produce each
later timestamp from the one before.  Per timestamp the graph keeps only an
attribute map; the edges at t are replayed into a `GraphView` on demand.  A
graph is immutable once built: `apply_changes` returns an extended graph.
"""

from __future__ import annotations

import copy
from itertools import chain, islice
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from .errors import DeleteMissingEdge, GraphFormatError, InvalidGraph, UnknownVertex

Edge = Tuple[str, str, str]  # (src-id, edge-label, dst-id)


@dataclass(frozen=True)
class Vertex:
    id: str
    type_label: str


@dataclass(frozen=True)
class EdgeInsert:
    src: str
    label: str
    dst: str


@dataclass(frozen=True)
class EdgeDelete:
    src: str
    label: str
    dst: str


@dataclass(frozen=True)
class AttrSet:
    vid: str
    name: str
    value: str


@dataclass(frozen=True)
class AttrDelete:
    vid: str
    name: str


Change = Union[EdgeInsert, EdgeDelete, AttrSet, AttrDelete]


@dataclass(frozen=True)
class ChangeSet:
    t: int
    changes: Tuple[Change, ...]


@dataclass(frozen=True)
class Snapshot:
    """One timestamp's vertex attributes: vertex id -> name -> value.  Its
    edges are not stored; `TemporalGraph.view(t)` replays them."""

    t: int
    attrs: Mapping[str, Mapping[str, str]]

    def attr(self, vid: str, name: str) -> Optional[str]:
        return self.attrs.get(vid, {}).get(name)


class GraphView:
    """A queryable slice of one snapshot, or a pattern's variables: vertex
    types and edges only.

    Attributes are read from `TemporalGraph.snapshot(t)`.  A view evolves
    in place: a replay advances one full view by each change set
    (`advance_view`); its vertex set never changes.  Matchers only read the
    view they are given; TemporalGraph itself stays immutable.  A
    `GraphPattern.view` holds the variables typed by their labels (`_`
    among them) and the pattern's edges, at t = 0: the matcher embeds
    patterns into it, and `ball_vertices` measures the pattern on it.
    """

    __slots__ = ("t", "types", "edges", "_out", "_in", "_by_type")

    def __init__(self, t: int, types: Mapping[str, str], edges: Iterable[Edge]):
        self.t = t
        self.types: Dict[str, str] = dict(types)
        self.edges: Set[Edge] = set(edges)
        self._out: Dict[str, Set[Tuple[str, str]]] = {}
        self._in: Dict[str, Set[Tuple[str, str]]] = {}
        self._by_type: Dict[str, Set[str]] = {}
        for vid, label in self.types.items():
            self._by_type.setdefault(label, set()).add(vid)
        for e in self.edges:
            self._index_edge(e)

    def _index_edge(self, e: Edge) -> None:
        src, label, dst = e
        self._out.setdefault(src, set()).add((label, dst))
        self._in.setdefault(dst, set()).add((label, src))

    # -- queries ---------------------------------------------------------

    def vertices(self) -> Set[str]:
        return set(self.types)

    def type_of(self, vid: str) -> Optional[str]:
        return self.types.get(vid)

    def vertices_of_type(self, label: str) -> Set[str]:
        return self._by_type.get(label, set())

    def has_edge(self, src: str, label: str, dst: str) -> bool:
        return (src, label, dst) in self.edges

    def out_edges(self, vid: str) -> Set[Tuple[str, str]]:
        """(label, dst) pairs leaving vid."""
        return self._out.get(vid, set())

    def in_edges(self, vid: str) -> Set[Tuple[str, str]]:
        """(label, src) pairs entering vid."""
        return self._in.get(vid, set())

    # -- mutation (views being advanced) ---------------------------------

    def add_edge(self, e: Edge) -> None:
        if e not in self.edges:
            self.edges.add(e)
            self._index_edge(e)

    def remove_edge(self, e: Edge) -> None:
        if e in self.edges:
            self.edges.discard(e)
            src, label, dst = e
            self._out[src].discard((label, dst))
            self._in[dst].discard((label, src))


class TemporalGraph:
    """Fixed vertex set plus its history over t = 1..T, each part kept once.

    - `base_edges`: the edges at t = 1.
    - `changesets`: the change sets turning t - 1 into t, for t = 2..T, as
      `apply_changes` applied them, no-ops included.
    - `snapshots`: one attribute map per timestamp; consecutive maps share
      every vertex dict that the change set between them does not write.

    No edge set is kept per timestamp: `view(t)` advances a view of the base
    by change sets 2..t.  Only the edge set of the last timestamp is kept,
    for `apply_changes` to check deletions against.  The constructor builds
    the one-timestamp graph and checks it; `apply_changes` adds the rest.
    """

    def __init__(
        self,
        vertices: Mapping[str, Vertex],
        edges: Iterable[Edge],
        attrs: Mapping[str, Mapping[str, str]],
    ):
        self.vertices: Dict[str, Vertex] = dict(vertices)
        self.base_edges = frozenset(edges)
        for src, _, dst in self.base_edges:
            if src not in self.vertices or dst not in self.vertices:
                raise UnknownVertex(f"edge endpoint missing at t=1: {src}->{dst}")
        for vid in attrs:
            if vid not in self.vertices:
                raise UnknownVertex(f"attributed vertex {vid} missing at t=1")
        self.snapshots: Tuple[Snapshot, ...] = (Snapshot(t=1, attrs=attrs),)
        self.changesets: Tuple[ChangeSet, ...] = ()
        self._last_edges: AbstractSet[Edge] = self.base_edges

    @property
    def T(self) -> int:
        return len(self.snapshots)

    def snapshot(self, t: int) -> Snapshot:
        if not 1 <= t <= self.T:
            raise InvalidGraph(f"timestamp {t} outside [1, {self.T}]")
        return self.snapshots[t - 1]

    def view(self, t: int) -> GraphView:
        """Full snapshot t as a fresh view: the base edges advanced by
        change sets 2..t."""
        self.snapshot(t)  # bounds check
        types = {vid: v.type_label for vid, v in self.vertices.items()}
        view = GraphView(1, types, self.base_edges)
        for cs in self.changesets[: t - 1]:
            advance_view(view, cs)
        return view


@dataclass(frozen=True)
class Fragment:
    """One worker's share of the vertex set."""

    worker_id: int
    owned_vertices: frozenset


def apply_changes(graph: TemporalGraph, *changesets: ChangeSet) -> TemporalGraph:
    """The graph extended by the change sets, in order, in one pass: each
    must target the timestamp after the last.

    Changes apply in list order, and each change set is checked as it is
    applied.  The result shares graph's history and adds, per change set,
    the set plus the attribute map of its timestamp, which shares with the
    previous map the dict of every vertex the set does not write; a written
    vertex's dict is copied on its first write.  graph itself is left as it
    was, also when a change set is refused.
    """
    edges = set(graph._last_edges)
    snapshots = list(graph.snapshots)
    attrs = snapshots[-1].attrs
    for cs in changesets:
        if cs.t != len(snapshots) + 1:
            raise InvalidGraph(f"change set targets t={cs.t}, expected {len(snapshots) + 1}")
        attrs = dict(attrs)
        written: Set[str] = set()
        for change in cs.changes:
            if isinstance(change, EdgeInsert):
                _require_vertex(graph, change.src)
                _require_vertex(graph, change.dst)
                edges.add((change.src, change.label, change.dst))
            elif isinstance(change, EdgeDelete):
                e = (change.src, change.label, change.dst)
                if e not in edges:
                    raise DeleteMissingEdge(f"{e} absent at t={cs.t}")
                edges.discard(e)
            elif isinstance(change, (AttrSet, AttrDelete)):
                vid = change.vid
                _require_vertex(graph, vid)
                if vid not in written:
                    written.add(vid)
                    attrs[vid] = dict(attrs.get(vid, {}))
                if isinstance(change, AttrSet):
                    attrs[vid][change.name] = change.value
                else:
                    attrs[vid].pop(change.name, None)
            else:  # pragma: no cover - guarded by Change union
                raise TypeError(f"unknown change {change!r}")
        for vid in written:
            if not attrs[vid]:
                del attrs[vid]
        snapshots.append(Snapshot(t=cs.t, attrs=attrs))
    extended = copy.copy(graph)
    extended.snapshots = tuple(snapshots)
    extended.changesets = graph.changesets + changesets
    extended._last_edges = edges
    return extended


def _require_vertex(graph: TemporalGraph, vid: str) -> None:
    if vid not in graph.vertices:
        raise UnknownVertex(vid)


def advance_view(view: GraphView, cs: ChangeSet) -> List[Edge]:
    """Apply cs's edge changes to view in place and move it to cs.t; returns
    the edges whose presence flipped, sorted (an edge inserted and deleted
    again in one change set, or inserted while present, does not flip)."""
    flipped = _flip_edges(cs, view.edges, view.add_edge, view.remove_edge)
    view.t = cs.t
    return flipped


def _flip_edges(
    cs: ChangeSet,
    present: AbstractSet[Edge],
    add: Callable[[Edge], None],
    remove: Callable[[Edge], None],
) -> List[Edge]:
    """Apply cs's edge changes in order through add and remove, which
    update present; returns the edges whose presence flipped, sorted."""
    before: Dict[Edge, bool] = {}
    for c in cs.changes:
        if isinstance(c, (EdgeInsert, EdgeDelete)):
            e = (c.src, c.label, c.dst)
            before.setdefault(e, e in present)
            if isinstance(c, EdgeInsert):
                add(e)
            else:
                remove(e)
    return sorted(e for e, was in before.items() if (e in present) != was)


def ball_vertices(
    view: GraphView, center: str, d: int, hops: Optional[Dict[str, int]] = None
) -> AbstractSet[str]:
    """Vertices within d undirected hops of center in the view, as the keys
    of hops: an empty dict passed as hops receives each reached vertex's hop
    distance, in BFS order.  One hop level at a time."""
    if hops is None:
        hops = {}
    hops[center] = 0
    frontier = [center]
    out_map, in_map = view._out, view._in
    for dist in range(1, d + 1):
        start = len(hops)
        for vid in frontier:
            for _, nxt in out_map.get(vid, ()):
                hops.setdefault(nxt, dist)
            for _, nxt in in_map.get(vid, ()):
                hops.setdefault(nxt, dist)
        if len(hops) == start:
            break
        # hops keeps insertion order: the vertices first reached at dist
        frontier = list(islice(hops, start, None))
    return hops.keys()


def repair_ball(
    view: GraphView, d: int, hops: Dict[str, int], flipped: Iterable[Edge]
) -> Tuple[Set[str], Set[str]]:
    """Move hops, the hop map `ball_vertices` filled for a radius-d ball, to
    the view after the edge flips `flipped`, which the view already shows;
    returns the vertices that (entered, left) the ball.

    A dynamic BFS in the manner of Ramalingam and Reps, for unit weights.
    First, one hop level at a time from the center, a vertex that lost its
    last neighbour one hop closer (the edge was deleted, or that neighbour
    lost its distance) loses its distance too.  Then a BFS bucketed by
    distance offers each such vertex one more than its closest surviving
    neighbour, and each endpoint of an inserted edge one more than the
    other; offers only ever shorten a distance, and each accepted one
    spreads to the vertex's neighbours while it stays below d."""
    out_edges, in_edges, present = view.out_edges, view.in_edges, view.edges
    lost: Dict[int, Set[str]] = {}  # hop level -> vertices that lost a parent
    inserted = []
    for e in flipped:
        src, _, dst = e
        if src == dst:
            continue  # a self-loop never shortens or lengthens a path
        if e in present:
            inserted.append((src, dst))
            continue
        hs, hd = hops.get(src), hops.get(dst)
        if hs is not None and hd is not None:
            if hd == hs + 1:
                lost.setdefault(hd, set()).add(dst)
            elif hs == hd + 1:
                lost.setdefault(hs, set()).add(src)

    dropped: Set[str] = set()
    for level in range(1, d + 1):
        if level not in lost:
            continue
        up, down = level - 1, level + 1
        for vid in lost[level]:
            for _, other in chain(out_edges(vid), in_edges(vid)):
                if hops.get(other) == up:
                    break  # a parent survives
            else:
                del hops[vid]
                dropped.add(vid)
                if level < d:
                    children = [
                        o for _, o in chain(out_edges(vid), in_edges(vid)) if hops.get(o) == down
                    ]
                    if children:
                        lost.setdefault(down, set()).update(children)

    entered: Set[str] = set()
    buckets: Dict[int, List[str]] = {}  # distance -> vertices offered it

    def offer(vid: str, dist: int) -> None:
        if dist < hops.get(vid, d + 1):
            if vid not in hops and vid not in dropped:
                entered.add(vid)
            hops[vid] = dist
            buckets.setdefault(dist, []).append(vid)

    for vid in dropped:
        near = [hops[o] for _, o in chain(out_edges(vid), in_edges(vid)) if o in hops]
        if near:
            offer(vid, min(near) + 1)
    for src, dst in inserted:
        if src in hops:
            offer(dst, hops[src] + 1)
        if dst in hops:
            offer(src, hops[dst] + 1)
    for dist in range(1, d):
        for vid in buckets.get(dist, ()):
            if hops[vid] == dist:  # else a later offer shortened it
                for _, other in chain(out_edges(vid), in_edges(vid)):
                    offer(other, dist + 1)
    return entered, dropped.difference(hops)


def changed_attrs(graph: TemporalGraph, t: int) -> List[Tuple[str, str]]:
    """(vertex, attribute) slots whose value differs between snapshots
    t - 1 and t, sorted; only the slots change set t writes can differ."""
    before, after = graph.snapshot(t - 1), graph.snapshot(t)
    keys = {
        (c.vid, c.name)
        for c in graph.changesets[t - 2].changes
        if isinstance(c, (AttrSet, AttrDelete))
    }
    return sorted(k for k in keys if before.attr(*k) != after.attr(*k))


def derive_changesets(graph: TemporalGraph) -> List[ChangeSet]:
    """The graph's change sets in canonical form, with no no-ops: one live
    edge set, rolled through the kept change sets, gives the edges that
    flipped, and `changed_attrs` the slots.  Canonical order: edge
    deletions, attribute deletions, attribute sets, edge insertions, each
    sorted."""
    live = set(graph.base_edges)
    out = []
    for cs in graph.changesets:
        flipped = _flip_edges(cs, live, live.add, live.discard)
        after = graph.snapshot(cs.t)
        unset, sets = [], []
        for vid, name in changed_attrs(graph, cs.t):
            value = after.attr(vid, name)
            if value is None:
                unset.append(AttrDelete(vid, name))
            else:
                sets.append(AttrSet(vid, name, value))
        changes: List[Change] = [EdgeDelete(*e) for e in flipped if e not in live]
        changes.extend(unset)
        changes.extend(sets)
        changes.extend(EdgeInsert(*e) for e in flipped if e in live)
        out.append(ChangeSet(t=cs.t, changes=tuple(changes)))
    return out


# ---------------------------------------------------------------------------
# line-based file format
# ---------------------------------------------------------------------------


def _quote(token: str) -> str:
    """token as `_tokenize` reads it back whole: bare when it holds no
    whitespace (any character `str.isspace()` accepts) and no `"`, or when
    it is empty (the value of `name=`); else in quotes, `\\` and `"` escaped."""
    if token.isalnum() or not token or ('"' not in token and token.split() == [token]):
        return token
    return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _tokenize(line: str, lineno: int) -> List[str]:
    if '"' not in line:
        # str.split() splits on exactly the characters str.isspace() accepts
        tokens = line.split()
        if not tokens:
            raise GraphFormatError("record holds only empty tokens", lineno)
        return tokens
    tokens = []
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


def _split_assignment(token: str, lineno: int) -> Tuple[str, str]:
    name, sep, value = token.partition("=")
    if not sep or not name:
        raise GraphFormatError(f"expected name=value, got {token!r}", lineno)
    return name, value


def parse_snapshot_text(text: str) -> TemporalGraph:
    """Parse the base snapshot file: `v <id> <type> [<name>=<value>]...` and
    `e <src> <label> <dst>` lines."""
    vertices: Dict[str, Vertex] = {}
    attrs: Dict[str, Dict[str, str]] = {}
    edges: Set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _tokenize(line, lineno)
        kind = tokens[0]
        if kind == "v":
            if len(tokens) < 3:
                raise GraphFormatError("vertex line needs id and type", lineno)
            vid, type_label = tokens[1], tokens[2]
            if vid in vertices:
                raise GraphFormatError(f"duplicate vertex {vid}", lineno)
            if not type_label:
                raise GraphFormatError("empty type label", lineno)
            vertices[vid] = Vertex(vid, type_label)
            for token in tokens[3:]:
                name, value = _split_assignment(token, lineno)
                attrs.setdefault(vid, {})[name] = value
        elif kind == "e":
            if len(tokens) != 4:
                raise GraphFormatError("edge line needs src, label, dst", lineno)
            src, label, dst = tokens[1], tokens[2], tokens[3]
            if src not in vertices or dst not in vertices:
                raise GraphFormatError(f"edge references unknown vertex", lineno)
            edges.add((src, label, dst))
        else:
            raise GraphFormatError(f"unknown record {kind!r}", lineno)
    return TemporalGraph(vertices, edges, attrs)


def parse_changes_text(text: str) -> List[ChangeSet]:
    """Parse the change file: `t <k>` headers, k = 2, 3, ... in order, each
    followed by its +e/-e/+a/-a records."""
    sets: List[ChangeSet] = []
    current_t: Optional[int] = None
    current: List[Change] = []

    def flush():
        if current_t is not None:
            sets.append(ChangeSet(t=current_t, changes=tuple(current)))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = _tokenize(line, lineno)
        kind = tokens[0]
        if kind == "t":
            if len(tokens) != 2:
                raise GraphFormatError("timestamp header needs one value", lineno)
            flush()
            expected = 2 if current_t is None else current_t + 1
            try:
                current_t = int(tokens[1])
            except ValueError:
                raise GraphFormatError(f"bad timestamp {tokens[1]!r}", lineno) from None
            if current_t != expected:
                raise GraphFormatError(
                    f"timestamp headers run t 2, 3, ...: expected t {expected}, got t {current_t}",
                    lineno,
                )
            current = []
            continue
        if current_t is None:
            raise GraphFormatError("change record before any `t` header", lineno)
        if kind == "+e" or kind == "-e":
            if len(tokens) != 4:
                raise GraphFormatError("edge change needs src, label, dst", lineno)
            cls = EdgeInsert if kind == "+e" else EdgeDelete
            current.append(cls(tokens[1], tokens[2], tokens[3]))
        elif kind == "+a":
            if len(tokens) != 3:
                raise GraphFormatError("attr set needs vid and name=value", lineno)
            name, value = _split_assignment(tokens[2], lineno)
            current.append(AttrSet(tokens[1], name, value))
        elif kind == "-a":
            if len(tokens) != 3:
                raise GraphFormatError("attr delete needs vid and name", lineno)
            current.append(AttrDelete(tokens[1], tokens[2]))
        else:
            raise GraphFormatError(f"unknown change record {kind!r}", lineno)
    flush()
    return sets


def load_graph(snapshot_text: str, changes_text: Optional[str] = None) -> TemporalGraph:
    """Build the full temporal graph from a base snapshot plus change files."""
    graph = parse_snapshot_text(snapshot_text)
    if changes_text:
        graph = apply_changes(graph, *parse_changes_text(changes_text))
    return graph


def snapshot_to_text(graph: TemporalGraph) -> str:
    """Serialize the base snapshot (t=1)."""
    snap = graph.snapshots[0]
    lines = []
    for vid in sorted(graph.vertices):
        parts = ["v", _quote(vid), _quote(graph.vertices[vid].type_label)]
        for name in sorted(snap.attrs.get(vid, {})):
            parts.append(f"{_quote(name)}={_quote(snap.attrs[vid][name])}")
        lines.append(" ".join(parts))
    for src, label, dst in sorted(graph.base_edges):
        lines.append(f"e {_quote(src)} {_quote(label)} {_quote(dst)}")
    return "\n".join(lines) + "\n"


def changes_to_text(changesets: Iterable[ChangeSet]) -> str:
    """Serialize per-timestamp change sets."""
    lines = []
    for cs in changesets:
        lines.append(f"t {cs.t}")
        for c in cs.changes:
            if isinstance(c, EdgeInsert):
                lines.append(f"+e {_quote(c.src)} {_quote(c.label)} {_quote(c.dst)}")
            elif isinstance(c, EdgeDelete):
                lines.append(f"-e {_quote(c.src)} {_quote(c.label)} {_quote(c.dst)}")
            elif isinstance(c, AttrSet):
                lines.append(f"+a {_quote(c.vid)} {_quote(c.name)}={_quote(c.value)}")
            elif isinstance(c, AttrDelete):
                lines.append(f"-a {_quote(c.vid)} {_quote(c.name)}")
    return "\n".join(lines) + ("\n" if lines else "")


def graph_to_texts(graph: TemporalGraph) -> Tuple[str, str]:
    """Serialize a materialized graph as (snapshot file, change file)."""
    return snapshot_to_text(graph), changes_to_text(derive_changesets(graph))

"""Pattern matching: snapshot matching, and incremental match maintenance
under single changes.

The incremental matcher keeps one set of complete pattern matches over a
view that holds vertex types and edges only, and that its caller advances.
An inserted edge seeds a whole-pattern search at every pattern edge it can
play (`playable_edges`); a deleted edge drops the matches indexed under it;
attribute changes never reach the matcher, since literals are evaluated in
detection.  The live matches are handed out as their items, in items
order, sorted again only after a flip added or removed one.  Both engines
keep one matcher per rule on the full view: the parallel engine splits its
matches among fragments by anchor owner, and charges each fragment's job
the searches `playable_edges` counts on that fragment's edge flips.

Searches are local: a variable's candidates come from the edges of its
already placed pattern neighbours (the label-filtered adjacency of each,
intersected), so a search seeded at an inserted edge only walks that edge's
neighbourhood.  Only the first variable of an unseeded search, which has no
placed neighbour, scans its whole type class.  The same search embeds one
rule's pattern into another's `GraphPattern.view` for reasoning
(`foundations.all_embeddings`).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Collection, Dict, List, Mapping, Optional, Set, Tuple

from .graph import Edge, GraphView
from .model import WILDCARD, GraphPattern, MatchBinding

AssignmentKey = Tuple[Tuple[str, str], ...]  # sorted (var, vid) pairs


def _label_ok(pattern: GraphPattern, var: str, view: GraphView, vid: str) -> bool:
    want = pattern.label_of(var)
    return want == WILDCARD or view.type_of(vid) == want


def playable_edges(
    pattern: GraphPattern, e: Edge, type_of: Callable[[str], Optional[str]]
) -> List[Tuple[str, str, str]]:
    """The pattern edges the data edge e can play: the same label, a
    self-loop exactly when e is one, and end labels admitting the types
    type_of gives e's endpoints.  An inserted e seeds one localized search
    when this is not empty."""
    src, label, dst = e
    loop = src == dst
    out = []
    for pe in pattern.edges:
        psrc, plabel, pdst = pe
        if plabel == label and (psrc == pdst) == loop:
            want_src, want_dst = pattern.label_of(psrc), pattern.label_of(pdst)
            if (want_src == WILDCARD or want_src == type_of(src)) and (
                want_dst == WILDCARD or want_dst == type_of(dst)
            ):
                out.append(pe)
    return out


# ---------------------------------------------------------------------------
# snapshot matching
# ---------------------------------------------------------------------------


def match_snapshot(pattern: GraphPattern, view: GraphView) -> Set[MatchBinding]:
    """All injective, label- and edge-preserving matches of the pattern.

    Attribute literals are not filtered here; they belong to detection.
    """
    assignments = match_vars(pattern, view)
    return {MatchBinding.of(view.t, a) for a in assignments}


def _candidates(pattern: GraphPattern, var: str, view: GraphView) -> Collection[str]:
    """Every vertex the variable's label admits: its type class, or every
    vertex for a wildcard.  A read-only view of the graph's own sets."""
    label = pattern.label_of(var)
    if label == WILDCARD:
        return view.types.keys()
    return view.vertices_of_type(label)


def match_vars(
    pattern: GraphPattern,
    view: GraphView,
    seed: Optional[Mapping[str, str]] = None,
) -> List[Dict[str, str]]:
    """Backtracking search binding every pattern variable, optionally seeded.

    Variables are placed connected-first, then by the size of their type
    class.  A variable with placed pattern neighbours takes its candidates
    from their edges: one label-filtered adjacency set per pattern edge
    joining them, intersected.  Only a variable with no placed neighbour
    (the first one of an unseeded search) scans its type class.  The view
    may be another pattern's (`GraphPattern.view`): reasoning's embeddings
    are this search.
    """
    placed: Set[str] = set(seed or ())
    remaining = [v for v in pattern.vars if v not in placed]
    sizes = {v: len(_candidates(pattern, v, view)) for v in remaining}
    if not all(sizes.values()):  # some label admits no vertex
        return []
    adjacency = pattern.view
    near = {
        v: {w for _, w in chain(adjacency.out_edges(v), adjacency.in_edges(v))} for v in remaining
    }
    order: List[str] = []
    # per variable: (placed neighbour, label, variable is the edge's source)
    # for every pattern edge joining it to a variable placed before it, and
    # the labels of its self-loops
    joins: Dict[str, List[Tuple[str, str, bool]]] = {}
    loops: Dict[str, List[str]] = {}
    while remaining:
        chosen = min(
            remaining,
            key=lambda v: (bool(placed) and placed.isdisjoint(near[v]), sizes[v], v),
        )
        joins[chosen] = [
            (dst, label, True) if src == chosen else (src, label, False)
            for (src, label, dst) in pattern.edges
            if (src == chosen) != (dst == chosen) and (dst if src == chosen else src) in placed
        ]
        loops[chosen] = [label for (src, label, dst) in pattern.edges if src == dst == chosen]
        order.append(chosen)
        placed.add(chosen)
        remaining.remove(chosen)

    results: List[Dict[str, str]] = []
    assignment: Dict[str, str] = dict(seed or {})
    used: Set[str] = set(assignment.values())

    # verify the seed itself before extending
    if seed:
        if len(used) != len(assignment):
            return []
        for var, vid in assignment.items():
            if view.type_of(vid) is None or not _label_ok(pattern, var, view, vid):
                return []
        for (src, label, dst) in pattern.edges:
            if src in assignment and dst in assignment:
                if not view.has_edge(assignment[src], label, assignment[dst]):
                    return []

    def candidates(var: str) -> Collection[str]:
        sets = []
        for other, label, var_is_src in joins[var]:
            if var_is_src:  # var -label-> other
                sets.append({s for (l, s) in view.in_edges(assignment[other]) if l == label})
            else:  # other -label-> var
                sets.append({d for (l, d) in view.out_edges(assignment[other]) if l == label})
        if not sets:
            return _candidates(pattern, var, view)
        return set.intersection(*sets)

    def consistent(var: str, vid: str) -> bool:
        # candidates() already holds every edge to a placed variable
        if view.type_of(vid) is None or not _label_ok(pattern, var, view, vid):
            return False
        return all(view.has_edge(vid, label, vid) for label in loops[var])

    def backtrack(i: int) -> None:
        if i == len(order):
            results.append(dict(assignment))
            return
        var = order[i]
        for vid in sorted(candidates(var)):
            if vid in used:
                continue
            if consistent(var, vid):
                assignment[var] = vid
                used.add(vid)
                backtrack(i + 1)
                del assignment[var]
                used.discard(vid)

    backtrack(0)
    # backtrack refers to itself through its closure cell: clearing the cell
    # frees the closures, and the view they hold, now instead of at the
    # next cyclic garbage collection
    del backtrack
    return results


# ---------------------------------------------------------------------------
# incremental maintenance
# ---------------------------------------------------------------------------


class IncrementalMatcher:
    """Maintains the matches of one pattern over one evolving view.

    The matcher keeps the view it is given and never writes it: whoever
    advances the view (`detection.replay`) hands each edge whose presence
    flipped to `apply`.  The view's vertex set never changes.  The initial
    matches are a batch match of the view, and `topological_matches()`
    tracks exactly what a batch re-match of the current view would return.
    `iso_searches` counts inserted edges that seeded a localized search.
    """

    def __init__(self, pattern: GraphPattern, view: GraphView):
        self.pattern = pattern
        self.view = view
        self.iso_searches = 0
        self._complete: Set[AssignmentKey] = set()
        # _complete in items order; None once a match was added or removed
        self._ordered: Optional[List[AssignmentKey]] = None
        # data edge -> complete matches that use it
        self._by_edge: Dict[Edge, Set[AssignmentKey]] = {}
        for binding in match_snapshot(pattern, view):
            self._add(binding.items)

    def _add(self, key: AssignmentKey) -> None:
        self._complete.add(key)
        self._ordered = None
        assignment = dict(key)
        for (src, label, dst) in self.pattern.edges:
            e = (assignment[src], label, assignment[dst])
            self._by_edge.setdefault(e, set()).add(key)

    # -- flips of the view ----------------------------------------------------

    def apply(self, e: Edge) -> Tuple[Set[AssignmentKey], Set[AssignmentKey]]:
        """Update the matches for one edge whose presence flipped, as the
        view already shows: an edge the view now holds seeds a search, one
        it lost drops the matches that used it.  Flips of one change set may
        come in any order.  Returns (added, removed) complete assignments."""
        if e in self.view.edges:
            return self._insert_edge(e), set()
        return set(), self._delete_edge(e)

    def _insert_edge(self, e: Edge) -> Set[AssignmentKey]:
        src, _, dst = e
        added: Set[AssignmentKey] = set()
        playable = playable_edges(self.pattern, e, self.view.type_of)
        for (psrc, _, pdst) in playable:
            for a in match_vars(self.pattern, self.view, seed={psrc: src, pdst: dst}):
                key = _key(a)
                if key not in self._complete:
                    self._add(key)
                    added.add(key)
        if playable:
            # localized isomorphism around the new edge's endpoints
            self.iso_searches += 1
        return added

    def _delete_edge(self, e: Edge) -> Set[AssignmentKey]:
        removed = self._by_edge.pop(e, set())
        if removed:
            self._ordered = None
        for key in removed:
            self._complete.discard(key)
            assignment = dict(key)
            for (src, label, dst) in self.pattern.edges:
                other = (assignment[src], label, assignment[dst])
                bucket = self._by_edge.get(other)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del self._by_edge[other]
        return removed

    # -- results --------------------------------------------------------------

    def topological_matches(self) -> List[AssignmentKey]:
        """The live matches' items in items order: the matcher's own list,
        which callers only read."""
        if self._ordered is None:
            self._ordered = sorted(self._complete)
        return self._ordered


def _key(assignment: Mapping[str, str]) -> AssignmentKey:
    return tuple(sorted(assignment.items()))

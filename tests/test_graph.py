import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tgfd.errors import DeleteMissingEdge, GraphFormatError, InvalidGraph, TgfdError, UnknownVertex
from tgfd.graph import (
    AttrDelete,
    AttrSet,
    ChangeSet,
    EdgeDelete,
    EdgeInsert,
    GraphView,
    TemporalGraph,
    Vertex,
    advance_view,
    apply_changes,
    ball_vertices,
    changes_to_text,
    derive_changesets,
    graph_to_texts,
    load_graph,
    parse_changes_text,
    parse_snapshot_text,
    repair_ball,
    snapshot_to_text,
    _tokenize,
)

from tgfd.evaluation import Mutation, apply_mutations

from util import (
    SLOT_NAMES,
    SLOT_VIDS,
    SLOT_VALUES,
    attr_history_graph,
    attr_slots,
    attr_writes,
    attrs_at,
    base_attr_maps,
    ball_edges,
    build_graph,
    extend,
    full_diff_changesets,
    neighbors,
    random_changes,
    mutated_attr_maps,
    random_graph,
    tokenize_by_characters,
)


def star_graph():
    return build_graph(
        {"c": "hub", "a": "leaf", "b": "leaf", "d": "leaf"},
        [("c", "to", "a"), ("c", "to", "b"), ("c", "to", "d")],
        {"c": {"name": "center"}},
    )


def test_apply_changes_empty_is_identity():
    g = star_graph()
    g2 = extend(g, [])
    assert g2.T == 2
    assert g2.view(2).edges == g2.view(1).edges
    assert attrs_at(g2, 2) == attrs_at(g2, 1) == {"c": {"name": "center"}}
    assert g2.snapshot(2).attr("c", "name") == "center"


def test_apply_changes_edge_insert_only_affects_new_snapshot():
    g = build_graph(
        {"Bob": "student", "Waterloo": "university"},
        [],
    )
    g2 = extend(g, [EdgeInsert("Bob", "study", "Waterloo")])
    assert ("Bob", "study", "Waterloo") in g2.view(2).edges
    assert ("Bob", "study", "Waterloo") not in g2.view(1).edges
    assert g.view(1).edges == set()


def test_apply_changes_errors():
    g = star_graph()
    with pytest.raises(UnknownVertex):
        extend(g, [EdgeInsert("c", "to", "nope")])
    with pytest.raises(DeleteMissingEdge):
        extend(g, [EdgeDelete("a", "to", "c")])
    with pytest.raises(UnknownVertex):
        extend(g, [AttrSet("nope", "name", "x")])


def test_apply_changes_in_order():
    g = star_graph()
    g2 = extend(
        g,
        [
            EdgeDelete("c", "to", "a"),
            EdgeInsert("c", "to", "a"),
            AttrSet("a", "name", "first"),
            AttrSet("a", "name", "second"),
        ],
    )
    assert ("c", "to", "a") in g2.view(2).edges
    assert g2.snapshots[1].attr("a", "name") == "second"


def test_one_pass_load_equals_step_by_step_chaining():
    """apply_changes with many change sets, and load_graph, which passes it
    every parsed set at once, give the graph that chaining one set per call
    gives: the same change sets, attribute maps, edges at every t and last
    edge set."""
    rng = random.Random(11)
    base = random_graph(rng, 20, 40)
    chained = base
    for t in range(2, 9):
        chained = apply_changes(chained, random_changes(rng, chained, t, 6))
    one_pass = apply_changes(base, *chained.changesets)
    loaded = load_graph(snapshot_to_text(base), changes_to_text(chained.changesets))
    for g in (one_pass, loaded):
        assert g.T == chained.T == 8
        assert g.changesets == chained.changesets
        assert g._last_edges == chained._last_edges
        for t in range(1, g.T + 1):
            assert attrs_at(g, t) == attrs_at(chained, t), t
            for slot in attr_slots(g):
                assert g.snapshot(t).attr(*slot) == chained.snapshot(t).attr(*slot), (t, slot)
            assert g.view(t).edges == chained.view(t).edges, t
    assert base.T == 1 and not base.changesets


def test_one_pass_load_refuses_a_bad_set_and_leaves_the_graph():
    g = extend(star_graph(), [AttrSet("a", "name", "x")])
    snapshots, changesets = g.snapshots, g.changesets
    # the good set and each bad one write slots g already holds or writes
    good = ChangeSet(3, (EdgeDelete("c", "to", "a"), AttrSet("a", "name", "y"), AttrDelete("c", "name")))
    written = [AttrSet("a", "name", "z"), AttrSet("b", "name", "w"), AttrDelete("c", "name")]
    slots = [(vid, "name") for vid in "abcd"]
    reads = [[g.snapshot(t).attr(*slot) for slot in slots] for t in (1, 2)]
    versions = {slot: (list(times), list(values)) for slot, (times, values) in g.versions.items()}
    assert reads == [[None, None, "center", None], ["x", None, "center", None]]
    for bad, error in (
        (ChangeSet(4, (*written, EdgeDelete("c", "to", "a"))), DeleteMissingEdge),
        (ChangeSet(4, (*written, AttrSet("nope", "name", "x"))), UnknownVertex),
        (ChangeSet(5, tuple(written)), InvalidGraph),
    ):
        with pytest.raises(error):
            apply_changes(g, good, bad)
        assert g.snapshots is snapshots and g.changesets is changesets
        assert [[g.snapshot(t).attr(*slot) for slot in slots] for t in (1, 2)] == reads
        assert attrs_at(g, 1) == {"c": {"name": "center"}}
        assert attrs_at(g, 2) == {"a": {"name": "x"}, "c": {"name": "center"}}
        assert g.versions == versions
        assert g._last_edges == g.view(2).edges
        assert ("c", "to", "a") in g._last_edges
    # the good set alone still extends g
    extended = apply_changes(g, good)
    assert [extended.snapshot(3).attr(*slot) for slot in slots] == ["y", None, None, None]


def test_replay_matches_rebuild_from_scratch():
    # 100 random changes replayed equal a snapshot built from the final sets
    rng = random.Random(7)
    g = random_graph(rng, 30, 60)
    for t in (2, 3, 4):
        g = apply_changes(g, random_changes(rng, g, t, 34))
    final = attrs_at(g, g.T)
    rebuilt = TemporalGraph(g.vertices, g.view(g.T).edges, final)
    assert rebuilt.view(1).edges == g.view(4).edges
    assert attrs_at(rebuilt, 1) == final
    for slot in attr_slots(g):
        assert rebuilt.snapshot(1).attr(*slot) == g.snapshot(g.T).attr(*slot), slot


def test_replay_determinism():
    rng1, rng2 = random.Random(5), random.Random(5)
    g1 = random_graph(rng1, 25, 50)
    g2 = random_graph(rng2, 25, 50)
    for t in (2, 3):
        g1 = apply_changes(g1, random_changes(random.Random(t), g1, t, 10))
        g2 = apply_changes(g2, random_changes(random.Random(t), g2, t, 10))
    assert g1.T == g2.T
    for t in range(1, g1.T + 1):
        assert g1.view(t).edges == g2.view(t).edges
        assert attrs_at(g1, t) == attrs_at(g2, t)


def test_snapshot_immutability_under_apply():
    g = star_graph()
    before = g.snapshots[0]
    g2 = extend(g, [EdgeDelete("c", "to", "a"), AttrSet("c", "name", "x")])
    assert g2.snapshots[0] is before
    assert before.attr("c", "name") == "center"
    # the first extension left g's own last edge set as it was
    assert ("c", "to", "a") in extend(g, []).view(2).edges


def assert_reads_replay(graph):
    """Every slot over SLOT_VIDS x SLOT_NAMES reads at every t what the
    replay `attrs_at` holds there, None where it holds nothing."""
    for t in range(1, graph.T + 1):
        attrs, snap = attrs_at(graph, t), graph.snapshot(t)
        for vid in SLOT_VIDS:
            for name in SLOT_NAMES:
                assert snap.attr(vid, name) == attrs.get(vid, {}).get(name), (t, vid, name)


@settings(max_examples=150, deadline=None)
@given(
    base_attr_maps,
    attr_writes,
    st.lists(
        st.tuples(st.integers(1, 7), *(st.sampled_from(p) for p in (SLOT_VIDS, SLOT_NAMES, SLOT_VALUES))),
        max_size=4,
    ),
)
# a deletion, then a set of the deleted slot
@example({"a": {"n": "0"}}, [[AttrDelete("a", "n")], [], [AttrSet("a", "n", "1")]], [])
# two writes of one slot in one change set: the later one holds
@example(
    {"a": {"n": "0"}},
    [[AttrSet("a", "n", "1"), AttrSet("a", "n", "0")], [AttrSet("a", "n", "1"), AttrDelete("a", "n")]],
    [],
)
# writes of the current value
@example({"a": {"n": "0"}}, [[AttrSet("a", "n", "0")], [AttrSet("b", "m", "1")], [AttrSet("b", "m", "1")]], [])
# a slot absent at t = 1, set, deleted and set to the empty value
@example({}, [[AttrSet("b", "m", "1")], [AttrDelete("b", "m")], [AttrSet("b", "m", "")]], [])
# a graph built by apply_mutations: at t = 1, on an unwritten slot, at T
@example({"a": {"n": "0"}}, [[AttrSet("a", "n", "1")], []], [(1, "a", "n", "1"), (2, "b", "m", "0"), (3, "a", "n", "")])
def test_every_slot_reads_its_replayed_value(base, sets, mutations):
    graph = attr_history_graph(base, sets)
    assert len(graph.snapshots) == graph.T == len(sets) + 1
    # the attribute state is the base map and one version list per written slot
    assert graph.base_attrs == base
    written = {(c.vid, c.name) for cs in graph.changesets for c in cs.changes}
    assert set(graph.versions) == written
    for times, values in graph.versions.values():
        assert times[0] == 1 and times == sorted(set(times)) and len(values) == len(times)
    assert_reads_replay(graph)
    # one change set per call: every shorter graph still reads its own
    # history, also when extended again by a set that unsets every slot
    chained = [attr_history_graph(base, [])]
    for cs in graph.changesets:
        chained.append(apply_changes(chained[-1], cs))
    unset = tuple(AttrDelete(vid, name) for vid in SLOT_VIDS for name in SLOT_NAMES)
    for g in chained:
        assert_reads_replay(g)
        assert_reads_replay(apply_changes(g, ChangeSet(g.T + 1, unset)))
    muts = [Mutation(t, vid, name, None, value) for t, vid, name, value in mutations if t <= graph.T]
    mutated = apply_mutations(graph, muts)
    assert_reads_replay(mutated)
    assert [attrs_at(mutated, t) for t in range(1, graph.T + 1)] == mutated_attr_maps(graph, muts)


def test_ball_vertices_zero_radius():
    g = star_graph()
    assert ball_vertices(g.view(1), "c", 0) == {"c"}


def test_ball_vertices_star():
    g = star_graph()
    assert ball_vertices(g.view(1), "c", 1) == {"a", "b", "c", "d"}
    # edges point away from the hub, yet a leaf reaches it and its siblings
    assert ball_vertices(g.view(1), "a", 1) == {"a", "c"}
    assert ball_vertices(g.view(1), "a", 2) == {"a", "b", "c", "d"}


def bfs_depth(view, start, d):
    seen = {start}
    frontier = [start]
    for _ in range(d):
        nxt = []
        for v in frontier:
            for w in neighbors(view, v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_ball_vertices_matches_bfs_and_is_monotone():
    rng = random.Random(11)
    g = random_graph(rng, 25, 40)
    full = g.view(1)
    vids = sorted(g.vertices)
    for center in vids[:8]:
        prev = set()
        for d in range(0, 4):
            ball = ball_vertices(full, center, d)
            assert ball == bfs_depth(full, center, d)
            assert prev <= ball
            prev = ball


def bfs_hops(view, start, d):
    """Hop distance of every vertex within d undirected hops of start."""
    hops = {start: 0}
    frontier = [start]
    for dist in range(1, d + 1):
        nxt = []
        for v in frontier:
            for w in neighbors(view, v):
                if w not in hops:
                    hops[w] = dist
                    nxt.append(w)
        frontier = nxt
    return hops


def test_repair_ball_equals_a_fresh_bfs():
    """Every ball of radius 0 to 4 around every vertex, repaired from all of
    a change set's flips (self-loops included), holds a fresh BFS's
    distances, and the vertices it reports as entered and left are exactly
    the ball's gains and losses."""
    moved = entered_any = left_any = 0
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.randint(0, 2 * n))
        for t in range(2, 6):
            cs = random_changes(rng, g, t, rng.randint(1, 10), loops=rng.randint(0, 2))
            g = apply_changes(g, cs)
        view = g.view(1)
        balls = {(c, d): bfs_hops(view, c, d) for c in sorted(g.vertices) for d in range(5)}
        for cs in g.changesets:
            flipped = advance_view(view, cs)
            for (center, d), hops in balls.items():
                before = dict(hops)
                entered, left = repair_ball(view, d, hops, flipped)
                assert hops == bfs_hops(view, center, d), (seed, cs.t, center, d)
                assert entered == hops.keys() - before.keys()
                assert left == before.keys() - hops.keys()
                moved += hops != before
                entered_any += len(entered)
                left_any += len(left)
    assert moved and entered_any and left_any


def test_ball_edges_equals_induced_edge_filter():
    rng = random.Random(12)
    loops = leaving = 0
    for _ in range(40):
        vids = [f"v{i}" for i in range(rng.randint(1, 10))]
        edges = {
            (rng.choice(vids), rng.choice("ab"), rng.choice(vids))
            for _ in range(rng.randint(0, 25))
        }
        view = GraphView(1, {v: "T" for v in vids}, edges)
        balls = [
            set(rng.sample(vids, rng.randint(0, len(vids)))),
            ball_vertices(view, rng.choice(vids), rng.randint(0, 2)),
        ]
        for ball in balls:
            inside = {e for e in view.edges if e[0] in ball and e[2] in ball}
            assert ball_edges(view, ball) == inside
            loops += sum(1 for e in inside if e[0] == e[2])
            leaving += sum(1 for e in view.edges if (e[0] in ball) != (e[2] in ball))
    assert loops and leaving


def test_changesets_recorded_by_apply_and_derived_canonically():
    base = snapshot_to_text(star_graph())
    # not canonical: a no-op attribute write, and an insert undone in the same set
    changes = "t 2\n+a c name=center\n+e a to b\n-e a to b\nt 3\n-e c to a\n"
    g = load_graph(base, changes)
    assert g.changesets == tuple(parse_changes_text(changes))
    derived = derive_changesets(g)
    assert [cs.changes for cs in derived] == [(), (EdgeDelete("c", "to", "a"),)]
    assert derived == full_diff_changesets(g)
    g4 = extend(g, [AttrDelete("c", "name")])
    assert g4.changesets == g.changesets + (ChangeSet(4, (AttrDelete("c", "name"),)),)
    assert g.T == 3 and g4.view(3).edges == g.view(3).edges
    assert extend(star_graph(), []).changesets == (ChangeSet(2, ()),)


def test_base_graph_is_checked():
    vertices = {"a": Vertex("a", "N")}
    with pytest.raises(UnknownVertex, match="edge endpoint missing at t=1"):
        TemporalGraph(vertices, [("a", "l", "b")], {})
    with pytest.raises(UnknownVertex, match="attributed vertex b missing"):
        TemporalGraph(vertices, [], {"b": {"name": "x"}})
    g = TemporalGraph(vertices, [("a", "l", "a")], {"a": {"name": "x"}})
    assert (g.T, g.changesets, g.view(1).edges) == (1, (), {("a", "l", "a")})
    with pytest.raises(InvalidGraph):
        g.view(2)


def test_snapshot_file_roundtrip_with_quoting():
    g = build_graph(
        {"v1": "city", "v 2": "city"},
        [("v1", "near", "v 2")],
        {"v1": {"name": 'New "York"'}},
    )
    text = snapshot_to_text(g)
    parsed = parse_snapshot_text(text)
    assert parsed.vertices.keys() == g.vertices.keys()
    assert parsed.base_edges == g.base_edges
    assert parsed.snapshots[0].attr("v1", "name") == 'New "York"'


def test_change_file_roundtrip():
    text = (
        "t 2\n"
        "+e a knows b\n"
        "-a a name\n"
        '+a b name="Jo Jo"\n'
        "t 3\n"
        "-e a knows b\n"
    )
    sets = parse_changes_text(text)
    assert sets[0].t == 2 and sets[1].t == 3
    assert sets[0].changes == (
        EdgeInsert("a", "knows", "b"),
        AttrDelete("a", "name"),
        AttrSet("b", "name", "Jo Jo"),
    )
    assert changes_to_text(sets).splitlines()[0] == "t 2"


def test_graph_to_texts_roundtrip_random():
    rng = random.Random(3)
    g = random_graph(rng, 20, 35)
    for t in (2, 3, 4):
        g = apply_changes(g, random_changes(rng, g, t, 8))
    snap_text, changes_text = graph_to_texts(g)
    g2 = load_graph(snap_text, changes_text)
    assert g2.T == g.T
    for t in range(1, g.T + 1):
        assert g.view(t).edges == g2.view(t).edges
        assert attrs_at(g, t) == attrs_at(g2, t)


# What a file token may hold: any character but a line boundary (the
# parsers read a file by str.splitlines), with whitespace, quotes,
# backslashes and `=` drawn often.  A name holds no `=` (it ends the name);
# no file can hold that.
LINE_BOUNDARIES = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FILE_CHARS = st.characters(
    blacklist_categories=("Cs",), blacklist_characters=LINE_BOUNDARIES
) | st.sampled_from([" ", "\t", "\xa0", "\u3000", "\u200b", '"', "\\", "=", "#", "a"])
FILE_VALUES = st.text(FILE_CHARS, max_size=5)
FILE_TOKENS = FILE_VALUES.filter(bool)
FILE_NAMES = FILE_TOKENS.filter(lambda s: "=" not in s)


@st.composite
def graphs_of_odd_tokens(draw):
    """A graph whose ids, types, labels, attribute names and values hold
    whitespace and quotes, with one change set that inserts and deletes an
    edge and sets and deletes attributes."""
    vids = draw(st.lists(FILE_TOKENS, min_size=1, max_size=4, unique=True))
    vertices = {vid: Vertex(vid, draw(FILE_TOKENS)) for vid in vids}
    edge = st.tuples(st.sampled_from(vids), FILE_TOKENS, st.sampled_from(vids))
    edges = draw(st.sets(edge, max_size=4))
    names = draw(st.lists(FILE_NAMES, min_size=1, max_size=3, unique=True))
    attrs = {
        vid: draw(st.dictionaries(st.sampled_from(names), FILE_VALUES, max_size=2)) for vid in vids
    }
    changes = [EdgeDelete(*e) for e in sorted(edges)[:1]]
    changes += [EdgeInsert(*e) for e in draw(st.lists(edge, max_size=2))]
    for vid in draw(st.lists(st.sampled_from(vids), max_size=3)):
        name, value = draw(st.sampled_from(names)), draw(st.none() | FILE_VALUES)
        changes.append(AttrDelete(vid, name) if value is None else AttrSet(vid, name, value))
    return apply_changes(TemporalGraph(vertices, edges, attrs), ChangeSet(2, tuple(changes)))


@settings(max_examples=200, deadline=None)
@given(graphs_of_odd_tokens())
@example(apply_changes(
    TemporalGraph({"a": Vertex("a", "T")}, [], {"a": {"n m": "x\xa0y", "a0": ""}}),
    ChangeSet(2, (AttrSet("a", "p\tq", 'say "hi"'), AttrDelete("a", "n m"))),
))
# backslashes in quoted tokens: trailing, doubled, before a quote, and bare
@example(apply_changes(
    TemporalGraph(
        {"v \\": Vertex("v \\", "T\\"), "w": Vertex("w", "T")},
        [("v \\", "l \\\\", "w")],
        {"v \\": {"n": "x \\", "m\\": 'a\\" b', "k": "\\"}},
    ),
    ChangeSet(2, (AttrSet("w", "n", "y \\\\"), AttrSet("v \\", "k", '\\"\\'))),
))
def test_graph_texts_round_trip_any_token(g):
    snap_text, changes_text = graph_to_texts(g)
    reloaded = load_graph(snap_text, changes_text)
    assert reloaded.vertices == g.vertices
    assert reloaded.T == g.T
    for t in range(1, g.T + 1):
        assert reloaded.view(t).edges == g.view(t).edges
        assert attrs_at(reloaded, t) == attrs_at(g, t)


def test_tokens_that_round_trip_keep_their_bytes():
    # quoting only what the tokenizer would split or unquote: bare tokens,
    # the empty value and tokens quoted for a space, a tab or `"` are
    # written as before
    g = build_graph(
        {"v1": "city", "v 2": "ci_ty"},
        [("v1", "near-by", "v 2")],
        {"v1": {"name": 'New "York"', "code": "", "a.b": "x\ty"}},
    )
    assert snapshot_to_text(g) == (
        'v "v 2" ci_ty\n'
        'v v1 city a.b="x\ty" code= name="New \\"York\\""\n'
        'e v1 near-by "v 2"\n'
    )


def test_backslash_in_a_quoted_token_is_escaped():
    # a quoted token doubles its backslashes, so one that ends in a
    # backslash no longer escapes its own closing quote; bare tokens keep
    # theirs as they are
    g = build_graph({"v": "T"}, [], {"v": {"n": "x \\", "m": 'a\\"b c', "k": "y\\"}})
    text = snapshot_to_text(g)
    assert text == 'v v T k=y\\ m="a\\\\\\"b c" n="x \\\\"\n'
    assert parse_snapshot_text(text).base_attrs == g.base_attrs


def test_derived_changesets_from_kept_sets_equal_full_diffs():
    # a graph that keeps its change sets is diffed only on the keys they
    # name; the result must equal the full diff of the same snapshots, also
    # when sets undo, repeat or restore their own changes
    for seed in range(20):
        rng = random.Random(seed)
        g = random_graph(rng, 12, 24)
        for t in range(2, 7):
            snap = g.snapshots[-1]
            live = g.view(g.T).edges
            changes = list(random_changes(rng, g, t, 6).changes)
            vid = rng.choice(sorted(g.vertices))
            e = (vid, "knows", rng.choice(sorted(g.vertices)))
            name = rng.choice(["name", "rank", "code"])
            noise = [
                [EdgeInsert(*e), EdgeDelete(*e)] if e not in live else [EdgeDelete(*e), EdgeInsert(*e)],
                [AttrSet(vid, name, "tmp"), AttrDelete(vid, name)],
                [AttrDelete(vid, name)],
                [AttrSet(vid, name, "tmp")] + ([AttrSet(vid, name, snap.attr(vid, name))] if snap.attr(vid, name) else []),
            ]
            for extra in rng.sample(noise, rng.randint(0, len(noise))):
                changes[rng.randint(0, len(changes)):0] = extra
            g = apply_changes(g, ChangeSet(t, tuple(changes)))
        assert derive_changesets(g) == full_diff_changesets(g), seed
        reloaded = load_graph(*graph_to_texts(g))
        assert list(reloaded.changesets) == derive_changesets(g), seed
        assert graph_to_texts(reloaded) == graph_to_texts(g), seed


def test_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_snapshot_text("x what\n")
    with pytest.raises(GraphFormatError):
        parse_snapshot_text("e a b c\n")  # unknown vertices
    with pytest.raises(GraphFormatError):
        parse_changes_text("+e a b c\n")  # record before header


@pytest.mark.parametrize("parse", [parse_snapshot_text, parse_changes_text])
def test_line_of_empty_tokens_is_a_format_error(parse):
    with pytest.raises(GraphFormatError) as info:
        parse('# header\n""\n')
    assert info.value.line == 2


def _tokens_or_error(tokenize, line):
    try:
        return tokenize(line, 7)
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line)


# Separators that str.isspace accepts besides the space, and look-alikes
# that it does not (U+200B, U+FEFF).
TOKEN_CHARS = st.sampled_from(
    ["a", "b", "=", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000",
     "\u2028", "\u200b", "\ufeff", '"', "\\"]
)


@settings(max_examples=400, deadline=None)
@given(st.lists(TOKEN_CHARS, max_size=14).map("".join))
@example("v a\tT0\x0bname=x\u3000rank=y")
@example('v a T0 name="two words" code="say \\"hi\\""')
@example('v a T0 name="open')
@example('v a T0 name="x \\\\" code="\\\\\\"q"')
@example('v a T0 name="x \\"')
@example('""')
@example('"" ""')
@example("\x0b\u3000")
def test_tokenize_equals_the_character_loop(line):
    # the parser strips each line; the tokenizer must agree on any string
    assert _tokens_or_error(_tokenize, line) == _tokens_or_error(tokenize_by_characters, line)
    stripped = line.strip()
    assert _tokens_or_error(_tokenize, stripped) == _tokens_or_error(
        tokenize_by_characters, stripped
    )


@pytest.mark.parametrize(
    "text, line",
    [
        ("t 3\n+e a knows b\n", 1),            # first header skips t 2
        ("t 2\n+e a knows b\nt 2\n", 3),      # repeated header
        ("t 2\nt 4\n", 2),                     # skipped header
        ("t 2\nt 3\nt 2\n", 3),               # out of order
    ],
)
def test_timestamp_headers_must_run_in_order(text, line):
    with pytest.raises(GraphFormatError) as info:
        parse_changes_text(text)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: ")


def _fuzz_base():
    rng = random.Random(11)
    g = random_graph(rng, 8, 12)
    for t in (2, 3, 4):
        g = apply_changes(g, random_changes(rng, g, t, 4))
    return [text.splitlines() for text in graph_to_texts(g)]


FUZZ_BASE = _fuzz_base()


@st.composite
def mutated_inputs(draw):
    """The base snapshot and change files after a few line-level mutations:
    drop, duplicate or swap lines, blank tokens to `""`, renumber a header."""
    files = [list(lines) for lines in FUZZ_BASE]
    for _ in range(draw(st.integers(1, 4))):
        lines = files[draw(st.integers(0, 1))]
        if not lines:
            continue
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "blank", "renumber"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "blank":
            tokens = lines[i].split(" ")
            for k in draw(st.sets(st.integers(0, len(tokens) - 1), min_size=1)):
                tokens[k] = '""'
            lines[i] = " ".join(tokens)
        else:
            headers = [k for k, line in enumerate(files[1]) if line.startswith("t ")]
            if headers:
                files[1][draw(st.sampled_from(headers))] = f"t {draw(st.integers(0, 6))}"
    return ["\n".join(lines) + "\n" for lines in files]


@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_raise_only_engine_errors(texts):
    try:
        load_graph(*texts)
    except TgfdError:
        pass

"""The per-match profile memo (each rule's `RulePlan`) against profiling
every match at every timestamp.

A replay keeps one plan per rule: each timestamp's entries must equal those
of a fresh plan, whose memo reads every match, on the same matches.  The
instances write, restore, delete and rewrite the slots the rules read, let
a match die and come back after its vertex was written, and inject errors
whose written consequent attribute is another rule's antecedent attribute.
"""

import random

from tgfd.detection import (
    ReportOrder,
    RulePlan,
    detect_sequential,
    replay,
)
from tgfd.evaluation import inject_errors
from tgfd.graph import AttrDelete, AttrSet, ChangeSet, EdgeDelete, EdgeInsert, apply_changes
from tgfd.model import (
    ConstantLiteral,
    Delta,
    GraphPattern,
    MatchBinding,
    Tgfd,
    VariableLiteral,
    normalize_all,
)

from util import (
    ATTR_POOL,
    build_graph,
    engine_violation_keys,
    exotic_rule,
    extend,
    oracle_ledger,
    oracle_violations,
    random_changes,
    random_graph,
    random_tgfd,
    shaped_rule,
)

PLAYS = GraphPattern([("x", "person"), ("y", "team")], [("x", "plays", "y")])
NAME, CODE = VariableLiteral("x", "name", "x", "name"), VariableLiteral("y", "code", "y", "code")
# every form in which a rule reads y.code, the attribute the instances write
CODE_RULES = [
    Tgfd("x_self", PLAYS, Delta(0, 2), [CODE], [VariableLiteral("x", "rank", "x", "rank")]),
    Tgfd("x_const", PLAYS, Delta(0, 3), [ConstantLiteral("y", "code", "1")], [NAME]),
    Tgfd("x_general", PLAYS, Delta(0, 2), [VariableLiteral("x", "name", "y", "code")],
         [VariableLiteral("x", "rank", "x", "rank")]),
    Tgfd("y_self", PLAYS, Delta(0, 2), [NAME], [CODE]),
    Tgfd("y_general", PLAYS, Delta(1, 4), [], [VariableLiteral("x", "name", "y", "code")]),
    Tgfd("y_const", PLAYS, Delta(0, 0), [NAME], [ConstantLiteral("y", "code", "1")]),
]


def unkeyed(entries):
    """The entries without their key halves (hi, lo), which carry the
    entry ids of the plan that numbered them."""
    return [e[:6] + e[8:] for e in entries]


def memo_replay(graph, rules):
    """Replay graph with one plan per rule, comparing each timestamp's
    entries with a fresh plan's on the same matches, and each entry's key
    halves with ReportOrder's.  Returns {(rule, t): matches read}: the
    matches whose values the memo read at t."""
    order = ReportOrder(graph.vertices, graph.T)
    rules = normalize_all(rules)
    plans = {sigma.name: RulePlan(sigma, order, graph) for sigma in rules}
    reads = {}
    for name, plan in plans.items():
        def counted(items, attr, read=plan.read, name=name):
            reads[name, t].add(items)
            return read(items, attr)

        plan.read = counted
    bits = order.id_bits
    for t, matchers, _ in replay(graph, rules):
        for sigma in rules:
            name = sigma.name
            reads[name, t] = set()
            matches = matchers[name].topological_matches()
            first = len(plans[name].table)
            got = plans[name].entries(matches, t)
            want = RulePlan(sigma, order, graph).entries(matches, t)
            # all but the key halves, which carry each plan's own entry ids
            assert unkeyed(got) == unkeyed(want), (name, t)
            assert all(e.text == MatchBinding(t, e.items).text for e in got)
            w1, w2, _, digits = order.halves(sigma)
            for eid, e in enumerate(got, start=first):
                hi, lo = digits(e.items)
                assert (e.hi, e.lo) == (t * w1 + hi + (eid << bits), t * w2 + lo + eid)
    return reads


def written_matches(graph, rules, t):
    """Per rule, the live matches at t holding a slot that change set t
    writes and the rule reads."""
    slots = {
        (c.vid, c.name) for c in graph.changesets[t - 2].changes
        if isinstance(c, (AttrSet, AttrDelete))
    }
    out = {}
    order = ReportOrder(graph.vertices, graph.T)
    for t_, matchers, _ in replay(graph, normalize_all(rules)):
        if t_ != t:
            continue
        for sigma in normalize_all(rules):
            plan = RulePlan(sigma, order, graph)
            out[sigma.name] = {
                items for items in matchers[sigma.name].topological_matches()
                if any((items[i][1], a) in slots for i, a in plan.reads)
            }
    return out


def assert_detects_like_oracle(graph, rules):
    got = engine_violation_keys(detect_sequential(graph, rules).iter_violations())
    want = set().union(*(oracle_violations(graph, sigma) for sigma in normalize_all(rules)))
    assert got == want


def test_written_restored_deleted_and_rewritten_slot_is_read_again():
    """b.code is written (t=2), restored (t=3), deleted (t=4), written again
    (t=5) and written its own value (t=6); t=7 writes a slot no rule reads.
    The memo re-reads exactly the live matches holding b at t=2..6, and
    none at t=7; c's match is read once."""
    g = build_graph(
        {"a1": "person", "a2": "person", "b": "team", "c": "team"},
        [("a1", "plays", "b"), ("a2", "plays", "b"), ("a2", "plays", "c")],
        {"a1": {"name": "1", "rank": "r"}, "a2": {"name": "1", "rank": "s"},
         "b": {"code": "1"}, "c": {"code": "1"}},
    )
    for changes in (
        [AttrSet("b", "code", "2")],
        [AttrSet("b", "code", "1")],
        [AttrDelete("b", "code")],
        [AttrSet("b", "code", "1")],
        [AttrSet("b", "code", "1")],
        [AttrSet("c", "unread", "z")],
    ):
        g = extend(g, changes)
    reads = memo_replay(g, CODE_RULES)
    on_b = {(("x", "a1"), ("y", "b")), (("x", "a2"), ("y", "b"))}
    for sigma in CODE_RULES:
        assert len(reads[sigma.name, 1]) == 3
        for t in range(2, 7):
            assert reads[sigma.name, t] == on_b == written_matches(g, CODE_RULES, t)[sigma.name]
        assert reads[sigma.name, 7] == set()
    assert_detects_like_oracle(g, CODE_RULES)


def test_match_that_dies_and_returns_after_its_vertex_was_written():
    """a1 -plays-> b is deleted (t=2); b.code is written while the match is
    dead (t=3); the edge returns (t=4).  Then a1.name is deleted and
    b.code restored while it is dead again (t=5, 6), and it returns
    (t=7).  The memo reads the returning match's new values."""
    g = build_graph(
        {"a1": "person", "a2": "person", "b": "team"},
        [("a1", "plays", "b"), ("a2", "plays", "b")],
        {"a1": {"name": "1", "rank": "r"}, "a2": {"name": "1", "rank": "s"}, "b": {"code": "1"}},
    )
    edge = ("a1", "plays", "b")
    for changes in (
        [EdgeDelete(*edge)],
        [AttrSet("b", "code", "2")],
        [EdgeInsert(*edge)],
        [EdgeDelete(*edge)],
        [AttrSet("b", "code", "1"), AttrDelete("a1", "name")],
        [EdgeInsert(*edge)],
    ):
        g = extend(g, changes)
    reads = memo_replay(g, CODE_RULES)
    back = (("x", "a1"), ("y", "b"))
    for sigma in CODE_RULES:
        assert back in reads[sigma.name, 4] and back in reads[sigma.name, 7]
    assert_detects_like_oracle(g, CODE_RULES)


def with_deletions(rng, graph, t, count):
    """random_changes plus attribute deletions of slots those changes do
    not write."""
    cs = random_changes(rng, graph, t, count)
    written = {(c.vid, c.name) for c in cs.changes if isinstance(c, AttrSet)}
    vids = sorted(graph.vertices)
    gone = {(rng.choice(vids), rng.choice(ATTR_POOL)) for _ in range(count // 3)} - written
    deletions = tuple(AttrDelete(vid, name) for vid, name in sorted(gone))
    return apply_changes(graph, ChangeSet(t, cs.changes + deletions))


def test_memo_profiles_like_every_match_at_every_timestamp_on_random_streams():
    for seed in range(12):
        rng = random.Random(7_000 + seed)
        g = random_graph(rng, 16, 40, n_types=2)
        T = rng.randint(4, 9)
        for t in range(2, T + 1):
            g = with_deletions(rng, g, t, 9)
        rules = [random_tgfd(rng, "r", max_edges=2, T=T), exotic_rule(rng, "e"),
                 shaped_rule(rng, "s", T)]
        memo_replay(g, rules)


def test_injected_consequent_that_is_another_rules_antecedent():
    """ry's consequent writes y.code, which rx reads in X (self-form and
    constant): the mutated graph's change sets write and restore it, and
    the ledger, which profiles both graphs through their own memos, equals
    the oracle ledger."""
    vids = {f"a{i}": "person" for i in range(6)} | {f"b{i}": "team" for i in range(4)}
    rng = random.Random(5)
    edges = sorted({(f"a{rng.randrange(6)}", "plays", f"b{rng.randrange(4)}") for _ in range(14)})
    attrs = {v: {"name": rng.choice("12"), "code": rng.choice("12"), "rank": rng.choice("xy")}
             for v in vids}
    g = build_graph(vids, edges, attrs)
    for t in range(2, 7):
        g = extend(g, [AttrSet(f"a{rng.randrange(6)}", "name", rng.choice("12"))])
    ry = Tgfd("ry", PLAYS, Delta(0, 2), [NAME], [CODE])
    rx = Tgfd("rx", PLAYS, Delta(0, 2), [CODE], [VariableLiteral("x", "rank", "x", "rank")])
    rc = Tgfd("rc", PLAYS, Delta(0, 1), [ConstantLiteral("y", "code", "1")],
              [VariableLiteral("x", "rank", "x", "rank")])
    rules = [ry, rx, rc]
    for seed in range(4):
        mutated, ledger = inject_errors(g, rules, 0.3, seed=seed, include_negative=True)
        assert {m.attr for m in ledger.mutations} >= {"code"}
        plus, minus, pool_size = oracle_ledger(g, mutated, rules, ledger.mutations)
        assert ledger.pool_size == pool_size
        assert (ledger.gamma_plus, ledger.gamma_minus) == (sorted(plus), sorted(minus))
        assert any(key[0] in ("rx", "rc") for key in plus | minus)
        memo_replay(mutated, rules)


def test_memo_moved_back_to_an_earlier_timestamp_reads_every_match_again():
    g = build_graph(
        {"a1": "person", "b": "team"}, [("a1", "plays", "b")],
        {"a1": {"name": "1", "rank": "r"}, "b": {"code": "1"}},
    )
    g = extend(g, [AttrSet("b", "code", "2")])
    sigma = CODE_RULES[3]  # y_self: y.code is its consequent
    order = ReportOrder(g.vertices, g.T)
    memo = RulePlan(sigma, order, g)
    for t in (1, 2, 1):
        matches = [(("x", "a1"), ("y", "b"))]
        got = memo.entries(matches, t)
        assert unkeyed(got) == unkeyed(RulePlan(sigma, order, g).entries(matches, t))
        assert got[0].y == g.snapshot(t).attr("b", "code")

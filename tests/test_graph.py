import json

import numpy as np
import pytest

import qbagx as q
from qbagx.errors import GraphFormatError, UnknownArgumentError

from helpers import fig_graph, plan_reference_cases, random_dag, topological_levels_reference


def test_attackers_supporters_running_example():
    g = fig_graph()
    assert g.attackers("b") == {"a"}
    assert g.attackers("e") == {"d"}
    assert g.supporters("c") == {"a", "e"}
    assert g.supporters("a") == {"d"}
    assert g.attackers("d") == set() and g.supporters("d") == set()


def test_attackers_empty_relation():
    g = q.make_qbag({"x": 0.5, "y": 0.5})
    assert g.attackers("x") == set()
    assert g.supporters("y") == set()


def test_unknown_argument_rejected():
    g = fig_graph()
    with pytest.raises(UnknownArgumentError):
        g.attackers("zzz")
    with pytest.raises(UnknownArgumentError):
        q.can_reach(g, {"a"}, {"zzz"})
    with pytest.raises(UnknownArgumentError):
        q.restrict(g, {"zzz"})


def test_can_reach_running_example():
    g = fig_graph()
    assert q.can_reach(g, {"d"}, {"b"})  # d -> a -> b
    assert not q.can_reach(g, {"b"}, {"d"})  # b has no out-edges
    assert not q.can_reach(g, set(), {"b"})  # vacuous
    # self-reachability needs a nonempty path
    assert not q.can_reach(g, {"a"}, {"a"})


def test_can_reach_monotone_in_sources():
    for seed in range(30):
        g, ids, rng = random_dag(seed)
        targets = {ids[int(rng.integers(0, len(ids)))]}
        sources = {a for a in ids if rng.random() < 0.4}
        if q.can_reach(g, sources, targets):
            assert q.can_reach(g, set(ids), targets)


def test_restrict_running_example():
    g = fig_graph()
    sub = q.restrict(g, {"a", "b"})
    assert set(sub.arguments) == {"a", "b"}
    assert sub.attacks == frozenset({("a", "b")})
    assert sub.supports == frozenset()
    assert sub.base_scores == {"a": 1.0, "b": 8.0}


def test_restrict_identity_empty_and_idempotent():
    g = fig_graph()
    assert q.restrict(g, g.arguments) == g
    empty = q.restrict(g, set())
    assert empty.arguments == ()
    for seed in range(20):
        g2, ids, rng = random_dag(seed)
        keep = {a for a in ids if rng.random() < 0.6}
        once = q.restrict(g2, keep)
        assert q.restrict(once, keep) == once


def test_topological_order_running_example():
    g = fig_graph()
    order = q.topological_order(g)
    pos = {a: i for i, a in enumerate(order)}
    assert pos["d"] < pos["a"] and pos["d"] < pos["e"]
    assert pos["a"] < pos["b"] and pos["a"] < pos["c"]
    assert pos["e"] < pos["c"]


def test_topological_order_single_node_and_cycle():
    assert q.topological_order(q.make_qbag({"x": 0.0})) == ["x"]
    cyc = q.make_qbag({"x": 0.1, "y": 0.2}, attacks=[("x", "y")], supports=[("y", "x")])
    assert q.topological_order(cyc) is None
    assert q.topological_levels(cyc) is None


def test_topological_levels_are_longest_path_depths():
    for seed in range(60):
        g, ids, rng = random_dag(seed, 2, 12)
        levels = q.topological_levels(g)
        level_of = {a: k for k, level in enumerate(levels) for a in level}
        assert sorted(level_of) == sorted(g.arguments) and sum(map(len, levels)) == len(ids)
        for a in g.arguments:
            assert level_of[a] == 1 + max((level_of[p] for p in g.parents(a)), default=-1)

        depth: dict[str, int] = {}

        def longest_path_to(a):
            if a not in depth:
                depth[a] = 1 + max((longest_path_to(p) for p in g.parents(a)), default=-1)
            return depth[a]

        grouping = [[] for _ in levels]
        for a in g.arguments:
            grouping[longest_path_to(a)].append(a)
        assert levels == grouping  # same members, each level sorted by id

        order = q.topological_order(g)
        position = {a: i for i, a in enumerate(order)}
        assert all(position[a] < position[b] for a, b in g.edges())

        if len(levels) > 1:
            # an edge from a deepest argument back to one of its roots closes a cycle
            deepest = root = levels[-1][0]
            while g.parents(root):
                root = min(g.parents(root))
            cyclic = q.make_qbag(g.base_scores, set(g.attacks) | {(deepest, root)}, g.supports)
            assert q.topological_levels(cyclic) is None


def test_topological_levels_match_the_python_kahn_reference():
    for g in plan_reference_cases():
        assert q.topological_levels(g) == topological_levels_reference(g)


def test_topological_levels_follow_argument_order():
    # a QBAG built directly may list its arguments unsorted; levels keep that order
    g = q.QBAG(("z", "b", "y", "a"), {"z": 0.1, "b": 0.2, "y": 0.3, "a": 0.4},
               frozenset({("z", "y"), ("b", "a")}), frozenset())
    assert q.topological_levels(g) == [["z", "b"], ["y", "a"]]
    assert q.topological_order(g) == ["z", "b", "y", "a"]


def test_non_finite_scores_rejected():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(GraphFormatError):
            q.make_qbag({"a": bad, "b": 0.5}, attacks=[("a", "b")])
    for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
        doc = '{"arguments": [{"id": "a", "base_score": %s}]}' % literal
        with pytest.raises(GraphFormatError):
            q.parse_qbag(doc)


def test_self_loop_is_cyclic_but_constructible():
    g = q.make_qbag({"x": 0.5}, attacks=[("x", "x")])
    assert q.topological_order(g) is None


def test_construction_rejects_edge_in_both_relations():
    with pytest.raises(GraphFormatError):
        q.make_qbag({"a": 0.1, "b": 0.2}, attacks=[("a", "b")], supports=[("a", "b")])


def test_construction_rejects_unknown_endpoint_and_bad_ids():
    with pytest.raises(GraphFormatError):
        q.make_qbag({"a": 0.1}, attacks=[("a", "b")])
    with pytest.raises(GraphFormatError):
        q.make_qbag({"": 0.1})
    with pytest.raises(GraphFormatError):
        q.make_qbag({"a": True})


def test_parse_running_example_document():
    doc = {
        "arguments": [
            {"id": "a", "base_score": 1},
            {"id": "b", "base_score": 8},
            {"id": "c", "base_score": 1},
            {"id": "d", "base_score": 1},
            {"id": "e", "base_score": 2},
        ],
        "attacks": [["a", "b"], ["d", "e"]],
        "supports": [["a", "c"], ["e", "c"], ["d", "a"]],
    }
    assert q.parse_qbag(json.dumps(doc)) == fig_graph()


def test_parse_empty_arguments():
    g = q.parse_qbag('{"arguments": []}')
    assert g.arguments == ()


def test_parse_rejects_edge_in_both_relations():
    doc = '{"arguments":[{"id":"a","base_score":0},{"id":"b","base_score":0}],"attacks":[["a","b"]],"supports":[["a","b"]]}'
    with pytest.raises(GraphFormatError):
        q.parse_qbag(doc)


_AB = '{"arguments": [{"id":"a","base_score":0},{"id":"b","base_score":1}], '
_MALFORMED = [
    ("not json", "invalid JSON"),
    ("[1,2]", "graph document must be a JSON object"),
    ('{"arguments": [], "extra": 1}', "unknown keys in graph document: ['extra']"),
    ('{"arguments": [{"id":"a","base_score":0,"color":"red"}]}', "unknown keys in argument entry: ['color']"),
    ('{"arguments": [{"id":"a","base_score":0},{"id":"a","base_score":1}]}', "duplicate argument id: 'a'"),
    ('{"arguments": [{"id":"a"}]}', "argument entry needs id and base_score"),
    ('{"arguments": [{"id":"a","base_score":"x"}]}', "base score of 'a' must be a real number, got 'x'"),
    ('{"arguments": [], "attacks": [["a"]]}', "bad attacks entry: ['a']"),
    # the bulk edge checks fail; the per-entry loop names the first bad entry
    (_AB + '"attacks": {}}', "attacks must be a list of [from, to] pairs"),
    (_AB + '"attacks": [["a","b"], "ab"]}', "bad attacks entry: 'ab'"),
    (_AB + '"supports": [{"a":1,"b":2}]}', "bad supports entry: {'a': 1, 'b': 2}"),
    (_AB + '"attacks": [["a","b","c"], ["a",1]]}', "bad attacks entry: ['a', 'b', 'c']"),
    (_AB + '"attacks": [["b","a"], ["a",1], [null,"a"]]}', "bad attacks entry: ['a', 1]"),
    (_AB + '"supports": [[null,"a"]]}', "bad supports entry: [None, 'a']"),
    (_AB + '"attacks": [["a","b"]], "supports": [["b","a"], ["z","a"]]}',
     "edge ('z', 'a') has an endpoint outside the argument set"),
    (_AB + '"attacks": [["a","b"], ["b","a"]], "supports": [["b","a"]]}',
     "edges in both attack and support relations: [('b', 'a')]"),
]


@pytest.mark.parametrize("bad, message", [pytest.param(doc, msg, id=doc) for doc, msg in _MALFORMED])
def test_parse_rejects_malformed_documents(bad, message):
    with pytest.raises(GraphFormatError) as exc:
        q.parse_qbag(bad)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "scores, attacks, supports, message",
    [
        ({1: 0.5}, [], [], "argument id must be a non-empty string, got 1"),
        ({"a": 0.5, "": 0.1}, [], [], "argument id must be a non-empty string, got ''"),
        ({"a": 0.5, "b": "x"}, [], [], "base score of 'b' must be a real number, got 'x'"),
        ({"a": 0.5, "b": np.float64("nan")}, [], [], "base score of 'b' must be finite, got"),
        # endpoints are converted with str(), as they always were
        ({"a": 0.5, "b": 0.1}, [("a", "b"), ("a", 1)], [], "edge ('a', '1') has an endpoint outside the argument set"),
        ({"a": 0.5, "b": 0.1}, [("a", "b")], [("b", "a"), ("z", "b")],
         "edge ('z', 'b') has an endpoint outside the argument set"),
        ({"a": 0.5, "b": 0.1}, frozenset({("a", "b")}), [["a", "b"]], "edges in both attack and support relations"),
    ],
)
def test_make_qbag_names_the_first_bad_entry(scores, attacks, supports, message):
    with pytest.raises(GraphFormatError) as exc:
        q.make_qbag(scores, attacks, supports)
    assert message in str(exc.value)


def test_make_qbag_accepts_any_pair_iterables_and_shares_str_edge_sets():
    g = q.make_qbag({"a": 0.5, "b": np.float64(0.25), "c": 1}, attacks=iter([["a", "b"]]), supports={("b", "c")})
    assert g.attacks == {("a", "b")} and g.supports == {("b", "c")}
    assert g.base_scores == {"a": 0.5, "b": 0.25, "c": 1.0}
    assert all(type(v) is float for v in g.base_scores.values())
    derived = q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3}, g.attacks, g.supports)
    assert derived.attacks is g.attacks and derived.supports is g.supports
    parsed = q.parse_qbag(q.serialize_qbag(g))
    assert q.make_qbag(g.base_scores, parsed.attacks, parsed.supports).attacks is parsed.attacks


def test_serialize_round_trip_random_graphs():
    for seed in range(40):
        g, _, _ = random_dag(seed)
        assert q.parse_qbag(q.serialize_qbag(g)) == g
        # serialization is canonical: a second round trip is byte-identical
        assert q.serialize_qbag(q.parse_qbag(q.serialize_qbag(g))) == q.serialize_qbag(g)

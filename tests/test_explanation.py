import numpy as np
import pytest

import qbagx as q
from qbagx.errors import GraphFormatError, InvalidChangeError, UnknownArgumentError
from qbagx.explanation import OrderingRule

from helpers import fig_graph, fig_query, random_dag, random_tiny_query, satisfies_reference


def test_induced_ordering_running_example():
    g = fig_graph()
    expected = q.ordering_from_tiers([["d", "e"], ["a"], ["c"], ["b"]])
    assert q.induced_ordering(g, q.NAIVE, g.arguments) == expected.as_pairs()


def test_induced_ordering_singleton_and_empty():
    g = fig_graph()
    assert q.induced_ordering(g, q.NAIVE, {"a"}) == {("a", "a")}
    assert q.induced_ordering(g, q.NAIVE, set()) == set()


def test_ordering_validation():
    with pytest.raises(GraphFormatError):
        q.ordering_from_tiers([[], ["a"]])
    with pytest.raises(GraphFormatError):
        q.ordering_from_tiers([["a"], ["a"]])


def test_ordering_cli_notation():
    ordering = q.ordering_from_spec("a=b>c")
    assert ordering.tiers == (frozenset({"c"}), frozenset({"a", "b"}))
    assert q.ordering_to_spec(ordering) == "a=b>c"
    assert q.ordering_from_spec("c>b").tiers == (frozenset({"b"}), frozenset({"c"}))


def test_satisfies_running_example():
    want_c_over_b = q.ordering_from_tiers([["b"], ["c"]])
    assert not q.satisfies(fig_graph("g"), q.NAIVE, want_c_over_b)  # sigma(b)=6 > sigma(c)=4
    assert q.satisfies(fig_graph("g_prime"), q.NAIVE, want_c_over_b)  # 5 < 6
    single = q.ordering_from_tiers([["a"]])
    assert q.satisfies(fig_graph("g"), q.NAIVE, single)


def test_satisfies_weak_allows_cross_tier_ties():
    g = q.make_qbag({"x": 0.4, "y": 0.4})
    ordering = q.ordering_from_tiers([["x"], ["y"]])
    assert q.satisfies(g, q.DFQUAD, ordering, mode="weak")
    assert not q.satisfies(g, q.DFQUAD, ordering, mode="exact")


def test_satisfies_exact_tolerance_widens_ties():
    g = q.make_qbag({"x": 0.4, "y": 0.4 + 1e-9})
    ordering = q.ordering_from_tiers([["x", "y"]])
    assert not q.satisfies(g, q.DFQUAD, ordering, mode="exact")
    assert q.satisfies(g, q.DFQUAD, ordering, mode="exact", tolerance=1e-6)


def test_apply_change_reproduces_updated_graphs():
    g = fig_graph("g")
    assert q.apply_change(g, q.StrengthChange({"a": 2.0, "e": 3.0})) == fig_graph("g_prime")
    assert q.apply_change(g, q.StrengthChange({"a": 3.0})) == fig_graph("g_dblprime")
    assert q.apply_change(g, q.EMPTY_CHANGE) == g


def test_apply_change_rejects_noop_entry_and_unknown_ids():
    g = fig_graph("g")
    with pytest.raises(InvalidChangeError):
        q.apply_change(g, q.StrengthChange({"a": 1.0}))  # equals current score
    with pytest.raises(UnknownArgumentError):
        q.apply_change(g, q.StrengthChange({"zzz": 1.0}))
    with pytest.raises(InvalidChangeError):
        q.apply_change(q.make_qbag({"x": 0.5}), q.StrengthChange({"x": 1.5}), q.UNIT_INTERVAL)


def test_amount_of_change_running_example():
    g = fig_graph("g")
    assert q.amount_of_change(g, q.StrengthChange({"a": 2.0, "e": 3.0})) == 2.0
    assert q.amount_of_change(g, q.EMPTY_CHANGE) == 0.0
    assert q.amount_of_change(g, q.StrengthChange({"a": 2.0, "e": 4.0})) == 3.0


def test_is_explanation_running_example():
    query = fig_query()
    for entries in ({"a": 2.0, "e": 3.0}, {"a": 3.0}, {"a": 2.0, "e": 4.0}):
        assert q.is_explanation(query, q.StrengthChange(entries))
    # mutability violated: d is not in the mutable set
    assert not q.is_explanation(query, q.StrengthChange({"d": 5.0}))


def test_empty_change_explains_iff_satisfied():
    satisfied = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset({"a"}), q.ordering_from_tiers([["b"], ["c"]])
    )
    assert q.is_explanation(satisfied, q.EMPTY_CHANGE)
    assert not q.is_explanation(fig_query(), q.EMPTY_CHANGE)


def test_empty_change_explains_iff_satisfied_on_random_queries():
    for seed in range(60):
        query = random_tiny_query(seed)
        assert q.is_explanation(query, q.EMPTY_CHANGE) == q.satisfies(
            query.graph, query.semantics, query.ordering
        )


def random_tiers(rng, ids):
    """A random ordering over a random subset of ids, some tiers shared."""
    k = int(rng.integers(1, len(ids) + 1))
    topics = [ids[i] for i in rng.choice(len(ids), size=k, replace=False)]
    tiers = [[topics[0]]]
    for x in topics[1:]:
        if rng.random() < 0.3:
            tiers[-1].append(x)
        else:
            tiers.append([x])
    return q.ordering_from_tiers(tiers)


def test_ordering_rule_matches_scalar_reference():
    ids = [f"x{i}" for i in range(7)]
    index = {a: i for i, a in enumerate(ids)}
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ordering = random_tiers(rng, ids)
        rule = OrderingRule(index, ordering)
        # few distinct levels make exact ties common; tiny offsets probe the tolerance
        sigma = rng.integers(0, 3, size=(len(ids), 40)) / 2.0
        sigma += rng.choice([0.0, 0.0, 5e-7, -5e-7, 3e-6], size=sigma.shape)
        costs = rule.costs(sigma)
        for mode, tol in (("weak", 0.0), ("exact", 0.0), ("exact", 1e-6)):
            batched = rule.holds(sigma, mode, tol)
            for b in range(sigma.shape[1]):
                column = {a: float(sigma[i, b]) for a, i in index.items()}
                assert batched[b] == satisfies_reference(column, ordering, mode, tol), (seed, b, mode, tol)
        for b in range(sigma.shape[1]):
            column = {a: float(sigma[i, b]) for a, i in index.items()}
            assert abs(costs[b] - q.relu_cost(column, ordering)) <= 1e-12


def test_is_explanation_matches_satisfies_of_applied_change():
    for seed in range(80):
        g, ids, rng = random_dag(seed)
        ordering = random_tiers(rng, ids)
        mutable = frozenset(ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, len(ids) + 1)), replace=False))
        query = q.ExplanationQuery(g, q.DFQUAD, mutable, ordering)
        entries = {a: float(rng.choice([rng.random(), 0.0, 1.0])) for a in sorted(mutable) if rng.random() < 0.7}
        change = q.StrengthChange({a: v for a, v in entries.items() if v != g.base_scores[a]})
        updated = q.apply_change(g, change, q.DFQUAD.domain)
        for mode in ("weak", "exact"):
            assert q.is_explanation(query, change, mode) == q.satisfies(updated, q.DFQUAD, ordering, mode)


def test_non_finite_changes_rejected():
    with pytest.raises(InvalidChangeError):
        q.StrengthChange({"a": float("nan")})
    for doc in ('{"changes":{"a":NaN}}', '{"changes":{"a":Infinity}}', '{"changes":{"a":1e999}}'):
        with pytest.raises(GraphFormatError):
            q.change_from_json(doc)


def test_epsilon_approximation_running_example():
    query = fig_query()
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    # raising a by 1 and e by 2 wastes more than epsilon=1 over the cheapest fix
    assert q.is_epsilon_approximate(query, q.StrengthChange({"a": 2.0, "e": 4.0}), 1.0, grid) == "no"
    # nothing can beat the empty change on an already-satisfied query
    satisfied = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset({"a", "e"}), q.ordering_from_tiers([["b"], ["c"]])
    )
    assert q.is_epsilon_approximate(satisfied, q.EMPTY_CHANGE, 0.0, grid) == "yes"


def test_epsilon_approximation_requires_explanation():
    query = fig_query()
    with pytest.raises(InvalidChangeError):
        q.is_epsilon_approximate(query, q.StrengthChange({"a": 0.5}), 1.0, q.GridSpec(step=0.5, lower=0, upper=4))


@pytest.mark.parametrize("doc", ['{"tiers":["ab"]}', '{"tiers":[["a"],5]}', '{"tiers":[["a"],[""]]}',
                                 '{"tiers":[["a"],["b",2]]}', '{"tiers":[["a"]],"x":1}'])
def test_malformed_ordering_documents_rejected(doc):
    """"ab" used to be read as the tier {a, b}, and a tier 5 raised TypeError."""
    with pytest.raises(GraphFormatError):
        q.ordering_from_json(doc)


@pytest.mark.parametrize("value", ["true", '"0.5"', "null", "[1]", "1" + "0" * 400])
def test_change_entries_must_be_real_numbers(value):
    """true and "0.5" used to be read as 1.0 and 0.5."""
    with pytest.raises(GraphFormatError):
        q.change_from_json('{"changes":{"a":%s}}' % value)


def test_change_json_round_trip():
    change = q.StrengthChange({"a": 2.0, "e": 3.0})
    assert q.change_from_json(change.to_json()) == change
    ordering = q.ordering_from_tiers([["d", "e"], ["a"]])
    assert q.ordering_from_json(ordering.to_json()) == ordering

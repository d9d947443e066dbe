import dataclasses
import gc
import pickle
import weakref
from copy import deepcopy

import numpy as np
import pytest

import qbagx as q
from qbagx import graph, semantics
from qbagx.errors import CyclicGraphError, DomainError, GraphFormatError
from qbagx.graph import reachable_from
from qbagx.semantics import Influence, PassBuffers, compile_graph, evaluate_matrix, level_pass

from helpers import (
    FIG_CASES,
    assert_same_blocks,
    fig_graph,
    fixed_point_reference,
    jacobi_reference,
    level_pass_reference,
    plan_blocks_reference,
    plan_reference_cases,
    random_dag,
    random_tiny_query,
)


def test_aggregate_sum():
    # hand evaluation: 0.5 + 0.2 - 0.3
    assert q.aggregate("sum", [0.3], [0.5, 0.2]) == pytest.approx(0.4, abs=1e-12)


def test_aggregate_product_no_parents_is_zero():
    assert q.aggregate("product", [], []) == 0.0


def test_aggregate_product_single_attacker():
    # hand evaluation: (1 - 0.5) - 1
    assert q.aggregate("product", [0.5], []) == pytest.approx(-0.5, abs=1e-15)


def test_influence_euler_zero_aggregate_returns_base():
    assert q.influence_value(Influence("euler_based"), 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_influence_two_max_zero_aggregate_returns_base():
    assert q.influence_value(Influence("p_max", k=1.0, p=2), 0.7, 0.0) == 0.7


def test_influence_linear_hand_value():
    # hand evaluation: 0.5 - 0.5*0.5 + 0.5*0
    assert q.influence_value(Influence("linear", k=1.0), 0.5, -0.5) == pytest.approx(0.25, abs=1e-15)


def test_builtin_tokens():
    assert q.builtin_semantics("dfquad") is q.DFQUAD
    assert q.builtin_semantics("eb") is q.EULER_BASED
    assert q.builtin_semantics("qe") is q.QUADRATIC_ENERGY
    assert q.builtin_semantics("naive") is q.NAIVE
    with pytest.raises(ValueError):
        q.builtin_semantics("nope")


def test_custom_semantics_from_config():
    spec = q.semantics_from_config({"aggregation": "sum", "influence": {"kind": "p_max", "p": 2, "k": 1}})
    assert spec.aggregation == "sum"
    assert spec.influence == Influence("p_max", k=1.0, p=2)


@pytest.mark.parametrize("config", [
    [],
    {"aggregation": "sum", "influence": {"kind": "linear", "k": "0.5"}},
    {"aggregation": "sum", "influence": {"kind": "linear", "k": True}},
    {"aggregation": "sum", "influence": {"kind": "linear", "k": [1]}},
    {"aggregation": "sum", "influence": {"kind": "linear", "k": None}},
    {"aggregation": "sum", "influence": {"kind": "linear", "k": 10 ** 400}},
    {"aggregation": "sum", "influence": {"kind": "p_max", "p": 2.5}},
    {"aggregation": "sum", "influence": {"kind": "p_max", "p": True}},
])
def test_semantics_config_rejects_malformed_values(config):
    """An empty list used to raise AttributeError, a string or bool k was coerced,
    k as a list or null raised TypeError, and p = 2.5 was truncated to 2."""
    with pytest.raises(ValueError):
        q.semantics_from_config(config)


@pytest.mark.parametrize("name", sorted(FIG_CASES))
def test_naive_running_example_exact(name):
    scores, expected = FIG_CASES[name]
    sigma = q.final_strengths(fig_graph(name), q.NAIVE)
    assert sigma == {a: float(v) for a, v in expected.items()}


def test_parentless_argument_keeps_base_score():
    g = q.make_qbag({"x": 0.37, "y": 0.9}, attacks=[("x", "y")])
    for token in ("dfquad", "qe"):
        assert q.final_strengths(g, q.builtin_semantics(token))["x"] == 0.37
    assert q.final_strengths(g, q.EULER_BASED)["x"] == pytest.approx(0.37, abs=1e-12)
    assert q.final_strengths(fig_graph(), q.NAIVE)["d"] == 1.0


def test_dfquad_hand_computed_chain():
    # a (0.4) supports t (0.3); u (0.8) attacks t: agg = (1-0.8) - (1-0.4) = -0.4
    # sigma(t) = 0.3 - 0.3*0.4 = 0.18
    g = q.make_qbag({"a": 0.4, "t": 0.3, "u": 0.8}, attacks=[("u", "t")], supports=[("a", "t")])
    sigma = q.final_strengths(g, q.DFQUAD)
    assert sigma["t"] == pytest.approx(0.18, abs=1e-12)


def test_unit_semantics_stay_in_unit_interval():
    for seed in range(30):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "eb", "qe"):
            sigma = q.final_strengths(g, q.builtin_semantics(token))
            assert all(v is not None and -1e-12 <= v <= 1 + 1e-12 for v in sigma.values())


def test_domain_violation_rejected():
    g = q.make_qbag({"x": 1.5})
    with pytest.raises(DomainError):
        q.final_strengths(g, q.DFQUAD)
    assert q.final_strengths(g, q.NAIVE)["x"] == 1.5  # reals domain accepts it
    # a NaN score reaching the evaluator directly is outside every bounded domain
    nan_graph = q.QBAG(("x",), {"x": float("nan")}, frozenset(), frozenset())
    with pytest.raises(DomainError):
        q.final_strengths(nan_graph, q.DFQUAD)
    for k in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Influence("linear", k=k)


def test_naive_rejects_cyclic_graph():
    cyc = q.make_qbag({"x": 1.0, "y": 2.0}, supports=[("x", "y"), ("y", "x")])
    with pytest.raises(CyclicGraphError):
        q.final_strengths(cyc, q.NAIVE)


def test_cyclic_convergent_support_loop():
    g = q.make_qbag({"x": 0.3, "y": 0.4}, supports=[("x", "y"), ("y", "x")])
    sigma = q.final_strengths(g, q.DFQUAD)
    x, y = sigma["x"], sigma["y"]
    assert x is not None and y is not None
    # fixed point of x = 0.3 + 0.7*y, y = 0.4 + 0.6*x
    assert x == pytest.approx(0.3 + 0.7 * y, abs=1e-7)
    assert y == pytest.approx(0.4 + 0.6 * x, abs=1e-7)


def test_cyclic_nonconvergent_marks_undefined_and_downstream():
    # sum + linear(1), mutual attackers at 1.0 oscillate between (1,1) and (0,0)
    spec = q.SemanticsSpec("sum", Influence("linear", k=1.0), q.UNIT_INTERVAL, max_sweeps=500)
    g = q.make_qbag(
        {"w": 0.4, "x": 1.0, "y": 1.0, "z": 0.5},
        attacks=[("x", "y"), ("y", "x")],
        supports=[("x", "z")],
    )
    sigma = q.final_strengths(g, spec)
    assert sigma["x"] is None and sigma["y"] is None
    assert sigma["z"] is None  # downstream of the oscillation
    assert sigma["w"] == 0.4  # untouched component stays defined


def test_a_nan_fixed_point_is_undefined():
    """sum + linear(0.01) drives the support loop x <-> y to inf and then to
    NaN, whose change is never below epsilon: x, y and z, which y supports,
    are undefined (they used to come out defined as NaN). In a batch, the
    column whose loop starts at 0 settles and stays defined."""
    spec = q.SemanticsSpec("sum", Influence("linear", k=0.01), max_sweeps=2000)
    g = q.make_qbag({"x": 0.5, "y": 0.5, "z": 0.5}, supports=[("x", "y"), ("y", "x"), ("y", "z")])
    with np.errstate(all="ignore"):
        assert q.final_strengths(g, spec) == {"x": None, "y": None, "z": None}
        plan = compile_graph(g)
        columns = {"x": [0.5, 0.0, 0.5], "y": [0.5, 0.0, 0.5], "z": [0.5, 0.5, 0.5]}
        _, defined = evaluate_matrix(plan, spec, np.array([columns[a] for a in plan.ids]))
    assert defined.tolist() == [[False, True, False]] * 3


def test_interval_pass_encloses_every_strength_in_a_box():
    """Under monotone semantics, the interval pass's bounds on a box of base
    scores hold the strengths of random points in it (up to rounding); a
    box of one point is bounded by its own strengths."""
    rng = np.random.default_rng(0)
    specs = (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY, q.NAIVE,
             q.SemanticsSpec("sum", Influence("linear", k=6.0)))  # random_dag has in-degree <= 5
    for seed in range(20):
        g, _, _ = random_dag(seed)
        plan = compile_graph(g)
        for spec in specs:
            assert semantics.is_monotone(plan, spec)
            lo, hi = np.sort(rng.random((2, plan.n, 6)) * (3.0 if spec is q.NAIVE else 1.0), axis=0)
            lo[:, 0] = hi[:, 0]
            low, high = semantics.interval_pass(plan, spec, lo, hi)
            points = lo[:, :, None] + rng.random((plan.n, 6, 40)) * (hi - lo)[:, :, None]
            sigma, _ = evaluate_matrix(plan, spec, points.reshape(plan.n, -1))
            sigma = sigma.reshape(plan.n, 6, 40)
            assert (low[:, :, None] - 1e-12 <= sigma).all() and (sigma <= high[:, :, None] + 1e-12).all()
            one, _ = evaluate_matrix(plan, spec, lo[:, :1])
            np.testing.assert_allclose(low[:, 0], one[:, 0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(high[:, 0], one[:, 0], rtol=0, atol=1e-12)


def test_nonconvergent_batch_marks_what_each_column_reaches():
    # a layered graph with one back edge, under sum + linear(1): after 50
    # sweeps some columns still move somewhere and some have settled
    spec = q.SemanticsSpec("sum", Influence("linear", k=1.0), q.UNIT_INTERVAL, max_sweeps=50)
    inst = q.generate(q.GenSpec(q.structure((8, 32, 16, 8)), "random", 3))
    back = (inst.layers[-1][0], inst.layers[1][0])
    g = q.make_qbag(inst.graph.base_scores, inst.graph.attacks | {back}, inst.graph.supports)
    plan = compile_graph(g)
    tau = np.random.default_rng(0).random((plan.n, 300))
    sigma, defined = evaluate_matrix(plan, spec, tau)
    before, _ = evaluate_matrix(plan, dataclasses.replace(spec, max_sweeps=49), tau)
    unstable = np.abs(sigma - before) >= spec.epsilon
    expected = np.ones(tau.shape, dtype=bool)
    for b in range(tau.shape[1]):
        moving = {plan.ids[i] for i in np.flatnonzero(unstable[:, b])}
        for a in moving | reachable_from(g, moving):
            expected[plan.index[a], b] = False
    assert 0 < (~expected).any(axis=0).sum() < tau.shape[1]
    assert np.array_equal(defined, expected)


def test_forward_and_fixed_point_agree_on_acyclic():
    for seed in range(20):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "eb", "qe"):
            spec = q.builtin_semantics(token)
            fwd = q.final_strengths(g, spec)
            it = q.final_strengths(g, spec, method="iterative")
            for a in g.arguments:
                assert it[a] == pytest.approx(fwd[a], abs=spec.epsilon)


def reference_strengths(g, spec):
    """Independent scalar evaluator: per-node loop over a topological order
    using the public aggregate/influence functions."""
    sigma = {}
    for x in q.topological_order(g):
        agg = q.aggregate(
            spec.aggregation,
            [sigma[y] for y in sorted(g.attackers(x))],
            [sigma[y] for y in sorted(g.supporters(x))],
        )
        sigma[x] = q.influence_value(spec.influence, g.base_scores[x], agg)
    return sigma


def test_engine_matches_scalar_reference_on_random_graphs():
    for seed in range(40):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "eb", "qe", "naive"):
            spec = q.builtin_semantics(token)
            expected = reference_strengths(g, spec)
            sigma = q.final_strengths(g, spec)
            for a in g.arguments:
                assert sigma[a] == pytest.approx(expected[a], abs=1e-12), (seed, token, a)


def _with_back_edges(inst, seed, count=4):
    """The layered instance's graph plus seeded edges from the last layer
    back to the second, each an attack or a support."""
    rng = np.random.default_rng(seed)
    g = inst.graph
    last, second = inst.layers[-1], inst.layers[1]
    attacks, supports = set(g.attacks), set(g.supports)
    for _ in range(count):
        edge = (last[rng.integers(len(last))], second[rng.integers(len(second))])
        if edge not in attacks and edge not in supports:
            (attacks if rng.random() < 0.5 else supports).add(edge)
    return q.make_qbag(g.base_scores, attacks, supports)


def test_batched_evaluation_matches_single_columns():
    """A column's strengths agree with its width-1 evaluation to the
    tolerance evaluate_matrix documents: 1e-12 on acyclic plans,
    spec.epsilon on cyclic ones."""
    graphs = [random_dag(11)[0]]
    for seed in (1, 2):
        inst = q.generate(q.GenSpec(q.structure((8, 32, 16, 8)), "random", seed))
        graphs += [inst.graph, _with_back_edges(inst, seed)]
    assert sum(q.topological_order(g) is None for g in graphs) == 2
    for k, g in enumerate(graphs):
        plan = compile_graph(g)
        width = 7 if k == 0 else 105
        tau = np.random.default_rng(k).random((plan.n, width))
        for token in ("dfquad", "eb", "qe"):
            spec = q.builtin_semantics(token)
            tolerance = 1e-12 if plan.acyclic else spec.epsilon
            sigma, defined = evaluate_matrix(plan, spec, tau)
            assert defined.all()
            for b in range(width):
                single, single_defined = evaluate_matrix(plan, spec, tau[:, b : b + 1])
                assert single_defined.all()
                assert np.abs(sigma[:, b] - single[:, 0]).max() <= tolerance, (k, token, b)


def _p_max_two_terms(inf, w, s):
    """The p_max influence as the module docstring writes it, with both h
    terms: the reference for the one-np.where form. h takes its limit 1.0
    where max(0, x)^p overflows to inf."""

    def h(x):
        power = np.maximum(0.0, x) ** inf.p
        return np.where(np.isinf(power), 1.0, power / (1.0 + power))

    return w - w * h(-s / inf.k) + (1.0 - w) * h(s / inf.k)


def test_p_max_matches_two_term_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    w = np.concatenate([[0.0, -0.0, 1.0, 1 / 3, 0.7], rng.random(200)])
    for scale in (1e-300, 1e-3, 1.0, 30.0, 1e300):
        s = rng.normal(size=w.size) * scale
        s[:6] = [0.0, -0.0, 0.0, -0.0, 1e-320, -1e-320]
        for k, p in ((1.0, 2), (1.0, 1), (0.5, 3), (2.0, 2)):
            inf = Influence("p_max", k=k, p=p)
            with np.errstate(over="ignore", invalid="ignore"):  # the power overflows at 1e300
                got = semantics._apply_influence(inf, w, s)
                want = _p_max_two_terms(inf, w, s)
            assert np.array_equal(got, want, equal_nan=True), (scale, k, p)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (scale, k, p)


def test_parentless_strength_is_influence_at_zero_bit_for_bit():
    """The level pass skips the aggregate of parentless arguments; their
    strength equals influence(w, 0) exactly, signed zeros included."""
    scores = {"a": 0.0, "b": 1.0, "c": 1 / 3, "d": 0.7, "e": -0.0, "t": 0.5}
    g = q.make_qbag(scores, attacks=[("a", "t"), ("c", "t")], supports=[("b", "t"), ("d", "t"), ("e", "t")])
    influences = (
        Influence("linear", k=1.0), Influence("linear", k=2.0), Influence("euler_based"),
        Influence("p_max", k=1.0, p=2), Influence("p_max", k=1.0, p=3), Influence("additive"),
    )
    for inf in influences:
        domain = q.ALL_REALS if inf.kind == "additive" else q.UNIT_INTERVAL
        spec = q.SemanticsSpec("sum", inf, domain)
        sigma = q.final_strengths(g, spec)
        for a, w in scores.items():
            if a == "t":
                continue
            want = q.influence_value(inf, w, 0.0)
            assert sigma[a] == want and np.signbit(sigma[a]) == np.signbit(want), (inf, a)


def test_stability_principle_on_random_graphs():
    for seed in range(25):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "eb", "qe"):
            assert q.check_principle(g, q.builtin_semantics(token), "stability") is None
        assert q.check_principle(g, q.NAIVE, "stability") is None


def test_balance_constructed_instance_euler_based():
    # one attacker and one supporter with equal final strength
    g = q.make_qbag(
        {"p": 0.4, "r": 0.4, "x": 0.7},
        attacks=[("p", "x")],
        supports=[("r", "x")],
    )
    sigma = q.final_strengths(g, q.EULER_BASED)
    assert sigma["x"] == pytest.approx(0.7, abs=1e-12)
    assert q.check_principle(g, q.EULER_BASED, "balance") is None


def test_directionality_on_random_graphs():
    for seed in range(10):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "eb"):
            assert q.check_principle(g, q.builtin_semantics(token), "directionality") is None


def test_strong_directionality_on_random_graphs():
    for seed in range(10):
        g, _, _ = random_dag(seed)
        for token in ("dfquad", "qe"):
            assert q.check_principle(g, q.builtin_semantics(token), "strong_directionality") is None


def test_weak_monotonicity_shared_parents():
    # x and y share their parent sets; weaker base score must stay weaker
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scores = {"p": float(rng.random()), "r": float(rng.random()),
                  "x": float(rng.random()), "y": float(rng.random())}
        g = q.make_qbag(
            scores,
            attacks=[("p", "x"), ("p", "y")],
            supports=[("r", "x"), ("r", "y")],
        )
        for token in ("dfquad", "eb", "qe"):
            assert q.check_principle(g, q.builtin_semantics(token), "weak_monotonicity") is None


def test_check_principle_rejects_cyclic():
    cyc = q.make_qbag({"x": 0.1, "y": 0.2}, attacks=[("x", "y"), ("y", "x")])
    with pytest.raises(CyclicGraphError):
        q.check_principle(cyc, q.DFQUAD, "stability")


def test_check_principle_validates_input():
    g = q.make_qbag({"x": 0.3})
    with pytest.raises(ValueError):
        q.check_principle(g, q.DFQUAD, "no_such_principle")
    # an attacked argument is not constrained by stability
    g2 = q.make_qbag({"s": 0.9, "x": 0.3}, attacks=[("s", "x")])
    assert q.check_principle(g2, q.EULER_BASED, "stability") is None
    sigma = q.final_strengths(g2, q.EULER_BASED)
    assert sigma["x"] < 0.3  # the attack genuinely lowers x


def test_compiled_blocks_match_the_per_edge_reference_builder():
    for g in plan_reference_cases():
        plan = compile_graph(g)
        assert_same_blocks(plan.blocks, plan_blocks_reference(g))
        assert plan.acyclic == (q.topological_levels(g) is not None)
        assert plan.ids == g.arguments and plan.n == len(g.arguments)
        assert plan.tau.tolist() == [g.base_scores[a] for a in g.arguments]


def test_plans_of_one_topology_share_blocks_but_keep_their_own_tau():
    g = fig_graph("g")
    other = q.make_qbag(FIG_CASES["g_star"][0], g.attacks, g.supports)  # same edge sets, other base scores
    p1, p2 = compile_graph(g), compile_graph(other)
    assert p1.blocks is p2.blocks and p1.graph is g and p2.graph is other
    assert p1.tau.tolist() == [1.0, 8.0, 1.0, 1.0, 2.0]
    assert p2.tau.tolist() == [2.0, 8.0, 1.0, 1.0, 4.0]
    assert q.final_strengths(g, q.NAIVE) == FIG_CASES["g"][1]
    assert q.final_strengths(other, q.NAIVE) == FIG_CASES["g_star"][1]


def test_cached_plan_arrays_are_read_only():
    for g in (fig_graph(), q.make_qbag({"x": 0.1, "y": 0.2}, attacks=[("x", "y")], supports=[("y", "x")])):
        arrays = [part for block in compile_graph(g).blocks for part in block if isinstance(part, np.ndarray)]
        assert arrays
        for part in arrays:
            with pytest.raises(ValueError):
                part[...] = 0


def test_moving_an_edge_between_relations_changes_the_plan():
    scores = {"a": 0.6, "b": 0.5, "c": 0.2}
    attacking = q.make_qbag(scores, attacks=[("a", "b"), ("c", "b")])
    supporting = q.make_qbag(scores, attacks=[("c", "b")], supports=[("a", "b")])
    p1, p2 = compile_graph(attacking), compile_graph(supporting)
    assert p1.blocks is not p2.blocks
    assert p1.blocks[1][2].tolist() == [[-1.0, -1.0]] and p2.blocks[1][2].tolist() == [[1.0, -1.0]]
    assert q.final_strengths(attacking, q.DFQUAD)["b"] < 0.5 < q.final_strengths(supporting, q.DFQUAD)["b"]


def test_a_request_builds_its_topology_once(builds):
    g = q.parse_qbag(q.serialize_qbag(random_dag(3, 8, 9)[0]))
    q.final_strengths(g, q.DFQUAD)
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset(g.arguments[:2]), q.ordering_from_tiers([[g.arguments[0]]]))
    q.is_explanation(query, q.StrengthChange({g.arguments[0]: 0.5}), mode="weak")
    assert len(builds) == 1


@pytest.mark.parametrize("compiled_before", [False, True])
def test_a_search_its_verification_and_its_strengths_share_one_topology(builds, compiled_before):
    for seed in range(5):
        query = random_tiny_query(seed)
        g = query.graph
        if compiled_before:
            compile_graph(g)
        builds.clear()
        outcome = q.heuristic_search(query)
        if outcome.found:
            assert q.is_explanation(query, outcome.change, mode="weak")
        q.final_strengths(q.make_qbag(outcome.final_scores, g.attacks, g.supports), query.semantics)
        assert len(builds) == (0 if compiled_before else 1)


def test_derived_graphs_share_the_topology_by_identity():
    g = fig_graph()
    changed = q.apply_change(g, q.StrengthChange({"a": 3.0}))
    replaced = dataclasses.replace(g, base_scores={**g.base_scores, "e": 5.0})
    assert changed.topology is g.topology and replaced.topology is g.topology
    assert q.make_qbag(replaced.base_scores, g.attacks, g.supports).topology is g.topology
    # the topology is left out of equality and repr
    assert g == fig_graph() and repr(g) == repr(fig_graph())


def test_narrower_arguments_are_checked_and_wider_ones_derive_the_topology(builds):
    g = q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3}, attacks=[("a", "b")], supports=[("b", "c")])
    g.topology
    with pytest.raises(GraphFormatError, match=r"edge \('b', 'c'\) has an endpoint outside"):
        q.make_qbag({"a": 0.1, "b": 0.2}, g.attacks, g.supports)
    wider = q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}, g.attacks, g.supports)
    assert wider.topology is not g.topology and wider.topology.n == 4
    assert_same_blocks(wider.topology.blocks, plan_blocks_reference(wider))
    assert builds == [("a", "b", "c")]
    assert graph._shared(g.arguments, g.attacks, g.supports) is g.topology  # the index keeps the base


def _with_added(g: q.QBAG, added: str) -> q.QBAG:
    return q.make_qbag({**g.base_scores, added: 0.5}, g.attacks, g.supports)


def _bits(strengths: dict) -> str:
    return repr(list(strengths.items()))  # repr tells -0.0 from 0.0, and every last bit


def test_derived_topologies_equal_a_fresh_build(builds):
    """An argument added first, in the middle or last of the ids: the derived
    topology equals a build part for part, and so do the strengths."""
    bases = [random_dag(seed, 1, 12)[0] for seed in range(30)]
    bases += [q.generate(q.GenSpec(q.structure((4, 8, 4)), "random", seed)).graph for seed in range(6)]
    derived = 0
    for g in bases:
        if g.topology.depth is None:
            continue
        for added in ("0", g.arguments[len(g.arguments) // 2] + "_", "~"):
            builds.clear()
            wider = _with_added(g, added)
            topology = wider.topology
            assert builds == []
            fresh = graph.Topology(wider.arguments, frozenset(g.attacks), frozenset(g.supports))
            assert_same_blocks(topology.blocks, fresh.blocks)
            assert topology.ids == fresh.ids and dict(topology.index) == dict(fresh.index) and topology.n == fresh.n
            assert np.array_equal(topology.depth, fresh.depth) and topology.depth[wider.topology.index[added]] == 0
            unshared = q.QBAG(wider.arguments, wider.base_scores, fresh.attacks, fresh.supports)
            for spec in (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY):
                assert _bits(q.final_strengths(wider, spec)) == _bits(q.final_strengths(unshared, spec))
            derived += 1
    assert derived >= 100


def test_a_cyclic_base_and_a_reordered_tuple_build_in_full(builds):
    cyclic = q.make_qbag({"a": 0.1, "b": 0.2}, attacks=[("a", "b")], supports=[("b", "a")])
    g = q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3}, attacks=[("a", "b")], supports=[("b", "c")])
    reordered = q.QBAG(("b", "a", "c", "d"), {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}, g.attacks, g.supports)
    for base, wider in ((cyclic, _with_added(cyclic, "c")), (g, reordered)):
        base.topology
        builds.clear()
        assert_same_blocks(wider.topology.blocks, plan_blocks_reference(wider))
        assert builds == [wider.arguments]
        assert graph._shared(base.arguments, base.attacks, base.supports) is base.topology


def test_building_a_topology_rejects_edges_a_direct_construction_let_through():
    both = frozenset({("x", "y")})
    g = q.QBAG(("x", "y"), {"x": 0.1, "y": 0.2}, both, both)
    with pytest.raises(GraphFormatError, match="both attack and support"):
        compile_graph(g)
    with pytest.raises(GraphFormatError, match="both attack and support"):
        q.make_qbag(g.base_scores, g.attacks, g.supports)
    stray = q.QBAG(("x",), {"x": 0.1}, frozenset({("x", "z")}), frozenset())
    with pytest.raises(GraphFormatError, match="endpoint outside"):
        q.final_strengths(stray, q.DFQUAD)
    with pytest.raises(GraphFormatError, match="endpoint outside"):
        q.make_qbag(stray.base_scores, stray.attacks, stray.supports)


def test_a_topology_goes_with_the_last_graph_holding_it():
    g = q.make_qbag({"a": 0.1, "b": 0.2}, attacks=[("a", "b")])
    derived = q.apply_change(g, q.StrengthChange({"a": 0.5}))
    ref = weakref.ref(g.topology)
    assert derived.topology is ref()
    del g
    gc.collect()
    assert ref() is not None  # derived still holds it
    del derived
    gc.collect()
    assert ref() is None


def test_a_compiled_graph_pickles_and_copies_without_its_topology():
    g = fig_graph()
    g.topology
    for copy in (pickle.loads(pickle.dumps(g)), deepcopy(g)):
        assert copy == g and "topology" not in vars(copy)
        assert q.final_strengths(copy, q.NAIVE) == FIG_CASES["g"][1]


def test_linear_influence_rejects_k_with_an_overflowing_reciprocal():
    # with k = 1e-310, w / k overflows and a zero aggregate gave inf * 0 = NaN
    for make in (lambda: Influence("linear", k=1e-310),
                 lambda: q.semantics_from_config({"aggregation": "sum", "influence": {"kind": "linear", "k": 1e-310}})):
        with pytest.raises(ValueError, match="finite reciprocal"):
            make()


def test_p_max_takes_its_limit_where_the_power_overflows():
    # |s / k|^p overflows to inf for k = 1e-300; h(inf) is its limit 1.0, not inf / inf
    spec = q.SemanticsSpec("sum", Influence("p_max", k=1e-300, p=2))
    scores = {"a": 0.5, "b": 0.4}
    with np.errstate(over="ignore"):
        supported = q.final_strengths(q.make_qbag(scores, supports=[("a", "b")]), spec)
        attacked = q.final_strengths(q.make_qbag(scores, attacks=[("a", "b")]), spec)
    assert supported == {"a": 0.5, "b": 1.0}
    assert attacked == {"a": 0.5, "b": 0.0}


def test_linear_influence_matches_the_divided_formula_bit_for_bit():
    # DF-QuAD's k = 1 skips the divisions by k; dividing by 1.0 is exact
    rng = np.random.default_rng(1)
    w = np.concatenate([[0.0, -0.0, 1.0, 1 / 3, 0.7, np.nan], rng.random(200)])[:, None]
    s = np.concatenate([[0.0, -0.0, 1e-320, -1e-320, 0.5, -0.5], rng.normal(size=200)])[None, :]
    for k in (1.0, 2.0, 0.3):
        got = semantics._apply_influence(Influence("linear", k=k), w, s)
        want = w - (w / k) * np.maximum(0.0, -s) + ((1.0 - w) / k) * np.maximum(0.0, s)
        assert np.array_equal(got, want, equal_nan=True), k
        assert np.array_equal(np.signbit(got), np.signbit(want)), k


def test_product_aggregation_with_negative_factors_matches_the_scalar_reference():
    # linear(0.5) pushes a support chain above 1, so the next factor 1 - s is
    # negative and the level pass takes its exact masked products
    spec = q.semantics_from_config({"aggregation": "product", "influence": {"kind": "linear", "k": 0.5}})
    g = q.make_qbag({"a": 1.0, "b": 0.5, "c": 0.5}, supports=[("a", "b"), ("b", "c")])
    sigma = q.final_strengths(g, spec)
    reference = {"a": 1.0}
    for parent, x in (("a", "b"), ("b", "c")):
        agg = q.aggregate("product", [], [reference[parent]])
        reference[x] = q.influence_value(spec.influence, g.base_scores[x], agg)
    assert reference == pytest.approx({"a": 1.0, "b": 1.5, "c": 2.0}, abs=semantics.CHECK_TOL)
    assert sigma == pytest.approx(reference, abs=semantics.CHECK_TOL)

    # one column out of the domain turns the whole batch to masked products;
    # every column still agrees with its own width-1 evaluation
    plan = compile_graph(g)
    tau = np.array([[1.0, 0.2, 0.1], [0.5, 0.1, 0.3], [0.5, 0.1, 0.2]])
    wide, _ = evaluate_matrix(plan, spec, tau)
    assert wide[2, 0] == pytest.approx(2.0, abs=semantics.CHECK_TOL) and wide[:, 1:].max() < 1.0
    for j in range(3):
        narrow, _ = evaluate_matrix(plan, spec, tau[:, [j]])
        assert np.abs(wide[:, [j]] - narrow).max() <= 1e-12, j


def test_product_aggregation_floors_only_factors_below_the_floor():
    # log(max(f, floor)) is log(f) when no factor of the batch lies below the
    # floor; a parent at strength 1 gives the factor 0 and takes the floor
    g = q.make_qbag({"a": 0.5, "b": 0.5, "c": 0.5, "t": 0.5}, attacks=[("a", "t"), ("b", "t")], supports=[("c", "t")])
    plan = compile_graph(g)
    parents = np.array([[0.2, 1.0, 0.0, 0.999], [0.7, 0.3, 1.0, 0.0], [1.0, 0.1, 0.4, 0.25]])
    for cols in ([3], [1], [0, 3], [0, 1, 2, 3]):
        tau = np.full((4, len(cols)), 0.5)
        tau[:3] = parents[:, cols]
        sigma, _ = evaluate_matrix(plan, q.DFQUAD, tau)
        logs = np.log(np.maximum(1.0 - tau[:3], semantics._LOG_FLOOR))
        agg = np.exp(logs[0] + logs[1]) - np.exp(logs[2])
        assert np.array_equal(sigma[3], semantics._apply_influence(q.DFQUAD.influence, 0.5, agg)), cols


# Built-ins plus linear with k = 1 and k != 1 and p_max with p = 2 and p = 3,
# under both aggregations.
PASS_SPECS = (
    q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY, q.NAIVE,
    q.SemanticsSpec("sum", Influence("linear", k=1.0)),
    q.SemanticsSpec("sum", Influence("linear", k=0.7)),
    q.SemanticsSpec("product", Influence("linear", k=2.0)),
    q.SemanticsSpec("sum", Influence("p_max", k=1.0, p=3)),
    q.SemanticsSpec("product", Influence("p_max", k=0.5, p=2)),
    q.SemanticsSpec("product", Influence("euler_based")),
)
PASS_WIDTHS = (1, 7, 105, 4096)


def _pass_inputs(rng, plan, spec, width, out_of_domain=False):
    """Base scores with one entry in five set to 0.0, -0.0 or 1.0; over the
    reals for naive, and partly in [1, 1.5] for out_of_domain, where a
    product aggregation's factors turn negative."""
    tau = rng.random((plan.n, width))
    if not spec.domain.bounded:
        tau = 4.0 * tau - 2.0
    if out_of_domain:
        tau[rng.random(tau.shape) < 0.1] += 0.5
    special = rng.random(tau.shape) < 0.2
    tau[special] = rng.choice([0.0, -0.0, 1.0], int(special.sum()))
    return tau


def _assert_same_bits(got, want, context):
    assert np.array_equal(got, want, equal_nan=True), context
    assert np.array_equal(np.signbit(got), np.signbit(want)), context


def test_level_pass_matches_the_allocating_reference_bit_for_bit():
    """The forward pass with buffers, narrowed buffers and without buffers
    equals the allocating reference in value and sign bit, on graphs whose
    blocks are slices or index arrays, under every influence form."""
    rng = np.random.default_rng(0)
    graphs = [g for g in plan_reference_cases() if compile_graph(g).acyclic]
    passes = masked = 0
    for g in graphs[::4] + graphs[-6:]:
        plan = compile_graph(g)
        for spec in PASS_SPECS:
            for width in PASS_WIDTHS:
                out_of_domain = spec.aggregation == "product" and width % 2 == 1
                tau = _pass_inputs(rng, plan, spec, width, out_of_domain)
                want = np.empty_like(tau)
                level_pass_reference(plan, spec, tau, want, want)
                wide = PassBuffers(plan, width + 3)
                for buffers in (PassBuffers(plan, width), wide.narrowed(width), None):
                    sigma = np.empty_like(tau) if buffers is None else buffers.sigma
                    got = level_pass(plan, spec, tau, sigma, sigma, buffers)
                    _assert_same_bits(got, want, (g.arguments, spec, width))
                    passes += 1
                masked += out_of_domain and bool((tau > 1.0).any())
    assert passes >= 1200 and masked > 0


def test_fixed_point_sweeps_match_the_allocating_reference(monkeypatch):
    """Cyclic plans: strengths, sweep counts and defined masks equal the
    reference schedule's, for batches that settle and batches that do not,
    and every influence is written into the caller's buffers."""
    outs = []
    real_influence = semantics._apply_influence

    def recording(inf, w, s, out=None, work=(None, None, None, None)):
        outs.append(out)
        return real_influence(inf, w, s, out, work)

    monkeypatch.setattr(semantics, "_apply_influence", recording)
    rng = np.random.default_rng(1)
    cyclic = [g for g in plan_reference_cases() if not compile_graph(g).acyclic]
    unsettled = 0
    for g in cyclic:
        plan = compile_graph(g)
        level_blocks = sum(bool(block[2].size) for k, block in enumerate(plan.blocks) if k != plan.core)
        for spec in PASS_SPECS[:3] + PASS_SPECS[4:]:
            for max_sweeps in (20, 400):
                spec_n = dataclasses.replace(spec, max_sweeps=max_sweeps)
                for width in (1, 7, 105):
                    tau = _pass_inputs(rng, plan, spec_n, width)
                    buffers = PassBuffers(plan, width)
                    outs.clear()
                    with np.errstate(over="ignore", invalid="ignore"):  # linear(0.7) can diverge on a cycle
                        want, count, unstable = fixed_point_reference(plan, spec_n, tau)
                        got, defined = evaluate_matrix(plan, spec_n, tau, buffers=buffers)
                    _assert_same_bits(got, want, (g.arguments, spec, width))
                    assert len(outs) == level_blocks + count
                    assert all(np.shares_memory(out, buffers.lines) for out in outs)
                    assert np.array_equal(defined, ~semantics._tainted(plan, unstable))
                    unsettled += bool(unstable.any())
    assert unsettled > 0


def _cyclic_cases():
    graphs = [g for g in plan_reference_cases() if not compile_graph(g).acyclic]
    for seed in (1, 2):
        graphs.append(_with_back_edges(q.generate(q.GenSpec(q.structure((8, 32, 16, 8)), "random", seed)), seed))
    return graphs


def test_fixed_point_agrees_with_the_dense_iteration():
    """Sweeping only the core from exact parents lands within 10 * epsilon of
    synchronous iteration over every argument, wherever that settles."""
    rng = np.random.default_rng(2)
    for g in _cyclic_cases():
        plan = compile_graph(g)
        for spec in (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY):
            tau = rng.random((plan.n, 7))
            want, settled = jacobi_reference(plan, spec, tau)
            got, defined = evaluate_matrix(plan, spec, tau)
            assert settled and defined.all()
            assert np.abs(got - want).max() <= 10 * spec.epsilon, (g.arguments, spec.name)


def test_rows_before_the_core_are_exact():
    """The arguments no cycle reaches get, bit for bit, the strengths of the
    acyclic graph they form on their own."""
    checked = 0
    for g in _cyclic_cases():
        plan = compile_graph(g)
        upstream = {plan.ids[i] for rows, *_ in plan.blocks[: plan.core] for i in np.arange(plan.n)[rows]}
        assert upstream.isdisjoint(reachable_from(g, {a for a in g.arguments if a in reachable_from(g, {a})}))
        alone = q.restrict(g, upstream)
        for spec in (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY):
            full, part = q.final_strengths(g, spec), q.final_strengths(alone, spec)
            assert repr([full[a] for a in alone.arguments]) == repr(list(part.values()))
        checked += bool(upstream)
    assert checked >= 6


def test_fixed_point_settings_are_checked_at_construction():
    """max_sweeps=0 used to report the base scores as settled strengths, and
    epsilon=nan ran every sweep and then called every strength defined."""
    for bad in ({"max_sweeps": 0}, {"max_sweeps": -1}, {"max_sweeps": 2.5}, {"max_sweeps": True},
                {"epsilon": float("nan")}, {"epsilon": 0.0}, {"epsilon": -1e-9}, {"epsilon": float("inf")}):
        with pytest.raises(ValueError, match="max_sweeps|epsilon"):
            dataclasses.replace(q.DFQUAD, **bad)
    ok = dataclasses.replace(q.DFQUAD, max_sweeps=np.int64(1), epsilon=1e-3)
    g = q.make_qbag({"x": 0.3, "y": 0.4}, supports=[("x", "y"), ("y", "x")])
    assert q.final_strengths(g, ok) == {"x": None, "y": None}  # one sweep moves both

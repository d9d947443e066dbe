import dataclasses

import numpy as np
import pytest

import qbagx as q
import qbagx.search
from qbagx.explanation import OrderingRule
from qbagx.search import AdamState, adam_step
from qbagx.semantics import compile_graph

from helpers import batched_costs_reference, fig_graph, fig_query, random_dag, random_tiny_query, search_reference


def test_relu_cost_zero_when_satisfied():
    ordering = q.ordering_from_tiers([["b"], ["a"]])
    assert q.relu_cost({"a": 0.9, "b": 0.1}, ordering) == 0.0


def test_relu_cost_hand_value():
    # desired a above b, but sigma(a)=0.2 < sigma(b)=0.5
    ordering = q.ordering_from_tiers([["b"], ["a"]])
    assert q.relu_cost({"a": 0.2, "b": 0.5}, ordering) == pytest.approx(0.3, abs=1e-12)


def test_relu_cost_running_example():
    sigma = {a: float(v) for a, v in q.final_strengths(fig_graph(), q.NAIVE).items()}
    ordering = q.ordering_from_tiers([["b"], ["c"]])  # want c above b
    assert q.relu_cost(sigma, ordering) == 2.0  # 6 - 4


def test_relu_cost_same_tier_demands_equality():
    ordering = q.ordering_from_tiers([["x", "y"]])
    assert q.relu_cost({"x": 0.25, "y": 0.5}, ordering) == pytest.approx(0.25, abs=1e-15)
    assert q.relu_cost({"x": 0.5, "y": 0.5}, ordering) == 0.0


def test_gradient_zero_when_cost_flat():
    # ordering already satisfied with margin: small perturbations keep cost 0
    g = q.make_qbag({"a": 0.9, "b": 0.1})
    ordering = q.ordering_from_tiers([["b"], ["a"]])
    grad = q.finite_diff_gradient(g, q.DFQUAD, ordering, {"a", "b"})
    assert grad == {"a": 0.0, "b": 0.0}


def test_gradient_sign_single_support_edge():
    # a supports t; u isolated; want t above u but t currently loses
    g = q.make_qbag({"a": 0.5, "t": 0.1, "u": 0.6}, supports=[("a", "t")])
    ordering = q.ordering_from_tiers([["u"], ["t"]])
    grad = q.finite_diff_gradient(g, q.DFQUAD, ordering, {"a"})
    assert grad["a"] < 0  # raising a raises t and lowers the cost
    # independent two-point check of the quotient
    def cost_with_a(graph):
        sigma = q.final_strengths(graph, q.DFQUAD)
        return q.relu_cost({k: sigma[k] for k in ("t", "u")}, ordering)
    eps = 1e-4
    bumped = q.apply_change(g, q.StrengthChange({"a": 0.5 + eps}))
    expected = (cost_with_a(bumped) - cost_with_a(g)) / eps
    assert grad["a"] == pytest.approx(expected, rel=1e-9)


def test_gradient_zero_for_argument_without_path_to_topics():
    g = q.make_qbag({"far": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "far")])
    ordering = q.ordering_from_tiers([["u"], ["t"]])
    grad = q.finite_diff_gradient(g, q.DFQUAD, ordering, {"far"})
    assert grad["far"] == 0.0


def test_gradient_consistency_across_step_sizes():
    checked = 0
    for seed in range(30):
        query = random_tiny_query(seed)
        g1 = q.finite_diff_gradient(query.graph, q.DFQUAD, query.ordering, query.mutable, eps=1e-4)
        g2 = q.finite_diff_gradient(query.graph, q.DFQUAD, query.ordering, query.mutable, eps=1e-5)
        for a, v in g1.items():
            if abs(v) > 1e-6:
                assert g2[a] == pytest.approx(v, rel=0.1)
                checked += 1
    assert checked > 10


def test_adam_zero_gradient_keeps_parameters():
    state = AdamState(np.zeros(3), np.zeros(3))
    state, step = adam_step(state, np.zeros(3), alpha=0.1)
    assert np.all(step == 0.0)


def test_adam_first_step_direction_and_magnitude():
    state = AdamState(np.zeros(2), np.zeros(2))
    g0 = np.array([0.02, -3.0])
    state, step = adam_step(state, g0, alpha=0.1)
    # hand-evaluated recurrences at t=1: m_hat = g0, v_hat = g0^2,
    # step = -alpha * g0 / (|g0| + 1e-8) ~ -alpha * sign(g0)
    assert step == pytest.approx(-0.1 * np.sign(g0), rel=1e-5)


def test_adam_constant_gradient_monotone_motion():
    state = AdamState(np.zeros(1), np.zeros(1))
    theta = 0.8
    previous = theta
    for _ in range(20):
        state, step = adam_step(state, np.array([1.0]), alpha=0.05)
        theta = max(0.0, min(1.0, theta + float(step[0])))
        assert theta <= previous
        previous = theta
    assert theta < 0.3


def test_search_returns_empty_change_when_already_satisfied():
    query = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset({"a", "e"}), q.ordering_from_tiers([["b"], ["c"]])
    )
    outcome = q.heuristic_search(query, q.SearchConfig())
    assert outcome.found
    assert outcome.change == q.EMPTY_CHANGE
    assert outcome.iterations_used == 1
    assert outcome.final_cost == 0.0


def test_search_solves_running_example():
    outcome = q.heuristic_search(fig_query(), q.SearchConfig())
    assert outcome.found
    assert q.is_explanation(fig_query(), outcome.change, mode="weak")
    assert outcome.final_cost == 0.0


def test_search_not_found_when_mutables_cannot_reach_topics():
    g = q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")])
    ordering = q.ordering_from_tiers([["u"], ["t"]])  # unsatisfied: 0.2 < 0.6
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"m"}), ordering)
    outcome = q.heuristic_search(query, q.SearchConfig(max_iterations=25))
    assert not outcome.found
    assert outcome.iterations_used == 25
    assert outcome.change is None


def test_search_emitted_scores_stay_in_domain():
    for seed in range(25):
        query = random_tiny_query(seed)
        outcome = q.heuristic_search(query, q.SearchConfig(max_iterations=40))
        if outcome.found:
            assert all(0.0 <= v <= 1.0 for v in outcome.change.entries.values())
            assert q.is_explanation(query, outcome.change, mode="weak")


def test_search_deterministic():
    query = fig_query()
    a = q.heuristic_search(query, q.SearchConfig(record_trajectory=True))
    b = q.heuristic_search(query, q.SearchConfig(record_trajectory=True))
    assert a == b
    assert a.trajectory == b.trajectory


def test_search_trajectory_matches_iterations():
    query = fig_query()
    outcome = q.heuristic_search(query, q.SearchConfig(record_trajectory=True))
    assert len(outcome.trajectory) == outcome.iterations_used
    assert outcome.trajectory[-1] <= outcome.trajectory[0]


def test_search_restarts_are_seeded_and_deterministic():
    g = q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")])
    ordering = q.ordering_from_tiers([["u"], ["t"]])
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"m"}), ordering)
    cfg = q.SearchConfig(max_iterations=10, restarts=3, rng_seed=5)
    assert q.heuristic_search(query, cfg) == q.heuristic_search(query, cfg)
    assert q.heuristic_search(query, cfg).iterations_used == 40  # 4 starts x 10


def test_search_config_validation():
    with pytest.raises(ValueError):
        q.SearchConfig(max_iterations=0)
    with pytest.raises(ValueError):
        q.SearchConfig(perturbation=0.0)
    with pytest.raises(ValueError):
        q.SearchConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        q.SearchConfig(alpha_decay=0.0)
    with pytest.raises(ValueError):
        q.SearchConfig(satisfaction="sloppy")
    for field in ("perturbation", "alpha", "beta1", "adam_eps", "cost_tolerance", "restart_jitter"):
        for bad in (float("inf"), float("nan"), "0.1", None, True):
            with pytest.raises(ValueError):
                q.SearchConfig(**{field: bad})
    # integer fields take no float, string or bool; a float seed used to fail only once a restart ran
    for field in ("max_iterations", "restarts", "rng_seed"):
        for bad in (2.5, "2", True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                q.SearchConfig(**{field: bad})
    with pytest.raises(ValueError, match="restarts must be >= 0"):
        q.SearchConfig(restarts=-1)
    # Adam divides by 1 - beta**t and by sqrt(v_hat) + adam_eps: these made its steps NaN
    for field, bad in (("beta1", 1.0), ("beta2", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("adam_eps", 0.0),
                       ("adam_eps", -1e-8)):
        with pytest.raises(ValueError, match=field):
            q.SearchConfig(**{field: bad})
    assert q.SearchConfig(beta1=0.0, beta2=0.0).beta1 == 0.0
    for bad in (1, "yes", None):
        with pytest.raises(ValueError, match="record_trajectory"):
            q.SearchConfig(record_trajectory=bad)
    assert q.SearchConfig(max_iterations=np.int64(5), rng_seed=np.int64(3)).max_iterations == 5


def test_search_empty_mutable_set():
    satisfied = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset(), q.ordering_from_tiers([["b"], ["c"]])
    )
    assert q.heuristic_search(satisfied).found
    assert not q.heuristic_search(fig_query(mutable=())).found


def test_search_solves_one_constrained_benchmark_instance():
    inst = q.generate_constrained(q.GenSpec(q.structure([8, 32, 16, 3]), "constrained", 12345))
    query = q.ExplanationQuery(
        inst.graph, q.DFQUAD, q.mutable_preset(inst, "constrained"), inst.ordering
    )
    outcome = q.heuristic_search(query, q.SearchConfig())
    assert outcome.found
    assert q.is_explanation(query, outcome.change, mode="weak")


def test_search_accepts_convergent_cyclic_graph():
    # mutual support converges under dfquad, so the search may run on it
    g = q.make_qbag(
        {"m": 0.2, "x": 0.3, "y": 0.4, "t": 0.1, "u": 0.8},
        supports=[("x", "y"), ("y", "x"), ("m", "t"), ("x", "t")],
    )
    ordering = q.ordering_from_tiers([["u"], ["t"]])
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"m", "x"}), ordering)
    outcome = q.heuristic_search(query, q.SearchConfig(max_iterations=60))
    if outcome.found:
        assert q.is_explanation(query, outcome.change, mode="weak")


def _at_upper_bound(query):
    """The query with every mutable base score at the domain's upper bound
    (1.0), where every forward step leaves the domain."""
    g = query.graph
    scores = {a: (1.0 if a in query.mutable else v) for a, v in g.base_scores.items()}
    return dataclasses.replace(query, graph=q.make_qbag(scores, g.attacks, g.supports))


def _cyclic_query(seed):
    """random_tiny_query with its first edge (a, b) closed into a cycle by a
    support (b, a)."""
    query = random_tiny_query(seed)
    g = query.graph
    a, b = min(g.edges())
    cyclic = q.make_qbag(g.base_scores, g.attacks, g.supports | {(b, a)})
    assert q.topological_order(cyclic) is None
    return dataclasses.replace(query, graph=cyclic)


def test_search_matches_reference_loop():
    """The search's reused workspace and bare level pass give the reference
    loop's trajectories bit for bit (fresh batch, evaluate_matrix, np.clip)."""
    cases = []
    for seed in range(8):
        for token in ("dfquad", "eb", "qe", "naive"):
            query = random_tiny_query(seed, q.builtin_semantics(token))
            cases.append((query, q.SearchConfig(max_iterations=60)))
            cases.append((_at_upper_bound(query), q.SearchConfig(max_iterations=60)))
        query = random_tiny_query(seed)
        cases.append((query, q.SearchConfig(max_iterations=15, restarts=2, rng_seed=seed)))
        cases.append((query, q.SearchConfig(max_iterations=40, satisfaction="exact", cost_tolerance=1e-3)))
        cases.append((_cyclic_query(seed), q.SearchConfig(max_iterations=30)))
    iterations = 0
    for query, cfg in cases:
        cfg = dataclasses.replace(cfg, record_trajectory=True)
        got, want = q.heuristic_search(query, cfg), search_reference(query, cfg)
        for field in ("status", "change", "iterations_used", "final_cost", "final_scores", "trajectory"):
            assert getattr(got, field) == getattr(want, field), field
        assert got.to_json() == want.to_json()  # also tells -0.0 from 0.0
        iterations += got.iterations_used
    assert iterations > 1500


def test_finite_diff_gradient_matches_reference():
    backward = 0
    for seed in range(20):
        for token in ("dfquad", "eb", "qe", "naive"):
            query = random_tiny_query(seed, q.builtin_semantics(token))
            for query in (query, _at_upper_bound(query)):
                g = query.graph
                plan = compile_graph(g)
                m_ids = sorted(query.mutable)
                m_idx = np.array([plan.index[a] for a in m_ids], dtype=int)
                rule = OrderingRule(plan.index, query.ordering)
                _, want = batched_costs_reference(plan, query.semantics, rule, plan.tau.copy(), m_idx, 1e-4)
                got = q.finite_diff_gradient(g, query.semantics, query.ordering, query.mutable)
                assert list(got.values()) == want.tolist()
                assert list(got) == m_ids
                if query.semantics.domain.bounded:
                    backward += sum(g.base_scores[a] == 1.0 and v != 0.0 for a, v in got.items())
    assert backward > 10  # backward differences are exercised, not only forward ones


def test_search_reuses_one_workspace(monkeypatch):
    """An acyclic search evaluates its finite-difference batches through the
    level pass into buffers it allocates once; evaluate_matrix runs only for
    the width-1 acceptance checks."""
    widths, passes = [], []
    evaluate, level_pass = qbagx.explanation.evaluate_matrix, qbagx.search.level_pass

    def recording_evaluate(plan, spec, tau, *args, **kwargs):
        widths.append(tau.shape[1])
        return evaluate(plan, spec, tau, *args, **kwargs)

    def recording_pass(plan, spec, tau, out, buffers):
        passes.append((tau, out, buffers))
        return level_pass(plan, spec, tau, out, buffers)

    monkeypatch.setattr(qbagx.explanation, "evaluate_matrix", recording_evaluate)
    monkeypatch.setattr(qbagx.search, "level_pass", recording_pass)
    unreachable = q.ExplanationQuery(
        q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")]),
        q.DFQUAD, frozenset({"m"}), q.ordering_from_tiers([["u"], ["t"]]),
    )
    for query, found in ((fig_query(), True), (unreachable, False)):
        widths.clear()
        passes.clear()
        outcome = q.heuristic_search(query, q.SearchConfig(max_iterations=20, restarts=2))
        assert outcome.found == found and outcome.iterations_used > 1
        assert len(passes) == outcome.iterations_used
        batch, sigma, buffers = passes[0]
        assert batch.shape == (len(query.graph.arguments), len(query.mutable) + 1)
        assert sigma is buffers.sigma and buffers.width == batch.shape[1]
        assert all(t is batch and out is sigma and b is buffers for t, out, b in passes)
        assert widths and set(widths) == {1}

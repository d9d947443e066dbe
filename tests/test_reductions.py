import numpy as np
import pytest

import qbagx as q
from qbagx.errors import GraphFormatError

from helpers import FIG_EDGES, fig_graph


def example_inverse_problem():
    return q.make_inverse_problem(
        ["a", "b", "c", "d", "e"],
        FIG_EDGES["attacks"],
        FIG_EDGES["supports"],
        tiers=[["d"], ["e"], ["a"], ["b"], ["c"]],
    )


def test_inverse_problem_validation():
    with pytest.raises(GraphFormatError):
        q.make_inverse_problem(["a", "b"], [("a", "b")], [("a", "b")], [["a"], ["b"]])
    with pytest.raises(GraphFormatError):
        q.make_inverse_problem(["a", "b"], [], [], [["a"]])  # ordering must cover all
    # an unknown endpoint used to fail only later, inside solve_inverse
    with pytest.raises(GraphFormatError, match=r"edge \('a', 'zzz'\) has an endpoint outside"):
        q.make_inverse_problem(["a"], [("a", "zzz")], [], [["a"]])


def test_assign_uniform():
    problem = example_inverse_problem()
    g0 = q.assign_uniform(problem, 0.0)
    assert set(g0.base_scores.values()) == {0.0}
    assert g0.attacks == problem.attacks and g0.supports == problem.supports
    assert q.assign_uniform(problem, 1.0).base_scores["a"] == 1.0
    empty = q.make_inverse_problem([], [], [], [])
    assert q.assign_uniform(empty, 0.5).arguments == ()


def test_solve_inverse_running_example():
    problem = example_inverse_problem()
    solution = q.solve_inverse(problem, q.NAIVE)
    assert solution is not None
    g = q.make_qbag(solution, problem.attacks, problem.supports)
    assert q.satisfies(g, q.NAIVE, problem.ordering, mode="exact")
    # the published assignment is one known solution of the same problem
    known = q.make_qbag({"a": 2, "b": 8, "c": 1, "d": 1, "e": 3}, problem.attacks, problem.supports)
    assert q.satisfies(known, q.NAIVE, problem.ordering, mode="exact")


def count_plans(monkeypatch) -> list:
    compiles = []
    init = q.semantics.GraphPlan.__init__

    def counting_init(plan, g):
        compiles.append(g)
        init(plan, g)

    monkeypatch.setattr(q.semantics.GraphPlan, "__init__", counting_init)
    return compiles


def count_fallbacks(monkeypatch) -> list:
    calls = []
    adam = q.reductions._adam_search

    def counting(*args):
        calls.append(args)
        return adam(*args)

    monkeypatch.setattr(q.reductions, "_adam_search", counting)
    return calls


def test_solve_inverse_compiles_the_graph_once(monkeypatch):
    compiles = count_plans(monkeypatch)
    assert q.solve_inverse(example_inverse_problem(), q.NAIVE) is not None
    assert len(compiles) == 1


@pytest.fixture
def stalled_jacobian_phase(monkeypatch):
    """A least-squares solver that finds no step stalls the Jacobian phase
    after its first batch, so every solve goes to the fallback search."""
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (np.zeros(a.shape[1]),))


def test_solve_inverse_compiles_the_graph_once_on_the_fallback_path(monkeypatch, stalled_jacobian_phase):
    compiles = count_plans(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    assert q.solve_inverse(example_inverse_problem(), q.NAIVE) is not None
    assert len(fallbacks) == 1
    assert len(compiles) == 1


def test_solve_counterfactual_compiles_the_graph_once_on_the_fallback_path(monkeypatch, stalled_jacobian_phase):
    problem = q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE)  # evaluates its graph
    compiles = count_plans(monkeypatch)
    fallbacks = count_fallbacks(monkeypatch)
    scores, outcome = q.solve_counterfactual(problem)
    assert scores is not None
    assert len(fallbacks) == 1
    assert outcome.iterations_used > 1  # the Jacobian batch plus Adam's
    assert len(compiles) == 1


def test_jacobian_steps_solve_the_running_examples_without_the_fallback(monkeypatch):
    fallbacks = count_fallbacks(monkeypatch)
    assert q.solve_inverse(example_inverse_problem(), q.NAIVE) is not None
    scores, outcome = q.solve_counterfactual(q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE))
    assert scores is not None
    assert outcome.iterations_used <= 5
    assert fallbacks == []


def test_solve_inverse_single_argument():
    problem = q.make_inverse_problem(["only"], [], [], [["only"]])
    solution = q.solve_inverse(problem, q.DFQUAD)
    assert solution == {"only": 0.0}


def test_solve_inverse_returns_none_on_exhausted_budget():
    # a strict target cannot be certified from the all-tied uniform start
    # within a single iteration and no restarts
    problem = example_inverse_problem()
    cfg = q.SearchConfig(max_iterations=1, restarts=0, satisfaction="exact")
    assert q.solve_inverse(problem, q.NAIVE, cfg) is None


def test_solve_counterfactual_returns_none_on_exhausted_budget():
    # the twin of the inverse case: one batch in the Jacobian phase and one
    # Adam iteration cannot reach the target, and iterations_used counts both
    problem = q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE)
    scores, outcome = q.solve_counterfactual(problem, q.SearchConfig(max_iterations=1, restarts=0))
    assert scores is None
    assert not outcome.found
    assert outcome.iterations_used == 2


def test_solve_counterfactual_trajectory_covers_both_phases(stalled_jacobian_phase):
    cfg = q.SearchConfig(max_iterations=3, restarts=0, record_trajectory=True)
    problem = q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE)
    scores, outcome = q.solve_counterfactual(problem, cfg)
    assert scores is None
    assert outcome.iterations_used == 1 + 3  # the stalled Jacobian batch, then Adam's three
    assert len(outcome.trajectory) == outcome.iterations_used
    assert outcome.trajectory[0] == pytest.approx(2.0)  # |sigma(c) - 6| at the start


def test_solve_inverse_strips_nothing_from_default_start():
    # with s = 0 every touched score differs from the start, so the returned
    # map restricted to changed entries is itself an explanation
    problem = example_inverse_problem()
    solution = q.solve_inverse(problem, q.NAIVE)
    start = q.assign_uniform(problem, 0.0)
    entries = {a: v for a, v in solution.items() if v != start.base_scores[a]}
    query = q.ExplanationQuery(start, q.NAIVE, frozenset(problem.arguments), problem.ordering)
    assert q.is_explanation(query, q.StrengthChange(entries), mode="exact")


def test_counterfactual_problem_validation():
    g = fig_graph()
    with pytest.raises(GraphFormatError):
        q.CounterfactualProblem(g, "c", 4.0, q.NAIVE)  # equals current strength
    with pytest.raises(GraphFormatError):
        q.CounterfactualProblem(q.make_qbag({"x": 0.5}), "x", 1.5, q.DFQUAD)  # outside domain


def test_reduce_counterfactual_construction():
    problem = q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE)
    query = q.reduce_counterfactual(problem)
    assert query.graph.base_scores["y"] == 6.0
    assert query.ordering.tiers == (frozenset({"c", "y"}),)
    assert query.mutable == frozenset("abcde")
    assert q.final_strengths(query.graph, q.NAIVE)["y"] == 6.0  # parentless reference
    with pytest.raises(GraphFormatError):
        q.reduce_counterfactual(problem, dummy_id="a")


def test_reduce_counterfactual_fresh_id_avoids_collision():
    g = q.make_qbag({"y": 0.2, "t": 0.8}, attacks=[("y", "t")])
    problem = q.CounterfactualProblem(g, "t", 0.3, q.DFQUAD)
    query = q.reduce_counterfactual(problem)
    assert "y_" in query.graph.base_scores


def test_solve_counterfactual_running_example():
    problem = q.CounterfactualProblem(fig_graph(), "c", 6.0, q.NAIVE)
    scores, outcome = q.solve_counterfactual(problem)
    assert scores is not None
    assert outcome.final_cost <= 1e-6
    g = q.make_qbag(scores, fig_graph().attacks, fig_graph().supports)
    assert q.final_strengths(g, q.NAIVE)["c"] == pytest.approx(6.0, abs=1e-6)
    # the known published solution also solves it
    known = q.make_qbag({"a": 2, "b": 8, "c": 1, "d": 1, "e": 3}, fig_graph().attacks, fig_graph().supports)
    assert q.final_strengths(known, q.NAIVE)["c"] == 6.0


def test_counterfactual_reference_stays_pinned_after_solving():
    rng = np.random.default_rng(4)
    for seed in range(5):
        g = q.make_qbag(
            {"p": float(rng.random()), "t": float(rng.random())},
            supports=[("p", "t")],
        )
        current = q.final_strengths(g, q.DFQUAD)["t"]
        target = min(1.0, current + 0.1)
        problem = q.CounterfactualProblem(g, "t", target, q.DFQUAD)
        scores, outcome = q.solve_counterfactual(problem)
        if scores is None:
            continue
        query = q.reduce_counterfactual(problem)
        updated = q.make_qbag(
            {**scores, "y": target}, query.graph.attacks, query.graph.supports
        )
        assert q.final_strengths(updated, q.DFQUAD)["y"] == target  # exact, by stability
        assert abs(q.final_strengths(updated, q.DFQUAD)["t"] - target) <= 1e-6


def test_solve_counterfactual_builds_no_topology_while_its_graph_is_alive(builds):
    """The reduced graph adds one parentless argument to the problem's graph,
    so it derives its topology from the graph's, whose edges are not checked
    again."""
    for seed in range(4):
        inst = q.generate(q.GenSpec(q.structure((4, 8, 4)), "random", seed))
        topic = inst.layers[-1][0]
        current = q.final_strengths(inst.graph, q.DFQUAD)[topic]
        problem = q.CounterfactualProblem(inst.graph, topic, 0.5 if abs(current - 0.5) > 0.01 else 0.6, q.DFQUAD)
        builds.clear()
        scores, outcome = q.solve_counterfactual(problem)
        assert builds == [] and outcome.iterations_used >= 1

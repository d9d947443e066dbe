"""Existence / non-existence properties of explanations, checked against the
brute-force oracle on small instances."""

import dataclasses

import numpy as np
import pytest

import qbagx as q
import qbagx.oracle
from qbagx.errors import UndefinedStrengthError
from qbagx.explanation import OrderingRule
from qbagx.semantics import compile_graph, evaluate_matrix

from helpers import random_tiny_query


def unreachable_query(seed):
    """Mutable set that cannot reach the (unsatisfied) topic pair."""
    rng = np.random.default_rng(seed)
    scores = {
        "m1": float(rng.random()),
        "m2": float(rng.random()),
        "mid": float(rng.random()),
        "t": float(rng.uniform(0.0, 0.4)),
        "u": float(rng.uniform(0.6, 1.0)),
    }
    # the mutable side hangs off the topics downstream: t -> mid -> m1, m2
    g = q.make_qbag(
        scores,
        attacks=[("mid", "m1")],
        supports=[("t", "mid"), ("mid", "m2")],
    )
    ordering = q.ordering_from_tiers([["u"], ["t"]])  # want t above u; currently below
    return q.ExplanationQuery(g, q.DFQUAD, frozenset({"m1", "m2"}), ordering)


def test_unreachable_mutables_have_no_explanation():
    for seed in range(20):
        query = unreachable_query(seed)
        assert not q.can_reach(query.graph, query.mutable, query.ordering.topic_set)
        assert not q.satisfies(query.graph, query.semantics, query.ordering, mode="weak")
        result = q.brute_force_search(query, q.GridSpec(step=0.2), mode="weak")
        assert result.best is None and result.exhaustive
        outcome = q.heuristic_search(query, q.SearchConfig(max_iterations=30, restarts=2))
        assert not outcome.found


def test_unreachable_mutables_leave_topic_strengths_unchanged():
    for seed in range(10):
        query = unreachable_query(seed)
        g = query.graph
        plan = compile_graph(g)
        m_ids = sorted(query.mutable)
        values = np.arange(0.0, 1.0001, 0.25)
        mesh = np.meshgrid(*[values] * len(m_ids), indexing="ij")
        total = mesh[0].size
        batch = np.repeat(plan.tau[:, None], total, axis=1)
        for a, vals in zip(m_ids, mesh):
            batch[plan.index[a]] = vals.reshape(-1)
        sigma, _ = evaluate_matrix(plan, query.semantics, batch)
        base = plan.tau[:, None]
        sigma0, _ = evaluate_matrix(plan, query.semantics, base)
        for topic in query.ordering.topic_set:
            row = plan.index[topic]
            assert np.max(np.abs(sigma[row] - sigma0[row, 0])) <= 1e-12


def test_immutable_twins_with_shared_parents_cannot_swap():
    # x and y share every parent; only their (immutable) base scores differ,
    # so no change to the rest of the graph can push x strictly below y
    g = q.make_qbag(
        {"p": 0.3, "r": 0.6, "x": 0.9, "y": 0.1},
        attacks=[("p", "x"), ("p", "y")],
        supports=[("r", "x"), ("r", "y")],
    )
    ordering = q.ordering_from_tiers([["x"], ["y"]])  # x strictly weaker: impossible
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"p", "r"}), ordering)
    result = q.brute_force_search(query, q.GridSpec(step=0.1), mode="exact")
    assert result.best is None
    # weak mode can at best force a tie by saturating the shared supporter
    weak = q.brute_force_search(query, q.GridSpec(step=0.1), mode="weak")
    if weak.best is not None:
        updated = q.apply_change(g, weak.best)
        sigma = q.final_strengths(updated, q.DFQUAD)
        assert sigma["x"] == sigma["y"]
        assert not q.is_explanation(query, weak.best, mode="exact")


def test_empty_change_uniquely_optimal_when_satisfied():
    found = 0
    for seed in range(200):
        query = random_tiny_query(seed, max_mutable=2)
        if not q.satisfies(query.graph, query.semantics, query.ordering, mode="exact"):
            continue
        found += 1
        result = q.brute_force_search(query, q.GridSpec(step=0.25), mode="exact")
        assert result.best == q.EMPTY_CHANGE
        assert result.best_norm == 0.0
    assert found >= 5


def test_search_agrees_with_oracle_on_tiny_instances():
    oracle_found = agreed = 0
    cfg = q.SearchConfig(restarts=10, restart_jitter=1.0)
    for seed in range(60):
        query = random_tiny_query(seed)
        result = q.brute_force_search(query, q.GridSpec(step=0.1), mode="weak")
        if result.best is None:
            continue
        oracle_found += 1
        outcome = q.heuristic_search(query, cfg)
        if outcome.found:
            agreed += 1
            assert q.is_explanation(query, outcome.change, mode="weak")
    assert oracle_found >= 20
    assert agreed / oracle_found >= 0.9


@pytest.mark.parametrize("token", ["eb", "qe"])
def test_search_agrees_with_oracle_under_other_semantics(token):
    spec = q.builtin_semantics(token)
    cfg = q.SearchConfig(restarts=10, restart_jitter=1.0)
    oracle_found = agreed = 0
    for seed in range(30):
        query = random_tiny_query(seed, semantics=spec)
        result = q.brute_force_search(query, q.GridSpec(step=0.1), mode="weak")
        if result.best is None:
            continue
        oracle_found += 1
        outcome = q.heuristic_search(query, cfg)
        if outcome.found:
            agreed += 1
            assert q.is_explanation(query, outcome.change, mode="weak")
    assert oracle_found >= 10
    assert agreed / oracle_found >= 0.9


# DF-QuAD: an attack cycle x <-> y of base scores 1.0 flips between (1, 1)
# and (0, 0) on every sweep, so its strengths stay undefined
OSCILLATING = dataclasses.replace(q.DFQUAD, max_sweeps=50, name="oscillating")


def with_oscillating_pair(query):
    """The query on its graph plus a disconnected pair x <-> y whose final
    strengths are undefined; its topics are judged as before."""
    g = query.graph
    scores = {**g.base_scores, "x": 1.0, "y": 1.0}
    g = q.make_qbag(scores, g.attacks | {("x", "y"), ("y", "x")}, g.supports)
    return q.ExplanationQuery(g, OSCILLATING, query.mutable, query.ordering)


def test_verifier_oracle_and_search_agree_when_a_non_topic_strength_is_undefined():
    """x, y and z oscillate and end undefined; the topics w and v do not.
    Every entry point judges the ordering w < v on the topics alone."""
    spec = dataclasses.replace(OSCILLATING, max_sweeps=500)
    g = q.make_qbag({"w": 0.4, "v": 0.6, "x": 1.0, "y": 1.0, "z": 0.5},
                    attacks=[("x", "y"), ("y", "x")], supports=[("x", "z")])
    assert [q.final_strengths(g, spec)[a] for a in "xyz"] == [None] * 3
    ordering = q.ordering_from_tiers([["w"], ["v"]])
    query = q.ExplanationQuery(g, spec, frozenset({"w", "v"}), ordering)
    change, grid = q.StrengthChange({"w": 0.3}), q.GridSpec(step=0.25)

    assert q.satisfies(g, spec, ordering, "exact")
    assert q.is_explanation(query, q.EMPTY_CHANGE, "weak") and q.is_explanation(query, change, "weak")
    result = q.brute_force_search(query, grid)
    assert (result.best, result.best_norm, result.points) == (q.EMPTY_CHANGE, 0.0, 36)
    assert q.certify_epsilon(query, change, 0.0, grid) == "no"  # the empty change beats it by 0.1
    outcome = q.heuristic_search(query)
    assert outcome.found and outcome.change == q.EMPTY_CHANGE

    # an undefined topic: the verifier and the search raise, the oracle skips the column
    on_z = q.ExplanationQuery(g, spec, frozenset({"w"}), q.ordering_from_tiers([["w"], ["z"]]))
    with pytest.raises(UndefinedStrengthError, match="final strength of 'z' is undefined"):
        q.is_explanation(on_z, q.EMPTY_CHANGE, "weak")
    with pytest.raises(UndefinedStrengthError, match="'z'"):
        q.satisfies(g, spec, on_z.ordering, "weak")
    with pytest.raises(UndefinedStrengthError, match="'z'"):
        q.heuristic_search(on_z)
    assert q.brute_force_search(on_z, grid).best is None


def test_entry_points_agree_beside_an_undefined_pair():
    """Tiny random queries plus a disconnected pair whose strengths are
    undefined: every oracle witness and every search result passes the
    verifier, the oracle finds the empty change whenever the graph already
    satisfies the ordering, and satisfies is the verdict on the empty change."""
    satisfied = found = 0
    for seed in range(30):
        query = with_oscillating_pair(random_tiny_query(seed))
        g, spec, ordering = query.graph, query.semantics, query.ordering
        assert q.final_strengths(g, spec)["x"] is None
        holds = q.satisfies(g, spec, ordering, "weak")
        assert holds == q.is_explanation(query, q.EMPTY_CHANGE, "weak")
        result = q.brute_force_search(query, q.GridSpec(step=0.25))
        if result.best is not None:
            assert q.is_explanation(query, result.best, "weak"), seed
        if holds:
            satisfied += 1
            assert result.best_norm == 0.0, seed
        outcome = q.heuristic_search(query)
        if outcome.found:
            found += 1
            assert q.is_explanation(query, outcome.change, "weak"), seed
    assert satisfied >= 5 and found >= 15


def seeded_counterfactuals():
    """Counterfactual problems shaped like the benchmark's: a last-layer topic
    of a `4,8,4` graph driven 0.1-0.3 away from its strength, under eb and qe;
    one of those graphs with a back edge (cyclic, qe); one under naive, whose
    domain is unbounded."""
    struct = q.structure((4, 8, 4))

    def problem(k, spec, back_edge=False):
        inst = q.generate(q.GenSpec(struct, "random", 300 + k, semantics=spec))
        g = inst.graph
        if back_edge:
            g = q.make_qbag(g.base_scores, g.attacks, g.supports | {(inst.layers[-1][0], inst.layers[0][0])})
        rng = np.random.default_rng(k)
        topic = inst.layers[-1][rng.integers(len(inst.layers[-1]))]
        current = q.final_strengths(g, spec)[topic]
        target = current + rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.3)
        if spec.domain.bounded:
            target = np.clip(target, 0.02, 0.98)
        return q.CounterfactualProblem(g, topic, float(target), spec)

    problems = [problem(k, q.builtin_semantics(("eb", "qe")[k % 2])) for k in range(24)]
    problems.append(problem(24, q.QUADRATIC_ENERGY, back_edge=True))
    problems.append(problem(25, q.NAIVE))
    return problems


def test_counterfactual_solutions_reach_their_targets_wherever_adam_does():
    cfg = q.reductions.COUNTERFACTUAL_SEARCH_DEFAULTS
    problems = seeded_counterfactuals()
    assert not compile_graph(problems[24].graph).acyclic
    solved = 0
    for p in problems:
        scores, outcome = q.solve_counterfactual(p)
        adam = q.heuristic_search(q.reduce_counterfactual(p), cfg)
        assert scores is not None or not adam.found
        if scores is None:
            continue
        solved += 1
        assert set(scores) == set(p.graph.arguments)
        g = q.make_qbag(scores, p.graph.attacks, p.graph.supports)
        assert abs(q.final_strengths(g, p.semantics)[p.topic] - p.target) <= cfg.cost_tolerance + 1e-12
    assert solved == len(problems)


def test_inverse_solutions_realize_their_orderings_wherever_adam_does():
    cfg = q.reductions.INVERSE_SEARCH_DEFAULTS
    spec = q.QUADRATIC_ENERGY
    solved = 0
    for seed in range(10):
        g = q.generate(q.GenSpec(q.structure((2, 2, 2)), "random", 500 + seed, semantics=spec)).graph
        perm = np.random.default_rng(seed).permutation(len(g.arguments))
        p = q.make_inverse_problem(g.arguments, g.attacks, g.supports, [[g.arguments[j]] for j in perm])
        scores = q.solve_inverse(p, spec)
        start = q.assign_uniform(p, 0.0)
        adam = q.heuristic_search(q.ExplanationQuery(start, spec, frozenset(p.arguments), p.ordering), cfg)
        assert scores is not None or not adam.found
        if scores is None:
            continue
        solved += 1
        assert q.satisfies(q.make_qbag(scores, p.attacks, p.supports), spec, p.ordering, mode="exact")
    assert solved >= 8


def test_exact_verdicts_on_cyclic_graphs_do_not_depend_on_the_batch_width():
    """Each column of a cyclic evaluation stops at its own sweep, so its
    exact verdict is the same alone, among 7 or 105 columns, or in an oracle
    chunk. The columns perturb the mutable scores at scales from 1e-12 up,
    against the ordering that the unperturbed strengths realize."""
    flipped = 0
    for seed in range(4):
        inst = q.generate(q.GenSpec(q.structure((3, 4, 3)), "random", seed))
        rng = np.random.default_rng(seed)
        g = inst.graph
        supports = set(g.supports) | {(inst.layers[-1][k], inst.layers[1][k]) for k in range(2)}
        g = q.make_qbag(g.base_scores, g.attacks - supports, supports)
        plan = compile_graph(g)
        assert not plan.acyclic
        chunk = qbagx.oracle._CHUNK_CELLS // plan.n
        batch = np.repeat(plan.tau[:, None], chunk, axis=1)
        scales = 10.0 ** rng.integers(-12, 0, size=chunk)
        for a in inst.layers[0]:
            batch[plan.index[a]] = np.clip(plan.tau[plan.index[a]] + scales * rng.normal(size=chunk), 0.0, 1.0)
        batch[:, 0] = plan.tau
        for spec in (q.DFQUAD, q.EULER_BASED):
            sigma, _ = evaluate_matrix(plan, spec, plan.tau[:, None])
            topics = inst.layers[-1]
            ranked = sorted(topics, key=lambda a: sigma[plan.index[a], 0])
            rule = OrderingRule(plan.index, q.ordering_from_tiers([[a] for a in ranked]))
            verdicts = {}
            for width, columns in ((chunk, chunk), (105, chunk), (7, 735), (1, 210)):
                verdicts[width] = np.concatenate([
                    rule.holds(evaluate_matrix(plan, spec, batch[:, start : min(start + width, columns)])[0], "exact")
                    for start in range(0, columns, width)
                ])
            for width in (105, 7, 1):
                assert np.array_equal(verdicts[width], verdicts[chunk][: len(verdicts[width])]), (seed, spec.name, width)
            assert verdicts[chunk][0]
            flipped += int((~verdicts[chunk]).sum())
    assert flipped > 0  # some perturbations do change the order

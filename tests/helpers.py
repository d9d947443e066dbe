"""Shared fixtures: the running-example graphs and random instance factories."""

from __future__ import annotations

import math

import numpy as np

import qbagx as q
from qbagx.errors import UndefinedStrengthError
from qbagx.explanation import OrderingRule
from qbagx.oracle import _grid_values
from qbagx.search import AdamState, SearchConfig, SearchOutcome, adam_step
from qbagx.semantics import check_scores_in_domain, compile_graph, evaluate_matrix

FIG_EDGES = {
    "attacks": [("a", "b"), ("d", "e")],
    "supports": [("a", "c"), ("e", "c"), ("d", "a")],
}

# (base scores, expected final strengths) for the four running-example graphs
FIG_CASES = {
    "g": ({"a": 1, "b": 8, "c": 1, "d": 1, "e": 2}, {"a": 2, "b": 6, "c": 4, "d": 1, "e": 1}),
    "g_prime": ({"a": 2, "b": 8, "c": 1, "d": 1, "e": 3}, {"a": 3, "b": 5, "c": 6, "d": 1, "e": 2}),
    "g_dblprime": ({"a": 3, "b": 8, "c": 1, "d": 1, "e": 2}, {"a": 4, "b": 4, "c": 6, "d": 1, "e": 1}),
    "g_star": ({"a": 2, "b": 8, "c": 1, "d": 1, "e": 4}, {"a": 3, "b": 5, "c": 7, "d": 1, "e": 3}),
}


def fig_graph(name: str = "g") -> q.QBAG:
    scores, _ = FIG_CASES[name]
    return q.make_qbag(scores, FIG_EDGES["attacks"], FIG_EDGES["supports"])


def fig_query(mutable=("a", "e")) -> q.ExplanationQuery:
    """The running-example query: make c strictly stronger than b."""
    return q.ExplanationQuery(
        fig_graph("g"),
        q.NAIVE,
        frozenset(mutable),
        q.ordering_from_tiers([["b"], ["c"]]),
    )


def random_dag(seed: int, n_lo: int = 3, n_hi: int = 7, edge_p: float = 0.45):
    """Small random acyclic graph with unit-interval base scores."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    ids = [f"x{i}" for i in range(n)]
    perm = list(rng.permutation(n))
    attacks, supports = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                a, b = ids[perm[i]], ids[perm[j]]
                (attacks if rng.random() < 0.5 else supports).append((a, b))
    scores = {a: float(v) for a, v in zip(ids, rng.random(n))}
    return q.make_qbag(scores, attacks, supports), ids, rng


def random_tiny_query(seed: int, semantics=None, max_mutable: int = 3) -> q.ExplanationQuery:
    """Random query over a tiny graph: 2-3 singleton-tier topics, <= 3 mutables."""
    g, ids, rng = random_dag(seed)
    n = len(ids)
    k = int(rng.integers(2, min(4, n + 1)))
    topics = [ids[i] for i in rng.choice(n, size=k, replace=False)]
    ordering = q.ordering_from_tiers([[t] for t in topics])
    m = int(rng.integers(1, max_mutable + 1))
    mutable = frozenset(ids[i] for i in rng.choice(n, size=m, replace=False))
    return q.ExplanationQuery(g, semantics or q.DFQUAD, mutable, ordering)


def satisfies_reference(sigma, ordering: q.DesiredOrdering, mode: str = "exact", tolerance: float = 0.0) -> bool:
    """Scalar reference for the batched ordering verdict: the pairwise loop
    over topic strengths `sigma` (a mapping id -> strength)."""
    rank = ordering.tier_of()
    topics = sorted(rank)
    if mode == "weak":
        return all(sigma[x] <= sigma[y] for x in topics for y in topics if rank[x] < rank[y])
    for x in topics:
        for y in topics:
            holds = sigma[x] <= sigma[y] + tolerance
            if (rank[x] <= rank[y]) != holds:
                return False
    return True


def brute_force_reference(query: q.ExplanationQuery, grid: q.GridSpec, mode: str = "weak"):
    """Reference for the streamed oracle: the whole grid in one batch, then
    the minimum norm and the lexicographically smallest entry list at it.
    Returns (best change or None, best norm, grid positions of the columns
    at the best norm)."""
    g = query.graph
    m_ids = sorted(query.mutable)
    plan = compile_graph(g)
    values = _grid_values(grid, query.semantics.domain)
    candidates = [np.sort(values if np.any(values == g.base_scores[a]) else np.append(values, g.base_scores[a]))
                  for a in m_ids]
    total = math.prod(len(c) for c in candidates)
    batch = np.repeat(plan.tau[:, None], total, axis=1)
    if m_ids:
        mesh = np.meshgrid(*candidates, indexing="ij")
        for a, vals in zip(m_ids, mesh):
            batch[plan.index[a]] = vals.reshape(-1)
    sigma, defined = evaluate_matrix(plan, query.semantics, batch)
    ok = OrderingRule(plan.index, query.ordering).holds(sigma, mode) & defined.all(axis=0)
    if not ok.any():
        return None, float("inf"), np.array([], dtype=int)
    tau_m = np.array([g.base_scores[a] for a in m_ids])
    if m_ids:
        norms = np.abs(batch[[plan.index[a] for a in m_ids]] - tau_m[:, None]).sum(axis=0)
    else:
        norms = np.zeros(total)
    norms = np.where(ok, norms, np.inf)
    best_norm = norms.min()
    winners = np.flatnonzero(norms == best_norm)

    def entries_of(col: int) -> list[tuple[str, float]]:
        return [(a, float(batch[plan.index[a], col])) for a in m_ids
                if batch[plan.index[a], col] != g.base_scores[a]]

    best_entries = min(entries_of(int(c)) for c in winners)
    return q.StrengthChange(dict(best_entries)), float(best_norm), winners


def batched_costs_reference(plan, spec, rule, theta, m_idx, eps):
    """Reference for the search's finite differences: a fresh batch per call,
    perturbed by a forward step, or a backward one where a forward step would
    leave the domain, evaluated through evaluate_matrix. Returns the cost at
    theta and the gradient for every mutable index."""
    n_m = len(m_idx)
    batch = np.repeat(theta[:, None], n_m + 1, axis=1)
    if spec.domain.bounded:
        dirs = np.where(theta[m_idx] + eps > spec.domain.upper, -1.0, 1.0)
    else:
        dirs = np.ones(n_m)
    batch[m_idx, np.arange(1, n_m + 1)] += dirs * eps
    sigma, defined = evaluate_matrix(plan, spec, batch)
    if not defined.all():
        raise UndefinedStrengthError("strength evaluation did not converge during the search")
    costs = rule.costs(sigma)
    grads = dirs * (costs[1:] - costs[0]) / eps
    return costs[0], grads


def search_reference(query: q.ExplanationQuery, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Reference for heuristic_search: the same loop with a fresh
    finite-difference batch per iteration (batched_costs_reference) and
    np.clip for the clamp to the domain."""
    cfg = cfg or SearchConfig()
    spec = query.semantics
    plan = compile_graph(query.graph)
    check_scores_in_domain(plan, spec, plan.tau[:, None])
    rule = OrderingRule(plan.index, query.ordering)
    m_ids = sorted(query.mutable)
    m_idx = np.array([plan.index[a] for a in m_ids], dtype=int)
    trajectory: list[float] | None = [] if cfg.record_trajectory else None

    def clamp(v):
        return np.clip(v, spec.domain.lower, spec.domain.upper)

    def check(theta):
        sigma, defined = evaluate_matrix(plan, spec, theta[:, None])
        if not defined.all():
            raise UndefinedStrengthError("strength evaluation did not converge during the search")
        cost = float(rule.costs(sigma)[0])
        if cost > cfg.cost_tolerance:
            return cost, False
        return cost, cfg.satisfaction == "weak" or bool(rule.holds(sigma, "exact")[0])

    def outcome(found, theta, iterations, cost):
        change = q.StrengthChange({
            a: float(theta[plan.index[a]])
            for a in m_ids
            if theta[plan.index[a]] != plan.tau[plan.index[a]]
        }) if found else None
        return SearchOutcome(
            "found" if found else "not_found",
            change,
            iterations,
            cost,
            {a: float(theta[plan.index[a]]) for a in plan.ids},
            trajectory,
        )

    if not m_ids:
        cost, ok = check(plan.tau)
        return outcome(ok, plan.tau, 1, cost)

    total_iterations = 0
    best_cost = float("inf")
    best_theta = plan.tau.copy()
    for restart in range(cfg.restarts + 1):
        theta = plan.tau.copy()
        if restart > 0:
            rng = np.random.default_rng(cfg.rng_seed + restart)
            jitter = rng.uniform(-cfg.restart_jitter, cfg.restart_jitter, size=len(m_idx))
            theta[m_idx] = clamp(plan.tau[m_idx] + jitter)
        adam = AdamState(np.zeros(len(m_idx)), np.zeros(len(m_idx)))
        alpha = cfg.alpha
        for _ in range(cfg.max_iterations):
            total_iterations += 1
            cost0, grads = batched_costs_reference(plan, spec, rule, theta, m_idx, cfg.perturbation)
            if trajectory is not None:
                trajectory.append(float(cost0))
            if cost0 <= cfg.cost_tolerance:
                cost, ok = check(theta)
                if ok:
                    return outcome(True, theta, total_iterations, cost)
                if not np.any(grads):
                    break
            adam, step = adam_step(adam, grads, alpha, cfg.beta1, cfg.beta2, cfg.adam_eps)
            theta[m_idx] = clamp(theta[m_idx] + step)
            alpha *= cfg.alpha_decay
        cost_end, _ = check(theta)
        if cost_end < best_cost:
            best_cost = cost_end
            best_theta = theta.copy()

    return outcome(False, best_theta, total_iterations, best_cost)


def topological_levels_reference(g: q.QBAG) -> list[list[str]] | None:
    """Reference for graph.topological_levels: Kahn's algorithm in Python
    over a successor map, peeling whole frontiers; the first level follows
    argument order, later ones are sorted by id."""
    succ: dict[str, list[str]] = {a: [] for a in g.arguments}
    indeg = dict.fromkeys(g.arguments, 0)
    for edges in (g.attacks, g.supports):
        for a, b in edges:
            succ[a].append(b)
            indeg[b] += 1
    levels: list[list[str]] = []
    frontier = [a for a in g.arguments if indeg[a] == 0]
    while frontier:
        levels.append(frontier)
        nxt = []
        for x in frontier:
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    nxt.append(y)
        frontier = sorted(nxt)
    if sum(map(len, levels)) != len(g.arguments):
        return None
    return levels


def _indexer_reference(ascending):
    if len(ascending) and ascending[-1] - ascending[0] == len(ascending) - 1:
        return slice(ascending[0], ascending[-1] + 1)
    return np.array(ascending, dtype=int)


def plan_blocks_reference(g: q.QBAG) -> list[tuple]:
    """Reference for GraphPlan.blocks: the per-edge Python builder over the
    reference levels, one (rows, cols, w, att, supp) block per level, or one
    block over all rows and columns when the graph is cyclic."""
    ids = list(g.arguments)
    index = {a: i for i, a in enumerate(ids)}
    n = len(ids)
    levels = topological_levels_reference(g)
    acyclic = levels is not None
    groups = levels if acyclic else [ids]
    where = {a: (k, r) for k, members in enumerate(groups) for r, a in enumerate(members)}
    entries: list[list[tuple[int, int, float]]] = [[] for _ in groups]
    for sign, relation in ((-1.0, g.attacks), (1.0, g.supports)):
        for a, b in relation:
            k, r = where[b]
            entries[k].append((r, index[a], sign))
    blocks = []
    for members, block in zip(groups, entries):
        cols = sorted({j for _, j, _ in block}) if acyclic else range(n)
        col_pos = {j: c for c, j in enumerate(cols)}
        w = np.zeros((len(members), len(cols)))
        w[[r for r, _, _ in block], [col_pos[j] for _, j, _ in block]] = [v for _, _, v in block]
        rows = [index[a] for a in members]
        blocks.append((_indexer_reference(rows), _indexer_reference(cols), w, (w < 0.0) * 1.0, (w > 0.0) * 1.0))
    return blocks


def assert_same_blocks(blocks, reference) -> None:
    """Blocks equal part by part: slices equal, arrays equal in value and dtype."""
    assert len(blocks) == len(reference)
    for block, ref in zip(blocks, reference):
        assert len(block) == len(ref)
        for part, ref_part in zip(block, ref):
            assert type(part) is type(ref_part)
            if isinstance(part, slice):
                assert part == ref_part
            else:
                assert part.dtype == ref_part.dtype and part.shape == ref_part.shape
                assert np.array_equal(part, ref_part)


def plan_reference_cases() -> list[q.QBAG]:
    """Graphs to compare the compile with its references on: random_dag
    graphs, layered graphs with and without back edges, a self-loop,
    isolated arguments, one argument and the empty graph."""
    graphs = [random_dag(seed, 1, 14)[0] for seed in range(40)]
    for seed, struct in enumerate(((4, 8, 4), (8, 32, 16, 8), (3, 1, 5, 2, 2))):
        inst = q.generate(q.GenSpec(q.structure(struct), "random", seed))
        g = inst.graph
        graphs.append(g)
        back = (inst.layers[-1][0], inst.layers[1][0])
        graphs.append(q.make_qbag(g.base_scores, g.attacks, g.supports | {back}))
    graphs += [
        q.make_qbag({"x": 0.5, "y": 0.2}, attacks=[("x", "x")], supports=[("x", "y")]),
        q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}, attacks=[("c", "a")]),
        q.make_qbag({"a": 0.1, "b": 0.2, "c": 0.3}),
        q.make_qbag({"only": 0.5}),
        q.make_qbag({}),
    ]
    return graphs

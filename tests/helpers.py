"""Shared fixtures: the running-example graphs and random instance factories."""

from __future__ import annotations

import math

import numpy as np

import qbagx as q
from qbagx.explanation import OrderingRule
from qbagx.oracle import _grid_values
from qbagx.semantics import compile_graph, evaluate_matrix

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

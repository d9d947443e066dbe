"""Brute-force grid oracle over mutable base scores.

Ground truth for tiny instances: enumerates every grid assignment to the
mutable set (each argument's candidates are the grid points plus its
current score, so "leave unchanged" is always available), evaluates all of
them in one batched pass, and reports the cheapest assignment that
satisfies the ordering. Deliberately unscalable; the cap on the mutable
set keeps the enumeration honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .explanation import ExplanationQuery, OrderingRule, StrengthChange, amount_of_change
from .semantics import check_scores_in_domain, compile_graph, evaluate_matrix


@dataclass(frozen=True)
class GridSpec:
    step: float = 0.05
    lower: float | None = None  # default: the semantics domain bounds
    upper: float | None = None
    max_mutable: int = 4
    max_points: int = 2_000_000  # cap on enumerated assignments

    def __post_init__(self):
        for bound in (self.step, self.lower, self.upper):
            if bound is not None and not math.isfinite(bound):
                raise ValueError("grid step and bounds must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.max_mutable < 0:
            raise ValueError("max_mutable must be non-negative")


@dataclass(frozen=True)
class OracleResult:
    best: StrengthChange | None
    best_norm: float  # inf when no explanation exists on the grid
    exhaustive: bool


def _grid_values(grid: GridSpec, domain) -> np.ndarray:
    lower = grid.lower if grid.lower is not None else domain.lower
    upper = grid.upper if grid.upper is not None else domain.upper
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ValueError("grid needs explicit lower/upper bounds for an unbounded domain")
    count = int(np.floor((upper - lower) / grid.step + 1e-9)) + 1
    return lower + grid.step * np.arange(count)


def brute_force_search(query: ExplanationQuery, grid: GridSpec | None = None, mode: str = "weak") -> OracleResult:
    """Minimum-change explanation over the grid, or none.

    Ties on the change amount break deterministically towards the
    lexicographically smallest sorted (id, value) entry list.
    """
    grid = grid or GridSpec()
    g = query.graph
    spec = query.semantics
    m_ids = sorted(query.mutable)
    if len(m_ids) > grid.max_mutable:
        raise BudgetError(f"{len(m_ids)} mutable arguments exceed the cap of {grid.max_mutable}")

    plan = compile_graph(g)
    check_scores_in_domain(plan, spec, plan.tau[:, None])
    values = _grid_values(grid, spec.domain)
    candidates = []
    for a in m_ids:
        tau_a = g.base_scores[a]
        col = values if np.any(values == tau_a) else np.append(values, tau_a)
        candidates.append(np.sort(col))
    total = math.prod(len(c) for c in candidates)
    if total > grid.max_points:
        raise BudgetError(f"{total} grid assignments exceed the cap of {grid.max_points}")

    batch = np.repeat(plan.tau[:, None], total, axis=1)
    if m_ids:
        mesh = np.meshgrid(*candidates, indexing="ij")
        for a, vals in zip(m_ids, mesh):
            batch[plan.index[a]] = vals.reshape(-1)
    sigma, defined = evaluate_matrix(plan, spec, batch)
    ok = OrderingRule(plan.index, query.ordering).holds(sigma, mode) & defined.all(axis=0)
    if not ok.any():
        return OracleResult(None, float("inf"), True)

    tau_m = np.array([g.base_scores[a] for a in m_ids])
    if m_ids:
        norms = np.abs(batch[[plan.index[a] for a in m_ids]] - tau_m[:, None]).sum(axis=0)
    else:
        norms = np.zeros(total)
    norms = np.where(ok, norms, np.inf)
    best_norm = norms.min()
    winners = np.flatnonzero(norms == best_norm)

    def entries_of(col: int) -> list[tuple[str, float]]:
        return [
            (a, float(batch[plan.index[a], col]))
            for a in m_ids
            if batch[plan.index[a], col] != g.base_scores[a]
        ]

    best_entries = min(entries_of(int(c)) for c in winners)
    return OracleResult(StrengthChange(dict(best_entries)), float(best_norm), True)


def certify_epsilon(
    query: ExplanationQuery,
    change: StrengthChange,
    epsilon: float,
    grid: GridSpec | None = None,
    mode: str = "weak",
) -> str:
    """Grid verdict on epsilon-approximation of an explanation.

    "no" when some grid explanation is cheaper by more than epsilon; "yes"
    when either no explanation at all can be cheaper (norm(change) <=
    epsilon) or the exhaustive grid minimum clears the discretization bound
    norm(change) - epsilon + |mutable| * step; "unknown" in between. The
    bound is conservative: finer grids turn unknowns into answers.
    """
    grid = grid or GridSpec()
    norm = amount_of_change(query.graph, change)
    if norm <= epsilon:
        return "yes"
    result = brute_force_search(query, grid, mode)
    if result.best is not None and result.best_norm < norm - epsilon:
        return "no"
    if result.exhaustive and result.best_norm >= norm - epsilon + len(query.mutable) * grid.step:
        return "yes"
    return "unknown"

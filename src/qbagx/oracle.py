"""Brute-force grid oracle over mutable base scores.

Ground truth for tiny instances: enumerates every grid assignment to the
mutable set (each argument's candidates are the grid points plus its
current score, so "leave unchanged" is always available) and reports the
cheapest assignment that satisfies the ordering; an assignment that leaves a
topic's strength undefined does not satisfy it (OrderingRule.evaluate), and
other arguments' strengths do not count. Explicit grid bounds must lie in
the semantics domain. The enumeration streams in C order over fixed-width
column chunks, each evaluated as one batch on the one compiled plan, keeping
a running minimum and its tie-break, so memory stays bounded by the chunk
width whatever the grid size. A call allocates its batch, the level pass's
buffers and the index buffers once; each chunk fills the mutable rows in
place and is evaluated into the same memory. Certification reads the same
stream and stops at the first chunk that refutes the change. Deliberately
unscalable in time; the caps on the mutable set and the number of
assignments keep the enumeration honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetError, DomainError
from .explanation import ExplanationQuery, OrderingRule, StrengthChange, amount_of_change
from .semantics import PassBuffers, check_scores_in_domain, compile_graph


@dataclass(frozen=True)
class GridSpec:
    step: float = 0.05
    lower: float | None = None  # default: the semantics domain bounds
    upper: float | None = None
    max_mutable: int = 4
    max_points: int = 2_000_000  # cap on enumerated assignments; bounds time, not memory

    def __post_init__(self):
        for bound in (self.step, self.lower, self.upper):
            if bound is not None and not math.isfinite(bound):
                raise ValueError("grid step and bounds must be finite")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("grid lower bound exceeds its upper bound")
        if self.max_mutable < 0:
            raise ValueError("max_mutable must be non-negative")


@dataclass(frozen=True)
class OracleResult:
    best: StrengthChange | None
    best_norm: float  # inf when no explanation exists on the grid
    exhaustive: bool  # False when the stream stopped before the last chunk
    points: int  # grid assignments evaluated


# Columns per oracle batch: as many as keep one n x width float array at
# _CHUNK_CELLS entries (320 KB), at most _CHUNK, so that a chunk's batch,
# strengths and block buffers stay inside a 2 MB per-core L2 cache: 4,096
# columns at 10 arguments. Full 33^4 streams at 10 arguments, widths
# interleaved, median of 12 on a 2-vCPU Xeon (2 MB L2 per core) in a slow
# phase: 2,048 columns 200 ms, 4,096 168 ms, 8,192 158 ms, 32,768 201 ms.
# Narrower chunks lose to per-chunk overhead, wider ones to cache misses.
_CHUNK_CELLS = 40_960
_CHUNK = 32_768


def _chunk_width(n: int, total: int) -> int:
    return max(1, min(_CHUNK, total, _CHUNK_CELLS // max(n, 1)))


def _grid_values(grid: GridSpec, domain) -> np.ndarray:
    for bound in (grid.lower, grid.upper):
        if bound is not None and not domain.contains(bound):
            raise DomainError(f"grid bound {bound} outside domain [{domain.lower}, {domain.upper}]")
    lower = grid.lower if grid.lower is not None else domain.lower
    upper = grid.upper if grid.upper is not None else domain.upper
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ValueError("grid needs explicit lower/upper bounds for an unbounded domain")
    count = int(np.floor((upper - lower) / grid.step + 1e-9)) + 1
    return lower + grid.step * np.arange(count)


def _running_minimum(query: ExplanationQuery, grid: GridSpec, mode: str) -> Iterator[OracleResult]:
    """Stream the grid in C order, `_chunk_width` columns at a time; after
    each chunk, yield the best assignment among those evaluated so far
    (`exhaustive` once the grid is done). A chunk's winners at the running
    minimum join the tie-break, so the answer is the whole grid's. The
    buffers belong to this call; a short last chunk views a prefix of them."""
    g = query.graph
    spec = query.semantics
    m_ids = sorted(query.mutable)
    if len(m_ids) > grid.max_mutable:
        raise BudgetError(f"{len(m_ids)} mutable arguments exceed the cap of {grid.max_mutable}")

    plan = compile_graph(g)
    check_scores_in_domain(plan, spec, plan.tau[:, None])
    rule = OrderingRule(plan.index, query.ordering)
    values = _grid_values(grid, spec.domain)
    candidates = []
    for a in m_ids:
        tau_a = g.base_scores[a]
        col = values if np.any(values == tau_a) else np.append(values, tau_a)
        candidates.append(np.sort(col))
    shape = tuple(len(c) for c in candidates)
    total = math.prod(shape)
    if total > grid.max_points:
        raise BudgetError(f"{total} grid assignments exceed the cap of {grid.max_points}")

    rows = [plan.index[a] for a in m_ids]
    tau_m = [g.base_scores[a] for a in m_ids]
    best_norm, best_entries = float("inf"), None
    chunk = _chunk_width(plan.n, total)
    buffers, memory = PassBuffers(plan, chunk), np.empty(plan.n * chunk)
    offsets, (index, digit), (norms, terms) = np.arange(chunk), np.empty((2, chunk), np.intp), np.empty((2, chunk))
    width = 0
    for start in range(0, total, chunk):
        if width != min(chunk, total - start):  # the first chunk, and a short last one
            width = min(chunk, total - start)
            batch = memory[: plan.n * width].reshape(plan.n, width)
            batch[...] = plan.tau[:, None]
            narrow = buffers if width == chunk else buffers.narrowed(width)
            pos, dig, norm, term = index[:width], digit[:width], norms[:width], terms[:width]
        np.add(offsets[:width], start, out=pos)
        for row, vals, size in zip(rows[::-1], candidates[::-1], shape[::-1]):  # C order: last axis fastest
            np.divmod(pos, size, out=(pos, dig))
            np.take(vals, dig, out=batch[row], mode="clip")
        sigma, undefined = rule.evaluate(plan, spec, batch, narrow)
        ok = rule.holds(sigma, mode) & ~undefined.any(axis=0)
        if ok.any():
            norm.fill(0.0)  # the change amount: |batch[row] - tau| summed over the mutable rows in order
            for row, tau_a in zip(rows, tau_m):
                np.add(norm, np.abs(np.subtract(batch[row], tau_a, out=term), out=term), out=norm)
            np.copyto(norm, np.inf, where=~ok)
            chunk_norm = float(norm.min())
            if chunk_norm <= best_norm:
                chunk_entries = min(
                    [(a, float(batch[row, col])) for a, row in zip(m_ids, rows) if batch[row, col] != g.base_scores[a]]
                    for col in np.flatnonzero(norm == chunk_norm)
                )
                if chunk_norm < best_norm or chunk_entries < best_entries:
                    best_norm, best_entries = chunk_norm, chunk_entries
        done = start + width
        best = None if best_entries is None else StrengthChange(dict(best_entries))
        yield OracleResult(best, best_norm, done == total, done)


def brute_force_search(query: ExplanationQuery, grid: GridSpec | None = None, mode: str = "weak") -> OracleResult:
    """Minimum-change explanation over the grid, or none.

    Ties on the change amount break deterministically towards the
    lexicographically smallest sorted (id, value) entry list.
    """
    for result in _running_minimum(query, grid or GridSpec(), mode):
        pass
    return result


def certify_epsilon(
    query: ExplanationQuery,
    change: StrengthChange,
    epsilon: float,
    grid: GridSpec | None = None,
    mode: str = "weak",
) -> str:
    """Grid verdict on epsilon-approximation of an explanation.

    "no" when some grid explanation is cheaper by more than epsilon, decided
    at the first chunk of the grid stream that holds one; "yes"
    when either no explanation at all can be cheaper (norm(change) <=
    epsilon) or the exhaustive grid minimum clears the discretization bound
    norm(change) - epsilon + |mutable| * step; "unknown" in between. The
    bound is conservative: finer grids turn unknowns into answers.
    """
    grid = grid or GridSpec()
    norm = amount_of_change(query.graph, change)
    if norm <= epsilon:
        return "yes"
    for result in _running_minimum(query, grid, mode):
        if result.best is not None and result.best_norm < norm - epsilon:
            return "no"
    if result.exhaustive and result.best_norm >= norm - epsilon + len(query.mutable) * grid.step:
        return "yes"
    return "unknown"

"""Brute-force grid oracle over mutable base scores.

Ground truth for tiny instances: the cheapest grid assignment to the
mutable set (each argument's candidates are the grid points plus its
current score, so "leave unchanged" is always available) that satisfies the
ordering; an assignment that leaves a topic's strength undefined does not
satisfy it (OrderingRule.evaluate). Explicit grid bounds must lie in the
semantics domain. A branch and bound over index boxes halves the grid until
each box fits in one fixed-width column chunk; a box whose least change
amount is above the running minimum (or the bound that decides a
certification) is never evaluated, and on an acyclic graph a box whose
interval bounds (semantics.interval_pass, sound under every accepted
semantics) put a required topic pair apart is refuted. The boxes stream
cheapest first, each filled in C order and evaluated as one batch on the
one compiled plan into buffers allocated once per call, keeping a running
minimum and its tie-break, so the answer is the whole grid's and memory
stays bounded by the chunk width.
A call counts the grid, and enforces its cap, before any grid value is
made. Certification reads the same stream and stops at the first box that
refutes the change. Deliberately unscalable in time; the caps on the
mutable set and the number of assignments keep the enumeration honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetError, DomainError, InvalidChangeError, checked_int, checked_real
from .explanation import ExplanationQuery, StrengthChange, amount_of_change, is_explanation
from .semantics import PassBuffers, interval_pass


@dataclass(frozen=True)
class GridSpec:
    step: float = 0.05
    lower: float | None = None  # default: the semantics domain bounds
    upper: float | None = None
    max_mutable: int = 4
    max_points: int = 2_000_000  # cap on enumerated assignments; bounds time, not memory

    def __post_init__(self):
        object.__setattr__(self, "step", checked_real(self.step, "grid step"))
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step!r}")
        for name in ("lower", "upper"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, checked_real(getattr(self, name), f"grid {name} bound"))
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("grid lower bound exceeds its upper bound")
        object.__setattr__(self, "max_mutable", checked_int(self.max_mutable, "max_mutable", least=0))
        object.__setattr__(self, "max_points", checked_int(self.max_points, "max_points", least=1))


@dataclass(frozen=True)
class OracleResult:
    best: StrengthChange | None
    best_norm: float  # inf when no explanation exists on the grid
    exhaustive: bool  # True once the whole grid is decided: evaluated, refuted or too costly
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


def _grid_count(grid: GridSpec, domain) -> tuple[float, int]:
    """(lower, count): the grid's values are lower + grid.step * i for i in
    range(count)."""
    for bound in (grid.lower, grid.upper):
        if bound is not None and not domain.contains(bound):
            raise DomainError(f"grid bound {bound} outside domain [{domain.lower}, {domain.upper}]")
    lower = grid.lower if grid.lower is not None else domain.lower
    upper = grid.upper if grid.upper is not None else domain.upper
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ValueError("grid needs explicit lower/upper bounds for an unbounded domain")
    span = (upper - lower) / grid.step
    if not math.isfinite(span):  # a step so fine that the count overflows a float
        raise BudgetError(f"grid step {grid.step} gives more grid values than a float can count")
    return lower, int(np.floor(span + 1e-9)) + 1


def _grid_values(grid: GridSpec, domain) -> np.ndarray:
    lower, count = _grid_count(grid, domain)
    return lower + grid.step * np.arange(count)


def _on_grid(value: float, lower: float, step: float, count: int) -> bool:
    """Whether value is among _grid_values, without making them: the values
    grow with i (each is a rounded sum of a rounded product, as numpy forms
    them), so a bisection finds the first one not below value."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        if lower + step * mid < value:
            lo = mid + 1
        else:
            hi = mid
    return lo < count and lower + step * lo == value


# A box is refuted only where the bounds of a required pair are apart by
# more than rounding can move them: _MARGIN * (1 + |upper bound|).
_MARGIN = 1e-9


def _surviving_boxes(plan, spec, pairs: tuple | None, candidates: list, rows: list, chunk: int,
                     bound: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch and bound from the whole grid: the index boxes that may hold
    an explanation whose change amount is at most `bound`, as (starts,
    stops, least): per box and axis its first and past-the-end candidate
    indices, and per box its least change amount. A box is dropped where its
    least change amount is above `bound`, refuted where its interval_pass
    bounds put one of the required topic `pairs` (OrderingRule.required)
    apart, and halved on its widest axis while it holds more than `chunk`
    points. `pairs` is None on a cyclic plan, which interval_pass does not
    bound; then no box is refuted. Each level goes through interval_pass in
    batches of chunk // 2 boxes. Survivors come cheapest first, then in C
    order of their first corners, so that a stream soon finds a cheap
    explanation, which drops the boxes above it."""
    shape = np.array([[len(c) for c in candidates]], dtype=np.intp)
    starts, stops, found = np.zeros_like(shape), shape, []
    batch = max(1, chunk // 2)
    while True:
        low = [c[a] for c, a in zip(candidates, starts.T)]
        high = [c[b - 1] for c, b in zip(candidates, stops.T)]
        least = np.zeros(len(starts))  # summed over the axes in order, as the stream sums change amounts
        for lo_j, hi_j, tau_a in zip(low, high, plan.tau[rows]):
            np.add(least, np.abs(np.minimum(np.maximum(tau_a, lo_j), hi_j) - tau_a), out=least)
        alive = least <= bound
        for k in range(0, len(starts) if pairs else 0, batch):
            lo = np.repeat(plan.tau[:, None], min(batch, len(starts) - k), axis=1)
            hi = lo.copy()
            for row, lo_j, hi_j in zip(rows, low, high):
                lo[row], hi[row] = lo_j[k : k + batch], hi_j[k : k + batch]
            lo, hi = interval_pass(plan, spec, lo, hi)
            first, second = pairs
            apart = lo[first] > hi[second] + _MARGIN * (1.0 + np.abs(hi[second]))
            alive[k : k + batch] &= ~apart.any(axis=0)
        sizes = stops - starts
        leaf = alive & (sizes.prod(axis=1) <= chunk)
        found.append((starts[leaf], stops[leaf], least[leaf]))
        split = alive & ~leaf
        if not split.any():
            break
        starts, stops, sizes = starts[split], stops[split], sizes[split]
        box, axis = np.arange(len(starts)), sizes.argmax(axis=1)
        mid = starts[box, axis] + sizes[box, axis] // 2
        left, right = stops.copy(), starts.copy()
        left[box, axis] = right[box, axis] = mid
        starts, stops = np.concatenate((starts, right)), np.concatenate((left, stops))
    starts, stops, least = (np.concatenate(part) for part in zip(*found))
    dims = shape[0].tolist()
    order = np.lexsort((starts @ np.array([math.prod(dims[j + 1 :]) for j in range(len(dims))], dtype=np.intp), least))
    return starts[order], stops[order], least[order]


def _running_minimum(query: ExplanationQuery, grid: GridSpec, mode: str,
                     bound: float = math.inf) -> Iterator[OracleResult]:
    """Stream _surviving_boxes' boxes, each as one batch of at most
    `_chunk_width` columns filled in C order; after each box, yield the best
    assignment among those evaluated so far, and at the end the whole grid's
    (`exhaustive`). Boxes are refuted only on an acyclic plan. A box is
    skipped when its least change amount is above the running minimum or
    `bound` (none of its points can be the answer, or change a
    certification's verdict); ties are kept, and a box's winners at the
    running minimum join the tie-break. The buffers belong to this call; a
    narrower box views a prefix of them. The grid is counted, and the cap
    enforced, before any of it is made."""
    spec = query.semantics
    if len(query.mutable) > grid.max_mutable:
        raise BudgetError(f"{len(query.mutable)} mutable arguments exceed the cap of {grid.max_mutable}")

    plan, rule, rows = query.compiled
    lower, count = _grid_count(grid, spec.domain)
    tau_m = plan.tau[rows].tolist()
    on_grid = [_on_grid(tau_a, lower, grid.step, count) for tau_a in tau_m]
    shape = tuple(count + (not on) for on in on_grid)  # each score off the grid is one more candidate
    total = math.prod(shape)
    if total > grid.max_points:
        raise BudgetError(f"{total} grid assignments exceed the cap of {grid.max_points}")

    values = _grid_values(grid, spec.domain) if tau_m else None
    candidates = [values if on else np.sort(np.append(values, tau_a)) for on, tau_a in zip(on_grid, tau_m)]
    chunk = _chunk_width(plan.n, total)
    pairs = rule.required(mode) if plan.acyclic else None
    boxes = _surviving_boxes(plan, spec, pairs, candidates, rows, chunk, bound)
    best_norm, best_entries, best, done = float("inf"), None, None, 0
    buffers, memory = PassBuffers(plan, chunk), np.empty(plan.n * chunk)
    narrowed = {chunk: buffers}
    norms, terms = np.empty((2, chunk))
    width = 0
    for begin, end, least in zip(*(part.tolist() for part in boxes)):
        if least > min(best_norm, bound):
            continue
        sizes = [b - a for a, b in zip(begin, end)]
        if width != math.prod(sizes):  # a new box width: view the memory at it
            width = math.prod(sizes)
            batch = memory[: plan.n * width].reshape(plan.n, width)
            batch[...] = plan.tau[:, None]
            if width not in narrowed:
                narrowed[width] = buffers.narrowed(width)
            narrow, norm, term = narrowed[width], norms[:width], terms[:width]
        for j, (row, c, a, b) in enumerate(zip(rows, candidates, begin, end)):  # one broadcast per axis
            batch[row].reshape(sizes)[...] = c[a:b].reshape([-1] + [1] * (len(sizes) - j - 1))
        sigma, undefined = rule.evaluate(plan, spec, batch, narrow)
        ok = rule.holds(sigma, mode) & ~undefined.any(axis=0)
        if ok.any():
            norm.fill(0.0)  # the change amount: |batch[row] - tau| summed over the mutable rows in order
            for row, tau_a in zip(rows, tau_m):
                np.add(norm, np.abs(np.subtract(batch[row], tau_a, out=term), out=term), out=norm)
            np.copyto(norm, np.inf, where=~ok)
            box_norm = float(norm.min())
            if box_norm <= best_norm:
                box_entries = min(
                    [(plan.ids[row], float(batch[row, col])) for row, tau_a in zip(rows, tau_m) if batch[row, col] != tau_a]
                    for col in np.flatnonzero(norm == box_norm)
                )
                if box_norm < best_norm or box_entries < best_entries:
                    best_norm, best_entries = box_norm, box_entries
                    best = StrengthChange(dict(best_entries))
        done += width
        yield OracleResult(best, best_norm, False, done)
    yield OracleResult(best, best_norm, True, done)


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

    Checked first: `epsilon` is a real >= 0 (else ValueError) and the
    change an explanation in `mode` (else InvalidChangeError). "no" when
    some grid explanation is cheaper by more than epsilon, decided at the
    first box of the grid stream that holds one; "yes" when either no
    explanation at all can be cheaper (norm(change) <= epsilon) or the
    exhaustive grid minimum clears the discretization bound norm(change) -
    epsilon + |mutable| * step; "unknown" in between. The bound is
    conservative: finer grids turn unknowns into answers. Points whose
    change amount is above it cannot move the verdict, and boxes of them are
    not evaluated. A grid over the cap raises BudgetError.
    """
    epsilon = checked_real(epsilon, "epsilon")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    grid = grid or GridSpec()
    query.compiled  # checks the base scores before the answer that needs no grid
    if not is_explanation(query, change, mode):
        raise InvalidChangeError("change is not an explanation for the query")
    norm = amount_of_change(query.graph, change)
    if norm <= epsilon:
        return "yes"
    bound = norm - epsilon + len(query.mutable) * grid.step
    for result in _running_minimum(query, grid, mode, bound):
        if result.best is not None and result.best_norm < norm - epsilon:
            return "no"
    return "yes" if result.best_norm >= bound else "unknown"

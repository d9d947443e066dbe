"""Gradual semantics: aggregation/influence functions and strength evaluation.

A modular semantics combines an aggregation function (folds the parents'
final strengths into one number, supporters positive / attackers negative)
with an influence function (moves the base score by the aggregate):

    Sum         agg = sum(supporters) - sum(attackers)
    Product     agg = prod(1 - s_att) - prod(1 - s_supp), empty products = 1

    Linear(k)      i(w, s) = w - w/k * max(0, -s) + (1-w)/k * max(0, s)
    EulerBased     i(w, s) = 1 - (1 - w^2) / (1 + w * e^s)
    pMax(p, k)     i(w, s) = w - w*h(-s/k) + (1-w)*h(s/k),
                   h(x) = max(0, x)^p / (1 + max(0, x)^p)
    Additive       i(w, s) = w + s        (running-example semantics)

Built-ins: dfquad = (product, linear(1)), eb = (sum, euler_based),
qe = (sum, 2-max(1)) and naive = (sum, additive). The domain follows from
the influence: the reals, on acyclic graphs only, under additive, and
[0, 1] under every other. Configurations whose strengths could leave it are
rejected (SemanticsSpec, check_scores_in_domain); every accepted one is
monotone, so the interval_pass bounds are sound on every acyclic plan.

A graph compiles into a GraphPlan: the blocks of its topology, which the
graph builds once and shares with the graphs built on the same edge sets
(a search, its verification, the strengths of its result), plus a tau of
its own base scores. Each column of a base-score matrix is one assignment
of base scores to a plan. Acyclic graphs are evaluated by a single forward
pass over topological levels (exact). Cyclic graphs are evaluated in
three parts: the same exact pass over the levels of the arguments no cycle
reaches, synchronous fixed-point iteration from the base scores over the
core (every argument on a cycle or between two), and the exact pass over
the levels of the arguments the core reaches. Only the core is swept, and
its aggregate over parents outside it is computed once. Each column stops
at its own first sweep whose change is below epsilon, so its strengths do
not depend on the batch it is evaluated in. Arguments that still move
after max_sweeps, and everything they reach, are reported as undefined.

Code that runs passes over and over (a fixed-point iteration, a search, an
oracle stream) hands the pass a PassBuffers of its own, and the pass writes
every intermediate there; a pass that runs once allocates as it goes. The
buffers belong to whoever made them, never to the topology, which graphs
share.
"""

from __future__ import annotations

import copy
import math
from dataclasses import KW_ONLY, dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import CyclicGraphError, DomainError, checked_int, checked_object, checked_real, json_document
from .graph import QBAG, make_qbag, parents_map, reachable_from, restrict, topological_levels

# Absolute tolerance for float comparisons in principle checks.
CHECK_TOL = 1e-12

# Floor for 1 - s before taking logs in the product aggregation; keeps the
# fast exp(mask @ log(...)) path finite when some strength equals 1.
_LOG_FLOOR = 1e-300

_FLOAT_MAX = np.finfo(float).max


@dataclass(frozen=True)
class StrengthDomain:
    kind: str  # "unit_interval" | "all_reals"
    lower: float
    upper: float

    def contains(self, v: float) -> bool:
        return self.lower <= v <= self.upper

    def clamp(self, v):
        """v (a float or an array) clipped to the domain, bit for bit as
        np.clip does it (np.maximum returns its second argument on a tie, so
        -0.0 stays -0.0 at a lower bound of 0.0) without np.clip's dispatch."""
        return np.minimum(np.maximum(self.lower, v), self.upper)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)


UNIT_INTERVAL = StrengthDomain("unit_interval", 0.0, 1.0)
ALL_REALS = StrengthDomain("all_reals", float("-inf"), float("inf"))


@dataclass(frozen=True)
class Influence:
    kind: str  # "linear" | "euler_based" | "p_max" | "additive"
    k: float = 1.0
    p: int = 2

    def __post_init__(self):
        if self.kind not in ("linear", "euler_based", "p_max", "additive"):
            raise ValueError(f"unknown influence kind: {self.kind!r}")
        object.__setattr__(self, "k", checked_real(self.k, "influence k"))
        object.__setattr__(self, "p", checked_int(self.p, "influence p", least=1 if self.kind == "p_max" else None))
        # linear divides by k; a k whose reciprocal overflows turns w / k
        # into inf and a zero aggregate's term into inf * 0 = NaN
        if not (0.0 < self.k and math.isfinite(1.0 / self.k)):
            raise ValueError("influence parameter k must be positive, finite and have a finite reciprocal")


@dataclass(frozen=True)
class SemanticsSpec:
    """An aggregation and an influence, which sets the domain. Construction
    rejects additive and linear(k < 1) influence under product; linear(k)
    under sum needs k >= the largest in-degree, a graph-level check that
    check_scores_in_domain makes."""

    aggregation: str  # "sum" | "product"
    influence: Influence
    _: KW_ONLY
    epsilon: float = 1e-9  # fixed-point convergence threshold
    max_sweeps: int = 10_000
    name: str = "custom"

    def __post_init__(self):
        if self.aggregation not in ("sum", "product"):
            raise ValueError(f"unknown aggregation: {self.aggregation!r}")
        # a NaN epsilon would settle no column and then leave every strength defined
        object.__setattr__(self, "epsilon", checked_real(self.epsilon, "epsilon"))
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        # no sweep at all would report the base scores as settled strengths
        object.__setattr__(self, "max_sweeps", checked_int(self.max_sweeps, "max_sweeps", least=1))
        # a product aggregate lies in [-1, 1] while strengths stay in [0, 1]
        inf = self.influence
        if self.aggregation == "product" and (inf.kind == "additive" or inf.kind == "linear" and inf.k < 1.0):
            raise ValueError(f"{inf} under product can leave [0, 1]: product needs linear influence "
                             "with k >= 1, euler_based or p_max")

    @property
    def domain(self) -> StrengthDomain:
        return ALL_REALS if self.influence.kind == "additive" else UNIT_INTERVAL


DFQUAD = SemanticsSpec("product", Influence("linear", k=1.0), name="dfquad")
EULER_BASED = SemanticsSpec("sum", Influence("euler_based"), name="eb")
QUADRATIC_ENERGY = SemanticsSpec("sum", Influence("p_max", k=1.0, p=2), name="qe")
NAIVE = SemanticsSpec("sum", Influence("additive"), name="naive")

_BUILTINS = {
    "dfquad": DFQUAD,
    "eb": EULER_BASED,
    "qe": QUADRATIC_ENERGY,
    "naive": NAIVE,
}


def builtin_semantics(token: str) -> SemanticsSpec:
    """Look up a semantics by its string token: dfquad | eb | qe | naive."""
    try:
        return _BUILTINS[token]
    except (KeyError, TypeError):  # TypeError: an unhashable token, such as a list
        raise ValueError(f"unknown semantics token: {token!r} (expected one of {sorted(_BUILTINS)})")


def semantics_from_json(data: str | bytes) -> SemanticsSpec:
    return semantics_from_config(json_document(data, "semantics config"))


def semantics_from_config(config: str | Mapping) -> SemanticsSpec:
    """Build a semantics from a token or a custom {"aggregation", "influence"}
    object (linear, euler_based or p_max); the constructors check its values."""
    if isinstance(config, str):
        return builtin_semantics(config)
    checked_object(config, "semantics config", {"aggregation", "influence"})
    inf = checked_object(config.get("influence"), "influence config", {"kind", "k", "p"})
    if "kind" not in inf:
        raise ValueError('custom semantics need an influence object with a "kind"')
    if inf["kind"] == "additive":
        raise ValueError('a custom influence is linear, euler_based or p_max; additive is the token "naive"')
    return SemanticsSpec(config.get("aggregation"), Influence(**inf))


def aggregate(kind: str, attacker_strengths: Iterable[float], supporter_strengths: Iterable[float]) -> float:
    """Scalar aggregation, the reference for the vectorized engine.

    sum: supporters minus attackers; product: prod(1-s) over attackers
    minus prod(1-s) over supporters, with empty products equal to 1 (so no
    parents always aggregates to 0).
    """
    att = list(attacker_strengths)
    supp = list(supporter_strengths)
    if kind == "sum":
        return sum(supp) - sum(att)
    if kind == "product":
        return math.prod(1.0 - s for s in att) - math.prod(1.0 - s for s in supp)
    raise ValueError(f"unknown aggregation: {kind!r}")


def _apply_influence(inf: Influence, w, s, out=None, work=(None, None, None, None)):
    """Influence formulas, vectorized over numpy arrays. work = (t1, t2, t3,
    mask): with buffers there, every intermediate goes to them and the result
    to `out`; t3 may be s itself, which is read before t3 is written. With
    None there, each step allocates as numpy's operators do. The operations
    are the same either way, and so are the values. Outputs go in the
    ufuncs' positional out slot, which numpy parses faster than out= (numpy
    deprecates that slot for np.maximum and np.minimum only)."""
    t1, t2, t3, mask = work
    if inf.kind == "linear":
        drop = np.maximum(0.0, np.negative(s, t1), out=t1)
        # dividing by 1.0 is exact, so DF-QuAD's k = 1 skips both divisions
        if inf.k == 1.0:
            drop = np.multiply(w, drop, t1)
            rest = np.subtract(1.0, w, t2)
        else:
            drop = np.multiply(np.divide(w, inf.k, t2), drop, t1)
            rest = np.divide(np.subtract(1.0, w, t2), inf.k, t2)
        kept = np.subtract(w, drop, t1)
        gain = np.multiply(rest, np.maximum(0.0, s, out=t3), t2)
        return np.add(kept, gain, out)
    if inf.kind == "euler_based":
        num = np.subtract(1.0, np.multiply(w, w, t1), t1)
        den = np.add(1.0, np.multiply(w, np.exp(s, t3), t3), t3)
        return np.subtract(1.0, np.divide(num, den, t1), out)
    if inf.kind == "p_max":
        # h(s/k) and h(-s/k) share |s/k|, and one of the two is 0, so its
        # term adds or subtracts an exact zero: one h and one np.where give
        # the two-term formula of the module docstring bit for bit. Capping
        # |s/k|^p at the largest float gives h its limit 1.0 where the power
        # overflows (inf / inf would be NaN) and leaves finite values as they are.
        hs = np.abs(np.divide(s, inf.k, t1), t1)
        hs **= inf.p  # in place, dispatched as ** is (np.square for p = 2)
        hs = np.minimum(hs, _FLOAT_MAX, out=t1)
        h = np.divide(hs, np.add(1.0, hs, t2), t1)
        up = np.add(w, np.multiply(np.subtract(1.0, w, t2), h, t2), t2)
        result = np.subtract(w, np.multiply(w, h, t1), out)
        np.copyto(result, up, where=np.greater(s, 0.0, mask))
        return result
    # additive
    return np.add(w, s, out)


def influence_value(inf: Influence, w: float, s: float) -> float:
    return float(_apply_influence(inf, np.array([w], dtype=float), np.array([s], dtype=float))[0])


class GraphPlan:
    """Index-based evaluation plan: one graph's base scores (`tau`) on its
    own graph.Topology, from which ids, index, n, blocks and core come."""

    def __init__(self, g: QBAG):
        topology = g.topology
        self.ids, self.index, self.n, self.blocks = topology.ids, topology.index, topology.n, topology.blocks
        self.core = topology.core
        self.acyclic = self.core is None
        self.tau = np.fromiter(map(g.base_scores.__getitem__, self.ids), dtype=float, count=self.n)
        self.tau.flags.writeable = False  # read-only: a query's calls share its plan


def compile_graph(g: QBAG) -> GraphPlan:
    return GraphPlan(g)


class PassBuffers:
    """Scratch memory for passes over one plan at one batch width: `sigma`
    (n x width), on a cyclic plan the core's state (`core_state`: iterates,
    the next sweep, their change and two parts of the aggregate, core rows x
    width each), and per block, in plan.blocks order, its `views`: the
    parents buffer, the gathered base rows (None where the rows are a slice)
    and the influence's work (t1, t2, aggregate, mask). The views are laid
    out once, the same for every semantics; a pass reads only those its
    semantics needs.

    A fixed-point iteration, a search workspace or an oracle call makes its
    own and passes it to every pass it runs. Buffers are never shared beyond
    that owner: graphs built on the same edge sets share one graph.Topology,
    so buffers kept there or in a module global would be overwritten by one
    evaluation while another still reads them. The memory is two flat
    arrays, allocated once; `narrowed` views a prefix of them at a smaller
    width (every view stays contiguous), so a stream's short last chunk
    allocates nothing.
    """

    def __init__(self, plan: GraphPlan, width: int, memory: tuple | None = None):
        if memory is None:
            rows = max((block[2].shape[0] for block in plan.blocks), default=0)  # w is rows x cols
            cols = max((block[2].shape[1] for block in plan.blocks), default=0)
            core = 0 if plan.core is None else plan.blocks[plan.core][2].shape[0]
            size = plan.n + cols + 4 * rows + 5 * core
            memory = (np.empty(size * width), np.empty(rows * width, dtype=bool), rows, cols, core)
        floats, flags, rows, cols, core = memory
        n, size = plan.n, plan.n + cols + 4 * rows + 5 * core
        self.plan, self.width, self.memory = plan, width, memory
        self.lines = lines = floats[: size * width].reshape(size, width)
        self.sigma = lines[:n]
        self.core_state = lines[size - 5 * core :].reshape(5, core, width)
        t1, t2, agg, tau = (n + cols + k * rows for k in range(4))  # first lines of each buffer
        mask, views = flags[: rows * width].reshape(rows, width), []
        for r, _, w, *_ in plan.blocks:
            nr, nc = w.shape
            views.append((lines[n : n + nc], None if isinstance(r, slice) else lines[tau : tau + nr],
                          (lines[t1 : t1 + nr], lines[t2 : t2 + nr], lines[agg : agg + nr], mask[:nr])))
        self.views = tuple(views)

    def narrowed(self, width: int) -> "PassBuffers":
        """The same memory viewed at a smaller batch width."""
        return PassBuffers(self.plan, width, self.memory)


# The per-block views of a pass without buffers: every step allocates.
_ALLOCATE = (None, None, (None, None, None, None))


def _factor_products(att, supp, factors, att_out, supp_out):
    """Per row, the products of the factors (1 - parent strength) over its
    attackers and over its supporters: exp of summed logs, taken in place in
    `factors`, into the two outs. Factors below _LOG_FLOOR are floored."""
    # argmin finds the least factor, or the first NaN, faster than min()
    # reduces; the floor only moves factors below it
    if factors.size and factors.item(factors.argmin()) < _LOG_FLOOR:
        np.maximum(factors, _LOG_FLOOR, out=factors)
    logs = np.log(factors, factors)
    return np.exp(np.matmul(att, logs, att_out), att_out), np.exp(np.matmul(supp, logs, supp_out), supp_out)


def _parentless(inf: Influence, w, out, t1, t2):
    """influence(w, 0) bit for bit without evaluating the aggregate: the
    zero-aggregate terms of linear, p_max and additive add +0.0 to w, and
    under euler_based exp(0) is exactly 1."""
    if inf.kind == "euler_based":
        num = np.subtract(1.0, np.multiply(w, w, t1), t1)
        return np.subtract(1.0, np.divide(num, np.add(1.0, w, t2), t1), out)
    return np.add(w, 0.0, out)


def level_pass(
    plan: GraphPlan,
    spec: SemanticsSpec,
    tau: np.ndarray,
    out: np.ndarray,
    buffers: PassBuffers | None = None,
) -> np.ndarray:
    """The exact forward pass over topological levels: every block in order,
    out[rows] = influence(tau[rows], aggregate(out[cols])). No checks: tau and
    out have shape (n_arguments, batch).

    With `buffers` (made for this plan at this batch width) every
    intermediate goes into their views, of which the pass reads those its
    semantics needs, and the pass allocates nothing; without, each step
    allocates, which is cheaper for a pass that runs once. Each ufunc gets
    the operands, in the order, of the operator expression it stands for,
    so the strengths are the same bit for bit either way."""
    views = (_ALLOCATE,) * len(plan.blocks) if buffers is None else buffers.views
    _blocks_pass(plan.blocks, views, spec, tau, out)
    return out


def _blocks_pass(blocks: tuple, views: tuple, spec: SemanticsSpec, tau, out) -> None:
    """level_pass over `blocks`, each with its views."""
    inf = spec.influence
    for (rows, cols, w, att, supp), (parents, tau_rows, work) in zip(blocks, views):
        t1, t2, agg, _ = work
        sliced = isinstance(rows, slice)
        # take's default mode="raise" fills a temporary before out; the indices are valid
        base = tau[rows] if sliced else tau.take(rows, axis=0, out=tau_rows, mode="clip")
        dest = out[rows] if sliced else t1  # gathered rows are scattered below
        if not w.size:  # parentless: the aggregate is 0
            result = _parentless(inf, base, dest, t1, t2)
        else:
            gathered = out[cols] if isinstance(cols, slice) else out.take(cols, axis=0, out=parents, mode="clip")
            if spec.aggregation == "sum":
                agg = np.matmul(w, gathered, agg)
            else:
                drop, gain = _factor_products(att, supp, np.subtract(1.0, gathered, parents), agg, t2)
                agg = np.subtract(drop, gain, agg)
            result = _apply_influence(inf, base, agg, dest, work)
        if not sliced:
            out[rows] = result


def interval_pass(plan: GraphPlan, spec: SemanticsSpec, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, bounds on the strengths of every column of base scores
    between `lo` and `hi` (n_arguments x batch each): one forward pass over
    the blocks of the acyclic `plan` in which a block reads its attackers at
    the opposite bound and its supporters at the same bound. The bounds hold,
    up to rounding, under every configuration that SemanticsSpec and
    check_scores_in_domain accept: each keeps strengths in its domain, where
    every strength rises with each base score and supporter and falls with
    each attacker. Both bounds go through one batch of twice the width,
    lower bounds first; each step allocates."""
    width, inf = lo.shape[1], spec.influence
    swap = np.r_[width : 2 * width, :width]  # each column's other bound
    tau = np.concatenate((lo, hi), axis=1)
    sigma = np.empty_like(tau)
    for rows, cols, w, att, supp in plan.blocks:
        if not w.size:
            sigma[rows] = _parentless(inf, tau[rows], None, None, None)
            continue
        gathered = sigma[cols]
        if spec.aggregation == "sum":
            agg = np.matmul(supp, gathered) - np.matmul(att, gathered)[:, swap]
        else:  # products of factors 1 - s fall as the strengths rise
            drop, gain = _factor_products(att, supp, 1.0 - gathered, None, None)
            agg = drop[:, swap] - gain
        sigma[rows] = _apply_influence(inf, tau[rows], agg)
    return sigma[:, :width], sigma[:, width:]


def _fixed_point(
    plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray, buffers: PassBuffers
) -> tuple[np.ndarray, np.ndarray]:
    """The exact forward pass over the blocks before and after the core, and
    synchronous (Jacobi) iteration over the core from its base scores in
    between (_sweep_core), every block in buffers.views. Returns
    (buffers.sigma, defined mask).

    On non-convergence, every core row that is still moving in a column,
    plus everything reachable from one, is marked undefined; stabilized
    parts keep their values.
    """
    sigma, k, views = buffers.sigma, plan.core, buffers.views
    _blocks_pass(plan.blocks[:k], views[:k], spec, tau, sigma)
    unstable = _sweep_core(plan.blocks[k], views[k], spec, tau, sigma, buffers.core_state)
    _blocks_pass(plan.blocks[k + 1 :], views[k + 1 :], spec, tau, sigma)
    if unstable is None:
        return sigma, np.ones(tau.shape, dtype=bool)
    moving = np.zeros(tau.shape, dtype=bool)
    moving[plan.blocks[k][0]] = unstable
    return sigma, ~_tainted(plan, moving)


def _sweep_core(block: tuple, view: tuple, spec: SemanticsSpec, tau, sigma, state) -> np.ndarray | None:
    """Jacobi sweeps over the core block, from its base scores, into its
    rows of sigma, whose other rows hold the core's other parents.

    The core's columns start with its own c rows; the aggregate's part over
    the other columns is computed once: their weighted sum, or the products
    of their factors, which each sweep adds or multiplies in. Each column
    stops at its own first sweep whose largest change over the core rows is
    below epsilon and keeps that sweep's values, so its strengths do not
    depend on the other columns of the batch. Returns None once every column
    has settled, else, after max_sweeps, the core entries whose last change
    in an unsettled column was at least epsilon (core rows x batch).
    """
    rows, cols, w, att, supp = block
    parents, tau_rows, work = view
    _, t2, agg, _ = work
    x, y, delta, inflow, inflow_supp = state
    c, width = w.shape[0], tau.shape[1]
    base = tau[rows] if isinstance(rows, slice) else tau.take(rows, axis=0, out=tau_rows, mode="clip")
    gathered = sigma[cols] if isinstance(cols, slice) else sigma.take(cols, axis=0, out=parents, mode="clip")
    product = spec.aggregation == "product"
    if product:
        factors = np.subtract(1.0, gathered[c:], parents[c:])
        inflow, inflow_supp = _factor_products(att[:, c:], supp[:, c:], factors, inflow, inflow_supp)
    else:
        np.matmul(w[:, c:], gathered[c:], inflow)
    w_in, att_in, supp_in = w[:, :c], att[:, :c], supp[:, :c]
    inf, eps, active, unstable = spec.influence, spec.epsilon, None, None
    if width > 1:  # per column: the largest change and whether it is below epsilon
        top, settled = np.empty(width), np.empty(width, dtype=bool)
    np.copyto(x, base)
    for _ in range(spec.max_sweeps):
        if product:
            drop, gain = _factor_products(att_in, supp_in, np.subtract(1.0, x, parents[:c]), agg, t2)
            s = np.subtract(np.multiply(drop, inflow, agg), np.multiply(gain, inflow_supp, t2), agg)
        else:
            s = np.add(np.matmul(w_in, x, agg), inflow, agg)
        _apply_influence(inf, base, s, y, work)
        np.abs(np.subtract(y, x, delta), delta)
        if active is None:  # every column takes the sweep
            x, y = y, x
        else:  # only the columns still moving do
            np.copyto(x, y, where=active)
        # argmax finds the largest entry, or the first NaN, faster than max() reduces
        if delta.item(delta.argmax()) < eps:  # every column still moving settles here
            break
        if width > 1:
            np.less(np.maximum.reduce(delta, axis=0, out=top), eps, out=settled)
            if settled.item(settled.argmax()):  # some column settles here, and keeps this sweep
                active = ~settled if active is None else np.logical_and(active, ~settled, out=active)
                if not active.item(active.argmax()):
                    break
    else:  # max_sweeps ran out; a NaN change is not below epsilon, so it counts as moving
        moving = ~(delta < eps)
        unstable = moving if active is None else moving & active
    sigma[rows] = x
    return unstable


def _tainted(plan: GraphPlan, unstable: np.ndarray) -> np.ndarray:
    """Per column, the unstable rows plus every row reachable from one: one
    step along the plan's edges at a time, until no column changes."""
    tainted = unstable
    while True:
        spread = tainted.copy()
        for rows, cols, _, att, supp in plan.blocks:
            spread[rows] |= (att + supp) @ tainted[cols] > 0.0
        if np.array_equal(spread, tainted):
            return tainted
        tainted = spread


def _as_one_core(plan: GraphPlan) -> GraphPlan:
    """`plan` with the whole graph as its core: one block whose rows and
    columns are every argument, which method="iterative" sweeps."""
    n, every = plan.n, np.arange(plan.n)
    w = np.zeros((n, n))
    for rows, cols, block_w, *_ in plan.blocks:
        w[np.ix_(every[rows], every[cols])] = block_w
    whole = copy.copy(plan)
    whole.blocks, whole.core, whole.acyclic = ((slice(0, n), slice(0, n), w, (w < 0.0) * 1.0, (w > 0.0) * 1.0),), 0, False
    return whole


def evaluate_matrix(
    plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray, method: str = "auto", buffers: PassBuffers | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of base-score columns; returns (sigma, defined).

    method: "auto" picks the forward pass for acyclic graphs, "iterative"
    sweeps an acyclic graph as one core block by fixed-point iteration (used
    to cross-check the two evaluators); cyclic graphs always take the
    forward pass around fixed-point iteration over their core.
    buffers: the caller's PassBuffers for this plan at the batch width; sigma
    is then one of its buffers, overwritten by the next evaluation that uses
    them. Without, the forward pass allocates as it goes and a fixed-point
    iteration makes its own.

    A column's strengths depend on the batch width only through rounding:
    matrix products sum in a width-dependent order. On acyclic plans they
    agree with the column's width-1 evaluation within 1e-12. On cyclic
    plans each column stops at its own first sweep whose change is below
    spec.epsilon, whatever the other columns do; a rounding difference can
    move that sweep by one, so they agree within spec.epsilon.
    """
    if tau.ndim != 2 or tau.shape[0] != plan.n:
        raise ValueError("tau must have shape (n_arguments, batch)")
    if buffers is not None and (buffers.plan is not plan or buffers.width != tau.shape[1]):
        raise ValueError("buffers were made for another plan or batch width")
    if not plan.acyclic and spec.influence.kind == "additive":
        raise CyclicGraphError(f"semantics {spec.name!r} is defined for acyclic graphs only")
    if plan.acyclic and method == "iterative" and plan.n:  # an empty graph has nothing to sweep
        plan, buffers = _as_one_core(plan), None
    if not plan.acyclic:
        return _fixed_point(plan, spec, tau, PassBuffers(plan, tau.shape[1]) if buffers is None else buffers)
    sigma = np.empty_like(tau) if buffers is None else buffers.sigma
    return level_pass(plan, spec, tau, sigma, buffers), np.ones(tau.shape, dtype=bool)


def check_scores_in_domain(plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray) -> None:
    """Reject base scores outside spec.domain, and linear influence under sum
    on a graph where some argument has more than k parents: its aggregate
    could pass k, and its strength leave [0, 1]."""
    domain = spec.domain
    if domain.bounded:
        # written as a negated "inside" test so that NaN counts as outside
        out = ~((tau >= domain.lower) & (tau <= domain.upper))
        if out.any():
            bad = plan.ids[int(np.nonzero(out.any(axis=1))[0][0])]
            raise DomainError(f"base score of {bad!r} outside domain [{domain.lower}, {domain.upper}]")
    if spec.influence.kind == "linear" and spec.aggregation == "sum":
        degree = max((int(np.count_nonzero(w, axis=1).max()) for _, _, w, *_ in plan.blocks if w.size), default=0)
        if degree > spec.influence.k:
            raise DomainError(f"linear influence under sum needs k >= the largest in-degree, {degree}; "
                              f"k is {spec.influence.k}")


def final_strengths(g: QBAG, spec: SemanticsSpec, method: str = "auto") -> dict[str, float | None]:
    """Final strength of every argument; None marks a strength left undefined
    by a non-convergent fixed-point iteration."""
    plan = compile_graph(g)
    tau = plan.tau.reshape(-1, 1)
    check_scores_in_domain(plan, spec, tau)
    sigma, defined = evaluate_matrix(plan, spec, tau, method=method)
    # tolist() gives the same Python floats as float() of each entry, at a fraction of the cost
    return {a: (v if ok else None) for a, v, ok in zip(plan.ids, sigma[:, 0].tolist(), defined[:, 0].tolist())}


PRINCIPLES = (
    "directionality",
    "strong_directionality",
    "stability",
    "balance",
    "weak_monotonicity",
)


def check_principle(g: QBAG, spec: SemanticsSpec, principle: str, rng_seed: int = 0) -> dict | None:
    """Check one semantics principle on a concrete acyclic graph.

    Returns None when the principle holds (within CHECK_TOL) and a witness
    dict describing the first violation otherwise. Strong directionality is
    checked against the maximal removable set per argument plus a few seeded
    random subsets; the other principles are checked exhaustively.
    """
    if topological_levels(g) is None:
        raise CyclicGraphError("principle checks need an acyclic graph")
    if principle not in PRINCIPLES:
        raise ValueError(f"unknown principle: {principle!r}")
    sigma = final_strengths(g, spec)

    if principle == "stability":
        for x in g.arguments:
            if not g.attackers(x) and not g.supporters(x):
                if abs(sigma[x] - g.base_scores[x]) > CHECK_TOL:
                    return {"principle": principle, "argument": x, "sigma": sigma[x], "tau": g.base_scores[x]}
        return None

    if principle == "balance":
        for x in g.arguments:
            att = sorted(sigma[y] for y in g.attackers(x))
            supp = sorted(sigma[y] for y in g.supporters(x))
            if len(att) == len(supp) and all(abs(a - s) <= CHECK_TOL for a, s in zip(att, supp)):
                if abs(sigma[x] - g.base_scores[x]) > CHECK_TOL:
                    return {"principle": principle, "argument": x, "sigma": sigma[x], "tau": g.base_scores[x]}
        return None

    if principle == "directionality":
        for edge in sorted(g.edges()):
            y, z = edge
            reach = reachable_from(g, {z}) | {z}
            smaller = make_qbag(g.base_scores, g.attacks - {edge}, g.supports - {edge})
            sigma2 = final_strengths(smaller, spec)
            for x in g.arguments:
                if x in reach:
                    continue
                if abs(sigma[x] - sigma2[x]) > CHECK_TOL:
                    return {"principle": principle, "edge": edge, "argument": x,
                            "with_edge": sigma[x], "without_edge": sigma2[x]}
        return None

    if principle == "strong_directionality":
        rng = np.random.default_rng(rng_seed)
        par = parents_map(g)
        for x in g.arguments:
            ancestors: set[str] = set()
            frontier = set(par[x])
            while frontier:
                ancestors |= frontier
                frontier = {p for a in frontier for p in par[a]} - ancestors
            removable = sorted(set(g.arguments) - ancestors - {x})
            if not removable:
                continue
            candidates = [removable]
            for _ in range(3):
                take = [a for a in removable if rng.random() < 0.5]
                if take:
                    candidates.append(take)
            for sub in candidates:
                kept = set(g.arguments) - set(sub)
                sigma2 = final_strengths(restrict(g, kept), spec)
                if abs(sigma[x] - sigma2[x]) > CHECK_TOL:
                    return {"principle": principle, "argument": x, "removed": sub,
                            "full": sigma[x], "restricted": sigma2[x]}
        return None

    # weak_monotonicity
    for x in g.arguments:
        ax, sx = g.attackers(x), g.supporters(x)
        for y in g.arguments:
            if x == y:
                continue
            if not (ax >= g.attackers(y) and sx <= g.supporters(y)):
                continue
            if g.base_scores[x] <= g.base_scores[y] and sigma[x] > sigma[y] + CHECK_TOL:
                return {"principle": principle, "condition": 1, "x": x, "y": y,
                        "sigma_x": sigma[x], "sigma_y": sigma[y]}
            if sigma[y] < sigma[x] - CHECK_TOL and not g.base_scores[y] < g.base_scores[x]:
                return {"principle": principle, "condition": 2, "x": x, "y": y,
                        "sigma_x": sigma[x], "sigma_y": sigma[y]}
    return None

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
qe = (sum, 2-max(1)), all over [0, 1]; naive = (sum, additive) over the
reals, defined for acyclic graphs only.

A topology compiles once into a GraphPlan: its blocks are built in numpy
from the graph's index form and memoized, so graphs that share a topology
(a search, its verification, the strengths of its result) share them, while
each plan's tau holds its own graph's base scores. Each column of a
base-score matrix is one assignment of base scores to a plan. Acyclic
graphs are evaluated by a single forward pass over topological levels
(exact); cyclic graphs by synchronous fixed-point iteration from the base
scores, with non-convergent arguments reported as undefined. Both run the
same pass over plan blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import CyclicGraphError, DomainError
from .graph import QBAG, index_form, parents_map, reachable_from, restrict, topological_levels

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
        # linear divides by k; a k whose reciprocal overflows turns w / k
        # into inf and a zero aggregate's term into inf * 0 = NaN
        if not (0.0 < self.k < math.inf and math.isfinite(1.0 / self.k)):
            raise ValueError("influence parameter k must be positive, finite and have a finite reciprocal")
        if self.kind == "p_max" and (self.p < 1 or int(self.p) != self.p):
            raise ValueError("p_max needs a positive integer p")


@dataclass(frozen=True)
class SemanticsSpec:
    aggregation: str  # "sum" | "product"
    influence: Influence
    domain: StrengthDomain = UNIT_INTERVAL
    epsilon: float = 1e-9  # fixed-point convergence threshold
    max_sweeps: int = 10_000
    acyclic_only: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.aggregation not in ("sum", "product"):
            raise ValueError(f"unknown aggregation: {self.aggregation!r}")


DFQUAD = SemanticsSpec("product", Influence("linear", k=1.0), UNIT_INTERVAL, name="dfquad")
EULER_BASED = SemanticsSpec("sum", Influence("euler_based"), UNIT_INTERVAL, name="eb")
QUADRATIC_ENERGY = SemanticsSpec("sum", Influence("p_max", k=1.0, p=2), UNIT_INTERVAL, name="qe")
NAIVE = SemanticsSpec("sum", Influence("additive"), ALL_REALS, acyclic_only=True, name="naive")

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
    except KeyError:
        raise ValueError(f"unknown semantics token: {token!r} (expected one of {sorted(_BUILTINS)})")


def semantics_from_config(config: str | Mapping) -> SemanticsSpec:
    """Build a semantics from a token or a custom {"aggregation", "influence"} object."""
    if isinstance(config, str):
        return builtin_semantics(config)
    unknown = set(config) - {"aggregation", "influence"}
    if unknown:
        raise ValueError(f"unknown keys in semantics config: {sorted(unknown)}")
    agg = config.get("aggregation")
    inf = config.get("influence")
    if not isinstance(inf, Mapping) or "kind" not in inf:
        raise ValueError('custom semantics need an influence object with a "kind"')
    if set(inf) - {"kind", "k", "p"}:
        raise ValueError(f"unknown keys in influence config: {sorted(set(inf) - {'kind', 'k', 'p'})}")
    kind = inf["kind"]
    if kind == "linear":
        influence = Influence("linear", k=float(inf.get("k", 1.0)))
    elif kind == "euler_based":
        influence = Influence("euler_based")
    elif kind == "p_max":
        influence = Influence("p_max", k=float(inf.get("k", 1.0)), p=int(inf.get("p", 2)))
    else:
        raise ValueError(f"unknown influence kind: {kind!r}")
    return SemanticsSpec(str(agg), influence, UNIT_INTERVAL)


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


def _apply_influence(inf: Influence, w, s):
    """Influence formulas, vectorized over numpy arrays (or floats)."""
    if inf.kind == "linear":
        # dividing by 1.0 is exact, so DF-QuAD's k = 1 skips both divisions
        w_k, rest_k = (w, 1.0 - w) if inf.k == 1.0 else (w / inf.k, (1.0 - w) / inf.k)
        return w - w_k * np.maximum(0.0, -s) + rest_k * np.maximum(0.0, s)
    if inf.kind == "euler_based":
        return 1.0 - (1.0 - w * w) / (1.0 + w * np.exp(s))
    if inf.kind == "p_max":
        # h(s/k) and h(-s/k) share |s/k|, and one of the two is 0, so its
        # term adds or subtracts an exact zero: one h and one np.where give
        # the two-term formula of the module docstring bit for bit. Capping
        # |s/k|^p at the largest float gives h its limit 1.0 where the power
        # overflows (inf / inf would be NaN) and leaves finite values as they are.
        hs = np.minimum(np.abs(s / inf.k) ** inf.p, _FLOAT_MAX)
        h = hs / (1.0 + hs)
        return np.where(s > 0.0, w + (1.0 - w) * h, w - w * h)
    # additive
    return w + s


def influence_value(inf: Influence, w: float, s: float) -> float:
    return float(_apply_influence(inf, float(w), float(s)))


class GraphPlan:
    """Index-based evaluation plan: one graph's base scores on its topology.

    `blocks` lists (rows, cols, w, att, supp): rows evaluated together, the
    parent columns their aggregation reads, and over (rows, cols) the signed
    weight (support +1, attack -1) and the attack and support 0/1 matrices.
    An acyclic graph has one block per topological level with only that
    level's parents as columns, so no n x n matrix; a cyclic graph has one
    block over all rows and columns. The topology part (ids, index, n,
    acyclic, blocks) is built once and memoized, so graphs with one topology
    share it and its arrays are read-only; `graph` and `tau`, the graph's
    base scores, belong to each plan.
    """

    def __init__(self, g: QBAG):
        self.graph = g
        self.ids, self.index, self.n, self.acyclic, self.blocks = _topology(
            tuple(g.arguments), frozenset(g.attacks), frozenset(g.supports)
        )
        self.tau = np.fromiter(map(g.base_scores.__getitem__, self.ids), dtype=float, count=self.n)


class _Topology(NamedTuple):
    ids: tuple[str, ...]
    index: Mapping[str, int]
    n: int
    acyclic: bool
    blocks: tuple[tuple, ...]


# Topologies the memo keeps. A request compiles one topology several times
# in a row (a search, its verification, the strengths of its result), and
# every entry keeps its graph's edge sets alive, so the memo stays small.
_TOPOLOGY_MEMO = 2


@lru_cache(maxsize=_TOPOLOGY_MEMO)
def _topology(arguments: tuple[str, ...], attacks: frozenset, supports: frozenset) -> _Topology:
    """The blocks of a topology, built from its index form with no per-edge
    loop. A block's rows are its level's members in argument order and its
    columns the distinct (level, source) pairs of the level's edges; a
    cyclic graph is one level whose columns are all arguments. Every
    block's weights are one view into a single flat array."""
    index, src, dst, sign, depth = index_form(arguments, attacks, supports)
    n = len(arguments)
    level = np.zeros(n, dtype=np.intp) if depth is None else depth
    edge_level = level[dst]
    key = edge_level * n + src  # (level, source) of each edge
    col_keys = np.arange(n) if depth is None else np.unique(key)
    levels = int(level.max(initial=-1)) + 1
    members = np.argsort(level, kind="stable")
    row_count = np.bincount(level, minlength=levels)
    row_start = np.cumsum(row_count) - row_count
    row_of = np.empty(n, dtype=np.intp)
    row_of[members] = np.arange(n) - row_start[level[members]]
    col_level, cols = np.divmod(col_keys, n)
    col_count = np.bincount(col_level, minlength=levels)
    col_start = np.cumsum(col_count) - col_count
    size = row_count * col_count
    offset = np.cumsum(size) - size

    col_of = np.searchsorted(col_keys, key) - col_start[edge_level]
    w = np.zeros(int(size.sum()))
    w[offset[edge_level] + row_of[dst] * col_count[edge_level] + col_of] = sign
    flat = (members, cols, w, (w < 0.0) * 1.0, (w > 0.0) * 1.0)
    for part in flat:
        part.flags.writeable = False  # views made from here on are read-only too
    member_ids, col_ids = members.tolist(), cols.tolist()

    blocks = []
    for r0, nr, c0, nc, o in zip(*(a.tolist() for a in (row_start, row_count, col_start, col_count, offset))):
        weights = tuple(part[o:o + nr * nc].reshape(nr, nc) for part in flat[2:])
        blocks.append((_indexer(members, member_ids, r0, nr), _indexer(cols, col_ids, c0, nc)) + weights)
    return _Topology(arguments, MappingProxyType(index), n, depth is not None, tuple(blocks))


def _indexer(ascending: np.ndarray, listed: list[int], start: int, count: int) -> slice | np.ndarray:
    """ascending[start:start + count], unique indices in ascending order
    (`listed` is the same as a list), as a slice when they form one
    contiguous run (indexing then makes a view, not a copy), else as an
    index array."""
    if count and listed[start + count - 1] - listed[start] == count - 1:
        return slice(listed[start], listed[start + count - 1] + 1)
    return ascending[start:start + count]


def compile_graph(g: QBAG) -> GraphPlan:
    return GraphPlan(g)


def _masked_product(mask, factors):
    """prod over the entries of `factors` where the 0/1 `mask` is 1, batched:
    (rows, cols) x (cols, B)."""
    return np.where(mask[:, :, None] > 0.0, factors[None, :, :], 1.0).prod(axis=1)


def _parentless(inf: Influence, w):
    """influence(w, 0) bit for bit without evaluating the aggregate: the
    zero-aggregate terms of linear, p_max and additive add +0.0 to w, and
    under euler_based exp(0) is exactly 1."""
    if inf.kind == "euler_based":
        return 1.0 - (1.0 - w * w) / (1.0 + w)
    return w + 0.0


def level_pass(plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray, src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Evaluate every block in order: out[rows] = influence(tau[rows],
    aggregate(src[cols])). With out is src this is the exact forward pass over
    topological levels; with a fresh out it is one synchronous sweep. No
    checks: tau, src and out have shape (n_arguments, batch)."""
    for rows, cols, w, att, supp in plan.blocks:
        if not w.size:  # parentless: the aggregate is 0
            out[rows] = _parentless(spec.influence, tau[rows])
            continue
        if spec.aggregation == "sum":
            agg = w @ src[cols]
        else:
            factors = 1.0 - src[cols]
            low = np.minimum.reduce(factors, axis=None)
            if low >= 0.0:  # the floor only moves factors below it
                logs = np.log(factors if low >= _LOG_FLOOR else np.maximum(factors, _LOG_FLOOR))
                agg = np.exp(att @ logs) - np.exp(supp @ logs)
            else:  # negative factors (out-of-domain strengths): exact masked products
                agg = _masked_product(att, factors) - _masked_product(supp, factors)
        out[rows] = _apply_influence(spec.influence, tau[rows], agg)
    return out


def _fixed_point(plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Synchronous (Jacobi) iteration from tau. Returns (sigma, defined mask).

    On non-convergence, every argument that is still moving, plus everything
    reachable from one, is marked undefined; stabilized parts keep their values.
    """
    current = tau.copy()
    delta = np.zeros(tau.shape)
    for _ in range(spec.max_sweeps):
        nxt = level_pass(plan, spec, tau, current, np.empty_like(current))
        delta = np.abs(nxt - current)
        current = nxt
        if delta.max(initial=0.0) < spec.epsilon:
            return current, np.ones(tau.shape, dtype=bool)
    return current, ~_tainted(plan, delta >= spec.epsilon)


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


def evaluate_matrix(
    plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray, method: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a batch of base-score columns; returns (sigma, defined).

    method: "auto" picks the forward pass for acyclic graphs, "iterative"
    forces fixed-point iteration (used to cross-check the two evaluators).

    A column's strengths depend on the batch width only through rounding
    and, on cyclic plans, through the stopping sweep. On acyclic plans they
    agree with the column's width-1 evaluation within 1e-12 (matrix
    products sum in a width-dependent order). On cyclic plans the sweeps go
    on until every column of the batch has settled, so a column may take
    more sweeps in a wider batch; there they agree within 10 * spec.epsilon.
    """
    if tau.ndim != 2 or tau.shape[0] != plan.n:
        raise ValueError("tau must have shape (n_arguments, batch)")
    if not plan.acyclic:
        if spec.acyclic_only:
            raise CyclicGraphError(f"semantics {spec.name!r} is defined for acyclic graphs only")
        return _fixed_point(plan, spec, tau)
    if method == "iterative":
        return _fixed_point(plan, spec, tau)
    sigma = np.empty_like(tau)
    return level_pass(plan, spec, tau, sigma, sigma), np.ones(tau.shape, dtype=bool)


def check_scores_in_domain(plan: GraphPlan, spec: SemanticsSpec, tau: np.ndarray) -> None:
    if spec.domain.bounded:
        # written as a negated "inside" test so that NaN counts as outside
        out = ~((tau >= spec.domain.lower) & (tau <= spec.domain.upper))
        if out.any():
            bad = plan.ids[int(np.nonzero(out.any(axis=1))[0][0])]
            raise DomainError(
                f"base score of {bad!r} outside domain [{spec.domain.lower}, {spec.domain.upper}]"
            )


def final_strengths(g: QBAG, spec: SemanticsSpec, method: str = "auto") -> dict[str, float | None]:
    """Final strength of every argument; None marks a strength left undefined
    by a non-convergent fixed-point iteration."""
    plan = compile_graph(g)
    tau = plan.tau.reshape(-1, 1)
    check_scores_in_domain(plan, spec, tau)
    sigma, defined = evaluate_matrix(plan, spec, tau, method=method)
    return {
        a: (float(sigma[i, 0]) if defined[i, 0] else None)
        for i, a in enumerate(plan.ids)
    }


def _strengths_or_raise(g: QBAG, spec: SemanticsSpec) -> dict[str, float]:
    out = final_strengths(g, spec)
    if any(v is None for v in out.values()):
        raise CyclicGraphError("fixed-point iteration did not converge")
    return out  # type: ignore[return-value]


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
    sigma = _strengths_or_raise(g, spec)

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
            attacks = g.attacks - {edge}
            supports = g.supports - {edge}
            smaller = QBAG(g.arguments, g.base_scores, frozenset(attacks), frozenset(supports))
            sigma2 = _strengths_or_raise(smaller, spec)
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
                sigma2 = _strengths_or_raise(restrict(g, kept), spec)
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

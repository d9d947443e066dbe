"""Iterative heuristic search for strength change explanations.

A search runs on the query's compiled plan. Each iteration evaluates the
order-violation cost, estimates its gradient with respect to every mutable
base score by finite differences (one batched strength evaluation covers
the unperturbed point plus all perturbations), and applies an Adam update
clamped to the strength domain. Success means the cost dropped to the
configured tolerance; the winning assignment is re-verified with a fresh
width-1 evaluation on the same plan before it is returned.

A search allocates one workspace: the finite-difference batch and the
level pass's buffers at its width (semantics.PassBuffers), refilled in
place on every iteration. On acyclic plans the batch goes straight through
the level pass, without evaluate_matrix's checks and defined mask; cyclic
plans, with the same buffers, and the width-1 acceptance checks go through
OrderingRule.strengths, which raises only when a topic's strength is
undefined. The arithmetic is that of a fresh batch per iteration, so
trajectories are the same bit for bit. Each iteration's Adam update is one
adam_step on the restart's AdamState.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .errors import UndefinedStrengthError, checked_int, checked_object, checked_real, json_document
from .explanation import DesiredOrdering, ExplanationQuery, StrengthChange
from .semantics import PassBuffers, SemanticsSpec, level_pass


@dataclass(frozen=True)
class SearchConfig:
    max_iterations: int = 100
    perturbation: float = 1e-4
    # 0.05 keeps Adam's near-constant steps from overshooting topic scores
    # into the domain boundary, where exact ties blunt the achieved ordering.
    alpha: float = 0.05
    alpha_decay: float = 1.0   # per-iteration step-size factor; < 1 anneals
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    cost_tolerance: float = 0.0
    rng_seed: int = 0
    restarts: int = 0          # extra seeded-jitter starts after the plain one
    restart_jitter: float = 0.5
    satisfaction: str = "weak"  # success criterion: "weak" (cost only) or "exact"
    record_trajectory: bool = False

    def __post_init__(self):
        for name, least in (("max_iterations", 1), ("restarts", 0), ("rng_seed", 0)):
            object.__setattr__(self, name, checked_int(getattr(self, name), name, least))
        if not isinstance(self.record_trajectory, bool):
            raise ValueError(f"record_trajectory must be true or false, got {self.record_trajectory!r}")
        for name in ("perturbation", "alpha", "alpha_decay", "beta1", "beta2", "adam_eps",
                     "cost_tolerance", "restart_jitter"):
            object.__setattr__(self, name, checked_real(getattr(self, name), name))
        if self.perturbation <= 0:
            raise ValueError("perturbation must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.alpha_decay <= 1.0:
            raise ValueError("alpha_decay must be in (0, 1]")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.satisfaction not in ("weak", "exact"):
            raise ValueError(f"unknown satisfaction mode: {self.satisfaction!r}")


def search_config_from_json(data: str | bytes) -> SearchConfig:
    return search_config_from_doc(json_document(data, "search config"))


def search_config_from_doc(doc: object) -> SearchConfig:
    """The config of a decoded search config object: SearchConfig's fields
    as keys, each optional."""
    return SearchConfig(**checked_object(doc, "search config", {f.name for f in fields(SearchConfig)}))


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "not_found"
    change: StrengthChange | None
    iterations_used: int
    final_cost: float
    final_scores: dict[str, float]  # base scores at termination (best restart)
    trajectory: list[float] | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "change": dict(self.change.sorted_items()) if self.change is not None else None,
            "iterations_used": self.iterations_used,
            "final_cost": self.final_cost,
            "final_scores": self.final_scores,
        }
        if self.trajectory is not None:
            doc["trajectory"] = self.trajectory
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def relu_cost(strengths: Mapping[str, float], ordering: DesiredOrdering) -> float:
    """Order-violation cost: for every pair with x in a strictly higher tier
    than y, max(0, sigma(y) - sigma(x)); same-tier pairs contribute their
    absolute strength difference (so single-tier orderings demand equality).
    Zero exactly when the ordering is weakly satisfied with same-tier ties.
    The scalar reference for OrderingRule.costs.
    """
    rank = ordering.tier_of()
    topics = sorted(rank)
    for x in topics:
        if strengths.get(x) is None:
            raise UndefinedStrengthError(f"strength of topic {x!r} missing or undefined")
    cost = 0.0
    for i, x in enumerate(topics):
        for y in topics[i + 1:]:
            if rank[x] == rank[y]:
                cost += abs(strengths[x] - strengths[y])
            elif rank[x] < rank[y]:
                cost += max(0.0, strengths[x] - strengths[y])
            else:
                cost += max(0.0, strengths[y] - strengths[x])
    return cost


class _Workspace:
    """The buffers one search reuses on every iteration: the finite-difference
    batch (theta in column 0, theta with mutable score j perturbed in column
    j + 1) and the level pass's buffers at its width, strengths included."""

    def __init__(self, query: ExplanationQuery, eps: float):
        self.plan, self.rule, self.m_idx = query.compiled
        self.spec, self.eps = query.semantics, eps
        self.batch = np.empty((self.plan.n, len(self.m_idx) + 1))
        self.buffers = PassBuffers(self.plan, len(self.m_idx) + 1)
        self.cols = np.arange(1, len(self.m_idx) + 1)
        self.upper = self.spec.domain.upper  # inf on an unbounded domain: every step is forward

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """Strengths of the batch at theta. Each mutable score steps forward,
        or backward where a forward step would leave the domain; the step
        signs are kept in self.dirs."""
        batch = self.batch
        batch[...] = theta[:, None]
        base = theta[self.m_idx]
        self.dirs = np.where(base + self.eps > self.upper, -1.0, 1.0)
        batch[self.m_idx, self.cols] = base + self.dirs * self.eps
        if self.plan.acyclic:
            return level_pass(self.plan, self.spec, batch, self.buffers.sigma, self.buffers)
        return self.rule.strengths(self.plan, self.spec, batch, self.buffers)

    def costs(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost at theta plus finite-difference gradients for every mutable
        index."""
        costs = self.rule.costs(self.evaluate(theta))
        return costs[0], self.jacobian(costs[None])[0]

    def jacobian(self, values: np.ndarray) -> np.ndarray:
        """Finite-difference Jacobian against the mutable scores of
        quantities given by their values on the last evaluated batch (one
        row per quantity, such as strengths or their differences)."""
        return self.dirs * (values[:, 1:] - values[:, :1]) / self.eps

    def check(self, theta: np.ndarray, cfg: SearchConfig) -> tuple[float, bool]:
        """Cost and acceptance of theta from a fresh width-1 evaluation, so
        the verdict does not depend on the finite-difference batch width."""
        sigma = self.rule.strengths(self.plan, self.spec, theta[:, None])
        cost = float(self.rule.costs(sigma)[0])
        if cost > cfg.cost_tolerance:
            return cost, False
        return cost, cfg.satisfaction == "weak" or bool(self.rule.holds(sigma, "exact")[0])

    def outcome(self, found: bool, theta: np.ndarray, iterations: int, cost: float,
                trajectory: list[float] | None) -> SearchOutcome:
        plan = self.plan
        change = StrengthChange({
            plan.ids[i]: float(theta[i]) for i in self.m_idx if theta[i] != plan.tau[i]
        }) if found else None
        return SearchOutcome(
            "found" if found else "not_found",
            change,
            iterations,
            cost,
            {a: float(theta[plan.index[a]]) for a in plan.ids},
            trajectory,
        )


def finite_diff_gradient(
    g,
    spec: SemanticsSpec,
    ordering: DesiredOrdering,
    mutable,
    eps: float = 1e-4,
) -> dict[str, float]:
    """Difference-quotient gradient of the cost w.r.t. each mutable base score."""
    query = ExplanationQuery(g, spec, mutable, ordering)
    workspace = _Workspace(query, eps)
    _, grads = workspace.costs(workspace.plan.tau)
    return {a: float(v) for a, v in zip(sorted(query.mutable), grads)}


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(
    state: AdamState,
    gradients: np.ndarray,
    alpha: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[AdamState, np.ndarray]:
    """One Adam update, the one each search iteration applies (from a zero
    state at every restart); returns the new state and the additive
    parameter step."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * gradients
    v = beta2 * state.v + (1.0 - beta2) * gradients**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    step = -alpha * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(m, v, t), step


def heuristic_search(query: ExplanationQuery, cfg: SearchConfig | None = None) -> SearchOutcome:
    """Run the gradient-guided local search for an explanation.

    Deterministic for fixed inputs and config. Restart 0 starts from the
    graph's own base scores; restarts 1..cfg.restarts re-seed the mutable
    scores with uniform jitter around the originals.
    """
    cfg = cfg or SearchConfig()
    workspace = _Workspace(query, cfg.perturbation)
    return _adam_search(workspace, cfg, [] if cfg.record_trajectory else None)


def _adam_search(workspace: _Workspace, cfg: SearchConfig, trajectory: list[float] | None) -> SearchOutcome:
    """heuristic_search on a compiled workspace; appends each iteration's
    cost to `trajectory` unless it is None."""
    plan, spec, m_idx = workspace.plan, workspace.spec, workspace.m_idx
    if not m_idx.size:
        cost, ok = workspace.check(plan.tau, cfg)
        return workspace.outcome(ok, plan.tau, 1, cost, trajectory)

    total_iterations = 0
    best_cost = float("inf")
    best_theta = plan.tau.copy()
    for restart in range(cfg.restarts + 1):
        theta = plan.tau.copy()
        if restart > 0:
            rng = np.random.default_rng(cfg.rng_seed + restart)
            jitter = rng.uniform(-cfg.restart_jitter, cfg.restart_jitter, size=len(m_idx))
            theta[m_idx] = spec.domain.clamp(plan.tau[m_idx] + jitter)
        adam = AdamState(np.zeros(len(m_idx)), np.zeros(len(m_idx)))
        alpha = cfg.alpha
        for _ in range(cfg.max_iterations):
            total_iterations += 1
            cost0, grads = workspace.costs(theta)
            if trajectory is not None:
                trajectory.append(float(cost0))
            if cost0 <= cfg.cost_tolerance:
                cost, ok = workspace.check(theta, cfg)
                if ok:
                    return workspace.outcome(True, theta, total_iterations, cost, trajectory)
                if not np.any(grads):
                    break  # flat spot that fails the exact check: restart
            adam, step = adam_step(adam, grads, alpha, cfg.beta1, cfg.beta2, cfg.adam_eps)
            theta[m_idx] = spec.domain.clamp(theta[m_idx] + step)
            alpha *= cfg.alpha_decay
        cost_end, _ = workspace.check(theta, cfg)
        if cost_end < best_cost:
            best_cost = cost_end
            best_theta = theta.copy()

    return workspace.outcome(False, best_theta, total_iterations, best_cost, trajectory)

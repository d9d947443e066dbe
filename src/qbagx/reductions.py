"""From-scratch ordering problems and exact-strength targets, solved by
reduction to explanation queries.

The inverse problem asks for base scores (the graph starts with none)
realizing a desired ordering of all arguments; we assign a uniform score,
make everything mutable, and solve. The strong counterfactual problem
asks for base scores driving one argument's final strength to an exact
target; we add a parentless reference argument pinned to the target (its
strength never moves, by stability) and demand a same-tier ordering with
the topic, so the cost becomes |sigma(topic) - target|. The reduced graph
keeps the problem graph's edge sets, so while that graph lives the reduced
one derives its topology from it (graph.Topology.extended) instead of
checking the edges and building one per solve.

Both reduced queries are solved Jacobian first: the finite-difference batch
that a search evaluates per iteration holds the derivative of every
strength against every mutable score, and damped least-squares steps on it
(a projected Newton step on sigma(topic) - target for a counterfactual)
reach the target in a few batches with a small change. When those steps
stall, the query goes to heuristic_search's Adam loop from the start, with
the same config and its restarts, on the same compiled plan; the outcome's
iterations_used counts the batches of both phases. The explanation search
itself (heuristic_search) is the paper's Adam heuristic and does not take
Jacobian steps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .errors import GraphFormatError, UndefinedStrengthError, UnknownArgumentError, checked_ids, checked_real, json_object
from .explanation import DesiredOrdering, ExplanationQuery, ordering_from_doc, ordering_from_tiers
from .graph import QBAG, Edge, make_qbag
from .search import SearchConfig, SearchOutcome, _adam_search, _Workspace
from .semantics import SemanticsSpec, final_strengths


@dataclass(frozen=True)
class InverseProblem:
    arguments: tuple[str, ...]
    attacks: frozenset[Edge]
    supports: frozenset[Edge]
    ordering: DesiredOrdering

    def __post_init__(self):
        # the ids, kept sorted and once each, and the edges as make_qbag checks and keeps them
        graph = make_qbag(dict.fromkeys(checked_ids(self.arguments, "problem arguments", GraphFormatError), 0.0),
                          self.attacks, self.supports)
        for name in ("arguments", "attacks", "supports"):
            object.__setattr__(self, name, getattr(graph, name))
        if self.ordering.topic_set != frozenset(self.arguments):
            raise GraphFormatError("the desired ordering must cover exactly the argument set")


def inverse_problem_from_json(data: str | bytes) -> InverseProblem:
    """The problem of a JSON {"arguments", "attacks", "supports", "ordering"}
    document: its edges and ordering follow the graph's and the ordering
    document's rules, and attacks and supports may be omitted."""
    doc = json_object(data, "problem document", {f.name for f in fields(InverseProblem)}, GraphFormatError)
    return InverseProblem(doc.get("arguments"), doc.get("attacks", []), doc.get("supports", []),
                          ordering_from_doc(doc.get("ordering")))


def make_inverse_problem(arguments: Iterable[str], attacks, supports, tiers) -> InverseProblem:
    return InverseProblem(arguments, attacks, supports, ordering_from_tiers(tiers))


@dataclass(frozen=True)
class CounterfactualProblem:
    """Drive sigma(topic) to exactly `target` by changing base scores.

    Carries its semantics: the problem is only meaningful relative to one,
    and construction rejects targets equal to the current final strength.
    """

    graph: QBAG
    topic: str
    target: float
    semantics: SemanticsSpec

    def __post_init__(self):
        checked_ids((self.topic,), "counterfactual topic", GraphFormatError)
        if self.topic not in self.graph.base_scores:
            raise UnknownArgumentError(f"unknown topic argument: {self.topic!r}")
        object.__setattr__(self, "target", checked_real(self.target, "target strength", GraphFormatError))
        if not self.semantics.domain.contains(self.target):
            raise GraphFormatError(f"target strength {self.target} outside the semantics domain")
        current = final_strengths(self.graph, self.semantics)[self.topic]
        if current is not None and current == self.target:
            raise GraphFormatError("target strength equals the current final strength")


def assign_uniform(problem: InverseProblem, s: float) -> QBAG:
    """The problem's graph with every base score set to s."""
    return make_qbag({a: s for a in problem.arguments}, problem.attacks, problem.supports)


# The fallback search of solve_inverse. It needs restarts: the uniform start
# ties every strength, a flat spot the plain gradient step cannot leave for
# strict orderings.
INVERSE_SEARCH_DEFAULTS = SearchConfig(
    max_iterations=300, alpha=0.05, restarts=8, restart_jitter=0.5, satisfaction="exact"
)


def solve_inverse(
    problem: InverseProblem,
    spec: SemanticsSpec,
    cfg: SearchConfig | None = None,
    s: float = 0.0,
) -> dict[str, float] | None:
    """Full base-score assignment realizing the ordering, or None.

    Solves the query with every argument mutable from the uniform-s graph
    (see _solve); success requires the exact ordering, not just the weak one.
    """
    if cfg is None:
        cfg = INVERSE_SEARCH_DEFAULTS
    elif cfg.satisfaction != "exact":
        cfg = replace(cfg, satisfaction="exact")
    start = assign_uniform(problem, s)
    query = ExplanationQuery(start, spec, frozenset(problem.arguments), problem.ordering)
    outcome = _solve(query, cfg)
    if not outcome.found:
        return None
    scores = dict(start.base_scores)
    scores.update(outcome.change.entries)
    return scores


def reduce_counterfactual(problem: CounterfactualProblem, dummy_id: str | None = None) -> ExplanationQuery:
    """Explanation query whose solutions hit the exact-strength target.

    Adds a parentless reference argument with base score = target and asks
    for it to tie with the topic; the original arguments stay mutable, the
    reference does not.
    """
    g = problem.graph
    if dummy_id is None:
        dummy_id = "y"
        while dummy_id in g.base_scores:
            dummy_id += "_"
    elif checked_ids((dummy_id,), "dummy argument id", GraphFormatError)[0] in g.base_scores:
        raise GraphFormatError(f"dummy argument id {dummy_id!r} collides with an existing argument")
    scores = dict(g.base_scores)
    scores[dummy_id] = problem.target
    augmented = make_qbag(scores, g.attacks, g.supports)
    ordering = ordering_from_tiers([[problem.topic, dummy_id]])
    return ExplanationQuery(augmented, problem.semantics, frozenset(g.arguments), ordering)


# The fallback search of solve_counterfactual. The annealed step lets Adam
# settle below the equality tolerance instead of oscillating at the scale of
# a constant step size.
COUNTERFACTUAL_SEARCH_DEFAULTS = SearchConfig(
    max_iterations=600, alpha=0.05, alpha_decay=0.99, cost_tolerance=1e-6,
    restarts=4, restart_jitter=0.5,
)


def solve_counterfactual(
    problem: CounterfactualProblem,
    cfg: SearchConfig | None = None,
    dummy_id: str | None = None,
) -> tuple[dict[str, float] | None, SearchOutcome]:
    """Search for base scores with |sigma(topic) - target| within tolerance.

    Exact equality is unreachable in floating point, so success is declared
    at cost <= cfg.cost_tolerance (default 1e-6) and the residual is
    reported via the outcome's final_cost. The reduced query is solved by
    _solve, so outcome.iterations_used counts the batch evaluations of the
    Jacobian phase plus, when it stalls, those of the fallback search: with
    SearchConfig(max_iterations=1, restarts=0) an unsolved problem reports 2.
    """
    if cfg is None:
        cfg = COUNTERFACTUAL_SEARCH_DEFAULTS
    query = reduce_counterfactual(problem, dummy_id)
    outcome = _solve(query, cfg)
    if not outcome.found:
        return None, outcome
    scores = {a: outcome.final_scores[a] for a in problem.graph.arguments}
    return scores, outcome


# A Jacobian step is halved at most this many times before the phase stalls.
_HALVINGS = 4
# Each violated cross-tier pair is asked for sigma(weak) <= sigma(strong) -
# _MARGIN, so that the exact check, which needs strict order, can pass.
_MARGIN = 1e-3


def _solve(query: ExplanationQuery, cfg: SearchConfig) -> SearchOutcome:
    """Damped Jacobian steps on the search's workspace, then, if they stall,
    heuristic_search from the start on the same plan.

    Each iteration evaluates one finite-difference batch, whose strengths
    hold the Jacobian J of every strength against every mutable score. The
    residuals are sigma(a) - sigma(b) for each same-tier pair and
    sigma(weak) - sigma(strong) + _MARGIN for each cross-tier pair above
    -_MARGIN; the step is the least-squares solution of
    (J[a] - J[b]) step = -residual, with the scores at a bound that it would
    push outward held fixed. For the counterfactual's single pair this is the projected
    Newton step -r g / |g|^2 on r = sigma(topic) - target. A trial point is
    kept when the residuals' absolute sum falls; otherwise the step is
    halved, up to _HALVINGS times, after which the phase stalls. A point is
    returned only when it passes the search's width-1 acceptance check.
    Both phases run at most cfg.max_iterations batches per run (the fallback
    once per restart), and iterations_used counts the batches of both.
    """
    ws = _Workspace(query, cfg.perturbation)
    trajectory = [] if cfg.record_trajectory else None
    clamp, lower, upper = ws.spec.domain.clamp, ws.spec.domain.lower, ws.spec.domain.upper
    m_idx, rule = ws.m_idx, ws.rule
    a = np.concatenate([rule.weak, rule.tie_a])
    b = np.concatenate([rule.strong, rule.tie_b])
    ties = np.arange(a.size) >= rule.weak.size
    margin = np.where(ties, 0.0, _MARGIN)
    theta = trial = ws.plan.tau.copy()
    merit, t, used = float("inf"), 1.0, 0
    while used < cfg.max_iterations and m_idx.size:
        used += 1
        try:
            sigma = ws.evaluate(trial)
        except UndefinedStrengthError:
            break  # leave a point that does not converge to the fallback
        cost = float(rule.costs(sigma[:, :1])[0])
        if trajectory is not None:
            trajectory.append(cost)
        if cost <= cfg.cost_tolerance:
            cost, ok = ws.check(trial, cfg)
            if ok:
                return ws.outcome(True, trial, used, cost, trajectory)
        diff = sigma[a] - sigma[b]
        residual = diff[:, 0] + margin
        rows = (residual > 0.0) | ties
        residual = residual[rows]
        trial_merit = float(np.abs(residual).sum())
        if trial_merit < merit:
            theta, merit, t = trial, trial_merit, 1.0
            jac = ws.jacobian(diff[rows])
            step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
            at = theta[m_idx]
            outward = ((at <= lower) & (step < 0.0)) | ((at >= upper) & (step > 0.0))
            if outward.any():
                jac[:, outward] = 0.0
                step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
            if not step.any():
                break
        else:
            t *= 0.5
            if t < 0.5**_HALVINGS:
                break
        trial = theta.copy()
        trial[m_idx] = clamp(theta[m_idx] + t * step)
    fallback = _adam_search(ws, cfg, trajectory)
    return replace(fallback, iterations_used=used + fallback.iterations_used)

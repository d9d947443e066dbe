"""From-scratch ordering problems and exact-strength targets, solved by
reduction to explanation queries.

The inverse problem asks for base scores (the graph starts with none)
realizing a desired ordering of all arguments; we assign a uniform score,
make everything mutable, and search. The strong counterfactual problem
asks for base scores driving one argument's final strength to an exact
target; we add a parentless reference argument pinned to the target (its
strength never moves, by stability) and demand a same-tier ordering with
the topic, so the cost becomes |sigma(topic) - target|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .errors import GraphFormatError, UnknownArgumentError
from .explanation import DesiredOrdering, ExplanationQuery, ordering_from_tiers
from .graph import QBAG, Edge, check_edges, make_qbag
from .search import SearchConfig, SearchOutcome, heuristic_search
from .semantics import SemanticsSpec, final_strengths


@dataclass(frozen=True)
class InverseProblem:
    arguments: tuple[str, ...]
    attacks: frozenset[Edge]
    supports: frozenset[Edge]
    ordering: DesiredOrdering

    def __post_init__(self):
        check_edges(set(self.arguments), self.attacks, self.supports)
        if self.ordering.topic_set != frozenset(self.arguments):
            raise GraphFormatError("the desired ordering must cover exactly the argument set")


def make_inverse_problem(arguments: Iterable[str], attacks, supports, tiers) -> InverseProblem:
    return InverseProblem(
        tuple(sorted(set(arguments))),
        frozenset((str(a), str(b)) for a, b in attacks),
        frozenset((str(a), str(b)) for a, b in supports),
        ordering_from_tiers(tiers),
    )


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
        if self.topic not in self.graph.base_scores:
            raise UnknownArgumentError(f"unknown topic argument: {self.topic!r}")
        if not self.semantics.domain.contains(self.target):
            raise GraphFormatError(f"target strength {self.target} outside the semantics domain")
        current = final_strengths(self.graph, self.semantics)[self.topic]
        if current is not None and current == self.target:
            raise GraphFormatError("target strength equals the current final strength")


def assign_uniform(problem: InverseProblem, s: float) -> QBAG:
    """The problem's graph with every base score set to s."""
    return make_qbag({a: s for a in problem.arguments}, problem.attacks, problem.supports)


# Inverse solving needs restarts: the uniform start ties every strength, a
# flat spot the plain gradient step cannot leave for strict orderings.
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

    Runs the heuristic search from the uniform-s graph with every argument
    mutable; success requires the exact ordering, not just the weak one.
    """
    if cfg is None:
        cfg = INVERSE_SEARCH_DEFAULTS
    elif cfg.satisfaction != "exact":
        cfg = replace(cfg, satisfaction="exact")
    start = assign_uniform(problem, s)
    query = ExplanationQuery(start, spec, frozenset(problem.arguments), problem.ordering)
    outcome = heuristic_search(query, cfg)
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
    elif dummy_id in g.base_scores:
        raise GraphFormatError(f"dummy argument id {dummy_id!r} collides with an existing argument")
    scores = dict(g.base_scores)
    scores[dummy_id] = problem.target
    augmented = make_qbag(scores, g.attacks, g.supports)
    ordering = ordering_from_tiers([[problem.topic, dummy_id]])
    return ExplanationQuery(augmented, problem.semantics, frozenset(g.arguments), ordering)


# The annealed step lets Adam settle below the equality tolerance instead of
# oscillating at the scale of a constant step size.
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
    reported via the outcome's final_cost.
    """
    if cfg is None:
        cfg = COUNTERFACTUAL_SEARCH_DEFAULTS
    query = reduce_counterfactual(problem, dummy_id)
    outcome = heuristic_search(query, cfg)
    if not outcome.found:
        return None, outcome
    scores = {a: outcome.final_scores[a] for a in problem.graph.arguments}
    return scores, outcome

"""Desired orderings, strength changes, and explanation checks.

A desired ordering is a total preorder over a set of topic arguments,
represented as tiers listed weakest first. A strength change is a partial
reassignment of base scores (each entry must differ from the current
score); it explains the ordering when, restricted to the mutable set, its
application makes the graph's final strengths realize the ordering.

Two satisfaction modes exist. "exact" demands that the induced
final-strength preorder on the topic set equals the tier preorder (strict
inequality across tiers, equality within a tier). "weak" demands only that
no argument in a lower tier ends up strictly stronger than one in a higher
tier, which is the zero-of-the-ReLU-cost criterion the search targets.

OrderingRule holds the one verdict rule that the verifier, the search and
the oracle share: a column of base scores is judged by its topics' final
strengths only, so other arguments may stay undefined. The verifier and the
search raise UndefinedStrengthError for an undefined topic; the oracle counts
that column as not satisfying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    BudgetError,
    GraphFormatError,
    InvalidChangeError,
    UndefinedStrengthError,
    UnknownArgumentError,
    checked_ids,
    checked_items,
    checked_object,
    json_document,
    json_object,
)
from .graph import QBAG, _checked_scores, make_qbag
from .semantics import GraphPlan, SemanticsSpec, check_scores_in_domain, compile_graph, evaluate_matrix, final_strengths


@dataclass(frozen=True)
class DesiredOrdering:
    """Tiers of argument ids (errors.checked_ids), weakest tier first."""

    tiers: tuple[frozenset[str], ...]

    def __post_init__(self):
        tiers = tuple(frozenset(checked_ids(tier, "ordering tier", GraphFormatError))
                      for tier in checked_items(self.tiers, "ordering tiers", "tiers", GraphFormatError))
        object.__setattr__(self, "tiers", tiers)
        seen: set[str] = set()
        for tier in tiers:
            if not tier:
                raise GraphFormatError("ordering tiers must be non-empty")
            if seen & tier:
                raise GraphFormatError(f"argument(s) in multiple tiers: {sorted(seen & tier)}")
            seen |= tier

    @property
    def topic_set(self) -> frozenset[str]:
        return frozenset(x for tier in self.tiers for x in tier)

    def tier_of(self) -> dict[str, int]:
        return {x: i for i, tier in enumerate(self.tiers) for x in tier}

    def ranked_topics(self, strengths: Mapping[str, float | None]) -> tuple[dict[str, int], list[str]]:
        """(tier_of(), the topics sorted by id), or UndefinedStrengthError
        naming the first of them whose strength is missing or None."""
        rank = self.tier_of()
        topics = sorted(rank)
        for x in topics:
            if strengths.get(x) is None:
                raise UndefinedStrengthError(f"strength of topic {x!r} missing or undefined")
        return rank, topics

    def as_pairs(self) -> set[tuple[str, str]]:
        """The preorder: (x, y) iff tier(x) <= tier(y)."""
        rank = self.tier_of()
        topics = sorted(self.topic_set)
        return {(x, y) for x in topics for y in topics if rank[x] <= rank[y]}

    def to_json(self) -> str:
        return json.dumps({"tiers": [sorted(t) for t in self.tiers]}, separators=(",", ":"))


ordering_from_tiers = DesiredOrdering  # the tiers as given, weakest first


def ordering_from_json(data: str | bytes) -> DesiredOrdering:
    return ordering_from_doc(json_document(data, "ordering document", GraphFormatError))


def ordering_from_doc(doc: object) -> DesiredOrdering:
    """The ordering of a decoded {"tiers": [[id, ...], ...]} document, or
    GraphFormatError naming the document."""
    tiers = checked_object(doc, "ordering document", {"tiers"}, GraphFormatError).get("tiers")
    try:
        return DesiredOrdering(tiers)
    except GraphFormatError as exc:
        raise GraphFormatError(f"ordering document: {exc}") from exc


def ordering_from_spec(text: str) -> DesiredOrdering:
    """Parse strongest-first command-line notation, e.g. "c>b" or "a=b>c"."""
    tiers_strongest_first = []
    for part in text.split(">"):
        tier = [x.strip() for x in part.split("=")]
        if any(not x for x in tier):
            raise GraphFormatError(f"bad ordering spec: {text!r}")
        tiers_strongest_first.append(tier)
    return ordering_from_tiers(reversed(tiers_strongest_first))


def ordering_to_spec(ordering: DesiredOrdering) -> str:
    return ">".join("=".join(sorted(t)) for t in reversed(ordering.tiers))


@dataclass(frozen=True)
class StrengthChange:
    """Partial map argument id -> new base score."""

    entries: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # checked as base scores are; the entries are kept as floats, sorted by id
        object.__setattr__(self, "entries", _checked_scores(self.entries, "change", InvalidChangeError))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.entries)

    def sorted_items(self) -> list[tuple[str, float]]:
        return sorted(self.entries.items())

    def __bool__(self) -> bool:
        return bool(self.entries)

    def to_json(self) -> str:
        return json.dumps({"changes": dict(self.sorted_items())}, separators=(",", ":"))


EMPTY_CHANGE = StrengthChange({})


def change_from_json(data: str | bytes) -> StrengthChange:
    changes = json_object(data, "strength change document", {"changes"}, GraphFormatError).get("changes")
    # a mapping under the identifier and number rules, as a GraphFormatError
    return StrengthChange(_checked_scores(changes, "change"))


@dataclass(frozen=True)
class ExplanationQuery:
    """A graph, a semantics, the mutable argument set, and a target ordering."""

    graph: QBAG
    semantics: SemanticsSpec
    mutable: frozenset[str]
    ordering: DesiredOrdering

    def __post_init__(self):
        for name, kind in (("graph", QBAG), ("semantics", SemanticsSpec), ("ordering", DesiredOrdering)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"query {name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        object.__setattr__(self, "mutable", frozenset(checked_ids(self.mutable, "query mutable")))
        missing = (self.mutable | self.ordering.topic_set) - set(self.graph.arguments)
        if missing:
            raise UnknownArgumentError(f"query names unknown arguments: {sorted(missing)}")

    @cached_property
    def compiled(self) -> tuple[GraphPlan, OrderingRule, np.ndarray]:
        """(plan, rule, mutable rows in id order), built on first use with the
        base scores checked (DomainError) and shared by every call on the query."""
        plan = compile_graph(self.graph)
        check_scores_in_domain(plan, self.semantics, plan.tau[:, None])
        rows = np.array([plan.index[a] for a in sorted(self.mutable)], dtype=int)
        return plan, OrderingRule(plan.index, self.ordering), rows

    def __getstate__(self):  # a copy or an unpickled query compiles again
        return {k: v for k, v in self.__dict__.items() if k != "compiled"}


def induced_ordering(g: QBAG, spec: SemanticsSpec, topics) -> set[tuple[str, str]]:
    """The final-strength preorder on `topics`: all (x, y) with sigma(x) <= sigma(y)."""
    topics = sorted(set(checked_ids(topics, "topics", UnknownArgumentError)))
    sigma = final_strengths(g, spec)
    for x in topics:
        if x not in sigma:
            raise UnknownArgumentError(f"unknown argument id: {x!r}")
        if sigma[x] is None:
            raise UndefinedStrengthError(f"final strength of {x!r} is undefined")
    return {(x, y) for x in topics for y in topics if sigma[x] <= sigma[y]}


class OrderingRule:
    """The one order check on final strengths, shared by explanation checks,
    the oracle and the search. Topic pairs become index arrays into a
    strength matrix of shape (n_arguments, batch): cross-tier pairs as
    (weak, strong), weak being the lower tier, same-tier pairs as (tie_a, tie_b).
    """

    def __init__(self, index: Mapping[str, int], ordering: DesiredOrdering):
        rank = ordering.tier_of()
        topics = sorted(rank)
        missing = [x for x in topics if x not in index]
        if missing:
            raise UnknownArgumentError(f"unknown argument id: {missing[0]!r}")
        self.topics = np.array([index[x] for x in topics], dtype=int)
        tier = np.array([rank[x] for x in topics], dtype=int)
        i, j = np.triu_indices(len(topics), 1)
        tie, swap = tier[i] == tier[j], tier[i] > tier[j]
        self.weak = self.topics[np.where(swap, j, i)[~tie]]
        self.strong = self.topics[np.where(swap, i, j)[~tie]]
        self.tie_a, self.tie_b = self.topics[i[tie]], self.topics[j[tie]]

    def costs(self, sigma: np.ndarray) -> np.ndarray:
        """Per-column order-violation cost, the batched form of `relu_cost`:
        max(0, sigma(weak) - sigma(strong)) per cross-tier pair plus
        |sigma(a) - sigma(b)| per same-tier pair. A term without pairs is
        skipped; the costs are the same as with its zero sum added."""
        if not self.tie_a.size:
            return np.maximum(0.0, sigma[self.weak] - sigma[self.strong]).sum(axis=0)
        ties = np.abs(sigma[self.tie_a] - sigma[self.tie_b]).sum(axis=0)
        if not self.weak.size:
            return ties
        return np.maximum(0.0, sigma[self.weak] - sigma[self.strong]).sum(axis=0) + ties

    def holds(self, sigma: np.ndarray, mode: str = "exact", tolerance: float = 0.0) -> np.ndarray:
        """Per-column verdict. weak: no lower-tier topic is strictly stronger
        than a higher-tier one. exact: for every topic pair, sigma(x) <=
        sigma(y) + tolerance holds iff tier(x) <= tier(y)."""
        lo, hi = sigma[self.weak], sigma[self.strong]
        if mode == "weak":
            return (lo <= hi).all(axis=0)
        if mode != "exact":
            raise ValueError(f"unknown satisfaction mode: {mode!r}")
        a, b = sigma[self.tie_a], sigma[self.tie_b]
        apart = (lo <= hi + tolerance) & ~(hi <= lo + tolerance)
        tied = (a <= b + tolerance) & (b <= a + tolerance)
        return apart.all(axis=0) & tied.all(axis=0)

    def required(self, mode: str) -> tuple[np.ndarray, np.ndarray]:
        """(first, second): the topic pairs for which `holds` in `mode`
        (tolerance 0) needs sigma(first) <= sigma(second): the cross-tier
        pairs, and in exact mode the same-tier pairs both ways."""
        if mode == "weak":
            return self.weak, self.strong
        if mode != "exact":
            raise ValueError(f"unknown satisfaction mode: {mode!r}")
        return np.concatenate((self.weak, self.tie_a, self.tie_b)), np.concatenate((self.strong, self.tie_b, self.tie_a))

    def evaluate(self, plan, spec: SemanticsSpec, tau: np.ndarray, buffers=None) -> tuple[np.ndarray, np.ndarray]:
        """Strengths of the base-score columns `tau` on `plan`, and which topic
        strengths are undefined (one row per topic). A column is judged by its
        topics' strengths alone, whatever the other arguments' strengths.
        `buffers` are the caller's semantics.PassBuffers, as evaluate_matrix
        takes them."""
        sigma, defined = evaluate_matrix(plan, spec, tau, buffers=buffers)
        return sigma, ~defined[self.topics]

    def strengths(self, plan, spec: SemanticsSpec, tau: np.ndarray, buffers=None) -> np.ndarray:
        """The strengths from `evaluate`, or UndefinedStrengthError naming the
        first topic whose strength is undefined in some column."""
        sigma, undefined = self.evaluate(plan, spec, tau, buffers)
        if undefined.any():
            topic = self.topics[undefined.any(axis=1).argmax()]
            raise UndefinedStrengthError(f"final strength of {plan.ids[topic]!r} is undefined")
        return sigma


def satisfies(
    g: QBAG,
    spec: SemanticsSpec,
    ordering: DesiredOrdering,
    mode: str = "exact",
    tolerance: float = 0.0,
) -> bool:
    """Does the graph's final-strength ordering realize the desired one?

    exact: the induced preorder on the topic set equals the tier preorder
    (tolerance widens what counts as a tie; the default 0.0 compares the
    computed strengths directly). weak: ties across tiers are allowed.
    """
    return is_explanation(ExplanationQuery(g, spec, frozenset(), ordering), EMPTY_CHANGE, mode, tolerance)


def validate_change(g: QBAG, change: StrengthChange, domain=None) -> None:
    for x, v in change.sorted_items():
        if x not in g.base_scores:
            raise UnknownArgumentError(f"strength change names unknown argument: {x!r}")
        if v == g.base_scores[x]:
            raise InvalidChangeError(f"entry for {x!r} equals its current base score ({v})")
        if domain is not None and not domain.contains(v):
            raise InvalidChangeError(f"entry for {x!r} ({v}) outside [{domain.lower}, {domain.upper}]")


def apply_change(g: QBAG, change: StrengthChange, domain=None) -> QBAG:
    """New graph with base scores replaced on the change's domain.

    Entries equal to the current score are rejected rather than dropped;
    callers that synthesize changes filter such entries out first.
    """
    validate_change(g, change, domain)
    scores = dict(g.base_scores)
    scores.update(change.entries)
    return make_qbag(scores, g.attacks, g.supports)


def amount_of_change(g: QBAG, change: StrengthChange) -> float:
    """L1 distance between old and new base scores over the changed arguments."""
    return sum(abs(v - g.base_scores[x]) for x, v in change.sorted_items())


def is_explanation(
    query: ExplanationQuery,
    change: StrengthChange,
    mode: str = "exact",
    tolerance: float = 0.0,
) -> bool:
    """True iff the change stays within the mutable set and its application
    satisfies the desired ordering. A base score outside the domain raises
    DomainError, even one the change overwrites."""
    if not change.domain <= query.mutable:
        return False
    validate_change(query.graph, change, query.semantics.domain)
    plan, rule, _ = query.compiled
    tau = plan.tau.copy()
    for x, v in change.entries.items():
        tau[plan.index[x]] = v
    sigma = rule.strengths(plan, query.semantics, tau[:, None])
    return bool(rule.holds(sigma, mode, tolerance)[0])


def is_epsilon_approximate(
    query: ExplanationQuery,
    change: StrengthChange,
    epsilon: float,
    grid=None,
    mode: str = "weak",
) -> str:
    """Can any explanation beat this one by more than epsilon?

    oracle.certify_epsilon's verdict, which checks epsilon and the change,
    on `grid` (by default oracle.GridSpec()): "no" when the brute-force
    oracle finds a strictly better witness, "yes" when it can certify none
    exists, and "unknown" when its grid resolution cannot settle the
    question or the grid exceeds its budget.
    """
    from .oracle import certify_epsilon  # local import breaks the module cycle

    try:
        return certify_epsilon(query, change, epsilon, grid, mode)
    except BudgetError:
        return "unknown"

"""Quantitative bipolar argumentation graphs: structure, queries, JSON I/O.

A graph holds a set of arguments with real-valued base scores plus two
disjoint directed edge relations (attacks and supports). Graphs are
immutable after construction and every operation is pure; arguments are
kept sorted by id so iteration order is deterministic.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Collection
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GraphFormatError, UnknownArgumentError

Edge = tuple[str, str]


@dataclass(frozen=True, eq=True)
class QBAG:
    arguments: tuple[str, ...]
    base_scores: dict[str, float]
    attacks: frozenset[Edge]
    supports: frozenset[Edge]

    def __contains__(self, arg: str) -> bool:
        return arg in self.base_scores

    def _require(self, *args: str) -> None:
        for a in args:
            if a not in self.base_scores:
                raise UnknownArgumentError(f"unknown argument id: {a!r}")

    def attackers(self, x: str) -> set[str]:
        """All y with an attack edge (y, x)."""
        self._require(x)
        return {y for (y, z) in self.attacks if z == x}

    def supporters(self, x: str) -> set[str]:
        """All y with a support edge (y, x)."""
        self._require(x)
        return {y for (y, z) in self.supports if z == x}

    def parents(self, x: str) -> set[str]:
        return self.attackers(x) | self.supporters(x)

    def edges(self) -> frozenset[Edge]:
        return self.attacks | self.supports


def make_qbag(
    base_scores: Mapping[str, float],
    attacks: Iterable[Edge] = (),
    supports: Iterable[Edge] = (),
) -> QBAG:
    """Validate and build a graph.

    Rejects empty/non-string ids, non-numeric or non-finite scores, edges
    with unknown endpoints, and any edge present in both relations. The
    checks run as bulk passes; only when one fails does a per-item loop name
    the first bad entry. A frozenset of (str, str) tuples is kept as it is,
    so graphs derived from one another share their edge sets.
    """
    return _checked_qbag(base_scores, _edge_set(attacks), _edge_set(supports))


def _checked_qbag(base_scores: Mapping[str, float], att: frozenset[Edge], supp: frozenset[Edge]) -> QBAG:
    """make_qbag on edge sets already made of (str, str) tuples."""
    ids = sorted(base_scores)
    values = list(map(base_scores.__getitem__, ids))
    if not (set(map(type, ids)) <= {str} and all(ids) and set(map(type, values)) <= {float, int}
            and all(map(math.isfinite, values))):
        for arg, value in zip(ids, values):
            if not isinstance(arg, str) or not arg:
                raise GraphFormatError(f"argument id must be a non-empty string, got {arg!r}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise GraphFormatError(f"base score of {arg!r} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise GraphFormatError(f"base score of {arg!r} must be finite, got {value!r}")
    scores = dict(zip(ids, map(float, values)))

    endpoints = set(chain.from_iterable(att))
    endpoints.update(chain.from_iterable(supp))
    if not scores.keys() >= endpoints:
        for a, b in sorted(att | supp):
            if a not in scores or b not in scores:
                raise GraphFormatError(f"edge ({a!r}, {b!r}) has an endpoint outside the argument set")
    if not att.isdisjoint(supp):
        raise GraphFormatError(f"edges in both attack and support relations: {sorted(att & supp)}")
    return QBAG(tuple(scores), scores, att, supp)


def _str_pairs(items: Collection, kind: type) -> bool:
    """True iff every item is a `kind` of exactly two str: three C-level passes."""
    return (set(map(type, items)) <= {kind} and set(map(len, items)) <= {2}
            and set(map(type, chain.from_iterable(items))) <= {str})


def _edge_set(edges: Iterable[Edge]) -> frozenset[Edge]:
    """The edges as a frozenset of (str, str) tuples; one that already is
    such a frozenset is returned as it is."""
    if not isinstance(edges, Collection):
        edges = list(edges)
    if _str_pairs(edges, tuple):
        return frozenset(edges)
    return frozenset((str(a), str(b)) for a, b in edges)


def successors_map(g: QBAG) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {a: [] for a in g.arguments}
    for a, b in sorted(g.edges()):
        out[a].append(b)
    return out


def parents_map(g: QBAG) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {a: [] for a in g.arguments}
    for a, b in sorted(g.edges()):
        out[b].append(a)
    return out


def can_reach(g: QBAG, sources: Iterable[str], targets: Iterable[str]) -> bool:
    """True iff a nonempty directed path leads from some source to some target."""
    sources = set(sources)
    targets = set(targets)
    g._require(*sources, *targets)
    succ = successors_map(g)
    frontier = {b for s in sources for b in succ[s]}
    seen: set[str] = set()
    while frontier:
        if frontier & targets:
            return True
        seen |= frontier
        frontier = {b for x in frontier for b in succ[x]} - seen
    return False


def reachable_from(g: QBAG, sources: Iterable[str]) -> set[str]:
    """All arguments reachable from the sources via a nonempty path."""
    succ = successors_map(g)
    frontier = {b for s in sources for b in succ[s]}
    seen: set[str] = set()
    while frontier:
        seen |= frontier
        frontier = {b for x in frontier for b in succ[x]} - seen
    return seen


def restrict(g: QBAG, keep: Iterable[str]) -> QBAG:
    """Induced subgraph on `keep`: retained arguments keep their base scores,
    edges survive iff both endpoints are retained."""
    keep = set(keep)
    g._require(*keep)
    return QBAG(
        tuple(sorted(keep)),
        {a: g.base_scores[a] for a in sorted(keep)},
        frozenset(e for e in g.attacks if e[0] in keep and e[1] in keep),
        frozenset(e for e in g.supports if e[0] in keep and e[1] in keep),
    )


def topological_order(g: QBAG) -> list[str] | None:
    """Arguments ordered so every edge goes forward, or None if the graph
    is cyclic: the topological levels in turn."""
    levels = topological_levels(g)
    return None if levels is None else [a for level in levels for a in level]


def topological_levels(g: QBAG) -> list[list[str]] | None:
    """Group arguments by longest-path depth (parents always in earlier
    levels), or None if cyclic. Each level follows argument order, which is
    sorted by id for graphs from make_qbag and parse_qbag."""
    depth = index_form(g.arguments, g.attacks, g.supports).depth
    if depth is None:
        return None
    levels: list[list[str]] = [[] for _ in range(int(depth.max(initial=-1)) + 1)]
    for a, d in zip(g.arguments, depth.tolist()):
        levels[d].append(a)
    return levels


class IndexForm(NamedTuple):
    """A topology as arrays over argument positions (the order of the
    arguments): edge sources, targets and signs (attack -1.0, support
    +1.0), attacks first, and each argument's Kahn depth, or None if cyclic."""

    index: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    sign: np.ndarray
    depth: np.ndarray | None


def index_form(arguments: Sequence[str], attacks: Collection[Edge], supports: Collection[Edge]) -> IndexForm:
    """Map the edges to index arrays, then peel Kahn frontiers: every round
    takes the arguments left without unprocessed parents, so an argument's
    round is its longest-path depth. One bincount per round."""
    index = {a: i for i, a in enumerate(arguments)}
    n, n_att = len(index), len(attacks)
    ends = np.fromiter(map(index.__getitem__, chain.from_iterable(chain(attacks, supports))),
                       dtype=np.intp, count=2 * (n_att + len(supports))).reshape(-1, 2)
    src, dst = ends[:, 0], ends[:, 1]
    sign = np.ones(len(ends))
    sign[:n_att] = -1.0

    indeg = np.bincount(dst, minlength=n)
    depth = np.empty(n, dtype=np.intp)
    frontier = indeg == 0
    for d in count():
        depth[frontier] = d
        indeg[frontier] = -1  # peeled: never a frontier again
        reached = dst[frontier[src]]
        if not reached.size:
            break
        indeg -= np.bincount(reached, minlength=n)
        frontier = indeg == 0
    return IndexForm(index, src, dst, sign, None if (indeg >= 0).any() else depth)


_ARG_KEYS = {"id", "base_score"}
_TOP_KEYS = {"arguments", "attacks", "supports"}


def _parse_edges(raw: object, label: str) -> frozenset[Edge]:
    if not isinstance(raw, list):
        raise GraphFormatError(f"{label} must be a list of [from, to] pairs")
    if not _str_pairs(raw, list):
        for item in raw:
            if not isinstance(item, list) or len(item) != 2 or not all(isinstance(e, str) for e in item):
                raise GraphFormatError(f"bad {label} entry: {item!r}")
    return frozenset(map(tuple, raw))


def reject_constant(name: str):
    """json.loads parse_constant hook: the literals NaN, Infinity and
    -Infinity are not valid scores."""
    raise GraphFormatError(f"non-finite number {name} in JSON document")


def parse_qbag(data: bytes | str) -> QBAG:
    """Parse the JSON graph document.

    Schema: {"arguments": [{"id": ..., "base_score": ...}, ...],
    "attacks": [[from, to], ...], "supports": [[from, to], ...]}.
    Unknown keys are rejected; attacks/supports may be omitted.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise GraphFormatError(f"unknown keys in graph document: {sorted(unknown)}")
    if "arguments" not in doc or not isinstance(doc["arguments"], list):
        raise GraphFormatError('graph document needs an "arguments" list')

    scores: dict[str, float] = {}
    for entry in doc["arguments"]:
        if not isinstance(entry, dict):
            raise GraphFormatError(f"argument entry must be an object, got {entry!r}")
        extra = set(entry) - _ARG_KEYS
        if extra:
            raise GraphFormatError(f"unknown keys in argument entry: {sorted(extra)}")
        if "id" not in entry or "base_score" not in entry:
            raise GraphFormatError(f"argument entry needs id and base_score: {entry!r}")
        arg = entry["id"]
        if not isinstance(arg, str) or not arg:
            raise GraphFormatError(f"argument id must be a non-empty string, got {arg!r}")
        if arg in scores:
            raise GraphFormatError(f"duplicate argument id: {arg!r}")
        scores[arg] = entry["base_score"]

    return _checked_qbag(
        scores,
        _parse_edges(doc.get("attacks", []), "attacks"),
        _parse_edges(doc.get("supports", []), "supports"),
    )


def serialize_qbag(g: QBAG) -> bytes:
    """Canonical JSON bytes; parse(serialize(g)) == g and identical graphs
    serialize to identical bytes."""
    doc = {
        "arguments": [{"id": a, "base_score": g.base_scores[a]} for a in g.arguments],
        "attacks": [list(e) for e in sorted(g.attacks)],
        "supports": [list(e) for e in sorted(g.supports)],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")

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
from dataclasses import dataclass
from typing import Iterable, Mapping

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
    with unknown endpoints, and any edge present in both relations.
    """
    scores: dict[str, float] = {}
    for arg in sorted(base_scores):
        if not isinstance(arg, str) or not arg:
            raise GraphFormatError(f"argument id must be a non-empty string, got {arg!r}")
        value = base_scores[arg]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise GraphFormatError(f"base score of {arg!r} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise GraphFormatError(f"base score of {arg!r} must be finite, got {value!r}")
        scores[arg] = float(value)

    att = frozenset((str(a), str(b)) for a, b in attacks)
    supp = frozenset((str(a), str(b)) for a, b in supports)
    for a, b in att | supp:
        if a not in scores or b not in scores:
            raise GraphFormatError(f"edge ({a!r}, {b!r}) has an endpoint outside the argument set")
    both = att & supp
    if both:
        raise GraphFormatError(f"edges in both attack and support relations: {sorted(both)}")
    return QBAG(tuple(scores), scores, att, supp)


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
    is cyclic: the topological levels in turn, each sorted by id."""
    levels = topological_levels(g)
    return None if levels is None else [a for level in levels for a in level]


def topological_levels(g: QBAG) -> list[list[str]] | None:
    """Group arguments by longest-path depth (parents always in earlier
    levels), each level sorted by id, or None if cyclic. Kahn's algorithm
    peeling whole frontiers: an argument's round is its depth."""
    succ: dict[str, list[str]] = {a: [] for a in g.arguments}
    indeg = dict.fromkeys(g.arguments, 0)
    for edges in (g.attacks, g.supports):
        for a, b in edges:
            succ[a].append(b)
            indeg[b] += 1
    levels: list[list[str]] = []
    frontier = [a for a in g.arguments if indeg[a] == 0]
    while frontier:
        levels.append(frontier)
        nxt = []
        for x in frontier:
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    nxt.append(y)
        frontier = sorted(nxt)
    if sum(map(len, levels)) != len(g.arguments):
        return None
    return levels


_ARG_KEYS = {"id", "base_score"}
_TOP_KEYS = {"arguments", "attacks", "supports"}


def _parse_edges(raw: object, label: str) -> list[Edge]:
    if not isinstance(raw, list):
        raise GraphFormatError(f"{label} must be a list of [from, to] pairs")
    edges = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(e, str) for e in item):
            raise GraphFormatError(f"bad {label} entry: {item!r}")
        edges.append((item[0], item[1]))
    return edges


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

    return make_qbag(
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

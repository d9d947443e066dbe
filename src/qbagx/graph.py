"""Quantitative bipolar argumentation graphs: structure, queries, JSON I/O.

A graph holds a set of arguments with real-valued base scores plus two
disjoint directed edge relations (attacks and supports). Graphs are
immutable after construction and every operation is pure; arguments are
kept sorted by id so iteration order is deterministic.

make_qbag makes every graph and builds its Topology (index, depths,
evaluation blocks), the one check of its edges; the graph keeps it.
Graphs on the same edge-set objects and arguments share one through an
index of live topologies keyed by the identity of those objects.
A graph on those edge sets whose arguments hold the live topology's ids in
the same order, plus arguments no edge touches (a counterfactual's reference
argument), derives its own topology from the live one: no edge check, and
no build unless the live topology is cyclic. Ids in another order build in
full. The index keeps pointing at the topology the edge sets were built on.
"""

from __future__ import annotations

import json
import math
import weakref
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (GraphFormatError, QbagError, UnknownArgumentError, checked_ids, checked_items, checked_object,
                     checked_real, json_object)

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

    @cached_property
    def topology(self) -> Topology:
        """Built by make_qbag or on first use; shared by graphs on the same edge-set
        objects and arguments, and derived from it for more arguments (Topology.extended)."""
        graph = (self.arguments, self.attacks, self.supports)
        topology = _shared(*graph) or Topology(*graph)
        return topology if topology.ids == self.arguments else topology.extended(self.arguments)

    def __getstate__(self):
        # a copy or an unpickled graph finds or builds its topology again
        return {k: v for k, v in self.__dict__.items() if k != "topology"}


def make_qbag(
    base_scores: Mapping[str, float],
    attacks: Iterable[Edge] = (),
    supports: Iterable[Edge] = (),
) -> QBAG:
    """Validate and build a graph: the one constructor of QBAG.

    The ids follow the identifier rule (errors.checked_ids), the scores the
    number rule (errors.checked_real); the topology build checks the edges
    and makes the frozensets the graph keeps. Edge sets a live topology was
    built on skip the build when its ids appear among the new ones in the
    same order: it checked every edge against a subset of them. The graph
    shares it, or derives its own for added arguments (Topology.extended).
    """
    scores = _checked_scores(base_scores)
    ids = tuple(scores)
    if _shared(ids, attacks, supports) is not None:
        return QBAG(ids, scores, attacks, supports)
    topology = Topology(ids, attacks, supports)
    g = QBAG(ids, scores, topology.attacks, topology.supports)
    vars(g)["topology"] = topology  # QBAG.topology's cache
    return g


def _checked_scores(scores: Mapping[str, float], what: str = "base score",
                    error: type[QbagError] = GraphFormatError) -> dict[str, float]:
    """The scores as floats, sorted by id, once they are checked to be a
    mapping, the ids by the identifier rule and the values by the number
    rule, each naming `what`. Bulk passes decide; only when one fails does a
    per-item loop raise `error` for the first bad entry."""
    if not isinstance(scores, Mapping):
        raise error(f"{what}s must be a mapping of argument ids to numbers, got {scores!r}")
    ids = sorted(checked_ids(scores.keys(), f"{what}s", error))
    values = list(map(scores.__getitem__, ids))
    try:  # math.isfinite raises OverflowError on an integer too large for a float
        valid = set(map(type, values)) <= {float, int} and all(map(math.isfinite, values))
    except OverflowError:
        valid = False
    if not valid:
        for arg, value in zip(ids, values):
            checked_real(value, f"{what} of {arg!r}", error)
    return dict(zip(ids, map(float, values)))


def edge_set(edges: Iterable[Edge], what: str) -> frozenset[Edge]:
    """The edges as a frozenset of (str, str) tuples, or GraphFormatError
    naming `what` and the first bad entry: a collection (errors.checked_items)
    of pairs, each a tuple or list of two str; a frozenset of such tuples is
    kept. The topology build calls it where its bulk passes fail."""
    if type(edges) not in (frozenset, list, tuple):  # those three need no copy to be read twice
        edges = checked_items(edges, what, "[from, to] pairs", GraphFormatError)
    for item in edges:
        if not isinstance(item, (tuple, list)) or len(item) != 2 or not all(isinstance(e, str) for e in item):
            raise GraphFormatError(f"bad {what} entry: {item!r}")
    return edges if type(edges) is frozenset else frozenset(map(tuple, edges))


def _checked_edges(given: list, index: Mapping[str, int]) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """The edge checks that name a fault: edge_set, endpoints (sorted), both relations."""
    attacks, supports = edge_set(given[0], "attacks"), edge_set(given[1], "supports")
    for a, b in sorted(attacks | supports):
        if a not in index or b not in index:
            raise GraphFormatError(f"edge ({a!r}, {b!r}) has an endpoint outside the argument set")
    if not attacks.isdisjoint(supports):
        raise GraphFormatError(f"edges in both attack and support relations: {sorted(attacks & supports)}")
    return attacks, supports


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
    reached = reachable_from(g, sources)  # which checks the sources
    targets = checked_ids(targets, "targets", UnknownArgumentError)
    g._require(*targets)
    return not reached.isdisjoint(targets)


def reachable_from(g: QBAG, sources: Iterable[str]) -> set[str]:
    """All arguments reachable from the sources via a nonempty path."""
    sources = checked_ids(sources, "sources", UnknownArgumentError)
    g._require(*sources)
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
    keep = set(checked_ids(keep, "kept arguments", UnknownArgumentError))
    g._require(*keep)
    return make_qbag(
        {a: g.base_scores[a] for a in keep},
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
    depth = g.topology.depth
    if depth is None:
        return None
    levels: list[list[str]] = [[] for _ in range(int(depth.max(initial=-1)) + 1)]
    for a, d in zip(g.arguments, depth.tolist()):
        levels[d].append(a)
    return levels


class Topology:
    """A graph's structure over argument positions (the order of its
    arguments): `index` maps ids to positions, `depth` holds each argument's
    longest-path depth (None if cyclic), and `blocks` lists (rows, cols, w,
    att, supp): rows evaluated together, the parent columns their
    aggregation reads, and over (rows, cols) the signed weight (support +1,
    attack -1) and the attack and support 0/1 matrices. An acyclic graph has
    one block per depth, whose columns are only that level's parents. A
    cyclic graph has one core block, at position `core` (None if acyclic):
    every argument on a cycle or on a path between two, with columns that
    start with its own rows, in order, followed by its other parents. Before
    it come the blocks of the arguments no cycle reaches, one per depth;
    after it those of the arguments a cycle reaches but that reach none, one
    per length of their longest path onwards, longest first. Arrays are
    read-only. It keeps its edge frozensets, so that no other object takes
    their ids while it lives, and is found by them (_SHARED).
    """

    def __init__(self, arguments: tuple[str, ...], attacks: Iterable[Edge], supports: Iterable[Edge]):
        """Check the edges in bulk, build their frozensets once and map each
        endpoint to its position in one pass, a failed lookup being the
        endpoint check (_checked_edges names a fault). Then peel Kahn
        frontiers: each round takes the arguments left without unprocessed
        parents, so an argument's round is its longest-path depth. One
        bincount per round. Where the rounds stall on cycles, the arguments
        left are peeled backwards from those without successors (_heights):
        those never taken are the core, one level after the last round, and
        the others follow it, longest path to the end first."""
        self.ids = tuple(arguments)
        index = {a: i for i, a in enumerate(self.ids)}
        given, sets = [attacks, supports], None
        with suppress(GraphFormatError, TypeError):  # a collection checked_items refuses, an unhashable endpoint
            for i, what in enumerate(("attacks", "supports")):
                if type(given[i]) not in (frozenset, list, tuple):  # each is read twice
                    given[i] = checked_items(given[i], what, "[from, to] pairs", GraphFormatError)
            if set(map(type, chain(*given))) <= {tuple, list} and set(map(len, chain(*given))) <= {2}:
                sets = tuple(e if type(e) is frozenset else frozenset(map(tuple, e)) for e in given)
                pairs = [e if len(e) == len(s) else s for e, s in zip(given, sets)]  # shorter: duplicates merged
        if sets is None or not sets[0].isdisjoint(sets[1]):
            sets = pairs = _checked_edges(given, index)
        try:
            ends = np.fromiter(map(index.__getitem__, chain.from_iterable(chain(*pairs))), dtype=np.intp,
                               count=2 * (len(sets[0]) + len(sets[1]))).reshape(-1, 2)
        except (KeyError, TypeError):  # an endpoint that is not an argument id, or unhashable
            _checked_edges(given, index)  # names the first fault
            raise
        self.attacks, self.supports = sets
        n, n_att = len(self.ids), len(self.attacks)
        src, dst = ends[:, 0], ends[:, 1]
        sign = np.ones(len(ends))
        sign[:n_att] = -1.0
        indeg = np.bincount(dst, minlength=n)
        level = np.empty(n, dtype=np.intp)
        frontier = indeg == 0
        for d in count():
            if not frontier.any():
                break
            level[frontier] = d
            indeg[frontier] = -1  # peeled: never a frontier again
            indeg -= np.bincount(dst[frontier[src]], minlength=n)
            frontier = indeg == 0
        left, self.core = indeg >= 0, None
        if left.any():  # stalled: every argument left has a parent left, so cycles lie among them
            height = _heights(src, dst, left)
            after = height >= 0
            level[left & ~after] = self.core = d
            level[after] = d + 1 + height.max() - height[after]
        self.index, self.n = MappingProxyType(index), n
        self.depth = level if self.core is None else None
        self.blocks = _blocks(src, dst, sign, level, self.core, n)
        _SHARED.setdefault((id(self.attacks), id(self.supports)), self)

    def extended(self, arguments: tuple[str, ...]) -> Topology:
        """The topology of `arguments` on the same edges, where `arguments`
        holds self.ids in the same order plus arguments that no edge
        touches; equal, part for part, to Topology(arguments, attacks,
        supports). An acyclic one is derived without a build: the added
        arguments have depth 0 and join the parentless level-0 block, the
        other blocks' rows and columns move to the new positions (which keep
        their order, and so their sorted blocks) and their read-only weights
        are shared. A cyclic one is built in full."""
        if self.depth is None:
            return Topology(arguments, self.attacks, self.supports)
        index = {a: i for i, a in enumerate(arguments)}
        n = len(arguments)
        pos = np.fromiter(map(index.__getitem__, self.ids), dtype=np.intp, count=self.n)
        depth = np.zeros(n, dtype=np.intp)
        depth[pos] = self.depth
        parentless = np.flatnonzero(depth == 0)
        empty = np.zeros((len(parentless), 0))
        pos.flags.writeable = empty.flags.writeable = False
        blocks = [(_positions(parentless), pos[:0], empty, empty, empty)]
        for rows, cols, *weights in self.blocks[1:]:
            blocks.append((_positions(pos[rows]), _positions(pos[cols]), *weights))
        derived = object.__new__(type(self))
        derived.ids, derived.attacks, derived.supports = tuple(arguments), self.attacks, self.supports
        derived.index, derived.n, derived.depth, derived.blocks = MappingProxyType(index), n, depth, tuple(blocks)
        derived.core = None
        return derived


def _heights(src: np.ndarray, dst: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Per argument of `left` (which holds the successors of its members),
    the round in which a Kahn peel of the edges among them, run backwards
    from the arguments without successors, takes it: the length of its
    longest path to one of those. -1 for the arguments it never takes,
    those on a cycle or on a path between two, and for those outside `left`."""
    inner = left[src]
    src, dst = src[inner], dst[inner]
    outdeg = np.bincount(src, minlength=len(left))
    outdeg[~left] = -1
    height = np.full(len(left), -1)
    frontier = outdeg == 0
    for h in count():
        if not frontier.any():
            return height
        height[frontier] = h
        outdeg[frontier] = -1
        outdeg -= np.bincount(src[frontier[dst]], minlength=len(left))
        frontier = outdeg == 0


def _blocks(src: np.ndarray, dst: np.ndarray, sign: np.ndarray, level: np.ndarray, core: int | None, n: int) -> tuple:
    """Topology.blocks. A block's rows are its level's members in argument
    order and its columns the distinct sources of the level's edges in
    argument order, those inside the level first: only the core has any,
    and they are all its rows, since each of them has a successor there.
    Every block's weights are one view into a single flat array."""
    edge_level = level[dst]
    key = (2 * edge_level + (level[src] != edge_level)) * n + src  # (level, source outside it, source) of each edge
    col_keys, col_of = np.unique(key, return_inverse=True)
    levels = int(level.max(initial=-1)) + 1
    members = np.argsort(level, kind="stable")
    row_count = np.bincount(level, minlength=levels)
    row_start = np.cumsum(row_count) - row_count
    row_of = np.empty(n, dtype=np.intp)
    row_of[members] = np.arange(n) - row_start[level[members]]
    col_level, cols = np.divmod(col_keys, n)
    col_count = np.bincount(col_level >> 1, minlength=levels)
    col_start = np.cumsum(col_count) - col_count
    size = row_count * col_count
    offset = np.cumsum(size) - size

    col_of -= col_start[edge_level]
    w = np.zeros(int(size.sum()))
    w[offset[edge_level] + row_of[dst] * col_count[edge_level] + col_of] = sign
    flat = (members, cols, w, (w < 0.0) * 1.0, (w > 0.0) * 1.0)
    for part in flat:
        part.flags.writeable = False  # views made from here on are read-only too
    member_ids, col_ids = members.tolist(), cols.tolist()

    blocks = []
    for k, (r0, nr, c0, nc, o) in enumerate(zip(*(a.tolist() for a in (row_start, row_count, col_start, col_count, offset)))):
        weights = tuple(part[o:o + nr * nc].reshape(nr, nc) for part in flat[2:])
        # the core's columns ascend only if its other parents all come after its rows
        ascending = k != core or nr == nc or col_ids[c0 + nr - 1] < col_ids[c0 + nr]
        block_cols = _indexer(cols, col_ids, c0, nc) if ascending else cols[c0:c0 + nc]
        blocks.append((_indexer(members, member_ids, r0, nr), block_cols) + weights)
    return tuple(blocks)


def _positions(ascending: np.ndarray) -> slice | np.ndarray:
    """_indexer over all of `ascending`, read-only."""
    ascending.flags.writeable = False
    return _indexer(ascending, ascending.tolist(), 0, len(ascending))


def _indexer(ascending: np.ndarray, listed: list[int], start: int, count: int) -> slice | np.ndarray:
    """ascending[start:start + count], unique indices in ascending order
    (`listed` is the same as a list), as a slice when they form one
    contiguous run (indexing then makes a view, not a copy), else as an
    index array."""
    if count and listed[start + count - 1] - listed[start] == count - 1:
        return slice(listed[start], listed[start + count - 1] + 1)
    return ascending[start:start + count]


# Live topologies by the ids of the (attacks, supports) objects they were
# built on. Each entry keeps those objects alive, so an id found here still
# names them, and goes once the last graph holding its topology is gone.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(arguments: tuple[str, ...], attacks, supports) -> Topology | None:
    """The live topology built on these edge-set objects, if its ids are
    `arguments` or appear among them in the same order."""
    topology = _SHARED.get((id(attacks), id(supports)))
    if topology is None or topology.ids == arguments:
        return topology
    rest = iter(arguments)  # `in` consumes it: each id must come after the previous one
    return topology if len(topology.ids) < len(arguments) and all(a in rest for a in topology.ids) else None


_ARG_KEYS = {"id", "base_score"}
_TOP_KEYS = {"arguments", "attacks", "supports"}


def parse_qbag(data: bytes | str) -> QBAG:
    """Parse the JSON graph document into a graph (make_qbag).

    Schema: {"arguments": [{"id": ..., "base_score": ...}, ...],
    "attacks": [[from, to], ...], "supports": [[from, to], ...]}.
    It follows the document rule (errors.json_object); attacks/supports may
    be omitted. Each argument entry has exactly these keys, and no id
    appears twice. Bulk passes decide; only a failure loops to name it.
    """
    doc = json_object(data, "graph document", _TOP_KEYS, GraphFormatError)
    entries = checked_items(doc.get("arguments"), "arguments", "argument entries", GraphFormatError)
    if not (set(map(type, entries)) <= {dict} and all(entry.keys() == _ARG_KEYS for entry in entries)):
        for entry in entries:
            if checked_object(entry, "argument entry", _ARG_KEYS, GraphFormatError).keys() != _ARG_KEYS:
                raise GraphFormatError(f"argument entry needs id and base_score: {entry!r}")
    ids = checked_ids([entry["id"] for entry in entries], "arguments", GraphFormatError)
    scores = dict(zip(ids, [entry["base_score"] for entry in entries]))
    if len(scores) < len(ids):
        counts = Counter(ids)
        raise GraphFormatError(f"duplicate argument id: {next(a for a, n in counts.items() if n > 1)!r}")
    return make_qbag(scores, doc.get("attacks", []), doc.get("supports", []))


def serialize_qbag(g: QBAG) -> bytes:
    """Canonical JSON bytes; parse(serialize(g)) == g and identical graphs
    serialize to identical bytes."""
    doc = {
        "arguments": [{"id": a, "base_score": g.base_scores[a]} for a in g.arguments],
        "attacks": [list(e) for e in sorted(g.attacks)],
        "supports": [list(e) for e in sorted(g.supports)],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")

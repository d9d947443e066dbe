"""Synthetic layered (MLP-like) argumentation graphs with seeded RNG.

Two families. "random": fully connected between consecutive layers, each
edge independently attack or support with probability 1/2, base scores
uniform on [0, 1]. "constrained" (needs >= 4 layers): additionally, the
next-to-last layer gets small base scores uniform on [0, 0.1] and is
excluded from the mutable set, all edges into it are attacks, and all
edges into THOSE attackers are supports, so the search can silence the
next-to-last layer and order the final layer directly.

Topic arguments are the final layer. The bundled target ordering is by
default a seeded random strict permutation of the topics ("permuted");
"literal" instead ranks them by their current final strengths, which a
fresh graph already satisfies.

Draw order per instance (numpy PCG64, one stream): base scores layer by
layer, then edge polarities layer pair by layer pair (no draws for forced
polarities), then the target permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import checked_int
from .explanation import DesiredOrdering, OrderingRule, ordering_from_tiers
from .graph import QBAG, make_qbag
from .semantics import DFQUAD, SemanticsSpec, compile_graph, evaluate_matrix

MUTABLE_MODES = ("first", "intermediate", "first_and_intermediate", "all", "constrained")


@dataclass(frozen=True)
class LayerStructure:
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("a layer structure needs at least 2 layers")
        object.__setattr__(self, "sizes", tuple(checked_int(s, "layer size", least=1) for s in self.sizes))

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.sizes)


def structure(sizes) -> LayerStructure:
    return LayerStructure(tuple(sizes))


@dataclass(frozen=True)
class GenSpec:
    structure: LayerStructure
    family: str  # "random" | "constrained"
    seed: int
    target: str = "permuted"  # "permuted" | "literal"
    semantics: SemanticsSpec = DFQUAD  # ranks the literal target; rejects
    # permuted targets the fresh graph already satisfies

    def __post_init__(self):
        check_family(self.family, (self.structure,))
        check_target(self.target)
        object.__setattr__(self, "seed", checked_int(self.seed, "generator seed", least=0))


def check_family(family: str, structures) -> None:
    """Reject an unknown family, and a layer structure too shallow for it."""
    if family not in ("random", "constrained"):
        raise ValueError(f"unknown family: {family!r}")
    if family == "constrained" and any(len(s.sizes) < 4 for s in structures):
        raise ValueError("constrained graphs need at least 4 layers")


def check_target(target: str) -> None:
    """Reject a target mode other than "permuted" and "literal"."""
    if target not in ("permuted", "literal"):
        raise ValueError(f"unknown target mode: {target!r}")


@dataclass(frozen=True)
class GeneratedInstance:
    graph: QBAG
    layers: tuple[tuple[str, ...], ...]
    mutable_presets: dict[str, frozenset[str]]
    ordering: DesiredOrdering
    seed: int
    family: str

    def sidecar_json(self) -> str:
        doc = {
            "layers": [list(layer) for layer in self.layers],
            "ordering": {"tiers": [sorted(t) for t in self.ordering.tiers]},
            "mutable": {mode: sorted(ids) for mode, ids in sorted(self.mutable_presets.items())},
        }
        return json.dumps(doc, separators=(",", ":"))


def _layer_ids(sizes) -> list[list[str]]:
    return [[f"l{li:02d}_{ai:03d}" for ai in range(size)] for li, size in enumerate(sizes, start=1)]


def _presets(layers, constrained: bool) -> dict[str, frozenset[str]]:
    first = frozenset(layers[0])
    intermediate = frozenset(a for layer in layers[1:-1] for a in layer)
    everything = frozenset(a for layer in layers for a in layer)
    presets = {
        "first": first,
        "intermediate": intermediate,
        "first_and_intermediate": first | intermediate,
        "all": everything,
    }
    if constrained:
        presets["constrained"] = everything - frozenset(layers[-2])
    return presets


def _generate(spec: GenSpec) -> GeneratedInstance:
    sizes = spec.structure.sizes
    n_layers = len(sizes)
    rng = np.random.default_rng(spec.seed)
    layers = _layer_ids(sizes)
    constrained = spec.family == "constrained"

    scores: dict[str, float] = {}
    for li, layer in enumerate(layers):
        draws = rng.random(len(layer))
        if constrained and li == n_layers - 2:
            draws = draws * 0.1
        for a, v in zip(layer, draws):
            scores[a] = float(v)

    attacks: list[tuple[str, str]] = []
    supports: list[tuple[str, str]] = []
    for li in range(n_layers - 1):
        src, dst = layers[li], layers[li + 1]
        if constrained and li == n_layers - 3:
            attacks.extend((a, b) for a in src for b in dst)  # silence the next-to-last layer
            continue
        if constrained and li == n_layers - 4:
            supports.extend((a, b) for a in src for b in dst)  # feed those attackers
            continue
        polarity = rng.random((len(src), len(dst))) < 0.5
        for i, a in enumerate(src):
            for j, b in enumerate(dst):
                (attacks if polarity[i, j] else supports).append((a, b))

    graph = make_qbag(scores, attacks, supports)
    topics = layers[-1]
    plan = compile_graph(graph)
    strengths, _ = evaluate_matrix(plan, spec.semantics, plan.tau[:, None])  # layered: acyclic
    if spec.target == "permuted":
        # A target the graph already realizes would make every search trivially
        # succeed, so redraw until the permutation disagrees with the current
        # strengths (always immediate in practice; ties are measure zero).
        perm = rng.permutation(len(topics))
        ordering = ordering_from_tiers([[topics[i]] for i in perm])
        for _ in range(1000 if len(topics) > 1 else 0):
            if not OrderingRule(plan.index, ordering).holds(strengths, "weak")[0]:
                break
            perm = rng.permutation(len(topics))
            ordering = ordering_from_tiers([[topics[i]] for i in perm])
    else:
        sigma = {a: float(strengths[plan.index[a], 0]) for a in topics}
        ranked = sorted(topics, key=lambda a: (sigma[a], a))
        tiers: list[list[str]] = []
        for a in ranked:
            if tiers and sigma[a] == sigma[tiers[-1][-1]]:
                tiers[-1].append(a)
            else:
                tiers.append([a])
        ordering = ordering_from_tiers(tiers)

    return GeneratedInstance(
        graph,
        tuple(tuple(layer) for layer in layers),
        _presets(layers, constrained),
        ordering,
        spec.seed,
        spec.family,
    )


def generate_random(spec: GenSpec) -> GeneratedInstance:
    if spec.family != "random":
        raise ValueError("generate_random needs family='random'")
    return _generate(spec)


def generate_constrained(spec: GenSpec) -> GeneratedInstance:
    if spec.family != "constrained":
        raise ValueError("generate_constrained needs family='constrained'")
    return _generate(spec)


def generate(spec: GenSpec) -> GeneratedInstance:
    return _generate(spec)


def generate_batch(spec: GenSpec, count: int) -> list[GeneratedInstance]:
    """Instance i of a batch uses seed spec.seed + i, so any single graph can
    be regenerated in isolation."""
    count = checked_int(count, "batch count", least=0)
    return [
        _generate(GenSpec(spec.structure, spec.family, spec.seed + i, spec.target, spec.semantics))
        for i in range(count)
    ]


def check_mutable_mode(family: str, mode: str) -> None:
    """Reject a mutable mode that the instances of `family` do not have."""
    if mode not in MUTABLE_MODES:
        raise ValueError(f"unknown mutable mode: {mode!r}")
    if mode == "constrained" and family != "constrained":
        raise ValueError("the 'constrained' preset only exists for constrained instances")


def mutable_preset(instance: GeneratedInstance, mode: str) -> frozenset[str]:
    check_mutable_mode(instance.family, mode)
    return instance.mutable_presets[mode]

"""The benchmark's three workloads: inputs made from a seed, one operation
each, and the checks on the outputs of one pass.

Every workload has the same shape:

- ``setup(seed, tracer)`` returns the list of operation inputs (one pass),
  in an order shuffled by the seed;
- ``op(item, tracer, counts)`` runs one operation through the public qbagx
  API and returns a small result dict; ``counts`` collects exact per-pass
  counters;
- ``check(items, results)`` verifies the first pass's outputs, adds the
  quality fields ``valid``, ``kendall`` and ``bs_diff`` to each result, and
  returns a list of correctness errors.

Every call into a package module goes through ``tracer.call`` so that the
traced run can record one span per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import qbagx as q
from qbagx.semantics import compile_graph, evaluate_matrix

# Errors an operation may raise that count as a failed operation; any other
# exception aborts the run.
OP_ERRORS = (q.UndefinedStrengthError, q.BudgetError, q.DomainError, q.CyclicGraphError)

SEARCH = q.SearchConfig()
LAYERED = (q.structure((8, 32, 16, 8)), q.structure((8, 64, 16, 8, 8)))
BACK_EDGES = 4
# The steps of final_strengths that a traced operation times separately.
SEMANTICS_STEPS = ("compile_graph", "check_scores_in_domain", "evaluate_matrix")


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _shuffled(rng: np.random.Generator, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _generate(t, struct, family: str, seed: int, spec=q.DFQUAD) -> q.GeneratedInstance:
    return t.call("generators.generate", q.generate, q.GenSpec(struct, family, seed, semantics=spec))


def _with_back_edges(t, inst: q.GeneratedInstance, seed: int) -> q.QBAG:
    """The instance's graph plus seeded edges from the last layer back to
    the second, each an attack or a support with probability 1/2."""
    rng = np.random.default_rng(seed)
    g = inst.graph
    last, second = inst.layers[-1], inst.layers[1]
    attacks, supports = set(g.attacks), set(g.supports)
    for _ in range(BACK_EDGES):
        edge = (last[rng.integers(len(last))], second[rng.integers(len(second))])
        if edge not in attacks and edge not in supports:
            (attacks if rng.random() < 0.5 else supports).add(edge)
    return t.call("graph.make_qbag", q.make_qbag, g.base_scores, attacks, supports)


def _strengths(t, counts, g: q.QBAG, spec) -> dict[str, float | None]:
    """final_strengths of g. In a traced operation the compile_graph,
    check_scores_in_domain and evaluate_matrix calls it makes get spans of
    their own, so that the trace splits compiling from evaluating."""
    counts["semantics.final_strengths_calls"] += 1
    return t.call_split("semantics.final_strengths", q.final_strengths, q.semantics, SEMANTICS_STEPS, g, spec)


# --- explain ------------------------------------------------------------------

# (family, mutable preset, semantics, cyclic variant)
EXPLAIN_CELLS = (
    ("constrained", "constrained", "dfquad", False),
    ("random", "all", "dfquad", False),
    ("random", "all", "eb", False),
    ("random", "all", "qe", False),
    ("random", "intermediate", "dfquad", False),
    ("random", "all", "dfquad", True),
    ("random", "all", "eb", True),
)
EXPLAIN_PER_CELL = 16


@dataclass(frozen=True)
class ExplainItem:
    kind: str
    query: q.ExplanationQuery


class Explain:
    """Heuristic explanation queries on the paper's layered families."""

    name = "explain"

    def setup(self, seed: int, t) -> list[ExplainItem]:
        rng = np.random.default_rng([seed, 1])
        items = []
        for struct in LAYERED:
            for family, preset, token, cyclic in EXPLAIN_CELLS:
                spec = q.builtin_semantics(token)
                for graph_seed in _seeds(rng, EXPLAIN_PER_CELL):
                    inst = _generate(t, struct, family, graph_seed, spec)
                    graph = _with_back_edges(t, inst, graph_seed) if cyclic else inst.graph
                    mutable = frozenset(graph.arguments) if cyclic else q.mutable_preset(inst, preset)
                    kind = f"{family}/{preset}/{token}" + ("/cyclic" if cyclic else "")
                    items.append(ExplainItem(kind, q.ExplanationQuery(graph, spec, mutable, inst.ordering)))
        return _shuffled(rng, items)

    def op(self, item: ExplainItem, t, counts) -> dict:
        query = item.query
        outcome = t.call("search.heuristic_search", q.heuristic_search, query, SEARCH)
        counts["search.attempts"] += 1
        counts["search.iterations"] += outcome.iterations_used
        verified = bs_diff = None
        if outcome.found:
            counts["search.found"] += 1
            verified = t.call("explanation.is_explanation", q.is_explanation, query, outcome.change, mode="weak")
            norm = t.call("explanation.amount_of_change", q.amount_of_change, query.graph, outcome.change)
            bs_diff = norm / len(query.mutable)
        g = query.graph
        achieved = t.call("graph.make_qbag", q.make_qbag, outcome.final_scores, g.attacks, g.supports)
        sigma = _strengths(t, counts, achieved, query.semantics)
        if any(sigma[x] is None for x in query.ordering.topic_set):
            raise q.UndefinedStrengthError("achieved strengths are undefined")
        kendall = t.call("metrics.kendall_tau", q.kendall_tau, query.ordering, sigma)
        t.call("metrics.spearman_rho", q.spearman_rho, query.ordering, sigma)
        return {"found": outcome.found, "verified": verified, "kendall": kendall, "bs_diff": bs_diff}

    def check(self, items, results) -> list[str]:
        errors = []
        for i, res in enumerate(results):
            if res is None:
                continue
            if res["found"] and not res["verified"]:
                errors.append(f"explain op {i}: found change is not an explanation")
            res["valid"] = bool(res["found"] and res["verified"])
            if not res["valid"]:
                res["bs_diff"] = None
        return errors


# --- eval -----------------------------------------------------------------------

# Request i: cyclic when i is odd; the smaller structure when (i // 2) % 3 == 0,
# so that the median request falls inside one cost cluster (large, cyclic)
# rather than between two; semantics (i // 6) % 3; a breaking ordering when
# (i // 18) % 2 == 1. 144 requests hold each combination equally often.
EVAL_REQUESTS = 144
EVAL_SEMANTICS = ("dfquad", "eb", "qe")
EVAL_CHANGED = 2        # first-layer arguments the supplied change moves
EVAL_SHIFT = 0.2        # largest move of a changed base score


@dataclass(frozen=True)
class EvalItem:
    kind: str
    doc: bytes
    semantics: str
    mutable: frozenset
    change: q.StrengthChange
    ordering: q.DesiredOrdering
    explains: bool  # the verdict the request must return


class Eval:
    """Single-graph evaluation requests from serialised graph documents."""

    name = "eval"

    def setup(self, seed: int, t) -> list[EvalItem]:
        rng = np.random.default_rng([seed, 2])
        items = []
        for i, graph_seed in enumerate(_seeds(rng, EVAL_REQUESTS)):
            cyclic = i % 2 == 1
            struct = LAYERED[0 if (i // 2) % 3 == 0 else 1]
            token = EVAL_SEMANTICS[(i // 6) % 3]
            spec = q.builtin_semantics(token)
            inst = _generate(t, struct, "random", graph_seed, spec)
            graph = _with_back_edges(t, inst, graph_seed) if cyclic else inst.graph

            local = np.random.default_rng(graph_seed)
            moved = local.choice(len(inst.layers[0]), size=EVAL_CHANGED, replace=False)
            entries = {}
            for m, j in enumerate(sorted(moved)):
                # evenly spread magnitudes keep the mean change alike across seeds
                magnitude = EVAL_SHIFT * (i * EVAL_CHANGED + m + 0.5) / (EVAL_REQUESTS * EVAL_CHANGED)
                a = inst.layers[0][j]
                shifted = graph.base_scores[a] + local.choice([-1.0, 1.0]) * magnitude
                entries[a] = float(np.clip(shifted, 0.0, 1.0))
            change = q.StrengthChange({a: v for a, v in entries.items() if v != graph.base_scores[a]})

            changed = t.call("explanation.apply_change", q.apply_change, graph, change, spec.domain)
            sigma = t.call("semantics.final_strengths", q.final_strengths, changed, spec)
            ranked = sorted(inst.layers[-1], key=lambda a: (sigma[a], a))
            explains = True
            if (i // 18) % 2 == 1:
                # swapping the two strongest topics breaks the ordering unless they tie
                explains = sigma[ranked[-1]] == sigma[ranked[-2]]
                ranked[-1], ranked[-2] = ranked[-2], ranked[-1]
            ordering = q.ordering_from_tiers([[a] for a in ranked])
            doc = t.call("graph.serialize_qbag", q.serialize_qbag, graph)
            kind = ("cyclic" if cyclic else "acyclic") + f"/{struct}/{token}"
            items.append(EvalItem(kind, doc, token, frozenset(inst.layers[0]), change, ordering, explains))
        return _shuffled(rng, items)

    def op(self, item: EvalItem, t, counts) -> dict:
        spec = q.builtin_semantics(item.semantics)
        g = t.call("graph.parse_qbag", q.parse_qbag, item.doc)
        strengths = _strengths(t, counts, g, spec)
        query = q.ExplanationQuery(g, spec, item.mutable, item.ordering)
        explains = t.call("explanation.is_explanation", q.is_explanation, query, item.change, mode="weak")
        body = json.dumps({"strengths": strengths, "explains": explains}, separators=(",", ":"))
        counts["eval.response_bytes"] += len(body)
        return {"strengths": strengths, "explains": explains}

    def check(self, items, results) -> list[str]:
        errors = []
        for i, (item, res) in enumerate(zip(items, results)):
            if res is None:
                continue
            ok = all(v is not None for v in res["strengths"].values())
            if res["explains"] != item.explains:
                errors.append(f"eval op {i}: verdict {res['explains']} != expected {item.explains}")
                ok = False
            g = q.parse_qbag(item.doc)
            spec = q.builtin_semantics(item.semantics)
            plan = compile_graph(g)
            if plan.acyclic:
                sigma, _ = evaluate_matrix(plan, spec, plan.tau[:, None], method="iterative")
                worst = max(abs(res["strengths"][a] - sigma[k, 0]) for k, a in enumerate(plan.ids))
                if not worst <= 1e-9:
                    errors.append(f"eval op {i}: strengths differ from the iterative evaluation by {worst:g}")
                    ok = False
            res["valid"] = ok
            topics = {a: res["strengths"][a] for a in item.ordering.topic_set}
            res["kendall"] = q.kendall_tau(item.ordering, topics) if ok else None
            res["bs_diff"] = (q.amount_of_change(g, item.change) / len(item.change.entries)
                              if ok and item.explains and item.change else None)
        return errors


# --- exact ----------------------------------------------------------------------

# A pass costs about 14 s, so that a 30-second run times every operation two
# or three times. With 12 inverse problems and 2 certifications the tail
# percentile (10 operations beyond it) falls among the cheaper inverse
# problems, whose costs lie close together, and 192 counterfactuals put the
# median inside their cluster; the median of fewer of them moved up to 20%
# from seed to seed. Inverse problems on 10 arguments took 0.2-1.6 s each
# depending on the restarts they needed, 6-argument ones under qe about
# 0.17 s. The certification grid is the wide-batch extreme.
INVERSE_PROBLEMS = 12
INVERSE_STRUCTURE = q.structure((2, 2, 2))  # 6 arguments
INVERSE_SEMANTICS = q.QUADRATIC_ENERGY
COUNTERFACTUALS = 192
COUNTERFACTUAL_STRUCTURE = q.structure((4, 8, 4))
COUNTERFACTUAL_SEMANTICS = ("eb", "qe")  # alternating
CERTIFY = 2
CERTIFY_STRUCTURE = q.structure((4, 4, 2))
CERTIFY_EPSILON = 0.01
# 32 grid values plus each argument's own score: 33^4 = 1,185,921 assignments
CERTIFY_GRID = q.GridSpec(step=1 / 31, lower=0.0, upper=1.0)


@dataclass(frozen=True)
class ExactItem:
    kind: str  # "inverse" | "counterfactual/<semantics>" | "certify"
    payload: object
    semantics: q.SemanticsSpec


def grid_points(query: q.ExplanationQuery, grid: q.GridSpec) -> int:
    """Assignments an oracle call enumerates, computed from the grid spec and
    the query: per mutable argument, the grid values plus its own score when
    that is off the grid."""
    count = int(np.floor((grid.upper - grid.lower) / grid.step + 1e-9)) + 1
    values = grid.lower + grid.step * np.arange(count)
    total = 1
    for a in query.mutable:
        total *= count + (0 if np.any(values == query.graph.base_scores[a]) else 1)
    return total


class Exact:
    """Small instances solved exactly: inverse, counterfactual, certification."""

    name = "exact"

    def setup(self, seed: int, t) -> list[ExactItem]:
        rng = np.random.default_rng([seed, 3])
        items = []
        for graph_seed in _seeds(rng, INVERSE_PROBLEMS):
            g = _generate(t, INVERSE_STRUCTURE, "random", graph_seed).graph
            perm = np.random.default_rng(graph_seed).permutation(len(g.arguments))
            problem = q.make_inverse_problem(g.arguments, g.attacks, g.supports,
                                             [[g.arguments[j]] for j in perm])
            items.append(ExactItem("inverse", problem, INVERSE_SEMANTICS))
        for k, graph_seed in enumerate(_seeds(rng, COUNTERFACTUALS)):
            spec = q.builtin_semantics(COUNTERFACTUAL_SEMANTICS[k % 2])
            inst = _generate(t, COUNTERFACTUAL_STRUCTURE, "random", graph_seed, spec)
            local = np.random.default_rng(graph_seed)
            topic = inst.layers[-1][local.integers(len(inst.layers[-1]))]
            current = t.call("semantics.final_strengths", q.final_strengths, inst.graph, spec)[topic]
            distance = 0.1 + 0.2 * (k + 0.5) / COUNTERFACTUALS  # evenly spread over [0.1, 0.3]
            target = current + local.choice([-1.0, 1.0]) * distance
            problem = q.CounterfactualProblem(inst.graph, topic, float(np.clip(target, 0.02, 0.98)), spec)
            items.append(ExactItem(f"counterfactual/{spec.name}", problem, spec))
        for graph_seed in _seeds(rng, CERTIFY):
            inst = _generate(t, CERTIFY_STRUCTURE, "random", graph_seed)
            query = q.ExplanationQuery(inst.graph, q.DFQUAD, frozenset(inst.layers[0]), inst.ordering)
            items.append(ExactItem("certify", query, q.DFQUAD))
        return _shuffled(rng, items)

    def op(self, item: ExactItem, t, counts) -> dict:
        if item.kind == "inverse":
            scores = t.call("reductions.solve_inverse", q.solve_inverse, item.payload, item.semantics)
            counts["reductions.inverse_attempts"] += 1
            counts["reductions.solved"] += scores is not None
            return {"solved": scores is not None, "scores": scores}
        if item.kind.startswith("counterfactual"):
            scores, outcome = t.call("reductions.solve_counterfactual", q.solve_counterfactual, item.payload)
            counts["reductions.counterfactual_attempts"] += 1
            counts["reductions.counterfactual_iterations"] += outcome.iterations_used
            counts["reductions.solved"] += scores is not None
            return {"solved": scores is not None, "scores": scores}

        query = item.payload
        outcome = t.call("search.heuristic_search", q.heuristic_search, query, SEARCH)
        counts["search.attempts"] += 1
        counts["search.iterations"] += outcome.iterations_used
        result = {"found": outcome.found, "change": outcome.change, "verified": None,
                  "verdict": None, "witness": None}
        points = grid_points(query, CERTIFY_GRID)
        if outcome.found:
            counts["search.found"] += 1
            result["verified"] = t.call("explanation.is_explanation", q.is_explanation,
                                        query, outcome.change, mode="weak")
            norm = t.call("explanation.amount_of_change", q.amount_of_change, query.graph, outcome.change)
            result["verdict"] = t.call("oracle.certify_epsilon", q.certify_epsilon, query, outcome.change,
                                       CERTIFY_EPSILON, CERTIFY_GRID, "weak")
            result["bs_diff"] = norm / len(query.mutable)
            enumerated = norm > CERTIFY_EPSILON  # certify_epsilon's documented shortcut
        else:
            # No heuristic explanation: ask the oracle whether the grid holds one.
            oracle = t.call("oracle.brute_force_search", q.brute_force_search, query, CERTIFY_GRID, "weak")
            result["witness"] = oracle.best
            enumerated = True
        if enumerated:
            n = len(query.graph.arguments)
            counts["oracle.grid_points"] += points
            # base-score batch and strengths (float64) plus the defined mask (bool)
            counts["oracle.bytes_computed"] += points * n * (8 + 8 + 1)
        return result

    def check(self, items, results) -> list[str]:
        errors = []
        for i, (item, res) in enumerate(zip(items, results)):
            if res is None:
                continue
            res.setdefault("kendall", None)
            res.setdefault("bs_diff", None)
            if item.kind == "inverse":
                res["valid"] = False
                if res["solved"]:
                    p = item.payload
                    g = q.make_qbag(res["scores"], p.attacks, p.supports)
                    if q.satisfies(g, item.semantics, p.ordering, mode="exact"):
                        res["valid"] = True
                        res["kendall"] = q.kendall_tau(p.ordering, q.final_strengths(g, item.semantics))
                    else:
                        errors.append(f"exact op {i}: inverse solution misses the ordering")
            elif item.kind.startswith("counterfactual"):
                res["valid"] = False
                if res["solved"]:
                    p = item.payload
                    g = q.make_qbag(res["scores"], p.graph.attacks, p.graph.supports)
                    reached = q.final_strengths(g, p.semantics)[p.topic]
                    tolerance = q.reductions.COUNTERFACTUAL_SEARCH_DEFAULTS.cost_tolerance
                    if reached is not None and abs(reached - p.target) <= tolerance + 1e-12:
                        res["valid"] = True
                        change = sum(abs(res["scores"][a] - p.graph.base_scores[a]) for a in p.graph.arguments)
                        res["bs_diff"] = change / len(p.graph.arguments)
                    else:
                        errors.append(f"exact op {i}: counterfactual misses its target ({reached} vs {p.target})")
            else:
                query = item.payload
                res["valid"] = bool(res["found"] and res["verified"])
                if res["found"] and not res["verified"]:
                    errors.append(f"exact op {i}: found change is not an explanation")
                witness = res["witness"]
                if res["found"]:
                    oracle = q.brute_force_search(query, CERTIFY_GRID, "weak")
                    witness = oracle.best
                    norm = q.amount_of_change(query.graph, res["change"])
                    beaten = oracle.best is not None and oracle.best_norm < norm - CERTIFY_EPSILON
                    if beaten != (res["verdict"] == "no"):
                        errors.append(f"exact op {i}: verdict {res['verdict']!r} disagrees with the oracle")
                if witness is not None and not q.is_explanation(query, witness, mode="weak"):
                    errors.append(f"exact op {i}: oracle witness is not an explanation")
                if not res["valid"]:
                    res["bs_diff"] = None
        return errors


WORKLOADS = {w.name: w for w in (Explain(), Eval(), Exact())}

"""Rank-correlation metrics and the batch experiment runner.

For every cell (structure x family/mutability x semantics) the runner
generates seeded instances, searches each one, and aggregates validity
(weak cost exactly zero), Kendall/Spearman correlation between the target
ordering and the achieved strengths (the last iterate's when the search
fails), wall time of the search call alone, and the mean base-score change
per mutable argument over valid runs only.
"""

from __future__ import annotations

import csv
import math
import time
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import astuple, dataclass, field, fields
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import checked_int, checked_items, json_object
from .explanation import DesiredOrdering, ExplanationQuery, amount_of_change
from .generators import GenSpec, LayerStructure, check_family, check_mutable_mode, check_target, generate_batch, mutable_preset, structure
from .graph import make_qbag
from .search import SearchConfig, heuristic_search, search_config_from_doc
from .semantics import builtin_semantics, final_strengths


def _target_and_achieved(ordering: DesiredOrdering, strengths: Mapping[str, float]):
    rank = ordering.tier_of()
    topics = sorted(rank)
    if len(topics) < 2:
        raise ValueError("rank correlation needs at least 2 topic arguments")
    for x in topics:
        if strengths.get(x) is None:
            raise ValueError(f"strength of topic {x!r} missing or undefined")
    return [rank[x] for x in topics], [strengths[x] for x in topics]


def kendall_tau(ordering: DesiredOrdering, strengths: Mapping[str, float]) -> float:
    """Tie-corrected (tau-b) correlation between the desired ranks and the
    achieved strengths; 1 means equal order, -1 reversed. All-tied strengths
    carry no rank information and count as 0. Counts the pairs directly and
    evaluates scipy.stats.kendalltau's expression, operation for operation:
    (concordant - discordant) / sqrt(pairs - x ties) / sqrt(pairs - y ties),
    clipped to [-1, 1]."""
    target, achieved = _target_and_achieved(ordering, strengths)
    signs = [((xi > xj) - (xi < xj), (yi > yj) - (yi < yj))
             for (xi, yi), (xj, yj) in combinations(zip(target, achieved), 2)]
    x_ties, y_ties = sum(dx == 0 for dx, _ in signs), sum(dy == 0 for _, dy in signs)
    if len(signs) in (x_ties, y_ties):
        return 0.0
    tau = sum(dx * dy for dx, dy in signs) / math.sqrt(len(signs) - x_ties) / math.sqrt(len(signs) - y_ties)
    return min(1.0, max(-1.0, tau))


def spearman_rho(ordering: DesiredOrdering, strengths: Mapping[str, float]) -> float:
    """Spearman correlation with average ranks for ties (np.corrcoef of the
    ranks, as scipy.stats.spearmanr computes it); 0 when either side is
    constant."""
    target, achieved = _target_and_achieved(ordering, strengths)
    if len(set(target)) == 1 or len(set(achieved)) == 1:
        return 0.0
    # a value's average rank: the mean of the 1-based positions its ties take when sorted
    ranks = [[(bisect_left(order, x) + bisect_right(order, x) + 1) / 2 for x in side]
             for side, order in ((target, sorted(target)), (achieved, sorted(achieved)))]
    return float(np.corrcoef(*ranks)[1, 0])


@dataclass(frozen=True)
class ExperimentConfig:
    structures: tuple[LayerStructure, ...]  # or lists of layer sizes
    cells: tuple[tuple[str, str], ...]  # (family, mutable mode)
    semantics: tuple[str, ...] = ("dfquad",)
    n_graphs: int = 100
    seed: int = 0
    search: SearchConfig = field(default_factory=SearchConfig)
    target: str = "permuted"
    bs_diff_per: str = "mutable"  # or "all": divide the change by |arguments|

    def __post_init__(self):
        # every run's inputs are checked here, before the first search
        structures = tuple(s if isinstance(s, LayerStructure) else structure(checked_items(s, "a layer structure", "sizes"))
                           for s in checked_items(self.structures, "structures", "layer structures"))
        cells = tuple(checked_items(c, "a cell", "a family and a mutable mode")
                      for c in checked_items(self.cells, "cells", "(family, mutable mode) pairs"))
        if any(len(c) != 2 for c in cells):
            raise ValueError("a cell must be a (family, mutable mode) pair")
        for name, value in (("structures", structures), ("cells", cells),
                            ("semantics", checked_items(self.semantics, "semantics", "semantics tokens")),
                            ("n_graphs", checked_int(self.n_graphs, "n_graphs", least=1)),
                            ("seed", checked_int(self.seed, "seed"))):
            object.__setattr__(self, name, value)
        if not isinstance(self.search, SearchConfig):
            raise ValueError(f"search must be a SearchConfig, got {self.search!r}")
        if self.bs_diff_per not in ("mutable", "all"):
            raise ValueError("bs_diff_per must be 'mutable' or 'all'")
        check_target(self.target)
        for token in self.semantics:
            builtin_semantics(token)
        for family, mode in cells:
            check_family(family, structures)
            check_mutable_mode(family, mode)


def experiment_config_from_json(data: str | bytes) -> ExperimentConfig:
    """The config of a JSON experiment document: ExperimentConfig's fields
    as keys, "structures" and "cells" required, "search" a search config
    object."""
    doc = json_object(data, "experiment config", {f.name for f in fields(ExperimentConfig)})
    if not {"structures", "cells"} <= doc.keys():
        raise ValueError('experiment config needs "structures" and "cells"')
    if "search" in doc:
        doc["search"] = search_config_from_doc(doc["search"])
    return ExperimentConfig(**doc)


@dataclass(frozen=True)
class ExperimentRecord:
    structure: str
    family: str
    mode: str
    semantics: str
    validity: float
    kendall: float
    spearman: float
    runtime_s: float
    abs_bs_diff: float | None  # None when no run was valid (reported as NA)


@dataclass(frozen=True)
class GraphRunRecord:
    structure: str
    family: str
    mode: str
    semantics: str
    graph_index: int
    seed: int
    found: bool
    kendall: float
    spearman: float
    runtime_s: float
    iterations: int
    final_cost: float
    bs_diff: float | None


def batch_seed(seed: int, structure: LayerStructure, family: str) -> int:
    """Stable per-cell base seed; the same structure+family shares graphs
    across mutability modes and semantics."""
    tag = f"{structure}|{family}".encode()
    return (seed + zlib.crc32(tag)) % (2**63)


def run_graph(
    structure: LayerStructure,
    family: str,
    mode: str,
    semantics_token: str,
    graph_seed: int,
    search: SearchConfig,
    target: str,
    bs_diff_per: str,
    index: int = 0,
) -> GraphRunRecord:
    spec = builtin_semantics(semantics_token)
    instance = generate_batch(GenSpec(structure, family, graph_seed, target, spec), 1)[0]
    mutable = mutable_preset(instance, mode)
    query = ExplanationQuery(instance.graph, spec, mutable, instance.ordering)
    started = time.perf_counter()
    outcome = heuristic_search(query, search)
    elapsed = time.perf_counter() - started

    sigma = final_strengths(make_qbag(outcome.final_scores, instance.graph.attacks, instance.graph.supports), spec)
    kendall = kendall_tau(instance.ordering, sigma)
    spearman = spearman_rho(instance.ordering, sigma)

    bs_diff = None
    if outcome.found:
        norm = amount_of_change(instance.graph, outcome.change)
        denominator = len(mutable) if bs_diff_per == "mutable" else len(instance.graph.arguments)
        bs_diff = norm / denominator if denominator else 0.0
    return GraphRunRecord(
        str(structure),
        family,
        mode,
        semantics_token,
        index,
        graph_seed,
        outcome.found,
        kendall,
        spearman,
        elapsed,
        outcome.iterations_used,
        outcome.final_cost,
        bs_diff,
    )


def _run_task(task) -> GraphRunRecord:
    struct, family, mode, token, graph_seed, index, search, target, bs_diff_per = task
    return run_graph(struct, family, mode, token, graph_seed, search, target, bs_diff_per, index)


def run_experiment(
    cfg: ExperimentConfig,
    jobs: int = 1,
    summary_path=None,
    per_graph_path=None,
) -> list[ExperimentRecord]:
    """Run every cell; optionally write the summary and per-graph CSVs,
    making their directories once the runs are done.

    Per-graph seeds are fixed up front, so results do not depend on the
    execution schedule. `jobs` (at least 1) caps the worker processes;
    no more start than there are tasks.
    """
    jobs = checked_int(jobs, "jobs", least=1)
    tasks = []
    for struct in cfg.structures:
        for family, mode in cfg.cells:
            for token in cfg.semantics:
                base = batch_seed(cfg.seed, struct, family)
                for i in range(cfg.n_graphs):
                    tasks.append(
                        (struct, family, mode, token, base + i, i, cfg.search, cfg.target, cfg.bs_diff_per)
                    )

    workers = min(jobs, len(tasks))  # a process pool starts all its workers at the first task
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks, chunksize=4))
    else:
        results = [_run_task(task) for task in tasks]

    grouped: dict[tuple, list[GraphRunRecord]] = {}
    for r in results:
        grouped.setdefault((r.structure, r.family, r.mode, r.semantics), []).append(r)

    records = []
    for (struct, family, mode, token), runs in grouped.items():
        runs.sort(key=lambda r: r.graph_index)
        n = len(runs)
        valid = [r for r in runs if r.found]
        diffs = [r.bs_diff for r in valid if r.bs_diff is not None]
        records.append(
            ExperimentRecord(
                struct,
                family,
                mode,
                token,
                len(valid) / n,
                sum(r.kendall for r in runs) / n,
                sum(r.spearman for r in runs) / n,
                sum(r.runtime_s for r in runs) / n,
                (sum(diffs) / len(diffs)) if diffs else None,
            )
        )
    records.sort(key=lambda r: (r.structure, r.family, r.mode, r.semantics))

    for path in (summary_path, per_graph_path):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    if summary_path is not None:
        write_csv(summary_path, ExperimentRecord, records)
    if per_graph_path is not None:
        write_csv(per_graph_path, GraphRunRecord,
                  sorted(results, key=lambda r: (r.structure, r.family, r.mode, r.semantics, r.graph_index)))
    return records


def write_csv(path, kind: type, records: Iterable) -> None:
    """Write records of the dataclass `kind`, one column per field in field
    order: a bool as 0/1, None as NA, a float as its repr."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(f.name for f in fields(kind))
        for r in records:
            writer.writerow("NA" if v is None else int(v) if isinstance(v, bool) else v for v in astuple(r))

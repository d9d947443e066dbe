import ast
import concurrent.futures
import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau, spearmanr

import qbagx as q


def strengths_for(order):
    """Strengths realizing the given strongest-first sequence."""
    return {a: float(len(order) - i) for i, a in enumerate(order)}


def test_kendall_equal_and_reverse():
    target = q.ordering_from_spec("a>b>c")
    assert q.kendall_tau(target, strengths_for(["a", "b", "c"])) == pytest.approx(1.0)
    assert q.kendall_tau(target, strengths_for(["c", "b", "a"])) == pytest.approx(-1.0)


def test_kendall_one_swap_hand_count():
    # targets a>b>c vs achieved a>c>b: pairs (a,b) and (a,c) concordant,
    # (b,c) discordant: (2-1)/3
    target = q.ordering_from_spec("a>b>c")
    assert q.kendall_tau(target, strengths_for(["a", "c", "b"])) == pytest.approx(1 / 3)


def test_spearman_equal_reverse_and_swap():
    target = q.ordering_from_spec("a>b>c")
    assert q.spearman_rho(target, strengths_for(["a", "b", "c"])) == pytest.approx(1.0)
    assert q.spearman_rho(target, strengths_for(["c", "b", "a"])) == pytest.approx(-1.0)
    # rank differences (0, 1, -1): rho = 1 - 6*2/(3*8)
    assert q.spearman_rho(target, strengths_for(["a", "c", "b"])) == pytest.approx(0.5)


def _scipy_reference(ordering, strengths):
    """scipy's tau-b and Spearman rho over the sorted topics, NaN read as 0."""
    rank = ordering.tier_of()
    topics = sorted(rank)
    target, achieved = [rank[x] for x in topics], [strengths[x] for x in topics]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant inputs
        values = float(kendalltau(target, achieved).statistic), float(spearmanr(target, achieved).statistic)
    return tuple(0.0 if v != v else v for v in values)


def test_rank_correlations_equal_scipy_bit_for_bit():
    """Random tiers against random strengths, strengths with many ties
    (quarters, one decimal) and constant strengths; single-tier orderings
    make the target side constant."""
    rng = np.random.default_rng(0)
    seen = set()
    for trial in range(3000):
        k = int(rng.integers(2, 12))
        tiers = [[] for _ in range(int(rng.integers(1, k + 1)))]
        for i in range(k):
            tiers[i if i < len(tiers) else int(rng.integers(len(tiers)))].append(f"t{i}")
        ordering = q.ordering_from_tiers(tiers)
        draw = (rng.random(k), rng.integers(0, 3, k) / 4, np.full(k, 0.3), np.round(rng.random(k), 1))[trial % 4]
        strengths = {f"t{i}": float(v) for i, v in enumerate(draw)}
        got = q.kendall_tau(ordering, strengths), q.spearman_rho(ordering, strengths)
        assert got == _scipy_reference(ordering, strengths), (tiers, strengths)
        assert all(type(v) is float for v in got)
        seen.update(("zero" if v == 0.0 else "one" if abs(v) == 1.0 else "between") for v in got)
    assert seen == {"zero", "one", "between"}


def test_the_package_does_not_import_scipy():
    src = Path(q.__file__).parent
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_correlations_need_two_topics():
    target = q.ordering_from_tiers([["a"]])
    with pytest.raises(ValueError):
        q.kendall_tau(target, {"a": 1.0})
    with pytest.raises(ValueError):
        q.spearman_rho(target, {"a": 1.0})


def test_correlations_permutation_consistent():
    target = q.ordering_from_spec("a>b>c>d")
    strengths = {"a": 0.9, "b": 0.1, "c": 0.5, "d": 0.3}
    renamed_target = q.ordering_from_spec("w>x>y>z")
    renamed = {"w": 0.9, "x": 0.1, "y": 0.5, "z": 0.3}
    assert q.kendall_tau(target, strengths) == q.kendall_tau(renamed_target, renamed)
    assert q.spearman_rho(target, strengths) == q.spearman_rho(renamed_target, renamed)


def test_constant_strengths_count_as_zero_correlation():
    target = q.ordering_from_spec("a>b>c")
    assert q.kendall_tau(target, {"a": 0.5, "b": 0.5, "c": 0.5}) == 0.0
    assert q.spearman_rho(target, {"a": 0.5, "b": 0.5, "c": 0.5}) == 0.0


def small_config(**overrides):
    base = dict(
        structures=(q.structure([3, 4, 2]),),
        cells=(("random", "all"), ("random", "first")),
        semantics=("dfquad",),
        n_graphs=4,
        seed=11,
        search=q.SearchConfig(max_iterations=30),
    )
    base.update(overrides)
    return q.ExperimentConfig(**base)


def test_run_experiment_starts_at_most_one_worker_per_task(monkeypatch):
    started = []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = small_config(cells=(("random", "all"),), n_graphs=3, search=q.SearchConfig(max_iterations=2))
    assert len(q.run_experiment(cfg, jobs=64)) == 1 and started == [3]
    q.run_experiment(cfg, jobs=1)
    assert started == [3]


def test_run_experiment_smoke(tmp_path):
    summary = tmp_path / "summary.csv"
    per_graph = tmp_path / "per_graph.csv"
    records = q.run_experiment(small_config(), summary_path=summary, per_graph_path=per_graph)
    assert len(records) == 2
    for r in records:
        assert 0.0 <= r.validity <= 1.0
        assert -1.0 <= r.kendall <= 1.0
        assert -1.0 <= r.spearman <= 1.0
        assert r.runtime_s >= 0.0
        if r.validity == 0.0:
            assert r.abs_bs_diff is None

    with open(summary) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert set(rows[0]) == {"structure", "family", "mode", "semantics", "validity",
                            "kendall", "spearman", "runtime_s", "abs_bs_diff"}
    with open(per_graph) as handle:
        graph_rows = list(csv.DictReader(handle))
    assert len(graph_rows) == 8


def _strip(r):
    return (r.structure, r.family, r.mode, r.semantics, r.validity, r.kendall, r.spearman, r.abs_bs_diff)


def test_run_experiment_deterministic_apart_from_timing(tmp_path):
    first = q.run_experiment(small_config())
    second = q.run_experiment(small_config())
    assert [_strip(r) for r in first] == [_strip(r) for r in second]


def test_run_experiment_parallel_matches_sequential():
    sequential = q.run_experiment(small_config())
    parallel = q.run_experiment(small_config(), jobs=2)
    assert [_strip(r) for r in sequential] == [_strip(r) for r in parallel]


def test_validity_matches_independent_check():
    cfg = small_config(cells=(("random", "all"),), n_graphs=3)
    from qbagx.metrics import batch_seed, run_graph

    base = batch_seed(cfg.seed, cfg.structures[0], "random")
    for i in range(cfg.n_graphs):
        record = run_graph(cfg.structures[0], "random", "all", "dfquad", base + i, cfg.search, "permuted", "mutable")
        inst = q.generate_batch(q.GenSpec(cfg.structures[0], "random", base + i, semantics=q.DFQUAD), 1)[0]
        query = q.ExplanationQuery(inst.graph, q.DFQUAD, q.mutable_preset(inst, "all"), inst.ordering)
        outcome = q.heuristic_search(query, cfg.search)
        assert record.found == outcome.found
        if outcome.found:
            assert q.is_explanation(query, outcome.change, mode="weak")


def test_valid_runs_without_ties_score_perfect_correlation():
    from qbagx.metrics import batch_seed, run_graph

    struct = q.structure([3, 4, 3])
    base = batch_seed(2, struct, "random")
    seen = 0
    for i in range(6):
        record = run_graph(struct, "random", "all", "dfquad", base + i, q.SearchConfig(), "permuted", "mutable")
        if not record.found:
            continue
        inst = q.generate_batch(q.GenSpec(struct, "random", base + i, semantics=q.DFQUAD), 1)[0]
        query = q.ExplanationQuery(inst.graph, q.DFQUAD, q.mutable_preset(inst, "all"), inst.ordering)
        outcome = q.heuristic_search(query, q.SearchConfig())
        sigma = q.final_strengths(
            q.make_qbag(outcome.final_scores, inst.graph.attacks, inst.graph.supports), q.DFQUAD
        )
        achieved = [sigma[t] for t in inst.ordering.topic_set]
        if len(set(achieved)) == len(achieved):  # strictly ordered, no ties
            assert record.kendall == pytest.approx(1.0)
            assert record.spearman == pytest.approx(1.0)
            seen += 1
    assert seen >= 3


def test_bs_diff_per_argument_flag():
    cfg = small_config(cells=(("random", "all"),), n_graphs=2, bs_diff_per="all")
    records = q.run_experiment(cfg)
    cfg2 = small_config(cells=(("random", "all"),), n_graphs=2, bs_diff_per="mutable")
    records2 = q.run_experiment(cfg2)
    # with mode=all the denominators coincide, so values match
    assert records[0].abs_bs_diff == pytest.approx(records2[0].abs_bs_diff)


@pytest.mark.parametrize("overrides, message", [
    (dict(semantics=("dfquad", "bogus")), "unknown semantics token"),
    (dict(semantics=(["dfquad"],)), "unknown semantics token"),
    (dict(cells=(("random", "constrained"),)), "only exists for constrained"),
    (dict(cells=(("random", "everything"),)), "unknown mutable mode"),
    (dict(cells=(("bogus", "all"),)), "unknown family"),
    (dict(cells=(("constrained", "all"),)), "at least 4 layers"),
    (dict(target="nope"), "unknown target mode"),
    # with no structures there is no run, and the config is still checked
    (dict(structures=(), target="nope"), "unknown target mode"),
    (dict(structures=(), cells=(("bogus", "all"),)), "unknown family"),
    (dict(structures=(), cells=(("random", "everything"),)), "unknown mutable mode"),
])
def test_experiment_config_is_checked_before_any_run(monkeypatch, overrides, message):
    """A bad semantics token after a good one used to fail only once every
    graph of the good one had been searched, and with no structures a bad
    target or family was accepted and the experiment ran nothing."""
    runs = []
    monkeypatch.setattr(q.metrics, "run_graph", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=message):
        q.run_experiment(small_config(n_graphs=20, **overrides))
    assert runs == []

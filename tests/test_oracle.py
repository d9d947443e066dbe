import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import qbagx as q
import qbagx.oracle
from qbagx.errors import BudgetError, DomainError

import qbagx.explanation
from qbagx.oracle import _grid_count, _grid_values, _on_grid
from qbagx.semantics import compile_graph, is_monotone

from helpers import (
    FIG_CASES,
    FIG_EDGES,
    brute_force_reference,
    fig_graph,
    fig_query,
    grid_candidates,
    grid_fill_reference,
    random_tiny_query,
)

# Linear influence over the reals is not monotone (semantics.is_monotone): the
# oracle refutes none of its boxes, as on cyclic graphs, and skips only those
# above the running minimum.
UNPRUNED = q.SemanticsSpec("sum", q.Influence("linear", k=1.0), q.NAIVE.domain, acyclic_only=True, name="unpruned")


def unexplainable_query(mutable) -> q.ExplanationQuery:
    """The running example under UNPRUNED plus two isolated arguments, u
    above t, that the ordering wants the other way round: no assignment
    explains it and no box is refuted, so every grid point is evaluated."""
    scores, _ = FIG_CASES["g"]
    graph = q.make_qbag({**scores, "t": 1.0, "u": 2.0}, FIG_EDGES["attacks"], FIG_EDGES["supports"])
    return q.ExplanationQuery(graph, UNPRUNED, frozenset(mutable), q.ordering_from_tiers([["u"], ["t"]]))


def test_grid_best_running_example_exact_mode():
    # independent re-derivation: enumerate the grid with plain loops and the
    # scalar evaluator, then compare against the vectorized oracle
    g = fig_graph()
    ordering = q.ordering_from_tiers([["b"], ["c"]])
    values = [0.25 * k for k in range(17)]  # 0 .. 4
    best = None
    for va, ve in itertools.product(values, values):
        entries = {}
        if va != 1.0:
            entries["a"] = va
        if ve != 2.0:
            entries["e"] = ve
        updated = q.apply_change(g, q.StrengthChange(entries)) if entries else g
        sigma = q.final_strengths(updated, q.NAIVE)
        if sigma["b"] < sigma["c"]:  # strict, per the exact reading
            norm = abs(va - 1.0) + abs(ve - 2.0)
            if best is None or norm < best:
                best = norm
    assert best == pytest.approx(1.25)

    result = q.brute_force_search(fig_query(), q.GridSpec(step=0.25, lower=0, upper=4), mode="exact")
    assert result.exhaustive
    assert result.points == len(values) ** 2
    assert result.best_norm == pytest.approx(1.25)
    assert q.is_explanation(fig_query(), result.best, mode="exact")


def test_grid_best_running_example_weak_mode():
    # weak mode tolerates the tie at a=2 (sigma(b) = sigma(c) = 5)
    result = q.brute_force_search(fig_query(), q.GridSpec(step=0.25, lower=0, upper=4), mode="weak")
    assert result.best_norm == pytest.approx(1.0)
    assert result.best == q.StrengthChange({"a": 2.0})


def test_grid_already_satisfied_returns_empty_change():
    query = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset({"a", "e"}), q.ordering_from_tiers([["b"], ["c"]])
    )
    result = q.brute_force_search(query, q.GridSpec(step=0.5, lower=0, upper=4))
    assert result.best == q.EMPTY_CHANGE
    assert result.best_norm == 0.0


def test_grid_unreachable_mutables_finds_nothing():
    g = q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")])
    ordering = q.ordering_from_tiers([["u"], ["t"]])
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"m"}), ordering)
    result = q.brute_force_search(query, q.GridSpec(step=0.1))
    assert result.best is None
    assert result.best_norm == float("inf")
    assert result.exhaustive


def test_budget_cap_enforced():
    query = random_tiny_query(3, max_mutable=3)
    with pytest.raises(BudgetError):
        q.brute_force_search(query, q.GridSpec(step=0.5, max_mutable=0))


def test_finer_grids_never_do_worse():
    for seed in (0, 2, 5, 9):
        query = random_tiny_query(seed, max_mutable=2)
        coarse = q.brute_force_search(query, q.GridSpec(step=0.2))
        fine = q.brute_force_search(query, q.GridSpec(step=0.1))
        if coarse.best is not None:
            assert fine.best is not None
            assert fine.best_norm <= coarse.best_norm + 1e-12


def test_certify_wasteful_change_is_refused():
    # raising a by 1 and e by 2 when raising a alone suffices
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    assert q.certify_epsilon(fig_query(), q.StrengthChange({"a": 2.0, "e": 4.0}), 1.0, grid) == "no"


def test_certify_small_change_is_confirmed():
    # any change whose own size is at most epsilon is epsilon-approximate:
    # no rival can be cheaper by more than that
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    satisfied = q.ExplanationQuery(
        fig_graph("g_prime"), q.NAIVE, frozenset({"a", "e"}), q.ordering_from_tiers([["b"], ["c"]])
    )
    assert q.certify_epsilon(satisfied, q.EMPTY_CHANGE, 0.0, grid) == "yes"


def test_certify_discretization_bound_yields_yes_for_single_mutable():
    # with one mutable argument the slack |M|*h is small enough to certify
    # the minimal-change region around the true optimum of 1
    query = fig_query(mutable=("a",))
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    assert q.certify_epsilon(query, q.StrengthChange({"a": 3.0}), 1.0, grid, mode="exact") == "yes"


def test_certify_between_thresholds_is_unknown():
    # for M = {a, e} the grid minimum (1.25 exact / 1.0 weak) sits between
    # norm - eps = 1 and norm - eps + 2h, so the verdict stays open
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    assert q.certify_epsilon(fig_query(), q.StrengthChange({"a": 3.0}), 1.0, grid, mode="weak") == "unknown"
    assert q.certify_epsilon(fig_query(), q.StrengthChange({"a": 3.0}), 1.0, grid, mode="exact") == "unknown"


def test_oracle_tiebreak_deterministic():
    query = fig_query()
    grid = q.GridSpec(step=0.25, lower=0.0, upper=4.0)
    first = q.brute_force_search(query, grid, mode="exact")
    second = q.brute_force_search(query, grid, mode="exact")
    assert first == second


def test_unbounded_domain_needs_explicit_grid_bounds():
    with pytest.raises(ValueError):
        q.brute_force_search(fig_query(), q.GridSpec(step=0.5))


def test_non_finite_grid_rejected():
    for bad in ({"step": float("nan")}, {"step": float("inf")}, {"lower": float("-inf")}, {"upper": float("nan")}):
        with pytest.raises(ValueError):
            q.GridSpec(**bad)


@pytest.mark.parametrize("bad", [{"step": True}, {"max_mutable": True}, {"max_mutable": 2.5}, {"max_mutable": -1},
                                 {"max_points": 2.5}, {"max_points": False}, {"max_points": 0}, {"max_points": "9"}])
def test_malformed_grid_caps_rejected(bad):
    """GridSpec(max_points=2.5, max_mutable=True) used to be accepted."""
    with pytest.raises(ValueError):
        q.GridSpec(**bad)


def test_reversed_grid_rejected():
    """A reversed grid used to hold one point and certify a change the
    oracle beats on the ordered grid."""
    with pytest.raises(ValueError, match="lower bound exceeds"):
        q.GridSpec(step=0.25, lower=4, upper=0)
    query = fig_query()
    change = q.heuristic_search(query).change
    assert q.amount_of_change(query.graph, change) == pytest.approx(1.4)
    assert q.certify_epsilon(query, change, 0.0, q.GridSpec(step=0.25, lower=0, upper=4)) == "no"


def test_grid_bounds_outside_the_semantics_domain_rejected():
    """An out-of-domain bound used to yield a witness the verifier rejects."""
    g = q.make_qbag({"a": 0.5, "b": 0.6, "t": 0.5}, attacks=[("a", "t")])
    query = q.ExplanationQuery(g, q.DFQUAD, frozenset({"a"}), q.ordering_from_tiers([["b"], ["t"]]))
    assert q.brute_force_search(query, q.GridSpec(step=0.25)).best is None
    for bounds in ({"lower": -1, "upper": 1}, {"lower": 0, "upper": 2}, {"lower": -0.5}, {"upper": 1.5}):
        with pytest.raises(DomainError, match="outside domain"):
            q.brute_force_search(query, q.GridSpec(step=0.25, **bounds))
    assert q.brute_force_search(query, q.GridSpec(step=0.25, lower=0, upper=1)).best is None


def test_grid_point_cap_enforced():
    query = random_tiny_query(7, max_mutable=3)
    with pytest.raises(BudgetError):
        q.brute_force_search(query, q.GridSpec(step=0.001, max_points=1000))
    with pytest.raises(BudgetError, match="more grid values than a float can count"):  # was an OverflowError
        q.brute_force_search(query, q.GridSpec(step=1e-320))


def _reference_queries():
    """Random tiny queries as drawn (base scores off the grid), and the same
    queries with base scores moved onto a quarter grid, where many
    assignments tie on the change amount."""
    for seed in range(24):
        for semantics in (q.DFQUAD, q.QUADRATIC_ENERGY):
            query = random_tiny_query(seed, semantics)
            yield query, q.GridSpec(step=0.1)
            scores = {a: round(4 * v) / 4 for a, v in query.graph.base_scores.items()}
            graph = q.make_qbag(scores, query.graph.attacks, query.graph.supports)
            yield dataclasses.replace(query, graph=graph), q.GridSpec(step=0.25)


def test_streamed_oracle_matches_single_batch_reference(monkeypatch):
    # chunks of 7 columns split groups of equal-norm winners across chunks
    monkeypatch.setattr(qbagx.oracle, "_CHUNK", 7)
    split_groups = 0
    for query, grid in _reference_queries():
        for mode in ("weak", "exact"):
            best, best_norm, winners = brute_force_reference(query, grid, mode)
            result = q.brute_force_search(query, grid, mode)
            assert (result.best, result.best_norm) == (best, best_norm), (query, mode)
            # pruned boxes are decided without evaluating their points
            assert result.exhaustive and result.points <= math.prod(map(len, grid_candidates(query, grid)))
            split_groups += len(set(winners // 7)) > 1
    assert split_groups >= 10


def test_early_exit_certification_matches_full_minimum(monkeypatch):
    monkeypatch.setattr(qbagx.oracle, "_CHUNK", 7)
    rng = np.random.default_rng(0)
    seen = set()
    for query, grid in _reference_queries():
        _, best_norm, _ = brute_force_reference(query, grid, "weak")
        slack = len(query.mutable) * grid.step
        for _ in range(3):
            change = q.StrengthChange({a: float(rng.random()) for a in sorted(query.mutable) if rng.random() < 0.8})
            norm = q.amount_of_change(query.graph, change)
            for epsilon in (0.0, 0.1, 0.3):
                if norm <= epsilon or norm - epsilon + slack <= best_norm:
                    expected = "yes"
                elif best_norm < norm - epsilon:
                    expected = "no"
                else:
                    expected = "unknown"
                assert q.certify_epsilon(query, change, epsilon, grid, "weak") == expected
                seen.add(expected)
    assert seen == {"yes", "no", "unknown"}


def test_exact_mode_witnesses_are_exact_explanations():
    found = 0
    for seed in range(30):
        for semantics in (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY):
            query = random_tiny_query(seed, semantics)
            result = q.brute_force_search(query, q.GridSpec(step=0.1), mode="exact")
            if result.best is not None:
                found += 1
                assert q.is_explanation(query, result.best, mode="exact"), (seed, semantics.name)
    assert found >= 30


def test_oracle_batches_stay_within_one_chunk(monkeypatch):
    """Each box streams as one batch of at most one chunk, whether or not the
    grid is pruned: unpruned (linear influence over the reals is not
    monotone) with no explanation, every point; under naive, a monotone
    semantics, the surviving boxes."""
    widths = []
    evaluate = qbagx.explanation.evaluate_matrix

    def recording(plan, spec, tau, *args, **kwargs):
        widths.append(tau.shape[1])
        return evaluate(plan, spec, tau, *args, **kwargs)

    monkeypatch.setattr(qbagx.explanation, "evaluate_matrix", recording)
    grid = q.GridSpec(step=0.125, lower=0.0, upper=4.0)  # 33 values, each base score among them
    query = unexplainable_query(("a", "d", "e"))
    result = q.brute_force_search(query, grid)
    n = len(query.graph.arguments)
    width = qbagx.oracle._chunk_width(n, result.points)
    assert width == qbagx.oracle._CHUNK_CELLS // n  # as wide as keeps one n x width array at _CHUNK_CELLS
    assert result.best is None and result.points == 33 ** 3 > width
    assert len(widths) > 1 and max(widths) <= width
    assert sum(widths) == result.points

    widths.clear()
    result = q.brute_force_search(fig_query(mutable=("a", "d", "e")), grid)
    assert 0 < result.points < 33 ** 3 and sum(widths) == result.points
    assert len(widths) > 1 and max(widths) <= qbagx.oracle._chunk_width(5, 33 ** 3)


@pytest.mark.parametrize("pruned", [False, True])
def test_oracle_chunks_after_the_first_allocate_less_than_one_batch(pruned):
    """The stream allocates its batch and buffers for the first box; each
    later box allocates less than one n x width float array (tracemalloc
    sees numpy's data allocations). Unpruned: sum + linear(1) at in-degree 4
    is not monotone, so no box is refuted, and the explanation lies seven
    boxes in. Pruned: DF-QuAD streams the surviving boxes and refutes the
    others (this grid holds no explanation)."""
    inst = q.generate(q.GenSpec(q.structure((4, 4, 2)), "random", 1 if pruned else 41))
    spec = q.DFQUAD if pruned else q.SemanticsSpec("sum", q.Influence("linear", k=1.0))
    ordering = inst.ordering if pruned else q.ordering_from_tiers(reversed([sorted(t) for t in inst.ordering.tiers]))
    query = q.ExplanationQuery(inst.graph, spec, frozenset(inst.layers[0]), ordering)
    stream = qbagx.oracle._running_minimum(query, q.GridSpec(step=0.1), "weak")  # 12^4 assignments
    tracemalloc.start()
    try:
        first = next(stream)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        rest = list(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, width = len(query.graph.arguments), qbagx.oracle._chunk_width(len(query.graph.arguments), 12 ** 4)
    assert first.points <= width and len(rest) >= 3 and rest[-1].exhaustive and not rest[-2].exhaustive
    assert 0 < rest[-1].points < 12 ** 4
    assert (rest[-1].best is None) == pruned and (pruned or len(rest) >= 5)
    assert peak - before < n * width * 8


def test_grid_fill_matches_the_divmod_reference_bit_for_bit(monkeypatch):
    """Every batch is the divmod fill of one box, a run of each axis's
    candidates in C order, for 1 to 4 mutable arguments with candidate lists
    of unequal length (b's own score is off the grid) and chunk widths from
    1 to above the whole grid. Where nothing is refuted or skipped, the
    boxes tile the grid: each point is evaluated once. Where the grid is
    pruned (naive is monotone), each batch is the divmod fill of its box."""
    batches = []
    evaluate = qbagx.explanation.evaluate_matrix

    def recording(plan, spec, tau, *args, **kwargs):
        batches.append(tau.copy())
        return evaluate(plan, spec, tau, *args, **kwargs)

    def boxes_of(plan, rows, candidates):
        """Per batch, each axis's first candidate index and the batch's
        points as C-order grid positions, checking the batch's fill."""
        for batch in batches:
            box = [np.unique(batch[row]) for row in rows]
            firsts = [int(np.searchsorted(axis, values[0])) for values, axis in zip(box, candidates)]
            for values, axis, first in zip(box, candidates, firsts):
                assert np.array_equal(axis[first : first + len(values)], values)
            want = np.repeat(plan.tau[:, None], batch.shape[1], axis=1)
            want[rows] = grid_fill_reference(box, 0, batch.shape[1])
            assert np.array_equal(batch.view(np.uint64), want.view(np.uint64))
            mesh = np.meshgrid(*(np.arange(f, f + len(v)) for f, v in zip(firsts, box)), indexing="ij")
            yield np.ravel_multi_index([m.reshape(-1) for m in mesh], [len(c) for c in candidates])

    monkeypatch.setattr(qbagx.explanation, "evaluate_matrix", recording)
    grid = q.GridSpec(step=0.5, lower=0.0, upper=4.0)  # 9 values; b's score 8 makes 10
    for mutable in (("e",), ("b",), ("b", "e"), ("a", "b", "e"), ("a", "b", "d", "e")):
        query = unexplainable_query(mutable)
        plan = compile_graph(query.graph)
        candidates = grid_candidates(query, grid)
        total = math.prod(map(len, candidates))
        rows = [plan.index[a] for a in sorted(mutable)]
        for chunk in (1, 4, 7, 10, 50, 100, 500, 1000, 4000, 5000, 8000):
            monkeypatch.setattr(qbagx.oracle, "_CHUNK", chunk)
            batches.clear()
            result = q.brute_force_search(query, grid)
            assert result.points == total == sum(b.shape[1] for b in batches)
            assert max(b.shape[1] for b in batches) <= chunk
            positions = np.concatenate(list(boxes_of(plan, rows, candidates)))
            assert np.array_equal(np.sort(positions), np.arange(total)), (mutable, chunk)
    assert sorted(map(len, candidates)) == [9, 9, 9, 10]

    monkeypatch.setattr(qbagx.oracle, "_CHUNK", 500)
    batches.clear()
    query = fig_query(mutable)
    plan = compile_graph(query.graph)
    result = q.brute_force_search(query, grid)
    assert result.points == sum(b.shape[1] for b in batches) < total and len(batches) > 1
    assert len(np.unique(np.concatenate(list(boxes_of(plan, rows, candidates))))) == result.points


def test_on_grid_agrees_with_the_grid_values():
    rng = np.random.default_rng(0)
    for step, lower, upper in ((0.1, 0.0, 1.0), (1 / 31, 0.0, 1.0), (0.125, 0.0, 4.0), (0.3, -1.0, 2.0),
                               (1e-3, 0.05, 0.95), (0.07, -0.5, 0.5)):
        grid = q.GridSpec(step=step, lower=lower, upper=upper)
        low, count = _grid_count(grid, q.NAIVE.domain)
        values = _grid_values(grid, q.NAIVE.domain)
        probes = list(values[::7]) + list(rng.uniform(lower - 0.1, upper + 0.1, 50))
        probes += [np.nextafter(v, d) for v in values[::11] for d in (-np.inf, np.inf)] + [lower - step, upper + step]
        hits = 0
        for v in map(float, probes):
            on = _on_grid(v, low, grid.step, count)
            assert on == bool(np.any(values == v)), (grid, v)
            hits += on
        assert hits >= len(values[::7])


def test_the_grid_is_counted_before_any_of_it_is_made():
    """A step of 1e-7 makes 10,000,001 values per axis: the cap is enforced
    before any of them is made (before, the check came after about 321 MB),
    and no mutable argument means no grid values at all."""
    grid = q.GridSpec(step=1e-7, lower=0, upper=1)
    for mutable, raises in ((("a", "e"), True), ((), False)):
        query = fig_query(mutable)
        compile_graph(query.graph)  # the graph's topology is not the grid's
        tracemalloc.start()
        try:
            if raises:
                with pytest.raises(BudgetError, match="exceed the cap"):
                    q.brute_force_search(query, grid)
            else:  # the one assignment, the base scores, is refuted by its bounds: b is stronger than c
                assert q.brute_force_search(query, grid).points == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (mutable, peak)


# Monotone configurations (semantics.is_monotone), whose grids are pruned
MONOTONE = (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY,
            q.SemanticsSpec("product", q.Influence("linear", k=2.0)),
            q.SemanticsSpec("sum", q.Influence("linear", k=6.0)))  # tiny graphs have in-degree <= 5


def test_pruned_oracle_matches_the_reference(monkeypatch):
    """On random acyclic queries under monotone semantics, with base scores
    off the grid, the pruned oracle gives the one-batch reference's answer
    in weak and exact mode: for the drawn mutable set, the same set plus a
    topic, and the empty set; for the drawn tiers and with the two lowest
    merged into one (a same-tier pair); on grids with and without an
    explanation."""
    monkeypatch.setattr(qbagx.oracle, "_CHUNK", 64)  # many boxes per grid
    grid = q.GridSpec(step=0.25)
    seen = dict.fromkeys(("found", "none", "pruned", "refuted", "mutable topic", "empty", "tied"), 0)
    for seed in range(30):
        query = random_tiny_query(seed, MONOTONE[seed % len(MONOTONE)])
        assert is_monotone(compile_graph(query.graph), query.semantics)
        topic = min(query.ordering.topic_set - query.mutable, default=None)
        low, next_up, *rest = query.ordering.tiers
        tied = q.ordering_from_tiers([sorted(low | next_up)] + [sorted(t) for t in rest])
        for mutable, ordering in itertools.product({query.mutable, query.mutable | {topic} - {None}, frozenset()},
                                                   (query.ordering, tied)):
            variant = dataclasses.replace(query, mutable=mutable, ordering=ordering)
            total = math.prod(map(len, grid_candidates(variant, grid)))
            for mode in ("weak", "exact"):
                best, best_norm, _ = brute_force_reference(variant, grid, mode)
                result = q.brute_force_search(variant, grid, mode)
                assert (result.best, result.best_norm) == (best, best_norm), (seed, sorted(mutable), mode)
                assert result.exhaustive and result.points <= total
                seen["found" if best is not None else "none"] += 1
                seen["pruned"] += result.points < total
                seen["refuted"] += result.points == 0
                seen["mutable topic"] += bool(mutable & query.ordering.topic_set)
                seen["empty"] += not mutable
                seen["tied"] += ordering is tied and mode == "exact" and result.points < total
    assert min(seen.values()) >= 10, seen


def test_configurations_outside_the_monotonicity_condition_are_never_refuted(monkeypatch):
    """product + linear(0.5) leaves [0, 1] and sum + linear(1) at in-degree 2
    is not monotone in w, so interval bounds would not enclose their
    strengths and are never computed; sum + linear(2) at in-degree 2 is
    monotone and bounded. Either way the answer is the reference's."""
    calls = []
    bounds = qbagx.oracle.interval_pass

    def counting(*args):
        calls.append(1)
        return bounds(*args)

    monkeypatch.setattr(qbagx.oracle, "interval_pass", counting)
    g = q.make_qbag({"a": 0.9, "b": 0.8, "c": 0.3, "d": 0.6}, attacks=[("a", "c")], supports=[("b", "c")])
    ordering = q.ordering_from_tiers([["d"], ["c"]])
    grid = q.GridSpec(step=1 / 31)  # 32 values, plus each score: 33^3 assignments, over several chunks
    for spec, pruned in ((q.SemanticsSpec("product", q.Influence("linear", k=0.5)), False),
                         (q.SemanticsSpec("sum", q.Influence("linear", k=1.0)), False),
                         (q.SemanticsSpec("sum", q.Influence("linear", k=2.0)), True)):
        query = q.ExplanationQuery(g, spec, frozenset({"a", "b", "d"}), ordering)
        assert is_monotone(compile_graph(g), spec) == pruned
        for mode in ("weak", "exact"):
            best, best_norm, _ = brute_force_reference(query, grid, mode)
            calls.clear()
            result = q.brute_force_search(query, grid, mode)
            assert (result.best, result.best_norm) == (best, best_norm)
            assert result.exhaustive and 0 < result.points < 33 ** 3
            assert bool(calls) == pruned, (spec, mode)


def _with_back_edge(query: q.ExplanationQuery, kind: str) -> q.ExplanationQuery:
    """The query's graph plus one edge of `kind` against the first edge
    (or, on a graph without edges, a two-argument cycle): a cyclic graph."""
    g = query.graph
    attacks, supports = list(g.attacks), list(g.supports)
    first = min(attacks + supports, default=None)
    x, y = (first[1], first[0]) if first else sorted(g.arguments)[:2]
    added = [(x, y)] if first else [(x, y), (y, x)]
    if kind == "attack":
        attacks += added
    else:
        supports += added
    return dataclasses.replace(query, graph=q.make_qbag(g.base_scores, attacks, supports))


@pytest.mark.parametrize("chunk", [1, 5, 16, 64])
def test_cyclic_oracle_matches_the_reference(monkeypatch, chunk):
    """Random tiny queries plus a back edge (cyclic, so no box is refuted)
    under DF-QuAD and euler-based give the one-batch reference's answer in
    weak and exact mode, whatever the chunk width."""
    monkeypatch.setattr(qbagx.oracle, "_CHUNK", chunk)
    grid = q.GridSpec(step=0.25)
    seen = {"found": 0, "none": 0}
    for seed in range(12):
        for semantics in (q.DFQUAD, q.EULER_BASED):
            query = _with_back_edge(random_tiny_query(seed, semantics), ("attack", "support")[seed % 2])
            assert not compile_graph(query.graph).acyclic
            total = math.prod(map(len, grid_candidates(query, grid)))
            for mode in ("weak", "exact"):
                best, best_norm, _ = brute_force_reference(query, grid, mode)
                result = q.brute_force_search(query, grid, mode)
                assert (result.best, result.best_norm) == (best, best_norm), (seed, semantics.name, mode)
                assert result.exhaustive and result.points <= total
                seen["found" if best is not None else "none"] += 1
    assert min(seen.values()) >= 5, seen


# The exact workload's certification queries (4,4,2, DF-QuAD, the first
# layer mutable) of its seeds 1, 3, 7, 11, 13, 17, 29 and 41: graph seed,
# the verdict on the default search's change (None: the search found none),
# and the weak grid minimum, as the whole-grid stream gave them.
CERTIFICATIONS = (
    (1842777902, "no", 0.989434718745821),  # seed 1
    (1549821304, "no", 0.3469187375006977),  # seed 1
    (979541209, None, 2.61833887025271),  # seed 3
    (888343946, None, 0.8569885057329757),  # seed 3
    (1946952343, None, math.inf),  # seed 7
    (1479424821, "no", 0.16300651928700105),  # seed 7
    (1953312052, "unknown", 2.497914300316987),  # seed 11
    (209547466, "no", 1.004911257496294),  # seed 11
    (321462755, "no", 1.3892765187453802),  # seed 13
    (37038720, None, math.inf),  # seed 13
    (922949972, "no", 0.028656025380969424),  # seed 17
    (990437246, "unknown", 1.4868038254620268),  # seed 17
    (910613783, None, 1.229432380493388),  # seed 29
    (1575395300, "no", 0.9248735342222844),  # seed 29
    (1529732588, None, math.inf),  # seed 41
    (1311974981, None, 2.005799285793143),  # seed 41
)


def test_pruned_certifications_match_the_whole_grid_stream():
    grid = q.GridSpec(step=1 / 31, lower=0.0, upper=1.0)  # 33^4 assignments
    for graph_seed, verdict, best_norm in CERTIFICATIONS:
        inst = q.generate(q.GenSpec(q.structure((4, 4, 2)), "random", graph_seed))
        query = q.ExplanationQuery(inst.graph, q.DFQUAD, frozenset(inst.layers[0]), inst.ordering)
        outcome = q.heuristic_search(query)
        assert (q.certify_epsilon(query, outcome.change, 0.01, grid) if outcome.found else None) == verdict
        result = q.brute_force_search(query, grid)
        assert result.best_norm == best_norm and result.points < 33 ** 4, graph_seed
        assert result.best is None or q.is_explanation(query, result.best, "weak")

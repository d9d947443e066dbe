"""The names of qbagx that perfbench's traced runs rely on.

`perfbench/tracing.py` swaps the `qbagx.semantics` globals that
`final_strengths` calls for traced ones, and `perfbench/workloads.py` reads
attributes of a compiled plan and of a semantics; a rename in the package
would break `--trace 1` with no other test failing. The `exact`
workload's checks also read the reductions' results, their
`iterations_used` and the counterfactual tolerance.
"""

import re
import sys
from pathlib import Path

import pytest

import qbagx as q
from qbagx.semantics import compile_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from tracing import Tracer  # noqa: E402

STEPS = ("compile_graph", "check_scores_in_domain", "evaluate_matrix")


def _graphs():
    acyclic = q.make_qbag({"a": 0.6, "b": 0.5, "c": 0.2}, attacks=[("a", "b")], supports=[("b", "c")])
    cyclic = q.make_qbag({"x": 0.5, "y": 0.4, "z": 0.3}, attacks=[("x", "y"), ("y", "z")], supports=[("z", "x")])
    return [acyclic, cyclic]


@pytest.mark.parametrize("g", _graphs(), ids=["acyclic", "cyclic"])
def test_call_split_traces_each_step_of_final_strengths(g):
    saved = {step: getattr(q.semantics, step) for step in STEPS}
    tracer = Tracer()
    tracer.enabled, tracer.op_id = True, 0
    got = tracer.call_split("semantics.final_strengths", q.final_strengths, q.semantics, STEPS, g, q.DFQUAD)
    assert got == q.final_strengths(g, q.DFQUAD)
    names = [span[0] for span in tracer.spans]
    assert names == ["semantics.final_strengths"] + [f"semantics.{step}" for step in STEPS]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0]  # each step a child of the call
    assert all(getattr(q.semantics, step) is saved[step] for step in STEPS)


def test_the_plan_attributes_the_workloads_read_exist():
    read = set(re.findall(r"\bplan\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert read >= {"acyclic", "tau", "ids"}
    for g in _graphs():
        plan = compile_graph(g)
        for name in read | {"acyclic", "tau", "ids", "index"}:
            assert hasattr(plan, name), name


def test_the_semantics_attributes_the_workloads_read_exist():
    """`domain` is derived from the influence, not a field, so a rename would
    not show in the constructor calls."""
    read = set(re.findall(r"\bspec\.(\w+)", (PERFBENCH / "workloads.py").read_text()))
    assert read >= {"domain", "name"}
    for spec in (q.DFQUAD, q.EULER_BASED, q.QUADRATIC_ENERGY, q.NAIVE):
        for name in read:
            assert hasattr(spec, name), name
        assert isinstance(spec.domain, q.StrengthDomain) and isinstance(spec.name, str)


def test_the_reduction_names_the_exact_workload_reads_exist():
    source = (PERFBENCH / "workloads.py").read_text()
    assert "q.reductions.COUNTERFACTUAL_SEARCH_DEFAULTS.cost_tolerance" in source
    assert "outcome.iterations_used" in source
    tolerance = q.reductions.COUNTERFACTUAL_SEARCH_DEFAULTS.cost_tolerance
    assert tolerance > 0.0

    g = q.make_qbag({"p": 0.3, "t": 0.4}, supports=[("p", "t")])
    problem = q.CounterfactualProblem(g, "t", 0.7, q.DFQUAD)
    scores, outcome = q.solve_counterfactual(problem)
    assert isinstance(outcome, q.SearchOutcome)
    assert isinstance(outcome.iterations_used, int) and outcome.iterations_used >= 1
    assert set(scores) == {"p", "t"}
    reached = q.final_strengths(q.make_qbag(scores, g.attacks, g.supports), q.DFQUAD)["t"]
    assert abs(reached - 0.7) <= tolerance + 1e-12

    scores, outcome = q.solve_counterfactual(problem, q.SearchConfig(max_iterations=1, restarts=0))
    assert scores is None
    assert isinstance(outcome, q.SearchOutcome) and isinstance(outcome.iterations_used, int)

    inverse = q.make_inverse_problem(["a", "b"], [], [("a", "b")], [["a"], ["b"]])
    solution = q.solve_inverse(inverse, q.QUADRATIC_ENERGY)
    assert set(solution) == {"a", "b"}
    assert q.satisfies(q.make_qbag(solution, inverse.attacks, inverse.supports), q.QUADRATIC_ENERGY,
                       inverse.ordering, mode="exact")

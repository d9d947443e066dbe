"""The names of qbagx that perfbench's traced runs rely on.

`perfbench/tracing.py` swaps the `qbagx.semantics` globals that
`final_strengths` calls for traced ones, and `perfbench/workloads.py` reads
attributes of a compiled plan; a rename in the package would break
`--trace 1` with no other test failing.
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

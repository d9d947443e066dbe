"""The one number rule, the one identifier rule and the one document rule
at the boundary.

Every real that enters qbagx goes through errors.checked_real (a
numbers.Real, not a bool, that fits a float) and every integer through
errors.checked_int (a numbers.Integral, not a bool, not below its least
value). The table names each field or argument that takes a number, the
error class it raises, and runs it against values it must refuse. 10**400
is an integer, so it is refused only where a real is wanted.

Every collection of argument ids goes through errors.checked_ids (a
collection that is not a string or a mapping, of non-empty strs) and every
edge collection through the edge rule (pairs of two argument ids: the
topology build's bulk passes and endpoint lookup, then graph.edge_set to name
a fault). The identifier table runs every entry point that takes ids or
edges against inputs that break the rule, and each must raise its own class
with the rule's message.

Every JSON document goes through errors.json_document (UTF-8, valid JSON,
no NaN or infinity literals, no key twice in an object) and
errors.checked_object (an object with no unknown key). The document table
runs every reader against documents that break each part of the rule.
"""

import ast
import json
import math
import re
from pathlib import Path

import pytest

import qbagx as q
from qbagx.cli import main
from qbagx.errors import GraphFormatError, InvalidChangeError, UnknownArgumentError
from qbagx.graph import reachable_from

SRC = Path(__file__).resolve().parents[1] / "src" / "qbagx"

NOT_REAL = [True, "0.5", None, math.nan, math.inf, -math.inf, 10**400]
NOT_INT = [True, "0.5", None, math.nan, math.inf, -math.inf, 1.5]

GRAPH = q.make_qbag({"a": 0.5, "t": 0.4}, supports=[("a", "t")])
QUERY = q.ExplanationQuery(GRAPH, q.DFQUAD, frozenset({"a"}), q.ordering_from_spec("t>a"))
EXPERIMENT = dict(structures=(q.structure((2, 2)),), cells=(("random", "all"),))


def _search(name):
    return lambda v: q.SearchConfig(**{name: v})


# name: (error, build from the value)
REALS = {
    "base score": (GraphFormatError, lambda v: q.make_qbag({"a": v})),
    "strength change entry": (InvalidChangeError, lambda v: q.StrengthChange({"a": v})),
    "influence k": (ValueError, lambda v: q.Influence("linear", k=v)),
    "semantics epsilon": (ValueError, lambda v: q.SemanticsSpec("sum", q.Influence("euler_based"), epsilon=v)),
    "grid step": (ValueError, lambda v: q.GridSpec(step=v)),
    "grid lower": (ValueError, lambda v: q.GridSpec(lower=v)),
    "grid upper": (ValueError, lambda v: q.GridSpec(upper=v)),
    "counterfactual target": (GraphFormatError, lambda v: q.CounterfactualProblem(GRAPH, "t", v, q.DFQUAD)),
    "certify epsilon": (ValueError, lambda v: q.certify_epsilon(QUERY, q.EMPTY_CHANGE, v)),
    **{f"search {name}": (ValueError, _search(name))
       for name in ("perturbation", "alpha", "alpha_decay", "beta1", "beta2", "adam_eps", "cost_tolerance",
                    "restart_jitter")},
}

# name: (error, build from the value, least value or None)
INTS = {
    "influence p": (ValueError, lambda v: q.Influence("p_max", p=v), 1),
    "semantics max_sweeps": (ValueError, lambda v: q.SemanticsSpec("sum", q.Influence("euler_based"), max_sweeps=v), 1),
    "grid max_mutable": (ValueError, lambda v: q.GridSpec(max_mutable=v), 0),
    "grid max_points": (ValueError, lambda v: q.GridSpec(max_points=v), 1),
    "layer size": (ValueError, lambda v: q.LayerStructure((2, v)), 1),
    "experiment n_graphs": (ValueError, lambda v: q.ExperimentConfig(**EXPERIMENT, n_graphs=v), 1),
    "experiment seed": (ValueError, lambda v: q.ExperimentConfig(**EXPERIMENT, seed=v), None),
    "experiment jobs": (ValueError, lambda v: q.run_experiment(q.ExperimentConfig(**EXPERIMENT), jobs=v), 1),
    "search max_iterations": (ValueError, _search("max_iterations"), 1),
    "search restarts": (ValueError, _search("restarts"), 0),
    "search rng_seed": (ValueError, _search("rng_seed"), 0),
    "generator seed": (ValueError, lambda v: q.GenSpec(q.structure((2, 2)), "random", v), 0),
    "batch count": (ValueError, lambda v: q.generate_batch(q.GenSpec(q.structure((2, 2)), "random", 0), v), 0),
}

CASES = [pytest.param(error, build, value, id=f"{name}={value!r:.12}")
         for name, (error, build) in REALS.items() for value in NOT_REAL
         if not (value is None and name.startswith("grid "))]  # a grid bound of None is the domain's
CASES += [pytest.param(error, build, value, id=f"{name}={value!r:.12}")
          for name, (error, build, least) in INTS.items()
          for value in NOT_INT + ([] if least is None else [least - 1])]


@pytest.mark.parametrize("error, build, value", CASES)
def test_every_number_at_the_boundary_is_checked(error, build, value):
    with pytest.raises(error, match="must be"):
        build(value)


def test_accepted_numbers_are_stored_as_floats_and_ints():
    """A bool entry used to become a base score through apply_change."""
    change = q.StrengthChange({"t": 1, "a": 0.25})
    assert list(change.entries.items()) == [("a", 0.25), ("t", 1.0)] and type(change.entries["t"]) is float
    assert type(q.apply_change(GRAPH, change).base_scores["t"]) is float
    grid = q.GridSpec(step=1, lower=0, upper=4)
    assert (type(grid.step), type(grid.lower), type(grid.upper)) == (float, float, float)


@pytest.mark.parametrize("option, value", [("--count", "-2"), ("--seed", "-1")])
def test_a_bad_generate_count_or_seed_makes_no_output_directory(tmp_path, capsys, option, value):
    """--count -2 used to exit 0 after creating --out."""
    out = tmp_path / "out"
    code = main(["generate", "--structure", "2,2", "--out", str(out), option, value])
    assert code == 2 and not out.exists()


def test_a_search_config_value_too_large_for_a_float_exits_2(tmp_path, capsys):
    """A 400-digit alpha used to end qbagx explain in an OverflowError traceback."""
    graph, config = tmp_path / "g.json", tmp_path / "search.json"
    graph.write_bytes(q.serialize_qbag(GRAPH))
    config.write_text('{"alpha": 1' + "0" * 400 + "}")
    code = main(["explain", "--graph", str(graph), "--semantics", "dfquad", "--ordering", "t>a",
                 "--mutable", "a", "--search-config", str(config)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: alpha must be finite")


def test_only_errors_py_holds_the_number_rule():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            source = path.read_text()
            assert not re.search(r"^\s*(import|from)\s+numbers\b", source, re.M), path.name
            assert "float_info" not in source, path.name


@pytest.mark.parametrize("field, value", [
    ("graph", {"a": 0.5, "t": 0.4}),
    ("semantics", "dfquad"),
    ("mutable", "at"),
    ("ordering", "t>a"),
    ("ordering", (frozenset({"a"}), frozenset({"t"}))),
])
def test_a_query_checks_its_fields(field, value):
    """A string of mutable ids used to mean the set of its characters, and a
    semantics or ordering of the wrong type failed later with an AttributeError."""
    fields = dict(graph=GRAPH, semantics=q.DFQUAD, mutable=frozenset({"a"}), ordering=QUERY.ordering)
    with pytest.raises(ValueError, match=f"query {field} must be"):
        q.ExplanationQuery(**{**fields, field: value})


# document: (reader, the error class it raises, a key it knows)
READERS = {
    "graph": (q.parse_qbag, GraphFormatError, "arguments"),
    "ordering": (q.ordering_from_json, GraphFormatError, "tiers"),
    "strength change": (q.change_from_json, GraphFormatError, "changes"),
    "search config": (q.search_config_from_json, ValueError, "alpha"),
    "semantics config": (q.semantics_from_json, ValueError, "aggregation"),
    "experiment config": (q.experiment_config_from_json, ValueError, "seed"),
    "inverse problem": (q.inverse_problem_from_json, GraphFormatError, "arguments"),
}

# case: (document given a known key, message)
BAD_DOCUMENTS = {
    "invalid JSON": (lambda key: "not json", "invalid JSON in"),
    "not UTF-8": (lambda key: b"\xff", "invalid JSON in .*utf-8"),
    "NaN literal": (lambda key: '{"%s": NaN}' % key, "invalid JSON in .*NaN"),
    "Infinity literal": (lambda key: '{"%s": -Infinity}' % key, "invalid JSON in .*-Infinity"),
    "non-object": (lambda key: '[{"%s": 1}]' % key, "must be a JSON object"),
    "unknown key": (lambda key: '{"%s": 1, "bogus": 1}' % key, r"unknown keys in .*\['bogus'\]"),
    "deep nesting": (lambda key: '{"%s": %s}' % (key, "[" * 5000 + "]" * 5000), "invalid JSON in .*recursion"),
    "duplicate key": (lambda key: '{"%s": 1, "%s": 2}' % (key, key), "invalid JSON in .*duplicate key '%s'"),
}


@pytest.mark.parametrize("reader, error, key", READERS.values(), ids=READERS)
@pytest.mark.parametrize("document, message", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS)
def test_every_document_follows_the_document_rule(reader, error, key, document, message):
    """b"\\xff" used to raise UnicodeDecodeError from every library reader,
    search_config_from_json("not json") a bare JSONDecodeError, and deep
    nesting a RecursionError (qbagx exited 1 with a traceback)."""
    with pytest.raises(error, match=message % key if "%s" in message else message) as exc:
        reader(document(key))
    assert type(exc.value) is error


def test_an_experiment_config_with_an_unknown_key_runs_nothing(tmp_path, capsys, monkeypatch):
    """Misspelled keys used to be ignored: this config ran 100 DF-QuAD graphs."""
    runs = []
    monkeypatch.setattr(q.metrics, "run_graph", lambda *args: runs.append(args))
    config, out = tmp_path / "cfg.json", tmp_path / "out"
    config.write_text('{"structures": [[2, 3]], "cells": [["random", "all"]], "n_graph": 1, "semantic": ["eb"]}')
    code = main(["experiment", "--config", str(config), "--out", str(out), "--jobs", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: unknown keys in experiment config: ['n_graph', 'semantic']")
    assert runs == [] and not out.exists()


def test_only_errors_py_decodes_json():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "errors.py":
            assert not re.search(r"\bloads\b|\bJSONDecoder\b", path.read_text()), path.name


def _scores(ids):
    return ids if isinstance(ids, str) else dict.fromkeys(ids, 0.5)


def _graph_document(ids=("a", "t"), attacks=()):
    arguments = ids if isinstance(ids, str) else [{"id": x, "base_score": 0.5} for x in ids]
    return json.dumps({"arguments": arguments, "attacks": attacks})


def _problem_document(ids=("a", "t"), attacks=()):
    return json.dumps({"arguments": ids, "attacks": attacks, "ordering": {"tiers": [["a"], ["t"]]}})


def _topic(ids):
    return [ids] if isinstance(ids, str) else ids[-1]  # a list where the one topic or dummy id belongs


# entry point: (its error class, build from ids, build from an attacks collection or None)
ID_ENTRIES = {
    "make_qbag": (GraphFormatError, lambda ids: q.make_qbag(_scores(ids)),
                  lambda attacks: q.make_qbag({"a": 0.5, "t": 0.5}, attacks)),
    "parse_qbag": (GraphFormatError, lambda ids: q.parse_qbag(_graph_document(ids)),
                   lambda attacks: q.parse_qbag(_graph_document(attacks=attacks))),
    "StrengthChange": (InvalidChangeError, lambda ids: q.StrengthChange(_scores(ids)), None),
    "change_from_json": (GraphFormatError, lambda ids: q.change_from_json(json.dumps({"changes": _scores(ids)})), None),
    "DesiredOrdering": (GraphFormatError, lambda ids: q.DesiredOrdering((ids,)), None),
    "ordering_from_tiers": (GraphFormatError, lambda ids: q.ordering_from_tiers(ids if isinstance(ids, str) else [ids]),
                            None),
    "ordering_from_json": (GraphFormatError, lambda ids: q.ordering_from_json(json.dumps({"tiers": [ids]})), None),
    "ExplanationQuery": (ValueError, lambda ids: q.ExplanationQuery(GRAPH, q.DFQUAD, ids, QUERY.ordering), None),
    "CounterfactualProblem": (GraphFormatError, lambda ids: q.CounterfactualProblem(GRAPH, _topic(ids), 0.9, q.DFQUAD),
                              None),
    "make_inverse_problem": (GraphFormatError, lambda ids: q.make_inverse_problem(ids, [], [], [["a"], ["t"]]),
                             lambda attacks: q.make_inverse_problem(["a", "t"], attacks, [], [["a"], ["t"]])),
    "inverse_problem_from_json": (GraphFormatError, lambda ids: q.inverse_problem_from_json(_problem_document(ids)),
                                  lambda attacks: q.inverse_problem_from_json(_problem_document(attacks=attacks))),
    "restrict": (UnknownArgumentError, lambda ids: q.restrict(GRAPH, ids), None),
    "can_reach sources": (UnknownArgumentError, lambda ids: q.can_reach(GRAPH, ids, ["t"]), None),
    "can_reach targets": (UnknownArgumentError, lambda ids: q.can_reach(GRAPH, ["a"], ids), None),
    "reachable_from": (UnknownArgumentError, lambda ids: reachable_from(GRAPH, ids), None),
    "induced_ordering": (UnknownArgumentError, lambda ids: q.induced_ordering(GRAPH, q.DFQUAD, ids), None),
    "reduce_counterfactual dummy_id": (GraphFormatError, lambda ids: q.reduce_counterfactual(
        q.CounterfactualProblem(GRAPH, "t", 0.9, q.DFQUAD), _topic(ids)), None),
}

# input: (ids, message)
BAD_IDS = {
    "non-str id": (["t", 1], "argument id must be a non-empty string, got 1"),
    "empty id": (["t", ""], "argument id must be a non-empty string, got ''"),
    "string for the ids": ("at", r"must be a (list|mapping) of|got \['at'\]"),
}

# input: (attacks, message)
BAD_EDGES = {
    "string for the edges": ("at", r"attacks must be a list of \[from, to\] pairs"),
    "string edge": ([["a", "t"], "ab"], "bad attacks entry: 'ab'"),
    "3-element edge": ([("a", "t", "a")], r"bad attacks entry: .'a', 't', 'a'."),
    "int endpoint": ([("a", 1)], r"bad attacks entry: .'a', 1."),
}

ID_CASES = [pytest.param(error, build, value, message, id=f"{entry}-{name}")
            for entry, (error, *builds) in ID_ENTRIES.items()
            for build, table in zip(builds, (BAD_IDS, BAD_EDGES)) if build is not None
            for name, (value, message) in table.items()
            if (entry, name) != ("change_from_json", "non-str id")]  # a JSON object's keys are strings


@pytest.mark.parametrize("error, build, value, message", ID_CASES)
def test_every_id_and_edge_follows_the_identifier_rule(error, build, value, message):
    """make_qbag used to read the edge "ab" as a -> b, ordering_from_tiers to
    make the tier {'None'} of [[None]], make_inverse_problem to take "ab" as
    the arguments a and b, and a 3-element edge or a list as a topic or
    mutable id raised an unpacking ValueError or a TypeError."""
    with pytest.raises(error, match=message) as exc:
        build(value)
    assert type(exc.value) is error


def test_only_make_qbag_constructs_a_graph():
    """Every graph in the package passes make_qbag's checks: no other code calls QBAG(...)."""
    callers = set()

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "QBAG" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            callers.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "<module>")
    assert callers == {("graph.py", "make_qbag")}

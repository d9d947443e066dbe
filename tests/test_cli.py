import concurrent.futures
import dataclasses
import json

import pytest

import qbagx as q
from qbagx.cli import main

from helpers import fig_graph


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.json"
    path.write_bytes(q.serialize_qbag(fig_graph()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_running_example(fig_file, capsys):
    code, out, _ = run_cli(capsys, "eval", "--graph", fig_file, "--semantics", "naive")
    assert code == 0
    doc = json.loads(out)
    assert doc["strengths"] == {"a": 2.0, "b": 6.0, "c": 4.0, "d": 1.0, "e": 1.0}


def test_eval_csv_format(fig_file, capsys):
    code, out, _ = run_cli(capsys, "eval", "--graph", fig_file, "--semantics", "naive", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "argument,strength"
    assert lines[1] == "a,2.0"


def test_eval_byte_identical_reruns(fig_file, capsys):
    _, out1, _ = run_cli(capsys, "eval", "--graph", fig_file, "--semantics", "naive")
    _, out2, _ = run_cli(capsys, "eval", "--graph", fig_file, "--semantics", "naive")
    assert out1 == out2


def test_eval_custom_semantics(fig_file, tmp_path, capsys):
    graph = tmp_path / "unit.json"
    graph.write_bytes(q.serialize_qbag(q.make_qbag({"x": 0.5, "y": 0.2}, attacks=[("x", "y")])))
    code, out, _ = run_cli(
        capsys, "eval", "--graph", str(graph),
        "--semantics", '{"aggregation":"sum","influence":{"kind":"p_max","p":2,"k":1}}',
    )
    assert code == 0
    assert json.loads(out)["strengths"]["x"] == 0.5


def test_explain_finds_explanation(fig_file, capsys):
    code, out, err = run_cli(
        capsys, "explain", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["change"]
    assert "found" in err


def test_explain_not_found_exit_code(tmp_path, capsys):
    g = q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")])
    path = tmp_path / "g.json"
    path.write_bytes(q.serialize_qbag(g))
    code, out, _ = run_cli(
        capsys, "explain", "--graph", str(path), "--semantics", "dfquad",
        "--ordering", "t>u", "--mutable", "m",
    )
    assert code == 1
    assert json.loads(out)["status"] == "not_found"


def test_explain_ordering_file_and_search_config(fig_file, tmp_path, capsys):
    ordering = tmp_path / "ordering.json"
    ordering.write_text('{"tiers":[["b"],["c"]]}')
    code, out, _ = run_cli(
        capsys, "explain", "--graph", fig_file, "--semantics", "naive",
        "--ordering", str(ordering), "--mutable", "a,e",
        "--search-config", '{"max_iterations": 50, "record_trajectory": true}',
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"


def test_explain_trajectory_csv(fig_file, tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "explain", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e",
        "--search-config", '{"record_trajectory": true}', "--trajectory", str(traj),
    )
    assert code == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "iteration,cost"
    assert len(lines) > 1


def test_generate_writes_graphs_and_sidecars(tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    code, out, _ = run_cli(
        capsys, "generate", "--structure", "3,4,3,2", "--family", "constrained",
        "--seed", "5", "--count", "2", "--out", str(out_dir),
    )
    assert code == 0
    paths = json.loads(out)["graphs"]
    assert len(paths) == 2
    g = q.parse_qbag((out_dir / "graph_000.json").read_bytes())
    sidecar = json.loads((out_dir / "graph_000.sidecar.json").read_text())
    assert len(g.arguments) == 12
    assert set(sidecar) == {"layers", "ordering", "mutable"}


def test_generate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "generate", "--structure", "3,4,2", "--seed", "9", "--out", str(a))
    run_cli(capsys, "generate", "--structure", "3,4,2", "--seed", "9", "--out", str(b))
    assert (a / "graph_000.json").read_bytes() == (b / "graph_000.json").read_bytes()


def test_oracle_subcommand(fig_file, capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e",
        "--grid-step", "0.25", "--lower", "0", "--upper", "4", "--mode", "exact",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exhaustive"] is True
    assert doc["best_norm"] == 1.25
    assert doc["points"] == 17 * 17  # 0, 0.25, .., 4 for each of a and e


def test_oracle_nothing_found_exit_code(tmp_path, capsys):
    g = q.make_qbag({"m": 0.5, "t": 0.2, "u": 0.6}, supports=[("t", "m")])
    path = tmp_path / "g.json"
    path.write_bytes(q.serialize_qbag(g))
    code, out, _ = run_cli(
        capsys, "oracle", "--graph", str(path), "--semantics", "dfquad",
        "--ordering", "t>u", "--mutable", "m", "--grid-step", "0.25",
    )
    assert code == 1
    assert json.loads(out)["best"] is None


def test_oracle_certify(fig_file, tmp_path, capsys):
    change = tmp_path / "change.json"
    change.write_text('{"changes":{"a":2.0,"e":4.0}}')
    code, out, _ = run_cli(
        capsys, "oracle", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e",
        "--grid-step", "0.25", "--lower", "0", "--upper", "4",
        "--certify", str(change), "--epsilon", "1.0",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "no"


@pytest.mark.parametrize("changes, epsilon", [
    ('{"a":0.5}', "1.0"),  # not an explanation: it used to get "yes"
    ('{"a":2.0,"e":4.0}', "-1"),  # used to get "no"
    ('{"a":2.0,"e":4.0}', "nan"),  # used to print {"epsilon":NaN,...}, which is not JSON
])
def test_oracle_certify_refuses_bad_input(fig_file, tmp_path, capsys, changes, epsilon):
    change = tmp_path / "change.json"
    change.write_text('{"changes":%s}' % changes)
    code, out, err = run_cli(
        capsys, "oracle", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e",
        "--grid-step", "0.25", "--lower", "0", "--upper", "4",
        "--certify", str(change), "--epsilon", epsilon,
    )
    assert (code, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("bounds", [("--lower", "4", "--upper", "0"), ("--lower", "-1", "--upper", "1")])
def test_oracle_rejects_bad_grid_bounds(tmp_path, capsys, bounds):
    g = q.make_qbag({"a": 0.5, "b": 0.6, "t": 0.5}, attacks=[("a", "t")])
    path = tmp_path / "g.json"
    path.write_bytes(q.serialize_qbag(g))
    code, out, err = run_cli(
        capsys, "oracle", "--graph", str(path), "--semantics", "dfquad",
        "--ordering", "t>b", "--mutable", "a", "--grid-step", "0.25", *bounds,
    )
    assert code == 2 and not out and err.startswith("error:")


def test_inverse_subcommand(tmp_path, capsys):
    problem = {
        "arguments": ["a", "b", "c", "d", "e"],
        "attacks": [["a", "b"], ["d", "e"]],
        "supports": [["a", "c"], ["e", "c"], ["d", "a"]],
        "ordering": {"tiers": [["d"], ["e"], ["a"], ["b"], ["c"]]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run_cli(capsys, "inverse", "--problem", str(path), "--semantics", "naive")
    assert code == 0
    solution = json.loads(out)["solution"]
    g = q.make_qbag(solution, [("a", "b"), ("d", "e")], [("a", "c"), ("e", "c"), ("d", "a")])
    sigma = q.final_strengths(g, q.NAIVE)
    assert sigma["d"] < sigma["e"] < sigma["a"] < sigma["b"] < sigma["c"]


def test_counterfactual_subcommand(fig_file, capsys):
    code, out, _ = run_cli(
        capsys, "counterfactual", "--graph", fig_file, "--topic", "c",
        "--target-strength", "6", "--semantics", "naive",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual_cost"] <= 1e-6
    g = q.make_qbag(doc["solution"], fig_graph().attacks, fig_graph().supports)
    assert abs(q.final_strengths(g, q.NAIVE)["c"] - 6.0) <= 1e-6


def test_experiment_subcommand(tmp_path, capsys):
    config = {
        "structures": [[3, 4, 2]],
        "cells": [["random", "all"]],
        "semantics": ["dfquad"],
        "n_graphs": 3,
        "seed": 1,
        "search": {"max_iterations": 30},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out", str(out_dir), "--jobs", "1"
    )
    assert code == 0
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "per_graph.csv").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "eval", "--graph", "missing.json", "--semantics", "naive")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "eval", "--graph", str(bad), "--semantics", "naive")[0] == 2
    assert run_cli(capsys, "eval", "--graph", str(bad), "--semantics", "unknown")[0] == 2


def test_a_base_score_too_large_for_a_float_exits_2(tmp_path, capsys):
    """A 401-digit integer base score used to end in an OverflowError traceback."""
    graph = tmp_path / "huge.json"
    graph.write_text('{"arguments":[{"id":"a","base_score":1' + "0" * 400 + "}]}")
    code, out, err = run_cli(capsys, "eval", "--graph", str(graph), "--semantics", "dfquad")
    assert (code, out) == (2, "") and err.startswith("error: base score of 'a' must be finite")
    change = tmp_path / "change.json"
    change.write_text('{"changes":{"a":-1' + "0" * 400 + "}}")
    with pytest.raises(q.errors.GraphFormatError, match="must be finite"):
        q.change_from_json(change.read_text())


@pytest.mark.parametrize("config", [
    '{"max_iterations": 2.5}', '{"restarts": "2"}', '{"rng_seed": 1.5, "restarts": 1}',
    '{"record_trajectory": 1}', '{"max_iterations": true}', '{"beta1": 1}', '{"adam_eps": 0}',
])
def test_explain_rejects_search_config_fields_of_the_wrong_type(fig_file, capsys, config):
    code, _, err = run_cli(
        capsys, "explain", "--graph", fig_file, "--semantics", "naive",
        "--ordering", "c>b", "--mutable", "a,e", "--search-config", config,
    )
    assert code == 2 and err.startswith("error:")


INVERSE_PROBLEM = {"arguments": ["a", "b"], "attacks": [["a", "b"]], "ordering": {"tiers": [["a"], ["b"]]}}


@pytest.mark.parametrize("change", [
    {"ordering": [["a"], ["b"]]},
    {"ordering": {"tiers": "ab"}},
    {"ordering": {"tiers": [["a"], [1]]}},
    {"arguments": "ab"},
    {"arguments": [["a"], ["b"]]},
    {"attacks": [["a"]]},
    {"supports": 5},
    {"attacks": [["a", "zzz"]]},
    {"bogus_key": 1},
    {"ordering": {"tiers": [["a"], ["b"]], "bogus_key": 1}},
])
def test_inverse_rejects_malformed_problems(tmp_path, capsys, change):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**INVERSE_PROBLEM, **change}))
    code, _, err = run_cli(capsys, "inverse", "--problem", str(path), "--semantics", "naive")
    assert code == 2 and err.startswith("error:")
    path.write_text(json.dumps([INVERSE_PROBLEM]))
    assert run_cli(capsys, "inverse", "--problem", str(path), "--semantics", "naive")[0] == 2


EXPERIMENT = {"structures": [[3, 4, 2]], "cells": [["random", "all"]], "n_graphs": 1, "search": {"max_iterations": 2}}


@pytest.mark.parametrize("change", [
    {"cells": [["random"]]},
    {"cells": "random"},
    {"structures": 5},
    {"structures": [[3, "x"]]},
    {"structures": [[3, True]]},
    {"semantics": "dfquad"},
    {"n_graphs": [1]},
    {"seed": "1"},
    {"search": 5},
    {"search": {"restarts": 1.5}},
])
def test_experiment_rejects_malformed_configs(tmp_path, capsys, change):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**EXPERIMENT, **change}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "out"), "--jobs", "1")
    assert code == 2 and err.startswith("error:")
    path.write_text(json.dumps([EXPERIMENT]))
    assert run_cli(capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "out"), "--jobs", "1")[0] == 2


def test_experiment_jobs_are_bounded(tmp_path, capsys, monkeypatch):
    """A process pool forks all its workers at the first task, so a large
    QBAG_SX_JOBS used to fork that many for one task."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setenv("QBAG_SX_JOBS", "64")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(EXPERIMENT))  # one task
    assert run_cli(capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "out"))[0] == 0
    assert pools == []
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "experiment", "--config", str(path), "--out", str(tmp_path / "out"),
                                 "--jobs", jobs)
        assert (code, out) == (2, "") and err.startswith("error: jobs must be >= 1")


@pytest.mark.parametrize("change", [{"semantics": ["dfquad", "bogus"]}, {"target": "nope"},
                                    {"cells": [["random", "constrained"]]}])
def test_experiment_refuses_bad_input_before_it_runs_or_writes(tmp_path, capsys, monkeypatch, change):
    """--jobs 0 used to exit 2 after making an empty --out directory, and
    QBAG_SX_JOBS=0 meant one job."""
    runs = []
    monkeypatch.setattr(q.metrics, "run_graph", lambda *args: runs.append(args))
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps({**EXPERIMENT, **change}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path), "--out", str(out), "--jobs", "1")
    assert code == 2 and err.startswith("error:")
    path.write_text(json.dumps(EXPERIMENT))
    code, _, err = run_cli(capsys, "experiment", "--config", str(path), "--out", str(out), "--jobs", "0")
    assert code == 2 and err.startswith("error: jobs must be >= 1")
    monkeypatch.setenv("QBAG_SX_JOBS", "0")
    code, _, err = run_cli(capsys, "experiment", "--config", str(path), "--out", str(out))
    assert code == 2 and err.startswith("error: jobs must be >= 1")
    assert runs == [] and not out.exists()


def test_options_take_long_inline_values_or_files(tmp_path, capsys):
    """--semantics, --ordering and --search-config follow one inline-or-file
    rule. A value over 255 bytes used to exit 2 with "File name too long"
    from the file check: the full default search config inline (259
    characters) and a 40-topic ordering spec (319)."""
    ids = [f"topic{i:02d}" for i in range(40)]
    graph = tmp_path / "g.json"
    graph.write_bytes(q.serialize_qbag(q.make_qbag({a: 0.01 * (i + 1) for i, a in enumerate(ids)})))
    inline = {
        "--semantics": '{"aggregation":"sum","influence":{"kind":"linear","k":1}}',
        "--ordering": ">".join(reversed(ids)),
        "--search-config": json.dumps(dataclasses.asdict(q.SearchConfig())),
    }
    assert len(inline["--ordering"]) == 319 and len(inline["--search-config"]) == 259
    files = {}
    for option, text in inline.items():
        files[option] = tmp_path / f"{option[2:]}.json"
        files[option].write_text(text if option != "--ordering" else json.dumps({"tiers": [[a] for a in ids]}))
    outputs = []
    for values in (inline, files):
        argv = ["explain", "--graph", str(graph), "--mutable", "topic00"]
        code, out, err = run_cli(capsys, *argv, *(str(x) for pair in values.items() for x in pair))
        assert code == 0 and json.loads(out)["change"] == {}, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_jobs_env_var_fallback(monkeypatch):
    from qbagx.cli import _default_jobs

    monkeypatch.setenv("QBAG_SX_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("QBAG_SX_JOBS", "bogus")
    assert _default_jobs() >= 1


def test_custom_semantics_config_rejects_unknown_keys(fig_file, capsys):
    code, _, err = run_cli(
        capsys, "eval", "--graph", fig_file,
        "--semantics", '{"aggregation":"sum","influence":{"kind":"p_max"},"extra":1}',
    )
    assert code == 2
    assert "unknown keys" in err


@pytest.mark.parametrize("config", ['{"aggregation":"sum","influence":{"kind":"linear","k":"0.5"}}',
                                    '{"aggregation":"sum","influence":{"kind":"linear","k":null}}',
                                    '{"aggregation":"sum","influence":{"kind":"p_max","p":2.5}}'])
def test_malformed_custom_semantics_exit_2(fig_file, capsys, config):
    code, out, err = run_cli(capsys, "eval", "--graph", fig_file, "--semantics", config)
    assert (code, out) == (2, "") and err.startswith("error: influence")


def test_malformed_ordering_file_exits_2(fig_file, tmp_path, capsys):
    ordering = tmp_path / "ordering.json"
    ordering.write_text('{"tiers":[["b"],5]}')
    code, _, err = run_cli(
        capsys, "explain", "--graph", fig_file, "--semantics", "naive",
        "--ordering", str(ordering), "--mutable", "a,e",
    )
    assert code == 2 and "ordering document" in err


def test_cyclic_eval_reports_undefined(tmp_path, capsys):
    spec_doc = '{"aggregation":"sum","influence":{"kind":"linear","k":1}}'
    g = q.make_qbag({"x": 1.0, "y": 1.0}, attacks=[("x", "y"), ("y", "x")])
    path = tmp_path / "cycle.json"
    path.write_bytes(q.serialize_qbag(g))
    code, out, _ = run_cli(capsys, "eval", "--graph", str(path), "--semantics", spec_doc)
    assert code == 0
    assert json.loads(out)["strengths"] == {"x": None, "y": None}

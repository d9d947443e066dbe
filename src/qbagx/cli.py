"""Command-line interface.

Subcommands: eval, explain, generate, oracle, inverse, counterfactual,
experiment. Machine-readable output (JSON or CSV) goes to stdout; human
summaries go to stderr. Exit codes: 0 success, 1 no explanation/solution
found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import QbagError
from .explanation import ExplanationQuery, change_from_json, ordering_from_json, ordering_from_spec
from .generators import GenSpec, generate_batch, structure
from .graph import parse_qbag, serialize_qbag
from .metrics import experiment_config_from_json, run_experiment
from .oracle import GridSpec, brute_force_search, certify_epsilon
from .reductions import CounterfactualProblem, inverse_problem_from_json, solve_counterfactual, solve_inverse
from .search import SearchConfig, heuristic_search, search_config_from_json
from .semantics import builtin_semantics, final_strengths, semantics_from_json

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2


def _inline_or_file(value: str) -> tuple[str | bytes, bool]:
    """(data, is_json): a value that starts with "{" is inline JSON, one that
    ends in ".json" or names an existing file is a JSON file, read as bytes,
    and any other is inline text (a semantics token, an ordering spec)."""
    if value.lstrip().startswith("{"):
        return value, True
    try:
        named = value.endswith(".json") or Path(value).is_file()
    except OSError:  # e.g. a value longer than a file name may be
        named = False
    return (Path(value).read_bytes(), True) if named else (value, False)


def _load_semantics(value: str):
    text, is_json = _inline_or_file(value)
    return semantics_from_json(text) if is_json else builtin_semantics(text)


def _load_graph(path: str):
    return parse_qbag(Path(path).read_bytes())


def _load_ordering(value: str):
    text, is_json = _inline_or_file(value)
    return ordering_from_json(text) if is_json else ordering_from_spec(text)


def _load_query(args) -> ExplanationQuery:
    """The query of --graph, --semantics, --ordering and --mutable."""
    mutable = frozenset(x.strip() for x in args.mutable.split(",") if x.strip())
    return ExplanationQuery(_load_graph(args.graph), _load_semantics(args.semantics), mutable,
                            _load_ordering(args.ordering))


def _load_search_config(value: str | None) -> SearchConfig:
    if value is None:
        return SearchConfig()
    return search_config_from_json(_inline_or_file(value)[0])


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(handle, header, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    spec = _load_semantics(args.semantics)
    sigma = final_strengths(g, spec)
    if args.format == "csv":  # csv writes a float as repr and None as an empty field
        _write_csv(sys.stdout, ("argument", "strength"), sigma.items())
    else:
        _emit({"strengths": sigma})
    return EXIT_OK


def _cmd_explain(args) -> int:
    query = _load_query(args)
    cfg = _load_search_config(args.search_config)
    if args.trajectory:
        cfg = dataclasses.replace(cfg, record_trajectory=True)
    outcome = heuristic_search(query, cfg)
    sys.stdout.write(outcome.to_json() + "\n")
    if args.trajectory:
        with open(args.trajectory, "w", newline="") as handle:
            _write_csv(handle, ("iteration", "cost"), enumerate(outcome.trajectory, start=1))
    if outcome.found:
        print(f"explanation found after {outcome.iterations_used} iterations", file=sys.stderr)
        return EXIT_OK
    print(f"no explanation found within {outcome.iterations_used} iterations", file=sys.stderr)
    return EXIT_NOT_FOUND


def _cmd_generate(args) -> int:
    sizes = structure(int(s) for s in args.structure.split(","))
    spec = GenSpec(sizes, args.family, args.seed, target=args.target,
                   semantics=builtin_semantics(args.semantics))
    instances = generate_batch(spec, args.count)  # refuses a bad count before --out is made
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, instance in enumerate(instances):
        graph_path = out / f"graph_{i:03d}.json"
        sidecar_path = out / f"graph_{i:03d}.sidecar.json"
        graph_path.write_bytes(serialize_qbag(instance.graph))
        sidecar_path.write_text(instance.sidecar_json())
        paths.append(str(graph_path))
    _emit({"graphs": paths})
    print(f"wrote {len(paths)} instance(s) to {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    query = _load_query(args)
    grid = GridSpec(step=args.grid_step, lower=args.lower, upper=args.upper, max_mutable=args.max_mutable)
    if args.certify is not None:
        change = change_from_json(Path(args.certify).read_bytes())
        verdict = certify_epsilon(query, change, args.epsilon, grid, args.mode)
        _emit({"verdict": verdict, "epsilon": args.epsilon})
        return EXIT_OK
    result = brute_force_search(query, grid, args.mode)
    _emit(
        {
            "best": dict(result.best.sorted_items()) if result.best is not None else None,
            "best_norm": result.best_norm if result.best is not None else None,
            "exhaustive": result.exhaustive,
            "points": result.points,
        }
    )
    return EXIT_OK if result.best is not None else EXIT_NOT_FOUND


def _cmd_inverse(args) -> int:
    problem = inverse_problem_from_json(Path(args.problem).read_bytes())
    spec = _load_semantics(args.semantics)
    cfg = _load_search_config(args.search_config) if args.search_config else None
    solution = solve_inverse(problem, spec, cfg)
    _emit({"solution": solution})
    if solution is None:
        print("no base-score assignment found", file=sys.stderr)
        return EXIT_NOT_FOUND
    return EXIT_OK


def _cmd_counterfactual(args) -> int:
    g = _load_graph(args.graph)
    spec = _load_semantics(args.semantics)
    problem = CounterfactualProblem(g, args.topic, args.target_strength, spec)
    cfg = _load_search_config(args.search_config) if args.search_config else None
    solution, outcome = solve_counterfactual(problem, cfg)
    _emit({"solution": solution, "residual_cost": outcome.final_cost})
    if solution is None:
        print("no assignment reaches the target strength", file=sys.stderr)
        return EXIT_NOT_FOUND
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = experiment_config_from_json(Path(args.config).read_bytes())
    out = Path(args.out)  # made by run_experiment once its runs are done
    summary = out / "summary.csv"
    per_graph = out / "per_graph.csv"
    records = run_experiment(cfg, jobs=args.jobs, summary_path=summary, per_graph_path=per_graph)
    _emit({"summary": str(summary), "per_graph": str(per_graph), "cells": len(records)})
    print(f"ran {len(records)} cell(s); summary at {summary}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbagx",
        description="Gradual semantics and strength change explanations for argumentation graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="compute final strengths")
    p.add_argument("--graph", required=True)
    p.add_argument("--semantics", required=True, help="dfquad | eb | qe | naive | custom JSON")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("explain", help="search for a strength change explanation")
    p.add_argument("--graph", required=True)
    p.add_argument("--semantics", required=True)
    p.add_argument("--ordering", required=True, help="JSON file or strongest-first spec like 'c>b'")
    p.add_argument("--mutable", required=True, help="comma-separated argument ids")
    p.add_argument("--search-config", default=None, help="JSON file or inline JSON")
    p.add_argument("--trajectory", default=None, help="write per-iteration cost CSV here")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser("generate", help="generate layered benchmark graphs")
    p.add_argument("--structure", required=True, help="layer sizes, e.g. 8,32,16,3")
    p.add_argument("--family", choices=["random", "constrained"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--target", choices=["permuted", "literal"], default="permuted")
    p.add_argument("--semantics", default="dfquad", help="semantics for --target literal")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("oracle", help="brute-force grid search / certification")
    p.add_argument("--graph", required=True)
    p.add_argument("--semantics", required=True)
    p.add_argument("--ordering", required=True)
    p.add_argument("--mutable", required=True)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--lower", type=float, default=None)
    p.add_argument("--upper", type=float, default=None)
    p.add_argument("--max-mutable", type=int, default=4)
    p.add_argument("--mode", choices=["weak", "exact"], default="weak")
    p.add_argument("--certify", default=None, help="strength change JSON file to certify")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("inverse", help="solve a from-scratch ordering problem")
    p.add_argument("--problem", required=True, help="JSON with arguments, attacks, supports, ordering")
    p.add_argument("--semantics", required=True)
    p.add_argument("--search-config", default=None)
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("counterfactual", help="drive one argument to an exact final strength")
    p.add_argument("--graph", required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--target-strength", type=float, required=True)
    p.add_argument("--semantics", required=True)
    p.add_argument("--search-config", default=None)
    p.set_defaults(fn=_cmd_counterfactual)

    p = sub.add_parser("experiment", help="run a batch experiment and write CSV reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(fn=_cmd_experiment)

    return parser


def _default_jobs() -> int:
    """QBAG_SX_JOBS as given (run_experiment refuses one below 1, as it does
    --jobs), or the CPU count when it is unset or not an integer."""
    env = os.environ.get("QBAG_SX_JOBS")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (QbagError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

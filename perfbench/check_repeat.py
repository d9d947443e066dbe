"""The benchmark's own test: exact counts repeat bit for bit for a fixed seed,
and a second seed runs cleanly.

    python3 perfbench/check_repeat.py

For each workload it runs perfbench/run.py twice with SEED and once with
OTHER_SEED, each for one second (the first pass always completes), and
compares the exact counts (search.iterations, oracle.grid_points, ...) and
the quality metrics valid_frac, kendall_mean and bs_diff_mean. Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("explain", "eval", "exact")
SEED = 1
OTHER_SEED = 2
EXACT_METRICS = ("valid_frac", "kendall_mean", "bs_diff_mean")


def run(workload: str, seed: int) -> tuple[dict, dict]:
    """(exact counts, final JSON object) of one untraced run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counts = next(json.loads(line[len("counts "):]) for line in lines if line.startswith("counts "))
    return counts, json.loads(lines[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        (counts_a, result_a), (counts_b, result_b), (_, result_c) = (
            run(workload, SEED), run(workload, SEED), run(workload, OTHER_SEED))
        if counts_a != counts_b:
            problems.append(f"{workload}: counts differ between two runs of seed {SEED}")
        for name in EXACT_METRICS:
            a, b = result_a["metrics"][name]["value"], result_b["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between two runs of seed {SEED}: {a!r} vs {b!r}")
        for seed, result in ((SEED, result_a), (SEED, result_b), (OTHER_SEED, result_c)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        print(f"{workload}: seed {SEED} counts {json.dumps(counts_a, sort_keys=True)}")

    for p in problems:
        print("FAIL " + p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the first-pass results of a benchmark workload, to compare two trees.

    python3 tests/dump_results.py exact 1 7 41 > results.txt

Run it from the root of each tree and compare the outputs with cmp. The
package comes from ./src and the workloads from perfbench/workloads.py,
imported by path. For each seed the workload is set up and one pass of its
operations runs in order, as the benchmark's first pass does: an operation
that raises one of the workload's OP_ERRORS gives None. The workload's
checks then add their quality fields to each result. Printed per seed: the
pass's counts, the check errors, and the repr of every result.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

# One BLAS thread, fixed before numpy loads, as in the benchmark: matrix
# products may sum in another order with more threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracing import Tracer  # noqa: E402
from workloads import OP_ERRORS, WORKLOADS  # noqa: E402


def dump(workload: str, seed: int) -> None:
    wl = WORKLOADS[workload]
    tracer = Tracer()  # disabled: calls straight through
    items = wl.setup(seed, tracer)
    counts: Counter = Counter()
    results = []
    for item in items:
        try:
            results.append(wl.op(item, tracer, counts))
        except OP_ERRORS:
            results.append(None)
    errors = wl.check(items, results)
    print(f"# {workload} seed {seed}: {len(items)} operations")
    print("counts", sorted(counts.items()))
    print("errors", errors)
    for k, (item, result) in enumerate(zip(items, results)):
        print(k, item.kind, repr(result))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in WORKLOADS:
        print(f"usage: {Path(__file__).name} {{{','.join(WORKLOADS)}}} SEED...", file=sys.stderr)
        return 2
    for seed in argv[1:]:
        dump(argv[0], int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""In-memory spans around the benchmark's calls into the qbagx layers.

A span is (name, start, end, parent, op_id). Names are "<layer>.<function>"
for calls into the package and "op.<kind>" for the root span of one
operation; "setup" marks spans recorded while inputs are generated. Spans are
kept in a list and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import partial
from time import perf_counter


class Tracer:
    """Calls a function, recording a span around it when enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.op_id: int | str | None = None
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def call_split(self, name: str, fn, module, steps, *args, **kwargs):
        """`call`, and with tracing on, also a span around each call fn makes
        to one of the functions of `module` named in `steps`: fn looks them up
        among the module's globals, which are replaced by traced versions for
        the duration of the call."""
        if not self.enabled:
            return fn(*args, **kwargs)
        layer = module.__name__.rsplit(".", 1)[-1]
        saved = {step: getattr(module, step) for step in steps}
        for step, inner in saved.items():
            setattr(module, step, partial(self.call, f"{layer}.{step}", inner))
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            for step, inner in saved.items():
                setattr(module, step, inner)

    def write(self, path, machine: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"machine": machine}) + "\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op_id}) + "\n")


def self_times(spans, keep, duration) -> dict[str, float]:
    """Total self time per span name over the spans that `keep` accepts:
    each span's duration(start, end) minus its direct children's."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += duration(start, end)
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        name, start, end, _, _ = span
        if keep(span):
            out[name] += duration(start, end) - child_time[i]
    return dict(out)

"""In-memory span recorder for the traced run.

A span is (id, parent, name, start_ns, end_ns); parent 0 marks a root. Spans
stay in memory while the workload runs and are written out once at the end,
one JSON object per line, so recording costs two clock reads and a list
append.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns


class Spans:
    def __init__(self):
        self.rows: list[list] = []

    def open(self, name: str, parent: int = 0) -> int:
        self.rows.append([len(self.rows) + 1, parent, name, perf_counter_ns(), 0])
        return len(self.rows)

    def close(self, span_id: int) -> None:
        self.rows[span_id - 1][4] = perf_counter_ns()

    def call(self, name: str, fn, *args, parent: int = 0):
        """fn(*args) inside a span named `name`."""
        span_id = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.close(span_id)

    def root_best_p50_us(self, name: str, passes: int) -> float:
        """Median over inputs of each input's fastest root span named `name`,
        in microseconds. The spans come from `passes` passes over the same
        inputs in the same order."""
        durations = [end - start for _, parent, n, start, end in self.rows
                     if n == name and parent == 0]
        per_pass = len(durations) // passes
        return statistics.median(min(durations[i::per_pass]) for i in range(per_pass)) / 1e3

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span_id, parent, name, start, end in self.rows:
                f.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )

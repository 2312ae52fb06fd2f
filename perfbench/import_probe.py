"""Time one import of rapidpsi in this fresh interpreter.

Usage: python perfbench/import_probe.py rapidpsi|rapidpsi.cli

Prints one JSON object: the import's wall time, how many modules it added
to sys.modules, and how many Bernoulli tables it built and how long they
took. The builds are counted by wrapping
rapidpsi.bernoulli.build_bernoulli_table as soon as that module has run,
before any other module of the package can bind the name.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.machinery
import json
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

builds_ns: list[int] = []


def _timed(fn):
    def build(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            builds_ns.append(perf_counter_ns() - t0)

    return build


class _WrapBernoulli(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name != "rapidpsi.bernoulli":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            module.build_bernoulli_table = _timed(module.build_bernoulli_table)

        spec.loader.exec_module = exec_and_wrap
        return spec


def main() -> int:
    target = sys.argv[1]
    if target not in ("rapidpsi", "rapidpsi.cli"):
        print("usage: import_probe.py rapidpsi|rapidpsi.cli", file=sys.stderr)
        return 2
    sys.meta_path.insert(0, _WrapBernoulli())
    before = len(sys.modules)
    t0 = perf_counter_ns()
    importlib.import_module(target)
    elapsed = perf_counter_ns() - t0
    print(json.dumps({
        "import_ms": elapsed / 1e6,
        "modules_loaded": len(sys.modules) - before,
        "tables_built": len(builds_ns),
        "build_table_ms": sum(builds_ns) / 1e6,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced mode against this checkout: perfbench/worker.py
calls the program's planner, series and CLI by name, so a change to any name
or signature it uses fails here instead of in a benchmark run."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one operation of each corollary kind, all inside their evaluators' domains
COROLLARY_OPS = [
    ["gamma_any_x", 2.5, 1e-12],
    ["gamma_at_integer", 2, 1e-12],
    ["re_psi", 1.5, 1e-12],
    ["psi_prime", 0.5, 1e-12],
    ["zeta_odd", 2, 1e-12],
    ["zeta_odd_general", 2, 4.0, 1e-12],
]


def _worker_layers():
    """The per-layer metrics the traced worker reports: every per-layer
    metric of BENCHMARK.json except those perfbench/run.py measures itself."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    own = ("import.", "bernoulli.", "series.est_over_err_p50")
    return {m["name"] for m in per_layer if not m["name"].startswith(own)}


def test_traced_worker_reports_every_layer(tmp_path):
    job = {
        "mode": "trace",
        "ops": [["psi", 2.5, 1e-12]],
        "seconds": 0.01,
        "psi_inputs": [[2.5, 1e-12]],
        "large_x_inputs": [[100.7, 1e-12]],
        "corollary_ops": COROLLARY_OPS,
        "trace_path": str(tmp_path / "trace.jsonl"),
    }
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    layers = result["layers"]
    assert len(layers) == 18
    assert set(layers) == _worker_layers()
    assert all(math.isfinite(v) for v in layers.values())
    probes = result["probe_outputs"]
    # the worker reads any tuple result as a CLI record, so an evaluator whose
    # result type became a tuple would show here as "cli" where "ok" belongs
    outputs = [o for entries in result["outputs"] for o, _ in entries]
    outputs += [o for name, group in probes.items() if name != "cli" for o in group]
    assert outputs and all(o[0] == "ok" for o in outputs), outputs
    assert probes["cli"] and all(o[0] == "cli" for o in probes["cli"]), probes["cli"]
    assert all(o[1] == 0 for o in probes["cli"])

"""rapidpsi benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in perfbench/workloads.py and described in
perfbench/README.md. Each is a closed loop with one caller in one process
and no threads. Every output is checked against mpmath at 40 digits. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Spans of a traced run are written to
perfbench/out/. Exits 2 when the checkout has no src/rapidpsi.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
IMPORT_PROBE = HERE / "import_probe.py"

SETUP_SAMPLES = 5  # fresh processes per run; setup_s is their median
IMPORT_SAMPLES = 3  # fresh processes per import probe in a traced run
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run to its end; no result is printed."""


def _child(argv, job=None, timeout=CHILD_TIMEOUT_S):
    """Run a child to completion and return its stdout; stderr is passed on."""
    try:
        done = subprocess.run(
            argv, input=None if job is None else json.dumps(job), capture_output=True,
            text=True, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:]} did not end within {timeout} s") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{argv[1:]} exited with {done.returncode}")
    return done.stdout


def _time_to_first_result(job):
    """Seconds from spawning a fresh worker to reading its first output line."""
    t0 = perf_counter_ns()
    with subprocess.Popen(
        [sys.executable, str(WORKER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, cwd=ROOT,
    ) as proc:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = (perf_counter_ns() - t0) / 1e9
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line:
        raise BenchError(f"setup worker exited with {code}")
    return elapsed, json.loads(line)["outputs"]


class Checker:
    """Checks outputs against the mpmath references of a round's operations
    and counts failures. A failure on a KNOWN_FAULTS input is expected; any
    other makes the run incorrect."""

    def __init__(self, ops):
        self.ops = ops
        self.refs = [reference.reference(op) for op in ops]
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def check(self, i, output, count=1, counted=True):
        op = self.ops[i]
        passed = reference.output_passes(op, output, self.refs[i])
        if not passed and not workloads.is_known_fault(op):
            self.unexpected.append((op, output))
        if counted:
            self.attempted += count
            self.failed += 0 if passed else count

    def check_all(self, outputs_per_op, counted=True):
        for i, entries in enumerate(outputs_per_op):
            for output, count in entries:
                self.check(i, output, count, counted)


def _setup_seconds(ops, checker):
    """Median over SETUP_SAMPLES fresh processes of the time to the first
    checked result of each operation kind, imports and first calls included."""
    first = workloads.setup_ops(ops)
    samples = []
    for _ in range(SETUP_SAMPLES):
        elapsed, outputs = _time_to_first_result({"mode": "setup", "ops": first})
        for op, output in zip(first, outputs):
            checker.check(ops.index(op), output, counted=False)
        samples.append(elapsed)
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(ops, seconds, checker):
    setup = _setup_seconds(ops, checker)
    result = json.loads(_child(
        [sys.executable, str(WORKER)],
        {"mode": "loop", "ops": ops, "seconds": seconds},
        timeout=seconds + CHILD_TIMEOUT_S,
    ))
    checker.check_all(result["outputs"])
    # The timings are taken from each operation's fastest time over the run's
    # rounds. The machine's speed drifts for minutes at a time, and a median
    # over the run follows that drift; the fastest of some hundred repeats
    # barely does (perfbench/README.md, "Why best times").
    best = result["best_ns"]
    return {
        "setup_s": _metric(setup, "s"),
        "evals_per_s": _metric(len(best) / (sum(best) / 1e9), "1/s"),
        "latency_us_p50": _metric(statistics.median(best) / 1e3, "us"),
        "latency_us_p99": _metric(statistics.quantiles(best, n=100)[98] / 1e3, "us"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def _import_probe(target):
    samples = [json.loads(_child([sys.executable, str(IMPORT_PROBE), target]))
               for _ in range(IMPORT_SAMPLES)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_traced(workload, seed, ops, seconds, checker):
    package = _import_probe("rapidpsi")
    cli = _import_probe("rapidpsi.cli")
    psi_inputs = workloads.psi_inputs(ops)
    large_x_inputs = workloads.large_x_inputs(seed)
    corollary_ops = [op for op in workloads.generate("corollaries", seed)
                     if not workloads.is_known_fault(op)]
    OUT.mkdir(exist_ok=True)
    result = json.loads(_child(
        [sys.executable, str(WORKER)],
        {"mode": "trace", "ops": ops, "seconds": seconds, "psi_inputs": psi_inputs,
         "large_x_inputs": large_x_inputs, "corollary_ops": corollary_ops,
         "trace_path": str(OUT / f"trace-{workload}-{seed}.jsonl")},
        timeout=seconds + CHILD_TIMEOUT_S,
    ))
    checker.check_all(result["outputs"])
    probes = result["probe_outputs"]
    psi_checker = Checker([["psi", x, tol] for x, tol in psi_inputs])
    looseness = []
    for i, (output, cli_output) in enumerate(zip(probes["psi"], probes["cli"])):
        psi_checker.check(i, output, counted=False)
        psi_checker.check(i, cli_output, counted=False)
        ratio = reference.relative_looseness(output, psi_checker.refs[i])
        if ratio is not None:
            looseness.append(ratio)
    for probe_ops, outputs in (
        ([["psi", x, tol] for x, tol in large_x_inputs], probes["large_x"]),
        (corollary_ops, probes["corollary"]),
    ):
        probe_checker = Checker(probe_ops)
        for i, output in enumerate(outputs):
            probe_checker.check(i, output, counted=False)
        checker.unexpected += probe_checker.unexpected
    checker.unexpected += psi_checker.unexpected

    units = {"_ms": "ms", "_us_p50": "us", "_mean": "count", "_pct": "%"}
    metrics = {
        "import.rapidpsi_ms": _metric(package["import_ms"], "ms"),
        "import.cli_ms": _metric(cli["import_ms"], "ms"),
        "import.modules_loaded": _metric(cli["modules_loaded"], "count"),
        "bernoulli.build_table_ms": _metric(cli["build_table_ms"], "ms"),
        "bernoulli.tables_built": _metric(cli["tables_built"], "count"),
        "series.est_over_err_p50": _metric(statistics.median(looseness), "ratio"),
    }
    for name, value in result["layers"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = _metric(value, unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rapidpsi" / "__init__.py").is_file():
        print(f"error: no rapidpsi package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed)
    checker = Checker(ops)
    try:
        if args.trace:
            metrics = run_traced(args.workload, args.seed, ops, args.seconds, checker)
        else:
            metrics = run_untraced(ops, args.seconds, checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for op, output in checker.unexpected[:5]:
        print(f"unexpected failure: {op} -> {str(output)[:200]}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process that runs one workload's operations against rapidpsi.

It imports rapidpsi from the checkout's src/, reads a job from stdin as JSON
and answers on stdout as JSON. It never imports mpmath: the parent
(perfbench/run.py) computes the references and checks every output, so the
worker's time and memory are the program's own.

Modes:
  setup  run each operation of `ops` once and print the outputs at once;
         the parent times this from spawn to the printed line.
  loop   one untimed warm-up round, then whole timed rounds until `seconds`
         have passed; each operation's fastest time, every distinct output
         with its count, and peak RSS.
  trace  the same rounds, alternately with and without spans (the overhead
         is their ratio), then probes that time each layer's public
         functions on the workload's inputs; spans are written to
         `trace_path` at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the CLI builds zeta parameters this way when --terms is not given
CLI_K_TERMS = 10
PROBE_PASSES = 3
ORACLE_REPEATS = 5


class Program:
    """The entry points the operations call, imported on construction: the
    planner and the series, and the params and a Bernoulli table for the zeta
    operations."""

    def __init__(self, kinds):
        from rapidpsi import planner, series

        self.planner, self.series = planner, series
        if kinds & {"zeta_odd", "zeta_odd_general"}:
            from rapidpsi.bernoulli import build_bernoulli_table
            from rapidpsi.params import EvalParams, ModularPair

            self.EvalParams, self.ModularPair = EvalParams, ModularPair
            self.table = build_bernoulli_table(90)

    def bind(self, op):
        """(prepare, evaluate, prepare_span, evaluate_span) for one operation:
        evaluate(prepare()) is the call a library user makes."""
        kind = op[0]
        plan, series = self.planner.plan, self.series
        if kind == "zeta_odd":
            n, tol = op[1], op[2]
            return (
                lambda: self.EvalParams(tol=tol, k_terms=CLI_K_TERMS),
                lambda p: series.zeta_odd(n, self.table, p),
                "params.EvalParams",
                "series.zeta_odd",
            )
        if kind == "zeta_odd_general":
            n, alpha, tol = op[1], op[2], op[3]
            return (
                lambda: (self.ModularPair.from_alpha(alpha),
                         self.EvalParams(tol=tol, k_terms=CLI_K_TERMS)),
                lambda pp: series.zeta_odd_general(n, pp[0], self.table, pp[1]),
                "params.EvalParams",
                "series.zeta_odd_general",
            )
        if kind == "gamma_at_integer":
            m, tol = op[1], op[2]
            return (
                lambda: plan(tol, float(m)),
                lambda p: series.gamma_at_integer(m, p),
                "planner.plan",
                "series.gamma_at_integer",
            )
        evaluator = {
            "psi": series.psi_ramanujan,
            "gamma_any_x": series.gamma_any_x,
            "re_psi": series.re_psi_complex_ramanujan,
            "psi_prime": series.psi_prime_ramanujan,
        }[kind]
        x, tol = op[1], op[2]
        return (
            lambda: plan(tol, x),
            lambda p: evaluator(x, p),
            "planner.plan",
            "series." + evaluator.__name__,
        )


def run_cli(argv):
    """(exit code, stdout) of rapidpsi's cli.main(argv) run in this process."""
    from rapidpsi import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def normalize(result) -> list:
    """A JSON-friendly output: ["ok", value, estimate] or ["cli", code, stdout]."""
    if isinstance(result, tuple):
        return ["cli", result[0], result[1]]
    return ["ok", float(result.value), float(result.error_estimate)]


def attempt(fn, *args):
    try:
        return normalize(fn(*args))
    except Exception as exc:  # a failed operation is counted, not fatal
        return ["error", f"{type(exc).__name__}: {exc}"]


class Outputs:
    """Every distinct output of each operation with its count."""

    def __init__(self, n_ops):
        self.seen = [{} for _ in range(n_ops)]

    def add(self, i, output):
        key = tuple(output)
        entry = self.seen[i].get(key)
        if entry is None:
            self.seen[i][key] = [output, 1]
        else:
            entry[1] += 1

    def as_json(self):
        return [list(d.values()) for d in self.seen]


def run_round(bound, outputs, best_ns):
    """One pass over the operations; best_ns[i] keeps operation i's fastest time."""
    for i, (prepare, evaluate, _, _) in enumerate(bound):
        t0 = perf_counter_ns()
        try:
            result = evaluate(prepare())
        except Exception as exc:
            t1 = perf_counter_ns()
            output = ["error", f"{type(exc).__name__}: {exc}"]
        else:
            t1 = perf_counter_ns()
            output = normalize(result)
        if t1 - t0 < best_ns[i]:
            best_ns[i] = t1 - t0
        outputs.add(i, output)


def run_round_traced(bound, outputs, spans):
    for i, (prepare, evaluate, prepare_span, evaluate_span) in enumerate(bound):
        op_span = spans.open("op")
        try:
            params = spans.call(prepare_span, prepare, parent=op_span)
            output = normalize(spans.call(evaluate_span, evaluate, params, parent=op_span))
        except Exception as exc:
            output = ["error", f"{type(exc).__name__}: {exc}"]
        spans.close(op_span)
        outputs.add(i, output)


def untimed(bound) -> list:
    return [math.inf] * len(bound)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loop(job, program, bound):
    outputs = Outputs(len(bound))
    run_round(bound, Outputs(len(bound)), untimed(bound))  # warm-up: imports and caches
    # Nothing the harness keeps grows with the number of rounds, so the peak
    # RSS read at the end is the program's own.
    best_ns = untimed(bound)
    deadline = perf_counter_ns() + int(job["seconds"] * 1e9)
    while True:
        run_round(bound, outputs, best_ns)
        if perf_counter_ns() >= deadline:
            break
    return {"best_ns": best_ns, "outputs": outputs.as_json(), "peak_rss_mb": peak_rss_mb()}


def probe_layers(job, program, spans):
    """Time each layer's public functions on the workload's (x, tol) inputs
    and on the seeded corollary operations; return the per-layer summary and
    the outputs the parent checks."""
    planner, series = program.planner, program.series
    inputs = [tuple(p) for p in job["psi_inputs"]]

    def bound_walk(first, y, guard_delta, skip):
        planner.bound_psi_k_sum(first, y, guard_delta, skip=skip)
        planner.bound_log_csch2(first, y, skip=skip)

    plans = [planner.plan(tol, x) for x, tol in inputs]
    large = [tuple(p) for p in job["large_x_inputs"]]
    large_plans = [planner.plan(tol, x) for x, tol in large]
    for _ in range(PROBE_PASSES):
        psi_outputs, cli_outputs = [], []
        for (x, tol), p in zip(inputs, plans):
            spans.call("planner.plan", planner.plan, tol, x)
            y = x + planner.lift_shift(x)
            spans.call("planner.bound_walk", bound_walk, p.k_terms + 1, y, p.guard_delta,
                       series._guard_index(y, p.guard_delta))
            spans.call("series.double_series_S", series.double_series_S, y, p)
            psi_outputs.append(
                attempt(spans.call, "series.psi_ramanujan", series.psi_ramanujan, x, p)
            )
            cli_outputs.append(attempt(spans.call, "cli.main", run_cli,
                                       ["psi", "--x", repr(x), "--tol", repr(tol)]))
        large_outputs = []
        for (x, tol), p in zip(large, large_plans):
            spans.call("planner.plan_large_x", planner.plan, tol, x)
            spans.call("planner.bound_walk_large_x", bound_walk, p.k_terms + 1, x,
                       p.guard_delta, series._guard_index(x, p.guard_delta))
            large_outputs.append(
                attempt(spans.call, "series.psi_ramanujan_large_x", series.psi_ramanujan, x, p)
            )

    corollary = Program({op[0] for op in job["corollary_ops"]})
    corollary_bound = [corollary.bind(op) for op in job["corollary_ops"]]
    corollary_params = [prepare() for prepare, _, _, _ in corollary_bound]
    for _ in range(PROBE_PASSES):
        corollary_outputs = [
            attempt(spans.call, name, evaluate, params)
            for (_, evaluate, _, name), params in zip(corollary_bound, corollary_params)
        ]

    from rapidpsi.oracles import OracleConfig, gamma_plus_re_psi

    k_max = max(p.k_terms for p in plans)
    # series evaluates C_k(0) through this cached oracle at this tolerance
    cfg = OracleConfig(target_tolerance=1e-14)

    def cold_sweep():
        for k in range(1, k_max + 1):
            gamma_plus_re_psi(float(k), cfg)

    for _ in range(ORACLE_REPEATS):
        gamma_plus_re_psi.cache_clear()
        spans.call("oracles.gamma_plus_re_psi", cold_sweep)

    def best(name):
        return spans.root_best_p50_us(name, PROBE_PASSES)

    layers = {
        "oracles.gamma_plus_re_psi_ms":
            spans.root_best_p50_us("oracles.gamma_plus_re_psi", ORACLE_REPEATS) / 1e3,
        "planner.plan_us_p50": best("planner.plan"),
        "planner.bound_walk_us_p50": best("planner.bound_walk"),
        "planner.plan_large_x_us_p50": best("planner.plan_large_x"),
        "planner.bound_walk_large_x_us_p50": best("planner.bound_walk_large_x"),
        "planner.k_terms_mean": statistics.fmean(p.k_terms for p in plans),
        "planner.n_terms_mean": statistics.fmean(p.n_terms for p in plans),
        "series.eval_us_p50": best("series.psi_ramanujan"),
        "series.double_series_us_p50": best("series.double_series_S"),
        "series.eval_large_x_us_p50": best("series.psi_ramanujan_large_x"),
        "series.gamma_any_x_us_p50": best("series.gamma_any_x"),
        "series.gamma_at_integer_us_p50": best("series.gamma_at_integer"),
        "series.re_psi_us_p50": best("series.re_psi_complex_ramanujan"),
        "series.psi_prime_us_p50": best("series.psi_prime_ramanujan"),
        "series.zeta_odd_us_p50": best("series.zeta_odd"),
        "series.zeta_odd_general_us_p50": best("series.zeta_odd_general"),
        "cli.main_us_p50": best("cli.main"),
    }
    return layers, {"psi": psi_outputs, "cli": cli_outputs, "large_x": large_outputs,
                    "corollary": corollary_outputs}


def trace(job, program, bound):
    from spans import Spans

    spans = Spans()
    outputs = Outputs(len(bound))
    run_round(bound, Outputs(len(bound)), untimed(bound))  # warm-up: imports and caches
    plain, traced = [], []
    deadline = perf_counter_ns() + int(job["seconds"] * 1e9)
    while True:
        for times, traced_round in ((plain, False), (traced, True)):
            r0 = perf_counter_ns()
            if traced_round:
                run_round_traced(bound, outputs, spans)
            else:
                run_round(bound, outputs, untimed(bound))
            times.append(perf_counter_ns() - r0)
        if perf_counter_ns() >= deadline:
            break
    layers, probe_outputs = probe_layers(job, program, spans)
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    spans.write(job["trace_path"])
    return {
        "outputs": outputs.as_json(),
        "layers": layers,
        "probe_outputs": probe_outputs,
    }


def main() -> int:
    job = json.load(sys.stdin)
    ops = job["ops"]
    program = Program({op[0] for op in ops})
    bound = [program.bind(op) for op in ops]
    if job["mode"] == "setup":
        outputs = [attempt(lambda: evaluate(prepare())) for prepare, evaluate, _, _ in bound]
        print(json.dumps({"outputs": outputs}), flush=True)
        return 0
    result = loop(job, program, bound) if job["mode"] == "loop" else trace(job, program, bound)
    json.dump(result, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

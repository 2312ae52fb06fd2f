"""Command-line frontend: evaluation, identity verification, benchmark.

Every command emits one structured record per result on stdout, one JSON
object per line by default (--format plain for key=value text). Records are
deterministic run-to-run except the elapsed_nanoseconds field.

Exit codes: 0 success, 1 input error, 2 verification failure, 3 tolerance
unattainable.

numpy and the check-only modules (identities, oracles) are imported by the
commands that use them, verify, bench and psi --method classical, so the
evaluation commands start without them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache

from . import planner, series
from .bernoulli import shared_table
from .errors import ToleranceError
from .params import EvalParams, ModularPair, Record, SeriesValue, check_tol

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_TOLERANCE = 3


class Report(Record):
    """One output record; floats are printed with 17 significant digits so the
    serialized form round-trips losslessly."""

    __slots__ = _fields = (
        "quantity", "input", "value", "abs_error_estimate", "k_used", "n_used", "method",
        "elapsed_nanoseconds",
    )

    def __init__(self, quantity: str, input: float, value: float, abs_error_estimate: float,
                 k_used: int, n_used: int, method: str, elapsed_nanoseconds: int):
        (set_quantity, set_input, set_value, set_abs_error_estimate, set_k_used, set_n_used,
         set_method, set_elapsed_nanoseconds) = self._setters
        set_quantity(self, quantity)
        set_input(self, input)
        set_value(self, value)
        set_abs_error_estimate(self, abs_error_estimate)
        set_k_used(self, k_used)
        set_n_used(self, n_used)
        set_method(self, method)
        set_elapsed_nanoseconds(self, elapsed_nanoseconds)


def _fmt_num(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


def render_report(r: Report, fmt: str) -> str:
    fields = [
        ("quantity", json.dumps(r.quantity)),
        ("input", _fmt_num(r.input)),
        ("value", _fmt_num(r.value)),
        ("abs_error_estimate", _fmt_num(r.abs_error_estimate)),
        ("k_used", str(r.k_used)),
        ("n_used", str(r.n_used)),
        ("method", json.dumps(r.method)),
        ("elapsed_nanoseconds", str(r.elapsed_nanoseconds)),
    ]
    if fmt == "json":
        return "{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}"
    return " ".join(f"{k}={v.strip(chr(34))}" for k, v in fields)


def _emit(r: Report, fmt: str) -> None:
    print(render_report(r, fmt))


def _report(quantity: str, x, sv: SeriesValue, method: str, t0: int) -> Report:
    """The record of one evaluation started at t0, with the counts that ran."""
    return Report(quantity, x, sv.value, sv.error_estimate, sv.k_used, sv.n_used, method,
                  time.perf_counter_ns() - t0)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags, which collides with the
    verification-failure code; route all usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _params_for(x: float, tol: float, terms: int | None) -> EvalParams:
    """Planner-chosen EvalParams, with --terms overriding the outer count."""
    if terms is not None:
        return EvalParams(tol=tol, k_terms=terms, n_terms=planner.MAX_N_TERMS)
    return planner.plan(tol, x)


# ---------------------------------------------------------------------------
# commands


def cmd_psi(args) -> int:
    t0 = time.perf_counter_ns()
    if args.method == "classical":
        from .oracles import OracleConfig, psi_oracle

        check_tol(args.tol)
        cfg = OracleConfig(target_tolerance=min(args.tol, 1e-13))
        sv = SeriesValue(psi_oracle(args.x, cfg), cfg.target_tolerance, 0, 0)
    else:
        sv = series.psi_ramanujan(args.x, _params_for(args.x, args.tol, args.terms))
    _emit(_report("psi", args.x, sv, args.method, t0), args.format)
    return EXIT_OK


def cmd_psi_prime(args) -> int:
    t0 = time.perf_counter_ns()
    sv = series.psi_prime_ramanujan(args.x, _params_for(args.x, args.tol, args.terms))
    _emit(_report("psi_prime", args.x, sv, "ramanujan", t0), args.format)
    return EXIT_OK


def cmd_gamma(args) -> int:
    if (args.m is None) == (args.x is None):
        return _fail("provide exactly one of --m (integer formula) or --x (any-argument formula)",
                     EXIT_INPUT)
    t0 = time.perf_counter_ns()
    if args.m is not None:
        series._check_gamma_m(args.m)
        sv = series.gamma_at_integer(args.m, _params_for(float(args.m), args.tol, args.terms))
        _emit(_report("gamma", args.m, sv, "integer_limit", t0), args.format)
        return EXIT_OK
    sv = series.gamma_any_x(args.x, _params_for(args.x, args.tol, args.terms))
    _emit(_report("gamma", args.x, sv, "any_argument", t0), args.format)
    return EXIT_OK


def cmd_zeta_odd(args) -> int:
    if args.n < 1:
        return _fail("--n must be a positive integer (N >= 1)", EXIT_INPUT)
    t0 = time.perf_counter_ns()
    if args.alpha is not None:
        # the two-parameter form stops each k-sum at its share of tol, so
        # --terms, even one out of range, is not read
        p = EvalParams(tol=args.tol)
        pair = ModularPair.from_alpha(args.alpha)
        sv = series.zeta_odd_general(args.n, pair, shared_table(), p)
        method = "two_parameter"
    else:
        p = EvalParams(tol=args.tol, k_terms=args.terms if args.terms is not None else 10)
        sv = series.zeta_odd(args.n, shared_table(), p)
        method = "single_parameter"
    _emit(_report("zeta_odd", args.n, sv, method, t0), args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import identities

    suite = getattr(args, "suite", "identities")
    failures = []
    # the suite runs each check as it is drawn, so each record is timed from
    # the end of the one before
    t0 = time.perf_counter_ns()
    for check in identities.run_suite(suite):
        _emit(
            Report(f"check:{check.name}", check.argument, check.residual, check.allowance,
                   0, 0, "pass" if check.passed else "fail",
                   time.perf_counter_ns() - t0),
            args.format,
        )
        t0 = time.perf_counter_ns()
        if not check.passed:
            failures.append(check)
    if failures:
        for check in failures:
            print(
                f"error: check {check.name} at {check.argument} failed: "
                f"residual {check.residual:.3e} exceeds allowance {check.allowance:.3e}",
                file=sys.stderr,
            )
        return EXIT_VERIFY
    return EXIT_OK


def _classical_naive(x: float, tol: float) -> tuple[SeriesValue, bool]:
    """The textbook series psi(x+1) = -gamma + sum_n x/(n(n+x)), summed
    ascending until its monotone tail bound x/N meets tol, capped at 1e8
    terms. Returns (result, cap_reached); the estimate is the tail bound plus
    1e-13 and n_used the number of terms."""
    import numpy as np

    from .oracles import euler_gamma_reference

    cap = 100_000_000
    # x / tol can overflow to inf, whose ceil raises: compare it with the cap first
    ratio = x / tol
    n_total = cap if ratio > cap else math.ceil(ratio)
    total = 0.0
    chunk = 1 << 22
    start = 1
    while start <= n_total:
        stop = min(start + chunk - 1, n_total)
        n = np.arange(float(start), float(stop) + 1.0)
        total += float(np.sum(x / (n * (n + x))))
        start = stop + 1
    sv = SeriesValue(total - euler_gamma_reference(), x / n_total + 1e-13, 0, n_total)
    return sv, ratio > cap


def cmd_bench(args) -> int:
    if not 0.0 < args.x < math.inf:
        return _fail("x must be positive and finite", EXIT_INPUT)
    for tol in args.tol:
        t0 = time.perf_counter_ns()
        sv = series.psi_ramanujan(args.x, planner.plan(tol, args.x))
        _emit(_report("psi", args.x, sv, "ramanujan", t0), args.format)
        t0 = time.perf_counter_ns()
        sv, capped = _classical_naive(args.x, tol)
        _emit(_report("psi", args.x, sv, "classical-capped" if capped else "classical", t0),
              args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, tol_default=1e-12):
    sub.add_argument("--tol", type=float, default=tol_default,
                     help="target absolute error")
    sub.add_argument("--terms", type=int, default=None,
                     help="override the planner's outer term count")
    sub.add_argument("--format", choices=("json", "plain"), default="json",
                     help="output record format")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes
    most of a call to main, and parse_args leaves it unchanged, so every
    call parses with the same one."""
    parser = _Parser(
        prog="rapidpsi",
        description="Rapidly convergent hyperbolic-series evaluation of the "
                    "digamma function and its corollaries, with verified "
                    "error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="psi(x+1) for x > 0")
    p_psi.add_argument("--x", type=float, required=True)
    p_psi.add_argument("--method", choices=("ramanujan", "classical"), default="ramanujan")
    _add_common(p_psi)
    p_psi.set_defaults(func=cmd_psi)

    p_pp = sub.add_parser("psi-prime", help="psi'(x+1) for x > 0")
    p_pp.add_argument("--x", type=float, required=True)
    _add_common(p_pp)
    p_pp.set_defaults(func=cmd_psi_prime)

    p_g = sub.add_parser("gamma", help="Euler's constant via --m (integer formula) or --x")
    p_g.add_argument("--m", type=int, default=None)
    p_g.add_argument("--x", type=float, default=None)
    _add_common(p_g)
    p_g.set_defaults(func=cmd_gamma)

    p_z = sub.add_parser("zeta-odd", help="zeta(2N+1) for N >= 1")
    p_z.add_argument("--n", type=int, required=True)
    p_z.add_argument("--alpha", type=float, default=None,
                     help="first parameter of the two-parameter form (beta = pi^2/alpha); "
                          "it is summed at min(alpha, beta), stops each k-sum at its own "
                          "share of --tol and ignores --terms")
    _add_common(p_z)
    p_z.set_defaults(func=cmd_zeta_odd)

    p_v = sub.add_parser("verify", help="run identity verification suites")
    # identities.run_suite rejects an unknown name (exit 1) and lists the
    # suites; naming them here would import the check modules for every command
    p_v.add_argument("--suite", default="all",
                     help="suite of checks (default: all); an unknown name lists them")
    p_v.add_argument("--format", choices=("json", "plain"), default="json")
    p_v.set_defaults(func=cmd_verify)

    p_i = sub.add_parser("identities", help="shorthand for verify --suite identities")
    p_i.add_argument("--format", choices=("json", "plain"), default="json")
    p_i.set_defaults(func=cmd_verify, suite="identities")

    p_b = sub.add_parser("bench", help="Ramanujan-vs-classical convergence benchmark")
    p_b.add_argument("--x", type=float, required=True)
    p_b.add_argument("--tol", type=float, nargs="+", default=[1e-6, 1e-12])
    p_b.add_argument("--format", choices=("json", "plain"), default="json")
    p_b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToleranceError as exc:
        return _fail(str(exc), EXIT_TOLERANCE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())

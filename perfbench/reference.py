"""High-precision references and the output checker.

References come from mpmath at 40 significant digits, independent of every
code path in rapidpsi. An output passes when |value - reference| <= its own
error_estimate, with the difference taken in mpmath precision so that the
reference is never rounded to a double before the comparison.
"""

from __future__ import annotations

import json
import math

import mpmath

DIGITS = 40


def reference(op: list) -> mpmath.mpf:
    """The exact quantity an operation computes, to DIGITS digits."""
    kind = op[0]
    with mpmath.workdps(DIGITS):
        if kind in ("psi", "cli"):
            return mpmath.digamma(mpmath.mpf(op[1]) + 1)
        if kind in ("gamma_any_x", "gamma_at_integer"):
            return +mpmath.euler
        if kind == "re_psi":
            return mpmath.digamma(mpmath.mpc(1, op[1])).real
        if kind == "psi_prime":
            return mpmath.psi(1, mpmath.mpf(op[1]) + 1)
        if kind in ("zeta_odd", "zeta_odd_general"):
            return mpmath.zeta(2 * op[1] + 1)
    raise ValueError(f"unknown operation {kind!r}")


def within_estimate(value, estimate, ref: mpmath.mpf) -> bool:
    """|value - ref| <= estimate for a finite value and a finite estimate."""
    if not (isinstance(value, float) and isinstance(estimate, float)):
        return False
    if not (math.isfinite(value) and math.isfinite(estimate) and estimate >= 0.0):
        return False
    with mpmath.workdps(DIGITS):
        return abs(mpmath.mpf(value) - ref) <= mpmath.mpf(estimate)


def parse_cli_record(text: str, x: float):
    """(value, abs_error_estimate) from the last stdout line of
    `rapidpsi psi --x X`, or None when the record is malformed or names
    another quantity or input."""
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        rec = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict) or rec.get("quantity") != "psi" or rec.get("input") != x:
        return None
    # floats are printed with %.17g, so an integral value arrives as an int
    value, estimate = rec.get("value"), rec.get("abs_error_estimate")
    if not all(isinstance(v, (float, int)) and not isinstance(v, bool) for v in (value, estimate)):
        return None
    return float(value), float(estimate)


def output_passes(op: list, output: list, ref: mpmath.mpf) -> bool:
    """Whether one output of `op` is correct. Outputs are ["ok", value,
    estimate], ["cli", exit_code, stdout] or ["error", message]."""
    tag = output[0]
    if tag == "ok":
        return within_estimate(output[1], output[2], ref)
    if tag == "cli":
        if output[1] != 0:
            return False
        parsed = parse_cli_record(output[2], op[1])
        return parsed is not None and within_estimate(parsed[0], parsed[1], ref)
    return False


def relative_looseness(output: list, ref: mpmath.mpf) -> float | None:
    """error_estimate / |value - reference|, or None when there is no
    estimate or the value is exact."""
    if output[0] != "ok":
        return None
    with mpmath.workdps(DIGITS):
        err = abs(mpmath.mpf(output[1]) - ref)
        if err == 0:
            return None
        return float(mpmath.mpf(output[2]) / err)

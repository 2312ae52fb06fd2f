"""Tolerance-to-term-count planning and rigorous tail bounds.

Every bound is a closed-form overestimate of the true tail: soundness over
tightness (looseness up to roughly a factor of 10 is accepted by design).
The k-sum tails whose terms depend on x (bound_psi_k_sum, bound_log_csch2)
take only floor(x) and ceil(x) at their actual size and bound every other
index, at least 1 from x, by a geometric envelope in e^{-2 pi k}; no tail is
walked term by term. The evaluators in series.py and the double series in
double_series.py reuse these bounds to assemble honest error estimates, so
nothing here may depend on either; the double series sizes its own sums.
plan is memoized: one EvalParams per (tol, max(40, log(x)/5)) in an LRU
cache of 256 entries, so below x = e^200, where that weight is 40, every
caller at one tol shares one immutable instance.
"""

from __future__ import annotations

import functools
import math

from .params import DEFAULT_GUARD_DELTA, EvalParams, TailBound, check_tol

_TWO_PI = 2.0 * math.pi
_Q_UNIT = math.exp(-_TWO_PI)  # common ratio of the pi-scaled k-series envelopes
_EPS = math.ulp(1.0)

FAMILIES = ("exp_envelope", "csch2", "lambert", "log_csch2")

# caps each inner sum of the double series, which sizes them itself
MAX_N_TERMS = 500_000
# double_series_S sums the double series where it stands from this x on, and
# takes it from psi below: every double-series term carries e^{-2 pi k x}, so
# at x >= 3 the outer count is set by the x-independent k-sums and the inner
# series stay short. psi, psi', Re psi and gamma_any_x sum no double series:
# their moment forms lift to 16 (series._Y_MOMENT)
LIFT_TARGET = 3.0
# bound_exp_envelope where q = e^{-2 pi x} underflows to 0 (derived there)
_ULP_ZERO = math.ulp(0.0)
_NORMAL_MIN = 2.0**-1022  # the smallest normal double
_ENVELOPE_FLOOR = 20.0 * _ULP_ZERO


def _geom(first: int, q: float) -> float:
    """sum_{k>=first} q^k."""
    return q**first / (1.0 - q)


def _inv_expm1(t: float) -> float:
    """1/(e^t - 1) for t > 0, underflowing to 0 instead of overflowing;
    expm1 keeps 1 - e^{-t} accurate at small t."""
    if t > 700.0:
        return 0.0
    return math.exp(-t) / -math.expm1(-t)


def _csch2(t: float) -> float:
    """1/sinh^2(t) for t > 0, as 4 e^{-2t}/(1 - e^{-2t})^2 with the
    difference from expm1."""
    if t > 350.0:
        return 0.0
    return 4.0 * math.exp(-2.0 * t) / math.expm1(-2.0 * t) ** 2


def _guard_index(x: float, guard_delta: float) -> int:
    """The positive integer m with |x-m| < guard_delta, or 0 if none."""
    m = round(x)
    if m >= 1 and abs(x - m) < guard_delta:
        return m
    return 0


def _ratio(scale: float) -> float:
    """q = e^{-2 scale}, the common ratio of a k-series decaying at scale."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    return math.exp(-2.0 * scale)


def bound_csch2(first: int, power: int = 0, scale: float = math.pi) -> float:
    """Tail of sum_k k^power/sinh^2(scale k) for power <= 0: each term is
    4 k^power q^k/(1-q^k)^2 with q = e^{-2 scale}, so the tail is at most
    4 F^power q^F / ((1-q)(1-q^F)^2)."""
    if power > 0:
        raise ValueError("the csch2 bound only supports power <= 0")
    q = _ratio(scale)
    return float(first) ** power * 4.0 * _geom(first, q) / (1.0 - q**first) ** 2


def bound_lambert(power: int, first: int, scale: float = math.pi) -> float:
    """Tail of sum_k k^power/(e^{2 scale k}-1), with q = e^{-2 scale}.

    Nonpositive powers: k^p <= F^p. Positive powers: (k/F)^p <= e^{p(k-F)/F},
    which keeps the comparison series geometric whenever q e^{p/F} < 1;
    otherwise peel explicit terms until it is.
    """
    q = _ratio(scale)
    if power <= 0:
        return float(first) ** power * _geom(first, q) / (1.0 - q**first)
    total = 0.0
    f = first
    while q * math.exp(power / f) >= 1.0:
        total += float(f) ** power * q**f / (1.0 - q**f)
        f += 1
    ratio = q * math.exp(power / f)
    total += float(f) ** power * q**f / ((1.0 - ratio) * (1.0 - q**f))
    return total


def bound_exp_envelope(first: int, x: float) -> float:
    """Outer tail of the double series 2 pi sum_k e^{-2 pi k x}(k^2 A_k - k^3 C_k).

    Two rigorous summand bounds, the smaller closed form wins:
    - uniform: |A_k| <= pi/(2k) and |C_k| <= (1.5 + log k)/k^2 give
      k (3.1 + log k), with log k linearized as log F + (k-F)/F;
    - Abel against the bounded partial sums of sin/cos (away from integer x):
      |A_k| <= s/(k^2+1) and |C_k| <= c/(k^2+1) with s = 1/|sin(theta/2)|,
      c = 1/2 + s/2, theta = 2 pi dist(x), so the summand is <= s + c k.

    Where q^first is a normal double (>= 2^-1022 = e^-708.4), first 2 pi x
    < 709, and the closed form is raised by (1 + 1e-12) for the rounding of
    q. With u = eps/2, to first order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1): fl(2 pi x) is within 2u of 2 pi x (fl(2 pi)
    and the product), which moves q by at most 2u 2 pi x of itself; a
    faithful exp and pow add under 2u each, and pow carries q's error first
    times; so the computed q^first is within 2u (first 2 pi x + first + 1)
    of itself. Every caller in the package passes x >= 1 (S at the integers
    and from LIFT_TARGET on, psi's far bound from 16 on), so
    first < 709/(2 pi) < 113 and that is below 2u (709 + 113) < 1.9e-13.
    The closed forms' other roundings, a few dozen operations on terms that
    do not cancel (1 - q >= 0.998 at x >= 1, and q's error reaches them
    damped by q), add below 1e-14. The 1e-12 covers both with room: 40-digit
    mpmath put the unraised bound up to 3.6e-14 of itself below the sums on
    x in [40, 118.6]. Below x = 1, where 1 - q cancels, the factor is not
    derived.

    Where q underflows to 0 (x >~ 118.6) S is not 0, so neither is its
    bound: a faithful exp returns 0 only for q < ulp(0.0), and there the
    uniform envelope from k = 1, 2 pi sum_k k (3.1 + log k) q^k, is at most
    2 pi (3.1 q + 8 q^2) < 19.5 q + 51 q^2 < 20 q, so _ENVELOPE_FLOOR =
    20 ulp(0.0) (~9.9e-323) bounds every tail at every such x.

    Both closed forms are q^first times a C(first) that does not underflow.
    Where q^first is subnormal (q itself from x >~ 112.7), a faithful pow or
    exp can return up to an ulp(0.0) below it, and the closed form's
    products, taken in subnormals, would each round to the few bits left.
    So the bound is C(first), formed at q^first = 1, times the computed
    power plus ulp(0.0), rounded up to a whole ulp(0.0):
    ceil(C(first) (q^first/ulp(0.0) + 1) (1 + 1e-12)) ulp(0.0), a double
    exactly (the 1e-12 covers C's rounding and that of 2 pi x in q).

    Where q^first underflows but q does not, the tail is not 0 either. Let h
    be the first index with fl(q^h) = 0 (by bisection). A faithful pow gives
    0 only for q^h < ulp(0.0), so the tail from first >= h is below
    C(h) ulp(0.0) <= ceil(C(h) (1 + 1e-12)) ulp(0.0), and below the bound
    from h - 1. The smaller of the two does not depend on first, so the
    bound stays nonincreasing.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    q = math.exp(-_TWO_PI * x)
    if q == 0.0:
        return _ENVELOPE_FLOOR
    if q >= 1.0:
        return math.inf
    qf = q**first
    if qf:
        return _envelope_up(first, qf, q, x)
    last, h = 1, first  # q^last does not underflow, q^h does
    while h - last > 1:
        mid = (last + h) // 2
        last, h = (mid, h) if q**mid else (last, mid)
    from_h = math.ceil(_envelope(h, 1.0, q, x) * (1.0 + 1e-12)) * _ULP_ZERO
    return min(_envelope_up(last, q**last, q, x), from_h)


def _envelope_up(first: int, qf: float, q: float, x: float) -> float:
    """_envelope at the computed qf = fl(q^first) > 0, raised by
    (1 + 1e-12) where qf is normal and by ulp(0.0) of qf where it is
    subnormal (bound_exp_envelope)."""
    if qf >= _NORMAL_MIN:
        return _envelope(first, qf, q, x) * (1.0 + 1e-12)
    return math.ceil(_envelope(first, 1.0, q, x) * (qf / _ULP_ZERO + 1.0) * (1.0 + 1e-12)) * _ULP_ZERO


def _envelope(first: int, qf: float, q: float, x: float) -> float:
    """bound_exp_envelope's smaller closed form at qf = q^first, from
    sum_{k>=F} k q^k = qf (F - (F-1) q)/(1-q)^2 and
    sum_{k>=F} k (k-F) q^k = qf (q (1+q)/(1-q)^3 + F q/(1-q)^2)."""
    geom_k = qf * (first - (first - 1) * q) / (1.0 - q) ** 2
    centered = qf * (q * (1.0 + q) / (1.0 - q) ** 3 + first * q / (1.0 - q) ** 2)
    uniform = _TWO_PI * ((3.1 + math.log(first)) * geom_k + centered / first)
    dist = abs(x - round(x))
    if dist == 0.0:
        return uniform
    s = 1.0 / math.sin(math.pi * dist)
    c = 0.5 + 0.5 * s
    return min(uniform, _TWO_PI * (s * (qf / (1.0 - q)) + c * geom_k))


def log_abs_quartic_gap(k: float, x: float) -> float:
    """log|k^4 - x^4| without forming fourth powers (safe for huge x)."""
    hi, lo = (x, k) if x > k else (k, x)
    return 4.0 * math.log(hi) + math.log1p(-((lo / hi) ** 4))


# e^{-2 pi k} < 1e-354 from k = 130 on: a tail term at such an index is below
# the smallest subnormal even within guard_delta of x, so none is evaluated
_NEAR_END = 130


def _split_tail(first: int, x: float, skip: int = 0) -> tuple[list[int], bool, int]:
    """How a k-sum tail from first falls around x, as (near, below, h).

    near holds floor(x) and ceil(x) where they are >= first, != skip and
    below _NEAR_END: the closed tails take these at their actual size. Every
    other index lies at least 1 from x. below is true when the tail has
    indices first <= k <= floor(x) - 1, and h = max(first, ceil(x) + 1) is
    its first index past x.
    """
    lo = math.floor(x)
    hi = lo if lo == x else lo + 1
    near = []
    # at large x no index is near; skip building an empty range
    if first <= hi and lo < _NEAR_END:
        near = [k for k in range(max(first, lo), min(hi + 1, _NEAR_END)) if k != skip]
    return near, first < lo, max(first, hi + 1)


def bound_psi_k_sum(
    first: int, x: float, guard_delta: float = DEFAULT_GUARD_DELTA, skip: int = 0
) -> float:
    """Tail of sum_k 2k/((e^{2 pi k}-1)(k^2-x^2)) from k = first, in one
    closed-form pass around x (_split_tail); an index excluded from the series
    by the singularity guard is passed as skip. With q = e^{-2 pi}:

    - floor(x) and ceil(x) at their actual size, with |k^2-x^2| floored at
      guard_delta (k+x): an index inside the guard band is skipped here and
      handled by the regularized pair, so the floor never understates a term
      that is summed.
    - below x, up to k = floor(x)-1: (x-k)/(x-k-1) <= 2 gives
      t_{k+1} <= 4q t_k for the terms t_k, so they sum to at most t_first/(1-4q).
    - from h = max(first, ceil(x)+1) on, 2k/(k^2-x^2) falls with k against
      sum_{k>=h} 1/(e^{2 pi k}-1) <= q^h/((1-q)(1-q^h)).

    The 1e-12 factor covers the rounding of the terms taken at their size.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    near, below, h = _split_tail(first, x, skip)
    psi = 0.0
    for k in near:
        psi += 2.0 * k * _inv_expm1(_TWO_PI * k) / (max(abs(k - x), guard_delta) * (k + x))
    q = _Q_UNIT
    if below:
        t = 2.0 * first * _inv_expm1(_TWO_PI * first) / (x - first) / (x + first)
        psi += t / (1.0 - 4.0 * q)
    qh = q**h
    if qh:
        psi += 2.0 * h * qh / ((1.0 - q) * (1.0 - qh) * max(h - x, 1.0) * (h + x))
    return psi * (1.0 + 1e-12)


def bound_log_csch2(first: int, x: float, skip: int = 0) -> float:
    """Tail of (pi/2) sum_k |log|k^4 - x^4|| / sinh^2(pi k) from k = first,
    in one closed-form pass around x (_split_tail), skipping index skip. With
    q = e^{-2 pi}:

    - floor(x) and ceil(x) at their actual size; the tail is infinite if one
      of them is x itself.
    - below x, up to k = floor(x)-1: x - k >= 1 gives 15 <= x^4 - k^4 <= x^4,
      so each log is at most 4 log x against csch^2(pi k) <= 4 q^k/(1-q^F)^2,
      k >= F.
    - from h = max(first, ceil(x)+1) on, 8 <= k^4 - x^4 <= k^4, so each log
      is at most 4 (log h + (k-h)/h).

    The 1e-12 factor covers the rounding of the terms taken at their size.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    near, below, h = _split_tail(first, x, skip)
    log = 0.0
    for k in near:
        if k == x:
            log = math.inf
        else:
            log += abs(log_abs_quartic_gap(float(k), x)) * _csch2(math.pi * k)
    q = _Q_UNIT
    if below:
        qf = q**first
        log += 16.0 * math.log(x) * qf / ((1.0 - q) * (1.0 - qf) ** 2)
    qh = q**h
    if qh:
        log += 16.0 * qh / ((1.0 - q) * (1.0 - qh) ** 2) * (math.log(h) + q / ((1.0 - q) * h))
    return (math.pi / 2.0) * log * (1.0 + 1e-12)


def tail_bound(family: str, first_omitted: int, x: float = 1.0, power: int = 1) -> TailBound:
    """Closed-form tail bound for the named series family, starting at
    first_omitted. x weights the families that depend on it (ignored by
    csch2/lambert); power applies to the lambert family only."""
    if first_omitted < 1:
        raise ValueError("first_omitted must be >= 1")
    if family == "csch2":
        b = bound_csch2(first_omitted)
    elif family == "lambert":
        b = bound_lambert(power, first_omitted)
    elif family == "exp_envelope":
        b = bound_exp_envelope(first_omitted, x)
    elif family == "log_csch2":
        b = bound_log_csch2(first_omitted, x)
    else:
        raise ValueError(f"unknown tail family: {family!r}")
    return TailBound(family=family, first_omitted_index=first_omitted, bound=b)


def lift_shift(x: float) -> int:
    """The smallest j >= 0 with x + j >= LIFT_TARGET (in floating point):
    double_series_S sums where it stands when this is 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    shift = 0
    while x + shift < LIFT_TARGET:
        shift += 1
    return shift


# plan's weight max(40, log(x)/5) is 40 up to here: log(exp(200.0)) is
# 200.0 exactly, and log is monotone
_WEIGHT_FLOOR_END = math.exp(200.0)


def plan(tol: float, x: float) -> EvalParams:
    """Pick the outer count k_terms so each k-sum tail family (k-sum, csch2,
    log-weighted csch2) is individually below tol/4, in closed form:
    k_terms = max(1, ceil(log(max(40, log(x)/5)/tol)/(2 pi))).

    Every k-term carries e^{-2 pi k}, so the count depends on x only through
    the log x weight of the log-csch2 tail. The evaluators sum at x, at
    x + lift_shift(x) or at x lifted to 16 (see EvalParams); below 16
    log(x)/5 < 40, so the lift never moves the count, and at MIN_TOL the
    count is 7 for every finite x. plan evaluates no bound: the
    evaluators charge the real tails at k_terms + 1. The double series sizes
    its own sums from tol (double_series.outer_weights), so n_terms is the
    cap MAX_N_TERMS.

    The result is memoized on (tol, max(40, log(x)/5)) in an LRU cache of
    256 entries (_planned). The weight is 40 for every x up to
    fl(e^200), so there all callers at one tol share one immutable
    EvalParams, which plan looks up with one comparison and no log; above
    it each x has its own entry. x is checked before the cache is reached,
    and a refused tol is never cached: it raises again on every call.
    """
    if 0.0 < x <= _WEIGHT_FLOOR_END:
        return _planned(tol, 40.0)
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    return _planned(tol, max(40.0, math.log(x) / 5.0))


@functools.lru_cache(maxsize=256)
def _planned(tol: float, weight: float) -> EvalParams:
    """plan's EvalParams for tol and the log-csch2 weight max(40, log(x)/5).
    lru_cache stores no exception, so check_tol refuses a bad tol every time."""
    check_tol(tol)
    # Why it fits, with q = e^{-2 pi}, y the lifted argument and F = k + 1,
    # so that q^F <= q tol/max(40, log(y)/5):
    # - csch2: bound_csch2(F) <= 4q (tol/40)/(1-q)^3 ~ 1.9e-4 tol.
    # - k-sum: the in-band index is skipped, so the near terms sum to at most
    #   q^F/guard_delta (1+o(1)), and the below and past pieces to at most
    #   3q^F; together below 0.05 tol.
    # - log-csch2: near terms exist only at y < _NEAR_END = 130, and with them
    #   the tail is ~270 q^F ~ 0.013 tol at most. At y >= 130 q^h underflows
    #   and only the below piece is left:
    #   8 pi log(y) q^F/((1-q)(1-q^F)^2) (1+1e-12) <= 0.0472 * 5 tol < tol/4.
    # - the double series: at y >= LIFT_TARGET its envelope tail at k + 1
    #   carries e^{-2 pi (k+1) y} <= e^{-6 pi} (e^{-2 pi k})^3, below 1e-13 tol
    #   with q^k <= tol/40 at every admissible tol.
    k = max(1, math.ceil(math.log(weight / tol) / _TWO_PI))
    return EvalParams(tol=tol, k_terms=k, n_terms=MAX_N_TERMS)

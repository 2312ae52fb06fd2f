"""Hyperbolic-series evaluators for psi(x+1) and its corollaries.

One rapidly convergent representation drives everything here: a logarithmic
leading part, two trigonometric-over-hyperbolic terms, two exponentially
convergent k-sums, and an exponentially weighted double series S(x). The
corollaries (Euler's constant at and away from integers, odd zeta values,
trigamma, Lambert-type sums) are rearrangements of the same machinery.

Numerical strategy notes:
- psi_ramanujan sums the representation only in its moment form, at an
  argument lifted to y >= 16 for K <= 7 outer terms: the identity
  sum_k csch^2(pi k) = 1/6 - 1/(2 pi) makes log y exact, and the K-term
  k-sums expand in 1/y^2 with x-independent moments tabulated once per K.
  What it does not sum there (S(y), the trigonometric terms and every index
  near or past y) carries e^{-2 pi (y-1)} and is charged as one constant;
- the corollaries share that moment core. psi' is its term-by-term
  derivative. Re psi(1+ix) - psi(x+1) = D(x) is a short closed form, because
  the all-arguments identity shares S, the log|2 sin| piece and the log
  k-family with the representation; so Re psi is psi plus D, and Euler's
  constant is the partial-fraction sum P(y) less psi(y+1) and D(y) at
  y >= 16, with P by Euler-Maclaurin in pure Python, or at an integer m
  H_n - psi(n+1) at n = max(m, 16). None of them sums S;
- the odd zeta values read their scale-pi weights from _PI_WEIGHTS; at a
  general scale one exp/expm1 pair per k gives both the Lambert and the
  csch^2 weight;
- every trig argument is reduced to the signed distance from the nearest
  integer before multiplying by pi, so the k-series stay accurate for large x;
- inside |x - m| < guard_delta the two singular pairings (the cot pole
  against the k=m pole term, and the log|2 sin| singularity against the k=m
  log term) are evaluated from pole-cancelled closed forms that are exact,
  never from a truncated local expansion;
- the inner sine/cosine sums of S(x) are split against the closed forms
  sum sin(n t)/n^2 and sum (1-cos(n t))/n^3, leaving remainders whose terms
  decay like n^-4 and n^-5, so double precision targets need ~10^4 terms
  instead of ~10^11; numpy, which sums them and nothing else here, is
  imported on first use. So only S off the integers from x = 3
  (planner.LIFT_TARGET) loads it, and only while its outer sum keeps a
  term: up to x ~ 5.2 at tol 1e-12 and ~ 6.3 at 1e-15, nowhere at tol
  1e-6 or above. Below 3, S is R(x) - psi(x+1) and loads none;
- error_estimate fields combine the planner's rigorous tail bounds with a
  rounding allowance proportional to the summed magnitude; the evaluators
  that end in one fsum of their pieces add it in _close.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import planner
from .bernoulli import BernoulliTable, bernoulli_over_factorial, shared_table
from .errors import GuardBandError, ToleranceError
from .params import (
    DEFAULT_GUARD_DELTA,
    MAX_GAMMA_M,
    MAX_K_TERMS,
    EvalParams,
    ModularPair,
    Record,
    SeriesValue,
)
from .planner import _EPS, _Q_UNIT, _csch2, _guard_index, _inv_expm1

_TWO_PI = 2.0 * math.pi
# (k, 1/(e^{2 pi k} - 1), csch^2(pi k)), the weights of the pi-scaled k-sums;
# both underflow to 0 from k = 112 on, so no such k-loop runs past this table
_PI_WEIGHTS = tuple((k, _inv_expm1(_TWO_PI * k), _csch2(math.pi * k)) for k in range(1, 112))


def zeta_even(N: int, table: BernoulliTable) -> float:
    """zeta(2N) = (-1)^{N+1} 2^{2N-1} pi^{2N} B_{2N}/(2N)!; N=0 gives -1/2."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if table.max_index < 2 * N:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N}")
    ratio = float(bernoulli_over_factorial(table, 2 * N))
    sign = 1.0 if N % 2 == 1 else -1.0
    return sign * ratio * 2.0 ** (2 * N - 1) * math.pi ** (2 * N)


# zeta at even arguments 2j for the coefficient expansions below; j up to 44
_ZETA_EVEN = tuple(zeta_even(j, shared_table()) for j in range(45))


# ---------------------------------------------------------------------------
# argument-reduced trigonometry


def _dist(x: float) -> float:
    """Signed distance to the nearest integer, in [-0.5, 0.5]."""
    return x - round(x)


def _cotpi(x: float) -> float:
    d = _dist(x)
    if abs(d) == 0.5:
        return 0.0
    return math.cos(math.pi * d) / math.sin(math.pi * d)


def _log_2sinpi_abs(x: float) -> float:
    return math.log(2.0 * abs(math.sin(math.pi * _dist(x))))


# ---------------------------------------------------------------------------
# coefficient expansions: Clausen-type sums and the cot pole remainder


def _clausen_sin2(theta: float) -> float:
    """sum_n sin(n theta)/n^2 for 0 < theta <= pi, via the even-zeta
    power series around the theta log theta singularity."""
    r = (theta / _TWO_PI) ** 2
    acc = 0.0
    p = 1.0
    for j in range(1, 45):
        p *= r
        t = _ZETA_EVEN[j] * p / (j * (2 * j + 1))
        acc += t
        if t < 1e-18:
            break
    return theta * (1.0 - math.log(theta)) + theta * acc


def _one_minus_cos_sum3(theta: float) -> float:
    """sum_n (1 - cos(n theta))/n^3 for 0 <= theta <= pi (the antiderivative
    of _clausen_sin2, fixed to vanish at 0)."""
    if theta == 0.0:
        return 0.0
    r = (theta / _TWO_PI) ** 2
    acc = 0.0
    p = 1.0
    for j in range(1, 45):
        p *= r
        t = _ZETA_EVEN[j] * p / (j * (2 * j + 1) * (2 * j + 2))
        acc += t
        if t < 1e-18:
            break
    return theta * theta * ((0.75 - 0.5 * math.log(theta)) + acc)


def _cot_pole_remainder(eps: float) -> float:
    """pi cot(pi eps) - 1/eps = -2 sum_j zeta(2j) eps^{2j-1}, |eps| < 1."""
    if eps == 0.0:
        return 0.0
    acc = 0.0
    p = 1.0 / eps
    e2 = eps * eps
    for j in range(1, 45):
        p *= e2
        t = _ZETA_EVEN[j] * p
        acc += t
        if abs(t) < 1e-18:
            break
    return -2.0 * acc


# ---------------------------------------------------------------------------
# the double series


# P(y) = sum_{n>=1} f(n), f(n) = y^2/(n(n^2+y^2)) = 1/n - Re 1/(n+iy), adds
# n < _PF_M directly and the rest by Euler-Maclaurin (DLMF 2.10(i)) from M
_PF_M = 32
_LOG_PF_M = math.log(_PF_M)
# B_{2j}/(2j) for j = 1..5: the weight of -f^(2j-1)(M)/(2j-1)! in the sum
_EM_WEIGHTS = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)
# the 1/n half of those corrections, sum_j B_{2j}/(2j) M^-2j, fixed with M
_EM_AT_M = math.fsum(w * float(_PF_M) ** (-2 * j) for j, w in enumerate(_EM_WEIGHTS, 1))
# (n, n^3) for n <= M: the directly summed n < M and the half-weight f(M)
_PF_TERMS = tuple((float(n), float(n) ** 3) for n in range(1, _PF_M + 1))
# the remainder past f^(9): |B_10|/10! = 2 zeta(10)/(2 pi)^10 against
# int_M^inf |f^(10)| <= int 10!/t^11 + int 10!/|t+iy|^11 <= 2 * 9!/M^10, at any
# y; 1.35e-17, with 1e-12 for its own rounding
_PF_REMAINDER = 4.0 * _ZETA_EVEN[5] * math.factorial(9) / (_TWO_PI * _PF_M) ** 10 * (1.0 + 1e-12)


def _pf_body(y: float) -> float:
    """P(y) less its Euler-Maclaurin integral term: the n < M terms, f(M)/2
    and the corrections through f^(9) at M = _PF_M, where
    -f^(2j-1)(M)/(2j-1)! = M^-2j - Re (M+iy)^-2j. Each f(n) is formed as
    1/(n + n^3/y^2), with 1/y^2 as (1/y)^2, and (M+iy)^-1 by complex
    division, so nothing cancels or overflows at any y > 0 (an infinite
    1/y^2 gives the f(n) = 0 that y^2/n^3 underflows to); the terms are
    positive, so their sum carries at most 4 eps of itself, and the
    corrections are below 1e-4."""
    inv = 1.0 / y
    inv2 = inv * inv
    terms = [1.0 / (n + n3 * inv2) for n, n3 in _PF_TERMS]
    terms[-1] *= 0.5  # f(M)/2
    z = 1.0 / complex(_PF_M, y)
    z *= z
    horner = 0j
    for weight in reversed(_EM_WEIGHTS):
        horner = (horner + weight) * z
    return math.fsum(terms) + _EM_AT_M - horner.real


def _partial_fraction_gamma_sum(x: float) -> tuple[float, float]:
    """(value, error) for P(x) = sum_{n>=1} x^2/(n(n^2+x^2)) at any x > 0:
    _pf_body plus the integral int_M^inf f = (1/2) log(1 + (x/M)^2), taken
    as log(x/M) + (1/2) log1p((M/x)^2) past x = M so that no square
    overflows. The error is _PF_REMAINDER and 4 eps of the two parts plus 1,
    which covers the rounding of the logarithm and of the final sum."""
    body = _pf_body(x)
    r = x / _PF_M
    if r <= 1.0:
        integral = 0.5 * math.log1p(r * r)
    else:
        integral = math.log(r) + 0.5 * math.log1p(1.0 / (r * r))
    return body + integral, _PF_REMAINDER + 4.0 * _EPS * (body + integral + 1.0)


# the evaluators sum the double series only at x >= 1 (lifted arguments and
# integers m), where the weight e^{-2 pi k x} underflows before k = 119, so
# the cache holds every row a call can reach
@lru_cache(maxsize=128)
def _cosine_row_at_zero(k: int) -> tuple[float, float]:
    """(C_k(0), error) with C_k(0) = sum_n 1/(n(n^2+k^2)) = (gamma + Re psi(1+ik))/k^2,
    the closed inner cosine row, from the partial-fraction sum."""
    k2 = float(k) * float(k)
    value, err = _partial_fraction_gamma_sum(float(k))
    return value / k2, err / k2


def _inner_pair(k: int, theta: float, n_sin: int, n_cos: int):
    """(A_k, C_k, err_A, err_C) for signed theta in [-pi, pi], where
    A_k = sum_n sin(n theta)/(k^2+n^2) and C_k = sum_n cos(n theta)/(n(n^2+k^2)).

    Splitting against the closed forms turns the raw 1/n and 1/n^2 decay into
    n^-4 and n^-5 remainder series:
      A_k = Cl(theta) - k^2 sum_n sin(n theta)/(n^2(n^2+k^2)),
      C_k = C_k(0) - I(theta) + k^2 sum_n (1-cos(n theta))/(n^3(n^2+k^2)),
    with Cl = _clausen_sin2, I = _one_minus_cos_sum3 and
    C_k(0) = (gamma + Re psi(1+ik))/k^2 (_cosine_row_at_zero).
    """
    k2 = float(k) * float(k)
    c0, c0_err = _cosine_row_at_zero(k)
    at = abs(theta)
    if at == 0.0:
        return 0.0, c0, 0.0, c0_err
    import numpy as np

    n = np.arange(1.0, n_sin + 1.0)
    q_sum = float(np.sum(np.sin(n * at) / (n * n * (n * n + k2))))
    n = np.arange(1.0, n_cos + 1.0)
    p_sum = float(np.sum((1.0 - np.cos(n * at)) / (n * n * n * (n * n + k2))))
    a = _clausen_sin2(at) - k2 * q_sum
    if theta < 0.0:
        a = -a
    c = c0 - _one_minus_cos_sum3(at) + k2 * p_sum
    err_a = k2 / (3.0 * float(n_sin) ** 3) + 4.0 * _EPS * (1.1 + k2 * abs(q_sum))
    err_c = (
        k2 / (2.0 * float(n_cos) ** 4)
        + c0_err
        + 4.0 * _EPS * (c0 + 1.1 + k2 * p_sum)
    )
    return a, c, err_a, err_c


# S where every weight e^{-2 pi k x} underflows (x >= ~118.6): no term, no tail
_ZERO_SERIES = SeriesValue(0.0, 0.0, 0, 0)


def _double_series_at(x: float, params: EvalParams) -> SeriesValue:
    """S(x) summed directly at x, without the recurrence lift. The outer sum
    stops at its own envelope (planner.outer_weights), which also gives the
    outer tail it is charged; where no term is needed S is 0, charged
    bound_exp_envelope(1, x), with k_used and n_used 0. At integer x the
    inner sums collapse to C_k(0), so none is sized and n_used is 0."""
    if math.exp(-_TWO_PI * x) == 0.0:
        return _ZERO_SERIES
    weights, tail = planner.outer_weights(x, params.k_terms, params.tol)
    if not weights:
        return SeriesValue(0.0, tail, 0, 0)
    theta = _TWO_PI * _dist(x)
    if theta:
        lengths = planner._inner_lengths(params.tol, weights)
    else:
        lengths = [(0, 0)] * len(weights)
    pieces = []
    trunc = 0.0
    mass = 0.0
    n_used = 0
    for k, (w, (n_sin, n_cos)) in enumerate(zip(weights, lengths), 1):
        n_sin = min(n_sin, params.n_terms)
        n_cos = min(n_cos, params.n_terms)
        a, c, err_a, err_c = _inner_pair(k, theta, n_sin, n_cos)
        k2 = float(k) ** 2
        k3 = float(k) ** 3
        pieces.append(w * (k2 * a - k3 * c))
        trunc += w * (k2 * err_a + k3 * err_c)
        mass += w * (k2 * abs(a) + k3 * abs(c))
        n_used = max(n_used, n_sin, n_cos)
    k_used = len(weights)
    value = _TWO_PI * math.fsum(pieces)
    err = tail + _TWO_PI * trunc + 4.0 * _EPS * _TWO_PI * mass
    return SeriesValue(value=value, error_estimate=err, k_used=k_used, n_used=n_used)


def _close(pieces: list[float], bound: float, k_used: int, n_used: int) -> SeriesValue:
    """The fsum of pieces, with the truncation bound plus the rounding
    allowance 4 eps sum|piece| as its error estimate."""
    mass = math.fsum(map(abs, pieces))
    return SeriesValue(math.fsum(pieces), bound + 4.0 * _EPS * mass, k_used, n_used)


def double_series_S(x: float, params: EvalParams) -> SeriesValue:
    """2 pi sum_k e^{-2 pi k x} (k^2 A_k - k^3 C_k), the exponentially
    weighted double series; the inner sums see x only through the reduced
    angle theta = 2 pi (x - round(x)), and at integer x they collapse to the
    closed form C_k = (gamma + Re psi(1+ik))/k^2 with A_k = 0. The outer sum
    sizes itself from tol: it stops at the first k whose envelope tail
    planner.bound_exp_envelope(k, x) is at most tol * planner.S_TAIL_SHARE,
    and k_terms only caps it (planner.outer_weights).

    At integer x, where no inner sum runs, and from planner.LIFT_TARGET on,
    S is summed where it stands. Below LIFT_TARGET off the integers it comes
    from the representation instead: S(x) = R(x) - psi(x+1), with R the
    non-S part (_psi_rest, at x itself) and psi(x+1) from psi_ramanujan,
    whose moment form sums no double series. k_used is the larger of their
    outer counts, and n_used is 0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if planner.lift_shift(x) == 0 or x == round(x):
        return _double_series_at(x, params)
    psi = psi_ramanujan(x, params)
    pieces, tail, k_used = _psi_rest(x, params)
    pieces.append(-psi.value)
    return _close(pieces, psi.error_estimate + tail, max(k_used, psi.k_used), 0)


# ---------------------------------------------------------------------------
# pole-cancelled guard pairs


def _guard_pole_pair(m: int, eps: float) -> float:
    """Combined value of pi cot(pi x)/(e^{2 pi x}-1) and the k=m pole term
    2m/((e^{2 pi m}-1)(m^2-x^2)) at x = m + eps.

    The two simple poles cancel; this closed form never builds either one:
      pair = [ (1 - 2m g phi(eps)) / (2m+eps) + r(eps) ] / (e^{2 pi x}-1)
    with g = e^{2 pi m}/(e^{2 pi m}-1), phi(eps) = expm1(2 pi eps)/eps
    (phi(0) = 2 pi) and r = _cot_pole_remainder. Exact in the limit eps=0.
    """
    inv_e = _inv_expm1(_TWO_PI * (m + eps))
    if inv_e == 0.0:
        return 0.0
    g = 1.0 / -math.expm1(-_TWO_PI * m)
    phi = math.expm1(_TWO_PI * eps) / eps if eps != 0.0 else _TWO_PI
    return inv_e * (
        (1.0 - 2.0 * m * g * phi) / (2.0 * m + eps) + _cot_pole_remainder(eps)
    )


def _guard_log_pair(m: int, eps: float) -> float:
    """Combined value of pi log|2 sin(pi x)| csch^2(pi x)/2 and the k=m log
    term -(pi/2) log|m^4-x^4| csch^2(pi m) at x = m + eps.

    The log|eps| pieces pair against the csch^2 difference, which is computed
    from the product identity csch^2 a - csch^2 b = sinh(b+a) sinh(b-a)
    csch^2 a csch^2 b in exponential form, so nothing cancels catastrophically.
    """
    cm = _csch2(math.pi * m)
    if eps == 0.0:
        # log(pi / (2 m^3)) without forming m^3, which overflows past m ~ 5e102
        return (math.pi / 2.0) * cm * (math.log(math.pi / 2.0) - 3.0 * math.log(m))
    x = m + eps
    cx = _csch2(math.pi * x)
    w = math.exp(-math.pi * (m + x)) if math.pi * (m + x) < 745.0 else 0.0
    qx = math.exp(-_TWO_PI * x)
    qm = math.exp(-_TWO_PI * m)
    # sinh(pi(m+x)) csch^2(pi x) csch^2(pi m), overflow-free
    h = 8.0 * w * (1.0 - w * w) / ((1.0 - qx) ** 2 * (1.0 - qm) ** 2)
    delta = -math.sinh(math.pi * eps) * h
    sin_ratio = math.sin(math.pi * eps) / (math.pi * eps)
    return (math.pi / 2.0) * (
        math.log(abs(eps)) * delta
        + (math.log(_TWO_PI) + math.log(sin_ratio)) * cx
        - math.log((2.0 * m + eps) * (m * m + x * x)) * cm
    )


# ---------------------------------------------------------------------------
# the main evaluator and its corollaries


def _psi_rest(x: float, params: EvalParams) -> tuple[list[float], float, int]:
    """R(x) = psi(x+1) + S(x), the non-S part of the representation, as
    (pieces, tail bound of the k-sum and the log k-sum, last k reached before
    the weights underflow), evaluated at x itself.

    Within guard_delta of a positive integer m the cot/pole and log/log
    pairings switch to their pole-cancelled closed forms and the k=m terms
    are excluded from the plain sums.
    """
    m = _guard_index(x, params.guard_delta)
    pieces = [
        (math.pi / 3.0) * math.log(x),
        0.5 / x,
        -1.0 / (4.0 * math.pi * x * x),
    ]
    if m == 0:
        pieces.append(math.pi * _cotpi(x) * _inv_expm1(_TWO_PI * x))
        pieces.append(math.pi * _log_2sinpi_abs(x) * _csch2(math.pi * x) / 2.0)
    else:
        eps = x - m
        pieces.append(_guard_pole_pair(m, eps))
        pieces.append(_guard_log_pair(m, eps))
    weights = _PI_WEIGHTS[: params.k_terms]
    for k, q, csch in weights:
        if k == m:
            continue
        # (k-x)(k+x), not k^2 - x^2: fl(x*x) carries eps/2 of x^2, which
        # k^2 - x^2 would magnify by ~x/(2|k-x|) on a term of size ~q/|k-x|
        pieces.append(2.0 * k * q / ((k - x) * (k + x)))
        pieces.append(-(math.pi / 2.0) * planner.log_abs_quartic_gap(float(k), x) * csch)
    tail, log_tail = planner.k_sum_tails(params.k_terms + 1, x, params.guard_delta, skip=m)
    return pieces, tail + log_tail, len(weights)


# psi, psi' and gamma_any_x sum their moment forms at y >= _Y_MOMENT, and
# Re psi from x = _Y_MOMENT on, over K = min(k_terms, _K_CAP) outer terms.
# _K_CAP is plan's k_terms at MIN_TOL for every finite x
# (ceil(log(142/1e-15)/(2 pi)) = 7), so it leaves planned calls as they are;
# a larger hand-built count leaves k >= 8 to _moments' closed tails, below
# 1e-21 at y >= 16. With 2K + 2 <= 16 every summed k has k/y <= 7/16, and
# every index from floor(y) on carries e^{-2 pi (y-1)} <= e^{-30 pi}
_Y_MOMENT = 16.0
_K_CAP = 7
# moments tabulated per K for j < _J_CAP. At y >= 16 the k = 1, 2, 3 parts
# of the terms fall at least 256x, 64x and 28x per term and the rest start
# below 1e-16, so at every admissible tol each j-series stops within six
# terms; past the table _moment_series charges a closed bound instead
_J_CAP = 10


def _far_bound(y: float) -> float:
    """What psi(y+1) at y >= 16 charges rather than sums, bounded at y. With
    m = round(y), eps = y - m, q = e^{-2 pi}, E = e^{-2 pi (y-1)} and
    c(t) = csch^2(pi t) <= 4.0001 e^{-2 pi t}:

    - S(y), at most bound_exp_envelope(1, y), whose uniform form (the one it
      takes at integer y) grows with e^{-2 pi y};
    - the cot piece with the k = m pole term, in _guard_pole_pair's form: at
      most q(y) ((1 + 2m g phi(1/2))/(2m - 1/2) + 2) <= 48 q(y), since
      phi(1/2) = 2 (e^pi - 1), m >= 16 and |pi cot(pi eps) - 1/eps| <= 2;
    - the other k-sum terms from floor(y) on, |k - y| >= 1/2, each at most
      4 q_k: 4.01 E/(1 - q) together;
    - the log piece with the k = m log term, split as
      (c(y) - c(m)) log|eps| + c(y) log(2 sin(pi|eps|)/|eps|)
      - c(m) log((1 + m/y)(1 + (m/y)^2)/y): at most (pi/2) 4.0001 E
      (2 pi/e + 1.84 q + (1.44 + log y) e^{-pi}), using |eps log|eps|| <= 1/e
      and |c'(t)| <= 2 pi c(m - 1/2) on the band;
    - the other log terms from floor(y) on, where
      |log|1 - (k/y)^4|| <= log(2y) + (k - floor(y))/4: at most
      (pi/2) 4.0001 E (log(2y)/(1 - q) + q/(4 (1 - q)^2)).

    Each bound falls with y from 16 on (E log(2y) does), so the value at 16,
    _PSI_FAR, bounds them all."""
    q = _Q_UNIT
    big_e = math.exp(-_TWO_PI * (y - 1.0))
    log_pair = _TWO_PI / math.e + 1.84 * q + (1.44 + math.log(y)) * math.exp(-math.pi)
    log_rest = math.log(2.0 * y) / (1.0 - q) + q / (4.0 * (1.0 - q) ** 2)
    k_sum = 48.01 * q + 4.01 / (1.0 - q)
    far = big_e * (k_sum + (math.pi / 2.0) * 4.0001 * (log_pair + log_rest))
    return planner.bound_exp_envelope(1, y) + far


def _off_band_far(y: float, gap: float) -> tuple[float, float]:
    """(D's, psi''s) terms at y >= 16 that their moment forms charge rather
    than sum, for y at least gap from every integer. With n = floor(y),
    q = e^{-2 pi}, E = e^{-2 pi (y-1)}, q_k = 1/(e^{2 pi k} - 1) and
    c_k = csch^2(pi k): q(y) <= E q/(1 - q), q_{n+i} <= E q^i/(1 - q) and
    c_{n+i} <= 4 E q^i/(1 - q)^2, and |k - y| >= gap for i = 0, 1 and >= 1
    past them.

    D (re_psi_complex_ramanujan):
    - the cot piece, |pi cot(pi y)| q(y) <= q(y)/gap;
    - the k-sum terms from n on, 4k y^2 q_k/(|k - y| (k + y)(k^2 + y^2)), at
      most 2 q_k/|k - y| by k^2 + y^2 >= 2ky.
    psi' (psi_prime_ramanujan):
    - the csc^2 piece, pi^2 q(y)/sin^2(pi y) <= pi^2 q(y)/sin^2(pi gap);
    - the k-sum terms from n on, 4k y q_k/((k - y)^2 (k + y)^2), at most
      q_k/(k - y)^2 by 4ky <= (k + y)^2;
    - what the moment form leaves of the csch^2 terms from n on (their
      -(2 pi/y) c_k parts are in its exact 1/y), (2 pi/y) c_k s_k/|1 - s_k|
      with s_k = (k/y)^4, that is 2 pi c_k k^4/(y |k - y| (k + y)(k^2 + y^2)),
      at most 2 pi c_k (k/y)/|k - y|, where k/y <= 1 + (i + 1)/16
      <= (17/16) 2^i.

    Each falls with y (only E depends on it), so the values at 16, _D_FAR
    and _PRIME_FAR, bound them at every y >= 16. The 1e-12 covers their
    rounding."""
    q = _Q_UNIT
    big_e = math.exp(-_TWO_PI * (y - 1.0))
    near, rest = 1.0 + q, q * q / (1.0 - q)
    d_far = big_e / (1.0 - q) * (q / gap + 2.0 * near / gap + 2.0 * rest)
    csc = math.pi**2 * q / math.sin(math.pi * gap) ** 2
    k_sum = near / gap**2 + rest
    csch = 8.5 * math.pi * (near / gap + 4.0 * q * q / (1.0 - 2.0 * q)) / (1.0 - q)
    prime_far = big_e / (1.0 - q) * (csc + k_sum + csch)
    return d_far * (1.0 + 1e-12), prime_far * (1.0 + 1e-12)


_PSI_FAR = _far_bound(_Y_MOMENT)
# Re psi and psi' refuse the guard bands and gamma_any_x steps off them, but a
# lifted fl(x + shift) may round up to an ulp into one: half the band is the
# gap they can rely on
_D_FAR, _PRIME_FAR = _off_band_far(_Y_MOMENT, DEFAULT_GUARD_DELTA / 2.0)


class _Moments(Record):
    """The per-K moment tables of _moments."""

    __slots__ = _fields = ("m", "l", "m_d", "m_prime", "l_prime", "rel", "a", "b")

    def __init__(
        self,
        m: tuple[float, ...],  # M_{2j+1}
        l: tuple[float, ...],  # L_{4j+4}/(j+1)
        m_d: tuple[float, ...],  # M_{4j+1}, D's series
        m_prime: tuple[float, ...],  # (j+1) M_{2j+1}, psi''s k-sum series
        l_prime: tuple[float, ...],  # L_{4j+4}, psi''s csch^2 series
        rel: float,
        a: float,
        b: float,
    ):
        set_m, set_l, set_m_d, set_m_prime, set_l_prime, set_rel, set_a, set_b = self._setters
        set_m(self, m)
        set_l(self, l)
        set_m_d(self, m_d)
        set_m_prime(self, m_prime)
        set_l_prime(self, l_prime)
        set_rel(self, rel)
        set_a(self, a)
        set_b(self, b)


@lru_cache(maxsize=None)  # one entry per K <= _K_CAP
def _moments(K: int) -> _Moments:
    """The moments of the k-sums cut at K <= _K_CAP, from _PI_WEIGHTS:
    M_p = sum_{k<=K} k^p/(e^{2 pi k} - 1) and L_p = sum_{k<=K} k^p
    csch^2(pi k), for j < _J_CAP, each weighted as its series takes it, so
    that no evaluator weights them per call. k^p stays below 1e35, so
    nothing overflows. Each moment is within rel of its exact value: the
    largest _summand_rounding of its positive terms, (6 + 2 pi k + 1/(pi k))
    eps at t = pi k; the integer weight of m_prime adds eps more.

    a and b give the closed tails from F = K + 1 up to y - 1: the k-sum's
    sum_{F<=k<=y-1} 2k q_k/(y^2 - k^2) <= a/((y - F)(y + F)) and the log
    family's (pi/2) sum_{F<=k<=y-1} c_k s_k/(1 - s_k) <= b s/(1 - s), with
    s_k = (k/y)^4, s = s_F and c_k = csch^2(pi k). Up to k <= y - 1,
    (y - k)/(y - k - 1) <= 2 makes each k-sum term at most 4q times the one
    before, q = e^{-2 pi}, and each c_k s_k/(1 - s_k), which is at least
    |log(1 - s_k)| c_k, at most ((k+1)/k)^4 2 q <= 32 q times the one
    before."""
    weights = _PI_WEIGHTS[:K]
    moment_m = tuple(
        math.fsum(float(k) ** (2 * j + 1) * q for k, q, _ in weights) for j in range(_J_CAP)
    )
    moment_l4 = tuple(
        math.fsum(float(k) ** (4 * j + 4) * c for k, _, c in weights) for j in range(_J_CAP)
    )
    rel = (7.0 + _TWO_PI * K) * _EPS
    f = K + 1
    e = math.exp(-_TWO_PI * f)
    a = 2.0 * f * e / -math.expm1(-_TWO_PI * f) / (1.0 - 4.0 * _Q_UNIT) * (1.0 + 1e-12)
    b = (math.pi / 2.0) * 4.0 * e / math.expm1(-_TWO_PI * f) ** 2 / (1.0 - 32.0 * _Q_UNIT)
    return _Moments(
        m=moment_m,
        l=tuple(v / (j + 1) for j, v in enumerate(moment_l4)),
        m_d=moment_m[::2],
        m_prime=tuple((j + 1) * v for j, v in enumerate(moment_m)),
        l_prime=moment_l4,
        rel=rel,
        a=a,
        b=b * (1.0 + 1e-12),
    )


def _moment_series(
    coeffs: tuple[float, ...], first: float, step: float, ratio: float, share: float
) -> tuple[float, float, int]:
    """(value, remainder bound, terms summed) of sum_j coeffs[j] first step^j,
    whose terms are nonnegative and each at most ratio < 1 times the one
    before. It stops before the first term t with t/(1 - ratio) <= share,
    which bounds the rest; past the table the last term summed times
    ratio/(1 - ratio) does. The 1e-12 covers the rounding of the bound."""
    total = 0.0
    t = 0.0
    for n, c in enumerate(coeffs):
        t = c * first
        if t <= share * (1.0 - ratio):
            return total, t / (1.0 - ratio) * (1.0 + 1e-12), n
        total += t
        first *= step
    return total, t * ratio / (1.0 - ratio) * (1.0 + 1e-12), len(coeffs)


def _lift(x: float, order: int) -> tuple[int, float, float]:
    """(shift, y, bound): shift is the smallest whole number >= 0 with
    y = fl(x + shift) >= _Y_MOMENT, and bound >= the change that the rounding
    d = (x + shift) - y makes in psi(y+1) (order 1) or in psi'(y+1)
    (order 2). TwoSum recovers d exactly, and psi'(t+1) < 1/t and
    |psi''(t+1)| < 1/t^2 for t > 0, so |d|/(y - 1)^order bounds the change.
    """
    if x >= _Y_MOMENT:
        return 0, x, 0.0
    shift = math.ceil(_Y_MOMENT - x)
    if x + shift < _Y_MOMENT:
        shift += 1
    y = x + shift
    z = y - x
    d = (x - (y - z)) + (shift - z)
    return shift, y, abs(d) / (y - 1.0) ** order


def _psi_less_log(y: float, k: int, tol: float) -> tuple[list[float], float]:
    """psi(y+1) - log y at y >= 16 from the moment form over K = k <= _K_CAP
    outer terms, as (pieces, bound). With u = 1/y^2:

      psi(y+1) = log y + 1/(2y) - u/(4 pi) - 2u sum_j M_{2j+1} u^j
                 + (pi/2) sum_{j>=1} (L_{4j}/j) u^{2j} + (dropped terms),

    with the moments of _moments(k). log y is exact: the representation's
    (pi/3) log y and the -2 pi log y csch^2(pi k) of every k's log term sum
    to log y by sum_k csch^2(pi k) = 1/6 - 1/(2 pi); what is left of each log
    term is -(pi/2) log(1 - (k/y)^4) csch^2(pi k). For k <= K < y/2 this and
    the k-sum term 2k/((e^{2 pi k} - 1)(k^2 - y^2)) expand in u, so each
    j-series stops at its own closed remainder (_moment_series) within tol/4.

    The bound charges those remainders; the k > K terms up to y - 1 in
    closed form (_moments' a and b); S(y), the trigonometric pieces and every
    index from floor(y) on as the constant _PSI_FAR; and the rounding of
    each j-series, its moments' rel plus (3n + 2) eps for its n terms and
    the powers of u (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1 and 5.1). The caller's _close adds 4 eps of every piece."""
    mom = _moments(k)
    moment_m, moment_l, rel, a, b = mom.m, mom.l, mom.rel, mom.a, mom.b
    u = 1.0 / (y * y)
    r = k * k * u
    share = tol / 4.0
    k_sum, k_rem, n_k = _moment_series(moment_m, 2.0 * u, u, r, share)
    log_sum, log_rem, n_log = _moment_series(moment_l, (math.pi / 2.0) * u * u, u * u, r * r, share)
    f = k + 1.0
    s = (f * f * u) ** 2
    tails = a / ((y - f) * (y + f)) + b * s / (1.0 - s)
    rounding = ((3 * n_k + 2) * _EPS + rel) * k_sum + ((3 * n_log + 2) * _EPS + rel) * log_sum
    pieces = [0.5 / y, -u / (4.0 * math.pi), -k_sum, log_sum]
    return pieces, k_rem + log_rem + tails + _PSI_FAR + rounding


def psi_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """psi(x+1) from the moment form of the representation at y >= 16
    (_psi_less_log) over K = min(k_terms, 7) outer terms, lowered by the
    recurrence psi(x+1) = psi(y+1) - sum_{i=1..shift} 1/(x+i), shift the
    smallest with fl(x + shift) >= 16. The estimate adds the rounding of
    x + shift (_lift) to _psi_less_log's bound, and _close's 4 eps
    sum|piece| covers the harmonic terms. k_used is K and n_used 0: no
    inner sum runs.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    k = min(params.k_terms, _K_CAP)
    shift, y, lift_err = _lift(x, 1)
    pieces, bound = _psi_less_log(y, k, params.tol)
    pieces.append(math.log(y))
    pieces.extend([-1.0 / (x + i) for i in range(1, shift + 1)])
    return _close(pieces, bound + lift_err, k, 0)


def _check_gamma_m(m: int) -> None:
    """Raise ValueError unless gamma_at_integer accepts m."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_GAMMA_M:
        raise ValueError(f"m must be at most {MAX_GAMMA_M}")


def gamma_at_integer(m: int, params: EvalParams) -> SeriesValue:
    """Euler's constant from the integer specialization gamma = H_n - psi(n+1),
    which holds at every n, taken at n = max(m, 16): H_n - log n less
    psi(n+1) - log n from psi's moment form (_psi_less_log) over
    K = min(k_terms, 7) outer terms. n is exact, so there is no lift rounding,
    and no double series, guard pair or tail pass runs. The estimate is
    _psi_less_log's bound plus _close's 4 eps of every piece, which covers the
    rounding of H_n and log n. k_used is K and n_used 0."""
    _check_gamma_m(m)
    n = max(m, int(_Y_MOMENT))
    k = min(params.k_terms, _K_CAP)
    pieces, bound = _psi_less_log(float(n), k, params.tol)
    pieces = [math.fsum(1.0 / j for j in range(1, n + 1)), -math.log(n)] + [-p for p in pieces]
    return _close(pieces, bound, k, 0)


def _d_moment(y: float, k: int, tol: float) -> tuple[list[float], float]:
    """D(y) = Re psi(1+iy) - psi(y+1) (re_psi_complex_ramanujan) at y >= 16
    over K = k <= _K_CAP outer terms, as (pieces, bound). For k <= K the
    k-sum terms expand as -4k q_k u/(1 - (k/y)^4) with u = 1/y^2, so

      D(y) = -1/(2y) + 1/(2 pi y^2) + 4u sum_j M_{4j+1} u^{2j} + (dropped terms),

    over the even entries of psi's M table; the u coefficient 1/(2 pi) + 4 M_1
    is 1/6 up to the k > K tail of M_1 (criterion 3's Lambert sum).

    The bound charges the j-series' closed remainder within tol/4; its k > K
    terms up to y - 1, each at most twice the k-sum term 2k q_k/(y^2 - k^2)
    since 2y^2/(y^2 + k^2) <= 2, so 2a/((y - F)(y + F)) with _moments' a;
    the cot piece and the indices from floor(y) on as _D_FAR; and the series'
    rounding as in _psi_less_log."""
    mom = _moments(k)
    u = 1.0 / (y * y)
    r = k * k * u
    d_sum, d_rem, n = _moment_series(mom.m_d, 4.0 * u, u * u, r * r, tol / 4.0)
    f = k + 1.0
    tail = 2.0 * mom.a / ((y - f) * (y + f))
    rounding = ((3 * n + 2) * _EPS + mom.rel) * d_sum
    return [-0.5 / y, u / _TWO_PI, d_sum], d_rem + tail + _D_FAR + rounding


# D's pole block is summed as a power series below this x, where its pieces
# would cancel like x^-2
_D_SERIES_END = 0.25


def _d_pole_block(x: float) -> tuple[list[float], float]:
    """h(x) = 1/(2 pi x^2) - 1/(2x) - pi cot(pi x) q(x) for 0 < x < 1/4, as
    (pieces, bound), without the x^-2 cancellation. With
    A = sum_n zeta(2n) x^{2n-1} and B = sum_n (-1)^{n+1} zeta(2n) x^{2n-1},
    pi cot(pi x) = 1/x - 2A and q(x) = 1/(2 pi x) - 1/2 + B/pi (the Bernoulli
    series of 1/(e^t - 1) at t = 2 pi x), so

      h = (A - B)/(pi x) - A + 2AB/pi,   A - B = 2 A_even,

    with A_even the even-n part of A. The sums stop at the first n with
    x^{2n-2} <= 1e-19; the rest of each is at most T = zeta(2n) x^{2n-1}/(1 - x^2),
    which moves h by at most T (1/x + 2), as |A| + |B| < 0.9. Each piece
    carries at most 8 eps of rounding beyond _close's 4 eps (zeta(2n) is a
    few eps off, and 2AB/pi compounds two sums)."""
    odd = even = 0.0
    p = x
    x2 = x * x
    n = 1
    while True:
        t = _ZETA_EVEN[n] * p
        if n % 2:
            odd += t
        else:
            even += t
        n += 1
        p *= x2
        if p <= 1e-19 * x:
            break
    a, b = odd + even, odd - even
    pieces = [2.0 * even / (math.pi * x), -a, 2.0 * a * b / math.pi]
    tail = _ZETA_EVEN[n] * p / (1.0 - x2) * (1.0 / x + 2.0)
    return pieces, tail + 8.0 * _EPS * math.fsum(map(abs, pieces))


def _d_at(x: float, K: int, guard_delta: float) -> tuple[list[float], float]:
    """D(x) at 0 < x < 16 outside the guard bands, summed at x itself over
    K outer terms, as (pieces, bound). The k > K terms are each at most
    twice the k-sum term 2k q_k/(k^2 - x^2), because
    4k x^2/(k^4 - x^4) = 2k/(k^2 - x^2) * 2x^2/(k^2 + x^2), so twice
    planner.bound_psi_k_sum bounds their tail. The rounding
    charge goes beyond _close's 4 eps where a weight amplifies the rounding
    of its exponent: q(t) moves by (1 + t) times the relative error of t
    (_summand_rounding), and pi cot(pi d) by up to 2 eps absolute near
    |d| = 1/2."""
    if x < _D_SERIES_END:
        pieces, bound = _d_pole_block(x)
        rounding = 0.0
    else:
        t = _TWO_PI * x
        q = _inv_expm1(t)
        cot_q = math.pi * _cotpi(x) * q
        pieces = [1.0 / (t * x), -0.5 / x, -cot_q]
        bound = 0.0
        rounding = (12.0 + 2.0 * t) * abs(cot_q) + 8.0 * q
    for k, q, _ in _PI_WEIGHTS[:K]:
        term = 4.0 * k * x * x * q / ((k - x) * (k + x) * (k * k + x * x))
        pieces.append(-term)
        rounding += (10.0 + _TWO_PI * k) * abs(term)
    tail = 2.0 * planner.bound_psi_k_sum(K + 1, x, guard_delta)
    return pieces, bound + tail + rounding * _EPS


def gamma_any_x(x: float, params: EvalParams) -> SeriesValue:
    """Euler's constant from the all-arguments identity
    gamma = P(y) - Re psi(1+iy) = P(y) - psi(y+1) - D(y), with
    P(y) = sum_n y^2/(n(n^2+y^2)), at y = x lifted to y >= 16 by a whole
    shift. The value is constant in the argument, so the lift is free of
    charge and no x is refused: a y within guard_delta of an integer is
    replaced by 16.5, at least guard_delta/2 from every integer, the gap
    _D_FAR assumes. plan's count never falls as x grows, so 16.5 gets at
    least the terms it needs.

    Every piece is summed from psi's moment core: P(y) - log y from
    _pf_body and -log M + (1/2) log1p((M/y)^2), psi(y+1) - log y from
    _psi_less_log and D(y) from _d_moment, so log y cancels exactly and no
    double series, guard pair or tail pass runs. k_used is K and n_used 0.
    The estimate is their bounds and _PF_REMAINDER, plus _close's 4 eps of
    every piece, which covers the rounding of P's terms."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    y = _lift(x, 1)[1]
    if _guard_index(y, params.guard_delta):
        y = _Y_MOMENT + 0.5
    k = min(params.k_terms, _K_CAP)
    psi_pieces, psi_bound = _psi_less_log(y, k, params.tol)
    d_pieces, d_bound = _d_moment(y, k, params.tol)
    r = _PF_M / y
    pieces = [_pf_body(y), 0.5 * math.log1p(r * r), -_LOG_PF_M]
    pieces.extend([-p for p in psi_pieces + d_pieces])
    return _close(pieces, psi_bound + d_bound + _PF_REMAINDER, k, 0)


def re_psi_complex_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """Re psi(1+ix) = psi(x+1) + D(x), with D evaluated at x itself over
    K = min(k_terms, 7) outer terms. The all-arguments identity

      Re psi(1+ix) = (pi/3) log x + 1/(4 pi x^2) + (pi/2) log|2 sin(pi x)| csch^2(pi x)
                     + sum_k 2k q_k/(k^2 + x^2) - (pi/2) sum_k log|k^4 - x^4| csch^2(pi k)
                     - S(x),

    with q_k = 1/(e^{2 pi k} - 1), and the representation of psi(x+1) share
    the double series S(x), the log|2 sin| csch^2 piece, the whole log csch^2
    k-family and (pi/3) log x term for term, so all of them cancel from

      D(x) = 1/(2 pi x^2) - 1/(2x) - pi cot(pi x) q(x)
             - sum_k 4k x^2 q_k/((k - x)(k + x)(k^2 + x^2)),

    by 1/(k^2 + x^2) - 1/(k^2 - x^2) = -2x^2/((k^2 - x^2)(k^2 + x^2)). D's
    poles at the integers cancel between the cot piece and the k = m term,
    and D is O(x) at 0.

    At x >= 16, psi(x+1) - log x (_psi_less_log) and D (_d_moment) come from
    the same moment table with no tail pass; below 16, psi_ramanujan lifts as
    it always does and D is one K-term loop (_d_at). x inside a guard band is
    rejected. k_used is K and n_used 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    m = _guard_index(x, params.guard_delta)
    if m:
        raise GuardBandError(
            f"x={x} is within guard_delta of {m}; use an argument outside the band",
            suggestion="shift x outside the guard band",
        )
    k = min(params.k_terms, _K_CAP)
    if x >= _Y_MOMENT:
        pieces, bound = _psi_less_log(x, k, params.tol)
        d_pieces, d_bound = _d_moment(x, k, params.tol)
        pieces += d_pieces
        pieces.append(math.log(x))
        return _close(pieces, bound + d_bound, k, 0)
    psi = psi_ramanujan(x, params)
    pieces, bound = _d_at(x, k, params.guard_delta)
    pieces.append(psi.value)
    return _close(pieces, bound + psi.error_estimate, k, 0)


# (1 - 4q)/(1 - 8q): turns _moments' a, whose k-sum terms shrink by 4q, into
# the bound for psi''s k-sum terms, which shrink by 8q
_PRIME_A = (1.0 - 4.0 * _Q_UNIT) / (1.0 - 8.0 * _Q_UNIT)


def psi_prime_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """psi'(x+1) from psi's moment form differentiated term by term at
    y = fl(x + shift) >= 16, over K = min(k_terms, 7) outer terms, lowered by
    psi'(x+1) = psi'(y+1) + sum_{i=1..shift} 1/(x+i)^2. With u = 1/y^2 and
    du/dy = -2u/y:

      psi'(y+1) = 1/y - 1/(2y^2) + u/(2 pi y) + (4u/y) sum_j (j+1) M_{2j+1} u^j
                  - (2 pi/y) sum_{j>=1} L_{4j} u^{2j} + (dropped terms).

    The derivative representation's pi/(3y) and -(2 pi/y) csch^2(pi k) of
    every k sum to 1/y as in psi; its k-sum terms 4ky q_k/(k^2 - y^2)^2 and
    csch^2 terms 2 pi y^3 csch^2(pi k)/(k^4 - y^4) expand in u for k <= K.
    The u/y^3 coefficient 1/(2 pi) + 4 M_1 is 1/6 up to the k > K tail.

    The estimate charges each j-series' closed remainder within tol/4; the
    k > K terms up to y - 1: the k-sum's shrink by 8q, so they sum to at most
    _PRIME_A a 2y/((y - F)(y + F))^2, and the csch^2 family's are
    (4/y) (pi/2) c_k s_k/(1 - s_k), so (4/y) b s/(1 - s); the csc^2 piece
    and every index from floor(y) on as _PRIME_FAR; the rounding of x + shift
    (_lift) and of each series, as in _psi_less_log with two more eps for /y
    and the weights (j+1). The csc^2 pole at integer x is genuine in
    individual terms, so the guard band is rejected rather than regularized;
    so is 0 < x < guard_delta, which the shift carries into the band
    around 16.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    m = _guard_index(x, params.guard_delta)
    if m or x < params.guard_delta:
        raise GuardBandError(
            f"x={x} is within guard_delta of {m}; the csc^2 pairing is singular "
            f"there, evaluate outside the band",
            suggestion="shift x outside the guard band",
        )
    k = min(params.k_terms, _K_CAP)
    shift, y, lift_err = _lift(x, 2)
    mom = _moments(k)
    u = 1.0 / (y * y)
    r = k * k * u
    share = params.tol / 4.0
    # (j+2)/(j+1) <= 2 on top of K^2 u per term
    k_sum, k_rem, n_k = _moment_series(mom.m_prime, 4.0 * u / y, u, 2.0 * r, share)
    c_sum, c_rem, n_c = _moment_series(mom.l_prime, _TWO_PI * u * u / y, u * u, r * r, share)
    f = k + 1.0
    g = (y - f) * (y + f)
    s = (f * f * u) ** 2
    tails = _PRIME_A * mom.a * 2.0 * y / (g * g) + 4.0 / y * mom.b * s / (1.0 - s)
    rounding = ((3 * n_k + 4) * _EPS + mom.rel) * k_sum + ((3 * n_c + 4) * _EPS + mom.rel) * c_sum
    pieces = [1.0 / y, -0.5 * u, u / (_TWO_PI * y), k_sum, -c_sum]
    pieces.extend([1.0 / ((x + i) * (x + i)) for i in range(1, shift + 1)])
    bound = k_rem + c_rem + tails + _PRIME_FAR + lift_err + rounding
    return _close(pieces, bound, k, 0)


# ---------------------------------------------------------------------------
# Lambert-type sums and zeta corollaries


def _zeta_odd_products(N: int, table: BernoulliTable) -> list[Fraction]:
    """The N+2 exact products B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!, j = 0..N+1,
    from one list of the B_{2i}/(2i)!."""
    over_factorial = [bernoulli_over_factorial(table, 2 * j) for j in range(N + 2)]
    return [over_factorial[j] * over_factorial[N + 1 - j] for j in range(N + 2)]


def _zeta_odd_j_sum(
    N: int, table: BernoulliTable, products: list[Fraction] | None = None
) -> Fraction:
    """sum_{j=0}^{N+1} (-1)^{j+1} (2j-1) B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!,
    in exact rational arithmetic (the alternating sum cancels badly in
    floating point once N grows), from _zeta_odd_products(N, table) unless
    the caller has them."""
    if products is None:
        products = _zeta_odd_products(N, table)
    return sum(((2 * j - 1) if j % 2 else (1 - 2 * j)) * p for j, p in enumerate(products))


def _zeta_odd_coefficients(N: int, table: BernoulliTable) -> tuple[float, tuple[float, ...]]:
    """(J, ratios) for zeta(2N+1): J = _zeta_odd_j_sum(N, table) and the N+2
    ratios B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!, both from one list of the
    exact products, each rounded once. They depend on N and the table alone,
    so the first call for an N computes them and stores them in
    table.derived[N] for later calls."""
    coefficients = table.derived.get(N)
    if coefficients is None:
        products = _zeta_odd_products(N, table)
        j_sum = _zeta_odd_j_sum(N, table, products)
        coefficients = table.derived[N] = (float(j_sum), tuple(map(float, products)))
    return coefficients


def _summand_rounding(t: float, scale_err: float) -> float:
    """First-order relative rounding bound (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1) of one summand k^p/sinh^2(t) or k^p/(e^{2t}-1)
    with t = fl(scale k), including its share of the final fsum: t is off by
    eps/2 + scale_err, which either function amplifies by at most 2(1+t);
    1 - e^{-2t} loses eps/(e^{2t}-1) <= eps/(2t) to the rounding of the
    exponential, twice over where it is squared; the exponential, k^p and each
    remaining operation add at most 6 eps."""
    return (6.0 + 2.0 * t + 1.0 / t) * _EPS + 2.0 * (1.0 + t) * scale_err


def _power_csch2_sum(
    power: int, scale: float, k_terms: int, scale_err: float = 0.0
) -> tuple[float, float, float, int]:
    """(value, tail bound, rounding bound, last k before underflow) for
    sum_k k^power/sinh^2(scale k) over k <= k_terms, power <= 0; scale_err
    bounds scale's relative error. Each weight is _csch2(scale k), formed as
    it forms it; it underflows to 0 past scale k = 350, where the loop
    stops."""
    pieces = []
    rounding = 0.0
    for k in range(1, k_terms + 1):
        t = scale * k
        if t > 350.0:
            break
        piece = float(k) ** power * (4.0 * math.exp(-2.0 * t) / math.expm1(-2.0 * t) ** 2)
        pieces.append(piece)
        rounding += piece * _summand_rounding(t, scale_err)
    tail = planner.bound_csch2(k_terms + 1, power, scale)
    return math.fsum(pieces), tail, rounding, len(pieces)


def _power_lambert_csch2_sum(
    power: int, scale: float, k_terms: int
) -> tuple[tuple[float, float, float, int], tuple[float, float, float, int]]:
    """(identities._power_lambert_sum(power - 1, scale, k_terms),
    _power_csch2_sum(power, scale, k_terms)) for power <= 0, bit for bit, from
    one exp/expm1 pair per k: with t = scale k, e = e^{-2t} and
    d = expm1(-2t), 1/(e^{2t} - 1) = e/(-d) and csch^2(t) = 4e/d^2, which are
    _inv_expm1(2t) and _csch2(t) as they form them. Both weights underflow
    to 0 past t = 350, where the loop stops, so both halves have the same
    last k."""
    lam = []
    csch = []
    lam_rnd = csch_rnd = 0.0
    for k in range(1, k_terms + 1):
        t = scale * k
        if t > 350.0:
            break
        e = math.exp(-2.0 * t)
        d = math.expm1(-2.0 * t)
        lam_piece = float(k) ** (power - 1) * (e / -d)
        csch_piece = float(k) ** power * (4.0 * e / d**2)
        lam.append(lam_piece)
        csch.append(csch_piece)
        rnd = _summand_rounding(t, 0.0)
        lam_rnd += lam_piece * rnd
        csch_rnd += csch_piece * rnd
    k_used = len(lam)
    lam_tail = planner.bound_lambert(power - 1, k_terms + 1, scale)
    csch_tail = planner.bound_csch2(k_terms + 1, power, scale)
    return (
        (math.fsum(lam), lam_tail, lam_rnd, k_used),
        (math.fsum(csch), csch_tail, csch_rnd, k_used),
    )


def zeta_odd(N: int, table: BernoulliTable, params: EvalParams) -> SeriesValue:
    """zeta(2N+1) solved from the even-index Bernoulli convolution identity:
    2N zeta(2N+1) = (2 pi)^{2N+1} J - 4N sum_k k^{-2N-1}/(e^{2 pi k}-1)
    - (1+(-1)^N) pi sum_k k^{-2N}/sinh^2(pi k), with J the exact-rational
    j-sum rounded to floating point once. The table's values stay exact; J's
    float is memoized on the table per N, so later calls skip the rationals.
    The k-sums run over k <= k_terms and read their weights from _PI_WEIGHTS,
    which ends where both underflow, so k_used is min(k_terms, 111); the
    tails are charged from k_terms + 1."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if table.max_index < 2 * N + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N + 2}")
    j_part = (_TWO_PI) ** (2 * N + 1) * _zeta_odd_coefficients(N, table)[0]
    weights = _PI_WEIGHTS[: params.k_terms]
    # the k-sums' own rounding, below 0.3 eps once divided by 2N, is inside
    # the final 4 eps
    power = -2 * N - 1
    lam = math.fsum(float(k) ** power * q for k, q, _ in weights)
    lam_tail = planner.bound_lambert(power, params.k_terms + 1)
    value = j_part - 4.0 * N * lam
    # fl(2 pi) carries a relative error of at most eps/2 into each of the
    # 2N+1 factors of the power and pow adds an ulp of its own (Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1): (2N+2) eps covers both, and
    # 2 eps the conversion of J and the product
    err = 4.0 * N * lam_tail + (2.0 * N + 4.0) * _EPS * abs(j_part)
    if N % 2 == 0:
        hyp = math.fsum(float(k) ** (-2 * N) * c for k, _, c in weights)
        value -= 2.0 * math.pi * hyp
        err += 2.0 * math.pi * planner.bound_csch2(params.k_terms + 1, -2 * N)
    return SeriesValue(value / (2.0 * N), err / (2.0 * N) + 4.0 * _EPS, len(weights), 0)


def zeta_odd_general(
    N: int, pair: ModularPair, table: BernoulliTable, params: EvalParams
) -> SeriesValue:
    """zeta(2N+1) solved from the two-parameter modular identity
    2N a^{-N}(zeta(2N+1) + 2 L_a) + a^{1-N} S_a - (-b)^{1-N} S_b = RHS,
    where L_a is the a-scaled Lambert sum, S_a/S_b the scaled csch^2 sums,
    a b = pi^2, and RHS = 2^{2N+1} sum_j (-1)^{j+1}(2j-1) a^{N+1-j} b^j
    times the B-ratios. Each ratio is formed exactly from the table's exact,
    immutable values and rounded once; the floats are memoized on the table
    per N. The parameter powers are in floating point. Each scale s sums
    2 + ceil(log(400/tol)/(2 s)) terms; params.k_terms is not read."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if table.max_index < 2 * N + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N + 2}")
    a, b = pair.alpha, pair.beta
    # the hyperbolic series here decay like e^{-2 a k} and e^{-2 b k}, not
    # e^{-2 pi k}, so each scale sums to its own count, which holds its tail
    # near tol/400, and k_terms plays no part (at least 2 terms, which a tol
    # above 400 would otherwise undercut). The cap is checked on the slower
    # scale before the ceilings, which fail once 2 min(a,b) underflows.
    log_share = math.log(400.0 / params.tol)
    span_a, span_b = log_share / (2.0 * a), log_share / (2.0 * b)
    if not max(span_a, span_b) <= MAX_K_TERMS - 2:
        raise ToleranceError(
            f"alpha={a} needs more than {MAX_K_TERMS} hyperbolic terms "
            f"for tol={params.tol}"
        )
    k_a = 2 + max(0, math.ceil(span_a))
    k_b = 2 + max(0, math.ceil(span_b))
    # b stands for pi^2/a; this covers the roundings of pi^2 and of the
    # quotient, and a pair given off the curve within ModularPair's check
    pi2 = math.pi * math.pi
    b_err = abs(a * b - pi2) / pi2 + 2.0 * _EPS
    rhs_terms = []
    for j, ratio in enumerate(_zeta_odd_coefficients(N, table)[1]):
        sign = -1.0 if j % 2 == 0 else 1.0
        rhs_terms.append(sign * (2 * j - 1) * a ** (N + 1 - j) * b**j * ratio)
    rhs = 2.0 ** (2 * N + 1) * math.fsum(rhs_terms)
    lam_sum, csch_sum = _power_lambert_csch2_sum(-2 * N, a, k_a)
    lam_a, lam_a_tail, lam_a_rnd, k_used_a = lam_sum
    s_a, s_a_tail, s_a_rnd, _ = csch_sum
    s_b, s_b_tail, s_b_rnd, k_used_b = _power_csch2_sum(-2 * N, b, k_b, b_err)
    sign_b = 1.0 if (1 - N) % 2 == 0 else -1.0
    pow_a, pow_b = a ** (1 - N), b ** (1 - N)
    lhs_a = pow_a * s_a
    lhs_b = sign_b * pow_b * s_b
    diff = rhs - (lhs_a - lhs_b)
    value = diff * a**N / (2.0 * N) - 2.0 * lam_a
    # first-order rounding (Higham 3.1), before the scaling by a^N/(2N): each
    # rhs term an ulp from each power, j b_err through b^j and eps/2 from the
    # ratio, each product and the fsum; each csch^2 sum its own rounding, an
    # ulp from its power ((N-1) b_err more for b's) and eps/2 from the
    # product; the two differences eps/2 of what they touch. The scaling and
    # the final subtraction are in the 4 eps (|value| + 2 L_a) term.
    rounding = (
        2.0 ** (2 * N + 1)
        * math.fsum(abs(t) * (5.0 * _EPS + j * b_err) for j, t in enumerate(rhs_terms))
        + pow_a * (s_a_rnd + 2.0 * _EPS * s_a)
        + pow_b * (s_b_rnd + ((N - 1) * b_err + 2.0 * _EPS) * s_b)
        + _EPS * (abs(lhs_a) + abs(lhs_b) + abs(diff))
    )
    tails = pow_a * s_a_tail + pow_b * s_b_tail
    err = (tails + rounding) * a**N / (2.0 * N) + 2.0 * (lam_a_tail + lam_a_rnd)
    return SeriesValue(
        value, err + 4.0 * _EPS * (abs(value) + 2.0 * lam_a + 1.0), max(k_used_a, k_used_b), 0
    )

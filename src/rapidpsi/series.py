"""Hyperbolic-series evaluators for psi(x+1) and its corollaries.

One rapidly convergent representation drives everything here: a logarithmic
leading part, two trigonometric-over-hyperbolic terms, two exponentially
convergent k-sums, and an exponentially weighted double series S(x). The
corollaries (Euler's constant at and away from integers, odd zeta values,
trigamma, Lambert-type sums) are rearrangements of the same machinery.

Numerical strategy notes:
- psi_ramanujan sums the representation only in its moment form, at an
  argument lifted to y >= max(16, 2K + 2) for K outer terms: the identity
  sum_k csch^2(pi k) = 1/6 - 1/(2 pi) makes log y exact, and the K-term
  k-sums expand in 1/y^2 with x-independent moments tabulated once per K.
  What it does not sum there (S(y), the trigonometric terms and every index
  near or past y) carries e^{-2 pi (y-1)} and is charged as one constant;
- every trig argument is reduced to the signed distance from the nearest
  integer before multiplying by pi, so the k-series stay accurate for large x;
- inside |x - m| < guard_delta the two singular pairings (the cot pole
  against the k=m pole term, and the log|2 sin| singularity against the k=m
  log term) are evaluated from pole-cancelled closed forms that are exact,
  never from a truncated local expansion;
- the inner sine/cosine sums of S(x) are split against the closed forms
  sum sin(n t)/n^2 and sum (1-cos(n t))/n^3, leaving remainders whose terms
  decay like n^-4 and n^-5, so double precision targets need ~10^4 terms
  instead of ~10^11; numpy, which sums them, is imported on first use;
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
from .params import MAX_GAMMA_M, MAX_K_TERMS, EvalParams, ModularPair, SeriesValue
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


def _sinpi(x: float) -> float:
    m = round(x)
    s = math.sin(math.pi * (x - m))
    return s if m % 2 == 0 else -s


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


# the partial-fraction sum adds n = 1.._PF_CUT directly
_PF_CUT = 2048


@lru_cache(maxsize=1)
def _pf_grid():
    """The n = 1.._PF_CUT of the partial-fraction sum and their n^2, built on
    first use so that importing this module does not load numpy."""
    import numpy as np

    n = np.arange(1.0, _PF_CUT + 1.0)
    return n, n * n


def _partial_fraction_gamma_sum(x: float) -> tuple[float, float]:
    """(value, error) for sum_{n>=1} x^2/(n(n^2+x^2)), by direct summation
    plus an Euler-Maclaurin tail whose integral term is log-exact. Works for
    any x > 0; the remainder heuristic is far below double rounding."""
    import numpy as np

    n, n2 = _pf_grid()
    partial = float(np.sum(x * x / (n * (n2 + x * x))))
    big_m = _PF_CUT + 1.0
    z = complex(big_m, -x)
    integral = 0.5 * math.log1p((x / big_m) ** 2)
    f0 = 1.0 / big_m - (1.0 / z).real
    f1 = -(1.0 / big_m**2 - (z**-2).real)
    f3 = -6.0 * (1.0 / big_m**4 - (z**-4).real)
    value = partial + integral + f0 / 2.0 - f1 / 12.0 + f3 / 720.0
    return value, 0.01 * big_m**-6 + 4.0 * _EPS * (abs(partial) + 1.0)


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


def _lift(x: float, shift: int) -> tuple[float, float]:
    """(y, bound) with y = fl(x + shift) and bound >= |psi(y+1) - psi(x+shift+1)|.

    TwoSum recovers the rounding d = (x + shift) - y exactly, and
    psi'(t+1) < 1/t <= 1 for t >= 1, so |d| bounds the change in psi; for
    psi' at y >= 3, |psi''(t+1)| < 1 makes it a bound there too. With shift 0
    this returns (x, 0.0).
    """
    y = x + shift
    z = y - x
    d = (x - (y - z)) + (shift - z)
    return y, abs(d)


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


# psi sums its moment form at y >= max(_PSI_Y_FLOOR, 2K + 2) for K outer
# terms: every summed k then has k/y < 1/2, and every index from floor(y) on
# carries e^{-2 pi (y-1)} <= e^{-30 pi}
_PSI_Y_FLOOR = 16.0
# moments tabulated per K: M_{2j+1} and L_{4j}/j for j < _J_CAP. At y >= 16
# the k = 1, 2, 3 parts of the terms fall at least 256x, 64x and 28x per term
# and the rest start below 1e-16, so at every admissible tol both j-series
# stop within six terms (at most 5 and 2 over x in 1e-12..1e12, K <= 111);
# past the table _moment_series charges a closed bound instead
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


_PSI_FAR = _far_bound(_PSI_Y_FLOOR)


@lru_cache(maxsize=None)  # one entry per K <= len(_PI_WEIGHTS)
def _moments(K: int) -> tuple[tuple[float, ...], tuple[float, ...], float, float, float]:
    """(M, L, rel, a, b) for psi's k-sums cut at K <= 111, from _PI_WEIGHTS:
    M[j] = M_{2j+1} = sum_{k<=K} k^{2j+1}/(e^{2 pi k} - 1) and
    L[j] = L_{4j+4}/(j+1) with L_p = sum_{k<=K} k^p csch^2(pi k), for
    j < _J_CAP. k^p stays below 1e82, so nothing overflows. Each moment is
    within rel of its exact value: the largest _summand_rounding of its
    positive terms, (6 + 2 pi k + 1/(pi k)) eps at t = pi k.

    a and b give the closed tails from F = K + 1 up to y - 1 (psi_ramanujan):
    the k-sum's is a/((y - F)(y + F)) and the log family's b s/(1 - s) with
    s = (F/y)^4. Up to k <= y - 1, (y - k)/(y - k - 1) <= 2 makes each
    k-sum term at most 4q times the one before, q = e^{-2 pi}, and each
    csch^2(pi k) s_k/(1 - s_k) >= |log(1 - s_k)| csch^2(pi k) at most
    ((k+1)/k)^4 2 q <= 32 q times the one before."""
    weights = _PI_WEIGHTS[:K]
    moment_m = tuple(
        math.fsum(float(k) ** (2 * j + 1) * q for k, q, _ in weights) for j in range(_J_CAP)
    )
    moment_l = tuple(
        math.fsum(float(k) ** (4 * j + 4) * c for k, _, c in weights) / (j + 1)
        for j in range(_J_CAP)
    )
    rel = (7.0 + _TWO_PI * K) * _EPS
    # the weights at F straight from exp: past k = 111 _PI_WEIGHTS' helpers
    # flush them to 0, and e^{-2 pi 112} is still a normal double
    f = K + 1
    e = math.exp(-_TWO_PI * f)
    a = 2.0 * f * e / -math.expm1(-_TWO_PI * f) / (1.0 - 4.0 * _Q_UNIT) * (1.0 + 1e-12)
    b = (math.pi / 2.0) * 4.0 * e / math.expm1(-_TWO_PI * f) ** 2 / (1.0 - 32.0 * _Q_UNIT)
    return moment_m, moment_l, rel, a, b * (1.0 + 1e-12)


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


def psi_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """psi(x+1) from the moment form of the representation at y >= Y,
    Y = max(16, 2K + 2) with K = min(k_terms, 111), lowered by the recurrence
    psi(x+1) = psi(y+1) - sum_{i=1..shift} 1/(x+i), shift the smallest with
    fl(x + shift) >= Y. With u = 1/y^2:

      psi(y+1) = log y + 1/(2y) - u/(4 pi) - 2u sum_j M_{2j+1} u^j
                 + (pi/2) sum_{j>=1} (L_{4j}/j) u^{2j} + (dropped terms),

    with the moments of _moments(K). log y is exact: the representation's
    (pi/3) log y and the -2 pi log y csch^2(pi k) of every k's log term sum
    to log y by sum_k csch^2(pi k) = 1/6 - 1/(2 pi); what is left of each log
    term is -(pi/2) log(1 - (k/y)^4) csch^2(pi k). For k <= K < y/2 this and
    the k-sum term 2k/((e^{2 pi k} - 1)(k^2 - y^2)) expand in u, so each
    j-series stops at its own closed remainder (_moment_series) within tol/4.

    The estimate charges those remainders; the k > K terms up to y - 1 in
    closed form (_moments' a and b); S(y), the trigonometric pieces and every
    index from floor(y) on as the constant _PSI_FAR; the rounding of x + shift
    (_lift); and the rounding of each j-series, its moments' rel plus
    (3n + 2) eps for its n terms and the powers of u (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1 and 5.1), on top of _close's
    4 eps sum|piece|, which also covers the harmonic terms. k_used is K and
    n_used 0: no inner sum runs.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    k = min(params.k_terms, len(_PI_WEIGHTS))
    moment_m, moment_l, rel, a, b = _moments(k)
    target = max(_PSI_Y_FLOOR, 2.0 * k + 2.0)
    shift = math.ceil(target - x) if x < target else 0
    if x + shift < target:
        shift += 1
    y, lift_err = _lift(x, shift)
    u = 1.0 / (y * y)
    r = k * k * u
    share = params.tol / 4.0
    k_sum, k_rem, n_k = _moment_series(moment_m, 2.0 * u, u, r, share)
    log_sum, log_rem, n_log = _moment_series(moment_l, (math.pi / 2.0) * u * u, u * u, r * r, share)
    f = k + 1.0
    s = (f * f * u) ** 2
    tails = a / ((y - f) * (y + f)) + b * s / (1.0 - s)
    rounding = ((3 * n_k + 2) * _EPS + rel) * k_sum + ((3 * n_log + 2) * _EPS + rel) * log_sum
    pieces = [math.log(y), 0.5 / y, -u / (4.0 * math.pi), -k_sum, log_sum]
    pieces.extend([-1.0 / (x + i) for i in range(1, shift + 1)])
    bound = k_rem + log_rem + tails + _PSI_FAR + lift_err + rounding
    return _close(pieces, bound, k, 0)


def _check_gamma_m(m: int) -> None:
    """Raise ValueError unless gamma_at_integer accepts m."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_GAMMA_M:
        raise ValueError(f"m must be at most {MAX_GAMMA_M}")


def gamma_at_integer(m: int, params: EvalParams) -> SeriesValue:
    """Euler's constant from the integer specialization gamma = H_m - psi(m+1),
    with psi(m+1) summed at m itself: both guard pairs take their exact eps=0
    limits and the double series its closed inner form
    -2 pi sum_k k e^{-2 pi k m} (gamma + Re psi(1+ik))."""
    _check_gamma_m(m)
    harmonic = math.fsum(1.0 / j for j in range(1, m + 1))
    s = _double_series_at(float(m), params)
    pieces, tail, k_used = _psi_rest(float(m), params)
    pieces = [harmonic, s.value] + [-p for p in pieces]
    return _close(pieces, s.error_estimate + tail, max(k_used, s.k_used), s.n_used)


def _re_psi_rest(x: float, params: EvalParams) -> tuple[list[float], float, int]:
    """Re psi(1+ix) + S(x), the non-S part of the all-arguments identity
    -gamma = Re psi(1+ix) - sum_n x^2/(n(n^2+x^2)), as (pieces, k-sum tail
    bound, last k reached before the weights underflow), evaluated at x
    itself outside the guard bands."""
    pieces = [
        (math.pi / 3.0) * math.log(x),
        1.0 / (4.0 * math.pi * x * x),
        math.pi * _log_2sinpi_abs(x) * _csch2(math.pi * x) / 2.0,
    ]
    weights = _PI_WEIGHTS[: params.k_terms]
    for k, q, csch in weights:
        pieces.append(2.0 * k * q / (float(k) * k + x * x))
        pieces.append(-(math.pi / 2.0) * planner.log_abs_quartic_gap(float(k), x) * csch)
    # k^2 + x^2 >= max(|k-x|, guard_delta)(k+x) for k >= 1, so the k-sum
    # tail of k_sum_tails, which skips no index here, also bounds this one
    tail, log_tail = planner.k_sum_tails(params.k_terms + 1, x, params.guard_delta)
    return pieces, tail + log_tail, len(weights)


def gamma_any_x(x: float, params: EvalParams) -> SeriesValue:
    """Euler's constant from the all-arguments identity: the series
    representation of -gamma evaluated at x + planner.lift_shift(x), negated.
    Constant in the argument up to truncation, which the error estimate
    quantifies, so the shift changes only where the terms are summed (k_terms
    and n_terms refer to x + shift). x inside the guard band of a positive
    integer is rejected; a lifted argument that lands in a band only because
    x is near 0 moves on by 1/2 instead."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    m = _guard_index(x, params.guard_delta)
    if m:
        hint = f"gamma_at_integer(m={m})" if m <= MAX_GAMMA_M else "an x outside the band"
        raise GuardBandError(
            f"x={x} is within guard_delta of {m}; the log terms are singular "
            f"there, use {hint}",
            suggestion=hint,
            m=m,
        )
    # the value is constant in the argument, so these roundings are free
    x = x + planner.lift_shift(x)
    if _guard_index(x, params.guard_delta):
        x += 0.5
    s = _double_series_at(x, params)
    x_sum, x_sum_err = _partial_fraction_gamma_sum(x)
    pieces, tail, k_used = _re_psi_rest(x, params)
    pieces = [-p for p in pieces] + [x_sum, s.value]
    bound = s.error_estimate + x_sum_err + tail
    return _close(pieces, bound, max(k_used, s.k_used), s.n_used)


def re_psi_complex_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """Re psi(1+ix) by cancelling the partial-fraction sum between the
    all-arguments identity and the classical representation
    Re psi(1+ix) = -gamma + sum_n x^2/(n(n^2+x^2)). The identity is evaluated
    at x; only S(x) is lifted (see double_series_S)."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    m = _guard_index(x, params.guard_delta)
    if m:
        raise GuardBandError(
            f"x={x} is within guard_delta of {m}; use an argument outside the band",
            suggestion="shift x outside the guard band",
        )
    s = double_series_S(x, params)
    pieces, tail, k_used = _re_psi_rest(x, params)
    pieces.append(-s.value)
    return _close(pieces, s.error_estimate + tail, max(k_used, s.k_used), s.n_used)


def _trigamma_tail(first: int, y: float, guard_delta: float) -> float:
    """Tail from k = first of psi_prime_ramanujan's two k-sums, whose k-th
    terms have magnitude A_k/(e^{2 pi k}-1) + B_k csch^2(pi k) with
    A_k = 4ky/(k^2-y^2)^2 and B_k = 2 pi y^3/|k^4-y^4|, in the closed form of
    planner.k_sum_tails around y (planner._split_tail):

    - floor(y) and ceil(y) at their actual size, |k^2-y^2| floored at
      guard_delta (k+y);
    - below y, (y-k)/(y-k-1) <= 2 up to k = floor(y)-1 makes each term at
      most 8 e^{-2 pi} times the one before, so they sum to at most the first
      over 1 - 8 e^{-2 pi};
    - past y, A_k and B_k fall with k, so from h = max(first, ceil(y)+1)
      they are at most their values at h against bound_lambert(0, h) and
      bound_csch2(h).
    """

    def a_b(k: int, floor: float) -> tuple[float, float]:
        # in r = k/y, overflow-free at any y
        g = max(abs(k - y), floor)
        r = k / y
        return 4.0 * r / ((1.0 + r) ** 2 * g * g), _TWO_PI / ((1.0 + r) * (1.0 + r * r) * g)

    def term(k: int) -> float:
        a, b = a_b(k, guard_delta)
        return a * _inv_expm1(_TWO_PI * k) + b * _csch2(math.pi * k)

    near, below, h = planner._split_tail(first, y)
    total = sum(term(k) for k in near)
    if below:
        total += term(first) / (1.0 - 8.0 * _Q_UNIT)
    lam = planner.bound_lambert(0, h)
    if lam:
        a, b = a_b(h, 1.0)
        total += a * lam + b * planner.bound_csch2(h)
    return total * (1.0 + 1e-12)


def psi_prime_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """psi'(x+1) from the term-by-term derivative representation at
    y = x + shift, shift = planner.lift_shift(x), lowered by the recurrence
    psi'(x+1) = psi'(y+1) + sum_{i=1..shift} 1/(x+i)^2, whose terms join the
    summed pieces. The csc^2 pole at integer x is genuine in individual
    terms; the guard band is rejected rather than regularized. So is
    0 < x < guard_delta, which the shift carries into the band around 3."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    m = _guard_index(x, params.guard_delta)
    if m or x < params.guard_delta:
        raise GuardBandError(
            f"x={x} is within guard_delta of {m}; the csc^2 pairing is singular "
            f"there, evaluate outside the band",
            suggestion="shift x outside the guard band",
        )
    shift = planner.lift_shift(x)
    y, lift_err = _lift(x, shift)
    sp = _sinpi(y)
    pieces = [
        math.pi / (3.0 * y),
        -1.0 / (2.0 * y * y),
        1.0 / (_TWO_PI * y * y * y),
        -math.pi * math.pi / (sp * sp) * _inv_expm1(_TWO_PI * y),
    ]
    weights = _PI_WEIGHTS[: params.k_terms]
    for k, q, csch in weights:
        d = (k - y) * (k + y)
        pieces.append(4.0 * k * y * q / (d * d))
        # 2 pi y^3 / (sinh^2(pi k)(k^4 - y^4)) in overflow-free ratio form
        if k > y:
            r = y / k
            pieces.append(_TWO_PI * csch * r**3 / (k * (1.0 - r**4)))
        else:
            r = k / y
            pieces.append(-_TWO_PI * csch / (y * (1.0 - r**4)))
    pieces.extend(1.0 / (x + i) ** 2 for i in range(1, shift + 1))
    bound = _trigamma_tail(params.k_terms + 1, y, params.guard_delta) + lift_err
    return _close(pieces, bound, len(weights), 0)


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
    bounds scale's relative error."""
    pieces = []
    rounding = 0.0
    for k in range(1, k_terms + 1):
        t = scale * k
        c = _csch2(t)
        if c == 0.0:
            break
        pieces.append(float(k) ** power * c)
        rounding += pieces[-1] * _summand_rounding(t, scale_err)
    tail = planner.bound_csch2(k_terms + 1, power, scale)
    return math.fsum(pieces), tail, rounding, len(pieces)


def _power_lambert_sum(
    power: int, scale: float, k_terms: int
) -> tuple[float, float, float, int]:
    """(value, tail bound, rounding bound, last k before underflow) for
    sum_k k^power/(e^{2 scale k}-1) over k <= k_terms."""
    pieces = []
    rounding = 0.0
    for k in range(1, k_terms + 1):
        q = _inv_expm1(2.0 * scale * k)
        if q == 0.0:
            break
        pieces.append(float(k) ** power * q)
        rounding += pieces[-1] * _summand_rounding(scale * k, 0.0)
    tail = planner.bound_lambert(power, k_terms + 1, scale)
    return math.fsum(pieces), tail, rounding, len(pieces)


def zeta_odd(N: int, table: BernoulliTable, params: EvalParams) -> SeriesValue:
    """zeta(2N+1) solved from the even-index Bernoulli convolution identity:
    2N zeta(2N+1) = (2 pi)^{2N+1} J - 4N sum_k k^{-2N-1}/(e^{2 pi k}-1)
    - (1+(-1)^N) pi sum_k k^{-2N}/sinh^2(pi k), with J the exact-rational
    j-sum rounded to floating point once. The table's values stay exact; J's
    float is memoized on the table per N, so later calls skip the rationals."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if table.max_index < 2 * N + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N + 2}")
    j_part = (_TWO_PI) ** (2 * N + 1) * _zeta_odd_coefficients(N, table)[0]
    # the k-sums' own rounding, below 0.3 eps once divided by 2N, is inside
    # the final 4 eps
    lam, lam_tail, _, k_used = _power_lambert_sum(-2 * N - 1, math.pi, params.k_terms)
    value = j_part - 4.0 * N * lam
    # fl(2 pi) carries a relative error of at most eps/2 into each of the
    # 2N+1 factors of the power and pow adds an ulp of its own (Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1): (2N+2) eps covers both, and
    # 2 eps the conversion of J and the product
    err = 4.0 * N * lam_tail + (2.0 * N + 4.0) * _EPS * abs(j_part)
    if N % 2 == 0:
        hyp, hyp_tail, _, k_hyp = _power_csch2_sum(-2 * N, math.pi, params.k_terms)
        value -= 2.0 * math.pi * hyp
        err += 2.0 * math.pi * hyp_tail
        k_used = max(k_used, k_hyp)
    return SeriesValue(value / (2.0 * N), err / (2.0 * N) + 4.0 * _EPS, k_used, 0)


def zeta_odd_general(
    N: int, pair: ModularPair, table: BernoulliTable, params: EvalParams
) -> SeriesValue:
    """zeta(2N+1) solved from the two-parameter modular identity
    2N a^{-N}(zeta(2N+1) + 2 L_a) + a^{1-N} S_a - (-b)^{1-N} S_b = RHS,
    where L_a is the a-scaled Lambert sum, S_a/S_b the scaled csch^2 sums,
    a b = pi^2, and RHS = 2^{2N+1} sum_j (-1)^{j+1}(2j-1) a^{N+1-j} b^j
    times the B-ratios. Each ratio is formed exactly from the table's exact,
    immutable values and rounded once; the floats are memoized on the table
    per N. The parameter powers are in floating point."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if table.max_index < 2 * N + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N + 2}")
    a, b = pair.alpha, pair.beta
    # the hyperbolic series here decay like e^{-2 min(a,b) k}, not e^{-2 pi k},
    # so size the k-range from the slower scale; k_terms keeps its meaning for
    # the pi-scaled families and acts as a floor. The cap is checked before
    # the ceiling, which fails once 2 min(a,b) underflows.
    span = math.log(400.0 / params.tol) / (2.0 * min(a, b))
    if not span <= MAX_K_TERMS - 2:
        raise ToleranceError(
            f"alpha={a} needs more than {MAX_K_TERMS} hyperbolic terms "
            f"for tol={params.tol}"
        )
    k_eff = max(params.k_terms, 2 + math.ceil(span))
    # b stands for pi^2/a; this covers the roundings of pi^2 and of the
    # quotient, and a pair given off the curve within ModularPair's check
    pi2 = math.pi * math.pi
    b_err = abs(a * b - pi2) / pi2 + 2.0 * _EPS
    rhs_terms = []
    for j, ratio in enumerate(_zeta_odd_coefficients(N, table)[1]):
        sign = -1.0 if j % 2 == 0 else 1.0
        rhs_terms.append(sign * (2 * j - 1) * a ** (N + 1 - j) * b**j * ratio)
    rhs = 2.0 ** (2 * N + 1) * math.fsum(rhs_terms)
    lam_a, lam_a_tail, lam_a_rnd, k_lam = _power_lambert_sum(-2 * N - 1, a, k_eff)
    s_a, s_a_tail, s_a_rnd, k_a = _power_csch2_sum(-2 * N, a, k_eff)
    s_b, s_b_tail, s_b_rnd, k_b = _power_csch2_sum(-2 * N, b, k_eff, b_err)
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
        value, err + 4.0 * _EPS * (abs(value) + 2.0 * lam_a + 1.0), max(k_lam, k_a, k_b), 0
    )

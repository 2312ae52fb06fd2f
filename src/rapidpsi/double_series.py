"""The exponentially weighted double series S(x) of the representation,
2 pi sum_k e^{-2 pi k x} (k^2 A_k - k^3 C_k). No evaluator sums it (psi's
moment form charges S(y) at y >= 16 in one constant), so series.double_series_S
imports this module on its first call, and import rapidpsi, the CLI and the
other evaluators never load it. It alone sizes S from tol: the outer sum
stops at its own envelope and the inner sums at their share of tol, with
k_terms and n_terms as caps only. The inner sums, split against closed
Clausen-type forms, need ~10^4 terms instead of ~10^11, and numpy, which sums
them, is imported on first use: only S off the integers from x = 3 loads it,
while its outer sum keeps a term, up to x ~ 5.2 at tol 1e-12 and ~ 6.3 at
1e-15. Below 3 off the integers S is R(x) - psi(x+1) and loads none; R's
argument-reduced cot and pole-cancelled guard pair, which the identity
checks also read, and the zeta(2j) table of its expansions live here.
Below S_FLOOR = 7.9e-154 S is refused.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import planner
from .bernoulli import tangent_numbers
from .errors import ToleranceError
from .params import EvalParams, SeriesValue, series_value
from .planner import _EPS, _csch2, _guard_index, _inv_expm1
from .series import _PF_M, _PF_REMAINDER, _PI_WEIGHTS, _TWO_PI, _close, _pf_body, psi_ramanujan

MIN_N_TERMS = 16
# the smallest x at which S is summed (derived in double_series_S)
S_FLOOR = 7.9e-154
# S holds its truncation to tol/4: this share of tol for its outer envelope
# tail (outer_weights) and the same share for its inner remainders
# (_inner_lengths)
S_TAIL_SHARE = 1.0 / 8.0

# zeta at even arguments 2j for the coefficient expansions below, j up to 44,
# from the tangent numbers: zeta(2j) = 2^{2j-1} pi^{2j} |B_{2j}|/(2j)! with
# |B_{2j}| = 2j T_j/(4^j (4^j - 1)). The ratio is one int/int true division,
# which rounds once as series.zeta_even's conversion of the exact ratio does,
# so each value is zeta_even(j)'s bit for bit, and no rational is built
_TANGENT = tangent_numbers(44)
_ZETA_EVEN = (-0.5,) + tuple(
    2 * j * _TANGENT[j] / (4**j * (4**j - 1) * math.factorial(2 * j))
    * 2.0 ** (2 * j - 1)
    * math.pi ** (2 * j)
    for j in range(1, 45)
)


def _dist(x: float) -> float:
    """Signed distance to the nearest integer, in [-0.5, 0.5]."""
    return x - round(x)


def _cotpi(x: float) -> float:
    d = _dist(x)
    if abs(d) == 0.5:
        return 0.0
    return math.cos(math.pi * d) / math.sin(math.pi * d)


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


def outer_weights(x: float, k_terms: int, tol: float) -> tuple[list[float], float]:
    """(weights, tail): the weights e^{-2 pi k x} of the double series for
    k = 1..k_terms, ending before the first one that underflows
    (2 pi k x >= 745) or whose outer tail bound_exp_envelope(k, x) is at most
    tol * S_TAIL_SHARE, and bound_exp_envelope at the index it stopped on
    (k_terms + 1 at the cap). These are the outer indices the double series
    sums, and the only ones an inner budget is split over: S sizes itself
    from tol this way, and k_terms only caps it."""
    weights = []
    for k in range(1, k_terms + 1):
        t = _TWO_PI * k * x
        tail = planner.bound_exp_envelope(k, x)
        if t >= 745.0 or tail <= tol * S_TAIL_SHARE:
            return weights, tail
        weights.append(math.exp(-t))
    return weights, planner.bound_exp_envelope(k_terms + 1, x)


def _inner_lengths(tol: float, weights: list[float]) -> list[tuple[int, int]]:
    """Per-outer-index inner series lengths (sine length, cosine length) for
    the outer weights e^{-2 pi k x} of outer_weights.

    The inner budget tol * S_TAIL_SHARE is split evenly over the outer terms
    that run and the two inner series; lengths solve
    2 pi weight * tail(N) <= share with tail_sin(N) <= 1/(3 N^3) and
    tail_cos(N) <= 1/(2 N^4).
    """
    share = tol * S_TAIL_SHARE / (2.0 * max(1, len(weights)))
    out = []
    for k, w in enumerate(weights, 1):
        w = _TWO_PI * w
        out.append(
            (
                _solve_length(w * float(k) ** 4, share, 3, 3.0),
                _solve_length(w * float(k) ** 5, share, 4, 2.0),
            )
        )
    return out


def _solve_length(weight: float, share: float, order: int, coeff: float) -> int:
    if weight <= 0.0 or share / weight >= 1.0 / coeff:
        return MIN_N_TERMS
    n = (weight / (coeff * share)) ** (1.0 / order)
    return max(MIN_N_TERMS, math.ceil(n))


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


# S is summed directly only at x >= 1 (lifted arguments and integers m),
# where the weight e^{-2 pi k x} underflows before k = 119, so the cache
# holds every row a call can reach
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


# S where every weight e^{-2 pi k x} underflows (x >= ~118.6): no term, and
# the floor that bound_exp_envelope gives there as its tail
_ZERO_SERIES = series_value(0.0, planner._ENVELOPE_FLOOR, 0, 0)


def _double_series_at(x: float, params: EvalParams) -> SeriesValue:
    """S(x) summed directly at x, without the recurrence lift. The outer sum
    stops at its own envelope (outer_weights), which also gives the
    outer tail it is charged; where no term is needed S is 0, charged
    bound_exp_envelope(1, x), with k_used and n_used 0. At integer x the
    inner sums collapse to C_k(0), so none is sized and n_used is 0."""
    if math.exp(-_TWO_PI * x) == 0.0:
        return _ZERO_SERIES
    weights, tail = outer_weights(x, params.k_terms, params.tol)
    if not weights:
        return series_value(0.0, tail, 0, 0)
    theta = _TWO_PI * _dist(x)
    if theta:
        lengths = _inner_lengths(params.tol, weights)
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
    return series_value(value, err, k_used, n_used)


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
        log_2sin = math.log(2.0 * abs(math.sin(math.pi * _dist(x))))
        pieces.append(math.pi * log_2sin * _csch2(math.pi * x) / 2.0)
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
    first = params.k_terms + 1
    tail = planner.bound_psi_k_sum(first, x, params.guard_delta, skip=m)
    log_tail = planner.bound_log_csch2(first, x, skip=m)
    return pieces, tail + log_tail, len(weights)


def double_series_S(x: float, params: EvalParams) -> SeriesValue:
    """S(x); the inner sums see x only through theta = 2 pi (x - round(x)),
    and at integer x they collapse to C_k = (gamma + Re psi(1+ik))/k^2 with
    A_k = 0. At the integers and from planner.LIFT_TARGET on, S is summed
    where it stands (_double_series_at). Below LIFT_TARGET off the integers
    it is R(x) - psi(x+1), with R the non-S part (_psi_rest, at x itself)
    and psi(x+1) from psi_ramanujan, whose moment form sums no double
    series; k_used is the larger of their outer counts and n_used is 0.

    Near 0, S(x) ~ log(2 pi x)/(2 pi x^2), R's log|2 sin| csch^2 piece. |S|
    passes the largest double (~1.8e308) near x = 5.6e-154, but that piece's
    product pi log|2 sin(pi x)| csch^2(pi x) ~ log(2 pi x)/(pi x^2), formed
    before its halving, overflows first: it passes the largest double
    between x = 7.880116142161301e-154 and the next double up. At S_FLOOR =
    7.9e-154, the first round value above that, the product is -1.789e308,
    0.5% inside the double range, where the few eps by which a libm's sin,
    sinh and log may move it do not reach; S is -8.93e307, the sum of the
    pieces' magnitudes 8.98e307 and the estimate 8.0e292, all falling as x
    grows, and (2 pi x)^2, which csch^2 divides by, is normal.
    Below S_FLOOR S raises ToleranceError.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    if x < S_FLOOR:
        raise ToleranceError(f"S(x) exceeds double range below x = {S_FLOOR}; got x = {x}")
    if planner.lift_shift(x) == 0 or x == round(x):
        return _double_series_at(x, params)
    psi = psi_ramanujan(x, params)
    pieces, tail, k_used = _psi_rest(x, params)
    pieces.append(-psi.value)
    return _close(pieces, psi.error_estimate + tail, max(k_used, psi.k_used), 0)

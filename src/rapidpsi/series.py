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
  k-sums expand in u = 1/y^2. The series' coefficients, degree and bound
  depend only on (K, tol) and are tabulated once per form (_moment_form),
  the bound from 32 on as one cell per binade [2^(e-1), 2^e) of y,
  e = 6..65, taken at the binade's lower end: each of its parts (the
  remainders, the closed tails and the rounding mass) is nonincreasing in
  y from 16 on, so that value holds across the binade, and the last cell
  holds past 2^64. There a call is one Horner pass and one lookup
  (_moment_sum); below 32, where every lifted argument lands and the
  remainders sized to tol at 16 fall fastest, the bound is taken at y, so
  it does not rise. What the form does not sum (S(y), the trigonometric
  terms and every index near or past y) carries e^{-2 pi (y-1)} and is
  charged as one constant;
- the corollaries share that moment core. psi' is its term-by-term
  derivative. Re psi(1+ix) - psi(x+1) = D(x) is a short closed form, because
  the all-arguments identity shares S, the log|2 sin| piece and the log
  k-family with the representation; so from 16 on Re psi is psi plus D, one
  form. Euler's constant is H_n - psi(n+1) at n = max(m, 16) at an integer
  m, and the partial-fraction sum P(y) less Re psi(1+iy) at y >= 16 away
  from one, with P by Euler-Maclaurin in pure Python; below 16 Re psi is
  that identity read the other way, P(x) less gamma at n = 16, whose pieces
  are computed once per (K, tol). None of them sums S or meets a pole;
- the odd zeta values read their scale-pi weights from _PI_WEIGHTS; the
  two-parameter form is summed at the smaller member of its pair, where
  one exp/expm1 pair per k gives both the Lambert and the csch^2 weight and
  each k-sum stops at its own share of tol;
- S itself, which no evaluator sums, lives in rapidpsi.double_series with
  the argument-reduced trigonometry and the pole-cancelled guard pairs it
  alone needs, and double_series_S imports it on its first call;
- error_estimate fields combine the planner's rigorous tail bounds with a
  rounding allowance proportional to the summed magnitude; gamma at and
  away from integers, Re psi and S below its lift add it in _close, one
  fsum of their pieces, while psi and psi' sum the shift's harmonic terms
  once and close their three or four pieces in place with the same two
  fsums. Every result is built by params.series_value, which checks the
  estimate as SeriesValue does without its setter calls.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import planner
from .bernoulli import BernoulliTable, bernoulli_over_factorial
from .errors import ToleranceError
from .params import (
    MAX_GAMMA_M,
    MAX_K_TERMS,
    EvalParams,
    ModularPair,
    Record,
    SeriesValue,
    series_value,
)
# _guard_index is read from here by perfbench/worker.py, though no evaluator
# here calls it
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


# ---------------------------------------------------------------------------
# the partial-fraction sum of gamma_any_x and the closing step


# P(y) = sum_{n>=1} f(n), f(n) = y^2/(n(n^2+y^2)) = 1/n - Re 1/(n+iy), adds
# n < _PF_M directly and the rest by Euler-Maclaurin (DLMF 2.10(i)) from M
_PF_M = 12
_LOG_PF_M = math.log(_PF_M)
# B_{2j}/(2j) for j = 1..8: the weight of -f^(2j-1)(M)/(2j-1)! in the sum
_EM_WEIGHTS = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0,
)
# the 1/n half of those corrections, sum_j B_{2j}/(2j) M^-2j, fixed with M
_EM_AT_M = math.fsum(w * float(_PF_M) ** (-2 * j) for j, w in enumerate(_EM_WEIGHTS, 1))
# (n, n^3) for n <= M: the directly summed n < M and the half-weight f(M)
_PF_TERMS = tuple((float(n), float(n) ** 3) for n in range(1, _PF_M + 1))
# what _pf_body leaves out or rounds where _close cannot see it, at any y:
# - the remainder past f^(15), p = 8 corrections: |B_2p|/(2p)! against
#   int_M^inf |f^(2p)| <= int (2p)!/t^(2p+1) + int (2p)!/|t+iy|^(2p+1)
#   <= 2 (2p-1)!/M^(2p), so |B_2p|/(p M^(2p)) = |B_16|/(8 * 12^16), 4.8e-18;
# - the rounding of the corrections, 34 u sum_j j |B_2j/(2j)| M^-2j with
#   u = eps/2, 2.2e-18 (derived in _pf_body's docstring).
# 6.98e-18 in all; the 1e-12 covers the rounding of the two charges
_PF_REMAINDER = (
    3617.0 / 510.0 / (8.0 * float(_PF_M) ** 16)
    + 17.0 * _EPS * math.fsum(j * abs(w) * float(_PF_M) ** (-2 * j) for j, w in enumerate(_EM_WEIGHTS, 1))
) * (1.0 + 1e-12)


def _pf_body(y: float) -> float:
    """P(y) less its Euler-Maclaurin integral term: the n < M terms, f(M)/2
    and the corrections through f^(15) at M = _PF_M = 12, where
    -f^(2j-1)(M)/(2j-1)! = M^-2j - Re (M+iy)^-2j, all in one fsum. Each f(n)
    is formed as 1/(n + n^3/y^2), with 1/y^2 as (1/y)^2, and (M+iy)^-1 by
    complex division, so nothing cancels or overflows at any y > 0 (an
    infinite 1/y^2 gives the f(n) = 0 that y^2/n^3 underflows to).

    Rounding, to first order (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), with u = eps/2, W_1 = sum_j |w_j| M^-2j and
    W = sum_j j |w_j| M^-2j >= W_1 over the weights w_j = B_2j/(2j):
    - each f(n) is within 6 u of itself, so the n <= M terms, which are
      positive, sum to s within 3 eps of s, and the one fsum adds u of the
      body. With s <= |body| + |C|, C the corrections' exact sum and
      |C| <= 2 W_1, that is 3.5 eps of the body, which _close's 4 eps of
      the piece covers, and 12 u W_1;
    - CPython's Smith division gives z = 1/(M+iy) within 5 u normwise (with
      dividend 1 each part takes four or five roundings), and the complex
      square adds sqrt(5) u (Brent, Percival and Zimmermann, 2007; 2 u with
      a fused multiply-add), so z^2 is within 12.24 u of (M+iy)^-2, whose
      modulus is at most M^-2;
    - the Horner pass takes w_j through j real additions (u each) and j
      complex products (sqrt(5) u each), and its power of z^2 through j
      times 12.24 u: 15.47 u W in all;
    - the float weights (u each, in both halves), the powers of M (one ulp
      from pow), their products and their fsum put _EM_AT_M within 5 u W_1
      and the weights put the pass within u W_1 more.
    Together 15.47 u W + 18 u W_1 <= 34 u W, which _PF_REMAINDER charges at
    its float weights; a part that underflows loses below 1e-300, which the
    rounding up from 33.47 covers."""
    inv = 1.0 / y
    inv2 = inv * inv
    terms = [1.0 / (n + n3 * inv2) for n, n3 in _PF_TERMS]
    terms[-1] *= 0.5  # f(M)/2
    z = 1.0 / complex(_PF_M, y)
    z *= z
    horner = 0j
    for weight in reversed(_EM_WEIGHTS):
        horner = (horner + weight) * z
    terms += (_EM_AT_M, -horner.real)
    return math.fsum(terms)


def _close(pieces: list[float], bound: float, k_used: int, n_used: int) -> SeriesValue:
    """The fsum of pieces, with the truncation bound plus the rounding
    allowance 4 eps sum|piece| as its error estimate."""
    mass = math.fsum(map(abs, pieces))
    return series_value(math.fsum(pieces), bound + 4.0 * _EPS * mass, k_used, n_used)


def double_series_S(x: float, params: EvalParams) -> SeriesValue:
    """The double series S(x) of the representation, from
    rapidpsi.double_series, which this imports on its first call: no
    evaluator sums S, so no other call loads that module."""
    from . import double_series

    return double_series.double_series_S(x, params)


# ---------------------------------------------------------------------------
# the main evaluator and its corollaries


# psi, psi' and gamma_any_x sum their moment forms at y >= _Y_MOMENT, and
# Re psi from x = _Y_MOMENT on, over K = min(k_terms, _K_CAP) outer terms.
# _K_CAP is plan's k_terms at MIN_TOL for every finite x
# (ceil(log(142/1e-15)/(2 pi)) = 7), so it leaves planned calls as they are;
# a larger hand-built count leaves k >= 8 to _moments' closed tails, below
# 1e-21 at y >= 16. With 2K + 2 <= 16 every summed k has k/y <= 7/16, and
# every index from floor(y) on carries e^{-2 pi (y-1)} <= e^{-30 pi}, paired
# with the trigonometric piece where y is near it, so no y >= 16 is refused
_Y_MOMENT = 16.0
_K_CAP = 7
# each j-family of a moment form is tabulated for j <= _J_CAP. At y = 16 the
# k = 1, 2, 3 parts of its terms fall at least 256x, 64x and 28x per term
# and the rest start below 1e-16, so at every admissible tol the stop rule
# keeps at most five terms of a family, and no table's degree in u reaches
# _J_CAP; a family the rule would run past _J_CAP terms is cut there and
# charged its first omitted term, which the table always holds
_J_CAP = 10


def _far_bound(y: float) -> float:
    """What psi(y+1) at y >= 16 charges rather than sums, bounded at y. With
    m = round(y), eps = y - m, q = e^{-2 pi}, E = e^{-2 pi (y-1)} and
    c(t) = csch^2(pi t) <= 4.0001 e^{-2 pi t}:

    - S(y), at most bound_exp_envelope(1, y), whose uniform form (the one it
      takes at integer y) grows with e^{-2 pi y};
    - the cot piece with the k = m pole term, in the pole-cancelled form of
      double_series._guard_pole_pair: at most
      q(y) ((1 + 2m g phi(1/2))/(2m - 1/2) + 2) <= 48 q(y), since
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


def _corollary_far() -> tuple[float, float]:
    """(D's, psi''s) terms at y >= 16 that their moment forms charge rather
    than sum, with m = round(y) >= 16, q(z) = 1/(e^{2 pi z} - 1), q_k = q(k),
    c_k = csch^2(pi k) and q = e^{-2 pi}.

    The trigonometric piece pairs with the k = m terms. D's pair
    -pi cot(pi z) q(z) - 4m z^2 q_m/((m - z)(m + z)(m^2 + z^2)) and psi''s
    -pi^2 csc^2(pi z) q(z) + 4m z q_m/(m^2 - z^2)^2 + 2 pi m^4 c_m/(z (m^4 - z^4))
    (whose simple poles cancel too: -q'(m) = (pi/2) c_m) are analytic in
    |z - m| < 1, so at |y - m| <= 1/2 each is at most its maximum on
    |z - m| = 1/2 (maximum-modulus principle). There, with
    pi (z - m) = a + ib, |sin(pi z)|^2 = sin^2 a + sinh^2 b
    >= (4/pi^2) a^2 + b^2 >= 1 by Jordan's inequality, so |csc(pi z)|^2 <= 1
    and |cot(pi z)|^2 <= 1 + |csc(pi z)|^2 <= 2; |q(z)| <= q(m - 1/2);
    m - 1/2 <= |z| <= m + 1/2, |m + z| >= 2m - 1/2 and
    |m^2 + z^2| >= 2m^2 - m - 1/4. So D's pair is at most pi sqrt(2)
    q(m - 1/2) + 8m (m + 1/2)^2 q_m/((2m - 1/2)(2m^2 - m - 1/4)), and psi''s
    pi^2 q(m - 1/2) + 16m (m + 1/2) q_m/(2m - 1/2)^2
    + 4 pi m^4 c_m/((m - 1/2)(2m - 1/2)(2m^2 - m - 1/4)); every factor falls
    with m, so m = 16 bounds them all.

    Every other k >= floor(y) >= 16 lies at least 1/2 from y, and
    q_{k+1} <= q q_k, c_{k+1} <= q c_k. D's k-sum term is at most
    2 q_k/|k - y| <= 4 q_k (by k^2 + y^2 >= 2ky) and psi''s q_k/(k - y)^2
    <= 4 q_k (by 4ky <= (k + y)^2), so each family 4 q_16/(1 - q). What
    psi''s moment form leaves of its csch^2 term, 2 pi c_k k^4/(y (k^4 - y^4)),
    is at most 2 pi c_k k/(y |k - y|) <= (pi/4) k c_k, so
    4 pi c_16/(1 - 17q/16) in all. None of this depends on y. The 1e-12
    covers the rounding."""
    q = _Q_UNIT
    m = _Y_MOMENT
    q_lo, q_m, c_m = _inv_expm1(_TWO_PI * (m - 0.5)), _inv_expm1(_TWO_PI * m), _csch2(math.pi * m)
    plus, quad = 2.0 * m - 0.5, 2.0 * m * m - m - 0.25
    rest = 4.0 * q_m / (1.0 - q)
    d_far = math.pi * math.sqrt(2.0) * q_lo + 8.0 * m * (m + 0.5) ** 2 * q_m / (plus * quad) + rest
    prime_far = (
        math.pi**2 * q_lo
        + 16.0 * m * (m + 0.5) * q_m / plus**2
        + 4.0 * math.pi * m**4 * c_m / ((m - 0.5) * plus * quad)
        + rest
        + 4.0 * math.pi * c_m / (1.0 - 17.0 * q / 16.0)
    )
    return d_far * (1.0 + 1e-12), prime_far * (1.0 + 1e-12)


_PSI_FAR = _far_bound(_Y_MOMENT)
_D_FAR, _PRIME_FAR = _corollary_far()


class _Moments(Record):
    """The per-K moments of _moments."""

    __slots__ = _fields = ("m", "l4", "rel", "a", "b")

    def __init__(self, m: tuple[float, ...], l4: tuple[float, ...], rel: float, a: float, b: float):
        for set_field, value in zip(self._setters, (m, l4, rel, a, b)):
            set_field(self, value)


@lru_cache(maxsize=None)  # one entry per K <= _K_CAP
def _moments(K: int) -> _Moments:
    """The moments of the k-sums cut at K <= _K_CAP, from _PI_WEIGHTS:
    m[i] = M_{2i+1} for i <= 2 _J_CAP and l4[j] = L_{4j+4} for j <= _J_CAP,
    with M_p = sum_{k<=K} k^p/(e^{2 pi k} - 1) and L_p = sum_{k<=K} k^p
    csch^2(pi k). k^p stays below 1e38, so nothing overflows. Each moment is
    within rel of its exact value: the largest _summand_rounding of its
    positive terms, (6 + 2 pi k + 1/(pi k)) eps at t = pi k, and eps more.

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
        math.fsum(float(k) ** (2 * i + 1) * q for k, q, _ in weights) for i in range(2 * _J_CAP + 1)
    )
    moment_l4 = tuple(
        math.fsum(float(k) ** (4 * j + 4) * c for k, _, c in weights) for j in range(_J_CAP + 1)
    )
    f = K + 1
    e = math.exp(-_TWO_PI * f)
    a = 2.0 * f * e / -math.expm1(-_TWO_PI * f) / (1.0 - 4.0 * _Q_UNIT) * (1.0 + 1e-12)
    b = (math.pi / 2.0) * 4.0 * e / math.expm1(-_TWO_PI * f) ** 2 / (1.0 - 32.0 * _Q_UNIT)
    return _Moments(moment_m, moment_l4, (7.0 + _TWO_PI * K) * _EPS, a, b * (1.0 + 1e-12))


# (1 - 4q)/(1 - 8q): turns _moments' a, whose k-sum terms shrink by 4q, into
# the bound for psi''s k-sum terms, which shrink by 8q
_PRIME_A = (1.0 - 4.0 * _Q_UNIT) / (1.0 - 8.0 * _Q_UNIT)

# the three moment forms, each a power series in u = 1/y^2 at y >= 16:
# psi(y+1) - log y - 1/(2y), Re psi(1+iy) - log y and y psi'(y+1) - 1 + 1/(2y)
_PSI, _RE_PSI, _PRIME = "psi", "re_psi", "psi_prime"


class _MomentForm(Record):
    """One moment form's table (_moment_form): the coefficients of the form
    over u, highest power first, as many as its degree; (c, p) of each
    j-family's first omitted term c u^p; (rho_1, rho_2); (K + 1)^2;
    (t_a, t_b, squared) of the closed tails; far, mass and the cells of its
    bound, one per binade of y from 32 on, or () before they are built."""

    __slots__ = _fields = ("coeffs", "omitted", "ratios", "f2", "tails", "far", "mass", "cells")

    def __init__(self, coeffs: tuple[float, ...], omitted: tuple, ratios: tuple, f2: float,
                 tails: tuple, far: float, mass: float, cells: tuple[float, ...]):
        values = (coeffs, omitted, ratios, f2, tails, far, mass, cells)
        for set_field, value in zip(self._setters, values):
            set_field(self, value)


# the binades of y whose bound a form tabulates: cell e - _CELL_E0 holds the
# bound at 2^(e-1), the lower end of [2^(e-1), 2^e), where math.frexp puts
# y's exponent at e, for e = 6..65; the last, from 2^64 on, holds past it.
# Below 2^(_CELL_E0 - 1) = 32, the first binade [16, 32), the bound is taken
# at y itself
_CELL_E0, _CELL_E1 = 6, 65


@lru_cache(maxsize=256)
def _moment_form(family: str, K: int, tol: float) -> _MomentForm:
    """The table of one moment form over K <= _K_CAP outer terms at tol,
    memoized per (family, K, tol) in an LRU cache as plan is. A form is c_0 u
    plus a k-family, term j c_j u^(j+1), each term at most rho_1 u times the
    one before, and one or two families whose terms fall by at most
    rho_2 u^2 = (K^2 u)^2 each, all from _moments(K):

      psi:    -u/(4 pi) - 2 sum_j M_{2j+1} u^{j+1} + (pi/2) sum_j (L_{4j+4}/(j+1)) u^{2j+2},
              rho_1 = K^2;
      Re psi: u/(4 pi), psi's families and D's 4 sum_j M_{4j+1} u^{2j+1}
              (psi + D, whose 1/(2y) cancel);
      psi':   u/(2 pi) + 4 sum_j (j+1) M_{2j+1} u^{j+1} - 2 pi sum_j L_{4j+4} u^{2j+2},
              rho_1 = 2K^2, as (j+2)/(j+1) <= 2.

    The degree is fixed at y = 16, the worst case: each family keeps what the
    stop rule keeps there, every term before the first whose remainder
    c_j u^p/(1 - rho u^e) fits tol/4 (16 tol/4 for y psi'), and then every
    term up to the highest power any family kept, at most _J_CAP. The first
    omitted term of each family (a third with c = 0 for psi and psi') is
    kept, and _moment_sum charges each remainder from it.

    With F = K + 1 and w = F^2 u, the k > K terms up to y - 1 cost
    t_a u/(1 - w) + t_b w^2/(1 - w^2), from _moments' a and b: psi's k-sum
    a/((y - F)(y + F)) and log family b s/(1 - s), s = w^2; Re psi takes 3a,
    as each of D's terms is at most twice psi's k-sum term
    (2y^2/(y^2 + k^2) <= 2); y psi''s k-sum terms fall by 8q, so
    2 _PRIME_A a u/(1 - w)^2 (squared), and its csch^2 terms cost
    4b w^2/(1 - w^2). far bounds the rest at every y >= 16: _PSI_FAR,
    _PSI_FAR + _D_FAR or _PRIME_FAR (for psi', not y psi').

    mass u bounds the rounding: sum|c| 16^{-2(i-1)} over the powers u^i,
    with sum|c| the parts of each coefficient before they are added, bounds
    sum|c| u^{i-1} at y >= 16. Each part is within rel (moments) and 3 eps,
    and Horner's rule over degree - 1 (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1), the powers of u (1/(y y) is within eps of u)
    and the last products by u and 1/y add at most 2 degree eps: so
    (2 degree + 4) eps of every part and rel of the moments, to first order
    (Higham 3.1).

    From 32 on the bound is tabulated per binade of y, not taken at the
    call's y: every part of it is nonincreasing in y from 16 on. Each
    remainder c u^p/(1 - rho u^e) has a numerator falling and a denominator
    rising with y; the tails t_a u/(1 - w) (squared for psi') and
    t_b w^2/(1 - w^2) fall as u and w = F^2 u <= 1/4 do; and so does the
    mass u. So the bound at a binade's lower end 2^(e-1) bounds all of
    [2^(e-1), 2^e), e = 6..65, and the cell from 2^64 on bounds every larger
    y. A cell is the bound taken at 2^(e-1), rounding allowance and all, so
    it is at least the bound taken at y, and equal to it at the lower end. In
    [16, 32) a cell at 16 would rise up to 4^p-fold across it, and every
    lifted argument lands in [16, 17), where the remainders were sized to
    tol/4 and a rise would push planned estimates at tol near the rounding
    floor past it; there _moment_sum takes the bound at y."""
    mom = _moments(K)
    k2 = float(K * K)
    m, l4 = mom.m[: _J_CAP + 1], mom.l4
    # (coefficients, e, o): term j is c_j u^(e j + o)
    k_sum = (tuple(-2.0 * v for v in m), 1, 1)
    log = (tuple((math.pi / 2.0) * v / (j + 1) for j, v in enumerate(l4)), 2, 2)
    rho_1 = k2
    if family == _PSI:
        constant, families = -1.0 / (4.0 * math.pi), (k_sum, log)
        tails, far = (mom.a, mom.b, False), _PSI_FAR
    elif family == _RE_PSI:
        d_sum = (tuple(4.0 * v for v in mom.m[::2]), 2, 1)
        constant, families = 1.0 / (4.0 * math.pi), (k_sum, log, d_sum)
        tails, far = (3.0 * mom.a, mom.b, False), _PSI_FAR + _D_FAR
    else:
        k_prime = (tuple(4.0 * ((j + 1) * v) for j, v in enumerate(m)), 1, 1)
        constant, families = 1.0 / _TWO_PI, (k_prime, (tuple(-_TWO_PI * v for v in l4), 2, 2))
        tails, far = (2.0 * _PRIME_A * mom.a, 4.0 * mom.b, True), _PRIME_FAR
        rho_1 = 2.0 * k2
    u = 1.0 / (_Y_MOMENT * _Y_MOMENT)
    shrink = {1: 1.0 - rho_1 * u, 2: 1.0 - (k2 * u) ** 2}
    share = tol / 4.0 * (_Y_MOMENT if family == _PRIME else 1.0)
    degree = 1
    for coeffs, e, o in families:
        for j in range(_J_CAP):
            if abs(coeffs[j]) * u ** (e * j + o) / shrink[e] <= share:
                break
            degree = max(degree, e * j + o)
    poly = [constant] + [0.0] * (degree - 1)
    parts = [0.0] * degree
    omitted = [0.0, 0] * 3
    for f, (coeffs, e, o) in enumerate(families):
        n = min(_J_CAP, (degree - o) // e + 1)
        for j in range(n):
            poly[e * j + o - 1] += coeffs[j]
            parts[e * j + o - 1] += abs(coeffs[j])
        omitted[2 * f : 2 * f + 2] = abs(coeffs[n]), e * n + o
    rounding = (2 * degree + 4) * _EPS
    mass = rounding * abs(constant)
    mass += (rounding + mom.rel) * math.fsum(c * u**i for i, c in enumerate(parts))
    ratios, f2 = (rho_1, k2 * k2), float((K + 1) ** 2)
    table = (tuple(reversed(poly)), tuple(omitted), ratios, f2, tails, far, mass)
    # each cell is the bound _moment_sum takes at its lower end on the form
    # without cells
    bare = _MomentForm(*table, ())
    cells = tuple(_moment_sum(bare, 2.0 ** (e - 1))[1] for e in range(_CELL_E0, _CELL_E1 + 1))
    return _MomentForm(*table, cells)


def _moment_sum(form: _MomentForm, y: float) -> tuple[float, float]:
    """(value, bound) of form's power series at u = 1/y^2, y >= 16: one
    Horner pass over its table, and the bound of _moment_form's docstring
    without its constant far. From 32 on that is the cell of y's binade,
    the bound at its lower end, which holds across the binade. Below 32,
    and on the form without cells that _moment_form builds them from, it is
    taken at u itself: each family's geometric remainder from its first
    omitted term, the closed k > K tails and the rounding mass u. The 1e-12
    covers the rounding of the remainders."""
    u = 1.0 / (y * y)
    h = 0.0
    for c in form.coeffs:
        h = h * u + c
    if y >= 32.0 and form.cells:
        e = math.frexp(y)[1]
        return u * h, form.cells[(e if e < _CELL_E1 else _CELL_E1) - _CELL_E0]
    c_1, p_1, c_2, p_2, c_3, p_3 = form.omitted
    rho_1, rho_2 = form.ratios
    rem = c_1 * u**p_1 / (1.0 - rho_1 * u) + (c_2 * u**p_2 + c_3 * u**p_3) / (1.0 - rho_2 * u * u)
    t_a, t_b, squared = form.tails
    w = form.f2 * u
    near = 1.0 - w
    if squared:
        near *= near
    ww = w * w
    return u * h, rem * (1.0 + 1e-12) + (t_a / near + form.mass) * u + t_b * ww / (1.0 - ww)


# the recurrence's offsets 1..16 as floats, the same bits as the ints, so
# x + c rounds as x + i does. _lift's shift is at most 16 at every x > 0:
# fl(16 - x) <= 16, and x + 16 >= 16
_OFFSETS = tuple(float(c) for c in range(1, int(_Y_MOMENT) + 1))


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


def psi_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """psi(x+1) = log y + 1/(2y) + (psi's moment form in u = 1/y^2) at
    y >= 16 over K = min(k_terms, 7) outer terms, lowered by the recurrence
    psi(x+1) = psi(y+1) - sum_{i=1..shift} 1/(x+i), shift the smallest with
    fl(x + shift) >= 16. log y is exact: the representation's (pi/3) log y
    and the -2 pi log y csch^2(pi k) of every k's log term sum to log y by
    sum_k csch^2(pi k) = 1/6 - 1/(2 pi); what is left of each log term,
    -(pi/2) log(1 - (k/y)^4) csch^2(pi k), and each k-sum term
    2k/((e^{2 pi k} - 1)(k^2 - y^2)) expand in u for k <= K < y/2. The
    series is one Horner pass over its table for (K, tol) (_moment_form,
    _moment_sum), whose bound is the estimate with the rounding of x + shift
    (_lift). From 16 on, where there is no shift, the value is the fsum of
    1/(2y), the series and log y, and the estimate adds 4 eps of the fsum of
    their magnitudes. Below 16 the harmonic terms are summed once,
    h = fsum(1/(x + c), c = 1..shift), and the four pieces 1/(2y), the
    series, log y and -h close in place the same way.

    4 eps = 8u (u = eps/2) of the magnitudes covers every rounding, to first
    order (Higham, Accuracy and Stability of Numerical Algorithms, 3.1): each
    term 1/fl(x + c) is within 2u of 1/(x + c), and the terms are positive,
    so h is within 2u h of their exact sum before its fsum and 3u h after
    it; 1/(2y) is within u and log y within an ulp, 2u log y (y >= 16, so
    log y > 0); the series' own rounding is in its bound; and the closing
    fsum adds u of the result, at most u of the magnitudes. That is at most
    4u of the magnitudes, below the 8u charged, which also absorbs the
    rounding of the magnitudes' own fsum. k_used is K and n_used 0: no inner
    sum runs.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    k = params.k_terms
    if k > _K_CAP:
        k = _K_CAP
    form = _moment_form(_PSI, k, params.tol)
    if x >= _Y_MOMENT:
        value, bound = _moment_sum(form, x)
        half, log_y = 0.5 / x, math.log(x)
        mass = math.fsum((half, abs(value), log_y))
        estimate = bound + form.far + 4.0 * _EPS * mass
        return series_value(math.fsum((half, value, log_y)), estimate, k, 0)
    shift, y, lift_err = _lift(x, 1)
    value, bound = _moment_sum(form, y)
    half, log_y = 0.5 / y, math.log(y)
    h = math.fsum([1.0 / (x + c) for c in _OFFSETS[:shift]])
    mass = math.fsum((half, abs(value), log_y, h))
    estimate = bound + form.far + lift_err + 4.0 * _EPS * mass
    return series_value(math.fsum((half, value, log_y, -h)), estimate, k, 0)


def _check_gamma_m(m: int) -> None:
    """Raise ValueError unless gamma_at_integer accepts m."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    if m > MAX_GAMMA_M:
        raise ValueError(f"m must be at most {MAX_GAMMA_M}")


def _gamma_at(n: int, k: int, tol: float) -> tuple[list[float], float]:
    """gamma = H_n - psi(n+1) at an integer n >= 16 as (pieces, bound): H_n,
    -log n, -1/(2n) and less psi's moment form over k <= _K_CAP terms, with
    its bound and far. n is exact, so nothing is lifted; _close's 4 eps of
    every piece covers the rounding of H_n and log n."""
    form = _moment_form(_PSI, k, tol)
    value, bound = _moment_sum(form, float(n))
    harmonic = math.fsum(1.0 / j for j in range(1, n + 1))
    return [harmonic, -math.log(n), -0.5 / n, -value], bound + form.far


@lru_cache(maxsize=256)
def _gamma_at_16(k: int, tol: float) -> tuple[tuple[float, ...], float]:
    """_gamma_at(16, k, tol) as an immutable (pieces, bound), memoized per
    (k, tol) in an LRU cache as _moment_form is: it depends on nothing else,
    so Re psi below 16 and gamma_at_integer at m <= 16 make one moment sum
    at 16 per (k, tol), not one per call."""
    pieces, bound = _gamma_at(int(_Y_MOMENT), k, tol)
    return tuple(pieces), bound


def gamma_at_integer(m: int, params: EvalParams) -> SeriesValue:
    """Euler's constant from gamma = H_n - psi(n+1), which holds at every n,
    taken at n = max(m, 16) over K = min(k_terms, 7) outer terms, closed in
    _close: at m <= 16 from the cached pieces of _gamma_at_16, past it from
    _gamma_at(m). No double series, guard pair or tail pass runs. k_used
    is K and n_used 0."""
    _check_gamma_m(m)
    k = min(params.k_terms, _K_CAP)
    if m <= _Y_MOMENT:
        pieces, bound = _gamma_at_16(k, params.tol)
    else:
        pieces, bound = _gamma_at(m, k, params.tol)
    return _close(pieces, bound, k, 0)


def gamma_any_x(x: float, params: EvalParams) -> SeriesValue:
    """Euler's constant from the all-arguments identity
    gamma = P(y) - Re psi(1+iy), with P(y) = sum_n y^2/(n(n^2+y^2)), at
    y = x lifted to y >= 16 by a whole shift. The value is constant in the
    argument, so the lift is free of charge, and _D_FAR holds at every
    y >= 16, so no x is refused.

    P(y) - log y comes from _pf_body and -log M + (1/2) log1p((M/y)^2), and
    Re psi(1+iy) - log y from Re psi's moment form (_moment_sum), so log y
    cancels exactly and no double series, guard pair or tail pass runs.
    k_used is K and n_used 0. The estimate is the moment form's bound and
    _PF_REMAINDER, plus _close's 4 eps of every piece, which covers the
    rounding of P's terms."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    y = _lift(x, 1)[1]
    k = min(params.k_terms, _K_CAP)
    form = _moment_form(_RE_PSI, k, params.tol)
    value, bound = _moment_sum(form, y)
    r = _PF_M / y
    pieces = [_pf_body(y), 0.5 * math.log1p(r * r), -_LOG_PF_M, -value]
    return _close(pieces, bound + form.far + _PF_REMAINDER, k, 0)


def re_psi_complex_ramanujan(x: float, params: EvalParams) -> SeriesValue:
    """Re psi(1+ix) over K = min(k_terms, 7) outer terms, by one of two routes
    that share psi's moment core.

    From 16 on, Re psi(1+ix) = psi(x+1) + D(x): the all-arguments identity

      Re psi(1+ix) = (pi/3) log x + 1/(4 pi x^2) + (pi/2) log|2 sin(pi x)| csch^2(pi x)
                     + sum_k 2k q_k/(k^2 + x^2) - (pi/2) sum_k log|k^4 - x^4| csch^2(pi k)
                     - S(x),

    with q_k = 1/(e^{2 pi k} - 1), and the representation of psi(x+1) share
    the double series S(x), the log|2 sin| csch^2 piece, the whole log csch^2
    k-family and (pi/3) log x term for term, so all of them cancel from

      D(x) = 1/(2 pi x^2) - 1/(2x) - pi cot(pi x) q(x)
             - sum_k 4k x^2 q_k/((k - x)(k + x)(k^2 + x^2)),

    by 1/(k^2 + x^2) - 1/(k^2 - x^2) = -2x^2/((k^2 - x^2)(k^2 + x^2)). D's
    k <= K terms expand in u = 1/x^2 as -4k q_k u/(1 - (k/x)^4), so
    Re psi(1+ix) - log x is one Horner pass over Re psi's moment form
    (_moment_sum), in which psi's 1/(2x) and D's cancel; its u coefficient
    1/(4 pi) + 2 M_1 is 1/12 up to the k > K tail of M_1 (criterion 3's
    Lambert sum). D's poles at the integers cancel in _D_FAR's pair.

    Below 16, Re psi(1+ix) = P(x) - gamma, P(x) = sum_n x^2/(n(n^2+x^2))
    (DLMF 5.7.6 with z = ix), the identity gamma_any_x reads the other way:
    P(x) is _pf_body(x) + (1/2) log1p((x/M)^2), charged _PF_REMAINDER, and
    gamma is H_16 - psi(17) from psi's moment form at 16, whose pieces and
    bound _gamma_at_16 computes once per (K, tol). No piece has a pole or
    grows as x -> 0. Either way every piece closes in one fsum (_close), so
    every x > 0 is admitted. k_used is K, n_used 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    k = min(params.k_terms, _K_CAP)
    if x >= _Y_MOMENT:
        form = _moment_form(_RE_PSI, k, params.tol)
        value, bound = _moment_sum(form, x)
        return _close([value, math.log(x)], bound + form.far, k, 0)
    gamma, bound = _gamma_at_16(k, params.tol)
    r = x / _PF_M
    pieces = [_pf_body(x), 0.5 * math.log1p(r * r)] + [-g for g in gamma]
    return _close(pieces, bound + _PF_REMAINDER, k, 0)


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

    The series in u, y psi'(y+1) - 1 + 1/(2y), is one Horner pass over its
    table (_moment_sum), whose value and bound are divided by y. The
    estimate adds _PRIME_FAR, which bounds the csc^2 piece and every index
    from floor(y) on, and the rounding of x + shift (_lift). The csc^2
    piece's pole at an integer m cancels against the k = m terms in
    _PRIME_FAR's pair, so every x > 0 is admitted, the integers and the x
    near 0 that lift to just above 16 among them.

    The harmonic terms are summed once, h = fsum(1/((x + c)(x + c)),
    c = 1..shift), 0 from 16 on, and the four pieces 1/y, -1/(2y^2), the
    series over y and h close in place: the value is their fsum and the
    estimate adds 4 eps = 8u (u = eps/2) of the fsum of their magnitudes.
    That covers every rounding, to first order (Higham 3.1): fl(x + c) is
    within u, its square within 3u and each term within 4u, all positive,
    so h is within 5u h after its fsum; 1/y is within u, 1/(2y^2) within 2u
    and the series over y within u past its bound over y; and the closing
    fsum adds u of the result. That is at most 6u of the magnitudes, below
    the 8u charged. k_used is K and n_used 0.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    k = min(params.k_terms, _K_CAP)
    shift, y, lift_err = _lift(x, 2)
    form = _moment_form(_PRIME, k, params.tol)
    value, bound = _moment_sum(form, y)
    inv, tail, value = 1.0 / y, 0.5 / (y * y), value / y
    h = math.fsum([1.0 / ((x + c) * (x + c)) for c in _OFFSETS[:shift]])
    mass = math.fsum((inv, tail, abs(value), h))
    estimate = bound / y + form.far + lift_err + 4.0 * _EPS * mass
    return series_value(math.fsum((inv, -tail, value, h)), estimate, k, 0)


# ---------------------------------------------------------------------------
# Lambert-type sums and zeta corollaries


def _zeta_odd_products(N: int, table: BernoulliTable) -> list:
    """The N+2 exact Fraction products B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!, j = 0..N+1,
    from one list of the B_{2i}/(2i)!."""
    over_factorial = [bernoulli_over_factorial(table, 2 * j) for j in range(N + 2)]
    return [over_factorial[j] * over_factorial[N + 1 - j] for j in range(N + 2)]


def _zeta_odd_j_sum(N: int, table: BernoulliTable, products: list | None = None):
    """sum_{j=0}^{N+1} (-1)^{j+1} (2j-1) B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!,
    in exact rational arithmetic (the alternating sum cancels badly in
    floating point once N grows), from _zeta_odd_products(N, table) unless
    the caller has them."""
    if products is None:
        products = _zeta_odd_products(N, table)
    return sum(((2 * j - 1) if j % 2 else (1 - 2 * j)) * p for j, p in enumerate(products))


def _zeta_odd_coefficients(
    N: int, table: BernoulliTable
) -> tuple[float, tuple[tuple[float, int, int, float], ...]]:
    """(J, terms) for zeta(2N+1): J = _zeta_odd_j_sum(N, table) and, for
    j = 0..N+1, zeta_odd_general's RHS term j as (sign (2j - 1), N + 1 - j,
    j, ratio), with sign = (-1)^{j+1} and ratio the product
    B_{2j}/(2j)! B_{2N+2-2j}/(2N+2-2j)!. J and the ratios come from one list
    of the exact products, each rounded once. They depend on N and the table
    alone, so the first call for an N computes them and stores them in
    table.derived[N] for later calls."""
    coefficients = table.derived.get(N)
    if coefficients is None:
        products = _zeta_odd_products(N, table)
        j_sum = _zeta_odd_j_sum(N, table, products)
        terms = tuple(
            (float((2 * j - 1) if j % 2 else (1 - 2 * j)), N + 1 - j, j, float(p))
            for j, p in enumerate(products)
        )
        coefficients = table.derived[N] = (float(j_sum), terms)
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


def _power_sums(
    power: int,
    scale: float,
    cap: int,
    csch_share: float,
    lam_share: float = math.inf,
    scale_err: float = 0.0,
) -> tuple[tuple[float, float, float, int], tuple[float, float, float, int]]:
    """(csch^2 sum, Lambert sum) of sum_k k^power/sinh^2(scale k) and
    sum_k k^{power-1}/(e^{2 scale k} - 1), power <= 0, each as (value,
    remainder bound, rounding bound, terms summed), from one exp/expm1 pair
    per k: with t = scale k, e = e^{-2t} and d = expm1(-2t),
    csch^2(t) = 4e/d^2 and 1/(e^{2t} - 1) = e/(-d), as _csch2 and
    _inv_expm1 form them; scale_err bounds scale's relative error.

    Every term of either sum is at most q = e^{-2 scale} times the one
    before: k^power does not grow, sinh^2(tk)/sinh^2(t(k+1)) <= e^{-2t} and
    (e^{2tk} - 1)/(e^{2t(k+1)} - 1) <= e^{-2t}. So each sum stops before its
    first term t with t (1 + r)/(1 - q) <= its share, where r is the term's
    own _summand_rounding, and that bounds the rest (a geometric tail);
    q is taken at scale (1 - scale_err), and the 1e-12 covers the rounding
    of the bound. A sum that reaches cap terms is charged the closed tail
    from cap + 1 (planner.bound_csch2, planner.bound_lambert). The default
    lam_share stops the Lambert sum at once, for a caller that needs only
    the csch^2 sum."""
    one_minus_q = -math.expm1(-2.0 * scale * (1.0 - scale_err))
    csch_limit, lam_limit = csch_share * one_minus_q, lam_share * one_minus_q
    csch, lam = [], []
    csch_rnd = lam_rnd = 0.0
    csch_tail = lam_tail = -1.0  # -1 while the sum runs
    for k in range(1, cap + 1):
        t = scale * k
        e = math.exp(-2.0 * t)
        d = math.expm1(-2.0 * t)
        rnd = _summand_rounding(t, scale_err)
        if csch_tail < 0.0:
            piece = float(k) ** power * (4.0 * e / d**2)
            if piece * (1.0 + rnd) > csch_limit:
                csch.append(piece)
                csch_rnd += piece * rnd
            else:
                csch_tail = piece * (1.0 + rnd) / one_minus_q * (1.0 + 1e-12)
        if lam_tail < 0.0:
            piece = float(k) ** (power - 1) * (e / -d)
            if piece * (1.0 + rnd) > lam_limit:
                lam.append(piece)
                lam_rnd += piece * rnd
            else:
                lam_tail = piece * (1.0 + rnd) / one_minus_q * (1.0 + 1e-12)
        if csch_tail >= 0.0 and lam_tail >= 0.0:
            break
    if csch_tail < 0.0:
        csch_tail = planner.bound_csch2(cap + 1, power, scale)
    if lam_tail < 0.0:
        lam_tail = planner.bound_lambert(power - 1, cap + 1, scale)
    return (
        (math.fsum(csch), csch_tail, csch_rnd, len(csch)),
        (math.fsum(lam), lam_tail, lam_rnd, len(lam)),
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
    return series_value(value / (2.0 * N), err / (2.0 * N) + 4.0 * _EPS, len(weights), 0)


def zeta_odd_general(
    N: int, pair: ModularPair, table: BernoulliTable, params: EvalParams
) -> SeriesValue:
    """zeta(2N+1) solved from the two-parameter modular identity
    2N a^{-N}(zeta(2N+1) + 2 L_a) + a^{1-N} S_a - (-b)^{1-N} S_b = RHS,
    where L_a is the a-scaled Lambert sum, S_a/S_b the scaled csch^2 sums,
    a b = pi^2, and RHS = 2^{2N+1} sum_j (-1)^{j+1}(2j-1) a^{N+1-j} b^j
    times the B-ratios (Berndt, Ramanujan's Notebooks, Part II, ch. 14,
    Entry 21). zeta(2N+1) is the same from either member of the pair, so
    the identity is taken at a = min(alpha, beta) <= pi, where the RHS and
    the scaling a^N/(2N) cancel least. Each ratio is formed exactly from the
    table's exact, immutable values and rounded once; the floats are
    memoized on the table per N. The parameter powers are in floating point.

    Each of the three k-sums stops at its own remainder (_power_sums), held
    to tol/32 once weighted as the estimate weights it: a/(2N) for S_a,
    a^N b^{1-N}/(2N) for S_b and 2 for L_a. The three tails then add less
    than tol/10, which leaves the rest of tol to the rounding where the
    identity cancels. None sums more than
    2 + ceil(log(400/tol)/(2 s)) terms at its scale s; params.k_terms is not
    read. A scale that would need more than MAX_K_TERMS terms at
    min(tol, 1) is refused up front with ToleranceError."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if table.max_index < 2 * N + 2:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * N + 2}")
    a, b = pair.alpha, pair.beta
    if b < a:
        a, b = b, a
    # the cap on each scale's count is checked on the slower scale a before
    # the ceilings, which fail once 2a underflows; a tol above 1 is checked
    # as tol 1, since above 400 log_share is negative and would pass any a
    log_share = math.log(400.0 / params.tol)
    if not math.log(400.0 / min(params.tol, 1.0)) / (2.0 * a) <= MAX_K_TERMS - 2:
        raise ToleranceError(
            f"alpha={pair.alpha} needs more than {MAX_K_TERMS} hyperbolic terms "
            f"for tol={params.tol}"
        )
    cap_a = 2 + max(0, math.ceil(log_share / (2.0 * a)))
    cap_b = 2 + max(0, math.ceil(log_share / (2.0 * b)))
    # b stands for pi^2/a; this covers the roundings of pi^2 and of the
    # quotient, and a pair given off the curve within ModularPair's check
    pi2 = math.pi * math.pi
    b_err = abs(a * b - pi2) / pi2 + 2.0 * _EPS
    terms = _zeta_odd_coefficients(N, table)[1]
    rhs_terms = [c * a**ea * b**eb * ratio for c, ea, eb, ratio in terms]
    rhs = 2.0 ** (2 * N + 1) * math.fsum(rhs_terms)
    pow_a, pow_b = a ** (1 - N), b ** (1 - N)
    scaling = a**N / (2.0 * N)
    share = params.tol / 32.0
    (s_a, s_a_tail, s_a_rnd, k_s_a), (lam_a, lam_a_tail, lam_a_rnd, k_lam_a) = _power_sums(
        -2 * N, a, cap_a, share * (2 * N) / a, share / 2.0
    )
    # divided one factor at a time: their product can underflow where
    # neither does
    s_b, s_b_tail, s_b_rnd, k_s_b = _power_sums(
        -2 * N, b, cap_b, share / pow_b / scaling, scale_err=b_err
    )[0]
    sign_b = 1.0 if (1 - N) % 2 == 0 else -1.0
    lhs_a = pow_a * s_a
    lhs_b = sign_b * pow_b * s_b
    diff = rhs - (lhs_a - lhs_b)
    value = diff * scaling - 2.0 * lam_a
    # first-order rounding (Higham 3.1), before the scaling by a^N/(2N): each
    # rhs term an ulp from each power, j b_err through b^j and eps/2 from the
    # ratio, each product and the fsum; each csch^2 sum its own rounding, an
    # ulp from its power ((N-1) b_err more for b's) and eps/2 from the
    # product; the two differences eps/2 of what they touch. The scaling and
    # the final subtraction are in the 4 eps (|value| + 2 L_a) term.
    rounding = (
        2.0 ** (2 * N + 1)
        * math.fsum([abs(t) * (5.0 * _EPS + j * b_err) for j, t in enumerate(rhs_terms)])
        + pow_a * (s_a_rnd + 2.0 * _EPS * s_a)
        + pow_b * (s_b_rnd + ((N - 1) * b_err + 2.0 * _EPS) * s_b)
        + _EPS * (abs(lhs_a) + abs(lhs_b) + abs(diff))
    )
    tails = pow_a * s_a_tail + pow_b * s_b_tail
    err = (tails + rounding) * scaling + 2.0 * (lam_a_tail + lam_a_rnd)
    return series_value(
        value, err + 4.0 * _EPS * (abs(value) + 2.0 * lam_a + 1.0), max(k_s_a, k_lam_a, k_s_b), 0
    )

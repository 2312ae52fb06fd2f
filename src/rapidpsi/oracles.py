"""Independent classical evaluators used as ground truth.

These are deliberately slower than, and structurally unrelated to, the
hyperbolic-series evaluators in series.py: recurrence lifting plus the
log-minus-Bernoulli asymptotic expansion for psi, direct summation with
Euler-Maclaurin tail corrections for zeta and the 1/(n(n^2+k^2)) family, and
adaptive quadrature for the integral form of the double series. Differential
tests compare the two routes; neither side is allowed to borrow the other's
series machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernoulli import shared_table
from .errors import ToleranceError

_TWO_PI = 2.0 * math.pi

# B_0..B_64 of the shared exact table, converted once. Used only for the
# asymptotic expansion coefficients B_{2j}.
_B_FLOAT = tuple(float(v) for v in shared_table().values[:65])

# cap on the direct-summation lengths of the zeta and gamma + Re psi sums
_MAX_TERMS = 50_000_000
# subdivision limit of each quadrature panel in s_integral_oracle
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class OracleConfig:
    """Accuracy/effort knobs for the classical evaluators."""

    target_tolerance: float = 1e-13
    shift_threshold: float = 16.0

    def __post_init__(self):
        if not self.target_tolerance >= 1e-15:
            raise ValueError("target_tolerance must be >= 1e-15 in double precision")
        if self.shift_threshold <= 0:
            raise ValueError("shift_threshold must be positive")


DEFAULT_ORACLE = OracleConfig()


def psi_oracle(x: float, cfg: OracleConfig = DEFAULT_ORACLE) -> float:
    """psi(x+1) via the recurrence psi(y+1) = psi(y) + 1/y lifted above
    cfg.shift_threshold, then psi(y) = log y - 1/(2y) - sum B_{2j}/(2j y^{2j})
    truncated at its smallest term (remainder <= first omitted term)."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite (psi_oracle evaluates psi(x+1))")
    y = x + 1.0
    shifts = []
    while y < cfg.shift_threshold:
        shifts.append(1.0 / y)
        y += 1.0
    pieces = [math.log(y), -0.5 / y]
    y2 = y * y
    p = 1.0
    prev = math.inf
    bound = math.inf
    for j in range(1, 32):
        p *= y2
        term = _B_FLOAT[2 * j] / (2 * j * p)
        if abs(term) >= prev:
            bound = abs(term)  # divergence onset: omit this and later terms
            break
        pieces.append(-term)
        prev = abs(term)
        if prev < 1e-18:
            bound = prev
            break
    else:
        bound = prev
    if bound > cfg.target_tolerance:
        raise ToleranceError(
            f"asymptotic remainder {bound:.2e} exceeds target "
            f"{cfg.target_tolerance:.2e}; raise shift_threshold"
        )
    return math.fsum(pieces) - math.fsum(shifts)


@lru_cache(maxsize=None)
def euler_gamma_reference(cfg: OracleConfig = DEFAULT_ORACLE) -> float:
    """Euler's constant from psi(1) = -gamma via the recurrence:
    gamma = 1 - psi_oracle(1) (psi_oracle(1) = psi(2) = 1 - gamma)."""
    return 1.0 - psi_oracle(1.0, cfg)


@lru_cache(maxsize=None)
def _zeta_pieces(s: float, tol: float):
    """(partial_sum, lower_tail, upper_tail, value) for zeta(s), s > 1.

    Tail handled by Euler-Maclaurin from M = N+1:
    integral + f(M)/2 - f'(M)/12 + f'''(M)/720; the value always lies inside
    the integral-tail sandwich [partial + int_{N+1}, partial + int_N].
    """
    N = 16
    while True:
        M = N + 1.0
        # magnitude heuristic for the first omitted Euler-Maclaurin term,
        # with a 10x safety factor
        em_err = 10.0 * s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * M ** (-s - 5) / 30240.0
        if em_err <= 0.5 * tol or N * 2 > _MAX_TERMS:
            break
        N *= 2
    if em_err > 0.5 * tol:
        raise ToleranceError(f"zeta({s}) needs more than {_MAX_TERMS} terms for {tol:.1e}")
    n = np.arange(1, N + 1, dtype=float)
    partial = float(np.sum(n ** (-s)))
    M = N + 1.0
    lower = M ** (1.0 - s) / (s - 1.0)
    upper = float(N) ** (1.0 - s) / (s - 1.0)
    tail = (
        lower
        + 0.5 * M ** (-s)
        + s * M ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * M ** (-s - 3.0) / 720.0
    )
    if not lower <= tail <= upper:
        raise AssertionError("zeta tail left the integral sandwich")
    return partial, lower, upper, partial + tail


def zeta_direct_oracle(s: float, cfg: OracleConfig = DEFAULT_ORACLE) -> float:
    """zeta(s) for s > 1 by direct summation plus Euler-Maclaurin tail,
    bracketed by the two integral-tail bounds."""
    if not s > 1:
        raise ValueError("zeta_direct_oracle requires s > 1")
    return _zeta_pieces(float(s), cfg.target_tolerance)[3]


def psi_maclaurin_oracle(
    x: float, n_terms: int, cfg: OracleConfig = DEFAULT_ORACLE
) -> float:
    """psi(x+1) for |x| < 1 from the alternating zeta power series
    -gamma + sum_{n>=1} (-1)^{n+1} x^n zeta(n+1); truncation error is below
    |x|^{n_terms+1}/(1-|x|) * zeta(2)."""
    if not abs(x) < 1:
        raise ValueError("psi_maclaurin_oracle requires |x| < 1")
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    pieces = [-euler_gamma_reference(cfg)]
    xp = 1.0
    for n in range(1, n_terms + 1):
        xp *= -x
        pieces.append(-xp * zeta_direct_oracle(n + 1, cfg))
    return math.fsum(pieces)


@lru_cache(maxsize=None)
def gamma_plus_re_psi(t: float, cfg: OracleConfig = DEFAULT_ORACLE) -> float:
    """sum_{n>=1} t^2/(n(n^2+t^2)), which equals gamma + Re psi(1+it).

    Direct summation to N plus Euler-Maclaurin tail with exact complex-pair
    derivatives of f(u) = 1/u - Re 1/(u - it); the integral term is
    (1/2) log(1 + t^2/M^2).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    N = max(1024, 8 * int(math.ceil(t)))
    while 0.01 * (N + 1.0) ** -6 > 0.5 * cfg.target_tolerance:
        N *= 2
        if N > _MAX_TERMS:
            raise ToleranceError("gamma_plus_re_psi cannot reach target tolerance")
    n = np.arange(1, N + 1, dtype=float)
    partial = float(np.sum(t * t / (n * (n * n + t * t))))
    M = N + 1.0
    z = complex(M, -t)
    integral = 0.5 * math.log1p((t / M) ** 2)
    f0 = 1.0 / M - (1.0 / z).real
    f1 = -(1.0 / M**2 - (z**-2).real)
    f3 = -6.0 * (1.0 / M**4 - (z**-4).real)
    return partial + integral + f0 / 2.0 - f1 / 12.0 + f3 / 720.0


def re_psi_one_plus_ik(k: float, cfg: OracleConfig = DEFAULT_ORACLE) -> float:
    """Re psi(1+ik) for k > 0, from the gamma-free sum minus reference gamma."""
    if not k > 0:
        raise ValueError("k must be positive")
    return gamma_plus_re_psi(k, cfg) - euler_gamma_reference(cfg)


def im_psi_one_plus_ix(x: float) -> float:
    """Im psi(1+ix) = (pi/2) coth(pi x) - 1/(2x), evaluated exactly as written."""
    if not x > 0:
        raise ValueError("x must be positive")
    return (math.pi / 2.0) / math.tanh(math.pi * x) - 1.0 / (2.0 * x)


def s_integral_oracle(x: float) -> float:
    """The double series' integral form: the integral over u in [0, inf) of
    log|2 sin(pi (x+u))| * sum_k (2 pi k)^2 e^{-2 pi k (x+u)}.

    The k-sum is truncated when (2 pi k)^2 e^{-2 pi k x} < 1e-18, the u-range
    when the remaining envelope is below 1e-18, and the integration is split
    at every u where x+u is an integer (integrable log singularities at panel
    endpoints; per-panel adaptive quadrature with epsabs=1e-13 and
    subdivision limit _QUAD_LIMIT). Estimated error must come out <= 1e-10 or
    the call fails explicitly.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    nearest = round(x)
    if nearest >= 1 and abs(x - nearest) < 1e-6:
        raise ValueError(
            "x within 1e-6 of an integer: quadrature nodes would straddle the "
            "log singularity at u=0; use the series evaluator's integer path"
        )
    # imported here so that importing the package never loads scipy
    from scipy.integrate import quad
    ks = []
    k = 1
    while (_TWO_PI * k) ** 2 * math.exp(-_TWO_PI * k * x) >= 1e-18 and k <= 10_000:
        ks.append(k)
        k += 1
    if not ks:
        return 0.0
    karr = np.asarray(ks, dtype=float)
    w2 = (_TWO_PI * karr) ** 2
    u_max = math.log(4e20 * len(ks)) / _TWO_PI - x
    if u_max <= 0:
        return 0.0

    def integrand(u: float) -> float:
        v = x + u
        s = abs(2.0 * math.sin(math.pi * v))
        if s == 0.0:
            return 0.0
        return math.log(s) * float(np.sum(w2 * np.exp(-_TWO_PI * karr * v)))

    cuts = [0.0]
    m = math.floor(x) + 1
    while m - x < u_max:
        cuts.append(m - x)
        m += 1
    cuts.append(u_max)
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, e = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-11, limit=_QUAD_LIMIT)
        total += val
        err += e
    if err > 1e-10:
        raise ToleranceError(
            f"quadrature error estimate {err:.2e} exceeds 1e-10"
        )
    return total

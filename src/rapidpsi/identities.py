"""Cross-identity verification suites.

Three suites of runnable checks, each returning CheckResult records:

- identities: closed-form values (the csch^2 sum, Lambert sums against
  Bernoulli ratios and their integral twins, odd/even zeta cross-checks, the
  two printed forms of the pole-pair limit);
- equivalence: the three-way agreement between the main series, its
  partial-fraction rearrangement, and the all-arguments identity, plus
  oracle agreement on a fixed quasi-random grid;
- asymptotic: the large-x residual decay and the coefficient cancellation
  that makes the leading log terms close.

Everything is deterministic: fixed grids, fixed summation orders, no RNG.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from . import planner, series
from .bernoulli import BernoulliTable, shared_table
from .oracles import euler_gamma_reference, psi_oracle, re_psi_one_plus_ik, zeta_direct_oracle
from .params import EvalParams, Record

_TWO_PI = 2.0 * math.pi
_EPS = math.ulp(1.0)


class CheckResult(Record):
    """One verified identity: the residual actually measured, the allowance
    it had to stay inside, and the verdict."""

    __slots__ = _fields = ("name", "argument", "residual", "allowance", "passed")

    def __init__(self, name: str, argument: float, residual: float, allowance: float,
                 passed: bool):
        set_name, set_argument, set_residual, set_allowance, set_passed = self._setters
        set_name(self, name)
        set_argument(self, argument)
        set_residual(self, residual)
        set_allowance(self, allowance)
        set_passed(self, passed)


def _abs_check(name: str, argument: float, residual: float, allowance: float) -> CheckResult:
    return CheckResult(name, argument, residual, allowance, abs(residual) <= allowance)


def _default_params() -> EvalParams:
    return EvalParams(tol=1e-12, k_terms=10, n_terms=200000)


def quasi_random_grid(count: int = 50, lo: float = 0.05, hi: float = 25.0):
    """Golden-ratio low-discrepancy points in (lo, hi), guard bands excluded."""
    phi = 0.6180339887498949
    pts = []
    for i in range(1, count + 1):
        x = lo + ((i * phi) % 1.0) * (hi - lo)
        if abs(x - round(x)) > 1.5e-3 or round(x) < 1:
            pts.append(x)
    return pts


def digamma_partial_fraction_rhs(x: float, params: EvalParams) -> float:
    """psi(x+1) + gamma as the partial-fraction rearrangement: the quartic-gap
    k-sum replaces the log terms of the main series, term-for-term in k."""
    pf, _ = series._partial_fraction_gamma_sum(x)
    pieces = [
        0.5 / x,
        -1.0 / (_TWO_PI * x * x),
        math.pi * series._cotpi(x) * series._inv_expm1(_TWO_PI * x),
        pf,
    ]
    for k, q, _ in series._PI_WEIGHTS[: params.k_terms]:
        d = (float(k) * k - x * x) * (float(k) * k + x * x)
        pieces.append(4.0 * k * x * x * q / d)
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# check-only evaluators: closed forms and residuals the fast path never uses


def _power_lambert_sum(
    power: int, scale: float, k_terms: int
) -> tuple[float, float, float, int]:
    """(value, tail bound, rounding bound, last k before underflow) for
    sum_k k^power/(e^{2 scale k}-1) over k <= k_terms, each weight formed
    in its own loop; the Lambert checks of acceptance criterion 3 read
    it, and the fused loop of zeta_odd_general equals it bit for bit."""
    pieces = []
    rounding = 0.0
    for k in range(1, k_terms + 1):
        q = series._inv_expm1(2.0 * scale * k)
        if q == 0.0:
            break
        pieces.append(float(k) ** power * q)
        rounding += pieces[-1] * series._summand_rounding(scale * k, 0.0)
    tail = planner.bound_lambert(power, k_terms + 1, scale)
    return math.fsum(pieces), tail, rounding, len(pieces)


def _lambert_closed_form(m: int, table: BernoulliTable) -> float:
    """B_{2m}/(4m), the shared closed form of the odd-power Lambert sum and
    its integral twin."""
    return float(Fraction(table.values[2 * m]) / (4 * m))


def _lambert_integral(m: int) -> float:
    """Quadrature of the integral twin of sum_k k^{2m-1}/(e^{2 pi k}-1): the
    integrand is the summand with k made continuous. Past t=40 it is below
    1e-100."""
    # imported here so that importing the package never loads scipy
    from scipy.integrate import quad

    integral, _ = quad(
        lambda t: t ** (2 * m - 1) * series._inv_expm1(_TWO_PI * t), 0.0, 40.0, limit=200
    )
    return integral


def lambert_identity_residual(m: int, table: BernoulliTable, params: EvalParams) -> float:
    """sum_k k^{2m-1}/(e^{2 pi k}-1) minus its closed form B_{2m}/(4m), for
    odd m > 1.

    Also evaluates the integral twin (the integrand is formally identical to
    the summand) by quadrature and checks it against the same closed form.
    """
    if m <= 1 or m % 2 == 0:
        raise ValueError("m must be an odd integer > 1")
    if table.max_index < 2 * m:
        raise ValueError(f"table holds B_0..B_{table.max_index}, need B_{2 * m}")
    closed = _lambert_closed_form(m, table)
    integral = _lambert_integral(m)
    if abs(integral - closed) > 1e-10:
        raise AssertionError(
            f"integral twin {integral!r} strays from closed form {closed!r}"
        )
    return _power_lambert_sum(2 * m - 1, math.pi, params.k_terms)[0] - closed


def asymptotic_residual(x: float, params: EvalParams) -> float:
    """psi(x+1) - (pi/3) log x + (pi/2) sum_k log|x^4-k^4|/sinh^2(pi k),
    evaluated on the half-integer sequence x = N + 1/2; decays like 1/(2x)."""
    if not (x >= 1.5 and x % 1.0 == 0.5):
        raise ValueError("x must be N + 1/2 for a positive integer N")
    log_sum = math.fsum(
        planner.log_abs_quartic_gap(float(k), x) * series._csch2(math.pi * k)
        for k in range(1, params.k_terms + 1)
    )
    return psi_oracle(x) - (math.pi / 3.0) * math.log(x) + (math.pi / 2.0) * log_sum


# ---------------------------------------------------------------------------
# suites


def run_identities() -> Iterator[CheckResult]:
    p = _default_params()
    table = shared_table()

    s, tail, _, _ = series._power_csch2_sum(0, math.pi, p.k_terms)
    closed = 1.0 / 6.0 - 1.0 / _TWO_PI
    yield _abs_check("csch2_closed_form", p.k_terms, s + tail - closed, 1e-15)

    lam = _power_lambert_sum(1, math.pi, p.k_terms)[0]
    yield _abs_check("lambert_linear", 1, lam - (1.0 / 24.0 - 1.0 / (8.0 * math.pi)), 1e-15)

    for m in (3, 5):
        closed = _lambert_closed_form(m, table)
        partial = _power_lambert_sum(2 * m - 1, math.pi, p.k_terms)[0]
        yield _abs_check(f"lambert_closed_form_m{m}", m, partial - closed, 1e-14)
        yield _abs_check(f"lambert_integral_m{m}", m, _lambert_integral(m) - closed, 1e-10)

    z3 = series.zeta_odd(1, table, p)
    yield _abs_check("zeta3_vs_direct", 1, z3.value - zeta_direct_oracle(3), 1e-12)

    yield _abs_check("zeta_even_basel", 1, series.zeta_even(1, table) - math.pi**2 / 6.0, 1e-15)
    yield _abs_check(
        "zeta_even_6_vs_direct", 3, series.zeta_even(3, table) - zeta_direct_oracle(6), 1e-13
    )

    # the N->0 limit of the odd-zeta identity, with 2N zeta(2N+1) read as 1
    j0 = float(series._zeta_odd_j_sum(0, table))
    yield _abs_check("zeta_limit_n0", 0, 1.0 + _TWO_PI * (s + tail) - _TWO_PI * j0, 1e-13)

    # the two printed forms of the pole-pair limit are algebraically equal;
    # check them against each other and against the runtime guard form
    for m in (1, 2, 3):
        a = math.pi / (2.0 * math.sinh(math.pi * m) ** 2)
        b = _TWO_PI * math.exp(_TWO_PI * m) / math.expm1(_TWO_PI * m) ** 2
        yield _abs_check(f"pole_pair_limit_forms_m{m}", m, a - b, 16.0 * _EPS * a + 1e-30)
        direct = 1.0 / (2.0 * m * math.expm1(_TWO_PI * m)) - a
        guard = series._guard_pole_pair(m, 0.0)
        yield _abs_check(
            f"pole_pair_guard_form_m{m}", m, guard - direct, 16.0 * _EPS * (abs(direct) + a)
        )


def run_equivalence() -> Iterator[CheckResult]:
    # three-way chain: main series minus partial-fraction rearrangement must
    # equal minus the all-arguments constant, term-for-term in k
    for x in (0.3, 1.7, 4.2):
        p = planner.plan(1e-12, x)
        psi = series.psi_ramanujan(x, p)
        g = series.gamma_any_x(x, p)
        rhs = digamma_partial_fraction_rhs(x, p)
        yield _abs_check(
            "partial_fraction_chain",
            x,
            (psi.value - rhs) + g.value,
            2.0 * (psi.error_estimate + g.error_estimate),
        )

    for x in quasi_random_grid():
        p = planner.plan(1e-12, x)
        psi = series.psi_ramanujan(x, p)
        yield _abs_check(
            "oracle_equivalence", x, psi.value - psi_oracle(x), psi.error_estimate + 1e-12
        )

    g_int = series.gamma_at_integer(2, planner.plan(1e-12, 2.0))
    g_any = series.gamma_any_x(2.5, planner.plan(1e-12, 2.5))
    yield _abs_check(
        "gamma_route_agreement",
        2.5,
        g_int.value - g_any.value,
        g_int.error_estimate + g_any.error_estimate + 1e-14,
    )
    yield _abs_check(
        "gamma_vs_reference", 0.5,
        series.gamma_any_x(0.5, planner.plan(1e-12, 0.5)).value - euler_gamma_reference(),
        1e-11,
    )

    for x in (0.5, 1.5):
        p = planner.plan(1e-12, x)
        r = series.re_psi_complex_ramanujan(x, p)
        yield _abs_check("re_psi_vs_oracle", x, r.value - re_psi_one_plus_ik(x), 1e-10)
        g = series.gamma_any_x(x, p)
        pf, pf_err = series._partial_fraction_gamma_sum(x)
        yield _abs_check(
            "re_psi_gamma_consistency",
            x,
            g.value + r.value - pf,
            g.error_estimate + r.error_estimate + pf_err,
        )


def run_asymptotic() -> Iterator[CheckResult]:
    p = _default_params()

    s, tail, _, _ = series._power_csch2_sum(0, math.pi, p.k_terms)
    yield _abs_check(
        "log_coefficient_cancellation", 0, 1.0 - math.pi / 3.0 + _TWO_PI * (s + tail), 1e-13
    )

    scaled = {n: (n + 0.5) * abs(asymptotic_residual(n + 0.5, p)) for n in (2, 5, 10, 20)}
    yield CheckResult(
        "residual_no_growth",
        20.5,
        scaled[20] - 2.0 * scaled[2],
        0.0,
        scaled[20] <= 2.0 * scaled[2],
    )

    r10 = abs(asymptotic_residual(10.5, p))
    r20 = abs(asymptotic_residual(20.5, p))
    ceiling = r10 * (1.05 * 10.5 / 20.5)
    yield CheckResult("residual_decay", 20.5, r20 - ceiling, 0.0, r20 <= ceiling)


_SUITE_RUNS = {
    "identities": (run_identities,),
    "equivalence": (run_equivalence,),
    "asymptotic": (run_asymptotic,),
    "all": (run_identities, run_equivalence, run_asymptotic),
}
SUITES = tuple(_SUITE_RUNS)


def run_suite(name: str) -> Iterator[CheckResult]:
    """The checks of the named suite, each run when it is drawn."""
    if name not in _SUITE_RUNS:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITES}")
    return (check for run in _SUITE_RUNS[name] for check in run())

"""The error_estimate contract of the public evaluators against mpmath.

One table drives the sweep of the psi family: each row names an evaluator
and its 40-digit mpmath truth. Every row runs over the same arguments
(log-spaced from 1e-12 to 1e12, 1e100 and 1e300, both edges and the middles
of the guard bands around the integers the lifts land near, those integers
themselves and 2^52, 1e-5 and 1e-300, and the lift target 16 with its
neighbours) at each tol, with planned counts and with hand-built ones, and
every evaluator admits every one of them. Euler's constant at integers and
the two zeta(2N+1) evaluators, whose arguments are not x, have rows of their
own over the same tols, and so does the double series S, whose truth needs
a precision that grows with x.
"""

import functools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rapidpsi import double_series, planner, series
from rapidpsi.bernoulli import build_bernoulli_table, shared_table
from rapidpsi.errors import ToleranceError
from rapidpsi.params import MAX_GAMMA_M, EvalParams, ModularPair

mpmath = pytest.importorskip("mpmath")

DELTA = EvalParams.guard_delta
Y = series._Y_MOMENT

# the contract points, kept whole: log-spaced over 1e-12..1e12 and beyond;
# both edges and the middle of each half of the guard bands around the
# integers where lifts land (16 and 17 among them); those integers, 2^52
# (from which every double is an integer), 1e-5 and 1e-300 (which lift to
# just above 16), the lift target 16 itself and its neighbours
CONTRACT_X = (
    [10.0 ** (e / 4) for e in range(-48, 49)]
    + [1e100, 1e300]
    + [
        m + s * f * DELTA
        for m in (1, 2, 3, 7, 8, 15, 16, 17, 100)
        for s in (-1, 1)
        for f in (0.5, 0.99, 1.01)
    ]
    + [1.0, 2.0, 3.0, 7.0, 15.0, 17.0, 100.0, 2.0**52, 1e-5, 1e-300]
    + [Y - 1e-9, Y, Y + 1e-9]
)
TOLS = (1e-6, 1e-9, 1e-12, 1e-15)
# K = 1 leaves k = 2 on to the closed tails; 7 is the cap; 8, 111 and 6000
# are cut to 7
HAND_K = (1, 7, 8, 111, 6000)

ROWS = {
    "psi": (series.psi_ramanujan, lambda x: mpmath.digamma(mpmath.mpf(x) + 1)),
    "re_psi": (
        series.re_psi_complex_ramanujan,
        lambda x: mpmath.digamma(mpmath.mpc(1, x)).real,
    ),
    "gamma_any_x": (series.gamma_any_x, lambda x: +mpmath.euler),
    "psi_prime": (series.psi_prime_ramanujan, lambda x: mpmath.psi(1, mpmath.mpf(x) + 1)),
}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("row", sorted(ROWS))
def test_contract_against_mpmath(row, tol):
    # no x is refused: a raise at any point fails the row
    evaluate, truth = ROWS[row]
    with mpmath.workdps(40):
        for x in CONTRACT_X:
            planned = planner.plan(tol, x)
            first = evaluate(x, planned)
            exact = truth(x)
            runs = [planned] + [EvalParams(tol=tol, k_terms=k) for k in HAND_K]
            for p in runs:
                sv = first if p is planned else evaluate(x, p)
                assert abs(mpmath.mpf(sv.value) - exact) <= sv.error_estimate, (x, p)
                assert (sv.k_used, sv.n_used) == (min(p.k_terms, series._K_CAP), 0)
            # tol 1e-15 is below the rounding floor of the summed magnitude
            if tol >= 1e-12:
                assert first.error_estimate <= tol, x


def _ulps(x: float, n: int) -> float:
    """x moved n ulps up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else 0.0)
    return x


# psi(x+1) vanishes at X0, so the closing fsum cancels its pieces (log y, the
# series and the harmonic sum h) all the way: the value is ~0 and the
# estimate almost all rounding allowance. The ulp and 1e-9 neighbours cross
# the zero, and 5e-324, the smallest double, lifts by the full shift 16
X0 = 0.46163214496836236
CANCELLATION_X = [_ulps(X0, n) for n in (-2, -1, 0, 1, 2)] + [X0 - 1e-9, X0 + 1e-9, 5e-324]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("row", ["psi", "psi_prime"])
def test_contract_where_the_close_cancels_most(row, tol):
    evaluate, truth = ROWS[row]
    with mpmath.workdps(40):
        for x in CANCELLATION_X:
            exact = truth(x)
            planned = planner.plan(tol, x)
            for p in [planned] + [EvalParams(tol=tol, k_terms=k) for k in HAND_K]:
                sv = evaluate(x, p)
                assert abs(mpmath.mpf(sv.value) - exact) <= sv.error_estimate, (x, p)
                if p is planned and tol >= 1e-12:
                    assert sv.error_estimate <= tol, x
    if row == "psi":
        # the zero's neighbours straddle it, so the cancellation is real
        with mpmath.workdps(40):
            assert truth(X0 - 1e-9) < 0 < truth(X0 + 1e-9)
            assert abs(truth(X0)) < 1e-15


# gamma_at_integer sums at n = max(m, 16): every m below, at and past the lift
# target, 119 and 120 where the former double series at m ran out, and the cap
GAMMA_M = list(range(1, 41)) + [100, 119, 120, 1000, MAX_GAMMA_M]


@pytest.mark.parametrize("tol", TOLS)
def test_gamma_at_integer_contract_against_mpmath(tol):
    with mpmath.workdps(40):
        exact = +mpmath.euler
        for m in GAMMA_M:
            planned = planner.plan(tol, float(m))
            first = series.gamma_at_integer(m, planned)
            for p in [planned] + [EvalParams(tol=tol, k_terms=k) for k in HAND_K]:
                sv = first if p is planned else series.gamma_at_integer(m, p)
                assert abs(mpmath.mpf(sv.value) - exact) <= sv.error_estimate, (m, p)
                assert (sv.k_used, sv.n_used) == (min(p.k_terms, series._K_CAP), 0)
            if tol >= 1e-12:
                assert first.error_estimate <= tol, m


@pytest.mark.parametrize("tol", TOLS)
def test_zeta_odd_contract_against_mpmath(tol):
    # every N the shared B_0..B_90 table allows; k_terms 1 leaves k >= 2 to
    # the closed tails, and from 111 on the weights have underflowed
    table = shared_table()
    with mpmath.workdps(40):
        for N in range(1, 45):
            exact = mpmath.zeta(2 * N + 1)
            for k_terms in (1, 10, 111, 6000):
                zv = series.zeta_odd(N, table, EvalParams(tol=tol, k_terms=k_terms))
                assert abs(mpmath.mpf(zv.value) - exact) <= zv.error_estimate, (N, k_terms)
                assert (zv.k_used, zv.n_used) == (min(k_terms, 111), 0)


@pytest.mark.parametrize("tol", TOLS)
def test_zeta_odd_general_contract_against_mpmath(tol):
    # alpha from pi/1000 to 1000 pi; where the slower scale needs more than
    # MAX_K_TERMS terms the call raises ToleranceError, which happens only at
    # tol 1e-15, at pi/1000 and 1000 pi, for every N and k_terms. Summed at
    # the smaller member of the pair, every estimate meets tol 1e-6 and 1e-9;
    # at 1e-12 the rounding of the identity still exceeds tol at 48 of the
    # 150 points with N <= 12, all with min(alpha, beta) < pi/100
    table = shared_table()
    capped = 0
    above = set()
    with mpmath.workdps(40):
        for i in range(-12, 13):
            pair = ModularPair.from_alpha(math.pi * 10.0 ** (i / 4.0))
            for N in (1, 2, 3, 5, 8, 12, 20, 44):
                exact = mpmath.zeta(2 * N + 1)
                for k_terms in (1, 10, 111):
                    p = EvalParams(tol=tol, k_terms=k_terms)
                    try:
                        zv = series.zeta_odd_general(N, pair, table, p)
                    except ToleranceError:
                        capped += 1
                        continue
                    assert abs(mpmath.mpf(zv.value) - exact) <= zv.error_estimate, (i, N, k_terms)
                    if zv.error_estimate > tol:
                        above.add((i, N))
    assert capped == (48 if tol == 1e-15 else 0)
    if tol >= 1e-9:
        assert not above
    elif tol == 1e-12:
        assert sum(N <= 12 for _, N in above) <= 48


# the double series S: four points per decade from 1e-3 to 100 and 118; the
# integers, where its inner sums collapse; both sides of the guard bands of
# R(x) - psi(x+1) below 3 and of the direct sum above it; both sides of 3;
# past ~118.6, where e^{-2 pi x} underflows but S is not 0; and its floor,
# where S is -8.93e307, with 1e-153 just above it
S_CONTRACT_X = (
    [10.0 ** (e / 4) for e in range(-12, 9)]
    + [118.0, 1.0, 2.0, 3.0, 4.0, 7.0, 16.0, 17.0, 100.0]
    + [m + s * f * DELTA for m in (1, 2, 3, 7) for s in (-1, 1) for f in (0.5, 0.99, 1.01)]
    + [3.0 - 1e-9, 3.0 + 1e-9, 3.0123, 3.5, 118.6, 119.3, 130.3]
    + [double_series.S_FLOOR, 1e-153]
)


@functools.lru_cache(maxsize=None)
def _s_truth(x):
    """S(x) at 40 + ceil(2.73 x) digits, which resolve e^{-2 pi x}: at an
    integer m -2 pi sum_k e^{-2 pi k m} k (gamma + Re psi(1+ik)), elsewhere
    R(x) - psi(x+1) with R the non-S part of the representation
    (test_series.py's _r_of_x_mpmath). Every k-sum runs past k = x + 19,
    where its terms fall below e^{-2 pi x} 1e-50."""
    with mpmath.workdps(40 + math.ceil(2.73 * x)):
        xx, pi = mpmath.mpf(x), mpmath.pi
        if x == round(x):
            rows = (mpmath.euler + mpmath.digamma(mpmath.mpc(1, k)).real for k in range(1, 20))
            return -2 * pi * mpmath.fsum(
                k * mpmath.exp(-2 * pi * k * xx) * row for k, row in enumerate(rows, 1)
            )
        v = pi / 3 * mpmath.log(xx) + 1 / (2 * xx) - 1 / (4 * pi * xx * xx)
        v += pi * mpmath.cot(pi * xx) / mpmath.expm1(2 * pi * xx)
        v += pi / 2 * mpmath.log(abs(2 * mpmath.sin(pi * xx))) * mpmath.csch(pi * xx) ** 2
        for k in range(1, math.ceil(x) + 20):
            v += 2 * k / (mpmath.expm1(2 * pi * k) * (k * k - xx * xx))
            v -= pi / 2 * mpmath.log(abs(k**4 - xx**4)) * mpmath.csch(pi * k) ** 2
        return v - mpmath.digamma(xx + 1)


@pytest.mark.parametrize("tol", TOLS)
def test_double_series_contract_against_mpmath(tol):
    # only the estimate is asked, not that it meets tol: near 0 it exceeds
    # tol (929x at x = 1e-3 and tol 1e-12). Past the underflow S is 0 with
    # the envelope's floor 20 ulp(0.0) as its estimate
    for x in S_CONTRACT_X:
        sv = series.double_series_S(x, planner.plan(tol, x))
        truth = _s_truth(x)
        with mpmath.workdps(40 + math.ceil(2.73 * x)):
            assert abs(mpmath.mpf(sv.value) - truth) <= sv.error_estimate, x


@pytest.mark.parametrize(
    "x", [7.88e-154, 2e-154, 1e-154, 1e-155, 1e-160, 4e-163, 1e-300, 5e-324]
)
def test_double_series_below_its_floor_is_refused(x):
    # below S_FLOOR S, or a piece of it, leaves the double range: one
    # ToleranceError that names the floor, not an overflow deep in the sum
    assert x < double_series.S_FLOOR
    with pytest.raises(ToleranceError, match="7.9e-154"):
        series.double_series_S(x, planner.plan(1e-12, x))


@pytest.mark.parametrize(
    "x, tol", [(1.00101, 1e-3), (2.00101, 1e-3), (0.99899, 1e-6)]
)
def test_planned_psi_prime_estimate_is_within_tol_past_the_planned_count(x, tol):
    # the lifted argument of the former k-loop lay within ~1e-3 of
    # k_terms + 1, whose term grows like 1/guard_delta^2; the moment form
    # lifts to 16, where no summed index is near
    sv = series.psi_prime_ramanujan(x, planner.plan(tol, x))
    assert sv.error_estimate <= tol
    with mpmath.workdps(40):
        truth = mpmath.psi(1, mpmath.mpf(x) + 1)
        assert abs(mpmath.mpf(sv.value) - truth) <= sv.error_estimate


def test_hand_built_counts_past_the_cap_sum_what_the_cap_sums():
    # k_terms from 8 to 6000 take K = 7 and lift to 16, as the planned count
    # at MIN_TOL does; K = 111 lifted psi(1e-8) to 224
    for x in (1e-8, 0.3, 2.5, 16.5, 1e6 + 0.5):
        for evaluate, _ in ROWS.values():
            capped = evaluate(x, EvalParams(tol=1e-15, k_terms=7))
            for k in (8, 111, 6000):
                assert evaluate(x, EvalParams(tol=1e-15, k_terms=k)) == capped
    assert max(planner.plan(1e-15, x).k_terms for x in (1e-300, 1.0, 1e300, 1.7e308)) == 7


def test_moment_form_third_order_coefficient_is_one_sixth():
    # psi'(y+1) = 1/y - 1/(2y^2) + (1/(2 pi) + 4 M_1)/y^3 + ...: the Lambert
    # sum M_1 = 1/24 - 1/(8 pi) makes it 1/6, up to its k > 7 tail
    # read as the u coefficient of psi''s table, whose last entry it is
    form = series._moment_form(series._PRIME, series._K_CAP, 1e-15)
    assert abs(form.coeffs[-1] - 1.0 / 6.0) <= 1e-16


TAIL_PASSES = ("bound_psi_k_sum", "bound_log_csch2")
COROLLARIES = ("re_psi_complex_ramanujan", "gamma_any_x", "psi_prime_ramanujan", "gamma_at_integer")


@pytest.mark.parametrize("evaluator", COROLLARIES)
def test_corollaries_take_the_moment_core_path(monkeypatch, fresh_gamma_16, evaluator):
    # none sums the double series (nor loads its module, which
    # test_corollary_round_imports_no_numpy checks in a fresh process), and
    # from the lift target on none makes a tail pass; gamma_at_integer makes
    # none at any m. gamma at 16 is cached, so the cache is cleared once the
    # passes are banned, and every banned call computes it afresh
    reached = []

    def banned(name):
        def call(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{evaluator} reached {name}")

        return call

    monkeypatch.setattr(series, "double_series_S", banned("double_series_S"))
    evaluate = getattr(series, evaluator)
    if evaluator == "gamma_at_integer":
        for name in TAIL_PASSES:
            monkeypatch.setattr(planner, name, banned(name))
        series._gamma_at_16.cache_clear()
        for m in (1, 2, 15, 16, 17, 100, 120, MAX_GAMMA_M):
            for tol in TOLS:
                evaluate(m, planner.plan(tol, float(m)))
        assert reached == []
        return
    for x in (0.01, 0.3, 0.7, 1.5, 2.5, 7.3, 15.5):
        evaluate(x, planner.plan(1e-12, x))
    for name in TAIL_PASSES:
        monkeypatch.setattr(planner, name, banned(name))
    series._gamma_at_16.cache_clear()
    for x in (Y + 0.25, 16.5, 100.25, 1e12 + 0.5, 1e15 + 0.25):
        for tol in TOLS:
            evaluate(x, planner.plan(tol, x))
    # gamma_any_x and psi' lift every argument to 16 or more, and Re psi
    # below 16 sums psi's form at 16
    for x in (0.01, 0.3, 2.5, 15.5):
        evaluate(x, planner.plan(1e-12, x))
    assert reached == []


def test_corollary_round_imports_no_numpy():
    # one operation of psi and of each corollaries-workload evaluator, in a
    # fresh process, loads neither numpy nor rapidpsi.double_series; a
    # double_series_S call then loads the latter
    src = str(Path(series.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from rapidpsi import planner, series\n"
        "from rapidpsi.bernoulli import shared_table\n"
        "from rapidpsi.params import EvalParams, ModularPair\n"
        "p = planner.plan(1e-12, 0.5)\n"
        "series.psi_ramanujan(0.5, p)\n"
        "series.psi_ramanujan(20.5, planner.plan(1e-12, 20.5))\n"
        "series.gamma_any_x(0.5, p)\n"
        "series.gamma_at_integer(2, planner.plan(1e-12, 2.0))\n"
        "series.re_psi_complex_ramanujan(0.5, p)\n"
        "series.re_psi_complex_ramanujan(20.5, planner.plan(1e-12, 20.5))\n"
        "series.psi_prime_ramanujan(0.5, p)\n"
        "series.zeta_odd(3, shared_table(), EvalParams(tol=1e-12))\n"
        "pair = ModularPair.from_alpha(2.0)\n"
        "series.zeta_odd_general(3, pair, shared_table(), EvalParams(tol=1e-12))\n"
        "print([m in sys.modules for m in ('numpy', 'rapidpsi.double_series')])\n"
        "series.double_series_S(0.5, p)\n"
        "print('rapidpsi.double_series' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[False, False]", "True"]


def _d_term(k, x):
    """The k-th term of D's k-sum, 4k x^2 q_k/((k - x)(k + x)(k^2 + x^2))."""
    pi = mpmath.pi
    return 4 * k * x * x / (mpmath.expm1(2 * pi * k) * (k - x) * (k + x) * (k * k + x * x))


def _prime_k_term(k, y):
    return 4 * k * y / (mpmath.expm1(2 * mpmath.pi * k) * (k * k - y * y) ** 2)


def _prime_csch_term(k, y):
    """What psi''s moment form leaves of the k-th csch^2 term
    2 pi y^3 csch^2(pi k)/(k^4 - y^4) once its -(2 pi/y) csch^2(pi k) is in
    the exact 1/y."""
    return 2 * mpmath.pi * k**4 * mpmath.csch(mpmath.pi * k) ** 2 / (y * (k**4 - y**4))


def test_corollary_dropped_terms_within_their_charges():
    # at every y >= 16, in a guard band or not: D's cot piece and its k-sum
    # from floor(y) on within _D_FAR; psi''s csc^2 piece and both its k-sums
    # from floor(y) on within _PRIME_FAR; and the K < k <= y - 1 terms within
    # their closed tails, in 80-digit mpmath. The pole pairs are taken 1e-15
    # from the integers, where their terms cancel to ~1e-50 of themselves
    with mpmath.workdps(80):
        pi = mpmath.pi
        near = [m + s * mpmath.mpf("1e-15") for m in (16, 17, 100) for s in (-1, 1) if m + s >= 16]
        for y in [16 + DELTA / 2, 16.3, 16.5, 17 - DELTA / 2, 17 + DELTA / 2, 20.25, 100.5] + near:
            yy = mpmath.mpf(y)
            ks = range(int(mpmath.floor(yy)), int(mpmath.floor(yy)) + 40)
            q_y = 1 / mpmath.expm1(2 * pi * yy)
            d_far = -pi * mpmath.cot(pi * yy) * q_y - mpmath.fsum(_d_term(k, yy) for k in ks)
            assert abs(d_far) <= series._D_FAR, y
            prime_far = -(pi**2) * q_y / mpmath.sin(pi * yy) ** 2
            prime_far += mpmath.fsum(_prime_k_term(k, yy) + _prime_csch_term(k, yy) for k in ks)
            assert abs(prime_far) <= series._PRIME_FAR, y
        for k_cut in range(1, series._K_CAP + 1):
            mom = series._moments(k_cut)
            f = k_cut + 1
            for y in (16.0, 16.5, 40.25):
                yy = mpmath.mpf(y)
                ks = range(f, math.floor(y))
                g = (y - f) * (y + f)
                s = (f / y) ** 4
                assert mpmath.fsum(abs(_d_term(k, yy)) for k in ks) <= 2 * mom.a / g
                k_tail = series._PRIME_A * mom.a * 2 * y / (g * g)
                assert mpmath.fsum(abs(_prime_k_term(k, yy)) for k in ks) <= k_tail
                csch_tail = 4 / y * mom.b * s / (1 - s)
                assert mpmath.fsum(abs(_prime_csch_term(k, yy)) for k in ks) <= csch_tail


def _psi_k_term(k, y):
    return 2 * k / (mpmath.expm1(2 * mpmath.pi * k) * (k * k - y * y))


def _psi_log_term(k, y):
    pi = mpmath.pi
    return -pi / 2 * mpmath.log(abs(1 - (mpmath.mpf(k) / y) ** 4)) * mpmath.csch(pi * k) ** 2


def _form_tails(form, y):
    """The two closed k > K tails of form's bound at y (_moment_sum)."""
    t_a, t_b, squared = form.tails
    u = 1.0 / (y * y)
    w = form.f2 * u
    near = (1.0 - w) ** (2 if squared else 1)
    return t_a * u / near, t_b * w * w / (1.0 - w * w)


def _form_bound(form, y):
    """The bound's parts at y, summed: every family's remainder from its
    first omitted term, both closed tails and the rounding mass u (the 1e-12
    on the remainders aside)."""
    c_1, p_1, c_2, p_2, c_3, p_3 = form.omitted
    rho_1, rho_2 = form.ratios
    u = 1.0 / (y * y)
    parts = [
        c_1 * u**p_1 / (1.0 - rho_1 * u),
        c_2 * u**p_2 / (1.0 - rho_2 * u * u),
        c_3 * u**p_3 / (1.0 - rho_2 * u * u),
        *_form_tails(form, y),
        form.mass * u,
    ]
    return math.fsum(parts)


def test_moment_sum_bound_is_its_remainders_tails_and_rounding():
    # the bound is those parts, and nothing else, at y below 32 and from 32
    # on at the lower end 2^(e-1) of y's binade (2^64 past it), where its
    # cell is taken, and so at least the same parts at y itself
    for family in (series._PSI, series._RE_PSI, series._PRIME):
        for k_cut in range(1, series._K_CAP + 1):
            for tol in (1e-6, 1e-12, 1e-15):
                form = series._moment_form(family, k_cut, tol)
                for y in (16.0, 20.5, 40.25, 1e3, 2.0**64 * 3, 1e300):
                    lower = y if y < 32.0 else 2.0 ** min(math.frexp(y)[1] - 1, 64)
                    total = _form_bound(form, lower)
                    bound = series._moment_sum(form, y)[1]
                    assert total * (1 - 1e-13) <= bound <= total * (1 + 2e-12), (family, k_cut, tol, y)
                    assert _form_bound(form, y) * (1 - 1e-13) <= bound, (family, k_cut, tol, y)


def test_moment_form_tails_bound_each_familys_dropped_terms():
    # each form's closed tails, as its table holds them, bound the k > K
    # terms up to y - 1 of the families they stand for, in 80-digit mpmath:
    # psi's k-sum and log family, Re psi's k-sum with D's terms, and y psi''s
    # k-sum (squared denominator) and csch^2 family
    with mpmath.workdps(80):
        for k_cut in range(1, series._K_CAP + 1):
            ks = lambda y: range(k_cut + 1, math.floor(y))  # noqa: E731
            for y in (16.0, 16.5, 40.25):
                yy = mpmath.mpf(y)
                k_sum = mpmath.fsum(abs(_psi_k_term(k, yy)) for k in ks(y))
                log = mpmath.fsum(abs(_psi_log_term(k, yy)) for k in ks(y))
                d_sum = mpmath.fsum(abs(_d_term(k, yy)) for k in ks(y))
                prime_k = yy * mpmath.fsum(abs(_prime_k_term(k, yy)) for k in ks(y))
                prime_c = yy * mpmath.fsum(abs(_prime_csch_term(k, yy)) for k in ks(y))
                expected = {
                    series._PSI: (k_sum, log),
                    series._RE_PSI: (k_sum + d_sum, log),
                    series._PRIME: (prime_k, prime_c),
                }
                for family, (a_part, b_part) in expected.items():
                    tail_a, tail_b = _form_tails(series._moment_form(family, k_cut, 1e-12), y)
                    assert a_part <= tail_a and b_part <= tail_b, (family, k_cut, y)


def _family_terms(family, k_cut):
    """{power of u: [terms]} of a moment form, its constant first and then
    each j-family in _moment_form's order, from _moments, for j <= _J_CAP."""
    mom = series._moments(k_cut)
    m, l4, n = mom.m, mom.l4, series._J_CAP + 1
    pi = math.pi
    if family == series._PRIME:
        constant = 1.0 / (2.0 * pi)
        families = [
            [(j + 1, 4.0 * ((j + 1) * m[j])) for j in range(n)],
            [(2 * j + 2, -2.0 * pi * l4[j]) for j in range(n)],
        ]
    else:
        constant = -1.0 / (4.0 * pi) if family == series._PSI else 1.0 / (4.0 * pi)
        families = [
            [(j + 1, -2.0 * m[j]) for j in range(n)],
            [(2 * j + 2, (pi / 2.0) * l4[j] / (j + 1)) for j in range(n)],
        ]
        if family == series._RE_PSI:
            families.append([(2 * j + 1, 4.0 * m[2 * j]) for j in range(n)])
    return constant, families


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("family", [series._PSI, series._RE_PSI, series._PRIME])
def test_moment_form_table_partitions_each_family(family, tol):
    # every term of each family up to the degree is summed in its power's
    # coefficient, and the first term past it is the one the table charges
    for k_cut in range(1, series._K_CAP + 1):
        form = series._moment_form(family, k_cut, tol)
        degree = len(form.coeffs)
        constant, families = _family_terms(family, k_cut)
        coeffs = [constant] + [0.0] * (degree - 1)
        omitted = []
        for terms in families:
            kept = [(p, c) for p, c in terms if p <= degree]
            for p, c in kept:
                coeffs[p - 1] += c
            p, c = terms[len(kept)]
            omitted += [abs(c), p]
        omitted += [0.0, 0] * (3 - len(families))
        assert form.coeffs == tuple(reversed(coeffs))
        assert form.omitted == tuple(omitted)


def test_moment_sum_rounding_within_the_mass_charge():
    # the Horner pass over the table's own coefficients, at fl(1/(y y)),
    # lands within mass u of the exact polynomial at the exact u
    ys = [16.0 * 1.37**i for i in range(60)] + [16.0 + i / 7.0 for i in range(1, 60)]
    with mpmath.workdps(60):
        for family in (series._PSI, series._RE_PSI, series._PRIME):
            for tol in (1e-6, 1e-15):
                form = series._moment_form(family, series._K_CAP, tol)
                degree = len(form.coeffs)
                for y in ys:
                    value = series._moment_sum(form, y)[0]
                    u = 1 / mpmath.mpf(y) ** 2
                    exact = mpmath.fsum(c * u ** (degree - i) for i, c in enumerate(form.coeffs))
                    assert abs(value - exact) <= form.mass / (y * y), (family, tol, y)


@pytest.mark.parametrize(
    "evaluator, arg",
    [
        ("psi_ramanujan", 0.3),
        ("psi_ramanujan", 1e6 + 0.5),
        ("re_psi_complex_ramanujan", 0.3),
        ("re_psi_complex_ramanujan", 1e6 + 0.5),
        ("psi_prime_ramanujan", 0.3),
        ("psi_prime_ramanujan", 1e6 + 0.5),
        ("gamma_any_x", 0.3),
        ("gamma_at_integer", 2),
    ],
)
def test_each_evaluator_charges_its_forms_far_constant(monkeypatch, fresh_gamma_16, evaluator, arg):
    # a form whose far constant is 1 moves the estimate by 1: every
    # evaluator adds its form's far, unscaled, to its bound (gamma at 16 is
    # cached, so it is cleared once more before the patched call)
    p = planner.plan(1e-12, float(arg))
    evaluate = getattr(series, evaluator)
    plain = evaluate(arg, p)
    series._gamma_at_16.cache_clear()
    table = series._moment_form

    def with_far_one(family, k, tol):
        form = table(family, k, tol)
        return series._MomentForm(*[1.0 if f == "far" else getattr(form, f) for f in form._fields])

    monkeypatch.setattr(series, "_moment_form", with_far_one)
    charged = evaluate(arg, p)
    assert charged.value == plain.value
    assert abs(charged.error_estimate - plain.error_estimate - 1.0) <= 1e-12


def test_d_tail_below_the_lift_target_within_twice_the_k_sum_tail():
    # below 16 D's k > K terms are each at most twice the k-sum term, so
    # twice bound_psi_k_sum bounds them, also just outside the guard bands
    # where the near terms peak, and inside them with the paired k = m
    # skipped, as a pole-cancelled guard pair skips it
    xs = [0.01, 0.3, 1.7, 3.3, 7.9, 12.5, 15.5]
    xs += [m + s * f * DELTA for m in (1, 2, 5, 8, 15) for s in (-1, 1) for f in (0.5, 1.01)]
    xs += [1.0, 8.0, 15.0]
    with mpmath.workdps(40):
        for x in xs:
            xx = mpmath.mpf(x)
            m = planner._guard_index(x, DELTA)
            for first in range(1, 10):
                ks = [k for k in range(first, first + 60) if k != m]
                brute = mpmath.fsum(abs(_d_term(k, xx)) for k in ks)
                assert brute <= 2 * planner.bound_psi_k_sum(first, x, DELTA, m), (x, first)


def _em_weights_exact() -> list:
    """B_2j/(2j) for j = 1..8, the Euler-Maclaurin weights of P, as exact
    Fractions from the Bernoulli table."""
    values = build_bernoulli_table(16).values
    return [values[2 * j] / (2 * j) for j in range(1, 9)]


def test_euler_maclaurin_weights_are_the_bernoulli_ratios():
    # each weight, through f^(15), is the double nearest its exact ratio
    assert series._EM_WEIGHTS == tuple(float(w) for w in _em_weights_exact())


def test_pf_remainder_covers_its_remainder_and_rounding():
    # in Fractions: the Euler-Maclaurin remainder past f^(15),
    # |B_16|/(8 M^16), and the rounding of the corrections,
    # 34 u sum_j j |w_j| M^-2j with u = eps/2, each derived beside the
    # constant and in _pf_body; and the charge exceeds the 1/(66 * 32^10) it
    # replaced (|B_10|/(5 M^10) at M = 32) by at most 1e-18
    weights = _em_weights_exact()
    m = Fraction(series._PF_M)
    remainder = abs(16 * weights[-1]) / (8 * m**16)
    u = Fraction(math.ulp(1.0)) / 2
    rounding = 34 * u * sum(j * abs(w) / m ** (2 * j) for j, w in enumerate(weights, 1))
    assert Fraction(series._PF_REMAINDER) >= remainder + rounding
    assert series._PF_REMAINDER <= float(Fraction(1, 66 * 32**10)) + 1e-18


# four y per decade over the whole range and its ends, the earlier points
# around 32, the direct terms' end M = 12 and its neighbours (where
# CPython's complex division switches branch), and [1e-3, 1], where P's
# Euler-Maclaurin corrections cancel most
PF_Y = [10.0 ** (e / 4) for e in range(-1200, 1201)] + [5e-324, 0.5, 3.0, 16.0, 31.5, 32.0, 33.0, 1.7e308]
PF_Y += [12.0 - 1e-9, 12.0, 12.0 + 1e-9] + [1e-3 + i * (1.0 - 1e-3) / 40 for i in range(41)]


def test_partial_fraction_sum_within_its_error_at_any_x():
    # Euler-Maclaurin from 12 on, in forms that neither overflow nor cancel:
    # at 50 digits P(y) lies within its error, and its body (P less the
    # integral term from M) within _PF_REMAINDER plus the 4 eps of itself
    # that _close charges a piece, since the corrections' rounding is the
    # remainder's to pay
    with mpmath.workdps(50):
        m = mpmath.mpf(series._PF_M)
        for y in PF_Y:
            yy = mpmath.mpf(y)
            truth = mpmath.digamma(mpmath.mpc(1, yy)).real + mpmath.euler
            value, err = double_series._partial_fraction_gamma_sum(y)
            assert abs(mpmath.mpf(value) - truth) <= err, y
            assert err <= 4e-15 * max(1.0, math.log(y)), y
            body = series._pf_body(y)
            exact = truth - mpmath.log1p((yy / m) ** 2) / 2
            assert abs(mpmath.mpf(body) - exact) <= series._PF_REMAINDER + 4.0 * planner._EPS * body, y

"""Series engine: digamma and trigamma evaluation, the exponential double
series, Euler-gamma routes, odd zeta values, and the hyperbolic identities.

Expected values come from three independent sources: the classical recurrence
oracles, quadrature of the integral form of the double series, and literature
decimals for zeta at small odd integers.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from fractions import Fraction

from rapidpsi import identities, planner, series
from rapidpsi.bernoulli import (
    BernoulliTable,
    bernoulli_over_factorial,
    build_bernoulli_table,
    shared_table,
)
from rapidpsi.errors import GuardBandError, ToleranceError
from rapidpsi.oracles import (
    DEFAULT_ORACLE,
    euler_gamma_reference,
    gamma_plus_re_psi,
    psi_oracle,
    re_psi_one_plus_ik,
    s_integral_oracle,
    zeta_direct_oracle,
)
from rapidpsi.params import MAX_GAMMA_M, EvalParams, ModularPair

TABLE = build_bernoulli_table(20)
P12 = EvalParams(tol=1e-12, k_terms=12, n_terms=200000)
P_PRIME = EvalParams(tol=1e-12, k_terms=12, n_terms=16)

# literature decimals, correctly rounded
ZETA_ODD_REF = {1: 1.2020569031595942854, 2: 1.0369277551433699263, 3: 1.0083492773819228268}
TWO_LOG2 = 2.0 * math.log(2.0)


def _planned(x: float, tol: float = 1e-12):
    return series.psi_ramanujan(x, planner.plan(tol, x))


# ---------------------------------------------------------------- digamma


@pytest.mark.parametrize("x", [0.25, 0.5, 0.9, 1.5, 2.75, 4.2, 10.3, 25.0, 100.0])
def test_psi_matches_oracle(x):
    sv = _planned(x)
    assert abs(sv.value - psi_oracle(x)) <= sv.error_estimate + 1e-13
    assert sv.error_estimate <= 2e-12


def test_psi_half_integer_closed_form():
    # psi(3/2) = 2 - gamma - 2 log 2, so the x = 1/2 evaluation has an exact target
    target = 2.0 - euler_gamma_reference() - TWO_LOG2
    assert abs(_planned(0.5).value - target) <= 1e-13


def test_psi_at_exact_integer_uses_guard_limits():
    # psi(2) = 1 - gamma
    assert abs(_planned(1.0).value - 0.42278433509846713) <= 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("off", [-9.9e-4, -5e-4, 0.0, 5e-4, 9.9e-4, -1.01e-3, 1.01e-3, 2e-3])
def test_psi_accuracy_through_guard_band(m, off):
    x = m + off
    sv = _planned(x)
    assert abs(sv.value - psi_oracle(x)) <= sv.error_estimate + 1e-13


def test_psi_continuous_across_guard_boundary():
    # route switch at |x - m| = guard_delta must not move the value visibly
    for m in (1, 2, 3):
        d = planner.plan(1e-12, float(m)).guard_delta
        xs = [m - 1.01 * d, m - 0.5 * d, m + 0.5 * d, m + 1.01 * d]
        vals = [_planned(x).value for x in xs]
        for a, b in zip(vals, vals[1:]):
            assert abs(a - b) <= 1e-2


def test_psi_with_explicit_params():
    sv = series.psi_ramanujan(2.5, EvalParams(tol=1e-12, k_terms=8, n_terms=200000))
    assert abs(sv.value - psi_oracle(2.5)) <= 1e-12


def test_psi_rejects_nonpositive_x():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            series.psi_ramanujan(bad, P12)


def test_psi_error_estimate_is_genuine():
    # refining the evaluation moves the value by less than the coarse estimate
    for x in (0.3, 1.7, 4.2, 9.1):
        p = planner.plan(1e-10, x)
        coarse = series.psi_ramanujan(x, p)
        fine = series.psi_ramanujan(
            x, EvalParams(tol=p.tol / 2.0, k_terms=2 * p.k_terms, n_terms=p.n_terms)
        )
        assert abs(coarse.value - fine.value) <= coarse.error_estimate


def test_cot_pair_limit_forms_agree():
    # the two closed forms for the guarded pole pair at eps = 0
    for m in (1, 2, 3, 4):
        big_e = math.expm1(2.0 * math.pi * m)
        a = math.pi / (2.0 * math.sinh(math.pi * m) ** 2)
        b = 2.0 * math.pi * math.exp(2.0 * math.pi * m) / (big_e * big_e)
        assert abs(a - b) <= 16.0 * math.ulp(1.0) * a + 1e-30
        limit = 1.0 / (2.0 * m * big_e) - b
        assert abs(series._guard_pole_pair(m, 0.0) - limit) <= 1e-15
        # the eps -> 0 limit is attained continuously
        assert abs(series._guard_pole_pair(m, 1e-9) - limit) <= 1e-6


# ------------------------------------------------------- recurrence lift


@pytest.mark.parametrize("tol", [1e-15, 1e-12, 1e-6])
@pytest.mark.parametrize("x", [1e-8, 0.01, 0.25, 0.9995, 2.0003, 2.5])
def test_lifted_psi_within_estimate_of_mpmath(x, tol):
    mpmath = pytest.importorskip("mpmath")
    assert planner.lift_shift(x) >= 1
    p = planner.plan(tol, x)
    sv = series.psi_ramanujan(x, p)
    with mpmath.workdps(30):
        truth = mpmath.digamma(mpmath.mpf(x) + 1)
        assert abs(mpmath.mpf(sv.value) - truth) <= sv.error_estimate


LARGE_X = [60.0 * (1e12 / 60.0) ** (i / 24) for i in range(25)] + [
    m + off for m in (129, 130, 131, 1000) for off in (-5e-4, 5e-4)
]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
def test_planned_psi_at_large_x_within_estimate_of_mpmath(tol):
    # x from 60 to 1e12, where psi sums a few j-terms or none, and guard
    # bands around 129-131 and 1000
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in LARGE_X:
            sv = series.psi_ramanujan(x, planner.plan(tol, x))
            truth = mpmath.digamma(mpmath.mpf(x) + 1)
            assert abs(mpmath.mpf(sv.value) - truth) <= sv.error_estimate, x


# x summed where it stands, without the lift: just above 3 the double series
# runs 1-2 outer terms, further up none; and guard points around integers
UNLIFTED_X = (
    [3.0015, 3.01, 3.1, 3.5]
    + [3.0 * 20.0 ** ((i + 0.5) / 16) for i in range(16)]
    + [m + off for m in (3, 4, 7, 20, 59) for off in (-5e-4, 5e-4) if m + off >= 3.0]
)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
def test_planned_psi_at_small_x_within_estimate_of_mpmath(tol):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in UNLIFTED_X:
            assert planner.lift_shift(x) == 0
            sv = series.psi_ramanujan(x, planner.plan(tol, x))
            truth = mpmath.digamma(mpmath.mpf(x) + 1)
            assert abs(mpmath.mpf(sv.value) - truth) <= sv.error_estimate, x


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
def test_double_series_runs_only_the_terms_its_envelope_needs(tol):
    # S stops at the first outer index whose envelope tail is at most
    # tol * S_TAIL_SHARE (tol/8), never past the planned k_terms; at tol 1e-6
    # that is no term once y > 3.003
    for y in UNLIFTED_X + LARGE_X:
        p = planner.plan(tol, y)
        sv = series.double_series_S(y, p)
        needed = 0
        while planner.bound_exp_envelope(needed + 1, y) > tol * planner.S_TAIL_SHARE:
            needed += 1
        assert sv.k_used == needed <= p.k_terms, y
        if needed == 0:
            assert (sv.value, sv.n_used) == (0.0, 0)
            assert sv.error_estimate == planner.bound_exp_envelope(1, y)
        if tol == 1e-6 and y > 3.003:
            assert needed == 0, y
    assert max(
        series.double_series_S(y, planner.plan(1e-15, y)).k_used for y in UNLIFTED_X
    ) == 2


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_planned_psi_estimate_is_within_tol(tol):
    # tol 1e-15 is below the rounding floor of the summed magnitude, so it is
    # not asked here
    lifted = [1e-8, 0.01, 0.25, 0.9995, 2.0003, 2.5]
    for x in lifted + UNLIFTED_X + LARGE_X + [1e100, 1e300]:
        assert series.psi_ramanujan(x, planner.plan(tol, x)).error_estimate <= tol, x


def test_psi_dropped_terms_within_their_charges():
    # at y >= 16: the k-sum and log terms K < k <= y - 1 within _moments'
    # closed tails, and the trigonometric pieces with every index from
    # floor(y) on within _PSI_FAR less its S part, in 80-digit mpmath (the
    # corollaries' own charges are checked in test_contract.py)
    mpmath = pytest.importorskip("mpmath")
    far_share = series._PSI_FAR - planner.bound_exp_envelope(1, 16.0)
    with mpmath.workdps(80):
        pi = mpmath.pi

        def k_sum_term(k, y):
            return 2 * k / (mpmath.expm1(2 * pi * k) * (k * k - y * y))

        def log_term(k, y):
            return -pi / 2 * mpmath.log(abs(1 - (mpmath.mpf(k) / y) ** 4)) * mpmath.csch(pi * k) ** 2

        for y in (16 + 1e-12, 16.3, 16.5, 16.9995, 17.0005, 20.25, 100.5):
            yy = mpmath.mpf(y)
            far = pi * mpmath.cot(pi * yy) / mpmath.expm1(2 * pi * yy)
            far += pi / 2 * mpmath.log(abs(2 * mpmath.sin(pi * yy))) * mpmath.csch(pi * yy) ** 2
            ks = range(math.floor(y), math.floor(y) + 40)
            far += mpmath.fsum(k_sum_term(k, yy) + log_term(k, yy) for k in ks)
            assert abs(far) <= far_share, y
        for k_cut in range(1, series._K_CAP + 1):
            a, b = series._moments(k_cut).a, series._moments(k_cut).b
            f = k_cut + 1
            for y in (16.0, 16.5, 40.25):
                yy = mpmath.mpf(y)
                ks = range(f, math.floor(y))
                s = (f / y) ** 4
                assert mpmath.fsum(abs(k_sum_term(k, yy)) for k in ks) <= a / ((y - f) * (y + f))
                assert mpmath.fsum(abs(log_term(k, yy)) for k in ks) <= b * s / (1 - s)


# accuracy of the in-repo oracles at the points below, measured against
# 30-digit mpmath (quadrature of the integral form for S): all within 1e-15
ORACLE_SLACK = 1e-14


@pytest.mark.parametrize("tol", [1e-13, 1e-8])
@pytest.mark.parametrize("x", [0.3, 0.7, 1.2, 2.25])
def test_lifted_corollaries_within_estimate(x, tol):
    assert planner.lift_shift(x) >= 1
    p = planner.plan(tol, x)
    s = series.double_series_S(x, p)
    assert abs(s.value - s_integral_oracle(x)) <= s.error_estimate + ORACLE_SLACK
    g = series.gamma_any_x(x, p)
    assert abs(g.value - euler_gamma_reference()) <= g.error_estimate + ORACLE_SLACK
    r = series.re_psi_complex_ramanujan(x, p)
    assert abs(r.value - re_psi_one_plus_ik(x)) <= r.error_estimate + ORACLE_SLACK


def _r_of_x_mpmath(mpmath, x):
    """R(x) = psi(x+1) + S(x), the non-S part of the representation, for
    0 < x < 3 in mpmath: the k-sums are taken to k = 39, past 1e-100."""
    x, pi = mpmath.mpf(x), mpmath.pi
    v = pi / 3 * mpmath.log(x) + 1 / (2 * x) - 1 / (4 * pi * x * x)
    v += pi * mpmath.cot(pi * x) / mpmath.expm1(2 * pi * x)
    v += pi / 2 * mpmath.log(abs(2 * mpmath.sin(pi * x))) * mpmath.csch(pi * x) ** 2
    for k in range(1, 40):
        v += 2 * k / (mpmath.expm1(2 * pi * k) * (k * k - x * x))
        v -= pi / 2 * mpmath.log(abs(k**4 - x**4)) * mpmath.csch(pi * k) ** 2
    return v


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_small_x_double_series_and_re_psi_within_estimate_of_mpmath(tol):
    # both evaluate R(x) at x itself, where its pieces grow like 1/x^2 and
    # 1 - e^{-t} must not be formed by subtraction; just outside the guard
    # bands of 1 and 2 the k = m term is ~q/|x - m|, so k^2 - x^2 must not
    # carry the rounding of x*x. Only the estimate is asked here, not that
    # it meets tol
    mpmath = pytest.importorskip("mpmath")
    xs = [10.0 ** (e / 4) for e in range(-32, -7)]
    xs += [m + s * d for m in (1, 2) for s in (-1, 1) for d in (1.01e-3, 2e-3, 5e-3, 1e-2)]
    with mpmath.workdps(60):
        for x in xs:
            p = planner.plan(tol, x)
            s = series.double_series_S(x, p)
            truth = _r_of_x_mpmath(mpmath, x) - mpmath.digamma(mpmath.mpf(x) + 1)
            assert abs(mpmath.mpf(s.value) - truth) <= s.error_estimate, x
            r = series.re_psi_complex_ramanujan(x, p)
            truth = mpmath.digamma(mpmath.mpc(1, x)).real
            assert abs(mpmath.mpf(r.value) - truth) <= r.error_estimate, x


def test_shift_is_an_exact_identity():
    # 0.7, 1.7, 2.7 and 3.7 are summed with shifts 3, 2, 1 and 0; the
    # recurrence psi(x+2) = psi(x+1) + 1/(x+1) must tie their values together
    base = EvalParams(tol=P12.tol, k_terms=P12.k_terms, n_terms=2000)
    svs = [series.psi_ramanujan(0.7 + i, base) for i in range(4)]
    assert [planner.lift_shift(0.7 + i) for i in range(4)] == [3, 2, 1, 0]
    for i in range(1, 4):
        up = svs[i].value - math.fsum(1.0 / (0.7 + j) for j in range(1, i + 1))
        err = svs[i].error_estimate + svs[0].error_estimate + 1e-15
        assert abs(up - svs[0].value) <= err


def test_shift_validation():
    for x in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            planner.lift_shift(x)
    assert planner.lift_shift(3.0) == 0
    assert planner.lift_shift(2.5) == 1
    assert planner.lift_shift(1e-8) == 3
    # the plan is sized where the series run, x + lift_shift(x)
    for x in (1e-8, 0.25, 2.5):
        assert planner.plan(1e-12, x) == planner.plan(1e-12, x + planner.lift_shift(x))


@pytest.mark.parametrize("x", [1e-12, 1e-8, 0.0005, 0.00099])
def test_gamma_any_x_near_zero_steps_off_the_lifted_band(x):
    # x + lift_shift(x) lies within guard_delta of 3 but x is in no band
    p = planner.plan(1e-12, x)
    g = series.gamma_any_x(x, p)
    assert abs(g.value - euler_gamma_reference()) <= g.error_estimate
    assert g.error_estimate <= p.tol


# ------------------------------------------------------- double series S


@pytest.mark.parametrize(
    "x,pin",
    [(0.3, 0.7417841548152989), (1.5, 0.00021480502322368842)],
)
def test_double_series_pinned_values(x, pin):
    sv = series.double_series_S(x, planner.plan(1e-12, x))
    assert abs(sv.value - pin) <= 5e-13


@pytest.mark.parametrize("x", [0.3, 1.2])
def test_double_series_matches_quadrature(x):
    sv = series.double_series_S(x, planner.plan(1e-12, x))
    assert abs(sv.value - s_integral_oracle(x)) <= 1e-9


def test_double_series_estimate_covers_short_k_truncation():
    # with too few outer terms at small x the value misses, but the reported
    # estimate must still dominate the miss: both for the direct sum at x and
    # for the recurrence-lifted S, which needs far fewer terms to miss
    truth = s_integral_oracle(0.3)
    for evaluate, k_terms in ((series._double_series_at, 12), (series.double_series_S, 2)):
        sv = evaluate(0.3, EvalParams(tol=1e-12, k_terms=k_terms, n_terms=200000))
        miss = abs(sv.value - truth)
        assert miss > 1e-10
        assert miss <= sv.error_estimate


def test_double_series_at_integer_collapses_to_cosine_row():
    # at integer x the sine row vanishes and the cosine row is gamma + Re psi(1+ik).
    # S stops at its own envelope for tol, so the 1e-16 bar is asked of tol
    # 1e-15; at tol 1e-12 the value is held to its own estimate
    closed = -2.0 * math.pi * math.fsum(
        k * math.exp(-4.0 * math.pi * k) * gamma_plus_re_psi(float(k))
        for k in range(1, P12.k_terms + 1)
    )
    sv = series.double_series_S(
        2.0, EvalParams(tol=1e-15, k_terms=P12.k_terms, n_terms=P12.n_terms)
    )
    assert abs(sv.value - closed) <= 1e-16
    sv = series.double_series_S(2.0, P12)
    assert abs(sv.value - closed) <= sv.error_estimate


def test_cosine_row_matches_the_oracle():
    # the engine sums C_k(0) = (gamma + Re psi(1+ik))/k^2 itself; the oracle's
    # gamma_plus_re_psi is a separate implementation with its own cut-off
    for k in range(1, 41):
        a, c0, err_a, err_c = series._inner_pair(k, 0.0, 16, 16)
        assert a == 0.0 and err_a == 0.0
        reference = gamma_plus_re_psi(float(k)) / (k * k)
        assert abs(c0 - reference) <= err_c + DEFAULT_ORACLE.target_tolerance / (k * k)


def test_cosine_row_error_covers_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in range(1, 119):
            _, c0, _, err = series._inner_pair(k, 0.0, 16, 16)
            truth = (mpmath.euler + mpmath.digamma(mpmath.mpc(1, k)).real) / (k * k)
            assert abs(mpmath.mpf(c0) - truth) <= err


@pytest.mark.parametrize("x", [1.0, 2.0, 7.0])
def test_counts_at_integer_x_are_what_ran(x):
    # the inner sums collapse to C_k(0) there, so no inner term runs
    p = planner.plan(1e-15, x)
    assert series.double_series_S(x, p).n_used == 0
    assert series.psi_ramanujan(x, p).n_used == 0
    assert series.gamma_at_integer(int(x), p).n_used == 0


def test_double_series_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        series.double_series_S(0.0, P12)


# ----------------------------------------------------------- Euler gamma


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gamma_at_integer(m):
    g = series.gamma_at_integer(m, EvalParams(tol=1e-13, k_terms=10, n_terms=1000))
    assert abs(g.value - euler_gamma_reference()) <= 1e-13


def test_gamma_at_integer_validation():
    for bad in (0, -1, MAX_GAMMA_M + 1):
        with pytest.raises(ValueError):
            series.gamma_at_integer(bad, P12)


@pytest.mark.parametrize("x", [0.5, 3.25])
def test_gamma_any_x(x):
    g = series.gamma_any_x(x, planner.plan(1e-12, x))
    assert abs(g.value - euler_gamma_reference()) <= 1e-11


def test_gamma_any_x_is_argument_invariant():
    vals = [
        series.gamma_any_x(x, planner.plan(1e-12, x)).value
        for x in (0.5, 1.5 + 1e-3, 2.25, 6.75)
    ]
    assert max(vals) - min(vals) <= 1e-12


def test_gamma_routes_agree():
    gi = series.gamma_at_integer(2, EvalParams(tol=1e-13, k_terms=10, n_terms=1000))
    gx = series.gamma_any_x(4.5, planner.plan(1e-12, 4.5))
    assert abs(gi.value - gx.value) <= gi.error_estimate + gx.error_estimate + 1e-13


def test_gamma_any_x_guard_band_redirects():
    # the value does not depend on x, so an x in a guard band sums at a y
    # off the bands, also past MAX_GAMMA_M, where gamma_at_integer rejects m
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in (2.0005, 200000.0002):
            g = series.gamma_any_x(x, P12)
            assert abs(mpmath.mpf(g.value) - mpmath.euler) <= g.error_estimate <= P12.tol


@pytest.mark.parametrize(
    "x", [1e-12, 0.5, 2.0005, 15.9995, 16.0, 2.0**51, 2.0**51 + 0.5, 1e12, 2.0**52, 1e300]
)
def test_gamma_any_x_sums_half_a_band_off_the_integers(monkeypatch, x):
    # _D_FAR bounds D's cot piece and its k = round(y) term apart, which
    # holds only at least guard_delta/2 from an integer, so a y in a band,
    # every double from 2^52 on included, must be replaced by 16.5
    seen = []
    d_moment = series._d_moment
    monkeypatch.setattr(series, "_d_moment", lambda y, k, tol: seen.append(y) or d_moment(y, k, tol))
    series.gamma_any_x(x, P12)
    (y,) = seen
    assert y >= series._Y_MOMENT
    assert abs(y - round(y)) >= EvalParams.guard_delta / 2


def test_gamma_any_x_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        series.gamma_any_x(-0.5, P12)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
def test_gamma_routes_within_estimate_of_mpmath(tol):
    mpmath = pytest.importorskip("mpmath")
    results = [series.gamma_at_integer(m, planner.plan(tol, float(m))) for m in range(1, 41)]
    results += [
        series.gamma_any_x(x, planner.plan(tol, x))
        for x in (0.0005, 0.5, 1.7, 2.5, 3.5, 10.3, 37.9, 123.4)
    ]
    with mpmath.workdps(30):
        for g in results:
            assert abs(mpmath.mpf(g.value) - mpmath.euler) <= g.error_estimate


# -------------------------------------------------------------- trigamma


def test_trigamma_half_integer_closed_form():
    # psi'(3/2) = pi^2/2 - 4
    v = series.psi_prime_ramanujan(0.5, P_PRIME).value
    assert abs(v - (math.pi * math.pi / 2.0 - 4.0)) <= 1e-12


@pytest.mark.parametrize("x", [0.4, 1.6, 3.3, 7.7])
def test_trigamma_matches_central_difference(x):
    d1 = series.psi_prime_ramanujan(x, P_PRIME).value
    h = 1e-4
    lo = _planned(x - h, tol=1e-13).value
    hi = _planned(x + h, tol=1e-13).value
    assert abs(d1 - (hi - lo) / (2.0 * h)) <= 1e-7


def test_trigamma_small_x_limit_is_basel():
    # psi'(x+1) -> zeta(2) as x -> 0+
    v = series.psi_prime_ramanujan(0.01, P_PRIME).value
    assert abs(v - math.pi * math.pi / 6.0) <= 0.03


def test_trigamma_slope_richardson():
    # psi'(x+1) = zeta(2) - 2 zeta(3) x + ..., extrapolate the slope to x = 0
    zeta2 = math.pi * math.pi / 6.0
    hs = [0.1 * 2.0**-j for j in range(5)]
    g = [(series.psi_prime_ramanujan(h, P_PRIME).value - zeta2) / h for h in hs]
    tab = g[:]
    for lvl in range(1, len(hs)):
        for i in range(len(hs) - lvl):
            tab[i] = (hs[i + lvl] * tab[i] - hs[i] * tab[i + 1]) / (hs[i + lvl] - hs[i])
    assert abs(tab[0] - (-2.0 * ZETA_ODD_REF[1])) <= 1e-6


def _psi_prime_misses(mpmath, xs, tols):
    misses = []
    with mpmath.workdps(40):
        for x in xs:
            truth = mpmath.psi(1, mpmath.mpf(x) + 1)
            for tol in tols:
                sv = series.psi_prime_ramanujan(x, planner.plan(tol, x))
                if abs(mpmath.mpf(sv.value) - truth) > sv.error_estimate:
                    misses.append((x, tol))
    return misses


def test_trigamma_within_estimate_of_mpmath():
    # x from 0.01 to 1e4 plus m +- (1.01e-3 .. 0.03), just outside each guard
    # band, where the k = m terms are largest
    mpmath = pytest.importorskip("mpmath")
    xs = [x for x in (0.01 * 10.0 ** (i / 16.0) for i in range(97))
          if x < 0.5 or abs(x - round(x)) > 1.01e-3]
    xs += [m + s * off for m in (1, 2, 3, 4, 17) for s in (-1, 1)
           for off in (1.01e-3, 3e-3, 0.01, 0.03)]
    assert _psi_prime_misses(mpmath, xs, (1e-6, 1e-9, 1e-12, 1e-15)) == []


@pytest.mark.parametrize("k_terms", [1, 2, 3, 4, 6])
def test_trigamma_short_truncation_within_estimate_of_mpmath(k_terms):
    # hand-built params leave the truncation tail, not the rounding, as the
    # error: past F2 = ceil(x)+2 each 4kxq/(k^2-x^2)^2 term is at most q/4,
    # which an x/F2-weighted 1/k bound undercuts at small x
    mpmath = pytest.importorskip("mpmath")
    p = EvalParams(tol=1e-12, k_terms=k_terms, n_terms=16)
    with mpmath.workdps(40):
        for x in (0.05, 0.1, 0.3, 0.7, 1.5, 2.5, 4.5, 9.7):
            sv = series.psi_prime_ramanujan(x, p)
            assert abs(mpmath.mpf(sv.value) - mpmath.psi(1, mpmath.mpf(x) + 1)) <= sv.error_estimate


def test_trigamma_within_estimate_of_mpmath_near_zero():
    # the lift sums at x + 3, so the x^-3 pieces no longer cancel; the sweep
    # starts at guard_delta, the edge of the band around 0
    mpmath = pytest.importorskip("mpmath")
    xs = [1e-3 * 10.0 ** (i / 8.0) for i in range(8)] + [1.01e-3, 2.5e-3]
    assert _psi_prime_misses(mpmath, xs, (1e-6, 1e-9, 1e-12, 1e-15)) == []


@pytest.mark.parametrize("x", [1e-5, 1e-12, 1e-300])
def test_trigamma_rejects_the_band_around_zero(x):
    # x + 3 lies within guard_delta of 3, where the unregularized csc^2 pair
    # cancels (at 1e-300 sin(pi (x + 3)) is exactly 0)
    with pytest.raises(GuardBandError):
        series.psi_prime_ramanujan(x, planner.plan(1e-12, x))


def test_trigamma_guard_band_and_validation():
    with pytest.raises(GuardBandError):
        series.psi_prime_ramanujan(2.0005, P_PRIME)
    with pytest.raises(ValueError):
        series.psi_prime_ramanujan(-1.0, P_PRIME)


# ---------------------------------------------------------------- Re psi


@pytest.mark.parametrize("x", [0.5, 1.5])
def test_re_psi_complex_matches_oracle(x):
    rp = series.re_psi_complex_ramanujan(x, P12)
    assert abs(rp.value - re_psi_one_plus_ik(x)) <= 1e-10


def test_re_psi_gamma_consistency():
    rp = series.re_psi_complex_ramanujan(2.5, P12)
    assert abs(euler_gamma_reference() + rp.value - gamma_plus_re_psi(2.5)) <= 1e-11


def test_re_psi_guard_band():
    with pytest.raises(GuardBandError):
        series.re_psi_complex_ramanujan(3.0002, P12)


@pytest.mark.parametrize("evaluator", ["re_psi_complex_ramanujan", "gamma_any_x"])
def test_re_psi_charges_twice_the_k_sum_half_of_its_one_pass(monkeypatch, evaluator):
    # below 16, D's k > K terms are each at most twice the k-sum term, so Re
    # psi charges twice one bound_psi_k_sum at x; the log family cancels out
    # of D, so its tail is neither charged nor computed. gamma_any_x sums at
    # y >= 16, where the tails are closed forms: it makes no pass
    calls = []

    def k_sum(first, x, guard_delta=EvalParams.guard_delta, skip=0):
        calls.append((first, x, skip))
        return 0.5

    def log_half(*args, **kwargs):
        raise AssertionError("D has no log family")

    p = planner.plan(1e-12, 7.3)
    monkeypatch.setattr(planner, "bound_psi_k_sum", k_sum)
    monkeypatch.setattr(planner, "bound_log_csch2", log_half)
    monkeypatch.setattr(planner, "k_sum_tails", log_half)
    sv = getattr(series, evaluator)(7.3, p)
    if evaluator == "gamma_any_x":
        assert calls == [] and sv.error_estimate <= p.tol
    else:
        assert calls == [(p.k_terms + 1, 7.3, 0)]
        assert 1.0 <= sv.error_estimate < 1.1


# --------------------------------------------------------------- zeta odd


def test_zeta_odd_j_sum_exact_fractions():
    assert series._zeta_odd_j_sum(1, TABLE) == Fraction(7, 720)
    assert series._zeta_odd_j_sum(0, TABLE) == Fraction(1, 6)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_zeta_odd_values(N):
    zv = series.zeta_odd(N, TABLE, P12)
    assert abs(zv.value - ZETA_ODD_REF[N]) <= 2e-15
    assert abs(zv.value - zeta_direct_oracle(2 * N + 1)) <= 1e-12 + 1e-13


@pytest.mark.parametrize("tol", [10.0**-e for e in range(6, 16)])
def test_zeta_odd_within_estimate_of_mpmath(tol):
    # every N the shared B_0..B_90 table allows; the estimate must cover the
    # rounding of (2 pi)^(2N+1), which grows with N
    mpmath = pytest.importorskip("mpmath")
    table = shared_table()
    p = EvalParams(tol=tol, k_terms=10)
    with mpmath.workdps(30):
        for N in range(1, 45):
            zv = series.zeta_odd(N, table, p)
            assert abs(mpmath.mpf(zv.value) - mpmath.zeta(2 * N + 1)) <= zv.error_estimate


def _zeta_odd_per_k_weights(N, table, params):
    """(value, error_estimate, k_used) of zeta_odd with both weights of each
    k formed in its own scale-pi loop, as identities._power_lambert_sum and
    _power_csch2_sum form them, rather than read from _PI_WEIGHTS."""

    def loop(weight, power, k_terms):
        pieces = []
        for k in range(1, k_terms + 1):
            w = weight(k)
            if w == 0.0:
                break
            pieces.append(float(k) ** power * w)
        return math.fsum(pieces), len(pieces)

    k_terms = params.k_terms
    j_part = (2.0 * math.pi) ** (2 * N + 1) * series._zeta_odd_coefficients(N, table)[0]
    lam, k_used = loop(lambda k: planner._inv_expm1(2.0 * math.pi * k), -2 * N - 1, k_terms)
    value = j_part - 4.0 * N * lam
    err = 4.0 * N * planner.bound_lambert(-2 * N - 1, k_terms + 1, math.pi)
    err += (2.0 * N + 4.0) * planner._EPS * abs(j_part)
    if N % 2 == 0:
        hyp, k_hyp = loop(lambda k: planner._csch2(math.pi * k), -2 * N, k_terms)
        value -= 2.0 * math.pi * hyp
        err += 2.0 * math.pi * planner.bound_csch2(k_terms + 1, -2 * N, math.pi)
        k_used = max(k_used, k_hyp)
    return value / (2.0 * N), err / (2.0 * N) + 4.0 * planner._EPS, k_used


@pytest.mark.parametrize("tol", [1e-6, 1e-15])
def test_zeta_odd_weights_from_the_table_are_bit_identical_to_per_k_loops(tol):
    # 111 is the table's last index and 112 the first where both weights are
    # 0; 6000 is MAX_K_TERMS
    table = shared_table()
    for k_terms in (1, 7, 10, 111, 112, 6000):
        p = EvalParams(tol=tol, k_terms=k_terms)
        for N in range(1, 45):
            zv = series.zeta_odd(N, table, p)
            assert (zv.value, zv.error_estimate, zv.k_used) == _zeta_odd_per_k_weights(N, table, p)


def test_zeta_odd_validation(monkeypatch):
    # both evaluators reject N < 1 and a short table before reading the memo
    def unreachable(N, table):
        raise AssertionError("the memo was read before the arguments were checked")

    monkeypatch.setattr(series, "_zeta_odd_coefficients", unreachable)
    pair = ModularPair.from_alpha(2.0)
    for N, table in ((0, TABLE), (-1, TABLE), (1, build_bernoulli_table(2))):
        with pytest.raises(ValueError):
            series.zeta_odd(N, table, P12)
        with pytest.raises(ValueError):
            series.zeta_odd_general(N, pair, table, P12)


def _fresh(table):
    """A table with the same exact values and an empty memo."""
    return BernoulliTable(max_index=table.max_index, values=table.values)


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
def test_zeta_odd_memo_repeats_the_first_call_and_a_fresh_table(tol):
    # zeta_odd fills the memo for N and zeta_odd_general reads it; a second
    # call, and a call on a table that has never been used, give equal floats
    p = EvalParams(tol=tol, k_terms=10)
    pairs = [ModularPair.from_alpha(alpha) for alpha in (1.0, math.pi, 9.0)]
    table = _fresh(shared_table())
    for N in range(1, 45):
        calls = [lambda t: series.zeta_odd(N, t, p)]
        calls += [lambda t, pair=pair: series.zeta_odd_general(N, pair, t, p) for pair in pairs]
        for call in calls:
            first = call(table)
            assert call(table) == first
            assert call(_fresh(shared_table())) == first


def _reference_j_sum(N, table):
    """The j-sum as a running Fraction with each factor formed where it is
    used: the reference for the shared products."""
    total = Fraction(0)
    for j in range(N + 2):
        sign = -1 if j % 2 == 0 else 1
        total += (
            sign
            * (2 * j - 1)
            * bernoulli_over_factorial(table, 2 * j)
            * bernoulli_over_factorial(table, 2 * N + 2 - 2 * j)
        )
    return total


def _reference_ratios(N, table):
    return tuple(
        float(bernoulli_over_factorial(table, 2 * j) * bernoulli_over_factorial(table, 2 * N + 2 - 2 * j))
        for j in range(N + 2)
    )


def test_zeta_odd_j_sum_runs_once_per_table_and_n(monkeypatch):
    # the exact products are formed once per table and N, and J is summed
    # from those same products
    products, j_sum = series._zeta_odd_products, series._zeta_odd_j_sum
    calls = []

    def counted_products(N, table):
        calls.append(("products", N, id(table)))
        return products(N, table)

    def counted_j_sum(N, table, shared=None):
        assert shared is not None
        calls.append(("j_sum", N, id(table)))
        return j_sum(N, table, shared)

    monkeypatch.setattr(series, "_zeta_odd_products", counted_products)
    monkeypatch.setattr(series, "_zeta_odd_j_sum", counted_j_sum)
    pair = ModularPair.from_alpha(2.0)
    tables = [_fresh(shared_table()), _fresh(shared_table())]
    ns = (1, 2, 16, 44)
    for table in tables:
        for _ in range(3):
            for N in ns:
                series.zeta_odd(N, table, P12)
                series.zeta_odd_general(N, pair, table, P12)
    assert sorted(calls) == sorted(
        (name, N, id(t)) for name in ("products", "j_sum") for t in tables for N in ns
    )
    for table in tables:
        assert sorted(table.derived) == list(ns)
        for N in ns:
            assert table.derived[N] == (float(_reference_j_sum(N, table)), _reference_ratios(N, table))


def test_zeta_odd_coefficients_from_shared_products_match_the_reference():
    # J exactly, and J's float and every ratio bit for bit, for each N the
    # shared table allows
    table = _fresh(shared_table())
    for N in range(1, 45):
        assert series._zeta_odd_j_sum(N, table) == _reference_j_sum(N, table)
        j, ratios = series._zeta_odd_coefficients(N, table)
        assert j == float(_reference_j_sum(N, table))
        assert ratios == _reference_ratios(N, table)


def test_zeta_odd_memo_is_kept_per_table():
    # a table with B_4 moved gets its own coefficients, even after a table of
    # the same size has filled its memo for the same N
    values = list(TABLE.values)
    values[4] += Fraction(1, 1000)
    moved = BernoulliTable(max_index=TABLE.max_index, values=tuple(values))
    table = _fresh(TABLE)
    pair = ModularPair.from_alpha(2.0)
    true = series.zeta_odd(1, table, P12), series.zeta_odd_general(1, pair, table, P12)
    off = series.zeta_odd(1, moved, P12), series.zeta_odd_general(1, pair, moved, P12)
    assert off[0].value != true[0].value and off[1].value != true[1].value
    assert moved.derived[1][0] == float(series._zeta_odd_j_sum(1, moved))
    assert moved.derived[1][0] != table.derived[1][0]
    assert moved.derived[1][1][0] == float(Fraction(values[4], 24))


@pytest.mark.parametrize("alpha", [math.pi, math.pi**2 / 2.0, 2.0 * math.pi**2])
@pytest.mark.parametrize("N", [1, 2])
def test_zeta_odd_general_matches_single_parameter(alpha, N):
    zg = series.zeta_odd_general(N, ModularPair.from_alpha(alpha), TABLE, P12)
    zo = series.zeta_odd(N, TABLE, P12)
    assert abs(zg.value - zo.value) <= 1e-11


def test_zeta_odd_general_sizes_each_scale_by_its_own_decay(monkeypatch):
    # each scale takes its own 2 + ceil(log(400/tol)/(2 s)) terms whatever
    # k_terms is, and at least 2 where a tol above 400 makes that negative;
    # the a-scale Lambert and csch^2 sums share one loop
    counts = {}
    fused, csch2 = series._power_lambert_csch2_sum, series._power_csch2_sum

    def count_fused(power, scale, k_terms):
        counts["a"] = (scale, k_terms)
        return fused(power, scale, k_terms)

    def count_csch2(power, scale, k_terms, scale_err=0.0):
        counts["b"] = (scale, k_terms)
        return csch2(power, scale, k_terms, scale_err)

    monkeypatch.setattr(series, "_power_lambert_csch2_sum", count_fused)
    monkeypatch.setattr(series, "_power_csch2_sum", count_csch2)
    cases = ((1e-15, 9.5, 1), (1e-15, 9.5, 10), (1e-15, 0.3, 1), (1e-15, math.pi, 1),
             (1e5, 0.3, 10))
    for tol, alpha, k_terms in cases:
        pair = ModularPair.from_alpha(alpha)
        zv = series.zeta_odd_general(3, pair, TABLE, EvalParams(tol=tol, k_terms=k_terms))
        for key, scale in (("a", pair.alpha), ("b", pair.beta)):
            own = 2 + max(0, math.ceil(math.log(400.0 / tol) / (2.0 * scale)))
            assert counts[key] == (scale, own), (alpha, key)
        assert zv.k_used == max(counts["a"][1], counts["b"][1])


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
def test_zeta_odd_general_within_estimate_of_mpmath(tol):
    # alpha from pi/1000 to 1000 pi: away from alpha ~ pi the identity cancels
    # terms up to a^N b^j against the csch^2 sums, and the estimate must carry
    # that rounding; where the slower k-sum needs more than MAX_K_TERMS terms
    # the call raises ToleranceError instead
    mpmath = pytest.importorskip("mpmath")
    table = shared_table()
    p = EvalParams(tol=tol, k_terms=10)
    capped = 0
    with mpmath.workdps(40):
        for i in range(-12, 13):
            pair = ModularPair.from_alpha(math.pi * 10.0 ** (i / 4.0))
            for N in (1, 2, 3, 5, 8, 12):
                try:
                    zv = series.zeta_odd_general(N, pair, table, p)
                except ToleranceError:
                    capped += 1
                    continue
                assert abs(mpmath.mpf(zv.value) - mpmath.zeta(2 * N + 1)) <= zv.error_estimate
    assert capped == (12 if tol == 1e-15 else 0)


def test_zeta_odd_general_off_the_curve_within_estimate_of_mpmath():
    # ModularPair accepts alpha beta within 1e-14 of pi^2; the estimate must
    # carry beta's distance from pi^2/alpha through beta^j, beta^(1-N) and the
    # csch^2 arguments
    mpmath = pytest.importorskip("mpmath")
    table = shared_table()
    p = EvalParams(tol=1e-12, k_terms=10)
    with mpmath.workdps(40):
        for i in range(-11, 12, 2):
            alpha = math.pi * 10.0 ** (i / 4.0)
            for rel in (-8e-15, 2e-15):
                pair = ModularPair(alpha=alpha, beta=math.pi**2 / alpha * (1.0 + rel))
                for N in (1, 3, 8, 12):
                    zv = series.zeta_odd_general(N, pair, table, p)
                    assert abs(mpmath.mpf(zv.value) - mpmath.zeta(2 * N + 1)) <= zv.error_estimate


def test_modular_pair_validation():
    with pytest.raises(ValueError):
        ModularPair(alpha=1.0, beta=1.0)
    with pytest.raises(ValueError):
        ModularPair.from_alpha(-2.0)


def test_zeta_even_closed_forms():
    assert series.zeta_even(0, TABLE) == -0.5
    assert abs(series.zeta_even(1, TABLE) - math.pi * math.pi / 6.0) <= 1e-15
    assert abs(series.zeta_even(3, TABLE) - math.pi**6 / 945.0) <= 1e-13
    with pytest.raises(ValueError):
        series.zeta_even(-1, TABLE)
    with pytest.raises(ValueError):
        series.zeta_even(15, TABLE)


# ------------------------------------------------- hyperbolic identities


def test_lambert_linear_closed_form():
    lam = identities._power_lambert_sum(1, math.pi, P12.k_terms)[0]
    assert abs(lam - (1.0 / 24.0 - 1.0 / (8.0 * math.pi))) <= 1e-15


def test_lambert_fifth_power_closed_form():
    lam = identities._power_lambert_sum(5, math.pi, P12.k_terms)[0]
    assert abs(lam - 1.0 / 504.0) <= 1e-14


def test_lambert_negative_power_window():
    lam = identities._power_lambert_sum(-3, math.pi, P12.k_terms)[0]
    assert 0.0 < lam <= planner.tail_bound("lambert", 1, power=-3).bound


def test_csch2_closed_form():
    value = series._power_csch2_sum(0, math.pi, P12.k_terms)[0]
    assert abs(value - (1.0 / 6.0 - 1.0 / (2.0 * math.pi))) <= 1e-14


@pytest.mark.parametrize("x", [118.7, 1e6, 1e300])
def test_underflowed_double_series_does_no_work(monkeypatch, x):
    # every weight e^{-2 pi k x} is 0, so S is 0 with a 0 tail, unsized
    def forbidden(*args, **kwargs):
        raise AssertionError("S sizes nothing once its weights underflow")

    monkeypatch.setattr(planner, "outer_weights", forbidden)
    monkeypatch.setattr(planner, "_inner_lengths", forbidden)
    sv = series._double_series_at(x, EvalParams(tol=1e-15))
    assert (sv.value, sv.error_estimate, sv.k_used, sv.n_used) == (0.0, 0.0, 0, 0)


def test_double_series_with_no_outer_term_sizes_no_inner_sum(monkeypatch):
    # below the underflow the envelope can stop before k = 1; S is then 0,
    # charged that envelope tail
    x = 15.25
    assert planner.outer_weights(x, 6000, 1e-12)[0] == []

    def forbidden(*args, **kwargs):
        raise AssertionError("no outer term, no inner lengths")

    monkeypatch.setattr(planner, "_inner_lengths", forbidden)
    sv = series._double_series_at(x, EvalParams(tol=1e-12))
    assert sv.error_estimate == planner.bound_exp_envelope(1, x) > 0.0
    assert (sv.value, sv.k_used, sv.n_used) == (0.0, 0, 0)


def test_pi_weight_table_ends_where_both_weights_underflow():
    # the pi-scaled k-loops read their weights from one table; past its last
    # index both weights are 0, so a longer table would add only zero terms
    two_pi = series._TWO_PI
    for k, q, csch in series._PI_WEIGHTS:
        assert (q, csch) == (planner._inv_expm1(two_pi * k), planner._csch2(math.pi * k))
        assert q > 0.0 and csch > 0.0
    end = len(series._PI_WEIGHTS) + 1
    assert planner._inv_expm1(two_pi * end) == planner._csch2(math.pi * end) == 0.0


@pytest.mark.parametrize("scale", [0.002, 0.05, 1.0, math.pi, 30.0])
@pytest.mark.parametrize("power", [-9, -2, 0])
def test_power_sums_within_rounding_of_mpmath(scale, power):
    # the rounding bound must cover the summands' own rounding, which grows
    # like eps/(scale k) where 1 - e^{-2 scale k} cancels; the tail bounds
    # are checked in test_planner
    mpmath = pytest.importorskip("mpmath")
    k_terms = 40
    with mpmath.workdps(40):
        s = mpmath.mpf(scale)
        for loop, term in (
            (series._power_csch2_sum, lambda k: mpmath.csch(s * k) ** 2),
            (identities._power_lambert_sum, lambda k: 1 / mpmath.expm1(2 * s * k)),
        ):
            value, _, rounding, _ = loop(power, scale, k_terms)
            partial = mpmath.fsum(mpmath.mpf(k) ** power * term(k) for k in range(1, k_terms + 1))
            assert abs(mpmath.mpf(value) - partial) <= rounding
        # the fused a-scale sum of zeta_odd_general: its Lambert half takes
        # power - 1, as k^{-2N-1} against the csch^2 half's k^{-2N}
        halves = series._power_lambert_csch2_sum(power, scale, k_terms)
        for (value, _, rounding, _), p, term in zip(
            halves,
            (power - 1, power),
            (lambda k: 1 / mpmath.expm1(2 * s * k), lambda k: mpmath.csch(s * k) ** 2),
        ):
            partial = mpmath.fsum(mpmath.mpf(k) ** p * term(k) for k in range(1, k_terms + 1))
            assert abs(mpmath.mpf(value) - partial) <= rounding


@pytest.mark.parametrize("scale", [0.002, 0.05, 1.0, math.pi, 30.0, 200.0])
@pytest.mark.parametrize("power", [-89, -9, -2, 0])
@pytest.mark.parametrize("k_terms", [1, 10, 40, 6000])
def test_fused_power_sums_are_bit_identical_to_the_separate_loops(scale, power, k_terms):
    lam, csch = series._power_lambert_csch2_sum(power, scale, k_terms)
    assert lam == identities._power_lambert_sum(power - 1, scale, k_terms)
    assert csch == series._power_csch2_sum(power, scale, k_terms)


@pytest.mark.parametrize("m", [3, 5])
def test_lambert_identity_residual(m):
    assert abs(identities.lambert_identity_residual(m, TABLE, P12)) <= 1e-14


def test_lambert_identity_rejects_even_or_unit_m():
    for bad in (1, 2, 4):
        with pytest.raises(ValueError):
            identities.lambert_identity_residual(bad, TABLE, P12)


def test_lambert_integral_agrees_with_closed_form():
    for m in (3, 5):
        gap = identities._lambert_integral(m) - identities._lambert_closed_form(m, TABLE)
        assert abs(gap) <= 1e-10


# ------------------------------------------------------ asymptotic check


def test_asymptotic_residual_requires_half_integers():
    p = EvalParams(tol=1e-12, k_terms=10, n_terms=16)
    for bad in (2.0, 1.0, 0.75):
        with pytest.raises(ValueError):
            identities.asymptotic_residual(bad, p)


def test_asymptotic_residual_stays_bounded_and_decays():
    p = EvalParams(tol=1e-12, k_terms=10, n_terms=16)
    xs = (2.5, 5.5, 10.5, 20.5)
    res = {x: identities.asymptotic_residual(x, p) for x in xs}
    scaled = [x * abs(res[x]) for x in xs]
    # x*residual approaches 1/2 from below, so the scaled values stay flat
    for s in scaled:
        assert 0.4 <= s <= 0.55
    assert scaled[-1] <= 2.0 * scaled[0]
    assert abs(res[20.5]) <= abs(res[10.5]) * 1.05 * (10.5 / 20.5)
    # calibrated envelope: |residual| <= C / x on the sampled range
    big_c = 2.0 * max(scaled)
    assert abs(res[10.5]) <= big_c / 10.5


# ----------------------------------------------------- suite level checks


def test_identity_suite_all_green():
    results = list(identities.run_suite("all"))
    assert len(results) >= 70
    failures = [c.name for c in results if not c.passed]
    assert failures == []


def test_digamma_partial_fraction_chain():
    # psi(x+1) + gamma equals the partial-fraction form on both sides of 1
    p = identities._default_params()
    for x in (0.3, 1.7, 4.2):
        psi = series.psi_ramanujan(x, planner.plan(1e-12, x))
        g = series.gamma_any_x(x, planner.plan(1e-12, x))
        rhs = identities.digamma_partial_fraction_rhs(x, p)
        residual = (psi.value - rhs) + g.value
        assert abs(residual) <= 2.0 * (psi.error_estimate + g.error_estimate) + 1e-13


def test_oracle_equivalence_on_grid():
    for x in identities.quasi_random_grid():
        sv = _planned(x)
        assert abs(sv.value - psi_oracle(x)) <= sv.error_estimate + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.15, max_value=30.0))
def test_psi_matches_oracle_property(x):
    # skip the sliver around the guard boundary where the route is ambiguous
    gap = abs(x - round(x))
    assume(round(x) < 1 or gap <= 0.9e-3 or gap >= 3e-3)
    sv = series.psi_ramanujan(x, planner.plan(1e-10, x))
    assert abs(sv.value - psi_oracle(x)) <= sv.error_estimate + 1e-12

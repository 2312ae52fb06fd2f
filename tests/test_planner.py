"""Truncation planner: tail-bound soundness by brute-force over-summation,
strict monotonicity, and the plan() contract."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidpsi import double_series, planner, series
from rapidpsi.errors import ToleranceError
from rapidpsi.oracles import psi_oracle
from rapidpsi.params import DEFAULT_GUARD_DELTA, MAX_K_TERMS, EvalParams, TailBound

TWO_PI = 2.0 * math.pi


def _csch2(t):
    if t > 350.0:
        return 0.0
    q = math.exp(-2.0 * t)
    return 4.0 * q / (1.0 - q) ** 2


def _inv_expm1(t):
    if t > 700.0:
        return 0.0
    q = math.exp(-t)
    return q / (1.0 - q)


def _brute_tail(family: str, first: int, x: float) -> float:
    """Direct over-summation of the quantity each family's bound dominates,
    to 10x more terms than could plausibly matter."""
    span = max(10 * first, first + 200)
    if family == "csch2":
        return sum(_csch2(math.pi * k) for k in range(first, span))
    if family == "log_csch2":
        return (math.pi / 2.0) * sum(
            abs(planner.log_abs_quartic_gap(float(k), x)) * _csch2(math.pi * k)
            for k in range(first, span)
            if float(k) != x
        )
    if family == "exp_envelope":
        # genuine double-series terms, inner sums taken long enough that their
        # own truncation is negligible against the bound
        total = 0.0
        theta = TWO_PI * (x - round(x))
        for k in range(first, first + 40):
            t = TWO_PI * k * x
            if t > 700.0:
                break
            a, c, _, _ = double_series._inner_pair(k, theta, 4000, 4000)
            total += TWO_PI * math.exp(-t) * (k * k * abs(a) + k**3 * abs(c))
        return total
    raise AssertionError(family)


@pytest.mark.parametrize("family", ["csch2", "log_csch2", "exp_envelope"])
def test_soundness_by_oversummation(family):
    rng = random.Random(hash(family) & 0xFFFF)
    for _ in range(20):
        first = rng.randint(1, 25)
        x = 0.1 + rng.random() * 12.0
        if family == "log_csch2" and abs(x - round(x)) < 1e-3:
            x += 0.01
        bound = planner.tail_bound(family, first, x).bound
        # the csch2 bound is first-term tight, so leave ulp-level headroom
        assert _brute_tail(family, first, x) <= bound * (1.0 + 1e-12)


# no e^{-2 pi k} or csch^2(pi k) weight above this index is a nonzero double
BRUTE_END = 120


def _brute_psi_k_sum(first, x, skip, delta):
    """The k-sum tail by direct summation, |k^2 - x^2| floored at
    delta (k + x) as bound_psi_k_sum floors it (a no-op off the guard bands)."""
    return math.fsum(
        2.0 * k * _inv_expm1(TWO_PI * k) / max(abs(k - x), delta) / (k + x)
        for k in range(first, BRUTE_END)
        if k != skip
    )


def _brute_log_csch2(first, x, skip):
    return (math.pi / 2.0) * math.fsum(
        abs(planner.log_abs_quartic_gap(float(k), x)) * _csch2(math.pi * k)
        for k in range(first, BRUTE_END)
        if k != skip
    )


def test_psi_k_sum_soundness_by_oversummation():
    # near an integer m inside the guard band the k = m term is skipped, as
    # _psi_rest skips it, and the floor guard_delta (k + x) must not undercut
    # the rest
    rng = random.Random(11)
    delta = EvalParams.guard_delta
    for _ in range(300):
        first = rng.randint(1, 40)
        if rng.random() < 0.4:
            skip = rng.randint(1, 60)
            x = skip + rng.uniform(-0.999, 0.999) * delta
        else:
            skip = 0
            x = math.exp(rng.uniform(math.log(0.1), math.log(1e12)))
            if abs(x - round(x)) < delta:
                continue
        brute = _brute_psi_k_sum(first, x, skip, delta)
        assert brute <= planner.bound_psi_k_sum(first, x, delta, skip)


def test_log_csch2_soundness_by_oversummation():
    # the bound must cover the full tail at large x, past k ~ 119 where
    # csch^2 underflows, and with the k = m index of a guard band skipped
    rng = random.Random(12)
    delta = EvalParams.guard_delta
    for _ in range(300):
        first = rng.randint(1, 130)
        if rng.random() < 0.4:
            skip = rng.randint(1, 140)
            x = skip + rng.uniform(-0.999, 0.999) * delta
        else:
            skip = 0
            x = math.exp(rng.uniform(math.log(0.1), math.log(1e12)))
            if abs(x - round(x)) < delta:
                continue
        assert _brute_log_csch2(first, x, skip) <= planner.bound_log_csch2(first, x, skip)


def _edge_points():
    """(x, skip) where the closed tails change form: the guard-band edges
    m +- {0.99, 1.01} guard_delta with and without m skipped, x up to
    ~119 where e^{-2 pi k} underflows, x in [125, 135] where floor(x) and
    ceil(x) pass _NEAR_END, and x up to 1e300."""
    delta = EvalParams.guard_delta
    points = []
    for m in (1, 2, 3, 4, 7, 10, 59, 128, 129, 130, 131, 1000):
        for off in (-1.01, -0.99, 0.99, 1.01):
            x = m + off * delta
            points += [(x, m), (x, 0)]
    points += [(x, 0) for x in (99.5, 111.5, 117.5, 118.5, 119.5)]
    points += [(x, 0) for x in (125.3, 127.5, 128.9, 129.5, 130.5, 132.25, 134.7)]
    points += [(130.0, 130), (135.0, 135), (0.4, 0), (1.5, 0), (2.5, 0)]
    points += [(x, 0) for x in (1e3 + 0.5, 1e6 + 0.25, 1e12 + 0.5)]
    points += [(x, round(x)) for x in (1e12, 1e100, 1e300)]
    return points


def _edge_firsts(x):
    lo, hi = math.floor(x), math.ceil(x)
    return sorted({f for f in (1, lo // 2, lo // 2 + 1, lo, hi, hi + 1) if f >= 1})


@pytest.mark.parametrize("tail", ["psi_k_sum", "log_csch2"])
def test_closed_tails_sound_at_their_edges(tail):
    delta = EvalParams.guard_delta
    for x, skip in _edge_points():
        for first in _edge_firsts(x):
            if tail == "psi_k_sum":
                brute = _brute_psi_k_sum(first, x, skip, delta)
                bound = planner.bound_psi_k_sum(first, x, delta, skip)
            else:
                brute = _brute_log_csch2(first, x, skip)
                bound = planner.bound_log_csch2(first, x, skip)
            assert 0.0 <= brute <= bound, (x, skip, first)


@pytest.mark.parametrize("tail", ["psi_k_sum", "log_csch2"])
def test_closed_tails_stay_within_100x_of_the_tail(tail):
    # one more outer term shrinks a tail ~e^{2 pi} ~ 535x, so a bound within
    # 100x of the tail it covers costs plan at most one term over the tail
    delta = EvalParams.guard_delta
    rng = random.Random(13)
    xs = [x for x, _ in _edge_points() if x >= 1.0]
    xs += [math.exp(rng.uniform(0.0, math.log(300.0))) for _ in range(200)]
    worst = 0.0
    for x in xs:
        if planner._guard_index(x, delta):
            continue
        for first in _edge_firsts(x) + [rng.randint(1, 112)]:
            if tail == "psi_k_sum":
                brute = _brute_psi_k_sum(first, x, 0, delta)
                bound = planner.bound_psi_k_sum(first, x, delta)
            else:
                brute = _brute_log_csch2(first, x, 0)
                bound = planner.bound_log_csch2(first, x)
            # a subnormal tail carries too few bits to compare against
            if brute > 1e-300:
                worst = max(worst, bound / brute)
    assert 1.0 <= worst <= 100.0


def test_closed_tails_take_few_quartic_gaps(monkeypatch):
    # only floor(x) and ceil(x) below 130 take log|k^4 - x^4| at their size,
    # so near x = 1e12 every call is the representation's own k-loop;
    # walking each tail term by term to k ~ 130 made 251 of these calls there
    calls = []
    gap = planner.log_abs_quartic_gap
    monkeypatch.setattr(
        planner, "log_abs_quartic_gap", lambda k, x: calls.append(k) or gap(k, x)
    )
    p = planner.plan(1e-15, 1e12)
    double_series._psi_rest(1e12 + 0.5, p)
    assert len(calls) <= p.k_terms + 4


def test_lambert_soundness_all_powers():
    rng = random.Random(7)
    for _ in range(20):
        power = rng.choice([-5, -3, -1, 0, 1, 2, 5, 9])
        first = rng.randint(1, 20)
        brute = sum(
            float(k) ** power * _inv_expm1(TWO_PI * k) for k in range(first, 10 * first + 200)
        )
        assert brute <= planner.tail_bound("lambert", first, power=power).bound


@pytest.mark.parametrize("scale", [0.01, 0.3, math.pi, 12.0])
def test_scaled_bounds_by_oversummation(scale):
    # the zeta_odd_general k-sums decay at alpha and pi^2/alpha, not at pi;
    # at large scale both bounds are first-term tight, so leave ulp headroom
    rng = random.Random(round(scale * 1000))
    span = lambda first: range(first, first + max(200, math.ceil(60.0 / scale)))
    for _ in range(12):
        first = rng.randint(1, 30)
        power = rng.choice([-5, -2, -1, 0, 1, 3, 9])
        brute = sum(float(k) ** power * _inv_expm1(2.0 * scale * k) for k in span(first))
        assert brute <= planner.bound_lambert(power, first, scale) * (1.0 + 1e-12)
        if power <= 0:
            brute = sum(float(k) ** power * _csch2(scale * k) for k in span(first))
            assert brute <= planner.bound_csch2(first, power, scale) * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        planner.bound_csch2(3, 1, scale)
    with pytest.raises(ValueError):
        planner.bound_lambert(0, 3, -scale)


@pytest.mark.parametrize("family", planner.FAMILIES)
def test_strict_monotonicity_in_first_omitted(family):
    for x in (0.7, 2.3):
        previous = None
        for first in range(1, 40):
            b = planner.tail_bound(family, first, x).bound
            if previous is not None and math.isfinite(previous):
                assert b < previous
            previous = b


def test_csch2_example_value():
    # printed closed form of the k>=11 tail; the sound bound sits a hair above
    printed = 4.0 * math.exp(-22.0 * math.pi) / (1.0 - math.exp(-TWO_PI))
    bound = planner.tail_bound("csch2", 11).bound
    assert printed * (1.0 - 1e-12) <= bound <= printed * (1.0 + 1e-9)
    assert sum(_csch2(math.pi * k) for k in range(11, 1001)) <= bound * (1.0 + 1e-12)


def test_exp_envelope_first_term_dominates():
    assert planner.tail_bound("exp_envelope", 1, 1.0).bound >= TWO_PI * math.exp(-TWO_PI)


@pytest.mark.parametrize("first, x", [(2, 60.0), (2, 100.0), (2, 118.5), (3, 40.0), (1000, 0.12)])
def test_exp_envelope_where_its_first_power_underflows(first, x):
    # q^first underflows to 0 here, but the envelope sums it bounds do not
    # vanish: the bound stays positive and above the smaller of the two, in
    # 40-digit mpmath (4.2e-323 at (1000, 0.12), which a double holds)
    mpmath = pytest.importorskip("mpmath")
    q = math.exp(-TWO_PI * x)
    assert q > 0.0 and q**first == 0.0
    bound = planner.tail_bound("exp_envelope", first, x).bound
    with mpmath.workdps(40):
        qq = mpmath.exp(-2 * mpmath.pi * x)
        uniform = 2 * mpmath.pi * mpmath.nsum(
            lambda k: k * (3.1 + mpmath.log(k)) * qq**k, [first, mpmath.inf]
        )
        s = 1 / mpmath.sin(mpmath.pi * abs(x - round(x))) if x != round(x) else mpmath.inf
        oscillatory = 2 * mpmath.pi * mpmath.nsum(
            lambda k: (s + (s + 1) / 2 * k) * qq**k, [first, mpmath.inf]
        )
        assert 0.0 < min(uniform, oscillatory) <= bound, (first, x)


# x in [40, 118.6], where q^first for first <= 3 turns subnormal (q itself
# from x ~ 112.7) and then underflows, and (2, 59.2372), where q^2 is ~1
# ulp(0.0) and a closed form taken in subnormals fell over a quarter below
# its sum
ENVELOPE_XS = [40.0 + 78.6 * i / 400 for i in range(401)] + [59.2372, 112.8, 118.4, 118.5]


def _envelope_below_its_sum(normal):
    """The (first, x) with first <= 3 on ENVELOPE_XS at which
    bound_exp_envelope lies below the smaller of its two envelope sums, each
    from four terms in 40-digit mpmath, over the points whose computed
    q^first is a normal double (normal) or subnormal or 0 (not normal)."""
    mpmath = pytest.importorskip("mpmath")
    below = []
    with mpmath.workdps(40):
        for x in ENVELOPE_XS:
            qq = mpmath.exp(-2 * mpmath.pi * x)
            dist = abs(x - round(x))
            s = 1 / mpmath.sin(mpmath.pi * dist) if dist else mpmath.inf
            q = math.exp(-TWO_PI * x)
            for first in (1, 2, 3):
                if (q**first >= 2.0**-1022) != normal:
                    continue
                ks = range(first, first + 4)
                uniform = 2 * mpmath.pi * mpmath.fsum(k * (3.1 + mpmath.log(k)) * qq**k for k in ks)
                oscillatory = 2 * mpmath.pi * mpmath.fsum((s + (s + 1) / 2 * k) * qq**k for k in ks)
                if min(uniform, oscillatory) > planner.bound_exp_envelope(first, x):
                    below.append((first, x))
    return below


def test_exp_envelope_covers_its_sums_where_its_power_turns_subnormal():
    # from the computed power plus ulp(0.0), the bound lies above both sums
    assert _envelope_below_its_sum(normal=False) == []


def test_exp_envelope_covers_its_sums_where_its_power_is_normal():
    # raised by (1 + 1e-12) for the rounding of q, the bound lies above both
    # sums; unraised it fell up to 3.6e-14 of itself below them
    assert _envelope_below_its_sum(normal=True) == []


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        planner.tail_bound("no_such_family", 3)
    with pytest.raises(ValueError):
        planner.tail_bound("csch2", 0)
    with pytest.raises(ValueError):
        TailBound(family="csch2", first_omitted_index=1, bound=-1.0)


def test_log_csch2_singular_omitted_term_is_unbounded():
    # truncating just below an integer x leaves the singular term in the tail
    assert planner.tail_bound("log_csch2", 2, 5.0).bound == math.inf
    assert math.isfinite(planner.bound_log_csch2(2, 5.0, skip=5))
    # the k-sum's tail past the singular index stays finite
    assert math.isfinite(planner.bound_psi_k_sum(2, 5.0))


def test_plan_examples():
    assert planner.plan(1e-13, 1.0).k_terms <= 8
    assert planner.plan(1e-6, 1.0).k_terms <= 4
    # the double series sizes its inner sums itself: off the integers, where
    # they collapse to a closed form, they shorten as y grows
    n_used = lambda y: series.double_series_S(y, planner.plan(1e-13, y)).n_used
    assert n_used(10.25) < n_used(3.25)


def test_plan_floor_and_split():
    for tol, x in ((1e-6, 1.0), (1e-10, 2.2), (1e-13, 0.6)):
        p = planner.plan(tol, x)
        assert p.k_terms >= math.ceil(math.log(40.0 / tol) / TWO_PI)
        # the series run at the lifted argument, so the split holds there
        y = x + planner.lift_shift(x)
        first = p.k_terms + 1
        assert planner.bound_csch2(first) <= tol / 4.0
        assert planner.bound_exp_envelope(first, y) <= tol / 4.0
        assert planner.bound_log_csch2(first, y) <= tol / 4.0


@pytest.mark.parametrize("tol", [1e-3, 1.0, 1e3, 1e-6, 1e-9, 1e-12, 1e-15])
def test_planned_cap_never_cuts_the_double_series_short(tol):
    # plan sizes only the k-sums; at the lifted y >= 3 the envelope of the
    # double series is below tol/8 from the planned floor on (k = 1 for
    # tol >= 1e-3), so S ends at its own envelope, not at k_terms
    for x in (1e-8, 0.3, 1.0, 2.9999, 3.0, 3.0015, 3.2, 5.5, 17.0, 60.0, 1e6, 1e100):
        p = planner.plan(tol, x)
        y = x + planner.lift_shift(x)
        share = tol * double_series.S_TAIL_SHARE
        assert planner.bound_exp_envelope(p.k_terms + 1, y) <= share, x
        assert len(double_series.outer_weights(y, MAX_K_TERMS, tol)[0]) <= p.k_terms, x


@pytest.mark.parametrize("tol", [1e3, 1.0, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
def test_csch2_family_fits_at_the_planned_floor(tol):
    # from plan's floor, where q^k <= tol/40 with q = e^{-2 pi}, the csch2
    # tail is at most 4q (tol/40)/(1-q)^3 < tol/4
    q = math.exp(-TWO_PI)
    k = max(1, math.ceil(math.log(40.0 / tol) / TWO_PI))
    assert q**k <= tol / 40.0
    assert planner.bound_csch2(k + 1) <= 4.0 * q * (tol / 40.0) / (1.0 - q) ** 3 < tol / 4.0


def _k_sum_tails(first, y, skip):
    """The two k-sum tails plan holds to tol/4, from first."""
    return planner.bound_psi_k_sum(first, y, skip=skip), planner.bound_log_csch2(first, y, skip)


def _minimal_k(tol, x):
    """The smallest outer count from the csch2 floor on whose k-sum tails at
    the lifted argument both fit tol/4: the k-loop plan's closed form
    replaces, kept as its reference."""
    y = x + planner.lift_shift(x)
    guard = planner._guard_index(y, DEFAULT_GUARD_DELTA)
    k = max(1, math.ceil(math.log(40.0 / tol) / TWO_PI))
    while max(_k_sum_tails(k + 1, y, guard)) > tol / 4.0:
        k += 1
        assert k <= MAX_K_TERMS
    return k


def _plan_grid():
    tols = [10.0 ** (3 - 18 * i / 24) for i in range(25)]
    xs = [10.0 ** (-8 + 316.25 * i / 400) for i in range(401)]
    xs += [1.7976931348623157e308, 2.9999, 3.0, 3.0015]
    for m in (1, 2, 3, 4, 10, 59, 129, 130, 131, 199, 500, 1000, 10**6):
        for d in (0.0, 5e-4, 9.99e-4, 1.01e-3, 0.3, 0.5):
            xs += [m - d, m + d]
    return tols, xs


def test_plan_matches_the_minimal_k_loop():
    # the closed form is the loop's count until log(x)/5 outgrows 40
    # (x ~ 7e86), and past that it adds at most one term
    tols, xs = _plan_grid()
    for x in xs:
        for tol in tols:
            k, ref = planner.plan(tol, x).k_terms, _minimal_k(tol, x)
            if x < 1e86:
                assert k == ref, (x, tol)
            else:
                assert ref <= k <= ref + 1, (x, tol)


def test_planned_count_fits_every_k_sum_tail():
    tols, xs = _plan_grid()
    for x in xs:
        y = x + planner.lift_shift(x)
        guard = planner._guard_index(y, DEFAULT_GUARD_DELTA)
        for tol in tols:
            first = planner.plan(tol, x).k_terms + 1
            assert max(_k_sum_tails(first, y, guard)) <= tol / 4.0, (x, tol)
            assert planner.bound_csch2(first) <= tol / 4.0, (x, tol)


@pytest.mark.parametrize("x", [1e-8, 2.5, 7.0, 15.9995, 75.3, 1e6 + 0.3, 1e300])
def test_planned_psi_sums_only_its_moment_form(monkeypatch, x):
    # plan evaluates no bound; psi then takes its own lift and sums no double
    # series, no guard pair and no k-sum tail pass: at y >= 16 they are one
    # charged constant. That psi never loads rapidpsi.double_series is
    # checked in a fresh process (test_contract.py)
    def forbidden(*args, **kwargs):
        raise AssertionError("not on the planned psi path")

    tail_passes = ("bound_psi_k_sum", "bound_log_csch2")
    for name in tail_passes + ("_guard_index", "lift_shift", "bound_csch2"):
        monkeypatch.setattr(planner, name, forbidden)
    params = planner.plan(1e-12, x)
    monkeypatch.undo()
    for name in tail_passes + ("bound_csch2", "lift_shift"):
        monkeypatch.setattr(planner, name, forbidden)
    monkeypatch.setattr(series, "double_series_S", forbidden)
    monkeypatch.setattr(double_series, "_guard_pole_pair", forbidden)
    sv = series.psi_ramanujan(x, params)
    assert (sv.k_used, sv.n_used) == (params.k_terms, 0)


def test_plan_leaves_the_double_series_to_size_itself(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("plan sizes only the k-sums")

    monkeypatch.setattr(planner, "bound_exp_envelope", forbidden)
    for name in ("outer_weights", "_inner_lengths"):
        monkeypatch.setattr(double_series, name, forbidden)
    for x, tol in ((1e-8, 1e-15), (2.5, 1e-12), (3.0015, 1e-6), (1e12, 1e-9)):
        assert planner.plan(tol, x).n_terms == planner.MAX_N_TERMS


@pytest.mark.parametrize(
    "x,k_terms", [(3.0, 6000), (3.0, 1), (60.0, 6000), (118.5, 6000), (118.7, 6000), (1e6, 6000)]
)
def test_outer_weights_return_the_tail_they_stop_on(x, k_terms):
    # the envelope stop, the underflow stop (2 pi k x >= 745) and the cap
    # k_terms each hand back bound_exp_envelope at the first index not summed;
    # where e^{-2 pi x} underflows that is the floor 20 ulp(0.0), not 0
    tol = 1e-15
    weights, tail = double_series.outer_weights(x, k_terms, tol)
    assert tail == planner.bound_exp_envelope(len(weights) + 1, x)
    if len(weights) == k_terms:
        assert tail > tol * double_series.S_TAIL_SHARE
    if TWO_PI * x >= 745.0:
        assert weights == [] and tail == 20.0 * math.ulp(0.0)


def test_plan_validation():
    with pytest.raises(ValueError):
        planner.plan(1e-12, 0.0)
    with pytest.raises(ToleranceError):
        planner.plan(1e-16, 1.0)
    # unlifted, x = 0.05 would need more inner terms than the cap allows; the
    # recurrence lift must keep the double series under the cap and the
    # result sound
    p = planner.plan(1e-12, 0.05)
    assert planner.lift_shift(0.05) >= 1
    sv = series.psi_ramanujan(0.05, p)
    assert sv.n_used < p.n_terms == planner.MAX_N_TERMS
    assert abs(sv.value - psi_oracle(0.05)) <= sv.error_estimate


MEMO_TOLS = (1e-3, 1e-6, 1e-9, 3.7e-11, 1e-12, 1e-15)


def _memo_xs():
    """x log-spaced over [1e-12, 1e12], then both sides of e^200, where the
    log-csch2 weight max(40, log(x)/5) starts to vary with x, and the far
    end of the doubles."""
    xs = [10.0 ** (-12 + 24 * i / 96) for i in range(97)]
    switch = math.exp(200.0)
    below = above = switch
    for _ in range(4):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        xs += [below, above]
    return xs + [switch, 1e100, 1e300, 1.7e308]


def test_memoized_plan_is_the_closed_form_at_every_point():
    for tol in MEMO_TOLS:
        for x in _memo_xs():
            k = max(1, math.ceil(math.log(max(40.0, math.log(x) / 5.0) / tol) / TWO_PI))
            p = planner.plan(tol, x)
            assert p.k_terms == k, (tol, x)
            assert p.n_terms == planner.MAX_N_TERMS
            assert p == EvalParams(tol=tol, k_terms=k, n_terms=planner.MAX_N_TERMS)
            # a repeat call gives the same
            assert planner.plan(tol, x) == p


def test_plan_shares_one_instance_per_tol_below_e200():
    for tol in MEMO_TOLS:
        shared = planner.plan(tol, 2.5)
        assert all(planner.plan(tol, x) is shared for x in (1e-12, 1.0, 1e12, 1e80))
    # the shared instance is frozen, so no caller can change another's count
    with pytest.raises(AttributeError):
        shared.k_terms = 1


def test_plan_takes_no_log_up_to_e200_and_the_same_entry_past_it(monkeypatch):
    # plan's weight is 40 up to fl(e^200) with no log taken, and just past
    # it log(x)/5 still rounds to 40: every x near the switch gets the
    # entry of x = 1, and the log-free side adds no cache entry
    switch = math.exp(200.0)
    assert planner._WEIGHT_FLOOR_END == switch and math.log(switch) == 200.0
    below = [math.nextafter(switch, 0.0), switch, 1e80, 1e-300]
    above = [math.nextafter(switch, math.inf), switch * (1.0 + 1e-15)]
    for tol in MEMO_TOLS:
        shared = planner.plan(tol, 1.0)
        size = planner._planned.cache_info().currsize
        assert all(planner.plan(tol, x) is shared for x in below + above)
        assert planner._planned.cache_info().currsize == size
    with monkeypatch.context() as patch:
        patch.setattr(math, "log", lambda x: pytest.fail("plan took a log"))
        for x in below:
            planner.plan(1e-12, x)


@pytest.mark.parametrize(
    "tol, error",
    [(0.0, ValueError), (-1.0, ValueError), (math.nan, ValueError), (math.inf, ValueError),
     (1e-16, ToleranceError)],
)
def test_plan_refuses_a_bad_tol_on_every_call(tol, error):
    messages = []
    hits = planner._planned.cache_info().hits
    # either side of the log-free switch at e^200
    for x in (2.5, 2.5, 1e100):
        with pytest.raises(error) as caught:
            planner.plan(tol, x)
        assert type(caught.value) is error
        messages.append(str(caught.value))
    assert messages == messages[:1] * 3
    # no refusal was stored, so no repeat was answered from the cache
    assert planner._planned.cache_info().hits == hits


@pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -math.inf, math.nan, math.inf])
def test_plan_refuses_a_bad_x_before_the_cache(monkeypatch, x):
    def forbidden(*args):
        raise AssertionError("the cache was reached")

    monkeypatch.setattr(planner, "_planned", forbidden)
    with pytest.raises(ValueError, match="x must be positive and finite"):
        planner.plan(1e-12, x)


def test_plan_cache_is_bounded():
    maxsize = planner._planned.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < math.inf
    # above e^200 every x is a new key, and the cache stays within its bound
    for i in range(2 * maxsize):
        planner.plan(1e-12, 1e90 * (1.0 + i / 64.0))
    assert planner._planned.cache_info().currsize <= maxsize


def test_eval_params_caps_the_outer_count():
    # the evaluators size one inner-length pair per outer index, so an
    # unbounded count would allocate before any loop stops
    assert EvalParams(k_terms=MAX_K_TERMS).k_terms == 6000
    for bad in (MAX_K_TERMS + 1, 10**9):
        with pytest.raises(ValueError, match="6000"):
            EvalParams(k_terms=bad)


def test_plan_handles_extreme_arguments():
    assert planner.plan(1e-12, 1e6).k_terms >= 1
    # every double-series weight underflows, so no outer or inner term runs
    for x in (1e6, 1e6 + 0.5):
        sv = series.double_series_S(x, planner.plan(1e-15, x))
        assert (sv.k_used, sv.n_used) == (0, 0)
    assert planner.plan(1e-12, 1e100).k_terms >= 1


def test_plan_guard_skip_at_integer_x():
    # the singular k=10 log term is handled by the guard pair, not the tail
    assert planner.plan(1e-13, 10.0).k_terms < 10


def test_plan_soundness_on_grid():
    for x, tol in ((0.6, 1e-11), (1.7, 1e-8), (3.2, 1e-13), (12.9, 1e-12)):
        sv = series.psi_ramanujan(x, planner.plan(tol, x))
        assert abs(sv.value - psi_oracle(x)) <= tol + 1e-13


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(planner.FAMILIES),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.1, max_value=30.0),
)
def test_bounds_nonnegative_and_nonincreasing(family, first, x):
    b1 = planner.tail_bound(family, first, x).bound
    b2 = planner.tail_bound(family, first + 1, x).bound
    assert b1 >= 0.0
    assert b2 <= b1 or not math.isfinite(b1)

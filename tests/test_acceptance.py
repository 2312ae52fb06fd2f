"""Acceptance gate: twelve criteria, one pass/fail line each.

Each test prints `criterion NN <name>: PASS/FAIL (<detail>)` before asserting,
so the verdict and the measured numbers survive into the captured output.
Tolerances are pinned; a red here means the implementation misses the bar, not
that the bar moved.
"""

import json
import math
import random
import time
from fractions import Fraction

from rapidpsi import cli, identities, planner, series
from rapidpsi.bernoulli import build_bernoulli_table
from rapidpsi.oracles import (
    euler_gamma_reference,
    psi_oracle,
    s_integral_oracle,
    zeta_direct_oracle,
)
from rapidpsi.params import EvalParams, ModularPair

TABLE = build_bernoulli_table(20)
P12 = EvalParams(tol=1e-12, k_terms=12, n_terms=200000)


def _line(capsys, num: int, name: str, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_gamma_truncated_decimal(capsys):
    start = time.perf_counter_ns()
    g = series.gamma_at_integer(1, EvalParams(tol=1e-13, k_terms=5, n_terms=100))
    elapsed = (time.perf_counter_ns() - start) / 1e9
    v = 1.0 - g.value
    target = 1.0 - euler_gamma_reference()
    ok = (
        abs(v - target) <= 5e-14
        and math.floor(v * 1e13) == 4227843350984
        and elapsed < 1.0
    )
    assert _line(capsys, 1, "gamma_truncated_decimal", ok,
                 f"value={v:.17g} diff={abs(v - target):.2e} elapsed={elapsed:.3f}s")


def test_criterion_02_csch2_closed_form(capsys):
    p = EvalParams(tol=1e-12, k_terms=10, n_terms=16)
    partial = identities._power_csch2_sum(0, math.pi, p.k_terms)[0]
    total = partial + planner.tail_bound("csch2", 11).bound
    gap = abs(total - (1.0 / 6.0 - 1.0 / (2.0 * math.pi)))
    assert _line(capsys, 2, "csch2_closed_form", gap <= 1e-15, f"gap={gap:.2e}")


def test_criterion_03_lambert_identities(capsys):
    lam = identities._power_lambert_sum(1, math.pi, P12.k_terms)[0]
    lin = abs(lam - (1.0 / 24.0 - 1.0 / (8.0 * math.pi)))
    residuals = [abs(identities.lambert_identity_residual(m, TABLE, P12)) for m in (3, 5)]
    integral_gaps = [
        abs(identities._lambert_integral(m) - identities._lambert_closed_form(m, TABLE))
        for m in (3, 5)
    ]
    ok = lin <= 1e-15 and max(residuals) <= 1e-14 and max(integral_gaps) <= 1e-10
    assert _line(capsys, 3, "lambert_identities", ok,
                 f"linear={lin:.2e} worst_residual={max(residuals):.2e} "
                 f"worst_integral_gap={max(integral_gaps):.2e}")


def test_criterion_04_zeta_odd_single_parameter(capsys):
    diffs = [
        abs(series.zeta_odd(N, TABLE, P12).value - zeta_direct_oracle(2 * N + 1))
        for N in (1, 2, 3)
    ]
    exact = series._zeta_odd_j_sum(1, TABLE) == Fraction(7, 720)
    ok = max(diffs) <= 1e-12 and exact
    assert _line(capsys, 4, "zeta_odd_single_parameter", ok,
                 f"worst_diff={max(diffs):.2e} j_sum_exact={exact}")


def test_criterion_05_zeta_odd_two_parameter(capsys):
    worst = 0.0
    for N in (1, 2):
        base = series.zeta_odd(N, TABLE, P12).value
        for alpha in (math.pi, math.pi**2 / 2.0, 2.0 * math.pi**2):
            zg = series.zeta_odd_general(N, ModularPair.from_alpha(alpha), TABLE, P12)
            worst = max(worst, abs(zg.value - base))
    assert _line(capsys, 5, "zeta_odd_two_parameter", worst <= 1e-11, f"worst_diff={worst:.2e}")


def test_criterion_06_planned_accuracy_and_term_budget(capsys):
    xs = (0.25, 0.5, 1.5, 2.75, 10.3, 1.0, 2.0, 3.0)
    worst_diff = 0.0
    over_budget = []
    for x in xs:
        p = planner.plan(1e-12, x)
        sv = series.psi_ramanujan(x, p)
        worst_diff = max(worst_diff, abs(sv.value - psi_oracle(x)))
        if p.k_terms > 10:
            over_budget.append((x, p.k_terms))
    ok = worst_diff <= 1e-11 and not over_budget
    assert _line(capsys, 6, "planned_accuracy_and_term_budget", ok,
                 f"worst_diff={worst_diff:.2e} over_budget={over_budget}; the x=0.25 "
                 f"envelope needs k_terms>10 at tol=1e-12, accuracy still holds")


def test_criterion_07_double_series_vs_quadrature(capsys):
    gaps = [
        abs(series.double_series_S(x, planner.plan(1e-12, x)).value - s_integral_oracle(x))
        for x in (0.3, 1.2)
    ]
    assert _line(capsys, 7, "double_series_vs_quadrature", max(gaps) <= 1e-9,
                 f"worst_gap={max(gaps):.2e}")


def test_criterion_08_gamma_any_argument(capsys):
    vals = [series.gamma_any_x(x, planner.plan(1e-12, x)).value for x in (0.5, 2.25, 6.75)]
    spread = max(vals) - min(vals)
    worst = max(abs(v - 0.5772156649015328) for v in vals)
    ok = spread <= 2e-11 and worst <= 1e-10
    assert _line(capsys, 8, "gamma_any_argument", ok, f"spread={spread:.2e} worst={worst:.2e}")


def test_criterion_09_trigamma(capsys):
    p = EvalParams(tol=1e-12, k_terms=12, n_terms=16)
    h = 1e-4
    worst = 0.0
    for x in (0.4, 1.6, 3.3):
        d1 = series.psi_prime_ramanujan(x, p).value
        lo = series.psi_ramanujan(x - h, planner.plan(1e-13, x - h)).value
        hi = series.psi_ramanujan(x + h, planner.plan(1e-13, x + h)).value
        worst = max(worst, abs(d1 - (hi - lo) / (2.0 * h)))
    half = abs(series.psi_prime_ramanujan(0.5, p).value - (math.pi**2 / 2.0 - 4.0))
    ok = worst <= 1e-7 and half <= 1e-10
    assert _line(capsys, 9, "trigamma", ok, f"worst_central_diff={worst:.2e} half_integer={half:.2e}")


def test_criterion_10_asymptotic_residual(capsys):
    p = EvalParams(tol=1e-12, k_terms=10, n_terms=16)
    scaled = {x: x * abs(identities.asymptotic_residual(x, p)) for x in (2.5, 5.5, 10.5, 20.5)}
    no_growth = scaled[20.5] <= 2.0 * scaled[2.5]
    # the N = 0 limit of the odd-zeta family collapses to an exact cancellation
    csch2 = identities._power_csch2_sum(0, math.pi, p.k_terms)[0]
    eq_zero = abs(1.0 - math.pi / 3.0 + 2.0 * math.pi * csch2)
    ok = no_growth and eq_zero <= 1e-13
    assert _line(capsys, 10, "asymptotic_residual", ok,
                 f"scaled={[round(v, 4) for v in scaled.values()]} limit_residual={eq_zero:.2e}")


def test_criterion_11_bench_contrast(capsys):
    code = cli.main(["bench", "--x", "2.5", "--tol", "1e-6"])
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    by_method = {r["method"]: r for r in rows}
    ok = (
        code == cli.EXIT_OK
        and by_method["ramanujan"]["k_used"] <= 5
        and by_method["classical"]["n_used"] >= 100000
    )
    _line(capsys, 11, "bench_contrast", ok,
          f"ramanujan_k={by_method['ramanujan']['k_used']} "
          f"classical_n={by_method['classical']['n_used']}")
    assert ok


def test_criterion_12_randomized_tolerance_sweep(capsys):
    rng = random.Random(20260814)
    worst_excess = -math.inf
    draws = 0
    while draws < 20:
        x = 0.3 + rng.random() * 22.0
        tol = 10.0 ** rng.uniform(-13.0, -6.0)
        if abs(x - round(x)) <= 1.5e-3:
            continue
        draws += 1
        sv = series.psi_ramanujan(x, planner.plan(tol, x))
        worst_excess = max(worst_excess, abs(sv.value - psi_oracle(x)) - tol)
    ok = worst_excess <= 1e-13
    assert _line(capsys, 12, "randomized_tolerance_sweep", ok, f"worst_excess={worst_excess:.2e}")

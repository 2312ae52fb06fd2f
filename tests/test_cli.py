"""CLI frontend: record schema, exit codes, determinism, benchmark rows."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rapidpsi import cli, identities
from rapidpsi.oracles import euler_gamma_reference, psi_oracle
from rapidpsi.params import MAX_K_TERMS

SCHEMA = [
    "quantity",
    "input",
    "value",
    "abs_error_estimate",
    "k_used",
    "n_used",
    "method",
    "elapsed_nanoseconds",
]


def run_cli(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse-level rejections
        code = exc.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def rows(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


def test_record_schema_and_key_order(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--x", "2.5"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 1
    pairs = json.loads(lines[0], object_pairs_hook=list)
    assert [k for k, _ in pairs] == SCHEMA


def test_psi_value_at_one(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--x", "1", "--tol", "1e-13"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert r["quantity"] == "psi"
    assert r["method"] == "ramanujan"
    assert abs(r["value"] - 0.42278433509846713) <= 1e-13
    assert math.floor(r["value"] * 1e13) == 4227843350984


def test_psi_classical_route_agrees(capsys):
    _, out_r, _ = run_cli(capsys, ["psi", "--x", "2.5", "--tol", "1e-13"])
    code, out_c, _ = run_cli(capsys, ["psi", "--x", "2.5", "--method", "classical"])
    assert code == cli.EXIT_OK
    rc = rows(out_c)[0]
    assert rc["method"] == "classical"
    assert abs(rows(out_r)[0]["value"] - rc["value"]) <= 2e-12


def test_psi_terms_override(capsys):
    # --terms sets the outer count up to 7, plan's count at the tightest tol;
    # past it the moment form sums 7 and charges the rest in closed form
    for terms, k_used in (("6", 6), ("8", 7)):
        _, out, _ = run_cli(capsys, ["psi", "--x", "2.5", "--terms", terms])
        assert rows(out)[0]["k_used"] == k_used


def test_psi_terms_override_keeps_the_lift(capsys):
    # --terms sets only the outer count; small x is still summed at x + shift
    _, out, _ = run_cli(capsys, ["psi", "--x", "0.01", "--terms", "8"])
    r = rows(out)[0]
    assert r["abs_error_estimate"] <= 1e-12
    assert abs(r["value"] - psi_oracle(0.01)) <= r["abs_error_estimate"] + 1e-13


def test_terms_above_the_cap_are_a_one_line_input_error(capsys):
    code, out, err = run_cli(capsys, ["psi", "--x", "2.5", "--terms", "6001"])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "6000" in err


@pytest.mark.parametrize(
    "m, named",
    [
        pytest.param("100001", "100000", id="100001"),
        pytest.param("1000000000000", "100000", id="1000000000000"),
        pytest.param("0", "m must be a positive integer", id="0"),
    ],
)
def test_gamma_m_above_the_cap_is_a_one_line_input_error(capsys, m, named):
    # H_m is summed term by term; 10^12 terms would run for hours. m is
    # checked before the counts are planned at x = m, so m = 0 names m.
    code, out, err = run_cli(capsys, ["gamma", "--m", m])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert named in err


def test_terms_past_the_underflow_index_do_not_lengthen_inner_sums(capsys):
    # at x = 2.5 the weight e^{-2 pi k x} underflows past k = 47, so the inner
    # budget is split over those 47 outer terms, not over 6000
    n_used = []
    for terms in ("47", "6000"):
        _, out, _ = run_cli(capsys, ["psi", "--x", "2.5", "--tol", "1e-15", "--terms", terms])
        n_used.append(rows(out)[0]["n_used"])
    assert n_used[0] == n_used[1] < 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--x", "2.5"],
        ["psi-prime", "--x", "2.5"],
        ["gamma", "--x", "2.5"],
        ["gamma", "--m", "1"],
        ["zeta-odd", "--n", "3"],
    ],
)
def test_terms_past_the_underflow_index_report_the_terms_that_ran(capsys, argv):
    # the moment forms of psi, psi' and gamma --x sum at most 7 outer terms,
    # and every other k-loop stops where its weight underflows (k = 111, or
    # 118 for the double series at x = 1), so asking for 6000 runs what that
    # count runs
    def record(terms):
        code, out, _ = run_cli(capsys, argv + ["--tol", "1e-15", "--terms", terms])
        assert code == cli.EXIT_OK
        r = rows(out)[0]
        r.pop("elapsed_nanoseconds")
        return r

    wide = record("6000")
    assert wide["k_used"] <= 118
    assert record(str(wide["k_used"])) == wide


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--x", "2.5"],
        ["psi", "--x", "2.5", "--terms", "5"],
        ["psi", "--x", "2.5", "--method", "classical"],
        ["psi-prime", "--x", "2.5"],
        ["gamma", "--x", "2.5"],
        ["zeta-odd", "--n", "3"],
        ["bench", "--x", "2.5"],
    ],
)
@pytest.mark.parametrize(
    "tol, code, named",
    [
        ("1e-16", cli.EXIT_TOLERANCE, "unattainable"),
        ("0", cli.EXIT_INPUT, "tol must be positive and finite"),
        ("-1e-6", cli.EXIT_INPUT, "tol must be positive and finite"),
        ("nan", cli.EXIT_INPUT, "tol must be positive and finite"),
        ("inf", cli.EXIT_INPUT, "tol must be positive and finite"),
    ],
)
def test_one_tolerance_rule_with_or_without_the_planner(capsys, argv, tol, code, named):
    # EvalParams, plan and the classical route apply the same check, so
    # --terms, zeta-odd and the oracle exit as the planned calls do
    got, out, err = run_cli(capsys, argv + [f"--tol={tol}"])
    assert got == code
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert named in err


def test_psi_at_integer_reports_no_inner_terms(capsys):
    # at x = 3 the inner sums collapse to C_k(0) and none of them runs
    code, out, _ = run_cli(capsys, ["psi", "--x", "3", "--tol", "1e-15"])
    assert code == cli.EXIT_OK
    assert rows(out)[0]["n_used"] == 0


def test_psi_rejects_nonpositive_x(capsys):
    code, _, err = run_cli(capsys, ["psi", "--x", "-1"])
    assert code == cli.EXIT_INPUT
    assert "must be positive" in err


def test_psi_prime_half_integer(capsys):
    code, out, _ = run_cli(capsys, ["psi-prime", "--x", "0.5"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert abs(r["value"] - (math.pi * math.pi / 2.0 - 4.0)) <= 1e-10


def _psi_prime_within_estimate_of_mpmath(capsys, x, *options):
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run_cli(capsys, ["psi-prime", "--x", x, *options])
    assert (code, err) == (cli.EXIT_OK, "")
    r = rows(out)[0]
    with mpmath.workdps(40):
        truth = mpmath.psi(1, mpmath.mpf(float(x)) + 1)
        assert abs(mpmath.mpf(r["value"]) - truth) <= r["abs_error_estimate"]


@pytest.mark.parametrize("x", ["2.0005", "2", "1"])
def test_psi_prime_guard_band_is_within_its_estimate(capsys, x):
    _psi_prime_within_estimate_of_mpmath(capsys, x)


@pytest.mark.parametrize("x", ["1e-5", "1e-300"])
def test_psi_prime_near_zero_is_within_its_estimate(capsys, x):
    # x + 16 lands in the band around 16, at 1e-300 on 16 itself
    _psi_prime_within_estimate_of_mpmath(capsys, x)


def test_gamma_integer_route(capsys):
    code, out, _ = run_cli(capsys, ["gamma", "--m", "1", "--terms", "5"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert r["method"] == "integer_limit"
    assert r["input"] == 1
    assert r["k_used"] == 5
    assert r["n_used"] == 0
    assert abs(r["value"] - euler_gamma_reference()) <= 1e-12


def test_gamma_any_x_route(capsys):
    code, out, _ = run_cli(capsys, ["gamma", "--x", "0.5", "--tol", "1e-11"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert r["method"] == "any_argument"
    assert abs(r["value"] - euler_gamma_reference()) <= 1e-11


def test_gamma_any_x_reports_the_terms_that_ran(capsys):
    # --terms sets the outer count of the moment core; no inner sum runs, so
    # n_used is 0, not the cap the hand-built params allow
    code, out, _ = run_cli(capsys, ["gamma", "--x", "0.5", "--terms", "5"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert (r["k_used"], r["n_used"]) == (5, 0)


def _gamma_within_estimate_of_mpmath(capsys, x, *options):
    mpmath = pytest.importorskip("mpmath")
    code, out, err = run_cli(capsys, ["gamma", "--x", x, *options])
    assert (code, err) == (cli.EXIT_OK, "")
    r = rows(out)[0]
    assert r["method"] == "any_argument"
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(r["value"]) - mpmath.euler) <= r["abs_error_estimate"]


def test_gamma_guard_band_suggests_integer_route(capsys):
    # gamma --x refuses no x: its value does not depend on x, so an x in a
    # guard band, also past the cap on --m, sums at its lifted y
    for x in ("1.0003", "2.0005", "200000.0002"):
        _gamma_within_estimate_of_mpmath(capsys, x)


# Euler's constant to 40 digits, exact as a decimal string
GAMMA_40 = "0.5772156649015328606065120900824024310422"


def test_psi_and_gamma_at_sixteen_within_their_estimates(capsys):
    # y = 16 is where the moment forms' fixed degree is sized; psi(17) is
    # H_16 - gamma, compared in exact rationals (the CI smoke step's twin)
    gamma = Fraction(GAMMA_40)
    code, out, _ = run_cli(capsys, ["psi", "--x", "16", "--tol", "1e-15"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    truth = sum(Fraction(1, j) for j in range(1, 17)) - gamma
    assert abs(Fraction(r["value"]) - truth) <= r["abs_error_estimate"]
    code, out, _ = run_cli(capsys, ["gamma", "--m", "16", "--tol", "1e-12"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert abs(Fraction(r["value"]) - gamma) <= r["abs_error_estimate"] <= 1e-12


def test_gamma_near_zero_is_not_a_guard_band(capsys):
    # x + lift_shift(x) = 3.0005 is near 3, but x itself is in no band
    code, out, _ = run_cli(capsys, ["gamma", "--x", "0.0005"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert abs(r["value"] - euler_gamma_reference()) <= r["abs_error_estimate"]


def test_gamma_requires_exactly_one_argument(capsys):
    for argv in (["gamma"], ["gamma", "--m", "1", "--x", "0.5"]):
        code, _, err = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT
        assert "exactly one" in err


def test_zeta_odd_value(capsys):
    code, out, _ = run_cli(capsys, ["zeta-odd", "--n", "1"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert r["method"] == "single_parameter"
    assert abs(r["value"] - 1.2020569031595942) <= 1e-12


def test_zeta_odd_two_parameter_matches(capsys):
    _, out_a, _ = run_cli(capsys, ["zeta-odd", "--n", "2"])
    code, out_b, _ = run_cli(capsys, ["zeta-odd", "--n", "2", "--alpha", "4.934802200544679"])
    assert code == cli.EXIT_OK
    rb = rows(out_b)[0]
    assert rb["method"] == "two_parameter"
    assert abs(rows(out_a)[0]["value"] - rb["value"]) <= 1e-12


def test_zeta_odd_two_parameter_ignores_terms(capsys):
    # each scale sizes its own sum from --tol, so --terms, even one that
    # --n alone refuses, changes no field but the timing
    records = []
    for terms in ([], ["--terms", "1"], ["--terms", "10"], ["--terms", "6000"],
                  ["--terms", "0"], ["--terms", "6001"]):
        code, out, _ = run_cli(capsys, ["zeta-odd", "--n", "5", "--alpha", "2.5", *terms])
        assert code == cli.EXIT_OK
        r = rows(out)[0]
        del r["elapsed_nanoseconds"]
        records.append(r)
    assert all(r == records[0] for r in records), records
    code, out, _ = run_cli(capsys, ["zeta-odd", "--help"])
    assert code == 0 and "ignores --terms" in " ".join(out.split())


def test_zeta_odd_rejects_nonpositive_n(capsys):
    code, _, _ = run_cli(capsys, ["zeta-odd", "--n", "0"])
    assert code == cli.EXIT_INPUT


def test_verify_identities_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "identities"])
    assert code == cli.EXIT_OK
    byname = {r["quantity"]: r for r in rows(out)}
    assert byname["check:csch2_closed_form"]["method"] == "pass"
    assert all(r["method"] == "pass" for r in byname.values())


def test_verify_asymptotic_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "asymptotic"])
    assert code == cli.EXIT_OK
    names = [r["quantity"] for r in rows(out)]
    assert "check:log_coefficient_cancellation" in names


def test_verify_all_suites_green(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "all"])
    assert code == cli.EXIT_OK
    assert all(r["method"] == "pass" for r in rows(out))


def test_verify_unknown_suite_is_a_one_line_input_error(capsys):
    code, out, err = run_cli(capsys, ["verify", "--suite", "no-such-suite"])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert all(name in err for name in identities.SUITES)


def test_verify_times_each_check(capsys, monkeypatch):
    # each record's time covers running its check, not only printing it
    real = identities.run_suite

    def slow_suite(name):
        for check in real(name):
            time.sleep(0.01)
            yield check

    monkeypatch.setattr(identities, "run_suite", slow_suite)
    code, out, _ = run_cli(capsys, ["verify", "--suite", "asymptotic"])
    assert code == cli.EXIT_OK
    records = rows(out)
    assert len(records) == 3
    assert all(r["elapsed_nanoseconds"] >= 10**7 for r in records)


def test_identities_alias_matches_verify(capsys):
    _, out_a, _ = run_cli(capsys, ["identities"])
    _, out_v, _ = run_cli(capsys, ["verify", "--suite", "identities"])
    names_a = [r["quantity"] for r in rows(out_a)]
    names_v = [r["quantity"] for r in rows(out_v)]
    assert names_a == names_v


def test_output_is_deterministic_up_to_timing(capsys):
    _, out1, _ = run_cli(capsys, ["psi", "--x", "3.7"])
    _, out2, _ = run_cli(capsys, ["psi", "--x", "3.7"])
    r1, r2 = rows(out1)[0], rows(out2)[0]
    r1.pop("elapsed_nanoseconds")
    r2.pop("elapsed_nanoseconds")
    assert r1 == r2


def test_plain_format(capsys):
    code, out, _ = run_cli(capsys, ["psi", "--x", "1.5", "--format", "plain"])
    assert code == cli.EXIT_OK
    assert "quantity=psi" in out
    assert "{" not in out


def test_bench_rows(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--x", "2.5", "--tol", "1e-6"])
    assert code == cli.EXIT_OK
    by_method = {r["method"]: r for r in rows(out)}
    ram = by_method["ramanujan"]
    cla = by_method["classical"]
    assert ram["k_used"] <= 4
    assert cla["n_used"] >= 100000
    ref = psi_oracle(2.5)
    assert abs(ram["value"] - ref) <= 1e-6
    assert abs(cla["value"] - ref) <= 1e-6 + cla["abs_error_estimate"]


def test_bench_classical_caps_at_hard_limit(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--x", "2.5", "--tol", "1e-12"])
    assert code == cli.EXIT_OK
    capped = [r for r in rows(out) if r["method"] == "classical-capped"]
    assert len(capped) == 1
    assert capped[0]["n_used"] == 100000000


def test_bench_caps_the_classical_sum_where_x_over_tol_overflows(capsys):
    # 1e300/1e-12 is inf, whose ceiling raised OverflowError after the
    # first record; the ratio now meets the cap first
    code, out, _ = run_cli(capsys, ["bench", "--x", "1e300", "--tol", "1e-12"])
    assert code == cli.EXIT_OK
    (capped,) = [r for r in rows(out) if r["method"] == "classical-capped"]
    assert capped["n_used"] == 100000000


def test_bench_terms_grow_with_tolerance(capsys):
    code, out, _ = run_cli(capsys, ["bench", "--x", "2.5", "--tol", "1e-3", "1e-6"])
    assert code == cli.EXIT_OK
    ks = [r["k_used"] for r in rows(out) if r["method"] == "ramanujan"]
    assert len(ks) == 2
    assert ks[0] <= ks[1]


def test_bench_admits_guard_band_x(capsys):
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run_cli(capsys, ["bench", "--x", "2.0005", "--tol", "1e-6"])
    assert code == cli.EXIT_OK
    (r,) = [r for r in rows(out) if r["method"] == "ramanujan"]
    with mpmath.workdps(30):
        truth = mpmath.digamma(mpmath.mpf(2.0005) + 1)
        assert abs(mpmath.mpf(r["value"]) - truth) <= r["abs_error_estimate"] <= 1e-6


@pytest.mark.parametrize("argv", [["gamma", "--x", "2.5"], ["gamma", "--m", "2"]])
def test_gamma_at_loose_tolerance_is_within_its_estimate(capsys, argv):
    # the planned truncation leaves an error near 1e-7 here, which the
    # estimate covers; no fixed distance from the constant is imposed
    code, out, _ = run_cli(capsys, argv + ["--tol", "1e-6"])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    assert abs(r["value"] - euler_gamma_reference()) <= r["abs_error_estimate"]


@pytest.mark.parametrize(
    "argv", [["psi"], ["psi", "--method", "classical"], ["psi-prime"], ["gamma"], ["bench"]]
)
def test_infinite_x_is_a_one_line_input_error(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--x", "inf"])
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize("x", ["1e300", "1.7e308"])
def test_psi_at_huge_x_is_within_its_estimate(capsys, x):
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run_cli(capsys, ["psi", "--x", x])
    assert code == cli.EXIT_OK
    r = rows(out)[0]
    with mpmath.workdps(30):
        truth = mpmath.digamma(mpmath.mpf(x) + 1)
        assert abs(mpmath.mpf(r["value"]) - truth) <= r["abs_error_estimate"]


@pytest.mark.parametrize("x", ["4503599627370496", "1e300"])
def test_psi_prime_at_huge_x_is_within_its_estimate(capsys, x):
    # every double from 2^52 on is an integer
    _psi_prime_within_estimate_of_mpmath(capsys, x)


@pytest.mark.parametrize("x", ["1000000000000", "4503599627370496", "1e300", "1.7e308"])
def test_gamma_at_huge_x_is_within_its_estimate(capsys, x):
    # 1e12 and every double from 2^52 on are integers, so each lies in a
    # guard band, which gamma --x sums through
    _gamma_within_estimate_of_mpmath(capsys, x, "--tol", "1e-9")


def _fresh_python(*args, timeout=None):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_cli_import_loads_no_scipy():
    probe = "import sys, rapidpsi.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = _fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_package_import_loads_no_check_code():
    probe = (
        "import sys, rapidpsi; "
        "print(sorted(m for m in sys.modules if m in ('rapidpsi.oracles', 'rapidpsi.identities')))"
    )
    done = _fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "call",
    [
        "rapidpsi.psi_ramanujan(2.5, rapidpsi.plan(1e-12, 2.5))",
        "rapidpsi.psi_ramanujan(1e-8, rapidpsi.plan(1e-15, 1e-8))",
        "rapidpsi.cli.main(['psi', '--x', '2.5'])",
    ],
)
def test_planned_psi_imports_no_numpy(call):
    # psi's moment form sums no double series, and the CLI imports numpy and
    # the check modules only for verify, bench and --method classical
    probe = f"import sys, rapidpsi, rapidpsi.cli; {call}; print('numpy' in sys.modules)"
    done = _fresh_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_import_path_loads_no_dataclasses_typing_or_numpy():
    # -S keeps site out, which can import typing through a .pth file and
    # so hide a module the package itself pulls in; fractions (and decimal
    # with it) loads only with a Bernoulli table, on a zeta command, and the
    # double series only with a double_series_S call
    names = ('dataclasses', 'inspect', 'typing', 'numpy', 'fractions', 'decimal',
             'rapidpsi.double_series')
    probe = (
        "import sys, rapidpsi, rapidpsi.cli; rapidpsi.cli.main(['psi', '--x', '2.5']); "
        f"print([m for m in {names!r} if m in sys.modules])"
    )
    done = _fresh_python("-S", "-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_readme_library_use_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    done = _fresh_python("-c", block + "\nprint(sv.value, g.value, z3.value)")
    assert done.returncode == 0, done.stderr
    psi, gamma, z3 = map(float, done.stdout.split())
    assert abs(psi - 1.1031566406452432) <= 1e-12
    assert abs(gamma - 0.5772156649015329) <= 1e-12
    assert abs(z3 - 1.2020569031595942) <= 1e-12


@pytest.mark.parametrize("alpha", ["1e-10", "1e10", "1e-30", "1e-300", "1e300"])
def test_zeta_odd_at_extreme_alpha_is_a_tolerance_error(alpha):
    # the slower k-sum would need ~1e11 or more terms (the CLI hung), and at
    # 1e-30 and 1e-300 the parameter powers failed with a traceback; 1e300
    # puts the slower scale on beta
    done = _fresh_python("-m", "rapidpsi", "zeta-odd", "--n", "2", "--alpha", alpha, timeout=60)
    assert done.returncode == cli.EXIT_TOLERANCE
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1
    assert str(MAX_K_TERMS) in done.stderr


@pytest.mark.parametrize("alpha", ["1e-300", "1e300", "1e-30"])
def test_zeta_odd_at_extreme_alpha_and_loose_tol_is_a_tolerance_error(capsys, alpha):
    # a tol above 400 once made the up-front check pass any alpha, and the
    # sums then ended in an OverflowError or a ZeroDivisionError
    code, out, err = run_cli(capsys, ["zeta-odd", "--n", "2", "--tol", "1e5", "--alpha", alpha])
    assert code == cli.EXIT_TOLERANCE
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert str(MAX_K_TERMS) in err


def test_successive_main_calls_parse_independently(capsys):
    # main parses every call with the one parser built per process; no
    # option, default or subcommand of one call may reach the next
    assert cli.build_parser() is cli.build_parser()
    parser = cli.build_parser()
    assert parser.parse_args(["identities"]).suite == "identities"
    assert parser.parse_args(["verify"]).suite == "all"
    assert parser.parse_args(["psi", "--x", "2.5", "--tol", "1e-6"]).tol == 1e-6
    assert parser.parse_args(["psi", "--x", "2.5"]).tol == 1e-12
    calls = (
        (["gamma", "--m", "2"], cli.EXIT_OK, "integer_limit"),
        (["gamma", "--x", "0.5"], cli.EXIT_OK, "any_argument"),
        (["zeta-odd", "--n", "3", "--alpha", "2.0"], cli.EXIT_OK, "two_parameter"),
        (["zeta-odd", "--n", "3"], cli.EXIT_OK, "single_parameter"),
        (["psi", "--x", "2.5", "--method", "classical"], cli.EXIT_OK, "classical"),
        (["psi", "--x", "2.5"], cli.EXIT_OK, "ramanujan"),
        (["psi"], cli.EXIT_INPUT, None),
        (["psi-prime", "--x", "2.5"], cli.EXIT_OK, "ramanujan"),
    )
    for argv, expected, method in calls:
        code, out, _ = run_cli(capsys, argv)
        assert code == expected, argv
        if method is not None:
            assert rows(out)[0]["method"] == method, argv


def test_parse_errors_exit_with_input_code(capsys):
    for argv in ([], ["psi"], ["no-such-command"]):
        code, _, _ = run_cli(capsys, argv)
        assert code == cli.EXIT_INPUT

"""Tests of the benchmark's own input generator and output checker.

Run from the root of the repository:
  python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)

mpmath = pytest.importorskip("mpmath")


def _evaluate(op):
    program = worker.Program({op[0]})
    prepare, evaluate, _, _ = program.bind(op)
    return worker.normalize(evaluate(prepare()))


@pytest.mark.parametrize(
    "op",
    [
        ["psi", 2.5, 1e-12],
        ["psi", 0.25, 1e-15],
        ["psi", 3.0e9, 1e-9],
        ["re_psi", 7.3, 1e-12],
        ["gamma_any_x", 4.6, 1e-12],
        ["zeta_odd_general", 3, 2.0, 1e-12],
    ],
)
def test_library_result_moved_by_twice_its_estimate_fails(op):
    checker = run.Checker([op])
    output = _evaluate(op)
    checker.check(0, output)
    assert (checker.attempted, checker.failed) == (1, 0)

    _, value, estimate = output
    away = 1.0 if value >= float(checker.refs[0]) else -1.0
    checker.check(0, ["ok", value + away * 2.0 * estimate, estimate])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert len(checker.unexpected) == 1


def test_known_fault_is_counted_but_expected():
    op = ["zeta_odd", 17, 1e-12]
    assert workloads.is_known_fault(op)
    checker = run.Checker([op])
    checker.check(0, _evaluate(op))
    assert (checker.attempted, checker.failed, checker.unexpected) == (1, 1, [])


def test_cli_record_with_a_wrong_value_fails():
    x, tol = 2.5, 1e-12
    checker = run.Checker([["psi", x, tol]])
    output = worker.normalize(worker.run_cli(["psi", "--x", repr(x), "--tol", repr(tol)]))
    assert output[:2] == ["cli", 0]
    checker.check(0, output)
    assert checker.failed == 0

    record = json.loads(output[2])
    record["value"] = record["value"] * (1.0 + 1e-9)
    checker.check(0, ["cli", 0, json.dumps(record) + "\n"])
    checker.check(0, ["cli", 1, output[2]])  # a failing exit code
    checker.check(0, ["cli", 0, output[2].replace('"psi"', '"psi_prime"')])
    checker.check(0, ["cli", 0, output[2].replace(repr(x), "2.75")])
    checker.check(0, ["cli", 0, ""])
    assert (checker.attempted, checker.failed) == (6, 5)


def test_mpmath_reference_agrees_with_scipy():
    digamma = pytest.importorskip("scipy.special").digamma
    seed = workloads.DEFAULT_SEED
    small = [(x, tol) for _, x, tol in workloads.generate("psi_small_x", seed)]
    for x, tol in (small + workloads.large_x_inputs(seed))[::8]:
        ref = float(reference.reference(["psi", x, tol]))
        assert abs(ref - digamma(x + 1.0)) <= 1e-13, x


def test_checker_rejects_non_finite_outputs():
    ref = reference.reference(["psi", 2.5, 1e-12])
    value = float(ref)
    assert reference.within_estimate(value, 1e-15, ref)
    assert not reference.within_estimate(math.nan, 1e-15, ref)
    assert not reference.within_estimate(value, math.inf, ref)
    assert not reference.output_passes(["psi", 2.5, 1e-12], ["error", "boom"], ref)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.generate(workload, workloads.DEFAULT_SEED)
    assert workloads.generate(workload, workloads.DEFAULT_SEED) == first
    assert workloads.generate(workload, workloads.HELD_OUT_SEED) != first


def test_large_x_inputs_follow_the_seed():
    first = workloads.large_x_inputs(workloads.DEFAULT_SEED)
    assert workloads.large_x_inputs(workloads.DEFAULT_SEED) == first
    assert workloads.large_x_inputs(workloads.HELD_OUT_SEED) != first
    assert len(first) == 4 * workloads.PSI_PER_TOL
    assert all(60.0 <= x < 1e12 for x, _ in first)


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, 7])
def test_round_make_up_does_not_depend_on_the_seed(seed):
    ops = workloads.generate("corollaries", seed)
    kinds = [op[0] for op in ops]
    assert {kinds.count(k) for k in set(kinds)} == {workloads.COROLLARY_SHARE}
    assert sum(map(workloads.is_known_fault, ops)) == len(workloads.KNOWN_FAULTS)

    small = workloads.generate("psi_small_x", seed)
    assert len(small) == 4 * workloads.PSI_PER_TOL
    near = [x for _, x, _ in small if workloads.near_positive_integer(x, 1e-3)]
    below = [x for _, x, _ in small if x < 3.0]
    assert len(near) == 4 * 6
    assert 0.45 <= len(below) / len(small) <= 0.55
    assert min(x for _, x, _ in small) < 1e-7


def test_peak_rss_does_not_grow_with_the_run_length():
    # The worker reads peak RSS after the timed loop. Were it to keep data per
    # timed operation, a longer (or faster) run would read as more memory.
    ops = workloads.generate("psi_small_x", workloads.DEFAULT_SEED)[:32]
    rss = [
        json.loads(run._child(
            [sys.executable, str(run.WORKER)],
            {"mode": "loop", "ops": ops, "seconds": seconds},
        ))["peak_rss_mb"]
        for seconds in (0.5, 8.0)
    ]
    assert abs(rss[1] - rss[0]) < 0.25, rss

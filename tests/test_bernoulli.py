"""Exact rational Bernoulli table: frozen values, structure, the defining
recurrence as a property, and the tangent-number build against that
recurrence run in Fraction arithmetic."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidpsi import double_series, series
from rapidpsi.bernoulli import (
    SHARED_MAX_INDEX,
    BernoulliTable,
    bernoulli_over_factorial,
    build_bernoulli_table,
)
from rapidpsi.params import EvalParams, ModularPair

TABLE = build_bernoulli_table(64)


def recurrence_values(max_index):
    """B_0..B_max_index from sum_{k=0}^{n} C(n+1,k) B_k = 0 in Fraction
    arithmetic, the reference the tangent-number build must equal."""
    values = [Fraction(1)]
    for n in range(1, max_index + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return values


REFERENCE = recurrence_values(200)


def test_tangent_build_equals_the_recurrence_up_to_200():
    # the recurrence's values for n <= m do not depend on how far it runs,
    # so one run to 200 holds every shorter table's values
    for max_index in range(0, 201, 2):
        values = build_bernoulli_table(max_index).values
        assert len(values) == max_index + 1
        for got, want in zip(values, REFERENCE):
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_zeta_even_floats_are_those_of_the_recurrence():
    table = BernoulliTable(SHARED_MAX_INDEX, tuple(REFERENCE[: SHARED_MAX_INDEX + 1]))
    expected = tuple(series.zeta_even(j, table) for j in range(len(double_series._ZETA_EVEN)))
    assert [x.hex() for x in double_series._ZETA_EVEN] == [x.hex() for x in expected]


def test_package_import_and_a_psi_command_build_no_table():
    # counted by a profile hook set before the package's first import, so
    # every call is seen, whichever module holds the name: _ZETA_EVEN comes
    # from the tangent numbers, so no table is built until a zeta command
    # builds the shared one, once
    probe = (
        "import sys\n"
        "calls = []\n"
        "def hook(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_name == 'build_bernoulli_table'"
        " and code.co_filename.endswith('bernoulli.py'):\n"
        "        calls.append(1)\n"
        "sys.setprofile(hook)\n"
        "import rapidpsi, rapidpsi.cli\n"
        "code = rapidpsi.cli.main(['psi', '--x', '2.5'])\n"
        "print(code, len(calls))\n"
        "for n in ('3', '5'):\n"
        "    code = rapidpsi.cli.main(['zeta-odd', '--n', n])\n"
        "sys.setprofile(None)\n"
        "print(code, len(calls))\n"
    )
    src = str(Path(series.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split() == ["0", "0"]
    assert lines[-1].split()[-2:] == ["0", "1"]

# classical values, exact
KNOWN = [
    (0, Fraction(1)),
    (1, Fraction(-1, 2)),
    (2, Fraction(1, 6)),
    (4, Fraction(-1, 30)),
    (6, Fraction(1, 42)),
    (8, Fraction(-1, 30)),
    (10, Fraction(5, 66)),
    (12, Fraction(-691, 2730)),
    (14, Fraction(7, 6)),
    (16, Fraction(-3617, 510)),
    (18, Fraction(43867, 798)),
    (20, Fraction(-174611, 330)),
]


@pytest.mark.parametrize("index,expected", KNOWN)
def test_known_values_exact(index, expected):
    assert TABLE.values[index] == expected


@pytest.mark.parametrize("index", range(3, 64, 2))
def test_odd_indices_vanish(index):
    assert TABLE.values[index] == 0


@pytest.mark.parametrize("j", range(1, 32))
def test_even_signs_alternate(j):
    # sign(B_{2j}) = (-1)^{j+1}
    value = TABLE.values[2 * j]
    assert (value > 0) == (j % 2 == 1)


def test_values_are_reduced_fractions():
    for v in TABLE.values:
        assert isinstance(v, Fraction)
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.denominator > 0


def test_table_shape():
    assert TABLE.max_index == 64
    assert len(TABLE.values) == 65


@pytest.mark.parametrize(
    "index,expected",
    [(0, Fraction(1)), (2, Fraction(1, 12)), (4, Fraction(-1, 720)), (6, Fraction(1, 30240))],
)
def test_bernoulli_over_factorial(index, expected):
    assert bernoulli_over_factorial(TABLE, index) == expected


def test_over_factorial_range_check():
    with pytest.raises(IndexError):
        bernoulli_over_factorial(TABLE, 66)
    with pytest.raises(IndexError):
        bernoulli_over_factorial(TABLE, -2)


@pytest.mark.parametrize("bad", [-2, 3, 11])
def test_build_rejects_bad_max_index(bad):
    with pytest.raises(ValueError):
        build_bernoulli_table(bad)


def test_table_validates_length():
    with pytest.raises(ValueError):
        BernoulliTable(max_index=4, values=(Fraction(1),))


def test_used_table_still_equals_hashes_and_prints_as_a_fresh_one():
    # the memo of derived floats is no part of the table's identity
    used = BernoulliTable(max_index=TABLE.max_index, values=TABLE.values)
    fresh = build_bernoulli_table(64)
    before = repr(used)
    p = EvalParams(tol=1e-12, k_terms=10)
    for N in range(1, 32):
        series.zeta_odd(N, used, p)
        series.zeta_odd_general(N, ModularPair.from_alpha(2.0), used, p)
    assert sorted(used.derived) == list(range(1, 32)) and not fresh.derived
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == before == repr(fresh)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=40))
def test_defining_recurrence_holds(n):
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1, exactly
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n + 1, k) * TABLE.values[k]
    assert acc == 0

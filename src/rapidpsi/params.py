"""Shared domain types for the series evaluators and the truncation planner,
and Record, the base of every record the package defines."""

from __future__ import annotations

import math

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


class Record:
    """Base of the package's immutable records: plain slotted classes, so
    that importing the package loads no stdlib record machinery, nor the
    inspect and typing modules that machinery pulls in.

    A subclass names its attributes in __slots__ and, in _fields, those that
    take part in ==, the hash, the repr and pickling; its __init__ takes the
    _fields positionally in that order, checks them and stores every slot
    once through that slot's descriptor setter, which __init_subclass__
    binds into _setters in __slots__ order. Once built, a record refuses
    assignment and deletion with AttributeError.

    series_value, the evaluators' builder of SeriesValue, differs: it makes
    __init__'s check, stores the slots by plain attribute assignment on a
    twin class with SeriesValue's layout and then gives the object
    SeriesValue's class. That skips the four setter calls, about half the
    cost of a SeriesValue(...) call."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key()


class EvalParams(Record):
    """Evaluation budget: target tolerance and outer/inner term counts. The
    half-width of the removable-singularity band around positive integers is
    fixed at DEFAULT_GUARD_DELTA.

    k_terms is the outer count of the k-sums, which plan sets in closed form
    from tol and log x; the evaluators charge the k-sum tails from
    k_terms + 1. psi_ramanujan, psi_prime_ramanujan, gamma_any_x,
    gamma_at_integer and re_psi_complex_ramanujan take their moments over
    K = min(k_terms, 7) outer terms (plan's count never exceeds 7) and sum
    them at an argument lifted to 16 or more, at max(m, 16) for
    gamma_at_integer, or for Re psi at x from 16 on and at 16 below (where it
    is P(x) - gamma). zeta_odd sums
    k <= k_terms at scale pi; zeta_odd_general does not read k_terms and
    stops each of its k-sums at its own share of tol. The double
    series, which double_series_S sums where it stands from
    planner.LIFT_TARGET on and at the integers, sizes its outer and inner
    sums itself from tol (double_series.outer_weights), and both counts
    only cap it: plan sets n_terms to planner.MAX_N_TERMS.
    """

    __slots__ = _fields = ("tol", "k_terms", "n_terms")
    guard_delta = DEFAULT_GUARD_DELTA

    def __init__(self, tol: float = 1e-12, k_terms: int = 10, n_terms: int = 20000):
        check_tol(tol)
        if k_terms < 1 or n_terms < 1:
            raise ValueError("k_terms and n_terms must be positive")
        if k_terms > MAX_K_TERMS:
            raise ValueError(f"k_terms must be at most {MAX_K_TERMS}")
        set_tol, set_k_terms, set_n_terms = self._setters
        set_tol(self, tol)
        set_k_terms(self, k_terms)
        set_n_terms(self, n_terms)


class SeriesValue(Record):
    """The result of every evaluator: a value with an a posteriori error upper
    bound and the term counts that ran, k_used outer terms and n_used terms
    in the longest inner sum (0 where no inner sum runs)."""

    __slots__ = _fields = ("value", "error_estimate", "k_used", "n_used")

    def __init__(self, value: float, error_estimate: float, k_used: int, n_used: int):
        _check_estimate(error_estimate)
        set_value, set_error_estimate, set_k_used, set_n_used = self._setters
        set_value(self, value)
        set_error_estimate(self, error_estimate)
        set_k_used(self, k_used)
        set_n_used(self, n_used)


def _check_estimate(error_estimate: float) -> None:
    """Raise ValueError unless error_estimate is finite and nonnegative."""
    if not 0.0 <= error_estimate < math.inf:
        raise ValueError("error_estimate must be finite and nonnegative")


class _SeriesValueDraft(Record):
    """SeriesValue's slots, assignable: series_value fills one and then
    makes it a SeriesValue, which the shared layout allows. Both hooks are
    object's own, so an assignment takes the generic C path, with no
    Python-level call."""

    __slots__ = SeriesValue.__slots__
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def series_value(value: float, error_estimate: float, k_used: int, n_used: int) -> SeriesValue:
    """SeriesValue(value, error_estimate, k_used, n_used), checked the same
    way but built without __init__'s setter calls; every evaluator builds
    its result here."""
    _check_estimate(error_estimate)
    record = _SeriesValueDraft()
    record.value = value
    record.error_estimate = error_estimate
    record.k_used = k_used
    record.n_used = n_used
    record.__class__ = SeriesValue
    return record


class ModularPair(Record):
    """Positive pair (alpha, beta) with alpha*beta = pi^2."""

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        pi2 = math.pi * math.pi
        if not (alpha > 0 and beta > 0):
            raise ValueError("alpha and beta must be positive")
        if abs(alpha * beta - pi2) > 1e-14 * pi2:
            raise ValueError("alpha * beta must equal pi^2")
        set_alpha, set_beta = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)

    @classmethod
    def from_alpha(cls, alpha: float) -> "ModularPair":
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        return cls(alpha=alpha, beta=math.pi * math.pi / alpha)


class TailBound(Record):
    """A rigorous upper bound for the tail of a named series family starting
    at first_omitted_index."""

    __slots__ = _fields = ("family", "first_omitted_index", "bound")

    def __init__(self, family: str, first_omitted_index: int, bound: float):
        if first_omitted_index < 1:
            raise ValueError("first_omitted_index must be >= 1")
        # +inf is legal (a singular term past the truncation point has no
        # finite bound); NaN and negatives are not.
        if not bound >= 0:
            raise ValueError("bound must be nonnegative")
        set_family, set_first_omitted_index, set_bound = self._setters
        set_family(self, family)
        set_first_omitted_index(self, first_omitted_index)
        set_bound(self, bound)

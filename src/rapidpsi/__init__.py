"""rapidpsi: hyperbolic-series evaluation of the digamma function and its
corollaries, with a tolerance-driven truncation planner and rigorous tail
bounds. The classical oracles (rapidpsi.oracles) and the identity checks
(rapidpsi.identities) are imported from their own modules."""

from .bernoulli import BernoulliTable, bernoulli_over_factorial, build_bernoulli_table
from .errors import ToleranceError
from .params import (
    DEFAULT_GUARD_DELTA,
    EvalParams,
    ModularPair,
    SeriesValue,
    TailBound,
)
from .planner import FAMILIES, plan, tail_bound
from .series import (
    double_series_S,
    gamma_any_x,
    gamma_at_integer,
    psi_prime_ramanujan,
    psi_ramanujan,
    re_psi_complex_ramanujan,
    zeta_even,
    zeta_odd,
    zeta_odd_general,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "bernoulli_over_factorial",
    "build_bernoulli_table",
    "ToleranceError",
    "DEFAULT_GUARD_DELTA",
    "EvalParams",
    "ModularPair",
    "SeriesValue",
    "TailBound",
    "FAMILIES",
    "plan",
    "tail_bound",
    "double_series_S",
    "gamma_any_x",
    "gamma_at_integer",
    "psi_prime_ramanujan",
    "psi_ramanujan",
    "re_psi_complex_ramanujan",
    "zeta_even",
    "zeta_odd",
    "zeta_odd_general",
    "__version__",
]

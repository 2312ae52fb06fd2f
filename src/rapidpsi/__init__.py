"""rapidpsi: hyperbolic-series evaluation of the digamma function and its
corollaries, cross-checked against independent classical evaluators, with a
tolerance-driven truncation planner and rigorous tail bounds."""

from .bernoulli import BernoulliTable, bernoulli_over_factorial, build_bernoulli_table
from .errors import GuardBandError, ToleranceError
from .identities import CheckResult, asymptotic_residual, lambert_identity_residual, run_suite
from .oracles import (
    DEFAULT_ORACLE,
    OracleConfig,
    euler_gamma_reference,
    gamma_plus_re_psi,
    im_psi_one_plus_ix,
    psi_maclaurin_oracle,
    psi_oracle,
    re_psi_one_plus_ik,
    s_integral_oracle,
    zeta_direct_oracle,
)
from .params import (
    DEFAULT_GUARD_DELTA,
    GAMMA_SOURCE_ANY_X,
    GAMMA_SOURCE_INTEGER,
    EulerGamma,
    EvalParams,
    ModularPair,
    SeriesValue,
    TailBound,
)
from .planner import FAMILIES, plan, tail_bound
from .series import (
    csch2_sum,
    double_series_S,
    gamma_any_x,
    gamma_at_integer,
    lambert_sum,
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
    "GuardBandError",
    "ToleranceError",
    "CheckResult",
    "run_suite",
    "DEFAULT_ORACLE",
    "OracleConfig",
    "euler_gamma_reference",
    "gamma_plus_re_psi",
    "im_psi_one_plus_ix",
    "psi_maclaurin_oracle",
    "psi_oracle",
    "re_psi_one_plus_ik",
    "s_integral_oracle",
    "zeta_direct_oracle",
    "DEFAULT_GUARD_DELTA",
    "GAMMA_SOURCE_ANY_X",
    "GAMMA_SOURCE_INTEGER",
    "EulerGamma",
    "EvalParams",
    "ModularPair",
    "SeriesValue",
    "TailBound",
    "FAMILIES",
    "plan",
    "tail_bound",
    "asymptotic_residual",
    "csch2_sum",
    "double_series_S",
    "gamma_any_x",
    "gamma_at_integer",
    "lambert_identity_residual",
    "lambert_sum",
    "psi_prime_ramanujan",
    "psi_ramanujan",
    "re_psi_complex_ramanujan",
    "zeta_even",
    "zeta_odd",
    "zeta_odd_general",
    "__version__",
]

"""Seeded inputs for the benchmark workloads and the large-x layer probes.

Every generator is a pure function of (workload, seed): the same seed gives
the same operations in the same order, and the program under test receives
only these generated inputs. An operation is a JSON-friendly list whose first
element names the entry point:

  ["psi", x, tol]                       psi_ramanujan(x, plan(tol, x))
  ["gamma_any_x", x, tol]               gamma_any_x(x, plan(tol, x))
  ["gamma_at_integer", m, tol]          gamma_at_integer(m, plan(tol, float(m)))
  ["re_psi", x, tol]                    re_psi_complex_ramanujan(x, plan(tol, x))
  ["psi_prime", x, tol]                 psi_prime_ramanujan(x, plan(tol, x))
  ["zeta_odd", N, tol]                  zeta_odd(N, table, EvalParams(tol, k_terms=10))
  ["zeta_odd_general", N, alpha, tol]   zeta_odd_general(N, ModularPair(alpha), ...)

A round is one pass over a workload's operations; runs always attempt whole
rounds, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import math
import random

TOLS = (1e-6, 1e-9, 1e-12, 1e-15)
WORKLOADS = ("psi_small_x", "psi_large_x", "corollaries")
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# Corollary inputs that fail on every run because of a known program fault.
# They do not depend on the seed and sit in every round, so each run counts
# the same share of failures until a fix lands.
KNOWN_FAULTS = (
    # EulerGamma.__post_init__ rejects honest results at tol 1e-6
    ("gamma_any_x", 2.5, 1e-6),
    ("gamma_at_integer", 2, 1e-6),
    # the psi_prime_ramanujan estimate is below its true error at loose tol
    ("psi_prime", 17.7, 1e-9),
    # zeta_odd's rounding allowance is too small for N >= 17
    ("zeta_odd", 17, 1e-12),
    ("zeta_odd", 18, 1e-12),
    ("zeta_odd", 19, 1e-12),
    ("zeta_odd", 20, 1e-12),
)

PSI_PER_TOL = 64
COROLLARY_SHARE = 32  # operations of each of the six evaluators per round


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def near_positive_integer(x: float, margin: float) -> bool:
    """Whether x is within margin of a positive integer (the guard bands)."""
    m = round(x)
    return m >= 1 and abs(x - m) < margin


def _stratified(rng, n, lo, hi, log=False, margin=0.0) -> list[float]:
    """n draws, the i-th uniform in the i-th of n equal slices of [lo, hi)
    (equal in log x when log is set), each at least margin from a positive
    integer. Slicing keeps the make-up of a round the same for every seed;
    only the values inside each slice change."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(n):
        while True:
            u = rng.uniform(a + (b - a) * i / n, a + (b - a) * (i + 1) / n)
            x = math.exp(u) if log else u
            if not near_positive_integer(x, margin):
                break
        out.append(x)
    return out


def _small_x(rng: random.Random) -> list[float]:
    """PSI_PER_TOL arguments in (0, 30): 6 within 9e-4 of distinct integers in
    1..29 (the guard pairs run), 30 below 3 (the recurrence lift runs; half
    log-uniform in [1e-8, 1), half uniform in [1, 3)) and 28 uniform in
    [3, 30); these 58 stay at least 1e-3 from a positive integer."""
    xs = [m + rng.uniform(-9e-4, 9e-4) for m in rng.sample(range(1, 30), 6)]
    xs += _stratified(rng, 15, 1e-8, 1.0, log=True, margin=1e-3)
    xs += _stratified(rng, 15, 1.0, 3.0, margin=1e-3)
    xs += _stratified(rng, 28, 3.0, 30.0, margin=1e-3)
    return xs


def _large_x(rng: random.Random) -> list[float]:
    """PSI_PER_TOL arguments log-uniform in [60, 1e12), where the planner's
    explicit bound walks take most of a psi call."""
    return _stratified(rng, PSI_PER_TOL, 60.0, 1e12, log=True)


def _psi_ops(rng: random.Random, draw_xs) -> list[list]:
    ops = [["psi", x, tol] for tol in TOLS for x in draw_xs(rng)]
    rng.shuffle(ops)
    return ops


def _corollary_x(rng: random.Random, n: int) -> list[float]:
    """n arguments at least 0.1 from a positive integer: half log-uniform in
    [0.01, 3), half uniform in [3, 30). psi_prime_ramanujan is unsound within
    ~0.03 of 1 even at tol 1e-15, so the margin keeps seeded inputs clear."""
    low = (n + 1) // 2
    return (_stratified(rng, low, 0.01, 3.0, log=True, margin=0.1)
            + _stratified(rng, n - low, 3.0, 30.0, margin=0.1))


def _corollary_ops(rng: random.Random) -> list[list]:
    """COROLLARY_SHARE operations of each evaluator, the known faults included.

    Seeded gamma inputs skip tol 1e-6, and seeded psi_prime inputs use tol
    1e-15 only: at looser tolerances whether these evaluators fail depends on
    the argument, so the failure count would change with the seed. The fixed
    KNOWN_FAULTS inputs cover those tolerances instead.
    """
    n = COROLLARY_SHARE
    gamma_tols = TOLS[1:]
    n_zeta = n - sum(f[0] == "zeta_odd" for f in KNOWN_FAULTS)
    ops = []
    ops += [["gamma_any_x", x, gamma_tols[i % 3]]
            for i, x in enumerate(_corollary_x(rng, n - 1))]
    ops += [["gamma_at_integer", m, gamma_tols[i % 3]]
            for i, m in enumerate(rng.sample(range(1, 41), n - 1))]
    ops += [["re_psi", x, TOLS[i % 4]] for i, x in enumerate(_corollary_x(rng, n))]
    ops += [["psi_prime", x, 1e-15] for x in _corollary_x(rng, n - 1)]
    # every N in 1..16 once, the rest drawn without repeats
    zeta_n = list(range(1, 17)) + rng.sample(range(1, 17), n_zeta - 16)
    ops += [["zeta_odd", big_n, TOLS[i % 4]] for i, big_n in enumerate(zeta_n)]
    # N cycles through 1..8, alpha sweeps [1, 10) in slices, each N meets each tol
    ops += [["zeta_odd_general", 1 + i % 8, alpha, TOLS[(i // 8) % 4]]
            for i, alpha in enumerate(_stratified(rng, n, 1.0, 10.0))]
    ops += [list(f) for f in KNOWN_FAULTS]
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list[list]:
    """The operations of one round of `workload` for `seed`."""
    rng = _rng(workload, seed)
    if workload == "psi_small_x":
        return _psi_ops(rng, _small_x)
    if workload == "psi_large_x":
        return _psi_ops(rng, _large_x)
    if workload == "corollaries":
        return _corollary_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def large_x_inputs(seed: int) -> list[tuple[float, float]]:
    """The (x, tol) pairs of psi_large_x for `seed`. The traced run of every
    workload times plan, the walks and psi on them."""
    return [(x, tol) for _, x, tol in generate("psi_large_x", seed)]


def is_known_fault(op: list) -> bool:
    return tuple(op) in KNOWN_FAULTS


def psi_inputs(ops: list[list]) -> list[tuple[float, float]]:
    """The (x, tol) pairs of the planned operations, on which the per-layer
    probes of plan, the double series, psi and cli.main run."""
    out = []
    for op in ops:
        if op[0] in ("psi", "gamma_any_x", "re_psi", "psi_prime"):
            out.append((op[1], op[2]))
        elif op[0] == "gamma_at_integer":
            out.append((float(op[1]), op[2]))
    return out


def setup_ops(ops: list[list]) -> list[list]:
    """The first operation of each kind, in round order: what a fresh process
    runs before its first checked result."""
    seen = {}
    for op in ops:
        seen.setdefault(op[0], op)
    return list(seen.values())

"""Record semantics of every record type the package defines: frozen, equal
and hashed by their fields, printed as Name(field=value!r, ...), and checked
on construction."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from rapidpsi.bernoulli import BernoulliTable, build_bernoulli_table
from rapidpsi.cli import Report
from rapidpsi.errors import ToleranceError
from rapidpsi.identities import CheckResult
from rapidpsi.oracles import OracleConfig
from rapidpsi.params import (
    EvalParams,
    ModularPair,
    Record,
    SeriesValue,
    TailBound,
    series_value,
)

# (build, the repr text a frozen dataclass printed for it); build() gives a
# fresh instance with equal fields on every call
RECORDS = [
    (lambda: EvalParams(), "EvalParams(tol=1e-12, k_terms=10, n_terms=20000)"),
    (
        lambda: EvalParams(tol=1e-09, k_terms=4, n_terms=123),
        "EvalParams(tol=1e-09, k_terms=4, n_terms=123)",
    ),
    (
        lambda: SeriesValue(1.5, 2.5e-16, 5, 0),
        "SeriesValue(value=1.5, error_estimate=2.5e-16, k_used=5, n_used=0)",
    ),
    (
        lambda: ModularPair(math.pi, math.pi),
        "ModularPair(alpha=3.141592653589793, beta=3.141592653589793)",
    ),
    (
        lambda: TailBound("lambert", 1, math.inf),
        "TailBound(family='lambert', first_omitted_index=1, bound=inf)",
    ),
    (
        lambda: BernoulliTable(2, (Fraction(1), Fraction(-1, 2), Fraction(1, 6))),
        "BernoulliTable(max_index=2, values=(Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6)))",
    ),
    (
        lambda: Report("psi", 2.5, 1.1031566406452482, 9.7e-15, 5, 0, "ramanujan", 1234),
        "Report(quantity='psi', input=2.5, value=1.1031566406452482, "
        "abs_error_estimate=9.7e-15, k_used=5, n_used=0, method='ramanujan', "
        "elapsed_nanoseconds=1234)",
    ),
    (
        lambda: CheckResult("reflection", 0.25, -1e-17, 1e-15, True),
        "CheckResult(name='reflection', argument=0.25, residual=-1e-17, allowance=1e-15, "
        "passed=True)",
    ),
    (lambda: OracleConfig(), "OracleConfig(target_tolerance=1e-13, shift_threshold=16.0)"),
    # the evaluators' builder gives the same record as SeriesValue(...)
    (
        lambda: series_value(1.5, 2.5e-16, 5, 0),
        "SeriesValue(value=1.5, error_estimate=2.5e-16, k_used=5, n_used=0)",
    ),
]

IDS = [text.split("(", 1)[0] for _, text in RECORDS[:-1]] + ["series_value"]


@pytest.mark.parametrize(("build", "text"), RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize(("build", "text"), RECORDS, ids=IDS)
def test_record_is_frozen(build, text):
    record = build()
    for name in record._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize(("build", "text"), RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # one record idiom, and never a tuple: the benchmark worker reads any
    # tuple result as a CLI record
    assert isinstance(a, Record)
    assert not isinstance(a, tuple)
    assert a != tuple(getattr(a, name) for name in a._fields)


@pytest.mark.parametrize(("build", "text"), RECORDS, ids=IDS)
def test_record_survives_copy_and_pickle(build, text):
    record = build()
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == text


def test_unequal_fields_give_unequal_records():
    assert EvalParams(tol=1e-9) != EvalParams(tol=1e-10)
    assert SeriesValue(1.0, 0.0, 1, 0) != SeriesValue(1.0, 0.0, 1, 1)
    assert OracleConfig() != OracleConfig(shift_threshold=20.0)
    # equal field values in two record types
    assert ModularPair(math.pi, math.pi) != OracleConfig(math.pi, math.pi)


def test_series_value_builds_the_record_series_value_init_builds():
    built, constructed = series_value(1.5, 2.5e-16, 5, 0), SeriesValue(1.5, 2.5e-16, 5, 0)
    assert type(built) is SeriesValue
    assert built == constructed and hash(built) == hash(constructed)


def test_bernoulli_memo_takes_no_part_in_equality_hash_or_repr():
    used, fresh = build_bernoulli_table(4), build_bernoulli_table(4)
    used.derived[1] = 0.5
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "derived" not in repr(used)
    # derived is a slot like the fields, so it is frozen too
    with pytest.raises(AttributeError):
        used.derived = {}


def test_oracle_config_keys_a_cache_by_its_fields():
    from rapidpsi.oracles import gamma_plus_re_psi

    gamma_plus_re_psi.cache_clear()
    gamma_plus_re_psi(2.0, OracleConfig(1e-13, 16.0))
    gamma_plus_re_psi(2.0, OracleConfig(1e-13, 16.0))
    assert gamma_plus_re_psi.cache_info().hits == 1


TOL_RANGE = "tol must be positive and finite"
COUNTS = "k_terms and n_terms must be positive"
ESTIMATE = "error_estimate must be finite and nonnegative"
PAIR_SIGN = "alpha and beta must be positive"
BOUND = "bound must be nonnegative"
ORACLE_TOL = "target_tolerance must be >= 1e-15 in double precision"


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: EvalParams(tol=0.0), ValueError, TOL_RANGE),
        (lambda: EvalParams(tol=-1.0), ValueError, TOL_RANGE),
        (lambda: EvalParams(tol=math.nan), ValueError, TOL_RANGE),
        (lambda: EvalParams(tol=math.inf), ValueError, TOL_RANGE),
        (
            lambda: EvalParams(tol=1e-16),
            ToleranceError,
            "tol 1e-16 unattainable in double precision (min 1e-15)",
        ),
        (lambda: EvalParams(k_terms=0), ValueError, COUNTS),
        (lambda: EvalParams(n_terms=0), ValueError, COUNTS),
        (lambda: EvalParams(k_terms=6001), ValueError, "k_terms must be at most 6000"),
        (lambda: SeriesValue(1.0, math.nan, 1, 0), ValueError, ESTIMATE),
        (lambda: SeriesValue(1.0, math.inf, 1, 0), ValueError, ESTIMATE),
        (lambda: SeriesValue(1.0, -1e-300, 1, 0), ValueError, ESTIMATE),
        (lambda: series_value(1.0, math.nan, 1, 0), ValueError, ESTIMATE),
        (lambda: series_value(1.0, math.inf, 1, 0), ValueError, ESTIMATE),
        (lambda: series_value(1.0, -1e-300, 1, 0), ValueError, ESTIMATE),
        (lambda: ModularPair(0.0, math.pi), ValueError, PAIR_SIGN),
        (lambda: ModularPair(-math.pi, -math.pi), ValueError, PAIR_SIGN),
        (lambda: ModularPair(1.0, 1.0), ValueError, "alpha * beta must equal pi^2"),
        (lambda: ModularPair.from_alpha(0.0), ValueError, "alpha must be positive"),
        (lambda: TailBound("csch2", 0, 1.0), ValueError, "first_omitted_index must be >= 1"),
        (lambda: TailBound("csch2", 1, -1.0), ValueError, BOUND),
        (lambda: TailBound("csch2", 1, math.nan), ValueError, BOUND),
        (
            lambda: BernoulliTable(2, (Fraction(1), Fraction(-1, 2))),
            ValueError,
            "values length must be max_index + 1",
        ),
        (lambda: OracleConfig(target_tolerance=1e-16), ValueError, ORACLE_TOL),
        (lambda: OracleConfig(target_tolerance=math.nan), ValueError, ORACLE_TOL),
        (lambda: OracleConfig(shift_threshold=0.0), ValueError, "shift_threshold must be positive"),
    ],
)
def test_constructor_rejections_keep_their_type_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message

"""The record classes behave as the dataclasses they replace: the same
constructor (positional, keyword and default arguments, a fresh ``dict`` per
instance for each dict default), ``==`` field by field within one class and
``NotImplemented`` across classes, tuple hashes, dataclass-style reprs, no
assignment to a frozen record, ``vars()`` of exactly the fields, and the
constructor's checks with their exception types and messages."""

import math

import pytest

from arctangr import (
    ArctanGRParams,
    BaseDistribution,
    ComparisonTable,
    DataError,
    DomainError,
    FitResult,
    GaussianParams,
    LossDataset,
    PlotBundle,
    RayleighParams,
    RiskReport,
    RiskRow,
    SummaryStats,
)


def unit_cdf(x):
    return x


def unit_pdf(x):
    return 1.0


HIST = {"n": 2, "bin_edges": [0.0, 1.0, 2.0], "counts": [1, 1]}
BOX = {"five_number": {"min": 0.0}, "fences": {}, "outliers": []}
DENSITY = {"x": [0.0, 1.0], "curves": {"agr": [0.1, 0.2]}}
RISK = {"alpha": [0.9]}
ROW = RiskRow(0.9, 1.0, 2.0, 0.5)
PARAMS = ArctanGRParams(0.02, 0.005)
STATS = (58, 0.07, 0.065, 0.03, 0.029, 0.222, 0.055, 0.08, 0.1, 1.2)

# class, positional arguments (a second value for the last one below), the
# expected repr, whether the record is frozen, and the fields that take
# defaults when left out, with the default each takes
CASES = {
    "ArctanGRParams": (ArctanGRParams, (0.02, 0.005), 0.006,
                       "ArctanGRParams(omega=0.02, psi=0.005)", True, {}),
    "GaussianParams": (GaussianParams, (1.5, 2.0), 3.0,
                       "GaussianParams(omega=1.5, eta=2.0)", True, {}),
    "RayleighParams": (RayleighParams, (0.5,), 0.25, "RayleighParams(psi=0.5)", True, {}),
    "LossDataset": (LossDataset, ((1.0, 2.0), "inline", "x"), "y",
                    "LossDataset(values=(1.0, 2.0), source='inline', name='x')", False, {}),
    "SummaryStats": (SummaryStats, STATS, 1.3,
                     "SummaryStats(n=58, mean=0.07, median=0.065, sd=0.03, min=0.029, "
                     "max=0.222, q1=0.055, q3=0.08, bowley_skewness=0.1, moors_kurtosis=1.2)",
                     True, {}),
    "FitResult": (FitResult, ("agr", PARAMS, 1.0, 58, 2, 2.0, 3.0, 4.0, 5.0), 6.0,
                  "FitResult(model_name='agr', params=ArctanGRParams(omega=0.02, psi=0.005), "
                  "loglik=1.0, n=58, r=2, aic=2.0, bic=3.0, caic=4.0, hqic=5.0, iterations=0, "
                  "converged=True, nfev=0, stop=None)",
                  True, {"iterations": 0, "converged": True, "nfev": 0, "stop": None}),
    "ComparisonTable": (ComparisonTable, ((), {"aic": "agr"}), {"aic": "laplace"},
                        "ComparisonTable(rows=(), best_by={'aic': 'agr'}, skipped_models={})",
                        True, {"skipped_models": {}}),
    "RiskReport": (RiskReport, ((ROW,), "model"), "empirical",
                   "RiskReport(rows=(RiskRow(alpha=0.9, var=1.0, tvar=2.0, tv=0.5),), "
                   "source='model', method={}, mc_check=())",
                   True, {"method": {}, "mc_check": ()}),
    "PlotBundle": (PlotBundle, (HIST, BOX, DENSITY, RISK), {"alpha": [0.95]},
                   f"PlotBundle(histogram={HIST!r}, boxplot={BOX!r}, density={DENSITY!r}, "
                   f"risk={RISK!r}, skipped_models={{}})",
                   True, {"skipped_models": {}}),
    "BaseDistribution": (BaseDistribution, (unit_cdf, unit_pdf), (0.0, 1.0),
                         f"BaseDistribution(cdf={unit_cdf!r}, pdf={unit_pdf!r}, "
                         "support=(-inf, inf))",
                         True, {"support": (-math.inf, math.inf)}),
}
PARAMETER_CLASSES = ("ArctanGRParams", "GaussianParams", "RayleighParams")


@pytest.mark.parametrize("name", CASES)
def test_positional_keyword_and_default_construction(name):
    cls, args, _, text, _, defaults = CASES[name]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    assert by_position == by_keyword
    assert repr(by_position) == repr(by_keyword) == text
    for field, default in defaults.items():
        assert getattr(by_position, field) == default
        if isinstance(default, dict):  # a fresh dict per instance
            assert getattr(by_position, field) is not getattr(cls(*args), field)
    # every field given explicitly, the defaults too, reads back as given
    full = (*args, *defaults.values())
    assert tuple(getattr(cls(*full), f) for f in cls._fields) == full


@pytest.mark.parametrize("name", CASES)
def test_equality_within_and_across_classes(name):
    cls, args, other, _, _, _ = CASES[name]
    a, b = cls(*args), cls(*args)
    changed = cls(*args[:-1], other)
    assert a == b and not a != b
    assert a != changed and not a == changed
    for other_name, (other_cls, other_args, *_) in CASES.items():
        if other_name != name:
            assert a.__eq__(other_cls(*other_args)) is NotImplemented
            assert a != other_cls(*other_args)
    assert a.__eq__(tuple(getattr(a, f) for f in cls._fields)) is NotImplemented


def test_equal_fields_of_another_class_are_not_equal():
    # the same field values, in another record class, compare unequal
    assert ArctanGRParams(1.0, 2.0) != GaussianParams(1.0, 2.0)


@pytest.mark.parametrize("name", PARAMETER_CLASSES)
def test_parameter_classes_hash_as_the_tuple_of_their_fields(name):
    cls, args, other, _, _, _ = CASES[name]
    assert hash(cls(*args)) == hash(args)
    assert len({cls(*args), cls(*args), cls(*args[:-1], other)}) == 2


def test_other_records_hash_only_with_hashable_fields():
    # as a frozen dataclass: a dict field makes hash() raise; the mutable
    # LossDataset has no hash
    assert hash(CASES["FitResult"][0](*CASES["FitResult"][1])) is not None
    for name in ("ComparisonTable", "RiskReport", "PlotBundle", "LossDataset"):
        cls, args, *_ = CASES[name]
        with pytest.raises(TypeError):
            hash(cls(*args))


@pytest.mark.parametrize("name", CASES)
def test_frozen_records_refuse_assignment(name):
    cls, args, other, _, frozen, _ = CASES[name]
    record = cls(*args)
    field = cls._fields[-1]
    if frozen:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, other)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert getattr(record, field) == getattr(cls(*args), field)
    else:
        setattr(record, field, other)
        assert getattr(record, field) == other


@pytest.mark.parametrize("name", [*PARAMETER_CLASSES, "PlotBundle"])
def test_vars_holds_exactly_the_fields(name):
    cls, args, *_ = CASES[name]
    assert list(vars(cls(*args))) == list(cls._fields)


def test_dataset_keeps_its_cached_properties():
    data = LossDataset([3.0, 1.0, 2.0], "inline", "x")
    assert data.sorted_values == (1.0, 2.0, 3.0)
    assert vars(data)["sorted_values"] is data.sorted_values
    assert data == LossDataset((3.0, 1.0, 2.0), "inline", "x")  # the cache is no field


CHECKS = [
    (ArctanGRParams, (math.nan, 1.0), DomainError, "omega must be finite, got nan"),
    (ArctanGRParams, (0.0, 0.0), DomainError, "psi must be a positive finite scale, got 0.0"),
    (ArctanGRParams, (0.0, math.inf), DomainError, "psi must be a positive finite scale, got inf"),
    (GaussianParams, (math.inf, 1.0), DomainError, "omega must be finite, got inf"),
    (GaussianParams, (0.0, -1.0), DomainError, "eta must be a positive finite scale, got -1.0"),
    (RayleighParams, (math.nan,), DomainError, "psi must be a positive finite scale, got nan"),
    (LossDataset, ((), "inline", "x"), DataError, "dataset 'x' must be a nonempty 1-d sample"),
    (LossDataset, ([[1.0]], "inline", "x"), DataError,
     "dataset 'x' must be a nonempty 1-d sample"),
    (LossDataset, ([1.0, math.inf], "inline", "x"), DataError,
     "dataset 'x' contains NaN or infinite values"),
    (RiskReport, ((), "s"), DomainError, "a risk report needs at least one row"),
    (RiskReport, ((RiskRow(0.9, 2.0, 1.0, 0.5),), "s"), DomainError, "tvar < var at alpha=0.9"),
    (RiskReport, ((RiskRow(0.9, 1.0, 2.0, -0.5),), "s"), DomainError,
     "negative tail variance at alpha=0.9"),
    (RiskReport, ((ROW,), "s", {}, (1, 2)), DomainError,
     "mc_check needs one Monte Carlo result per row"),
    (RiskReport, ((RiskRow(0.95, 1.0, 2.0, 0.5), ROW), "s"), DomainError,
     "risk report rows must be sorted by alpha"),
    (RiskReport, ((ROW, RiskRow(0.95, 0.5, 2.0, 0.5)), "s"), DomainError,
     "var must be nondecreasing in alpha"),
    (RiskReport, ((ROW, RiskRow(0.95, 1.0, 1.5, 0.5)), "s"), DomainError,
     "tvar must be nondecreasing in alpha"),
    (PlotBundle, ({**HIST, "n": 3}, BOX, DENSITY, RISK), DomainError,
     "histogram counts must sum to the sample size"),
    (PlotBundle, ({**HIST, "bin_edges": [0.0, 2.0]}, BOX, DENSITY, RISK), DomainError,
     "histogram needs one more edge than counts"),
    (PlotBundle, (HIST, BOX, {**DENSITY, "x": [1.0, 1.0]}, RISK), DomainError,
     "density grid must be strictly increasing"),
    (PlotBundle, (HIST, BOX, {**DENSITY, "curves": {"agr": [0.1, -0.2]}}, RISK), DomainError,
     "density column 'agr' has negative values"),
    (BaseDistribution, (unit_cdf, unit_pdf, (1.0, 1.0)), DomainError,
     "support must be a nonempty interval, got (1.0, 1.0)"),
]


@pytest.mark.parametrize("cls, args, error, message", CHECKS,
                         ids=[f"{c[0].__name__}-{i}" for i, c in enumerate(CHECKS)])
def test_constructor_checks(cls, args, error, message):
    with pytest.raises(error) as exc:
        cls(*args)
    assert type(exc.value) is error
    assert str(exc.value) == message

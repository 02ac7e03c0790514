import warnings

import numpy as np
import pytest

from tmcda import boosting, gmm, itml, lasso
from tmcda.itml import ConstraintSet, MetricError, build_constraints, fit_itml
from tmcda.pipeline import PipelineConfig, leave_one_out
from tmcda.schema import COLUMNS
from tmcda.synth import generate_synthetic_network
from tmcda.tree import SplitPlan


def test_schema_has_25_columns_in_fixed_order():
    assert len(COLUMNS) == 25
    names = [c.name for c in COLUMNS]
    assert names[0] == "o_TM"
    assert names[12] == "p_LM"
    assert names[-2:] == ["h_MOH", "h_HOD"]
    assert len(set(names)) == 25


def test_coded_columns_have_the_documented_domains():
    # The README's data format gives each code its meaning; these are its ranges.
    domains = {c.name: (c.integer, c.low, c.high) for c in COLUMNS}
    assert domains["road_type"] == (True, 1, 2)          # major, minor
    assert domains["left_turn_type"] == (True, 1, 3)     # permissive, protected-permissive, protected
    assert domains["direction"] == (True, 1, 4)          # NB, SB, EB, WB
    assert domains["h_MOH"] == (True, 1, 4)              # quarter of the hour
    assert domains["h_HOD"] == (True, 0, 23)             # hour of the day


@pytest.mark.parametrize("column", COLUMNS, ids=lambda c: c.name)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_column_check_rejects_non_finite_values(column, value):
    assert column.check(value) == f"non-finite value for {column.name}"


@pytest.mark.parametrize("column", COLUMNS, ids=lambda c: c.name)
def test_column_check_enforces_integer_and_range(column):
    assert column.check(float(column.low)) is None
    assert "outside" in column.check(column.low - 1.0)
    if column.high != float("inf"):
        assert column.check(float(column.high)) is None
        assert "outside" in column.check(column.high + 1.0)
    if column.integer:
        assert "must be an integer" in column.check(column.low + 0.5)
    else:
        assert column.check(column.low + 0.5) is None



# Each count argument: (its least value, the error its module raises, a call with it set to a value).
_COUNT_ARGUMENTS = {
    "max_per_set": (0, MetricError, lambda v: build_constraints(np.zeros((3, 2)), np.arange(3.0), max_per_set=v)),
    "n_candidates": (1, MetricError, lambda v: build_constraints(np.zeros((3, 2)), np.arange(3.0), n_candidates=v)),
    "max_passes": (1, MetricError, lambda v: fit_itml(np.eye(3)[:, :2], ConstraintSet(((0, 1),), ((0, 2),), 1.0, 2.0),
                                                      max_passes=v)),
    "n_intersections": (2, ValueError, lambda v: generate_synthetic_network(0, v, 1.0, 4)),
    "n_intervals": (1, ValueError, lambda v: generate_synthetic_network(0, 2, 1.0, v)),
    "jobs": (1, ValueError, lambda v: leave_one_out(generate_synthetic_network(0, 2, 1.0, 4), PipelineConfig(), jobs=v)),
}


@pytest.mark.parametrize("name", _COUNT_ARGUMENTS)
def test_count_arguments_refuse_fractions_bools_and_values_below_their_least(name):
    least, error, call = _COUNT_ARGUMENTS[name]
    for value in (2.5, True, least - 1):
        with pytest.raises(error) as raised:
            call(value)
        assert raised.type is error
        assert str(raised.value) == f"{name} must be an integer >= {least}, got {value!r}"


# Every fitting entry point and the arrays it checks by ``check_samples``: (its module's error class, a call
# on a dict of arrays, the valid arrays, each feature array's least row count, each label array's features).
_ROWS = np.random.default_rng(21).standard_normal((8, 3))
_VALID = {"X": _ROWS, "y": _ROWS @ np.array([1.0, -2.0, 0.5]), "w": np.full(8, 0.5)}
_TWO_SETS = {"source_X": _ROWS, "source_y": _VALID["y"], "target_X": _ROWS[:5] + 1.0, "target_y": _VALID["y"][:5]}
_ONE_SET = ({"X": 1}, {"y": "X"})
_FITTING_ENTRY_POINTS = {
    "lasso.lambda_max": (ValueError, lambda a: lasso.lambda_max(a["X"], a["y"]), _ONE_SET),
    "lasso.canonical_columns": (ValueError, lambda a: lasso.canonical_columns(a["X"], a["y"]), _ONE_SET),
    "lasso.fit_lasso": (ValueError, lambda a: lasso.fit_lasso(a["X"], a["y"], 0.1), ({"X": 2}, {"y": "X"})),
    "lasso.cross_validate_lambda": (ValueError, lambda a: lasso.cross_validate_lambda(a["X"], a["y"], n_folds=2),
                                    _ONE_SET),
    "itml.build_constraints": (MetricError, lambda a: itml.build_constraints(a["X"], a["y"]),
                               ({"X": 2}, {"y": "X"})),
    "itml.fit_itml": (MetricError, lambda a: itml.fit_itml(a["X"], ConstraintSet(((0, 1),), ((0, 2),), 1.0, 2.0)),
                      ({"X": 1}, {})),
    "itml.match_source_to_target": (
        MetricError, lambda a: itml.match_source_to_target(np.eye(3), a["target_X"], a["source_X"], a["source_y"]),
        ({"target_X": 0, "source_X": 1}, {"source_y": "source_X"})),
    "gmm.fit_gmm": (gmm.GMMError, lambda a: gmm.fit_gmm(a["X"], 2), ({"X": 0}, {})),
    "gmm.augment": (gmm.GMMError, lambda a: gmm.augment(a["matched_X"], a["matched_y"], 1, 2),
                    ({"matched_X": 1}, {"matched_y": "matched_X"})),
    "boosting.fit_gradient_boosting": (
        ValueError, lambda a: boosting.fit_gradient_boosting(a["X"], a["y"], boosting.TrainConfig(n_stages=2)),
        _ONE_SET),
    **{f"boosting.fit_gbbw, alpha {alpha}": (
        ValueError, lambda a, alpha=alpha: boosting.fit_gbbw(a["source_X"], a["source_y"], a["target_X"],
                                                              a["target_y"], boosting.TrainConfig(n_stages=2,
                                                                                                  alpha=alpha)),
        ({"source_X": 1, "target_X": 0}, {"source_y": "source_X", "target_y": "target_X"}))
       for alpha in (0.0, 0.5, 1.0)},
    "tree.SplitPlan.build": (ValueError, lambda a: SplitPlan.build(a["X"], a["w"], 1), ({"X": 1}, {"w": "X"})),
}


def _valid_arrays(features, labels):
    arrays = _TWO_SETS if "source_X" in features else _VALID
    named = {"matched_X": "X", "matched_y": "y"}
    return {name: arrays[named.get(name, name)].copy() for name in (*features, *labels)}


def _bad_input_cases(features, labels):
    """(case, arrays, expected message) for every way ``check_samples`` refuses these arrays."""
    valid = _valid_arrays(features, labels)
    owner = {f: next((y for y, x in labels.items() if x == f), None) for f in features}
    for f, least in features.items():
        X = valid[f]
        for case, bad in (("0-D", X[0, 0]), ("1-D", X[:, 0]), ("3-D", X[:, :, None])):
            yield f"{f} {case}", {**valid, f: bad}, f"{f} must be 2-D, one row per sample, got shape {np.shape(bad)}"
        if least:
            fewer = {**valid, f: X[:least - 1]}
            if owner[f]:
                fewer[owner[f]] = valid[owner[f]][:least - 1]
            yield f"{f} too few rows", fewer, f"{f} must have >= {least} rows, got {least - 1}"
        for value in (np.nan, np.inf, -np.inf):
            bad = X.copy()
            bad[1, 0] = value
            yield f"{f} {value}", {**valid, f: bad}, f"{f} has non-finite entries"
    for y, f in labels.items():
        n = len(valid[f])
        for case, bad in (("2-D", valid[y][:, None]), ("misaligned", valid[y][:-1])):
            yield (f"{y} {case}", {**valid, y: bad},
                   f"{y} must have shape ({n},), one entry per row of {f}, got shape {bad.shape}")
        for value in (np.nan, np.inf, -np.inf):
            bad = valid[y].copy()
            bad[1] = value
            yield f"{y} {value}", {**valid, y: bad}, f"{y} has non-finite entries"


@pytest.mark.parametrize("entry", _FITTING_ENTRY_POINTS)
def test_every_fitting_entry_point_refuses_bad_arrays_with_its_class_and_the_shared_wording(entry):
    error, call, (features, labels) = _FITTING_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # degenerate labels warn in build_constraints; the valid call must fit
        call(_valid_arrays(features, labels))
        cases = list(_bad_input_cases(features, labels))
        for case, arrays, message in cases:
            # An IndexError or TypeError escapes, a fit that completes fails, and a numpy message mismatches.
            with pytest.raises(error) as raised:
                call(arrays)
            assert raised.type is error, case
            assert str(raised.value) == message, case
    assert len(cases) == 6 * len(features) + 5 * len(labels) + sum(map(bool, features.values()))


def test_too_few_rows_for_a_mixture_stay_too_few_samples():
    # fit_gmm takes any number of rows; fewer than K is a TooFewSamplesError, which a sweep reads as skipped.
    with pytest.raises(gmm.TooFewSamplesError, match=r"^need at least K=2 samples, got 1$"):
        gmm.fit_gmm(_ROWS[:1], 2)

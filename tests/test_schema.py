import numpy as np
import pytest

from tmcda.itml import ConstraintSet, MetricError, build_constraints, fit_itml
from tmcda.pipeline import PipelineConfig, leave_one_out
from tmcda.schema import COLUMNS
from tmcda.synth import generate_synthetic_network


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

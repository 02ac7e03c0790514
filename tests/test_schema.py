import pytest

from tmcda.schema import COLUMNS


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

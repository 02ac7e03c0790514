import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcda.schema import (
    COLUMNS,
    DIRECTION_CODES,
    LEFT_TURN_CODES,
    ROAD_TYPE_CODES,
    EncodingError,
    decode_direction,
    decode_interval_start,
    decode_left_turn_type,
    decode_road_type,
    encode_categoricals,
    encode_direction,
    encode_interval_start,
    encode_left_turn_type,
    encode_road_type,
)


def test_schema_has_25_columns_in_fixed_order():
    assert len(COLUMNS) == 25
    names = [c.name for c in COLUMNS]
    assert names[0] == "o_TM"
    assert names[12] == "p_LM"
    assert names[-2:] == ["h_MOH", "h_HOD"]
    assert len(set(names)) == 25


def test_major_road_encodes_to_1():
    assert encode_road_type("major road") == 1
    assert encode_road_type("Major") == 1
    assert encode_road_type("minor road") == 2


def test_protected_only_left_turn_encodes_to_3():
    assert encode_left_turn_type("protected-only left-turn") == 3
    assert encode_left_turn_type("permissive") == 1
    assert encode_left_turn_type("protected-permissive") == 2


def test_interval_0715_encodes_to_quarter_2_hour_7():
    assert encode_interval_start("07:15") == (2, 7)
    assert encode_interval_start("00:00") == (1, 0)
    assert encode_interval_start("23:45") == (4, 23)


def test_unknown_category_rejected_with_field_name():
    with pytest.raises(EncodingError, match="road_type"):
        encode_road_type("boulevard")
    with pytest.raises(EncodingError, match="left_turn_type"):
        encode_left_turn_type("yolo")
    with pytest.raises(EncodingError, match="direction"):
        encode_direction("up")


def test_hour_out_of_range_rejected():
    with pytest.raises(EncodingError, match="hour"):
        encode_interval_start("24:00")
    with pytest.raises(EncodingError, match="hour"):
        encode_interval_start((2, -1))


def test_encode_categoricals_full_record():
    encoded = encode_categoricals(
        {"road_type": "major road", "left_turn_type": "protected-only",
         "direction": "NB", "time": "07:15"}
    )
    assert encoded == {"road_type": 1, "left_turn_type": 3, "direction": 1,
                       "h_MOH": 2, "h_HOD": 7}
    with_pair = encode_categoricals(
        {"road_type": "minor", "left_turn_type": "permissive",
         "direction": "westbound", "quarter": 4, "hour": 17}
    )
    assert with_pair["h_MOH"] == 4 and with_pair["h_HOD"] == 17
    assert with_pair["direction"] == 4


def test_encodings_injective_and_round_trip():
    for mapping, decode in (
        (ROAD_TYPE_CODES, decode_road_type),
        (LEFT_TURN_CODES, decode_left_turn_type),
        (DIRECTION_CODES, decode_direction),
    ):
        codes = list(mapping.values())
        assert len(set(codes)) == len(codes)
        for name, code in mapping.items():
            assert decode(code) == name


@given(st.integers(1, 4), st.integers(0, 23))
def test_interval_encoding_round_trips(quarter, hour):
    text = decode_interval_start(quarter, hour)
    assert encode_interval_start(text) == (quarter, hour)


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

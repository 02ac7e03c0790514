"""Feature schema and categorical/temporal encodings for intersection records.

Every instance carries 25 predictor columns in a fixed, versioned order:
event features for the through and left-turn movements, lane counts,
point-of-interest context, encoded categoricals and temporal indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEMA_VERSION = "1"

MOVEMENTS = ("left", "through", "right")
LABEL_COLUMNS = ("v_LM", "v_TM", "v_RM")

APPROACHES = ("NB", "SB", "EB", "WB")

ROAD_TYPE_CODES = {"major": 1, "minor": 2}
LEFT_TURN_CODES = {"permissive": 1, "protected-permissive": 2, "protected": 3}
DIRECTION_CODES = {"NB": 1, "SB": 2, "EB": 3, "WB": 4}

_DIRECTION_ALIASES = {
    "northbound": "NB",
    "southbound": "SB",
    "eastbound": "EB",
    "westbound": "WB",
}


@dataclass(frozen=True)
class Column:
    """One predictor column: name, human-readable description, value domain."""

    name: str
    description: str
    integer: bool
    low: float = 0.0
    high: float = float("inf")

    def check(self, value: float) -> str | None:
        """Return an error message if ``value`` lies outside this column's domain."""
        if not math.isfinite(value):
            return f"non-finite value for {self.name}"
        if self.integer and not float(value).is_integer():
            return f"{self.name} must be an integer, got {value!r}"
        if not self.low <= value <= self.high:
            return f"{self.name}={value!r} outside [{self.low}, {self.high}]"
        return None


# Fixed column order; changing it is a schema-version bump.
COLUMNS = (
    Column("o_TM", "Through movement detector occupancy time", False),
    Column("d_TM", "Through movement detector trigger counts", True),
    Column("g_TM", "Through movement green time duration", False),
    Column("c_TM", "Through movement cycle counts", True),
    Column("m_TM", "Through movement mean of consecutive detection gaps", False),
    Column("s_TM", "Through movement std of consecutive detection gaps", False),
    Column("o_LM", "Left-turn movement detector occupancy time", False),
    Column("d_LM", "Left-turn movement detector trigger counts", True),
    Column("g_LM", "Left-turn movement green time duration", False),
    Column("c_LM", "Left-turn movement cycle counts", True),
    Column("m_LM", "Left-turn movement mean of consecutive detection gaps", False),
    Column("s_LM", "Left-turn movement std of consecutive detection gaps", False),
    Column("p_LM", "Left-turn movement permissive green time", False),
    Column("l_SL", "Number of shared left turn lanes", True),
    Column("l_EL", "Number of exclusive left turn lanes", True),
    Column("l_TL", "Number of through lanes", True),
    Column("l_ER", "Number of exclusive right turn lanes", True),
    Column("l_SR", "Number of shared right turn lanes", True),
    Column("e_POIE", "Number of employees of all POI within 400 m", True),
    Column("e_POIC", "POI categories count within 400 m", True),
    Column("road_type", "Road type", True, 1, 2),
    Column("left_turn_type", "Left-turn type", True, 1, 3),
    Column("direction", "Approach direction", True, 1, 4),
    Column("h_MOH", "Minute-of-hour quarter", True, 1, 4),
    Column("h_HOD", "Hour-of-day", True, 0, 23),
)


class EncodingError(ValueError):
    """Raised when a raw categorical or temporal field cannot be encoded."""


def _normalize(raw: str, field: str) -> str:
    if not isinstance(raw, str):
        raise EncodingError(f"{field}: expected a string, got {type(raw).__name__}")
    return raw.strip().lower()


def encode_road_type(raw: str) -> int:
    """'major road' -> 1, 'minor road' -> 2."""
    text = _normalize(raw, "road_type").removesuffix(" road")
    if text not in ROAD_TYPE_CODES:
        raise EncodingError(f"road_type: unknown category {raw!r}")
    return ROAD_TYPE_CODES[text]


def encode_left_turn_type(raw: str) -> int:
    """Permissive-only -> 1, protected-permissive -> 2, protected-only -> 3."""
    text = _normalize(raw, "left_turn_type")
    for suffix in (" left-turn", " left turn"):
        text = text.removesuffix(suffix)
    text = text.removesuffix("-only")
    if text not in LEFT_TURN_CODES:
        raise EncodingError(f"left_turn_type: unknown category {raw!r}")
    return LEFT_TURN_CODES[text]


def encode_direction(raw: str) -> int:
    """NB -> 1, SB -> 2, EB -> 3, WB -> 4."""
    text = _normalize(raw, "direction")
    text = _DIRECTION_ALIASES.get(text, text.upper())
    if text not in DIRECTION_CODES:
        raise EncodingError(f"direction: unknown category {raw!r}")
    return DIRECTION_CODES[text]


def encode_interval_start(raw) -> tuple[int, int]:
    """Encode an interval start into (quarter-of-hour, hour-of-day).

    Accepts an 'HH:MM' string or a (quarter, hour) pair. Quarters number the
    four 15-minute slices of an hour 1..4; hours run 0..23.
    """
    if isinstance(raw, str):
        parts = raw.strip().split(":")
        if len(parts) != 2:
            raise EncodingError(f"interval start: expected 'HH:MM', got {raw!r}")
        try:
            hour, minute = int(parts[0]), int(parts[1])
        except ValueError:
            raise EncodingError(f"interval start: non-numeric time {raw!r}") from None
        if not 0 <= minute < 60:
            raise EncodingError(f"interval start: minute {minute} outside [0, 60)")
        quarter = minute // 15 + 1
    else:
        try:
            quarter, hour = (int(v) for v in raw)
        except (TypeError, ValueError):
            raise EncodingError(
                f"interval start: expected 'HH:MM' or (quarter, hour), got {raw!r}"
            ) from None
        if not 1 <= quarter <= 4:
            raise EncodingError(f"interval start: quarter {quarter} outside [1, 4]")
    if not 0 <= hour < 24:
        raise EncodingError(f"interval start: hour {hour} outside [0, 24)")
    return quarter, hour


def encode_categoricals(raw_record: dict) -> dict:
    """Encode the categorical and temporal fields of a raw record.

    ``raw_record`` must carry ``road_type`` and ``left_turn_type`` strings, a
    ``direction`` string, and either a ``time`` ('HH:MM') entry or a
    ``quarter``/``hour`` pair. Returns the encoded integer fields.
    """
    if "time" in raw_record:
        moh, hod = encode_interval_start(raw_record["time"])
    elif "quarter" in raw_record and "hour" in raw_record:
        moh, hod = encode_interval_start((raw_record["quarter"], raw_record["hour"]))
    else:
        raise EncodingError("interval start: need 'time' or ('quarter', 'hour')")
    return {
        "road_type": encode_road_type(raw_record["road_type"]),
        "left_turn_type": encode_left_turn_type(raw_record["left_turn_type"]),
        "direction": encode_direction(raw_record["direction"]),
        "h_MOH": moh,
        "h_HOD": hod,
    }


def decode_road_type(code: int) -> str:
    for name, value in ROAD_TYPE_CODES.items():
        if value == code:
            return name
    raise EncodingError(f"road_type: unknown code {code!r}")


def decode_left_turn_type(code: int) -> str:
    for name, value in LEFT_TURN_CODES.items():
        if value == code:
            return name
    raise EncodingError(f"left_turn_type: unknown code {code!r}")


def decode_direction(code: int) -> str:
    for name, value in DIRECTION_CODES.items():
        if value == code:
            return name
    raise EncodingError(f"direction: unknown code {code!r}")


def decode_interval_start(quarter: int, hour: int) -> str:
    if not 1 <= quarter <= 4 or not 0 <= hour < 24:
        raise EncodingError(f"interval start: bad (quarter, hour) = ({quarter}, {hour})")
    return f"{hour:02d}:{(quarter - 1) * 15:02d}"

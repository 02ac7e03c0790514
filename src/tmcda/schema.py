"""Feature schema for intersection records.

Every instance carries 25 predictor columns in a fixed, versioned order:
event features for the through and left-turn movements, lane counts,
point-of-interest context, categoricals and temporal indices. Categoricals
and temporal indices arrive as integer codes (the README's data format
lists what each code means); each ``Column`` holds its domain, which
``Column.check`` enforces.

``count_problem`` and ``check_count`` are the one rule for a count argument
(an integer, not a bool, of at least some least value), shared by every
module that takes one. ``check_samples`` is the one rule for a fitting
stage's arrays: a finite 2-D float ``X`` of enough rows and, when given, a
finite float vector with one entry per row. Prediction has its own shape
check, since a NaN cell is valid there.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "1"

MOVEMENTS = ("left", "through", "right")
LABEL_COLUMNS = ("v_LM", "v_TM", "v_RM")

APPROACHES = ("NB", "SB", "EB", "WB")


def count_problem(name: str, value, least: int) -> str | None:
    """Why ``value`` is not an integer, not a bool, of at least ``least``; None when it is one."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return None
    return f"{name} must be an integer >= {least}, got {value!r}"


def check_count(name: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` with ``count_problem``'s message, if it has one."""
    problem = count_problem(name, value, least)
    if problem is not None:
        raise error(problem)


def check_samples(X, y=None, *, least: int = 1, error: type[Exception] = ValueError, names=("X", "y")):
    """``X`` as a finite float (n, p) array with n >= ``least``, and ``y``, when given, as a finite float
    array of shape (n,): ``X``, or the pair (X, y). Anything else raises ``error`` with a message that
    names the array by ``names``, (name of X, name of y)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise error(f"{names[0]} must be 2-D, one row per sample, got shape {X.shape}")
    if len(X) < least:
        raise error(f"{names[0]} must have >= {least} rows, got {len(X)}")
    if not np.isfinite(X).all():
        raise error(f"{names[0]} has non-finite entries")
    if y is None:
        return X
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),):
        raise error(f"{names[1]} must have shape ({len(X)},), one entry per row of {names[0]}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise error(f"{names[1]} has non-finite entries")
    return X, y


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


"""Dataset containers, delimited-file ingestion and source/target splitting.

Datasets are immutable after construction (arrays are flagged read-only) and
safe to share across threads. A file row is one (intersection, approach,
15-minute interval) observation: identifier columns, the 25 predictor columns
in schema order, and optionally the three movement-count labels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schema import APPROACHES, COLUMNS, LABEL_COLUMNS, MOVEMENTS

ID_COLUMNS = ("intersection_id", "approach", "interval_index")


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset contents."""


@dataclass(frozen=True)
class Dataset:
    """Instances over the feature schema.

    ``X`` is the (n, 25) feature matrix, columns in ``schema.COLUMNS`` order;
    ``labels`` is an (n, 3) count matrix ordered (left, through, right), or
    None when labels are unavailable.
    """

    intersection_ids: np.ndarray
    approaches: np.ndarray
    interval_indices: np.ndarray
    X: np.ndarray
    labels: np.ndarray | None

    def __post_init__(self):
        n = self.X.shape[0]
        if n < 1:
            raise DataError("dataset must contain at least one instance")
        if self.X.shape[1] != len(COLUMNS):
            raise DataError(f"feature matrix has {self.X.shape[1]} columns, expected {len(COLUMNS)}")
        for arr in (self.intersection_ids, self.approaches, self.interval_indices):
            if len(arr) != n:
                raise DataError("metadata arrays must match instance count")
        if self.labels is not None and self.labels.shape != (n, 3):
            raise DataError(f"labels must have shape ({n}, 3)")
        for arr in (self.intersection_ids, self.approaches, self.interval_indices, self.X, self.labels):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def intersections(self) -> list[str]:
        return sorted(set(str(s) for s in self.intersection_ids))

    def movement_labels(self, movement: str) -> np.ndarray:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return self.labels[:, MOVEMENTS.index(movement)]

    def subset(self, mask: np.ndarray) -> "Dataset":
        """The rows where boolean ``mask`` holds; indexing with it already copies."""
        return Dataset(
            self.intersection_ids[mask],
            self.approaches[mask],
            self.interval_indices[mask],
            self.X[mask],
            None if self.labels is None else self.labels[mask],
        )

    def without_labels(self) -> "Dataset":
        """The same rows and (read-only, so shared) arrays, without labels."""
        return Dataset(self.intersection_ids, self.approaches, self.interval_indices, self.X, None)


class HeldOutLabels:
    """Target-domain labels, retained only for scoring.

    The object deliberately refuses implicit conversion to an array or scalar
    so it cannot flow into a training routine unnoticed; the evaluation
    harness accesses values through :meth:`reveal_for_scoring`.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        labels.setflags(write=False)
        self._labels = labels

    def __array__(self, dtype=None, copy=None):
        raise TypeError(
            "held-out target labels may not be used as numeric data; "
            "use reveal_for_scoring() inside the evaluation harness"
        )

    def __iter__(self):
        raise TypeError("held-out target labels are not iterable")

    def __len__(self) -> int:
        return self._labels.shape[0]

    def reveal_for_scoring(self, movement: str) -> np.ndarray:
        return self._labels[:, MOVEMENTS.index(movement)]


@dataclass(frozen=True)
class DomainSplit:
    """Labeled source intersections plus one unlabeled target intersection."""

    source: Dataset
    target_features: Dataset
    held_out_labels: HeldOutLabels
    target_id: str

    def __post_init__(self):
        src = set(self.source.intersections())
        tgt = set(self.target_features.intersections())
        if src & tgt:
            raise DataError(f"source and target intersections overlap: {sorted(src & tgt)}")
        if self.target_features.labels is not None:
            raise DataError("target features must not carry labels")
        if self.source.labels is None:
            raise DataError("source dataset carries no labels")


def split_domains(data: Dataset, target_id: str) -> DomainSplit:
    """Designate one intersection as the unlabeled target, the rest as source."""
    ids = data.intersections()
    if target_id not in ids:
        raise DataError(f"unknown target intersection {target_id!r}")
    if len(ids) < 2:
        raise DataError("need at least two intersections to split domains")
    if data.labels is None:
        raise DataError("cannot split an unlabeled dataset")
    mask = np.array([str(s) == target_id for s in data.intersection_ids])
    target = data.subset(mask)
    source = data.subset(~mask)
    held_out = HeldOutLabels(target.labels)
    return DomainSplit(source, target.without_labels(), held_out, target_id)


_FEATURES = {col.name: col for col in COLUMNS}


def _ids(intersection: str, approach: str, row: int) -> tuple[str, str]:
    """Data row ``row``'s identifier cells as ``load_table`` keeps them: stripped, a non-empty id, a known approach."""
    intersection, approach = intersection.strip(), approach.strip()
    if intersection == "":
        raise DataError(f"row {row}: missing value in column 'intersection_id'")
    if approach not in APPROACHES:
        raise DataError(f"row {row}: unknown approach {approach!r}")
    return intersection, approach


def _cell(text: str, row: int, name: str) -> float:
    """The number in cell ``text`` of column ``name`` in data row ``row``, refused unless the column may hold it.

    Every cell is finite. A feature lies in its ``Column``'s domain, which
    ``Column.check`` owns; ``interval_index`` and the labels are integers,
    and a label is not negative.
    """
    text = text.strip()
    if text == "":
        raise DataError(f"row {row}: missing value in column {name!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}: non-numeric value {text!r} in column {name!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: non-finite value {text!r} in column {name!r}")
    column = _FEATURES.get(name)
    if column is not None:
        message = column.check(value)
        if message:
            raise DataError(f"row {row}: {message}")
    elif value != int(value):
        raise DataError(f"row {row}: column {name!r} must be an integer, got {text!r}")
    elif value < 0 and name in LABEL_COLUMNS:
        raise DataError(f"row {row}: negative count {value:g} in column {name!r}")
    return value


def load_table(path: str | Path) -> Dataset:
    """Load a comma-separated dataset file.

    The file is UTF-8, with or without a byte-order mark. The header must
    name the identifier columns, all schema columns, and may name the label
    columns v_LM, v_TM, v_RM (all three or none), each column once. Rows
    failing type, finiteness or domain validation are rejected with
    row/column coordinates (rows numbered from 1, excluding the header).
    Every DataError raised names the file once, as its prefix.
    """
    path = Path(path)
    try:
        return _read_table(path)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_table(path: Path) -> Dataset:
    with path.open(newline="", encoding="utf-8-sig") as fh:    # a spreadsheet export may start with a BOM
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise DataError(f"column(s) named more than once: {repeated}")
        missing = [c for c in (*ID_COLUMNS, *(col.name for col in COLUMNS)) if c not in header]
        if missing:
            raise DataError(f"missing column(s) {missing}")
        has_labels = any(c in header for c in LABEL_COLUMNS)
        if has_labels:
            absent = [c for c in LABEL_COLUMNS if c not in header]
            if absent:
                raise DataError(f"label columns incomplete, missing {absent}")
        pos = {name: header.index(name) for name in header}

        ids, approaches, intervals, rows, labels = [], [], [], [], []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataError(f"row {r}: expected {len(header)} cells, got {len(record)}")
            inter, approach = _ids(record[pos["intersection_id"]], record[pos["approach"]], r)
            interval = int(_cell(record[pos["interval_index"]], r, "interval_index"))
            rows.append([_cell(record[pos[col.name]], r, col.name) for col in COLUMNS])
            if has_labels:
                labels.append([int(_cell(record[pos[name]], r, name)) for name in LABEL_COLUMNS])
            ids.append(inter)
            approaches.append(approach)
            intervals.append(interval)

    if not rows:
        raise DataError("no data rows")
    return Dataset(
        np.array(ids, dtype=object),
        np.array(approaches, dtype=object),
        np.array(intervals, dtype=np.int64),
        np.array(rows, dtype=float),
        np.array(labels, dtype=np.int64) if has_labels else None,
    )


# (column, written as an integer) of each checked value of a row, in the order write_table writes them.
_WRITTEN = (("interval_index", True), *((col.name, col.integer) for col in COLUMNS),
            *((name, True) for name in LABEL_COLUMNS))


def _record(data: Dataset, i: int) -> list[str]:
    """The cells ``write_table`` writes for row ``i``, each checked as ``load_table`` checks it, identifiers too."""
    values = [data.interval_indices[i], *data.X[i].tolist(),
              *(() if data.labels is None else data.labels[i].tolist())]
    cells = [str(data.intersection_ids[i]), str(data.approaches[i])]
    for name, cell, kept in zip(ID_COLUMNS, cells, _ids(*cells, i + 1)):
        if kept != cell:
            raise DataError(f"row {i + 1}: {name} {cell!r} would read back as {kept!r}")
    for (name, integer), v in zip(_WRITTEN, values):
        text = repr(float(v))
        _cell(text, i + 1, name)
        cells.append(str(int(v)) if integer else text)
    return cells


def write_table(data: Dataset, path: str | Path) -> None:
    """Write a dataset in the same delimited format accepted by load_table.

    Every value is checked first, as ``load_table`` would check it; a value
    or identifier it would refuse, or one the file cannot hold as it is (1.5
    in an integer column, an identifier with surrounding whitespace, which
    the reader strips), is a DataError naming the file and the row, and no
    file is written.
    """
    path = Path(path)
    header = [*ID_COLUMNS, *(col.name for col in COLUMNS)]
    if data.labels is not None:
        header += list(LABEL_COLUMNS)
    try:
        records = [_record(data, i) for i in range(data.n)]
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)

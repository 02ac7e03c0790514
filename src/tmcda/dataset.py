"""Dataset containers, delimited-file ingestion and source/target splitting.

Datasets are immutable after construction (arrays are flagged read-only) and
safe to share across threads. A file row is one (intersection, approach,
15-minute interval) observation: identifier columns, the 25 predictor columns
in schema order, and optionally the three movement-count labels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .schema import APPROACHES, DEFAULT_SCHEMA, LABEL_COLUMNS, MOVEMENTS, FeatureSchema

ID_COLUMNS = ("intersection_id", "approach", "interval_index")


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset contents."""


@dataclass(frozen=True)
class Dataset:
    """Instances over a shared feature schema.

    ``X`` is the (n, 25) feature matrix; ``labels`` is an (n, 3) count matrix
    ordered (left, through, right), or None when labels are unavailable.
    """

    schema: FeatureSchema
    intersection_ids: np.ndarray
    approaches: np.ndarray
    interval_indices: np.ndarray
    X: np.ndarray
    labels: np.ndarray | None
    provenance: str = ""

    def __post_init__(self):
        n = self.X.shape[0]
        if n < 1:
            raise DataError("dataset must contain at least one instance")
        if self.X.shape[1] != len(self.schema):
            raise DataError(f"feature matrix has {self.X.shape[1]} columns, expected {len(self.schema)}")
        for arr in (self.intersection_ids, self.approaches, self.interval_indices):
            if len(arr) != n:
                raise DataError("metadata arrays must match instance count")
        if self.labels is not None and self.labels.shape != (n, 3):
            raise DataError(f"labels must have shape ({n}, 3)")
        for arr in (self.X, self.interval_indices, self.labels):
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

    def subset(self, mask: np.ndarray, provenance: str | None = None) -> "Dataset":
        return Dataset(
            self.schema,
            self.intersection_ids[mask],
            self.approaches[mask],
            self.interval_indices[mask].copy(),
            self.X[mask].copy(),
            None if self.labels is None else self.labels[mask].copy(),
            self.provenance if provenance is None else provenance,
        )

    def without_labels(self) -> "Dataset":
        return Dataset(
            self.schema,
            self.intersection_ids,
            self.approaches,
            self.interval_indices.copy(),
            self.X.copy(),
            None,
            self.provenance,
        )


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
    source = data.subset(~mask, provenance=f"{data.provenance} [source]")
    held_out = HeldOutLabels(target.labels)
    return DomainSplit(source, target.without_labels(), held_out, target_id)


def _parse_cell(text: str, row: int, name: str, integer: bool) -> float:
    text = text.strip()
    if text == "":
        raise DataError(f"row {row}: missing value in column {name!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row}: non-numeric value {text!r} in column {name!r}") from None
    if integer and value != int(value):
        raise DataError(f"row {row}: column {name!r} must be an integer, got {text!r}")
    return value


def load_table(path: str | Path, schema: FeatureSchema = DEFAULT_SCHEMA) -> Dataset:
    """Load a comma-separated dataset file.

    The header must name the identifier columns, all schema columns, and may
    name the label columns v_LM, v_TM, v_RM (all three or none). Rows failing
    type or domain validation are rejected with row/column coordinates
    (rows numbered from 1, excluding the header).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in (*ID_COLUMNS, *schema.names()) if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        has_labels = any(c in header for c in LABEL_COLUMNS)
        if has_labels:
            absent = [c for c in LABEL_COLUMNS if c not in header]
            if absent:
                raise DataError(f"{path}: label columns incomplete, missing {absent}")
        pos = {name: header.index(name) for name in header}

        ids, approaches, intervals, rows, labels = [], [], [], [], []
        for r, record in enumerate(reader, start=1):
            if len(record) != len(header):
                raise DataError(f"row {r}: expected {len(header)} cells, got {len(record)}")
            inter = record[pos["intersection_id"]].strip()
            approach = record[pos["approach"]].strip()
            if approach not in APPROACHES:
                raise DataError(f"row {r}: unknown approach {approach!r}")
            interval = int(_parse_cell(record[pos["interval_index"]], r, "interval_index", True))
            feats = np.empty(len(schema))
            for j, col in enumerate(schema.columns):
                value = _parse_cell(record[pos[col.name]], r, col.name, col.integer)
                msg = schema.validate_value(col.name, value)
                if msg:
                    raise DataError(f"row {r}: {msg}")
                feats[j] = value
            if has_labels:
                lab = []
                for name in LABEL_COLUMNS:
                    value = _parse_cell(record[pos[name]], r, name, True)
                    if value < 0:
                        raise DataError(f"row {r}: negative count {value:g} in column {name!r}")
                    lab.append(int(value))
                labels.append(lab)
            ids.append(inter)
            approaches.append(approach)
            intervals.append(interval)
            rows.append(feats)

    if not rows:
        raise DataError(f"{path}: no data rows")
    return Dataset(
        schema,
        np.array(ids, dtype=object),
        np.array(approaches, dtype=object),
        np.array(intervals, dtype=np.int64),
        np.vstack(rows),
        np.array(labels, dtype=np.int64) if has_labels else None,
        provenance=str(path),
    )


def write_table(data: Dataset, path: str | Path) -> None:
    """Write a dataset in the same delimited format accepted by load_table."""
    path = Path(path)
    header = [*ID_COLUMNS, *data.schema.names()]
    if data.labels is not None:
        header += list(LABEL_COLUMNS)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            cells = [str(data.intersection_ids[i]), str(data.approaches[i]), str(int(data.interval_indices[i]))]
            for j, col in enumerate(data.schema.columns):
                v = data.X[i, j]
                cells.append(str(int(v)) if col.integer else repr(float(v)))
            if data.labels is not None:
                cells += [str(int(v)) for v in data.labels[i]]
            writer.writerow(cells)

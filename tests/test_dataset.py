import re
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcda.dataset import DataError, Dataset, load_table, split_domains, write_table
from tmcda.schema import APPROACHES, COLUMNS, LABEL_COLUMNS
from tmcda.synth import generate_synthetic_network


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic_network(seed=11, n_intersections=3, shift_strength=0.5, n_intervals=8)


def _write_rows(tmp_path, data, mutate=None, name="data.csv"):
    path = tmp_path / name
    write_table(data, path)
    if mutate:
        text = path.read_text()
        path.write_text(mutate(text))
    return path


def test_round_trip_preserves_rows(tmp_path, small_data):
    path = _write_rows(tmp_path, small_data)
    loaded = load_table(path)
    assert loaded.n == small_data.n
    assert np.allclose(loaded.X, small_data.X, atol=1e-6)
    assert np.array_equal(loaded.labels, small_data.labels)
    assert list(loaded.intersection_ids) == list(small_data.intersection_ids)


_ids = st.text(alphabet=string.ascii_letters + string.digits + ' -_,"\n', min_size=1, max_size=8).filter(
    lambda s: s == s.strip()  # load_table strips whitespace around identifiers
)


def _column_values(col):
    if col.integer:
        return st.integers(int(col.low), int(min(col.high, 10**6))).map(float)
    return st.floats(col.low, 1e6)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    X = np.array([[draw(_column_values(col)) for col in COLUMNS] for _ in range(n)])
    labels = None
    if draw(st.booleans()):
        counts = st.lists(st.integers(0, 10**6), min_size=3, max_size=3)
        labels = np.array(draw(st.lists(counts, min_size=n, max_size=n)), dtype=np.int64)
    return Dataset(
        np.array(draw(st.lists(_ids, min_size=n, max_size=n)), dtype=object),
        np.array(draw(st.lists(st.sampled_from(APPROACHES), min_size=n, max_size=n)), dtype=object),
        np.array(draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)), dtype=np.int64),
        X,
        labels,
    )


@given(data=_datasets())
def test_write_then_load_returns_the_same_dataset(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_table(data, path)
    loaded = load_table(path)
    assert list(loaded.intersection_ids) == list(data.intersection_ids)
    assert list(loaded.approaches) == list(data.approaches)
    assert np.array_equal(loaded.interval_indices, data.interval_indices)
    assert np.array_equal(loaded.X, data.X)
    if data.labels is None:
        assert loaded.labels is None
    else:
        assert np.array_equal(loaded.labels, data.labels)


def test_a_file_that_starts_with_a_byte_order_mark_loads_as_the_plain_one(tmp_path, small_data):
    # A spreadsheet export starts with one; it used to stick to the first header cell.
    plain = _write_rows(tmp_path, small_data)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_table(plain), load_table(marked)
    for name in ("intersection_ids", "approaches", "interval_indices", "X", "labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert plain.read_bytes()[:1] == b"i"    # write_table writes no mark


def _with_value(data, column, row, value):
    """``data`` with ``value`` in one cell: a feature, a label or ``interval_index``, as floats."""
    X, labels, intervals = data.X.copy(), data.labels.astype(float), data.interval_indices.astype(float)
    if column in LABEL_COLUMNS:
        labels[row, LABEL_COLUMNS.index(column)] = value
    elif column == "interval_index":
        intervals[row] = value
    else:
        X[row, [col.name for col in COLUMNS].index(column)] = value
    return Dataset(data.intersection_ids, data.approaches, intervals, X, labels)


@pytest.mark.parametrize("column, value, message", [
    # 1.5 in d_TM was written as 1, and -3 in v_TM was written and then refused by load_table.
    ("d_TM", 1.5, "row 3: d_TM must be an integer, got 1.5"),
    ("v_TM", -3.0, "row 3: negative count -3 in column 'v_TM'"),
    ("v_LM", 2.5, "row 3: column 'v_LM' must be an integer, got '2.5'"),
    ("interval_index", 0.5, "row 3: column 'interval_index' must be an integer, got '0.5'"),
    ("road_type", 3.0, r"row 3: road_type=3.0 outside \[1, 2\]"),
    ("o_TM", np.nan, "row 3: non-finite value 'nan' in column 'o_TM'"),
])
def test_write_table_refuses_what_load_table_would_and_writes_nothing(tmp_path, small_data, column, value,
                                                                       message):
    path = tmp_path / "refused.csv"
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}$"):
        write_table(_with_value(small_data, column, 2, value), path)
    assert not path.exists()


def _with_ids(data, row, intersection, approach):
    """``data`` with one row's identifiers replaced."""
    ids, approaches = data.intersection_ids.copy(), data.approaches.copy()
    ids[row], approaches[row] = intersection, approach
    return Dataset(ids, approaches, data.interval_indices, data.X, data.labels)


@pytest.mark.parametrize("intersection, approach, message", [
    # ' I00 ' was written and read back as 'I00'; 'XX' was written and then refused by load_table.
    (" I00 ", "NB", "row 3: intersection_id ' I00 ' would read back as 'I00'"),
    ("I00", "XX", "row 3: unknown approach 'XX'"),
    ("", "NB", "row 3: missing value in column 'intersection_id'"),
], ids=["padded-id", "unknown-approach", "empty-id"])
def test_write_table_refuses_identifiers_that_load_table_would_refuse_or_change(tmp_path, small_data, intersection,
                                                                                approach, message):
    path = tmp_path / "refused.csv"
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        write_table(_with_ids(small_data, 2, intersection, approach), path)
    assert not path.exists()


@given(intersection=st.text(max_size=6), approach=st.sampled_from(APPROACHES) | st.text(max_size=4))
def test_written_identifiers_are_refused_or_read_back_unchanged(tmp_path_factory, small_data, intersection, approach):
    path = tmp_path_factory.getbasetemp() / "identifiers.csv"
    path.unlink(missing_ok=True)
    data = _with_ids(small_data, 2, intersection, approach)
    try:
        write_table(data, path)
    except DataError:
        assert not path.exists()
        return
    loaded = load_table(path)
    assert list(loaded.intersection_ids) == list(data.intersection_ids)
    assert list(loaded.approaches) == list(data.approaches)


def test_ten_row_file_loads_with_n_10(tmp_path, small_data):
    subset = small_data.subset(np.arange(small_data.n) < 10)
    path = _write_rows(tmp_path, subset)
    assert load_table(path).n == 10


def test_missing_column_names_it(tmp_path, small_data):
    def drop_h_hod(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        idx = header.index("h_HOD")
        return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != idx)
                         for line in lines)

    path = _write_rows(tmp_path, small_data, mutate=drop_h_hod)
    with pytest.raises(DataError, match="h_HOD"):
        load_table(path)


def _append_second_o_tm(text):
    lines = text.splitlines()
    return "\n".join([lines[0] + ",o_TM"] + [line + ",999999" for line in lines[1:]]) + "\n"


def test_column_named_twice_is_rejected(tmp_path, small_data):
    # A second o_TM column would otherwise load silently, the first one winning.
    path = _write_rows(tmp_path, small_data, mutate=_append_second_o_tm)
    with pytest.raises(DataError, match=r"more than once: \['o_TM'\]"):
        load_table(path)


def test_negative_count_rejected_with_row(tmp_path, small_data):
    def corrupt(text):
        lines = text.splitlines()
        header = lines[0].split(",")
        idx = header.index("v_TM")
        cells = lines[3].split(",")
        cells[idx] = "-3"
        lines[3] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=corrupt)
    with pytest.raises(DataError, match="row 3.*v_TM"):
        load_table(path)


@pytest.mark.parametrize("column, text", [
    ("o_TM", "abc"),
    ("o_TM", "nan"),
    ("d_TM", "nan"),
    ("d_TM", "inf"),
    ("v_LM", "nan"),
    ("v_LM", "-inf"),
    ("interval_index", "nan"),
    ("interval_index", "inf"),
])
def test_non_numeric_cell_rejected_with_coordinates(tmp_path, small_data, column, text):
    def corrupt(table):
        lines = table.splitlines()
        idx = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[idx] = text
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=corrupt)
    with pytest.raises(DataError, match=f"row 2: non-(numeric|finite) value '{text}' in column '{column}'"):
        load_table(path)


@pytest.mark.parametrize("column, text, message", [
    ("d_TM", "1.5", "d_TM must be an integer, got 1.5"),
    ("road_type", "3", r"road_type=3.0 outside \[1, 2\]"),
    ("o_TM", "-1", r"o_TM=-1.0 outside \[0.0, inf\]"),
])
def test_feature_cell_outside_its_column_domain_rejected(tmp_path, small_data, column, text,
                                                         message):
    def corrupt(table):
        lines = table.splitlines()
        idx = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[idx] = text
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=corrupt)
    with pytest.raises(DataError, match=f"row 2: {message}"):
        load_table(path)


def test_missing_value_rejected(tmp_path, small_data):
    def corrupt(text):
        lines = text.splitlines()
        idx = lines[0].split(",").index("g_TM")
        cells = lines[1].split(",")
        cells[idx] = ""
        lines[1] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=corrupt)
    with pytest.raises(DataError, match="row 1.*g_TM"):
        load_table(path)


def test_blank_intersection_id_rejected_as_missing(tmp_path, small_data):
    def blank(text):
        lines = text.splitlines()
        idx = lines[0].split(",").index("intersection_id")
        cells = lines[2].split(",")
        cells[idx] = "  "
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=blank)
    with pytest.raises(DataError, match="row 2: missing value in column 'intersection_id'"):
        load_table(path)


def test_split_29_source_intersections():
    data = generate_synthetic_network(seed=5, n_intersections=30, shift_strength=0.2, n_intervals=2)
    split = split_domains(data, "I07")
    assert len(split.source.intersections()) == 29
    assert split.target_features.intersections() == ["I07"]


def test_split_two_intersections(small_data):
    two = small_data.subset(
        np.array([str(s) in ("I00", "I01") for s in small_data.intersection_ids])
    )
    split = split_domains(two, "I00")
    assert split.source.intersections() == ["I01"]
    assert split.target_features.labels is None


def test_split_partitions_instances(small_data):
    split = split_domains(small_data, "I02")
    assert split.source.n + split.target_features.n == small_data.n
    assert not set(split.source.intersections()) & set(split.target_features.intersections())


def test_split_unknown_target_errors(small_data):
    with pytest.raises(DataError, match="unknown target"):
        split_domains(small_data, "nope")


def test_split_single_intersection_errors(small_data):
    one = small_data.subset(np.array([str(s) == "I00" for s in small_data.intersection_ids]))
    with pytest.raises(DataError, match="two intersections"):
        split_domains(one, "I00")


def test_held_out_labels_refuse_numeric_use(small_data):
    split = split_domains(small_data, "I01")
    held = split.held_out_labels
    with pytest.raises(TypeError, match="held-out"):
        np.asarray(held)
    with pytest.raises(TypeError):
        list(held)
    with pytest.raises(TypeError):
        held + 1
    revealed = held.reveal_for_scoring("through")
    assert revealed.shape == (split.target_features.n,)


@pytest.mark.parametrize("width", [len(COLUMNS) - 1, len(COLUMNS) + 1])
def test_dataset_rejects_a_feature_matrix_of_the_wrong_width(small_data, width):
    X = np.zeros((small_data.n, width))
    with pytest.raises(DataError, match=f"feature matrix has {width} columns, expected {len(COLUMNS)}"):
        Dataset(small_data.intersection_ids, small_data.approaches, small_data.interval_indices.copy(), X,
                small_data.labels.copy())


@pytest.mark.parametrize("fault, message", [
    ("no rows", "dataset must contain at least one instance"),
    ("short intersection_ids", "metadata arrays must match instance count"),
    ("short approaches", "metadata arrays must match instance count"),
    ("short interval_indices", "metadata arrays must match instance count"),
    ("labels of two movements", "labels must have shape"),
    ("labels of one row too few", "labels must have shape"),
])
def test_dataset_rejects_arrays_that_do_not_fit_together(small_data, fault, message):
    arrays = {"intersection_ids": small_data.intersection_ids, "approaches": small_data.approaches,
              "interval_indices": small_data.interval_indices, "X": small_data.X, "labels": small_data.labels}
    if fault == "no rows":
        arrays = {name: a[:0] for name, a in arrays.items()}
    elif fault.startswith("short"):
        arrays[fault.split()[1]] = arrays[fault.split()[1]][1:]
    elif fault == "labels of two movements":
        arrays["labels"] = arrays["labels"][:, :2]
    else:
        arrays["labels"] = arrays["labels"][1:]
    with pytest.raises(DataError, match=re.escape(message)):
        Dataset(**{name: a.copy() for name, a in arrays.items()})


def test_movement_labels_of_an_unlabeled_dataset_are_refused(small_data):
    with pytest.raises(DataError, match="dataset has no labels"):
        small_data.without_labels().movement_labels("left")


def test_dataset_arrays_are_read_only(small_data):
    with pytest.raises(ValueError):
        small_data.X[0, 0] = 1.0
    with pytest.raises(ValueError):
        small_data.labels[0, 0] = 1


def test_every_dataset_array_is_read_only_after_load_and_split(tmp_path, small_data):
    # The identifier and approach arrays were once left writable.
    loaded = load_table(_write_rows(tmp_path, small_data))
    split = split_domains(small_data, "I01")
    for data in (small_data, loaded, split.source, split.target_features):
        arrays = [data.intersection_ids, data.approaches, data.interval_indices, data.X]
        if data.labels is not None:
            arrays.append(data.labels)
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

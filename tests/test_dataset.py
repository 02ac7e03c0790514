import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcda.dataset import DataError, Dataset, load_table, split_domains, write_table
from tmcda.schema import APPROACHES, DEFAULT_SCHEMA
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
    X = np.array([[draw(_column_values(col)) for col in DEFAULT_SCHEMA.columns] for _ in range(n)])
    labels = None
    if draw(st.booleans()):
        counts = st.lists(st.integers(0, 10**6), min_size=3, max_size=3)
        labels = np.array(draw(st.lists(counts, min_size=n, max_size=n)), dtype=np.int64)
    return Dataset(
        DEFAULT_SCHEMA,
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


def test_non_numeric_cell_rejected_with_coordinates(tmp_path, small_data):
    def corrupt(text):
        lines = text.splitlines()
        idx = lines[0].split(",").index("o_TM")
        cells = lines[2].split(",")
        cells[idx] = "abc"
        lines[2] = ",".join(cells)
        return "\n".join(lines)

    path = _write_rows(tmp_path, small_data, mutate=corrupt)
    with pytest.raises(DataError, match="row 2.*o_TM"):
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


def test_dataset_arrays_are_read_only(small_data):
    with pytest.raises(ValueError):
        small_data.X[0, 0] = 1.0
    with pytest.raises(ValueError):
        small_data.labels[0, 0] = 1


import numpy as np
import pytest

from tmcda.schema import APPROACHES, COLUMNS
from tmcda.synth import MAX_SHIFT_STRENGTH, generate_synthetic_network, label_coefficients

from _oracles import reference_label_coefficients, reference_network


def _same_bytes(a, b):
    if a.dtype == object:
        return b.dtype == object and a.shape == b.shape and a.tolist() == b.tolist()
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (seed, intersections, shift, intervals): shift 0 and the bound, 2 and 30
# intersections, 1, 5 and 33 intervals, and integer shifts.
_ORACLE_CASES = [
    (0, 2, 0.0, 1), (1, 2, MAX_SHIFT_STRENGTH, 5), (2, 30, 1.3, 5), (3, 5, 3.0, 33),
    (4, 30, MAX_SHIFT_STRENGTH, 33), (5, 3, 0, 33), (6, 2, 1.0, 64), (7, 6, 3, 20),
]


@pytest.mark.parametrize("seed, n_intersections, shift, n_intervals", _ORACLE_CASES)
def test_the_network_and_its_coefficients_equal_the_reference_byte_for_byte(seed, n_intersections, shift, n_intervals):
    data = generate_synthetic_network(seed, n_intersections, shift, n_intervals)
    ref = reference_network(seed, n_intersections, shift, n_intervals)
    for field in ("intersection_ids", "approaches", "interval_indices", "X", "labels"):
        assert _same_bytes(getattr(data, field), getattr(ref, field)), field
    coef = label_coefficients(seed, n_intersections, shift)
    ref_coef = reference_label_coefficients(seed, n_intersections, shift)
    assert coef.shift_strength == ref_coef.shift_strength
    for field in ("log_busy", "intercepts", "weights", "interactions"):
        assert _same_bytes(getattr(coef, field), getattr(ref_coef, field)), field


@pytest.mark.parametrize("shift", [-1.0, float("nan"), float("inf"),
                                   np.nextafter(MAX_SHIFT_STRENGTH, np.inf), 100.0])
def test_an_invalid_shift_raises_the_reference_error(shift):
    for call, reference in ((lambda: label_coefficients(0, 3, shift), lambda: reference_label_coefficients(0, 3, shift)),
                            (lambda: generate_synthetic_network(0, 3, shift, 8), lambda: reference_network(0, 3, shift, 8))):
        with pytest.raises(ValueError) as raised:
            call()
        with pytest.raises(ValueError) as expected:
            reference()
        assert (raised.type, str(raised.value)) == (expected.type, str(expected.value))


def test_same_seed_bit_identical():
    a = generate_synthetic_network(7, 5, 1.0, 16)
    b = generate_synthetic_network(7, 5, 1.0, 16)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.labels, b.labels)
    assert list(a.intersection_ids) == list(b.intersection_ids)


def test_different_seed_differs():
    a = generate_synthetic_network(7, 5, 1.0, 16)
    b = generate_synthetic_network(8, 5, 1.0, 16)
    assert not np.array_equal(a.labels, b.labels)


def test_zero_shift_identical_coefficients():
    coef = label_coefficients(seed=3, n_intersections=6, shift_strength=0.0)
    for k in range(1, 6):
        assert np.array_equal(coef.weights[k], coef.weights[0])
        assert np.array_equal(coef.intercepts[k], coef.intercepts[0])
        assert np.array_equal(coef.interactions[k], coef.interactions[0])
    assert np.all(coef.log_busy == 0.0)


@pytest.mark.parametrize("shift", [-1.0, float("nan"), float("inf")])
def test_shift_must_be_finite_and_non_negative(shift):
    message = f"shift_strength must be finite and >= 0, got {shift}"
    with pytest.raises(ValueError, match=message):
        label_coefficients(seed=0, n_intersections=3, shift_strength=shift)
    with pytest.raises(ValueError, match=message):
        generate_synthetic_network(0, 3, shift, 8)


def test_shift_above_the_bound_is_rejected_before_the_sampler_overflows():
    data = generate_synthetic_network(0, 3, MAX_SHIFT_STRENGTH, 8)    # the bound itself is drawn
    assert data.labels.min() >= 0
    for shift in (np.nextafter(MAX_SHIFT_STRENGTH, np.inf), 100.0):
        message = f"shift_strength must be <= 50, got {shift}"
        with pytest.raises(ValueError, match=message):
            label_coefficients(seed=0, n_intersections=3, shift_strength=shift)
        with pytest.raises(ValueError, match=message):
            generate_synthetic_network(0, 3, shift, 8)


def test_coefficient_drift_linear_in_shift():
    c1 = label_coefficients(seed=9, n_intersections=4, shift_strength=0.5)
    c2 = label_coefficients(seed=9, n_intersections=4, shift_strength=1.5)
    base = label_coefficients(seed=9, n_intersections=4, shift_strength=0.0)
    drift1 = c1.weights / base.weights - 1.0
    drift2 = c2.weights / base.weights - 1.0
    assert np.allclose(drift2, 3.0 * drift1, rtol=1e-12)
    assert np.allclose(c2.log_busy, 3.0 * c1.log_busy, rtol=1e-12)
    assert np.allclose(c2.intercepts - base.intercepts,
                       3.0 * (c1.intercepts - base.intercepts), rtol=1e-12)


def test_zero_shift_label_means_agree_within_sampling_noise():
    # Counts are a Poisson mixture; per-intersection means concentrate at a
    # common value as n grows, tolerance from the pooled count variance.
    data = generate_synthetic_network(seed=1, n_intersections=4, shift_strength=0.0,
                                      n_intervals=1600)
    labels = data.labels.astype(float)
    overall = labels.mean(axis=0)
    pooled_sd = labels.std(axis=0)
    n_per = 1600
    for inter in data.intersections():
        mask = np.array([str(s) == inter for s in data.intersection_ids])
        gap = np.abs(labels[mask].mean(axis=0) - overall)
        assert np.all(gap < 6.0 * pooled_sd / np.sqrt(n_per)), (inter, gap)


def test_acceptance_scale_dataset_well_formed():
    data = generate_synthetic_network(seed=7, n_intersections=5, shift_strength=1.0,
                                      n_intervals=64)
    assert data.n == 5 * 64
    assert len(data.intersections()) == 5
    assert data.labels.min() >= 0
    assert set(data.approaches) <= set(APPROACHES)
    for col, column in zip(COLUMNS, data.X.T):
        for value in column:
            assert col.check(float(value)) is None


def test_preconditions():
    with pytest.raises(ValueError):
        generate_synthetic_network(0, 1, 1.0, 8)
    with pytest.raises(ValueError):
        generate_synthetic_network(0, 3, -0.5, 8)
    with pytest.raises(ValueError):
        generate_synthetic_network(0, 3, 1.0, 0)

import re

import numpy as np
import pytest

from tmcda.gmm import (
    GMMError,
    augment,
    effective_ridge,
    fit_gmm,
    sample_gmm,
)

from _oracles import _reference_log_responsibilities, mixture_log_likelihood, reference_em


# ----------------------------------------------------------------------- fitting

def test_single_component_closed_form_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) * np.array([1.0, 2.0, 0.5]) + np.array([1.0, -2.0, 3.0])
    ridge = 1e-4
    model = fit_gmm(X, K=1, ridge=ridge)
    assert model.weights == pytest.approx([1.0], abs=0)
    assert np.max(np.abs(model.means[0] - X.mean(axis=0))) < 1e-10
    expected_cov = np.cov(X, rowvar=False, bias=True) + ridge * np.eye(3)
    assert np.max(np.abs(model.covariances[0] - expected_cov)) < 1e-10


def test_two_separated_clusters_recovered_over_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n0, n1 = 120, 80
        X = np.concatenate([rng.normal(-10.0, 1.0, n0), rng.normal(10.0, 1.0, n1)])[:, None]
        model = fit_gmm(X, K=2, seed=seed, n_init=3)
        order = np.argsort(model.means[:, 0])
        means = model.means[order, 0]
        weights = model.weights[order]
        assert abs(means[0] + 10.0) < 0.5 and abs(means[1] - 10.0) < 0.5
        assert abs(weights[0] - 0.6) < 0.1 and abs(weights[1] - 0.4) < 0.1


def test_log_likelihood_monotone_and_matches_independent_evaluator():
    rng = np.random.default_rng(5)
    X = np.vstack([
        rng.multivariate_normal([0, 0], [[1.0, 0.4], [0.4, 1.0]], 60),
        rng.multivariate_normal([4, 3], [[0.5, 0.0], [0.0, 0.8]], 40),
    ])
    model = fit_gmm(X, K=2, seed=1)
    trace = np.array(model.ll_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    independent = mixture_log_likelihood(X, model.weights, model.means, model.covariances)
    assert model.log_likelihood == pytest.approx(independent, abs=1e-8)


def test_mixing_weights_normalized_and_nonnegative():
    rng = np.random.default_rng(6)
    for K in (1, 2, 3):
        X = rng.standard_normal((50, 2)) + rng.integers(0, 3, size=(50, 1))
        model = fit_gmm(X, K=K, seed=K)
        assert abs(model.weights.sum() - 1.0) < 1e-12
        assert np.all(model.weights >= 0.0)


def test_density_rejects_singular_covariance():
    # A constant column has zero variance; with no ridge its covariance cannot be factorized.
    X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
    for K in (1, 2):
        with pytest.raises(GMMError, match="singular covariance"):
            fit_gmm(X, K=K, ridge=0.0)


def test_fit_requires_enough_samples():
    with pytest.raises(GMMError, match="need at least K"):
        fit_gmm(np.zeros((2, 1)), K=3)
    with pytest.raises(GMMError):
        fit_gmm(np.zeros((2, 1)), K=0)


def test_default_ridge_follows_data_scale():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 2)) * 10.0
    assert effective_ridge(X, None) == pytest.approx(1e-6 * np.var(X, axis=0).mean())
    assert effective_ridge(X, 0.5) == 0.5


# ----------------------------------------------------------------------- the EM oracle

def _outcome(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except GMMError as error:
        return f"{type(error).__name__}: {error}"


def _assert_same_fit(model, expected):
    if isinstance(expected, str):
        assert model == expected
        return
    for field in ("weights", "means", "covariances"):
        assert getattr(model, field).tobytes() == getattr(expected, field).tobytes(), field
    assert np.array(model.ll_trace).tobytes() == np.array(expected.ll_trace).tobytes()
    assert (model.log_likelihood, model.n_iter, model.converged) == (
        expected.log_likelihood, expected.n_iter, expected.converged)


@pytest.mark.parametrize("seed, kind", enumerate(["gaussian", "far_outlier", "duplicated_rows", "integer_columns"]))
def test_fit_is_the_per_component_em_bit_for_bit(seed, kind):
    # fit_gmm stacks the components in its E-step and its means; the reference takes each component
    # in turn, K = 1 included. Same bytes for every field, or the same GMMError.
    rng = np.random.default_rng(seed)
    for _ in range(25):
        K, d = int(rng.integers(1, 7)), int(rng.integers(1, 14))
        n = int(rng.integers(K, 121))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5.0, 5.0, d)
        if kind == "far_outlier":
            X[rng.integers(n)] += 1e3 * rng.standard_normal(d)
        elif kind == "duplicated_rows":
            X = X[rng.integers(0, max(1, n // 3), n)]
        elif kind == "integer_columns":
            X[:, : (d + 1) // 2] = rng.integers(0, 3, (n, (d + 1) // 2))
        fit_seed = int(rng.integers(1000))
        _assert_same_fit(_outcome(fit_gmm, X, K, n_init=2, seed=fit_seed), _outcome(reference_em, X, K, 2, fit_seed))


def _reseed_input(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(0, 3, (11, 2)).astype(float), 7
    if kind == "gaussian":
        return rng.standard_normal((11, 4)), 8
    return rng.standard_normal((10, 4))[rng.integers(0, 10, 30)], 8


@pytest.mark.parametrize("kind, seed, reseeded, error", [
    ("integer", 1494, [5], None),
    ("gaussian", 2140, [7], "component 7 lost all responsibility mass twice"),
    ("duplicated", 2864, [7], "component 7 lost all responsibility mass twice"),
], ids=["integer_fits", "gaussian_raises", "duplicated_raises"])
def test_a_component_that_loses_its_mass_is_reseeded_once_as_the_reference_does(kind, seed, reseeded, error):
    # Found by a seeded search over such inputs (n_init=2, seed 0): k-means++ puts more means than
    # there are distinct rows nearby, so a component's responsibilities sum below 1e-12.
    X, K = _reseed_input(kind, seed)
    reseeds = []
    expected = _outcome(reference_em, X, K, 2, 0, reseeds=reseeds)
    assert reseeds == reseeded
    if error is None:
        assert not isinstance(expected, str)
    else:
        assert expected == f"GMMError: {error}"
    _assert_same_fit(_outcome(fit_gmm, X, K, n_init=2, seed=0), expected)


def test_k_1_runs_em_and_lands_within_rounding_of_the_closed_form():
    # K = 1 used to return the closed form: the mean, the biased covariance plus the ridge, n_iter 0.
    # EM's second step computes the same quantities, the mean as r @ X / n with r = 1, and its third
    # step's log-likelihood improves by a rounding error, so it stops after 2 or 3 steps.
    rng = np.random.default_rng(36)
    worst = dict(means=0.0, covariances=0.0, ll_full_rank=0.0, ll_singular=0.0)
    for i in range(300):
        d, n = int(rng.integers(1, 14)), int(rng.integers(1, 121))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
        if i % 3 == 1:
            X[:, : (d + 1) // 2] = rng.integers(0, 3, (n, (d + 1) // 2))
        model = fit_gmm(X, 1, n_init=1, seed=i)
        assert model.converged and model.n_iter in (2, 3) and model.weights.tobytes() == np.ones(1).tobytes()
        mean = X.mean(axis=0)
        cov = np.cov(X, rowvar=False, bias=True).reshape(d, d) + effective_ridge(X, None) * np.eye(d)
        _, ll = _reference_log_responsibilities(X, np.ones(1), mean[None], cov[None])
        scale = np.maximum(np.abs(X).max(axis=0), np.finfo(float).tiny)
        worst["means"] = max(worst["means"], np.max(np.abs(model.means[0] - mean) / scale))
        worst["covariances"] = max(worst["covariances"], np.max(np.abs(model.covariances[0] - cov)) / np.abs(cov).max())
        key = "ll_full_rank" if n > d else "ll_singular"    # n <= d: only the ridge holds the covariance up
        worst[key] = max(worst[key], abs(model.log_likelihood - ll) / (n * d))
    # Measured under OpenBLAS's SkylakeX, Haswell and Katmai kernels: at most 1.2e-16, 7.4e-16,
    # 1.4e-15 and 3.8e-11. A log-likelihood near 0 makes a relative error meaningless, so the
    # log-likelihood's error is taken per row and dimension.
    assert worst["means"] <= 5e-16            # of the column's largest |x|
    assert worst["covariances"] <= 2e-15      # of the largest |entry|
    assert worst["ll_full_rank"] <= 4e-15     # per row and dimension
    assert worst["ll_singular"] <= 2e-10      # per row and dimension


def test_k_1_fits_its_first_restart_which_every_restart_equals_bit_for_bit():
    # fit_gmm runs one restart for K = 1; the reference runs all five and keeps the best, ties to
    # the first. From EM's second step every responsibility is 1, so the seeding leaves no trace.
    rng = np.random.default_rng(37)
    for i in range(200):
        d, n = int(rng.integers(1, 14)), int(rng.integers(1, 121))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d) + rng.uniform(-5.0, 5.0, d)
        if i % 3 == 1:
            X[:, : (d + 1) // 2] = rng.integers(0, 3, (n, (d + 1) // 2))
        expected = _outcome(reference_em, X, 1, 5, i)
        _assert_same_fit(_outcome(fit_gmm, X, 1, n_init=5, seed=i), expected)
        _assert_same_fit(_outcome(fit_gmm, X, 1, n_init=1, seed=i), expected)


# ----------------------------------------------------------------------- sampling

def test_sampler_deterministic_and_empty():
    rng = np.random.default_rng(9)
    X = np.concatenate([rng.normal(-5, 1, 40), rng.normal(5, 1, 40)])[:, None]
    model = fit_gmm(X, K=2, seed=3)
    assert sample_gmm(model, 0, seed=1).shape == (0, 1)
    a = sample_gmm(model, 50, seed=42)
    b = sample_gmm(model, 50, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_gmm(model, 50, seed=43))


@pytest.mark.parametrize("M", [-1, 1.5, True])
def test_sampler_refuses_a_sample_count_that_is_not_an_integer_of_at_least_zero(M):
    # 1.5 and True used to end in a bare TypeError from numpy.
    model = fit_gmm(np.random.default_rng(9).standard_normal((20, 1)), K=1, seed=3)
    with pytest.raises(GMMError, match=re.escape(f"M must be an integer >= 0, got {M!r}")):
        sample_gmm(model, M, seed=1)


def test_sampler_concentrates_for_tiny_covariance():
    rng = np.random.default_rng(10)
    X = np.full((20, 2), 3.0) + 1e-8 * rng.standard_normal((20, 2))
    model = fit_gmm(X, K=1, ridge=1e-12)
    draws = sample_gmm(model, 200, seed=0)
    sigma = np.sqrt(np.diag(model.covariances[0]).max())
    assert np.max(np.abs(draws - model.means[0])) < 3.0 * sigma * 4.0


def test_sampler_moments_match_mixture():
    M = 10_000
    weights = np.array([0.7, 0.3])
    means = np.array([[-6.0], [6.0]])
    covs = np.array([[[1.0]], [[1.0]]])
    from tmcda.gmm import GaussianMixture

    model = GaussianMixture(weights, means, covs, 0.0, 0, True, (0.0,))
    draws = sample_gmm(model, M, seed=11)
    assigned = (draws[:, 0] > 0).astype(int)  # components are well separated
    prop = np.array([1.0 - assigned.mean(), assigned.mean()])
    for k in range(2):
        bound = 3.0 * np.sqrt(weights[k] * (1 - weights[k]) / M)
        assert abs(prop[k] - weights[k]) < bound
        component = draws[assigned == k, 0]
        se = 1.0 / np.sqrt(len(component))
        assert abs(component.mean() - means[k, 0]) < 4.0 * se


# ------------------------------------------------------------------- augmentation

def test_augment_m0_returns_input_exactly():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((10, 3))
    y = rng.uniform(0, 10, 10)
    out_X, out_y, model = augment(X, y, K=99, M=0, n_init=0)  # K and n_init ignored when M == 0
    assert np.array_equal(out_X, X)
    assert np.array_equal(out_y, y)
    assert model is None


def test_augment_sizes_match_left_turn_defaults():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 4))
    y = rng.uniform(0, 20, 10)
    out_X, out_y, model = augment(X, y, K=2, M=40, seed=5)
    assert out_X.shape == (50, 4)
    assert out_y.shape == (50,)
    assert model is not None and model.K == 2
    assert np.array_equal(out_X[:10], X)
    assert np.all(out_y >= 0.0)


def test_augment_preserves_feature_label_correlation():
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 10, 120)
    y = 2.0 * x + rng.normal(0, 1.0, 120)
    out_X, out_y, _ = augment(x[:, None], y, K=2, M=300, seed=6)
    synth_x, synth_y = out_X[120:, 0], out_y[120:]
    slope = np.polyfit(synth_x, synth_y, 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_augment_validates_inputs():
    with pytest.raises(GMMError, match="empty"):
        augment(np.zeros((0, 2)), np.zeros(0), K=1, M=5)
    with pytest.raises(GMMError, match="align"):
        augment(np.zeros((3, 2)), np.zeros(2), K=1, M=5)
    with pytest.raises(GMMError, match="need at least K"):
        augment(np.zeros((2, 2)), np.zeros(2), K=5, M=5)
    # The mixture is fit to 2-D samples only: a 1-D one used to be read as one column, a 3-D one raised
    # a bare ValueError from unpacking its shape.
    for shape in ((5,), (5, 2, 1)):
        message = re.escape(f"samples must be 2-D, one row per sample, got shape {shape}")
        with pytest.raises(GMMError, match=message):
            fit_gmm(np.zeros(shape), K=1)


@pytest.mark.parametrize("kwargs", [
    dict(n_init=0), dict(n_init=-1), dict(n_init=1.5), dict(n_init=True),
    dict(ridge=-1e-6), dict(ridge=float("nan")), dict(ridge=float("inf")),
], ids=repr)
def test_em_config_rejects_invalid_settings(kwargs):
    with pytest.raises(GMMError, match=next(iter(kwargs))):
        fit_gmm(np.zeros((3, 1)), K=1, **kwargs)


@pytest.mark.parametrize("K", [0, -1, 1.5, True])
def test_fit_gmm_refuses_a_component_count_that_is_not_an_integer_of_at_least_one(K):
    # 1.5 and True used to end in a bare TypeError from numpy.
    with pytest.raises(GMMError, match=re.escape(f"K must be an integer >= 1, got {K!r}")):
        fit_gmm(np.random.default_rng(9).standard_normal((20, 2)), K=K)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_fit_and_augment_refuse_non_finite_input_before_seeding(value):
    # k-means++ used to raise numpy's "Probabilities contain NaN" from rng.choice.
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
    bad_X, bad_y = X.copy(), y.copy()
    bad_X[3, 1] = bad_y[3] = value
    for K in (1, 2):
        with pytest.raises(GMMError, match="samples have non-finite entries"):
            fit_gmm(bad_X, K)
    for features, labels in ((bad_X, y), (X, bad_y)):
        with pytest.raises(GMMError, match="matched set has non-finite entries"):
            augment(features, labels, K=2, M=5)

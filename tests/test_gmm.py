import numpy as np
import pytest

from tmcda.gmm import (
    EMConfig,
    GMMError,
    augment,
    effective_ridge,
    fit_gmm,
    sample_gmm,
)

from _oracles import mixture_log_likelihood


# ----------------------------------------------------------------------- fitting

def test_single_component_closed_form_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3)) * np.array([1.0, 2.0, 0.5]) + np.array([1.0, -2.0, 3.0])
    ridge = 1e-4
    model = fit_gmm(X, K=1, config=EMConfig(ridge=ridge))
    assert model.weights == pytest.approx([1.0], abs=0)
    assert np.max(np.abs(model.means[0] - X.mean(axis=0))) < 1e-10
    expected_cov = np.cov(X, rowvar=False, bias=True) + ridge * np.eye(3)
    assert np.max(np.abs(model.covariances[0] - expected_cov)) < 1e-10


def test_two_separated_clusters_recovered_over_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n0, n1 = 120, 80
        X = np.concatenate([rng.normal(-10.0, 1.0, n0), rng.normal(10.0, 1.0, n1)])[:, None]
        model = fit_gmm(X, K=2, config=EMConfig(seed=seed, n_init=3))
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
    model = fit_gmm(X, K=2, config=EMConfig(seed=1))
    trace = np.array(model.ll_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    independent = mixture_log_likelihood(X, model.weights, model.means, model.covariances)
    assert model.log_likelihood == pytest.approx(independent, abs=1e-8)


def test_mixing_weights_normalized_and_nonnegative():
    rng = np.random.default_rng(6)
    for K in (1, 2, 3):
        X = rng.standard_normal((50, 2)) + rng.integers(0, 3, size=(50, 1))
        model = fit_gmm(X, K=K, config=EMConfig(seed=K))
        assert abs(model.weights.sum() - 1.0) < 1e-12
        assert np.all(model.weights >= 0.0)


def test_density_rejects_singular_covariance():
    # A constant column has zero variance; with no ridge its covariance cannot be factorized.
    X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
    for K in (1, 2):
        with pytest.raises(GMMError, match="singular covariance"):
            fit_gmm(X, K=K, config=EMConfig(ridge=0.0))


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


# ----------------------------------------------------------------------- sampling

def test_sampler_deterministic_and_empty():
    rng = np.random.default_rng(9)
    X = np.concatenate([rng.normal(-5, 1, 40), rng.normal(5, 1, 40)])[:, None]
    model = fit_gmm(X, K=2, config=EMConfig(seed=3))
    assert sample_gmm(model, 0, seed=1).shape == (0, 1)
    a = sample_gmm(model, 50, seed=42)
    b = sample_gmm(model, 50, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_gmm(model, 50, seed=43))


def test_sampler_concentrates_for_tiny_covariance():
    rng = np.random.default_rng(10)
    X = np.full((20, 2), 3.0) + 1e-8 * rng.standard_normal((20, 2))
    model = fit_gmm(X, K=1, config=EMConfig(ridge=1e-12))
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
    out_X, out_y, model = augment(X, y, K=99, M=0)  # K ignored when M == 0
    assert np.array_equal(out_X, X)
    assert np.array_equal(out_y, y)
    assert model is None


def test_augment_sizes_match_left_turn_defaults():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((10, 4))
    y = rng.uniform(0, 20, 10)
    out_X, out_y, model = augment(X, y, K=2, M=40, config=EMConfig(seed=5))
    assert out_X.shape == (50, 4)
    assert out_y.shape == (50,)
    assert model is not None and model.K == 2
    assert np.array_equal(out_X[:10], X)
    assert np.all(out_y >= 0.0)


def test_augment_preserves_feature_label_correlation():
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 10, 120)
    y = 2.0 * x + rng.normal(0, 1.0, 120)
    out_X, out_y, _ = augment(x[:, None], y, K=2, M=300, config=EMConfig(seed=6))
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


@pytest.mark.parametrize("kwargs", [
    dict(n_init=0), dict(n_init=-1),
    dict(ridge=-1e-6), dict(ridge=float("nan")), dict(ridge=float("inf")),
], ids=repr)
def test_em_config_rejects_invalid_settings(kwargs):
    with pytest.raises(GMMError, match=next(iter(kwargs))):
        EMConfig(**kwargs)


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

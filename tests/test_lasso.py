import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcda.dataset import split_domains
from tmcda.lasso import (
    LassoModel,
    StandardizationParams,
    _lasso_path,
    _standardize,
    canonical_columns,
    coefficient_report,
    cross_validate_lambda,
    fit_lasso,
    lambda_max,
)
from tmcda.pipeline import LassoSettings, fit_selection
from tmcda.synth import generate_synthetic_network

from _oracles import (
    l1_objective,
    proximal_gradient_lasso,
    reference_cross_validate_lambda,
    reference_fit_lasso,
    reference_lasso_path,
    reference_standardize,
    standardize,
    subgradient_violation,
)


def _random_problem(seed, n=50, p=5, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, size=p)
    beta = rng.standard_normal(p)
    y = 2.0 + X @ beta + noise * rng.standard_normal(n)
    return X, y


def test_lambda_zero_recovers_least_squares():
    X, y = _random_problem(0)
    model = fit_lasso(X, y, lam=0.0)
    design = np.column_stack([np.ones(len(y)), X])
    ols, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert abs(model.intercept - ols[0]) < 1e-8
    assert np.max(np.abs(model.coef - ols[1:])) < 1e-8


def test_lambda_at_max_gives_all_zeros():
    X, y = _random_problem(1)
    lam = lambda_max(X, y)
    # independent recomputation of the threshold
    Z, yc = standardize(X, y)
    assert abs(lam - np.max(np.abs(Z.T @ yc)) / len(yc)) < 1e-12
    model = fit_lasso(X, y, lam=lam * 1.0000001)
    assert np.all(model.coef_std == 0.0)
    assert subgradient_violation(Z, yc, np.zeros(X.shape[1]), lam * 1.0000001) == 0.0


def test_matches_proximal_gradient_oracle():
    X, y = _random_problem(2)
    lam = 0.1 * lambda_max(X, y)
    model = fit_lasso(X, y, lam)
    Z, yc = standardize(X, y)
    oracle = proximal_gradient_lasso(Z, yc, lam)
    assert abs(l1_objective(Z, yc, model.coef_std, lam) - l1_objective(Z, yc, oracle, lam)) < 1e-9
    assert subgradient_violation(Z, yc, model.coef_std, lam) < 1e-8


def test_larger_lambda_solution_is_worse_at_smaller_penalty():
    X, y = _random_problem(4)
    lam1 = 0.02 * lambda_max(X, y)
    lam2 = 0.4 * lambda_max(X, y)
    m1 = fit_lasso(X, y, lam1)
    m2 = fit_lasso(X, y, lam2)
    Z, yc = standardize(X, y)
    assert l1_objective(Z, yc, m2.coef_std, lam1) >= l1_objective(Z, yc, m1.coef_std, lam1) - 1e-12


def test_permutation_equivariance():
    X, y = _random_problem(5)
    perm = np.array([3, 0, 4, 1, 2])
    lam = 0.1 * lambda_max(X, y)
    m = fit_lasso(X, y, lam)
    mp = fit_lasso(X[:, perm], y, lam)
    assert np.allclose(mp.coef, m.coef[perm], atol=1e-8)


def test_column_scaling_leaves_fitted_values_unchanged():
    X, y = _random_problem(6)
    lam = 0.1 * lambda_max(X, y)
    m = fit_lasso(X, y, lam)
    X2 = X.copy()
    X2[:, 2] *= 37.5
    m2 = fit_lasso(X2, y, lam)
    assert np.allclose(m.intercept + X @ m.coef, m2.intercept + X2 @ m2.coef, atol=1e-8)


def test_zero_variance_column_recorded_and_excluded():
    X, y = _random_problem(7)
    X[:, 1] = 4.2
    model = fit_lasso(X, y, 0.05 * lambda_max(X, y))
    assert model.standardization.excluded == (1,)
    assert model.coef[1] == 0.0
    assert 1 not in model.selected


def _model_with_coefs(coef_std):
    coef_std = np.asarray(coef_std, dtype=float)
    p = len(coef_std)
    std = StandardizationParams(np.zeros(p), np.ones(p), 0.0, ())
    return LassoModel(0.0, coef_std.copy(), coef_std, 0.1, tuple(int(j) for j in np.flatnonzero(coef_std)), 0.0, std)


def test_select_features_support_definition():
    # ``selected`` is the columns with a nonzero coefficient, in column order.
    X, y = _random_problem(8, p=6)
    X[:, 2] = 1.5  # zero variance: never selected
    lam_hi = lambda_max(X, y)
    sizes = set()
    for fraction in (1.0, 0.5, 0.2, 0.05, 0.0):
        model = fit_lasso(X, y, fraction * lam_hi)
        assert model.selected == tuple(j for j in range(6) if model.coef_std[j] != 0.0)
        assert model.selected == tuple(j for j in range(6) if model.coef[j] != 0.0)
        assert 2 not in model.selected
        sizes.add(len(model.selected))
    assert fit_lasso(X, y, lam_hi).selected == ()
    assert len(sizes) > 2


def test_selection_recovers_planted_signal_over_seeds():
    hits, clean = 0, 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.standard_normal((120, 6))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 2] + 0.3 * rng.standard_normal(120)
        model = fit_lasso(X, y, 0.1 * lambda_max(X, y))
        picked = set(model.selected)
        if {0, 2} <= picked:
            hits += 1
        if picked <= {0, 2}:
            clean += 1
    assert hits == 20
    assert clean >= 16


def test_input_validation():
    X, y = _random_problem(9)
    with pytest.raises(ValueError, match="non-finite"):
        fit_lasso(np.array([[np.nan, 1.0], [1.0, 2.0], [0.0, 1.0]]), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        fit_lasso(X, y, -0.5)
    with pytest.raises(ValueError, match="lambda must be >= 0, got nan"):
        fit_lasso(X, y, float("nan"))
    with pytest.raises(ValueError, match="lambda must be finite, got inf"):
        fit_lasso(X, y, float("inf"))
    with pytest.raises(ValueError):
        fit_lasso(X[:1], y[:1], 0.1)


def test_cross_validation_deterministic_and_sane():
    X, y = _random_problem(10, n=70)
    lam_a, grid_a, err_a, model_a = cross_validate_lambda(X, y, seed=5, grid_size=20)
    lam_b, grid_b, err_b, model_b = cross_validate_lambda(X, y, seed=5, grid_size=20)
    assert lam_a == lam_b == model_a.lam
    assert np.array_equal(err_a, err_b) and _bits(model_a.coef_std) == _bits(model_b.coef_std)
    # The model has fit_lasso's standardization; its solution comes from the CV's stack of paths.
    alone = fit_lasso(X, y, lam_a).standardization
    for field in ("x_mean", "x_std", "y_mean"):
        assert _bits(getattr(model_a.standardization, field)) == _bits(getattr(alone, field))
    assert grid_a[0] == pytest.approx(lambda_max(X, y))
    assert 0 < lam_a < lambda_max(X, y)


def _cd_cross_validation(X, y, grid_size, lam_min_ratio, seed, tol, max_sweeps, n_folds=5):
    """Per-lambda coordinate-descent CV: the same folds and grid, one fit per point."""
    grid = lambda_max(X, y) * np.logspace(0.0, np.log10(lam_min_ratio), grid_size)
    order = np.random.default_rng(seed).permutation(len(y))
    errors = np.zeros((n_folds, grid_size))
    for f, val in enumerate(np.array_split(order, n_folds)):
        train = np.setdiff1d(order, val)
        for g, lam in enumerate(grid):
            model = reference_fit_lasso(X[train], y[train], lam, tol=tol, max_sweeps=max_sweeps)
            resid = y[val] - (model.intercept + X[val] @ model.coef)
            errors[f, g] = resid @ resid / len(val)
    mean_err = errors.mean(axis=0)
    return float(grid[int(np.argmin(mean_err))]), mean_err


def _path_kkt_violation(X, y, grid):
    Z, yc, _ = _standardize(X, y)
    n = len(y)
    coefs = _lasso_path((Z.T @ Z / n)[None], (Z.T @ yc / n)[None], grid)[0]
    return max(subgradient_violation(Z, yc, b, lam) for b, lam in zip(coefs, grid)), coefs


def test_path_grid_points_satisfy_optimality():
    for seed in range(10):
        X, y = _random_problem(20 + seed, n=40, p=8)
        grid = lambda_max(X, y) * np.logspace(0.0, -4.0, 60)
        worst, coefs = _path_kkt_violation(X, y, grid)
        assert worst <= 1e-9
        assert np.all(coefs[0] == 0.0)


def test_path_cv_matches_per_lambda_coordinate_descent():
    # With a 1e-12 CD tolerance both routes reach the same solutions; the
    # validation MSEs then agree to 1e-9 relative (observed: ~2e-13).
    for seed in range(4):
        X, y = _random_problem(40 + seed, n=60, p=6)
        lam_path, grid, err_path, _ = cross_validate_lambda(X, y, grid_size=15, lam_min_ratio=1e-2, seed=seed)
        lam_cd, err_cd = _cd_cross_validation(X, y, 15, 1e-2, seed, tol=1e-12, max_sweeps=100_000)
        assert np.allclose(err_path, err_cd, rtol=1e-9, atol=0.0)
        assert lam_path == lam_cd


def test_path_cv_picks_the_coordinate_descent_lambda_on_network_folds():
    # Two source intersections: every intersection-level column is an affine
    # copy of the others. The CD reference runs at the tolerance CV used to.
    for seed in range(2):
        data = generate_synthetic_network(seed, 3, 1.0, 8)
        split = split_domains(data, data.intersections()[seed])
        X = split.source.X
        for movement in ("left", "through", "right"):
            y = split.source.movement_labels(movement).astype(float)
            lam_path, _, err_path, _ = cross_validate_lambda(X, y, grid_size=8, lam_min_ratio=0.1, seed=seed)
            lam_cd, err_cd = _cd_cross_validation(X, y, 8, 0.1, seed, tol=1e-7, max_sweeps=2_000)
            assert lam_path == lam_cd
            assert np.allclose(err_path, err_cd, rtol=1e-5, atol=0.0)


def test_path_handles_duplicated_collinear_and_constant_columns():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((50, 4))
    X = np.column_stack([
        base,
        base[:, 0],                           # duplicate
        2.5 * base[:, 1] - 7.0,               # affine copy
        base[:, 2] - 0.5 * base[:, 3] + 1.0,  # in the span of two columns
        np.full(50, 3.0),                     # zero variance
    ])
    y = base @ np.array([1.5, -2.0, 0.7, 0.3]) + 0.2 * rng.standard_normal(50)
    grid = lambda_max(X, y) * np.logspace(0.0, -4.0, 40)
    worst, coefs = _path_kkt_violation(X, y, grid)
    assert worst <= 1e-9
    assert np.all(coefs[:, 7] == 0.0)
    lam, _, err, _ = cross_validate_lambda(X, y, grid_size=40, lam_min_ratio=1e-4, seed=1)
    assert np.isfinite(err).all() and 0.0 < lam < lambda_max(X, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 30), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "duplicate", "affine", "constant"]))
def test_path_optimal_on_random_small_problems(n, p, seed, degeneracy):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p)
    if p > 1 and degeneracy == "duplicate":
        X[:, -1] = X[:, 0]
    elif p > 1 and degeneracy == "affine":
        X[:, -1] = -3.0 * X[:, 0] + 2.0
    elif degeneracy == "constant":
        X[:, -1] = 1.5
    y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    lam_hi = lambda_max(X, y)
    if lam_hi == 0.0:
        return
    worst, _ = _path_kkt_violation(X, y, lam_hi * np.logspace(0.0, -3.0, 25))
    assert worst <= 1e-9


@st.composite
def _degenerate_problems(draw):
    """Rows with duplicate, affine and constant columns, values rounded to 1 decimal."""
    n = draw(st.integers(6, 40))
    p = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, p), 1)
    for kind in draw(st.lists(st.sampled_from(["duplicate", "affine", "constant"]), max_size=4)):
        i, j = rng.integers(p, size=2)
        if kind == "duplicate":
            X[:, j] = X[:, i]
        elif kind == "affine":
            X[:, j] = np.round(-3.0 * X[:, i] + 2.0, 1)
        else:
            X[:, j] = 1.5
    y = np.round(X @ rng.standard_normal(p) + rng.standard_normal(n), 1)
    return X, y


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# The path advances every CV fold in lockstep and pads each fold's active
# block to the step's largest one, which reorders the solve's and the sums'
# operations: results match the one-path-at-a-time reference up to rounding,
# not bit for bit. Copies of a column may then swap which one enters, so
# paths are compared through their objective at every grid point, within
# this share of the objective at zero; CV errors within this share of the
# largest reference error (observed on 1,200 random problems: at most 2e-16
# and 6e-14).
_RTOL = 1e-12


def _assert_same_objectives(Z, yc, coefs, expected, grid):
    scale = yc @ yc / (2.0 * len(yc))
    for beta, beta_expected, lam in zip(coefs, expected, grid):
        assert abs(l1_objective(Z, yc, beta, lam) - l1_objective(Z, yc, beta_expected, lam)) <= _RTOL * scale


@settings(max_examples=100, deadline=None)
@given(_degenerate_problems(), st.sampled_from([0.1, 1e-3, 1e-5]), st.sampled_from([1, 2, 25, 50]),
       st.integers(0, 2**32 - 1))
def test_path_and_cross_validation_match_the_reference_within_tolerance(problem, lam_min_ratio, grid_size, seed):
    X, y = problem
    lam_hi = lambda_max(X, y)
    Z, yc, _ = _standardize(X, y)
    G, c = Z.T @ Z / len(y), Z.T @ yc / len(y)
    grid = lam_hi * np.logspace(0.0, np.log10(lam_min_ratio), grid_size)
    _assert_same_objectives(Z, yc, _lasso_path(G[None], c[None], grid)[0], reference_lasso_path(G, c, grid), grid)
    lam, cv_grid, mean_err, model = cross_validate_lambda(
        X, y, grid_size=grid_size, lam_min_ratio=lam_min_ratio, seed=seed)
    expected_lam, expected_err = reference_cross_validate_lambda(X, y, 5, grid_size, lam_min_ratio, seed)
    bound = _RTOL * expected_err.max()
    assert np.all(np.abs(mean_err - expected_err) <= bound)
    if lam != expected_lam:
        # Errors that each move by at most the bound can swap only two
        # grid points whose reference errors lie within twice of it.
        assert expected_err[list(cv_grid).index(lam)] - expected_err.min() <= 2.0 * bound
    # The model is the full data's path, run in the folds' stack, read at the chosen lambda.
    at = list(cv_grid).index(lam)
    assert model.lam == lam
    _assert_same_objectives(Z, yc, [model.coef_std], reference_lasso_path(G, c, cv_grid)[at:at + 1], [lam])


def _fold_problems(X, y, seed, n_folds=5):
    """Each CV fold's standardized training rows (Z, yc), as ``cross_validate_lambda`` forms them."""
    order = np.random.default_rng(seed).permutation(len(y))
    folds = []
    for val in np.array_split(order, n_folds):
        train = np.setdiff1d(order, val)
        folds.append(_standardize(X[train], y[train])[:2])
    return folds


def _stack(folds):
    G = np.array([Z.T @ Z / len(yc) for Z, yc in folds])
    c = np.array([Z.T @ yc / len(yc) for Z, yc in folds])
    return G, c


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.permutations(range(5)), st.integers(0, 2**32 - 1))
def test_permuting_the_stacked_paths_permutes_their_solutions_bit_for_bit(problem, order, seed):
    # cross_validate_lambda promises fold results independent of evaluation order.
    X, y = problem
    G, c = _stack(_fold_problems(X, y, seed))
    grid = lambda_max(X, y) * np.logspace(0.0, -3.0, 25)
    order = list(order)
    assert _bits(_lasso_path(G[order], c[order], grid)) == _bits(_lasso_path(G, c, grid)[order])


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([0.1, 1e-3]), st.integers(0, 2**32 - 1))
def test_a_path_run_alone_and_in_a_stack_reach_the_same_objectives(problem, lam_min_ratio, seed):
    X, y = problem
    folds = _fold_problems(X, y, seed)
    G, c = _stack(folds)
    grid = lambda_max(X, y) * np.logspace(0.0, np.log10(lam_min_ratio), 25)
    stacked = _lasso_path(G, c, grid)
    assert stacked.shape == (5, 25, X.shape[1])
    for (Z, yc), G_f, c_f, path in zip(folds, G, c, stacked):
        _assert_same_objectives(Z, yc, _lasso_path(G_f[None], c_f[None], grid)[0], path, grid)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cross_validation_picks_the_reference_lambda_on_benchmark_shaped_networks(seed):
    # Source rows of two 64-interval intersections, 5 folds x 50 points down to a tenth of lambda_max.
    data = generate_synthetic_network(seed, 2, 1.0, 64)
    for target in data.intersections():
        source = split_domains(data, target).source
        for movement in ("left", "through", "right"):
            y = source.movement_labels(movement).astype(float)
            lam, _, mean_err, _ = cross_validate_lambda(source.X, y, lam_min_ratio=0.1, seed=seed)
            expected_lam, expected_err = reference_cross_validate_lambda(source.X, y, 5, 50, 0.1, seed)
            assert lam == expected_lam
            assert np.all(np.abs(mean_err - expected_err) <= _RTOL * expected_err.max())


# On a design of full column rank the lasso solution is unique, so the path
# and coordinate descent run to a tight tolerance reach the same support and,
# within this share of f(0) = yc.yc/(2n), the same objective. The model's
# objective_value is f at its coef_std within the same share.
_FIT_RTOL = 1e-12


def _assert_fit_is_the_reference_optimum(X, y, lam):
    """``fit_lasso`` against reference coordinate descent at tol 1e-12: the same support and objective."""
    model, expected = fit_lasso(X, y, lam), reference_fit_lasso(X, y, lam, tol=1e-12)
    assert expected.converged
    Z, yc, _ = _standardize(X, y)
    bound = _FIT_RTOL * (yc @ yc) / (2.0 * len(yc))
    objective = l1_objective(Z, yc, model.coef_std, lam)
    assert abs(objective - l1_objective(Z, yc, expected.coef_std, lam)) <= bound
    assert abs(model.objective_value - objective) <= bound
    assert model.selected == expected.selected
    return model


# The benchmark's ``fraction`` fits, at 0.06 lambda_max on the canonical columns of
# ``alpha-sweep``'s and ``loo-variants``' sources.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(3, 1.3, 64), (2, 1.0, 32)], ids=["alpha-sweep", "loo-variants"])
def test_fraction_fits_on_benchmark_shaped_networks_are_the_reference_optimum(seed, shape):
    data = generate_synthetic_network(seed, *shape)
    for target in data.intersections():
        source = split_domains(data, target).source
        for movement in ("left", "through", "right"):
            y = source.movement_labels(movement).astype(float)
            X = source.X[:, list(canonical_columns(source.X, y)[0])]
            _assert_fit_is_the_reference_optimum(X, y, 0.06 * lambda_max(X, y))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_on_benchmark_shaped_networks_the_cv_model_is_the_fit_at_the_chosen_lambda(seed):
    # cv mode's model comes from the CV's stack of paths, not from fit_lasso: on the canonical
    # columns of two 64-interval intersections' sources it has fit_lasso's support and objective.
    data = generate_synthetic_network(seed, 2, 1.0, 64)
    for target in data.intersections():
        source = split_domains(data, target).source
        for movement in ("left", "through", "right"):
            y = source.movement_labels(movement).astype(float)
            X = source.X[:, list(canonical_columns(source.X, y)[0])]
            lam, _, _, model = cross_validate_lambda(X, y, lam_min_ratio=0.1, seed=seed)
            fit = fit_lasso(X, y, lam)
            _, yc, _ = _standardize(X, y)
            assert model.lam == fit.lam and model.selected == fit.selected
            assert abs(model.objective_value - fit.objective_value) <= _FIT_RTOL * (yc @ yc) / (2.0 * len(yc))


def _block_problem():
    """Column 0 lives on rows 0-1 only, columns 1-3 (correlated) on rows 2-7 only, each with an exact zero mean.

    Column 0 standardizes to (2, -2, 0, ...) exactly and is orthogonal to
    columns 1-3 exactly, so its correlation with the residual of any fit of
    columns 1-3 is the same exact value, -0.375: on the path it enters at
    exactly that penalty.
    """
    X = np.zeros((8, 4))
    X[:2, 0] = [1.0, -1.0]
    X[2:, 1:] = [[1.5, 1.0, 1.0], [-1.5, 0.5, -0.25], [2.0, -1.0, 1.25],
                 [-2.0, 0.5, -1.75], [0.5, -2.0, 0.375], [-0.5, 1.0, -0.625]]
    y = np.zeros(8)
    y[1] = 1.5
    y[2:] = X[2:, 1:] @ np.array([2.0, -1.5, 1.0]) + np.array([0.25, -0.5, 0.75, 0.0, -0.25, 0.5])
    return X, y


@pytest.mark.parametrize("step", [0, -1, 1], ids=["equal", "one-ulp-below", "one-ulp-above"])
def test_a_zero_column_whose_correlation_sits_on_the_penalty_to_the_last_bit(step):
    X, y = _block_problem()
    Z, yc, _ = _standardize(X, y)
    assert Z[:, 0].tolist() == [2.0, -2.0] + [0.0] * 6
    assert (Z.T @ yc)[0] / len(y) == -0.375 and not (Z.T @ Z)[0, 1:].any()
    lam = math.nextafter(0.375, math.inf if step > 0 else 0.0) if step else 0.375
    model = fit_lasso(X, y, lam)
    # At |c_0| == lam the path keeps column 0 at zero; one ulp less enters it, as coordinate descent does.
    assert (model.coef_std[0] != 0.0) == (step < 0)
    assert np.all(model.coef_std[1:] != 0.0)
    assert model.selected == reference_fit_lasso(X, y, lam, tol=1e-12).selected


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
def test_penalties_one_ulp_apart_where_a_column_enters(seed):
    # Bisect to the two adjacent penalties at which the first column that is
    # zero at half lambda_max turns nonzero: at the upper one its correlation
    # with the residual sits on the penalty, and at the lower one it enters
    # at a rounding-level coefficient.
    X, y = _random_problem(60 + seed, n=30, p=8)
    X[:, 5] = X[:, 0] + 0.05 * X[:, 1]
    lo, hi = 0.0, 0.5 * lambda_max(X, y)
    j = int(np.flatnonzero(fit_lasso(X, y, hi).coef_std == 0.0)[0])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if fit_lasso(X, y, mid).coef_std[j] == 0.0:
            hi = mid
        else:
            lo = mid
    assert math.nextafter(lo, math.inf) == hi
    Z, yc, _ = _standardize(X, y)
    corr = Z[:, j] @ (yc - Z @ fit_lasso(X, y, hi).coef_std) / len(y)
    assert abs(abs(corr) - hi) <= 1e-12 * hi
    assert 0.0 < abs(fit_lasso(X, y, lo).coef_std[j]) <= 1e-12


@pytest.mark.parametrize("fraction", [0.5, 0.1, 0.01, 0.0])
def test_the_path_keeps_one_column_of_each_set_of_copies_at_the_reference_objective(fraction):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((40, 4))
    X = np.column_stack([base, base[:, 0], 2.5 * base[:, 1] - 7.0, -base[:, 0] + 1.0, np.full(40, 3.0)])
    y = base @ np.array([1.5, -2.0, 0.7, 0.0]) + 0.2 * rng.standard_normal(40)
    lam = fraction * lambda_max(X, y)
    model, expected = fit_lasso(X, y, lam), reference_fit_lasso(X, y, lam, tol=1e-10, max_sweeps=3_000)
    Z, yc, _ = _standardize(X, y)
    gap = l1_objective(Z, yc, model.coef_std, lam) - l1_objective(Z, yc, expected.coef_std, lam)
    assert abs(gap) <= _FIT_RTOL * (yc @ yc) / (2.0 * len(yc))
    # Columns 0, 4 and 6 are copies, and so are 1 and 5; column 7 is constant.
    assert all(len(copies & set(model.selected)) <= 1 for copies in ({0, 4, 6}, {1, 5}))
    assert model.coef_std[7] == 0.0 and model.standardization.excluded == (7,)


def test_a_coefficient_that_leaves_the_model_and_comes_back():
    # On this path column 1 enters below 0.85 lambda_max, reaches zero and leaves the
    # active set near 0.19 lambda_max, and enters again near 0.036 lambda_max.
    rng = np.random.default_rng(7)
    base = rng.standard_normal((20, 2))
    X = np.round(base @ rng.standard_normal((2, 5)) + 0.3 * rng.standard_normal((20, 5)), 1)
    y = np.round(X @ rng.standard_normal(5) + rng.standard_normal(20), 1)
    Z, yc, _ = _standardize(X, y)
    nonzero = []
    for fraction in (0.5, 0.08, 0.01):
        model = _assert_fit_is_the_reference_optimum(X, y, fraction * lambda_max(X, y))
        assert subgradient_violation(Z, yc, model.coef_std, model.lam) <= 1e-9
        nonzero.append(model.coef_std[1] != 0.0)
    assert nonzero == [True, False, True]


@pytest.mark.parametrize("at", [0, 2, 5], ids=["first", "middle", "last"])
def test_a_constant_column_changes_no_other_coefficient(at):
    X, y = _random_problem(16)
    lam = 0.1 * lambda_max(X, y)
    model, alone = fit_lasso(np.insert(X, at, 2.5, axis=1), y, lam), fit_lasso(X, y, lam)
    assert model.standardization.excluded == (at,)
    assert model.coef_std[at] == 0.0 and not np.signbit(model.coef_std[at])
    assert np.allclose(np.delete(model.coef_std, at), alone.coef_std, rtol=1e-12, atol=1e-14)
    assert model.selected == tuple(j + (j >= at) for j in alone.selected)
    assert abs(model.intercept - alone.intercept) <= 1e-12 * abs(alone.intercept)


def test_columns_outside_the_active_set_read_positive_zero():
    # Coordinate descent left -0.0 on a coefficient that it zeroed from below, and the
    # coefficient report printed -0.0000; a column the path never enters reads +0.0.
    X = np.array([[2.0, -3.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 1.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    model = fit_lasso(X, y, 0.5, of_lambda_max=True)
    assert model.selected == (1,)
    assert model.coef_std[0] == 0.0 and not np.signbit(model.coef_std[0])
    assert f"{model.coef[0]:.4f}" == "0.0000"
    X, y = _random_problem(17, p=8)
    for fraction in (2.0, 1.0, 0.5, 0.1, 0.01):
        coef_std = fit_lasso(X, y, fraction, of_lambda_max=True).coef_std
        assert not np.signbit(coef_std[coef_std == 0.0]).any()


def test_cross_validation_input_validation():
    X, y = _random_problem(11)
    with pytest.raises(ValueError, match="non-finite"):
        cross_validate_lambda(np.where(X == X[0, 0], np.nan, X), y)
    with pytest.raises(ValueError, match="y must have shape"):
        cross_validate_lambda(X, y[:-1])
    with pytest.raises(ValueError, match="lam_min_ratio"):
        cross_validate_lambda(X, y, lam_min_ratio=2.0)
    with pytest.raises(ValueError, match="training rows"):
        cross_validate_lambda(X[:3], y[:3], n_folds=2)    # folds of 2 and 1 rows


_ENTRY_POINTS = {
    "lambda_max": lambda_max,
    "fit_lasso": lambda X, y: fit_lasso(X, y, 0.1),
    "cross_validate_lambda": cross_validate_lambda,
    "canonical_columns": canonical_columns,
    "fit_lasso of lambda_max": lambda X, y: fit_lasso(X, y, 0.1, of_lambda_max=True),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_lasso_entry_point_refuses_bad_inputs_with_one_message(entry):
    # lambda_max once returned nan for these (with numpy warnings for zero
    # rows) or failed inside numpy's matmul on a length mismatch.
    call = _ENTRY_POINTS[entry]
    X, y = _random_problem(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^X has non-finite entries$"):
            call(np.where(X == X[0, 0], np.inf, X), y)
        with pytest.raises(ValueError, match=r"^y has non-finite entries$"):
            call(X, np.where(y == y[0], np.nan, y))
        with pytest.raises(ValueError, match=rf"^y must have shape \({len(y)},\), one entry per row of X, got shape"):
            call(X, y[:-1])
        with pytest.raises(ValueError, match=rf"^y must have shape \({len(y)},\), one entry per row of X, got shape"):
            call(X, y[:, None])
        with pytest.raises(ValueError, match=r"^X must have >= [12] rows, got 0$"):
            call(np.zeros((0, 3)), np.zeros(0))


def test_fraction_mode_refuses_non_finite_inputs_instead_of_a_nan_penalty():
    X, y = _random_problem(13)
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_selection(X, y, LassoSettings(lambda_mode="fraction", lambda_value=0.5), seed=0)


def test_no_columns_give_lambda_max_zero_and_the_constant_response_cv_result():
    # numpy's "zero-size array to reduction operation" used to escape from both.
    X, y = np.zeros((12, 0)), np.arange(12.0)
    assert lambda_max(X, y) == 0.0
    lam, grid, mean_err, model = cross_validate_lambda(X, y)
    assert (lam, grid.tolist(), mean_err.tolist()) == (0.0, [0.0], [0.0])
    assert (model.lam, model.coef_std.shape, model.selected, model.intercept) == (0.0, (0,), (), 5.5)


# --------------------------------------------------------------------------- one standardization pass


@st.composite
def _scaled_designs(draw):
    """Columns at scales 1e-8 to 1e8 and offsets up to 1e6, some constant, some entries -0.0, C or F order."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-8.0, 8.0, p)
    X += rng.uniform(-1e6, 1e6, p) * (rng.random(p) < 0.5)
    for j in np.flatnonzero(rng.random(p) < 0.25):
        X[:, j] = rng.choice([0.0, -0.0, 1.5, -3e5, 7e-9])
    X[rng.random((n, p)) < 0.05] = -0.0
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X, rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(_scaled_designs())
def test_standardization_is_numpys_mean_std_and_apply_bit_for_bit(design):
    X, y = design
    got, expected = _standardize(X, y), reference_standardize(X, y)
    for a, b in zip(got[:2], expected[:2]):
        assert _bits(a) == _bits(b)      # signed zeros included
    for field in ("x_mean", "x_std", "y_mean"):
        assert _bits(getattr(got[2], field)) == _bits(getattr(expected[2], field)), field
    assert got[2].excluded == expected[2].excluded


# --------------------------------------------------------------------------- the canonical design

_COPIES = ["duplicate", "negated", "scaled", "shifted", "two", "constant"]


@st.composite
def _designs_with_copies(draw):
    """``(X, y, kept)``: independent columns at random scales and offsets, and among them copies of
    earlier columns (duplicated, negated, scaled, shifted, in the span of two) and constant columns.
    ``kept`` lists the independent ones, which the copies follow."""
    n = draw(st.integers(8, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, kept = [], []
    for kind in draw(st.lists(st.sampled_from(["new"] * 3 + _COPIES), min_size=1, max_size=25)):
        earlier = [j for j, col in enumerate(columns) if col.std() > 0.0]
        if kind == "constant":
            columns.append(np.full(n, rng.uniform(-5.0, 5.0)))
        elif kind == "new" or not earlier:
            if len(kept) >= n - 3:    # a new column stays well outside the span of n - 3 others
                continue
            kept.append(len(columns))
            columns.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.uniform(-100.0, 100.0))
        else:
            a, b = (columns[j] for j in rng.choice(earlier, 2))
            columns.append({
                "duplicate": a,
                "negated": -a,
                "scaled": 10.0 ** rng.uniform(-3.0, 3.0) * a,
                "shifted": a + rng.uniform(-100.0, 100.0),
                "two": 2.5 * a - 0.5 * b + 3.0,
            }[kind])
    X = np.column_stack(columns) if columns else np.zeros((n, 0))
    Z, _, _ = reference_standardize(X, np.zeros(n))
    y = Z @ rng.standard_normal(X.shape[1]) + 0.5 * rng.standard_normal(n)
    return X, y, tuple(kept)


@settings(max_examples=150, deadline=None)
@given(_designs_with_copies(), st.sampled_from([0.5, 0.2, 0.05, 0.01]))
def test_the_canonical_columns_are_the_first_of_each_set_of_copies_with_full_rank_and_one_support(problem, fraction):
    X, y, kept = problem
    columns, std = canonical_columns(X, y)
    # Schema order: each copy follows the column it copies, so exactly the independent columns stay.
    assert columns == kept
    Z, _, _ = reference_standardize(X[:, list(columns)], y)
    assert np.linalg.matrix_rank(Z) == len(columns)
    assert std.excluded == tuple(j for j in range(X.shape[1]) if np.ptp(X[:, j]) == 0.0)
    # fit_selection is the fit on the canonical design, returned for every column.
    model = fit_selection(X, y, LassoSettings(lambda_mode="fraction", lambda_value=fraction), seed=0)
    fit = fit_lasso(X[:, list(columns)], y, fraction, of_lambda_max=True)
    assert model.lam == fit.lam and _bits(model.coef_std[list(columns)]) == _bits(fit.coef_std)
    assert model.selected == tuple(columns[j] for j in fit.selected)


@settings(max_examples=100, deadline=None)
@given(_designs_with_copies(), st.sampled_from([0.5, 0.2, 0.05, 0.01, 0.0]))
def test_on_canonical_designs_the_fit_has_the_support_and_objective_of_coordinate_descent(problem, fraction):
    # The canonical design has full column rank, so the lasso solution is unique. Not at lambda_max
    # itself, where coordinate descent can keep a column at a rounding-level coefficient and the
    # path gives exact zeros (tested on its own).
    X, y, kept = problem
    X = X[:, list(kept)]
    _assert_fit_is_the_reference_optimum(X, y, fraction * lambda_max(X, y))


def test_a_dropped_copy_takes_up_no_direction_that_a_later_column_needs():
    # 8 rows: four independent columns, four copies, then a fifth independent column. One QR of
    # every column spends a direction on each copy's rounding and has none left for the fifth.
    rng = np.random.default_rng(0)
    first, fifth = rng.standard_normal((8, 4)), rng.standard_normal(8)
    copies = [first[:, 2], -first[:, 1], 3.0 * first[:, 2] + 1.0, first[:, 0] - first[:, 3]]
    X = np.column_stack([first, *copies, fifth])
    columns, _ = canonical_columns(X, rng.standard_normal(8))
    assert columns == (0, 1, 2, 3, 8)


def test_the_fit_is_the_path_at_lambda_and_zero_from_lambda_max_on():
    X, y = _random_problem(14, n=40, p=6)
    Z, yc, _ = _standardize(X, y)
    G, c = Z.T @ Z / len(y), Z.T @ yc / len(y)
    lam_hi = lambda_max(X, y)
    for fraction in (0.5, 0.05, 0.0):
        lam = fraction * lam_hi
        expected = _lasso_path(G[None], c[None], np.array([lam]))[0, 0]
        for got in (fit_lasso(X, y, lam), fit_lasso(X, y, fraction, of_lambda_max=True)):
            assert got.lam == lam and _bits(got.coef_std) == _bits(expected)
        assert subgradient_violation(Z, yc, expected, lam) <= 1e-9
    for fraction in (1.0, 2.0):
        for got in (fit_lasso(X, y, fraction * lam_hi), fit_lasso(X, y, fraction, of_lambda_max=True)):
            assert got.lam == fraction * lam_hi and _bits(got.coef_std) == _bits(np.zeros(6))
            assert got.selected == () and got.intercept == y.mean()
    for lam, message in ((-1.0, "lambda must be >= 0"), (math.nan, "lambda must be >= 0"), (math.inf, "finite")):
        for of_lambda_max in (False, True):
            with pytest.raises(ValueError, match=message):
                fit_lasso(X, y, lam, of_lambda_max=of_lambda_max)


@pytest.mark.parametrize("control", ["tol", "max_sweeps", "start"])
def test_the_fit_takes_no_solver_control(control):
    # The path has no tolerance, no sweep cap and no start: passing one fails instead of doing nothing.
    X, y = _random_problem(9)
    with pytest.raises(TypeError, match=control):
        fit_lasso(X, y, 0.1, **{control: 1})


_SOLVED = {
    "fit_lasso": lambda X, y: fit_lasso(X, y, 0.1),
    "fit_lasso at lambda_max": lambda X, y: fit_lasso(X, y, 1.0, of_lambda_max=True),
    "cross_validate_lambda": lambda X, y: cross_validate_lambda(X, y, grid_size=10)[3],
    "fit_selection": lambda X, y: fit_selection(X, y, LassoSettings(lam_min_ratio=0.1), seed=0),
}


@pytest.mark.parametrize("entry", list(_SOLVED))
def test_every_model_is_optimal_and_reports_the_exact_solvers_constants(entry):
    # perfbench's tracer counts sweeps and unconverged fits on every model: the path has neither.
    X, y = _random_problem(15)
    model = _SOLVED[entry](X, y)
    assert model.converged is True and model.n_sweeps == 0
    Z, yc, _ = _standardize(X, y)
    assert subgradient_violation(Z, yc, model.coef_std, model.lam) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([2.0, 1.0, 0.3, 0.05, 1e-3, 0.0]))
def test_objective_value_is_the_objective_at_the_solution(problem, fraction):
    X, y = problem
    model = fit_lasso(X, y, fraction, of_lambda_max=True)
    Z, yc, _ = _standardize(X, y)
    bound = _FIT_RTOL * (yc @ yc) / (2.0 * len(yc))
    assert abs(model.objective_value - l1_objective(Z, yc, model.coef_std, model.lam)) <= bound


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([1.0, 1.5, 1e3]))
def test_from_lambda_max_on_the_fit_is_exactly_the_mean(problem, fraction):
    X, y = problem
    model = fit_lasso(X, y, fraction, of_lambda_max=True)
    _, yc, std = _standardize(X, y)
    assert _bits(model.coef_std) == _bits(np.zeros(X.shape[1])) and model.selected == ()
    assert model.intercept == std.y_mean
    assert model.objective_value == float(yc @ yc) / (2.0 * len(yc))


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems())
def test_the_optimum_rises_and_the_l1_norm_falls_as_lambda_grows(problem):
    # For lam1 < lam2, f_lam1(b1) <= f_lam1(b2) and f_lam2(b2) <= f_lam2(b1) give |b2|_1 <= |b1|_1.
    X, y = problem
    _, yc, _ = _standardize(X, y)
    bound = _FIT_RTOL * (yc @ yc) / (2.0 * len(yc))
    models = [fit_lasso(X, y, fraction, of_lambda_max=True) for fraction in (0.0, 1e-3, 0.05, 0.3, 1.0)]
    for lo, hi in zip(models, models[1:]):
        assert hi.objective_value >= lo.objective_value - bound
        norm_lo, norm_hi = np.abs(lo.coef_std).sum(), np.abs(hi.coef_std).sum()
        assert norm_hi <= norm_lo * (1.0 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([1.0, 0.3, 0.05, 0.0]))
def test_the_fitted_values_have_the_responses_mean(problem, fraction):
    X, y = problem
    model = fit_lasso(X, y, fraction, of_lambda_max=True)
    fitted = model.intercept + X @ model.coef
    assert abs(fitted.mean() - y.mean()) <= 1e-9 * (1.0 + np.abs(y).max() + np.abs(fitted).max())


def test_stacking_the_rows_twice_leaves_the_fit_unchanged():
    # f averages over the rows, so the doubled data pose the same problem.
    X, y = _random_problem(18, n=30, p=6)
    for fraction in (0.5, 0.1, 0.01, 0.0):
        model, doubled = fit_lasso(X, y, fraction, of_lambda_max=True), fit_lasso(
            np.vstack([X, X]), np.concatenate([y, y]), fraction, of_lambda_max=True)
        assert model.selected == doubled.selected
        assert np.allclose(doubled.coef_std, model.coef_std, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("change", ["shift", "scale"])
def test_the_fit_follows_a_shift_or_a_scaling_of_the_response(change):
    # y + 100 has the same centered response; 3 y has three times the solution at three times lambda.
    X, y = _random_problem(19, p=6)
    for fraction in (0.5, 0.1, 0.01, 0.0):
        model = fit_lasso(X, y, fraction, of_lambda_max=True)
        if change == "shift":
            moved = fit_lasso(X, y + 100.0, fraction, of_lambda_max=True)
            assert abs(moved.lam - model.lam) <= 1e-10 * model.lam
            assert abs(moved.intercept - model.intercept - 100.0) <= 1e-9
            expected = model.coef_std
        else:
            moved = fit_lasso(X, 3.0 * y, fraction, of_lambda_max=True)
            assert abs(moved.lam - 3.0 * model.lam) <= 1e-12 * model.lam
            assert abs(moved.intercept - 3.0 * model.intercept) <= 1e-10 * abs(model.intercept)
            expected = 3.0 * model.coef_std
        assert moved.selected == model.selected
        assert np.allclose(moved.coef_std, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(n_folds=1), dict(n_folds=0), dict(n_folds=2.5), dict(n_folds=True),
    dict(grid_size=0), dict(grid_size=-3), dict(grid_size=2.5), dict(grid_size=True),
], ids=repr)
def test_cross_validation_rejects_too_few_folds_or_grid_points(kwargs):
    # 2.5 and True used to end in a bare TypeError from numpy.
    X, y = _random_problem(11)
    ((name, value),) = kwargs.items()
    least = 2 if name == "n_folds" else 1
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {least}, got {value!r}")):
        cross_validate_lambda(X, y, **kwargs)


def test_coefficient_report_layout():
    rng = np.random.default_rng(0)
    X = np.column_stack([rng.uniform(0, 10, size=(40, 20)),
                         rng.integers(1, 3, size=(40, 1)),
                         rng.integers(1, 4, size=(40, 1)),
                         rng.integers(1, 5, size=(40, 1)),
                         rng.integers(1, 5, size=(40, 1)),
                         rng.integers(0, 24, size=(40, 1))]).astype(float)
    y = X[:, 0] + rng.standard_normal(40)
    models = {m: fit_lasso(X, y, 0.05 * lambda_max(X, y)) for m in ("left", "through", "right")}
    text = coefficient_report(models)
    lines = text.strip().splitlines()
    assert len(lines) == 26
    assert lines[0] == "variable,left,through,right"
    assert all(line.count(",") >= 3 for line in lines[1:])
    assert "Through movement detector occupancy time" in lines[1]

    huge = {m: fit_lasso(X, y, 10 * lambda_max(X, y)) for m in ("left", "through", "right")}
    zero_text = coefficient_report(huge)
    for line in zero_text.strip().splitlines()[1:]:
        assert line.endswith("0.0000,0.0000,0.0000")


def test_coefficient_report_requires_all_movements():
    with pytest.raises(ValueError, match="right"):
        coefficient_report({"left": _model_with_coefs([0.0]), "through": _model_with_coefs([0.0])})

import math
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
    exact_solution,
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
    model = fit_lasso(X, y, lam=0.0, tol=1e-12, max_sweeps=50_000)
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
    model = fit_lasso(X, y, lam, tol=1e-12, max_sweeps=50_000)
    Z, yc = standardize(X, y)
    oracle = proximal_gradient_lasso(Z, yc, lam)
    assert abs(l1_objective(Z, yc, model.coef_std, lam) - l1_objective(Z, yc, oracle, lam)) < 1e-9
    assert subgradient_violation(Z, yc, model.coef_std, lam) < 1e-8


def test_objective_monotone_over_sweeps():
    X, y = _random_problem(3, n=80, p=10)
    model = fit_lasso(X, y, 0.05 * lambda_max(X, y))
    trace = np.array(model.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert model.objective_value == trace[-1]


def test_larger_lambda_solution_is_worse_at_smaller_penalty():
    X, y = _random_problem(4)
    lam1 = 0.02 * lambda_max(X, y)
    lam2 = 0.4 * lambda_max(X, y)
    m1 = fit_lasso(X, y, lam1, tol=1e-12, max_sweeps=50_000)
    m2 = fit_lasso(X, y, lam2, tol=1e-12, max_sweeps=50_000)
    Z, yc = standardize(X, y)
    assert l1_objective(Z, yc, m2.coef_std, lam1) >= l1_objective(Z, yc, m1.coef_std, lam1) - 1e-12


def test_permutation_equivariance():
    X, y = _random_problem(5)
    perm = np.array([3, 0, 4, 1, 2])
    lam = 0.1 * lambda_max(X, y)
    m = fit_lasso(X, y, lam, tol=1e-12, max_sweeps=50_000)
    mp = fit_lasso(X[:, perm], y, lam, tol=1e-12, max_sweeps=50_000)
    assert np.allclose(mp.coef, m.coef[perm], atol=1e-8)


def test_column_scaling_leaves_fitted_values_unchanged():
    X, y = _random_problem(6)
    lam = 0.1 * lambda_max(X, y)
    m = fit_lasso(X, y, lam, tol=1e-12, max_sweeps=50_000)
    X2 = X.copy()
    X2[:, 2] *= 37.5
    m2 = fit_lasso(X2, y, lam, tol=1e-12, max_sweeps=50_000)
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
    return LassoModel(0.0, coef_std.copy(), coef_std, 0.1,
                      tuple(int(j) for j in np.flatnonzero(coef_std)), 0.0, True, 1, (0.0,), std)


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


def test_non_convergence_reported_not_silent():
    X, y = _random_problem(8, n=60, p=8)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        model = fit_lasso(X, y, 1e-6, tol=1e-14, max_sweeps=2)
    assert model.converged is False
    assert model.n_sweeps == 2


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


@pytest.mark.parametrize("kwargs", [
    dict(max_sweeps=0), dict(max_sweeps=-1),
    dict(tol=0.0), dict(tol=-1.0), dict(tol=float("nan")),
], ids=repr)
def test_fit_rejects_invalid_tol_and_max_sweeps(kwargs):
    X, y = _random_problem(9)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        fit_lasso(X, y, 0.1, **kwargs)


def test_cross_validation_deterministic_and_sane():
    X, y = _random_problem(10, n=70)
    lam_a, grid_a, err_a, start_a = cross_validate_lambda(X, y, seed=5, grid_size=20)
    lam_b, grid_b, err_b, start_b = cross_validate_lambda(X, y, seed=5, grid_size=20)
    assert lam_a == lam_b
    assert np.array_equal(err_a, err_b) and _bits(start_a) == _bits(start_b)
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
            model = fit_lasso(X[train], y[train], lam, tol=tol, max_sweeps=max_sweeps)
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
    lam, cv_grid, mean_err, start = cross_validate_lambda(
        X, y, grid_size=grid_size, lam_min_ratio=lam_min_ratio, seed=seed)
    expected_lam, expected_err = reference_cross_validate_lambda(X, y, 5, grid_size, lam_min_ratio, seed)
    bound = _RTOL * expected_err.max()
    assert np.all(np.abs(mean_err - expected_err) <= bound)
    if lam != expected_lam:
        # Errors that each move by at most the bound can swap only two
        # grid points whose reference errors lie within twice of it.
        assert expected_err[list(cv_grid).index(lam)] - expected_err.min() <= 2.0 * bound
    # The full data's path, run in the folds' stack, is read at the chosen lambda.
    at = list(cv_grid).index(lam)
    _assert_same_objectives(Z, yc, [start], reference_lasso_path(G, c, cv_grid)[at:at + 1], [lam])


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


def _assert_fit_equals_the_reference(X, y, lam, **kwargs):
    """``fit_lasso`` against ``reference_fit_lasso`` bit for bit; the fit is returned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_lasso(X, y, lam, **kwargs)
    expected = reference_fit_lasso(X, y, lam, **kwargs)
    assert len(caught) == (not expected.converged)
    assert _bits(model.coef) == _bits(expected.coef)
    assert _bits(model.coef_std) == _bits(expected.coef_std)
    assert _bits(model.intercept) == _bits(expected.intercept)
    assert _bits(model.objective_trace) == _bits(expected.objective_trace)
    assert model.objective_value == expected.objective_value
    assert (model.selected, model.n_sweeps, model.converged) == (
        expected.selected, expected.n_sweeps, expected.converged)
    return model


@settings(max_examples=100, deadline=None)
@given(_degenerate_problems(), st.sampled_from([1.0, 0.3, 0.05, 1e-3, 1e-5, 0.0]),
       st.sampled_from([1e-8, 1e-12]), st.sampled_from([1, 3, 500]))
def test_fit_equals_the_reference_coordinate_descent_bit_for_bit(problem, fraction, tol, max_sweeps):
    X, y = problem
    _assert_fit_equals_the_reference(X, y, fraction * lambda_max(X, y), tol=tol, max_sweeps=max_sweeps)


_STARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@settings(max_examples=100, deadline=None)
@given(_degenerate_problems(), st.sampled_from(["zero", "cv", "arbitrary"]),
       st.sampled_from([1.0, 0.3, 0.05, 1e-3, 0.0]), st.sampled_from([1, 3, 500]), st.data())
def test_a_fit_from_a_start_equals_the_reference_started_there_bit_for_bit(problem, kind, fraction, max_sweeps, data):
    # Some problems have zero-variance columns; a start's entries there are set to 0.
    X, y = problem
    p = X.shape[1]
    lam = fraction * lambda_max(X, y)
    if kind == "zero":
        start = np.zeros(p)
    elif kind == "cv":
        lam, _, _, start = cross_validate_lambda(X, y, grid_size=25, lam_min_ratio=1e-3,
                                                 seed=data.draw(st.integers(0, 2**32 - 1)))
    else:
        start = np.array(data.draw(st.lists(_STARTS, min_size=p, max_size=p)))
    model = _assert_fit_equals_the_reference(X, y, lam, max_sweeps=max_sweeps, start=start)
    if kind == "zero":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cold = fit_lasso(X, y, lam, max_sweeps=max_sweeps)
        assert _bits(model.coef_std) == _bits(cold.coef_std)
        assert _bits(model.objective_trace) == _bits(cold.objective_trace)


def test_a_start_entry_at_a_zero_variance_column_is_set_to_zero():
    X, y = _random_problem(15)
    X[:, 2] = 4.0
    lam = 0.1 * lambda_max(X, y)
    start = np.full(5, 0.5)
    zeroed = start.copy()
    zeroed[2] = 0.0
    model, expected = fit_lasso(X, y, lam, start=start), fit_lasso(X, y, lam, start=zeroed)
    assert model.coef_std[2] == 0.0 and 2 not in model.selected
    assert _bits(model.coef_std) == _bits(expected.coef_std)
    assert model.objective_trace == expected.objective_trace


@pytest.mark.parametrize("start, message", [
    (np.zeros(4), r"start has shape \(4,\); X has 5 columns"),
    (np.zeros((5, 1)), r"start has shape \(5, 1\); X has 5 columns"),
    ([0.0, 0.0, np.nan, 0.0, 0.0], "start must be finite"),
    ([0.0, -np.inf, 0.0, 0.0, 0.0], "start must be finite"),
    ([1e308] * 5, "start must leave a finite residual"),
], ids=["short", "column", "nan", "inf", "overflow"])
def test_fit_refuses_a_start_of_the_wrong_shape_or_not_finite(start, message):
    X, y = _random_problem(14)
    with pytest.raises(ValueError, match=message):
        fit_lasso(X, y, 0.1, start=start)


# In cv mode coordinate descent starts from the full data's path solution at
# the chosen lambda. Its final objective is stated to lie no more than this
# share of f(0) above the fit from zero (observed: at most 1.0e-16 above on
# 400 derandomized draws of this test's problems). It can lie far below: on 8
# of those the fit from zero hit its 10,000-sweep cap short of the optimum,
# by up to 1.8e-5 of f(0).
_START_RTOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([0.1, 1e-3, 1e-5]), st.integers(0, 2**32 - 1))
def test_a_fit_from_the_cv_solution_is_no_worse_than_one_from_zero_within_the_stated_bound(problem, ratio, seed):
    X, y = problem
    lam, _, _, start = cross_validate_lambda(X, y, grid_size=25, lam_min_ratio=ratio, seed=seed)
    Z, yc, _ = _standardize(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        started, cold = fit_lasso(X, y, lam, start=start), fit_lasso(X, y, lam)
    excess = l1_objective(Z, yc, started.coef_std, lam) - l1_objective(Z, yc, cold.coef_std, lam)
    assert excess <= _START_RTOL * (yc @ yc) / (2.0 * len(yc))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_on_benchmark_shaped_networks_a_fit_from_the_cv_solution_takes_one_sweep_to_the_same_objective(seed):
    # Source rows of two 64-interval intersections, 5 folds x 50 points down to a tenth of lambda_max.
    data = generate_synthetic_network(seed, 2, 1.0, 64)
    for target in data.intersections():
        source = split_domains(data, target).source
        for movement in ("left", "through", "right"):
            y = source.movement_labels(movement).astype(float)
            Z, yc, _ = _standardize(source.X, y)
            lam, _, _, start = cross_validate_lambda(source.X, y, lam_min_ratio=0.1, seed=seed)
            started, cold = fit_lasso(source.X, y, lam, start=start), fit_lasso(source.X, y, lam)
            assert started.converged and started.n_sweeps == 1
            gap = l1_objective(Z, yc, started.coef_std, lam) - l1_objective(Z, yc, cold.coef_std, lam)
            assert abs(gap) <= _START_RTOL * (yc @ yc) / (2.0 * len(yc))


# The benchmark's ``fraction`` fits, cold starts at 0.06 lambda_max: ``alpha-sweep``'s
# networks under its tol and sweep cap, and ``loo-variants``' at the defaults.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape, settings", [
    ((3, 1.3, 64), {"tol": 1e-7, "max_sweeps": 2_000}),
    ((2, 1.0, 32), {}),
], ids=["alpha-sweep", "loo-variants"])
def test_fraction_fits_on_benchmark_shaped_networks_equal_the_reference_bit_for_bit(seed, shape, settings):
    data = generate_synthetic_network(seed, *shape)
    for target in data.intersections():
        source = split_domains(data, target).source
        for movement in ("left", "through", "right"):
            y = source.movement_labels(movement).astype(float)
            _assert_fit_equals_the_reference(source.X, y, 0.06 * lambda_max(source.X, y), **settings)


def _block_problem():
    """Column 0 lives on rows 0-1 only, columns 1-3 (correlated) on rows 2-7 only, each with an exact zero mean.

    Column 0 standardizes to (2, -2, 0, ...) exactly, and no update of
    columns 1-3 touches rows 0-1 of the residual, so column 0's computed
    correlation is the same exact value, -0.375, at every sweep.
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
    Z, _, _ = _standardize(X, y)
    assert Z[:, 0].tolist() == [2.0, -2.0] + [0.0] * 6
    # At lambda = 0 a first fit's first update sets column 0 to its correlation at zero.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = fit_lasso(X, y, 0.0, max_sweeps=1).coef_std[0]
    assert rho == -0.375
    lam = math.nextafter(abs(rho), math.inf if step > 0 else 0.0) if step else abs(rho)
    model = _assert_fit_equals_the_reference(X, y, lam, tol=1e-12)
    # At |rho| == lam the soft threshold keeps column 0 at zero; one ulp less enters it.
    assert (model.coef_std[0] != 0.0) == (step < 0)
    assert np.all(model.coef_std[1:] != 0.0) and model.n_sweeps > 100


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
def test_penalties_one_ulp_apart_where_a_column_enters(seed):
    # Bisect to the two adjacent penalties at which the first column that is
    # zero at half lambda_max turns nonzero: at the upper one it stays zero
    # with its final |rho| within rounding of the penalty.
    X, y = _random_problem(60 + seed, n=30, p=8)
    X[:, 5] = X[:, 0] + 0.05 * X[:, 1]
    lo, hi = 0.0, 0.5 * lambda_max(X, y)
    j = int(np.flatnonzero(fit_lasso(X, y, hi, tol=1e-12).coef_std == 0.0)[0])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if fit_lasso(X, y, mid, tol=1e-12).coef_std[j] == 0.0:
            hi = mid
        else:
            lo = mid
    assert math.nextafter(lo, math.inf) == hi
    assert _assert_fit_equals_the_reference(X, y, hi, tol=1e-12).coef_std[j] == 0.0
    assert _assert_fit_equals_the_reference(X, y, lo, tol=1e-12).coef_std[j] != 0.0


def test_a_coefficient_that_leaves_the_model_and_comes_back():
    rng = np.random.default_rng(7)
    n, p = rng.integers(8, 20), rng.integers(3, 7)
    base = rng.standard_normal((n, 2))
    X = np.round(base @ rng.standard_normal((2, p)) + 0.3 * rng.standard_normal((n, p)), 1)
    y = np.round(X @ rng.standard_normal(p) + rng.standard_normal(n), 1)
    lam = 0.05 * lambda_max(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nonzero = [fit_lasso(X, y, lam, max_sweeps=k).coef_std[2] != 0.0 for k in range(1, 7)]
    # Column 2 enters in sweep 1, is zero after sweeps 4 and 5, and is back after sweep 6.
    assert nonzero == [True, True, True, False, False, True]
    for k in (4, 5, 6, 8):
        _assert_fit_equals_the_reference(X, y, lam, max_sweeps=k)
    assert _assert_fit_equals_the_reference(X, y, lam).converged


@pytest.mark.parametrize("fraction", [0.5, 0.1, 0.01, 0.0])
def test_duplicate_and_affine_copy_columns_fit_as_the_reference(fraction):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((40, 4))
    X = np.column_stack([base, base[:, 0], 2.5 * base[:, 1] - 7.0, -base[:, 0] + 1.0, np.full(40, 3.0)])
    y = base @ np.array([1.5, -2.0, 0.7, 0.0]) + 0.2 * rng.standard_normal(40)
    _assert_fit_equals_the_reference(X, y, fraction * lambda_max(X, y), tol=1e-10, max_sweeps=3_000)


# ``objective_trace`` comes from the residual coordinate descent carries, not
# a fresh yc - Z b: within this share of f(0) = yc.yc/(2n) of the recomputed
# objective (observed on 2,400 degenerate fits: at most 9.1e-16).
_TRACE_RTOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(_degenerate_problems(), st.sampled_from([1.0, 0.3, 0.05, 1e-3, 1e-5, 0.0]))
def test_objective_trace_is_the_recomputed_objective_within_the_stated_bound(problem, fraction):
    X, y = problem
    lam = fraction * lambda_max(X, y)
    Z, yc, _ = _standardize(X, y)
    bound = _TRACE_RTOL * (yc @ yc) / (2.0 * len(yc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = fit_lasso(X, y, lam, tol=1e-12, max_sweeps=500)
        for k in sorted({min(k, full.n_sweeps) for k in (1, 2, 3, full.n_sweeps)}):
            model = fit_lasso(X, y, lam, tol=1e-12, max_sweeps=k)
            assert model.objective_trace == full.objective_trace[:k]
            assert abs(model.objective_value - l1_objective(Z, yc, model.coef_std, lam)) <= bound


def test_fit_keeps_the_negative_zero_of_a_coefficient_that_left_from_below():
    # Column 0 enters negative in the first sweep and leaves in a later one; its
    # soft threshold of a negative rho is -0.0, which the report prints as -0.0000.
    X = np.array([[2.0, -3.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [-1.0, 1.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    lam = 0.5 * lambda_max(X, y)
    model = fit_lasso(X, y, lam)
    assert model.coef_std[0] == 0.0 and np.signbit(model.coef_std[0])
    assert f"{model.coef[0]:.4f}" == "-0.0000"
    assert model.selected == (1,)
    assert _bits(model.coef_std) == _bits(reference_fit_lasso(X, y, lam).coef_std)


def test_cross_validation_input_validation():
    X, y = _random_problem(11)
    with pytest.raises(ValueError, match="non-finite"):
        cross_validate_lambda(np.where(X == X[0, 0], np.nan, X), y)
    with pytest.raises(ValueError, match="incompatible"):
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
    "exact_solution": lambda X, y: exact_solution(X, y, 0.1),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_lasso_entry_point_refuses_bad_inputs_with_one_message(entry):
    # lambda_max once returned nan for these (with numpy warnings for zero
    # rows) or failed inside numpy's matmul on a length mismatch.
    call = _ENTRY_POINTS[entry]
    X, y = _random_problem(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite values in inputs"):
            call(np.where(X == X[0, 0], np.inf, X), y)
        with pytest.raises(ValueError, match="non-finite values in inputs"):
            call(X, np.where(y == y[0], np.nan, y))
        with pytest.raises(ValueError, match=r"X shape \(\d+, \d+\) incompatible with y shape"):
            call(X, y[:-1])
        with pytest.raises(ValueError, match="incompatible with y shape"):
            call(X, y[:, None])
        with pytest.raises(ValueError, match="need at least 1 row"):
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
    lam, grid, mean_err, start = cross_validate_lambda(X, y)
    assert (lam, grid.tolist(), mean_err.tolist(), start.shape) == (0.0, [0.0], [0.0], (0,))


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
    # On the canonical design the lasso solution is unique: coordinate descent from zero keeps the
    # support that fit_selection keeps from the exact path.
    settings_ = LassoSettings(lambda_mode="fraction", lambda_value=fraction)
    model = fit_selection(X, y, settings_, seed=0)
    cold = fit_lasso(X[:, list(columns)], y, model.lam, tol=settings_.tol, max_sweeps=settings_.max_sweeps)
    assert model.selected == tuple(columns[j] for j in cold.selected)
    assert model.n_sweeps == 1


def test_a_dropped_copy_takes_up_no_direction_that_a_later_column_needs():
    # 8 rows: four independent columns, four copies, then a fifth independent column. One QR of
    # every column spends a direction on each copy's rounding and has none left for the fifth.
    rng = np.random.default_rng(0)
    first, fifth = rng.standard_normal((8, 4)), rng.standard_normal(8)
    copies = [first[:, 2], -first[:, 1], 3.0 * first[:, 2] + 1.0, first[:, 0] - first[:, 3]]
    X = np.column_stack([first, *copies, fifth])
    columns, _ = canonical_columns(X, rng.standard_normal(8))
    assert columns == (0, 1, 2, 3, 8)


def test_the_exact_solution_is_the_path_at_lambda_and_zero_from_lambda_max_on():
    X, y = _random_problem(14, n=40, p=6)
    Z, yc, _ = _standardize(X, y)
    G, c = Z.T @ Z / len(y), Z.T @ yc / len(y)
    lam_hi = lambda_max(X, y)
    for fraction in (0.5, 0.05, 0.0):
        lam = fraction * lam_hi
        expected = _lasso_path(G[None], c[None], np.array([lam]))[0, 0]
        for got in (exact_solution(X, y, lam), exact_solution(X, y, fraction, of_lambda_max=True)):
            assert got[0] == lam and _bits(got[1]) == _bits(expected)
        assert subgradient_violation(Z, yc, expected, lam) <= 1e-9
    for fraction in (1.0, 2.0):
        for got in (exact_solution(X, y, fraction * lam_hi), exact_solution(X, y, fraction, of_lambda_max=True)):
            assert got[0] == fraction * lam_hi and _bits(got[1]) == _bits(np.zeros(6))
    for lam, message in ((-1.0, "lambda must be >= 0"), (math.nan, "lambda must be >= 0"), (math.inf, "finite")):
        for of_lambda_max in (False, True):
            with pytest.raises(ValueError, match=message):
                exact_solution(X, y, lam, of_lambda_max=of_lambda_max)


@pytest.mark.parametrize("kwargs", [
    dict(n_folds=1), dict(n_folds=0), dict(grid_size=0), dict(grid_size=-3),
], ids=repr)
def test_cross_validation_rejects_too_few_folds_or_grid_points(kwargs):
    X, y = _random_problem(11)
    with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >="):
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

"""L1-penalized linear regression via cyclic coordinate descent.

The solver standardizes predictors to zero mean and unit variance, centers
the response, and minimizes

    f(b) = (1/(2n)) * sum_i (y_i - yhat_i)^2 + lambda * sum_j |b_j|

over the standardized coefficients, with an exact soft-threshold update per
coordinate. Reported coefficients are mapped back to the original scale
(fitted values are unchanged); optimality and objective values refer to the
standardized problem, which makes a single lambda meaningful across columns
with heterogeneous units.

Lambda is chosen by k-fold cross-validation without coordinate descent. The
solution of f is piecewise linear in lambda (Osborne, Presnell & Turlach
2000; Efron, Hastie, Johnstone & Tibshirani 2004), so each CV fold follows
the exact homotopy path from lambda_max down the grid: between consecutive
kinks, where a column enters or leaves the active set, the active
coefficients are affine in lambda, and every grid point on a segment is read
off that segment exactly. Each kink makes exactly one linear solve in the
active block of the Gram matrix ``G = Z'Z/n`` (an empty one while no column
is active), with the segment's intercept, its slope and the inactive columns
as its right-hand sides. The path has no convergence tolerance; coordinate
descent remains the final fit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import COLUMNS, MOVEMENTS


@dataclass(frozen=True)
class StandardizationParams:
    """Column means/stds of the predictors and the response mean.

    Zero-variance columns are recorded and excluded from penalization and
    selection; their coefficients are fixed at zero.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    zero_variance: tuple[int, ...]


@dataclass(frozen=True)
class LassoModel:
    """Fitted model; ``coef`` is on the original predictor scale."""

    intercept: float
    coef: np.ndarray
    coef_std: np.ndarray
    lam: float
    selected: tuple[int, ...]          # columns with a nonzero coefficient, in column order
    objective_value: float
    converged: bool
    n_sweeps: int
    objective_trace: tuple[float, ...]
    standardization: StandardizationParams


def _standardize(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, StandardizationParams]:
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    constant = x_std <= 1e-12 * np.maximum(1.0, np.abs(x_mean))
    zero_var = tuple(int(j) for j in np.flatnonzero(constant))
    safe_std = np.where(constant, 1.0, x_std)
    Z = np.where(constant, 0.0, (X - x_mean) / safe_std)
    y_mean = float(y.mean())
    return Z, y - y_mean, StandardizationParams(x_mean, safe_std, y_mean, zero_var)


def _objective(Z: np.ndarray, yc: np.ndarray, beta: np.ndarray, lam: float) -> float:
    r = yc - Z @ beta
    n = len(yc)
    return float(r.dot(r) / (2.0 * n) + lam * np.abs(beta).sum())


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty for which the all-zero coefficient vector is optimal."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Z, yc, _ = _standardize(X, y)
    return float(np.max(np.abs(Z.T @ yc)) / len(yc))


def fit_lasso(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
) -> LassoModel:
    """Fit by cyclic coordinate descent with closed-form soft-thresholding.

    Iterates full sweeps until the maximum standardized-coefficient change in
    a sweep drops below ``tol``. A run that exhausts ``max_sweeps`` is
    returned with ``converged=False`` and a warning, never silently.
    ``lam`` must be finite and >= 0, ``tol`` > 0 (NaN is rejected for both),
    and ``max_sweeps`` >= 1.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError(f"X shape {X.shape} incompatible with y length {len(y)}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == math.inf:
        raise ValueError("lambda must be finite, got inf")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in inputs")

    n, p = X.shape
    Z, yc, std = _standardize(X, y)
    active = np.ones(p, dtype=bool)
    active[list(std.zero_variance)] = False

    columns = [(j, Z[:, j]) for j in range(p) if active[j]]
    beta = [0.0] * p
    r = yc.copy()
    trace = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j, z in columns:
            old = beta[j]
            rho = float(z.dot(r)) / n + old
            # Soft threshold; a negative rho shrunk to zero gives -0.0.
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) if rho != 0.0 else 0.0
            if new != old:
                r -= (new - old) * z
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        trace.append(_objective(Z, yc, np.array(beta), lam))
        if max_delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"coordinate descent did not converge in {max_sweeps} sweeps "
            f"(last max coefficient change >= {tol:g})",
            RuntimeWarning,
        )

    beta = np.array(beta)
    coef = np.where(active, beta / std.x_std, 0.0)
    intercept = std.y_mean - float(coef @ std.x_mean)
    selected = tuple(int(j) for j in np.flatnonzero(beta != 0.0))
    return LassoModel(
        intercept=intercept,
        coef=coef,
        coef_std=beta,
        lam=lam,
        selected=selected,
        objective_value=trace[-1],
        converged=converged,
        n_sweeps=sweeps,
        objective_trace=tuple(trace),
        standardization=std,
    )


# A candidate column whose residual after projection onto the active columns
# keeps no more than this share of its own variance lies in their span (two
# source intersections make every intersection-level column an affine copy
# of the others): entering it would make the active Gram block singular, and
# its correlation then stays within the penalty on its own. Zero-variance
# columns, whose Gram row is zero, fail the same test and never enter.
_SPAN_RTOL = 1e-10

# Kinks are O(p) in practice; reaching this many means the path is cycling.
_MAX_KINKS = 10_000

# The two signs a correlation can reach the penalty with, as a column.
_SIGNS = np.array([[1.0], [-1.0]])


def _lasso_path(G: np.ndarray, c: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Standardized lasso solutions at each point of a descending ``grid``.

    ``G = Z'Z/n`` and ``c = Z'y/n`` for standardized predictors ``Z`` and a
    centered response. On the segment below a kink the active coefficients
    are ``beta_A(lam) = a - lam * b`` with ``G_AA a = c_A`` and
    ``G_AA b = s_A`` (the active signs), and each inactive correlation is
    affine in lam; the next kink is the largest lam at which an inactive
    correlation reaches the penalty or an active coefficient reaches zero.
    A kink makes one solve in ``G_AA``, for ``a``, ``b`` and the inactive
    columns' projections ``G_AA^-1 G_AI`` at once.
    A column that entered at the last kink cannot leave at the next one, nor
    can one that left re-enter with the same sign: in exact arithmetic
    neither happens, and rounding must not make the path cycle.
    """
    p = len(c)
    coefs = np.zeros((len(grid), p))
    lams = grid.tolist()
    diag = np.diagonal(G).copy()
    active: list[int] = []
    signs: list[float] = []
    is_active = np.zeros(p, dtype=bool)
    filled = 0
    entered = dropped = -1
    dropped_sign = 0.0
    for _ in range(_MAX_KINKS):
        A = np.array(active, dtype=np.intp)
        inactive = np.flatnonzero(~is_active)
        G_AI = G[A[:, None], inactive]
        G_II = diag[inactive]
        # One solve for a, b and G_AA^-1 G_AI (all empty while A is).
        sol = np.linalg.solve(G[A[:, None], A], np.column_stack([c[A], signs, G_AI]))
        a, b, proj = sol[:, 0], sol[:, 1], sol[:, 2:]
        # Inactive correlations along the segment: c_I - G_IA beta_A = alpha + lam * delta.
        alpha = c[inactive] - G_AI.T @ a
        delta = G_AI.T @ b
        schur = G_II - np.einsum("ij,ij->j", G_AI, proj)
        eligible = schur > _SPAN_RTOL * G_II

        # A correlation reaches +-lam where s * (alpha + lam * delta) = lam.
        # Row 0 holds s = +1, row 1 s = -1; of equal hits the +1 one is taken.
        best_in, best_j, best_s = 0.0, -1, 0.0
        if len(inactive):
            slope = 1.0 - _SIGNS * delta
            ok = eligible & (slope > 0.0)
            if dropped >= 0:
                ok[0 if dropped_sign > 0.0 else 1] &= inactive != dropped
            hits = np.divide(_SIGNS * alpha, slope, out=np.full(slope.shape, -np.inf), where=ok)
            row, k = divmod(int(hits.argmax()), len(inactive))
            if hits[row, k] > 0.0:
                best_in, best_j, best_s = float(hits[row, k]), int(inactive[k]), -1.0 if row else 1.0
        # An active coefficient reaches zero where a = lam * b, if it moves
        # toward zero as lam falls.
        best_out, best_k = 0.0, -1
        if active:
            shrinking = (b * np.asarray(signs) < 0.0) & (A != entered)
            hits = np.divide(a, b, out=np.full(len(active), -np.inf), where=shrinking)
            k = int(hits.argmax())
            if hits[k] > best_out:
                best_k, best_out = k, float(hits[k])

        kink = max(best_in, best_out)
        stop = filled
        while stop < len(lams) and lams[stop] >= kink:
            stop += 1
        if stop > filled:
            coefs[filled:stop, A] = a - grid[filled:stop, None] * b
        filled = stop
        if filled == len(lams) or kink <= 0.0:
            return coefs

        if best_in >= best_out:
            active.append(best_j)
            signs.append(best_s)
            is_active[best_j] = True
            entered, dropped = best_j, -1
        else:
            dropped, dropped_sign, entered = active.pop(best_k), signs.pop(best_k), -1
            is_active[dropped] = False
    raise RuntimeError(f"lasso path did not reach the end of the grid in {_MAX_KINKS} kinks")


def cross_validate_lambda(
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 5,
    grid_size: int = 50,
    lam_min_ratio: float = 1e-3,
    seed: int = 0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Pick lambda by k-fold CV over a descending logarithmic grid.

    Returns (best lambda, grid, mean validation MSE per grid point). Each
    fold's grid solutions are exact points of its lasso path on the
    standardized training rows; all grid points are scored on the
    validation rows at once. Ties resolve to the largest (sparsest) lambda.
    Fold assignment depends only on the seed, and fold results are
    independent of evaluation order. ``n_folds`` must be >= 2 and
    ``grid_size`` >= 1.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != len(y):
        raise ValueError(f"X shape {X.shape} incompatible with y length {len(y)}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in inputs")
    if not 0.0 < lam_min_ratio <= 1.0:
        raise ValueError("lam_min_ratio must lie in (0, 1]")
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    n = len(y)
    if n < n_folds:
        raise ValueError(f"need at least {n_folds} rows for {n_folds}-fold CV")
    lam_hi = lambda_max(X, y)
    if lam_hi == 0.0:
        return 0.0, np.zeros(1), np.zeros(1)
    grid = lam_hi * np.logspace(0.0, np.log10(lam_min_ratio), grid_size)
    order = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(order, n_folds)
    errors = np.zeros((n_folds, grid_size))
    for f, val_idx in enumerate(folds):
        train = np.ones(n, dtype=bool)
        train[val_idx] = False
        n_train = n - len(val_idx)
        if n_train < 2:
            raise ValueError("need at least 2 training rows per fold")
        Z, yc, std = _standardize(X[train], y[train])
        coefs = _lasso_path(Z.T @ Z / n_train, Z.T @ yc / n_train, grid)
        # Zero-variance columns have unit scale and zero coefficients here.
        Z_val = (X[val_idx] - std.x_mean) / std.x_std
        resid = (y[val_idx] - std.y_mean)[:, None] - Z_val @ coefs.T
        errors[f] = np.mean(resid * resid, axis=0)
    mean_err = errors.mean(axis=0)
    return float(grid[int(np.argmin(mean_err))]), grid, mean_err


def coefficient_report(models: dict[str, LassoModel], movements: tuple[str, ...] = MOVEMENTS) -> str:
    """Render per-movement coefficients as delimited text.

    One row per schema column in fixed order, one column per requested
    movement (default: left, through, right), values on the original
    predictor scale.
    """
    for movement in movements:
        if movement not in models:
            raise ValueError(f"missing model for movement {movement!r}")
    lines = ["variable," + ",".join(movements)]
    for j, col in enumerate(COLUMNS):
        cells = [f"{models[m].coef[j]:.4f}" for m in movements]
        lines.append(f"\"{col.description}\"," + ",".join(cells))
    return "\n".join(lines) + "\n"

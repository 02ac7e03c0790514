"""L1-penalized linear regression, read off the exact homotopy path.

The solver standardizes predictors to zero mean and unit variance, centers
the response, and minimizes

    f(b) = (1/(2n)) * sum_i (y_i - yhat_i)^2 + lambda * sum_j |b_j|

over the standardized coefficients. Reported coefficients are mapped back to
the original scale (fitted values are unchanged); the objective value
refers to the standardized problem, which makes a single lambda meaningful
across columns with heterogeneous units.

The solution of f is piecewise linear in lambda (Osborne, Presnell & Turlach
2000; Efron, Hastie, Johnstone & Tibshirani 2004), so the solver follows the
exact homotopy path from lambda_max down: between consecutive kinks, where a
column enters or leaves the active set, the active coefficients are affine
in lambda, and every wanted lambda is read off its segment exactly. The path
has no convergence tolerance and no sweep cap. ``fit_lasso`` follows one
path down to one lambda. ``cross_validate_lambda`` follows every k-fold
training set's path and the full data's in lockstep, one kink per unfinished
path per step, and each step makes one stacked linear solve in the paths'
active blocks of their Gram matrices ``G = Z'Z/n``, each padded to the
step's largest active set with unit rows and columns (all empty while no
column is active), with the segment's intercept, its slope and every column
as right-hand sides. The padding reorders the solve's arithmetic, so a path
in the stack matches the same path computed alone up to rounding. The full
data's path, read at the chosen lambda, is the fitted model in ``cv`` mode.

Standardization is one exact pass: the column sums, then the deviations,
which give both the std and the standardized design, with the sums and the
order of ``X.mean``/``X.std``, so every value is theirs bit for bit.

With few source intersections many columns are affine copies of others, and
the lasso solution is then not unique (Tibshirani 2013): which copy a
solver keeps is up to its rounding. ``canonical_columns`` drops each column
in the span of the intercept and of the columns kept before it, by the
path's Schur test, so that the pipeline's lasso runs on a design of full
column rank and its support does not depend on the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .schema import COLUMNS, MOVEMENTS, check_real, check_samples, count_problem, real_problem, refuse


@dataclass(frozen=True)
class StandardizationParams:
    """Column means/stds of the predictors and the response mean.

    ``excluded`` lists the columns left out of penalization and selection,
    whose coefficients are fixed at zero: the zero-variance columns, whose
    ``x_std`` is 1, and in a model that ``widen`` made, also the columns
    outside its fit. ``apply`` is the one place the predictors' scaling is
    written.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    excluded: tuple[int, ...]

    def apply(self, X: np.ndarray, columns=slice(None)) -> np.ndarray:
        """``X``'s ``columns`` (all by default) standardized: less their mean, over their std."""
        return (X[:, columns] - self.x_mean[columns]) / self.x_std[columns]


@dataclass(frozen=True)
class LassoModel:
    """Fitted model; ``coef`` is on the original predictor scale."""

    intercept: float
    coef: np.ndarray
    coef_std: np.ndarray
    lam: float
    selected: tuple[int, ...]          # columns with a nonzero coefficient, in column order
    objective_value: float             # f at coef_std, from the residual yc - Z coef_std
    standardization: StandardizationParams
    # Constants of the exact solver, kept because perfbench/tracer.py counts them on every fit.
    converged: bool = True
    n_sweeps: int = 0


def _standardize(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, StandardizationParams]:
    """Standardized ``X``, centered ``y`` and their parameters, in one pass over the deviations.

    The sums and their order are those of ``X.mean``/``X.std``/``y.mean``
    (``np.add.reduce`` over the rows), and the design is the deviations
    over the std, so every value, signed zeros included, is that of
    ``StandardizationParams.apply`` with constant columns zeroed.
    """
    n = len(X)
    x_mean = np.add.reduce(X, axis=0) / n
    Z = X - x_mean
    x_std = np.sqrt(np.add.reduce(Z * Z, axis=0) / n)
    constant = x_std <= 1e-12 * np.maximum(1.0, np.abs(x_mean))
    excluded = ()
    if constant.any():
        x_std[constant] = 1.0
        Z[:, constant] = 0.0
        excluded = tuple(np.flatnonzero(constant).tolist())
    Z /= x_std
    y_mean = float(np.add.reduce(y) / n)
    return Z, y - y_mean, StandardizationParams(x_mean, x_std, y_mean, excluded)


def _max_abs(c: np.ndarray) -> float:
    """lambda_max from the correlations ``c = Z'yc/n``: their largest magnitude, 0.0 with no columns."""
    return float(np.max(np.abs(c), initial=0.0))


def lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty for which the all-zero coefficient vector is optimal (0.0 with no columns).

    ``X`` and ``y`` must pass ``schema.check_samples``: finite, (n, p) and (n,), n >= 1.
    """
    Z, yc, _ = _standardize(*check_samples(X, y))
    return _max_abs(Z.T @ yc / len(yc))


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
    """Standardized lasso solutions at each point of a descending ``grid``, for paths stacked in lockstep.

    ``G`` (F, p, p) and ``c`` (F, p) stack each path's ``Z'Z/n`` and
    ``Z'y/n`` for standardized predictors ``Z`` and a centered response; the
    result is (F, len(grid), p), one path per row. On the segment below a
    kink the active coefficients are ``beta_A(lam) = a - lam * b`` with
    ``G_AA a = c_A`` and ``G_AA b = s_A`` (the active signs), and each
    inactive correlation is affine in lam; the next kink is the largest lam
    at which an inactive correlation reaches the penalty or an active
    coefficient reaches zero. Each step moves every
    unfinished path one kink with one stacked solve, for ``a``, ``b`` and
    every column's projection ``G_AA^-1 G_A.``: each path's active block, in
    entry order, is padded to the step's largest one with unit rows and
    columns and zero right-hand sides, so a padded slot solves to 0 and adds
    0 to every sum. Of equal entering hits the +1 sign wins, then the lowest
    column; of equal leaving hits, the earliest active position. A column
    that entered at the last kink cannot leave at the next one, nor can one
    that left re-enter with the same sign: in exact arithmetic neither
    happens, and rounding must not make a path cycle. The padding reorders
    the solve's and the sums' operations, so a path in a stack matches the
    same path run alone up to rounding.
    """
    F, p = c.shape
    # Columns 0..p-1 are the predictors, p..2p-1 the unit padding slots,
    # 2p holds c and 2p + 1 each active column's sign (0 on padding rows).
    ext = np.zeros((F, 2 * p, 2 * p + 2))
    ext[:, :p, :p] = G
    ext[:, p:, p:2 * p] = np.eye(p)
    ext[:, :p, 2 * p] = c
    diag = np.diagonal(G, axis1=1, axis2=2)
    span_floor = _SPAN_RTOL * diag
    # Per path: the gathered columns (predictors, c, signs), then its active
    # columns in entry order and a padding slot p + i at each free position
    # i; ``slots`` is a view of that tail, so entering and dropping edit both.
    layout = np.tile(np.r_[0:p, 2 * p, 2 * p + 1, p:2 * p], (F, 1))
    slots = layout[:, p + 2:]
    rows = np.arange(F)
    inactive = np.ones((F, p), dtype=bool)
    n_active = [0] * F
    entered, dropped, dropped_sign = [-1] * F, [-1] * F, [0.0] * F
    live = list(range(F))
    lam_lo = float(grid[-1])
    kinks, segments = [], []
    for _ in range(_MAX_KINKS):
        K = max(n_active)
        block = ext[rows[:, None, None], slots[:, :K, None], layout[:, None, :p + 2 + K]]
        rhs = block[:, :, :p + 2]
        sol = np.linalg.solve(block[:, :, p + 2:], rhs)
        ab = sol[:, :, p:]
        # Correlations along the segment: c - G_.A beta_A = alpha + lam * delta.
        corr = ab.transpose(0, 2, 1) @ rhs[:, :, :p]
        alpha, delta = c - corr[:, 0], corr[:, 1]
        schur = diag - np.einsum("fkj,fkj->fj", rhs[:, :, :p], sol[:, :, :p])
        eligible = inactive & (schur > span_floor)

        # A correlation reaches +-lam where s * (alpha + lam * delta) = lam.
        # Row 0 holds s = +1, row 1 s = -1.
        slope = 1.0 - _SIGNS * delta[:, None]
        ok = eligible[:, None] & (slope > 0.0)
        for f in live:
            if dropped[f] >= 0:
                ok[f, 0 if dropped_sign[f] > 0.0 else 1, dropped[f]] = False
        hits = np.divide(_SIGNS * alpha[:, None], slope, out=np.full(slope.shape, -np.inf), where=ok)
        hits = hits.reshape(F, 2 * p)
        picks = hits.argmax(axis=1)
        best_in = hits[rows, picks].tolist()
        picks = picks.tolist()
        # An active coefficient reaches zero where a = lam * b, if it moves
        # toward zero as lam falls.
        best_out = [0.0] * F
        if K:
            a, b = ab[:, :, 0], ab[:, :, 1]
            shrinking = (b * rhs[:, :, p + 1] < 0.0) & (slots[:, :K] != np.array(entered)[:, None])
            hits = np.divide(a, b, out=np.full(a.shape, -np.inf), where=shrinking)
            leaving = hits.argmax(axis=1)
            best_out = hits[rows, leaving].tolist()
            leaving = leaving.tolist()

        step = np.zeros((F, 2 * p, 2))
        step[rows[:, None], slots[:, :K]] = ab
        segments.append(step)
        kink_row = [math.inf] * F
        for f in list(live):
            enter = best_in[f] if best_in[f] > 0.0 else 0.0
            leave = best_out[f] if best_out[f] > 0.0 else 0.0
            kink_row[f] = kink = max(enter, leave)
            if kink <= lam_lo:    # every grid point is read off a segment: done
                live.remove(f)
            elif enter >= leave:
                j, row = picks[f] % p, picks[f] // p
                slots[f, n_active[f]] = j
                ext[f, j, 2 * p + 1] = -1.0 if row else 1.0
                inactive[f, j] = False
                n_active[f] += 1
                entered[f], dropped[f] = j, -1
            else:
                k, n = leaving[f], n_active[f]
                j = int(slots[f, k])
                slots[f, k:n - 1] = slots[f, k + 1:n]
                slots[f, n - 1] = p + n - 1
                inactive[f, j] = True
                n_active[f] -= 1
                dropped[f], dropped_sign[f], entered[f] = j, float(ext[f, j, 2 * p + 1]), -1
        kinks.append(kink_row)
        if not live:
            break
    else:
        raise RuntimeError(f"lasso path did not reach the end of the grid in {_MAX_KINKS} kinks")

    # A grid point lies on the segment of the first step whose kink is at or below it.
    first = (np.array(kinks)[:, :, None] <= grid).argmax(axis=0)
    ends = np.stack(segments)[first, rows[:, None], :p]
    return ends[..., 0] - grid[:, None] * ends[..., 1]


def canonical_columns(X: np.ndarray, y: np.ndarray) -> tuple[tuple[int, ...], StandardizationParams]:
    """The columns of ``X`` that the lasso can tell apart, and the standardization of (X, y).

    A column is kept when it is not constant and lies outside the span of
    the intercept and of the columns kept before it, by the path's Schur
    test on the Gram matrix ``G`` of the standardized (so centered) design:
    what the kept columns before it leave of its sum of squares,
    ``G_jj - G_jK G_KK^-1 G_Kj``, exceeds ``_SPAN_RTOL`` of ``G_jj``. One
    pass in column order builds the Cholesky factor of the kept columns'
    block of ``G`` and reads each column's test off it. On the kept columns,
    in column order, the design has full column rank and the lasso a unique
    solution; of each set of copies the earliest column is kept. ``X`` and
    ``y`` are checked as in ``lambda_max``.
    """
    Z, _, std = _standardize(*check_samples(X, y))
    G = Z.T @ Z
    # W[:k].T @ W[:k] is G's block on the k kept columns, and W[:k, j] is column j's projection on them.
    W = np.zeros_like(G)
    kept = []
    for j, own in enumerate(np.diagonal(G).tolist()):
        w = W[:len(kept), j]
        schur = own - float(w.dot(w))
        if schur > _SPAN_RTOL * own:    # constant columns are zero, 0 > 0 fails
            W[len(kept)] = (G[j] - w @ W[:len(kept)]) / math.sqrt(schur)
            kept.append(j)
    return tuple(kept), std


def _model(Z: np.ndarray, yc: np.ndarray, std: StandardizationParams, lam: float, beta: np.ndarray) -> LassoModel:
    """The model of the standardized solution ``beta`` at ``lam`` on ``Z``, ``yc``, standardized by ``std``."""
    r = yc - Z @ beta
    coef = beta / std.x_std
    return LassoModel(
        intercept=std.y_mean - float(coef @ std.x_mean),
        coef=coef,
        coef_std=beta,
        lam=lam,
        selected=tuple(np.flatnonzero(beta).tolist()),
        objective_value=float(r @ r) / (2.0 * len(yc)) + lam * math.fsum(np.abs(beta)),
        standardization=std,
    )


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float, *, of_lambda_max: bool = False) -> LassoModel:
    """The lasso solution at penalty ``lam``, read off its exact path.

    The penalty is ``lam``, or with ``of_lambda_max`` ``lam`` times
    ``lambda_max(X, y)``, and is the model's ``lam``; at or above
    lambda_max every coefficient is exactly zero. Zero-variance columns are
    excluded and keep coefficient 0. ``X`` (n, p) and ``y`` (n,) must pass
    ``schema.check_samples`` with n >= 2, and ``lam`` be a number in [0, inf) by
    ``schema.check_real``; anything else is a ValueError.
    """
    X, y = check_samples(X, y, least=2)
    check_real("lam", lam, 0, math.inf, "[)")
    Z, yc, std = _standardize(X, y)
    n = len(yc)
    c = Z.T @ yc / n
    lam_hi = _max_abs(c)
    if of_lambda_max:
        lam *= lam_hi
    if lam >= lam_hi:
        return _model(Z, yc, std, lam, np.zeros(X.shape[1]))
    return _model(Z, yc, std, lam, _lasso_path((Z.T @ Z / n)[None], c[None], np.array([lam]))[0, 0])


def widen(model: LassoModel, columns: tuple[int, ...], std: StandardizationParams) -> LassoModel:
    """``model``, fit on ``columns`` of a design standardized by ``std``, as a model of that whole design.

    The other columns get coefficient 0 and join ``excluded``; the fitted
    columns keep the fit's own standardization, and ``selected`` is given
    in the design's column numbers. ``std`` on the fitted columns looks
    like the same standardization, but it is not bit for bit: numpy's
    axis-0 sums depend on the array's width, so the means of the columns
    alone and of the whole design differ in their last bits (on every
    ``left`` fold of ``generate_synthetic_network(seed, 6, 1.3, 96)``,
    seeds 0-29; by 1.5e-15 relative at seed 3, target ``I00``; tested).
    The coefficients fit the fit's own scaling, so that is the one kept.
    """
    index = list(columns)
    coef, coef_std = np.zeros(len(std.x_mean)), np.zeros(len(std.x_mean))
    coef[index], coef_std[index] = model.coef, model.coef_std
    x_mean, x_std = std.x_mean.copy(), std.x_std.copy()
    x_mean[index], x_std[index] = model.standardization.x_mean, model.standardization.x_std
    kept = set(columns) - {columns[j] for j in model.standardization.excluded}
    return replace(
        model,
        coef=coef,
        coef_std=coef_std,
        selected=tuple(columns[j] for j in model.selected),
        standardization=StandardizationParams(
            x_mean, x_std, model.standardization.y_mean,
            tuple(j for j in range(len(x_mean)) if j not in kept),
        ),
    )


def cross_validate_lambda(
    X: np.ndarray,
    y: np.ndarray,
    n_folds: int = 5,
    grid_size: int = 50,
    lam_min_ratio: float = 1e-3,
    seed: int = 0,
) -> tuple[float, np.ndarray, np.ndarray, LassoModel]:
    """Pick lambda by k-fold CV over a descending logarithmic grid.

    Returns (best lambda, grid, mean validation MSE per grid point, the
    full data's ``LassoModel`` at the best lambda). Each fold's grid
    solutions are exact points of its lasso path on the standardized
    training rows; one ``_lasso_path`` call follows every fold's path and
    the full data's in lockstep, and each fold's grid points are scored on
    its validation rows at once. The model is the full data's path read at
    the best lambda, on the full data's standardization, which is
    ``fit_lasso``'s. Ties resolve to the largest (sparsest) lambda. Fold
    assignment depends only on the seed, and fold results are independent
    of evaluation order: permuting the folds permutes the paths bit for
    bit. With no column to penalize (lambda_max is 0) the result is (0.0,
    [0.0], [0.0], the all-zero model at 0.0). ``n_folds`` must be an integer
    >= 2 and ``grid_size`` one >= 1, neither a bool; anything else is a
    ValueError that names it. ``X`` and ``y`` are checked as in
    ``lambda_max``, and need at least ``n_folds`` rows.
    """
    X, y = check_samples(X, y)
    refuse((count_problem("n_folds", n_folds, 2), count_problem("grid_size", grid_size, 1),
            real_problem("lam_min_ratio", lam_min_ratio, 0, 1, "(]"), count_problem("seed", seed, 0)))
    n = len(y)
    if n < n_folds:
        raise ValueError(f"need at least {n_folds} rows for {n_folds}-fold CV")
    Z, yc, full = _standardize(X, y)
    c = Z.T @ yc / n
    lam_hi = _max_abs(c)
    if lam_hi == 0.0:
        return 0.0, np.zeros(1), np.zeros(1), _model(Z, yc, full, 0.0, np.zeros(X.shape[1]))
    grid = lam_hi * np.logspace(0.0, np.log10(lam_min_ratio), grid_size)
    order = np.random.default_rng(seed).permutation(n)
    # np.array_split's folds, sliced without its overhead: the first n % n_folds are one row longer.
    size, extra = divmod(n, n_folds)
    folds = [order[f * size + min(f, extra):(f + 1) * size + min(f + 1, extra)] for f in range(n_folds)]
    grams, corrs, scalings = [], [], []
    for val_idx in folds:
        train = np.ones(n, dtype=bool)
        train[val_idx] = False
        n_train = n - len(val_idx)
        if n_train < 2:
            raise ValueError("need at least 2 training rows per fold")
        Z_train, yc_train, std = _standardize(X[train], y[train])
        grams.append(Z_train.T @ Z_train / n_train)
        corrs.append(Z_train.T @ yc_train / n_train)
        scalings.append(std)
    # The full data's path runs last in the stack; only its solution at the chosen lambda is read.
    grams.append(Z.T @ Z / n)
    corrs.append(c)
    paths = _lasso_path(np.array(grams), np.array(corrs), grid)
    errors = np.zeros((n_folds, grid_size))
    for f, (val_idx, std, coefs) in enumerate(zip(folds, scalings, paths)):
        # Zero-variance columns have unit scale and zero coefficients here.
        resid = (y[val_idx] - std.y_mean)[:, None] - std.apply(X[val_idx]) @ coefs.T
        errors[f] = np.mean(resid * resid, axis=0)
    mean_err = errors.mean(axis=0)
    best = int(np.argmin(mean_err))
    lam = float(grid[best])
    return lam, grid, mean_err, _model(Z, yc, full, lam, paths[-1, best])


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

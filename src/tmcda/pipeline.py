"""End-to-end estimation pipeline and evaluation protocols.

For one target intersection the pipeline runs, in order: L1 feature
selection on the labeled source, metric learning over the selected
standardized features, nearest-source matching of target instances under the
learned metric, mixture-based augmentation of the matched set as the
pseudo-target, balanced-weight boosting, and prediction clamped at zero.
Each stage is one ``_run_stage`` call on the fold's memo, so
configs that agree on a stage's inputs share it. Leave-one-intersection-out
evaluation and parameter sweeps wrap that single-fold routine.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import boosting, gmm, itml, lasso
from .dataset import Dataset, DomainSplit, split_domains
from .schema import MOVEMENTS, check_count, count_problem, real_problem, refuse

# Mixture defaults per movement: (components, synthetic samples).
GMM_DEFAULTS = {"left": (2, 40), "through": (4, 100), "right": (5, 180)}

# A variant is the full method with some settings pinned: name -> (report label, {section: {field: value}}).
VARIANTS = {
    "full": ("ITMLGMM-GBBW", {}),
    "itml-gbbw": ("ITML-GBBW", {"gmm": {"n_samples": 0}}),
    "source-only": ("GB", {"boosting": {"alpha": 0.0}}),
}

LAMBDA_MODES = ("cv", "fixed", "fraction")

# Sweep grid axes: axis -> the settings section whose field it is. The one place an axis is named; the
# section's settings class decides which values it takes.
GRID_AXES = {"n_components": "gmm", "n_samples": "gmm", "alpha": "boosting"}

_STAGE_IDS = {"lasso": 0, "constraints": 1, "gmm": 2}


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage that raised it and the cause's type."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {type(cause).__name__}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class LassoSettings:
    lambda_mode: str = "cv"          # one of LAMBDA_MODES
    lambda_value: float = 0.01
    cv_folds: int = 5
    cv_grid_size: int = 50
    lam_min_ratio: float = 1e-3
    # Accepted and checked, but read by nothing: the fit is the exact path, which has no
    # tolerance or sweep cap. They go when the benchmark's workloads stop passing them.
    tol: float = 1e-8
    max_sweeps: int = 10_000

    def __post_init__(self):
        refuse((
            None if self.lambda_mode in LAMBDA_MODES else
            f"lambda_mode must be one of {', '.join(LAMBDA_MODES)}, got {self.lambda_mode!r}",
            real_problem("lambda_value", self.lambda_value, 0, math.inf, "[)"),
            count_problem("cv_folds", self.cv_folds, 2),
            count_problem("cv_grid_size", self.cv_grid_size, 1),
            real_problem("lam_min_ratio", self.lam_min_ratio, 0, 1, "(]"),
            real_problem("tol", self.tol, 0, math.inf, "(]"),
            count_problem("max_sweeps", self.max_sweeps, 1),
        ))


@dataclass(frozen=True)
class ItmlSettings:
    max_passes: int = 100
    max_constraints: int = 200
    n_candidates: int = 5_000

    def __post_init__(self):
        refuse((
            count_problem("max_passes", self.max_passes, 1),
            count_problem("max_constraints", self.max_constraints, 0),
            count_problem("n_candidates", self.n_candidates, 1),
        ))


@dataclass(frozen=True)
class GmmSettings:
    n_components: int | None = None  # None -> movement default
    n_samples: int | None = None
    n_init: int = 5

    def __post_init__(self):
        refuse((
            None if self.n_components is None else count_problem("n_components", self.n_components, 1),
            None if self.n_samples is None else count_problem("n_samples", self.n_samples, 0),
            count_problem("n_init", self.n_init, 1),
        ))


@dataclass(frozen=True)
class PipelineConfig:
    movement: str = "left"
    lasso: LassoSettings = field(default_factory=LassoSettings)
    itml: ItmlSettings = field(default_factory=ItmlSettings)
    gmm: GmmSettings = field(default_factory=GmmSettings)
    boosting: boosting.TrainConfig = field(default_factory=boosting.TrainConfig)
    master_seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        refuse((
            None if self.movement in MOVEMENTS else f"unknown movement {self.movement!r}",
            None if self.variant in VARIANTS else f"unknown variant {self.variant!r}",
            count_problem("master_seed", self.master_seed, 0),
        ))

    def as_run(self) -> "PipelineConfig":
        """The config the stages run: movement mixture defaults filled in, then the variant's pins; idempotent."""
        k, m = GMM_DEFAULTS[self.movement]
        config = _with(self, "gmm", n_components=k if self.gmm.n_components is None else self.gmm.n_components,
                       n_samples=m if self.gmm.n_samples is None else self.gmm.n_samples)
        for section, values in VARIANTS[self.variant][1].items():
            config = _with(config, section, **values)
        return config


def _with(config: PipelineConfig, section: str, **values) -> PipelineConfig:
    """``config`` with the given fields of one settings section replaced."""
    return replace(config, **{section: replace(getattr(config, section), **values)})


def stage_seed(master_seed: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the master seed."""
    seq = np.random.SeedSequence((master_seed, _STAGE_IDS[stage]))
    return int(seq.generate_state(1)[0])


def evaluate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    """Mean absolute error and root mean square error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot evaluate empty vectors")
    err = y_true - y_pred
    # Dividing by a power of two near the largest error is exact and leaves
    # every rounding as it was, except that squares of errors below ~1e-154
    # no longer underflow to 0 (nor above ~1e154 overflow): RMSE is 0 only
    # for equal inputs.
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(err)))[1]))
    err = err / scale
    mae = float(np.mean(np.abs(err)) * scale)
    rmse = float(np.sqrt(np.mean(err * err)) * scale)
    return mae, rmse


@dataclass(frozen=True)
class EstimationResult:
    """Fitted stage artifacts for one target, and its predictions.

    ``config`` is the as-run config (``PipelineConfig.as_run``): mixture
    defaults filled in and the variant's settings pinned. ``Zs``/``ys`` are
    the standardized selected source features and labels, ``Zt`` the same
    features of the target, and ``pseudo_X``/``pseudo_y`` the augmented
    pseudo-target set; the ITML (its metric is ``itml_result.A``), matching
    and mixture fields are None when ``config.boosting.alpha`` is 0. The
    penalty lasso chose is ``lasso_model.lam``. Within one leave-one-out fold, results whose configs
    agree on a stage's inputs share that stage's artifacts (the same
    objects), boosting and predictions included, so treat them as read-only.
    """

    target_id: str
    config: PipelineConfig
    selected_features: tuple[int, ...]
    lasso_model: lasso.LassoModel
    Zs: np.ndarray
    ys: np.ndarray
    Zt: np.ndarray
    itml_result: itml.ITMLResult | None = None
    constraints: itml.ConstraintSet | None = None
    matched_indices: np.ndarray | None = None
    gmm_model: gmm.GaussianMixture | None = None
    pseudo_X: np.ndarray | None = None
    pseudo_y: np.ndarray | None = None
    boosted_model: boosting.BoostedModel | None = None
    predictions: np.ndarray | None = None


def _run_stage(memo: dict, key: tuple, fn, *args):
    """Run stage ``key[0]`` once per key in ``memo``; later calls get its result or failure back.

    Every typed stage failure (DataError, MetricError, GMMError, LinAlgError)
    is a ValueError and is kept as a PipelineError; anything else is a
    coding bug and propagates.
    """
    if key not in memo:
        try:
            memo[key] = fn(*args)
        except ValueError as exc:
            memo[key] = PipelineError(key[0], exc)
    outcome = memo[key]
    if isinstance(outcome, PipelineError):
        raise outcome from outcome.cause
    return outcome


def fit_selection(X: np.ndarray, y: np.ndarray, settings: LassoSettings, seed: int) -> lasso.LassoModel:
    """The lasso fit of step 1, on the canonical design, at the penalty ``settings.lambda_mode`` gives.

    The canonical design is ``X``'s canonical columns
    (``lasso.canonical_columns``): the non-constant columns outside the span
    of the intercept and of the columns kept before them, on these rows. On
    it the lasso solution is unique, so the support does not depend on the
    solver. ``cv`` cross-validates over the settings' grid with fold
    assignment from ``seed`` and takes the full data's model from the CV;
    ``fraction`` scales that design's lambda_max by ``lambda_value``;
    ``fixed`` uses ``lambda_value`` as is. In every mode the fit is the
    exact path at the penalty. The model is returned for all of ``X``'s
    columns (``lasso.widen``), with 0 for the columns outside the canonical
    design, which join ``standardization.excluded``; the penalty is its
    ``lam``.
    """
    columns, std = lasso.canonical_columns(X, y)
    X_fit = X[:, list(columns)]
    if settings.lambda_mode == "cv":
        _, _, _, model = lasso.cross_validate_lambda(
            X_fit, y,
            n_folds=settings.cv_folds,
            grid_size=settings.cv_grid_size,
            lam_min_ratio=settings.lam_min_ratio,
            seed=seed,
        )
    else:
        model = lasso.fit_lasso(X_fit, y, settings.lambda_value, of_lambda_max=settings.lambda_mode == "fraction")
    return lasso.widen(model, columns, std)


def _select_features(X: np.ndarray, y: np.ndarray, settings: LassoSettings, seed: int):
    """Stage 1: the lasso fit and the indices of the features it keeps (the canonical columns if none)."""
    model = fit_selection(X, y, settings, seed)
    selected = model.selected
    if not selected:
        warnings.warn(
            "feature selection returned an empty set; falling back to the canonical columns",
            RuntimeWarning,
        )
        selected = tuple(j for j in range(X.shape[1]) if j not in model.standardization.excluded)
    return model, selected


def _learn_metric_and_match(Zs: np.ndarray, ys: np.ndarray, Zt: np.ndarray, settings: ItmlSettings, seed: int):
    """Stages 2-3: pair constraints, the ITML metric, and the nearest source row of each target row."""
    constraints = itml.build_constraints(
        Zs, ys, max_per_set=settings.max_constraints, n_candidates=settings.n_candidates, seed=seed,
    )
    result = itml.fit_itml(Zs, constraints, max_passes=settings.max_passes)
    matched = itml.match_source_to_target(result.A, Zt, Zs, ys)
    return constraints, result, matched


def _augment(matched_X: np.ndarray, matched_y: np.ndarray, settings: GmmSettings, seed: int):
    """Stage 4: the mixture-augmented matched set as the pseudo-target, and the mixture."""
    return gmm.augment(matched_X, matched_y, settings.n_components, settings.n_samples,
                       n_init=settings.n_init, seed=seed)


def _boost_and_predict(Zs, ys, Zt, pseudo_X, pseudo_y, train_cfg):
    """Stages 5-6: balanced-weight boosting, then the target predictions, clamped at zero (counts)."""
    model = boosting.fit_gbbw(Zs, ys, pseudo_X, pseudo_y, train_cfg)
    return model, np.maximum(boosting.predict(model, Zt), 0.0)


def _estimate(split: DomainSplit, config: PipelineConfig, memo: dict) -> EstimationResult:
    """Every stage of one fold, each looked up in ``memo`` before it runs.

    A stage's key holds its name, the settings it reads and the key of the
    stage before it, so two configs share a stage exactly when they agree on
    everything that stage and its predecessors read. Stage seeds depend only
    on (master seed, stage), so sharing changes no output.
    """
    config = config.as_run()
    X = split.source.X
    y = split.source.movement_labels(config.movement).astype(float)
    settings = config.lasso    # keyed on what fit_selection reads: tol and max_sweeps do not change the fit
    key = ("lasso", config.movement, settings.lambda_mode, settings.lambda_value, settings.cv_folds,
           settings.cv_grid_size, settings.lam_min_ratio, config.master_seed)
    model, selected = _run_stage(
        memo, key, _select_features, X, y, settings, stage_seed(config.master_seed, "lasso"),
    )
    Zs = model.standardization.apply(X, list(selected))
    Zt = model.standardization.apply(split.target_features.X, list(selected))

    adapted = {}
    pseudo_X, pseudo_y = np.empty((0, Zs.shape[1])), np.empty(0)
    if config.boosting.alpha > 0.0:  # at alpha 0 boosting ignores the pseudo-target, so its stages are skipped
        key = ("itml", key, config.itml)
        constraints, itml_result, (matched_X, matched_y, matched_idx) = _run_stage(
            memo, key, _learn_metric_and_match, Zs, y, Zt, config.itml,
            stage_seed(config.master_seed, "constraints"),
        )
        key = ("gmm", key, config.gmm)
        pseudo_X, pseudo_y, gmm_model = _run_stage(
            memo, key, _augment, matched_X, matched_y, config.gmm, stage_seed(config.master_seed, "gmm"),
        )
        adapted = dict(
            itml_result=itml_result, constraints=constraints,
            matched_indices=matched_idx, gmm_model=gmm_model, pseudo_X=pseudo_X, pseudo_y=pseudo_y,
        )

    boosted, preds = _run_stage(
        memo, ("boosting", key, config.boosting), _boost_and_predict, Zs, y, Zt, pseudo_X, pseudo_y, config.boosting,
    )
    return EstimationResult(
        split.target_id, config, selected, model, Zs, y, Zt,
        **adapted, boosted_model=boosted, predictions=preds,
    )


def run_estimation(split: DomainSplit, config: PipelineConfig) -> EstimationResult:
    """Run the full per-target pipeline; deterministic given the master seed."""
    return _estimate(split, config, {})


_METRIC_RTOL = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class FoldResult:
    intersection: str
    movement: str
    variant: str
    n: int
    mae: float | None
    rmse: float | None
    error: str | None = None
    error_type: type[Exception] | None = None  # the failed stage's cause, e.g. gmm.TooFewSamplesError

    def __post_init__(self):
        if self.error is None:
            if self.mae is None or self.rmse is None:
                raise ValueError("successful fold must carry metrics")
            # RMSE >= MAE holds exactly, but when every error has the same
            # magnitude the rounded RMSE can land a few ulps below the MAE.
            if not (self.mae >= 0.0 and self.rmse >= self.mae * (1.0 - _METRIC_RTOL)):
                raise ValueError(f"metric invariant violated: MAE={self.mae}, RMSE={self.rmse}")


@dataclass(frozen=True)
class EvaluationReport:
    """Per-(intersection, movement) metrics plus per-movement averages."""

    rows: tuple[FoldResult, ...]
    aggregates: dict

    def to_long_text(self) -> str:
        lines = ["variant,movement,intersection,n,mae,rmse,error"]
        for r in self.rows:
            mae = "" if r.mae is None else f"{r.mae:.4f}"
            rmse = "" if r.rmse is None else f"{r.rmse:.4f}"
            error = "" if r.error is None else '"' + r.error.replace('"', "'") + '"'
            lines.append(
                f"{r.variant},{r.movement},{r.intersection},{r.n},{mae},{rmse},{error}"
            )
        return "\n".join(lines) + "\n"


def _score_fold(split: DomainSplit, config: PipelineConfig, memo: dict) -> FoldResult:
    label = VARIANTS[config.variant][0]
    n = split.target_features.n
    try:
        result = _estimate(split, config, memo)
        y_true = split.held_out_labels.reveal_for_scoring(config.movement)
        mae, rmse = evaluate(y_true, result.predictions)
        return FoldResult(split.target_id, config.movement, label, n, mae, rmse)
    except PipelineError as exc:  # fold failure policy: record and continue
        return FoldResult(split.target_id, config.movement, label, n, None, None, str(exc), type(exc.cause))


def _run_fold(data: Dataset, target_id: str, configs: tuple[PipelineConfig, ...]) -> list[FoldResult]:
    """One row per config, in order; the configs share upstream stages through one memo per split."""
    split = split_domains(data, target_id)
    memo = {}
    return [_score_fold(split, config, memo) for config in configs]


def _score_folds(data: Dataset, configs: tuple[PipelineConfig, ...], jobs: int) -> list[list[FoldResult]]:
    """Per held-out intersection in sorted order, one row per config."""
    check_count("jobs", jobs, 1)
    if not configs:
        raise ValueError("no configs to run")
    ids = data.intersections()
    if len(ids) < 2:
        raise ValueError("leave-one-out needs at least 2 intersections")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor    # here, not at the top: it adds ~20 ms to importing tmcda

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_fold, [data] * len(ids), ids, [configs] * len(ids)))
    return [_run_fold(data, target_id, configs) for target_id in ids]


def _aggregate(rows: list[FoldResult]) -> tuple[tuple[FoldResult, ...], dict]:
    """The rows sorted for emit, and mean MAE/RMSE of the successful ones per (variant, movement)."""
    rows = sorted(rows, key=lambda r: (r.variant, r.movement, r.intersection))
    aggregates = {}
    for variant in sorted({r.variant for r in rows}):
        for movement in MOVEMENTS:
            ok = [r for r in rows if r.variant == variant and r.movement == movement and r.error is None]
            if ok:
                aggregates[(variant, movement)] = (
                    float(np.mean([r.mae for r in ok])),
                    float(np.mean([r.rmse for r in ok])),
                )
    return tuple(rows), aggregates


def leave_one_out(data: Dataset, configs, jobs: int = 1) -> EvaluationReport:
    """Score every intersection as the held-out target, once per config.

    Folds are independent; with ``jobs`` > 1 they run in separate processes
    (``jobs`` must be an integer >= 1). Within a fold, configs share every
    upstream stage whose settings they agree on. Rows are keyed and sorted
    on emit, so the report does not depend on scheduling order. A failed
    fold is recorded with its error, not dropped.
    """
    if isinstance(configs, PipelineConfig):
        configs = (configs,)
    configs = tuple(configs)
    chunks = _score_folds(data, configs, jobs)
    return EvaluationReport(*_aggregate([r for chunk in chunks for r in chunk]))


def render_summary(report: EvaluationReport) -> str:
    """Average-metric tables: one row per model variant, one column per movement."""
    variants = sorted({r.variant for r in report.rows})
    movements = [m for m in MOVEMENTS if any(r.movement == m for r in report.rows)]
    lines = []
    for metric_name, pick in (("MAE", 0), ("RMSE", 1)):
        lines.append("metric,model," + ",".join(movements))
        for variant in variants:
            cells = []
            for movement in movements:
                agg = report.aggregates.get((variant, movement))
                cells.append("" if agg is None else f"{agg[pick]:.4f}")
            lines.append(f"{metric_name},{variant}," + ",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepCell:
    values: dict                    # axis of GRID_AXES -> the value the cell's configs ran; None where they differ
    status: str                     # "ok" | "skipped" | "failed"
    aggregates: dict
    reason: str | None = None


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    def to_text(self) -> str:
        movements = sorted({m for c in self.cells for (_, m) in c.aggregates})
        lines = [",".join([*GRID_AXES, "status", *(f"{m}_{metric}" for m in movements for metric in ("mae", "rmse"))])]
        for c in self.cells:
            by_movement = {movement: value for (_, movement), value in c.aggregates.items()}
            row = [_grid_value_text(c.values[axis]) for axis in GRID_AXES] + [c.status]
            for m in movements:
                agg = by_movement.get(m)
                row += ["", ""] if agg is None else [f"{agg[0]:.4f}", f"{agg[1]:.4f}"]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _grid_value_text(value) -> str:
    """A cell's value as sweep.csv prints it: blank for None, an integer as ``str`` prints it, a real with ``:g``
    when that reads back as the value, else ``repr``: distinct values never print alike."""
    if value is None:
        return ""
    if isinstance(value, numbers.Integral):
        return str(value)
    value = float(value)    # numpy's repr names its type
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def grid_configs(base: PipelineConfig, grid: dict) -> list[PipelineConfig]:
    """``base`` at every cell of ``grid``: K-major, then M, then alpha.

    ``grid`` maps axes of ``GRID_AXES`` to value lists; a missing axis keeps
    the base's value. Each value goes to its section's settings class as
    given, so its type and range are that class's to decide (a count takes an
    integer, not 2.0 or True; None for a count is the movement default). An
    unknown axis, an empty list or a value the class refuses is a ValueError
    that names ``grid.<axis>``.
    """
    unknown = sorted(set(grid) - set(GRID_AXES))
    if unknown:
        raise ValueError(f"unknown grid axis(es): {unknown}")
    configs = [base]
    for axis, section in GRID_AXES.items():
        if axis not in grid:
            continue
        values = list(grid[axis])
        if not values:
            raise ValueError(f"grid.{axis}: no values")
        try:
            configs = [_with(cfg, section, **{axis: value}) for cfg in configs for value in values]
        except ValueError as exc:
            raise ValueError(f"grid.{axis}: {exc}") from None
    return configs


def ablation_sweep(data: Dataset, grid: dict, base_configs, jobs: int = 1) -> SweepResult:
    """Run leave-one-out over a grid of ``GRID_AXES`` axes (mixture size, synthetic samples, alpha).

    Each base config is expanded by ``grid_configs``, so cells come in its
    order, a grid value is taken or refused by its settings class, and a bad
    grid is a ValueError that names ``grid.<axis>``. All cells' configs run as one
    leave-one-out (one process pool with ``jobs`` > 1), so each fold computes
    an upstream stage once for every cell that shares its settings: alpha
    enters only boosting, and n_components/n_samples only the mixture. Each
    cell's rows are then aggregated exactly as ``leave_one_out`` would for
    that cell alone. A cell's ``values`` hold, for each axis, the as-run
    value of its configs, None where they differ (two movements' mixture
    defaults, say). A cell with a fold whose mixture fit is infeasible
    (``gmm.TooFewSamplesError``: more components than matched samples) is
    recorded as skipped; otherwise a cell whose every fold failed is recorded
    as failed, with its first row's error as the reason. Each base config
    runs its own movement (a cell keeps one result per movement); two that
    share one are a ValueError.
    """
    if isinstance(base_configs, PipelineConfig):
        base_configs = (base_configs,)
    base_configs = tuple(base_configs)
    movements = [base.movement for base in base_configs]
    shared = sorted({m for m in movements if movements.count(m) > 1})
    if shared:
        raise ValueError(f"base configs share movement(s) {shared}: a sweep cell keeps one result per movement")
    # cell-major: each cell's configs are adjacent, one per base config
    by_cell = zip(*(grid_configs(base, grid) for base in base_configs))
    configs = tuple(config.as_run() for cell in by_cell for config in cell)
    chunks = _score_folds(data, configs, jobs)

    width = len(base_configs)
    cells = []
    for c in range(len(configs) // width):
        cell = slice(c * width, (c + 1) * width)
        rows, aggregates = _aggregate([r for chunk in chunks for r in chunk[cell]])
        ran = {axis: {getattr(getattr(cfg, section), axis) for cfg in configs[cell]}
               for axis, section in GRID_AXES.items()}
        values = {axis: same.pop() if len(same) == 1 else None for axis, same in ran.items()}
        infeasible = [
            r for r in rows
            if r.error_type is not None and issubclass(r.error_type, gmm.TooFewSamplesError)
        ]
        if infeasible:
            cells.append(SweepCell(values, "skipped", {}, reason=infeasible[0].error))
        elif all(r.error is not None for r in rows):
            cells.append(SweepCell(values, "failed", {}, reason=rows[0].error))
        else:
            cells.append(SweepCell(values, "ok", aggregates))
    return SweepResult(tuple(cells))

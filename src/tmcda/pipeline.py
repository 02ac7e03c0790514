"""End-to-end estimation pipeline and evaluation protocols.

For one target intersection the pipeline runs, in order: L1 feature
selection on the labeled source, metric learning over the selected
standardized features, nearest-source matching of target instances under the
learned metric, mixture-based augmentation of the matched set, substitution
of the augmented set as the pseudo-target, balanced-weight boosting, and
prediction. Each stage is one ``_run_stage`` call on the fold's memo, so
configs that agree on a stage's inputs share it. Leave-one-intersection-out
evaluation and parameter sweeps wrap that single-fold routine.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import boosting, gmm, itml, lasso
from .dataset import Dataset, DomainSplit, split_domains
from .schema import MOVEMENTS

# Mixture defaults per movement: (components, synthetic samples).
GMM_DEFAULTS = {"left": (2, 40), "through": (4, 100), "right": (5, 180)}

VARIANTS = ("full", "itml-gbbw", "source-only")
VARIANT_LABELS = {"full": "ITMLGMM-GBBW", "itml-gbbw": "ITML-GBBW", "source-only": "GB"}

LAMBDA_MODES = ("cv", "fixed", "fraction")

_STAGE_IDS = {"lasso": 0, "constraints": 1, "gmm": 2}


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage that raised it and the cause's type."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {type(cause).__name__}: {cause}")
        self.stage = stage
        self.cause = cause


def _require(settings, checks) -> None:
    """Raise one ValueError naming every failed (holds, message) check.

    Checks are written as ``value > bound``, so a NaN fails them too.
    """
    problems = [message for holds, message in checks if not holds]
    if problems:
        raise ValueError(f"{type(settings).__name__}: " + "; ".join(problems))


@dataclass(frozen=True)
class LassoSettings:
    lambda_mode: str = "cv"          # one of LAMBDA_MODES
    lambda_value: float = 0.01
    cv_folds: int = 5
    cv_grid_size: int = 50
    lam_min_ratio: float = 1e-3
    tol: float = 1e-8
    max_sweeps: int = 10_000

    def __post_init__(self):
        _require(self, (
            (self.lambda_mode in LAMBDA_MODES,
             f"lambda_mode must be one of {', '.join(LAMBDA_MODES)}, got {self.lambda_mode!r}"),
            (self.lambda_value >= 0, f"lambda_value must be >= 0, got {self.lambda_value}"),
            (self.cv_folds >= 2, f"cv_folds must be >= 2, got {self.cv_folds}"),
            (self.cv_grid_size >= 1, f"cv_grid_size must be >= 1, got {self.cv_grid_size}"),
            (0 < self.lam_min_ratio <= 1, f"lam_min_ratio must lie in (0, 1], got {self.lam_min_ratio}"),
            (self.tol > 0, f"tol must be > 0, got {self.tol}"),
            (self.max_sweeps >= 1, f"max_sweeps must be >= 1, got {self.max_sweeps}"),
        ))


@dataclass(frozen=True)
class ItmlSettings:
    gamma: float = 1.0
    max_passes: int = 100
    tol: float = 1e-3
    percentile: float = 10.0
    max_constraints: int = 200
    n_candidates: int = 5_000

    def __post_init__(self):
        _require(self, (
            (self.gamma > 0, f"gamma must be > 0, got {self.gamma}"),
            (self.max_passes >= 1, f"max_passes must be >= 1, got {self.max_passes}"),
            (self.tol > 0, f"tol must be > 0, got {self.tol}"),
            (0 <= self.percentile <= 100, f"percentile must lie in [0, 100], got {self.percentile}"),
            (self.max_constraints >= 0, f"max_constraints must be >= 0, got {self.max_constraints}"),
            (self.n_candidates >= 1, f"n_candidates must be >= 1, got {self.n_candidates}"),
        ))


@dataclass(frozen=True)
class GmmSettings:
    n_components: int | None = None  # None -> movement default
    n_samples: int | None = None
    tol: float = 1e-6
    max_iter: int = 200
    n_init: int = 5
    ridge: float | None = None

    def __post_init__(self):
        _require(self, (
            (self.n_components is None or self.n_components >= 1,
             f"n_components must be >= 1, got {self.n_components}"),
            (self.n_samples is None or self.n_samples >= 0, f"n_samples must be >= 0, got {self.n_samples}"),
            (self.tol > 0, f"tol must be > 0, got {self.tol}"),
            (self.max_iter >= 1, f"max_iter must be >= 1, got {self.max_iter}"),
            (self.n_init >= 1, f"n_init must be >= 1, got {self.n_init}"),
            (self.ridge is None or self.ridge >= 0, f"ridge must be >= 0, got {self.ridge}"),
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
    clamp_predictions: bool = True
    round_predictions: bool = False
    exclude_matched_from_source: bool = False

    def __post_init__(self):
        if self.movement not in MOVEMENTS:
            raise ValueError(f"unknown movement {self.movement!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    def gmm_components(self) -> int:
        return self.gmm.n_components if self.gmm.n_components is not None else GMM_DEFAULTS[self.movement][0]

    def gmm_samples(self) -> int:
        if self.variant == "itml-gbbw":
            return 0
        return self.gmm.n_samples if self.gmm.n_samples is not None else GMM_DEFAULTS[self.movement][1]

    def effective_alpha(self) -> float:
        return 0.0 if self.variant == "source-only" else self.boosting.alpha

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


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


def substitute_target(
    matched_X: np.ndarray,
    matched_y: np.ndarray,
    augmented_X: np.ndarray,
    augmented_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Designate the augmented matched set as the pseudo-target training set."""
    if len(augmented_X) == 0:
        raise ValueError("augmented set is empty")
    if augmented_X.shape[1] != matched_X.shape[1]:
        raise ValueError("augmented features do not share the matched feature space")
    return np.asarray(augmented_X, dtype=float), np.asarray(augmented_y, dtype=float)


@dataclass(frozen=True)
class EstimationResult:
    """Fitted stage artifacts for one target, and its predictions.

    ``Zs``/``ys`` are the standardized selected source features and labels,
    ``Zt`` the same features of the target, and ``pseudo_X``/``pseudo_y`` the
    augmented pseudo-target set; the metric, matching and mixture fields are
    None when the effective alpha is 0. The penalty lasso chose is
    ``lasso_model.lam``. Within one leave-one-out fold, results whose configs
    agree on a stage's inputs share that stage's artifacts (the same
    objects), boosting and predictions included, so treat them as read-only.
    """

    target_id: str
    movement: str
    config: PipelineConfig
    selected_features: tuple[int, ...]
    lasso_model: lasso.LassoModel
    Zs: np.ndarray
    ys: np.ndarray
    Zt: np.ndarray
    metric: np.ndarray | None = None
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


def _selected_standardized(model: lasso.LassoModel, X: np.ndarray, selected) -> np.ndarray:
    std = model.standardization
    sel = list(selected)
    return (X[:, sel] - std.x_mean[sel]) / std.x_std[sel]


def select_lambda(X: np.ndarray, y: np.ndarray, settings: LassoSettings, seed: int) -> float:
    """The L1 penalty for the final fit under ``settings.lambda_mode``.

    ``cv`` cross-validates over the settings' grid with fold assignment from
    ``seed``; ``fraction`` scales lambda_max by ``lambda_value``; ``fixed``
    uses ``lambda_value`` as is.
    """
    if settings.lambda_mode == "cv":
        lam, _, _ = lasso.cross_validate_lambda(
            X, y,
            n_folds=settings.cv_folds,
            grid_size=settings.cv_grid_size,
            lam_min_ratio=settings.lam_min_ratio,
            seed=seed,
        )
        return lam
    if settings.lambda_mode == "fraction":
        return settings.lambda_value * lasso.lambda_max(X, y)
    return settings.lambda_value


def _select_features(X: np.ndarray, y: np.ndarray, settings: LassoSettings, seed: int):
    """Stage 1: the lasso fit (its penalty is ``model.lam``) and the indices of the features it keeps."""
    lam = select_lambda(X, y, settings, seed)
    model = lasso.fit_lasso(X, y, lam, tol=settings.tol, max_sweeps=settings.max_sweeps)
    selected = lasso.select_features(model)
    if not selected:
        warnings.warn(
            "feature selection returned an empty set; falling back to all features",
            RuntimeWarning,
        )
        selected = tuple(
            j for j in range(X.shape[1]) if j not in model.standardization.zero_variance
        )
    return model, selected


def _learn_metric_and_match(Zs: np.ndarray, ys: np.ndarray, Zt: np.ndarray, settings: ItmlSettings, seed: int):
    """Stages 2-3: pair constraints, the ITML metric, and the nearest source row of each target row."""
    constraints = itml.build_constraints(
        Zs, ys,
        itml.ConstraintConfig(
            percentile=settings.percentile,
            max_per_set=settings.max_constraints,
            n_candidates=settings.n_candidates,
            seed=seed,
        ),
    )
    result = itml.fit_itml(
        Zs, constraints, gamma=settings.gamma, max_passes=settings.max_passes, tol=settings.tol,
    )
    matched = itml.match_source_to_target(result.A, Zt, Zs, ys)
    return constraints, result, matched


def _augment(matched_X: np.ndarray, matched_y: np.ndarray, K: int, M: int, settings: GmmSettings, seed: int):
    """Stage 4: the mixture-augmented matched set as the pseudo-target, and the mixture."""
    aug_X, aug_y, model = gmm.augment(
        matched_X, matched_y, K, M,
        gmm.EMConfig(
            tol=settings.tol, max_iter=settings.max_iter, ridge=settings.ridge,
            n_init=settings.n_init, seed=seed,
        ),
    )
    pseudo_X, pseudo_y = substitute_target(matched_X, matched_y, aug_X, aug_y)
    return pseudo_X, pseudo_y, model


def _boost_and_predict(Zs, ys, Zt, pseudo_X, pseudo_y, matched_idx, train_cfg, exclude_matched, clamp, round_):
    """Stages 5-6: balanced-weight boosting, then the target predictions."""
    if exclude_matched and matched_idx is not None:
        Zs, ys = np.delete(Zs, matched_idx, axis=0), np.delete(ys, matched_idx)
        if len(ys) == 0:
            raise ValueError("excluding matched instances empties the source set")
    model = boosting.fit_gbbw(Zs, ys, pseudo_X, pseudo_y, train_cfg)
    preds = boosting.predict(model, Zt, clamp_at_zero=clamp)
    if round_:
        preds = np.rint(preds)
    return model, preds


def _estimate(split: DomainSplit, config: PipelineConfig, memo: dict) -> EstimationResult:
    """Every stage of one fold, each looked up in ``memo`` before it runs.

    A stage's key holds its name, the settings it reads and the key of the
    stage before it, so two configs share a stage exactly when they agree on
    everything that stage and its predecessors read. Stage seeds depend only
    on (master seed, stage), so sharing changes no output.
    """
    X = split.source.X
    y = split.source.movement_labels(config.movement).astype(float)
    key = ("lasso", config.movement, config.lasso, config.master_seed)
    model, selected = _run_stage(
        memo, key, _select_features, X, y, config.lasso, stage_seed(config.master_seed, "lasso"),
    )
    Zs = _selected_standardized(model, X, selected)
    Zt = _selected_standardized(model, split.target_features.X, selected)

    alpha = config.effective_alpha()
    matched_idx, adapted = None, {}
    pseudo_X, pseudo_y = np.empty((0, Zs.shape[1])), np.empty(0)
    if alpha > 0.0:  # at alpha 0 boosting ignores the pseudo-target, so its stages are skipped
        key = ("itml", key, config.itml)
        constraints, itml_result, (matched_X, matched_y, matched_idx) = _run_stage(
            memo, key, _learn_metric_and_match, Zs, y, Zt, config.itml,
            stage_seed(config.master_seed, "constraints"),
        )
        K, M = config.gmm_components(), config.gmm_samples()
        key = ("gmm", key, config.gmm, K, M)
        pseudo_X, pseudo_y, gmm_model = _run_stage(
            memo, key, _augment, matched_X, matched_y, K, M, config.gmm, stage_seed(config.master_seed, "gmm"),
        )
        adapted = dict(
            metric=itml_result.A, itml_result=itml_result, constraints=constraints,
            matched_indices=matched_idx, gmm_model=gmm_model, pseudo_X=pseudo_X, pseudo_y=pseudo_y,
        )

    train_cfg = replace(config.boosting, alpha=alpha)
    flags = (config.exclude_matched_from_source, config.clamp_predictions, config.round_predictions)
    boosted, preds = _run_stage(
        memo, ("boosting", key, train_cfg, *flags), _boost_and_predict,
        Zs, y, Zt, pseudo_X, pseudo_y, matched_idx, train_cfg, *flags,
    )
    return EstimationResult(
        split.target_id, config.movement, config, selected, model, Zs, y, Zt,
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
    config_digest: str
    master_seed: int

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
    label = VARIANT_LABELS[config.variant]
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
    ids = data.intersections()
    if len(ids) < 2:
        raise ValueError("leave-one-out needs at least 2 intersections")
    if jobs > 1:
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


def leave_one_out(
    data: Dataset,
    configs,
    jobs: int = 1,
) -> EvaluationReport:
    """Score every intersection as the held-out target, once per config.

    Folds are independent; with ``jobs`` > 1 they run in separate processes.
    Within a fold, configs share every upstream stage whose settings they
    agree on. Rows are keyed and sorted on emit, so the report does not
    depend on scheduling order. A failed fold is recorded with its error,
    not dropped.
    """
    if isinstance(configs, PipelineConfig):
        configs = (configs,)
    configs = tuple(configs)
    chunks = _score_folds(data, configs, jobs)
    rows, aggregates = _aggregate([r for chunk in chunks for r in chunk])
    digest = hashlib.sha256("|".join(c.digest() for c in configs).encode()).hexdigest()[:12]
    return EvaluationReport(rows, aggregates, digest, configs[0].master_seed)


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
    n_components: int
    n_samples: int
    alpha: float
    status: str                     # "ok" | "skipped" | "failed"
    aggregates: dict
    reason: str | None = None


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    def to_text(self) -> str:
        movements = sorted({m for c in self.cells for (_, m) in c.aggregates})
        header = ["n_components,n_samples,alpha,status"]
        for m in movements:
            header.append(f",{m}_mae,{m}_rmse")
        lines = ["".join(header)]
        for c in self.cells:
            by_movement = {movement: value for (_, movement), value in c.aggregates.items()}
            cells = [f"{c.n_components},{c.n_samples},{c.alpha:g},{c.status}"]
            for m in movements:
                agg = by_movement.get(m)
                cells.append(",," if agg is None else f",{agg[0]:.4f},{agg[1]:.4f}")
            lines.append("".join(cells))
        return "\n".join(lines) + "\n"


def _grid_config(base: PipelineConfig, k, m, a) -> PipelineConfig:
    cfg = base
    if k is not None or m is not None:
        cfg = replace(
            cfg,
            gmm=replace(
                cfg.gmm,
                n_components=int(k) if k is not None else cfg.gmm.n_components,
                n_samples=int(m) if m is not None else cfg.gmm.n_samples,
            ),
        )
    if a is not None:
        cfg = replace(cfg, boosting=replace(cfg.boosting, alpha=float(a)))
    return cfg


def ablation_sweep(
    data: Dataset,
    grid: dict,
    base_configs,
    jobs: int = 1,
) -> SweepResult:
    """Run leave-one-out over a (components, samples, alpha) grid.

    ``grid`` maps any of "n_components", "n_samples", "alpha" to value lists;
    missing axes use the base configs' values. All cells' configs run as one
    leave-one-out (one process pool with ``jobs`` > 1), so each fold computes
    an upstream stage once for every cell that shares its settings: alpha
    enters only boosting, and n_components/n_samples only the mixture. Each
    cell's rows are then aggregated exactly as ``leave_one_out`` would for
    that cell alone. A cell with a fold whose mixture fit is infeasible
    (``gmm.TooFewSamplesError``: more components than matched samples) is
    recorded as skipped; otherwise a cell whose every fold failed is recorded
    as failed, with its first row's error as the reason.
    """
    if isinstance(base_configs, PipelineConfig):
        base_configs = (base_configs,)
    base_configs = tuple(base_configs)
    points = [
        (k, m, a)
        for k in grid.get("n_components") or [None]
        for m in grid.get("n_samples") or [None]
        for a in grid.get("alpha") or [None]
    ]
    configs = tuple(_grid_config(base, *point) for point in points for base in base_configs)
    chunks = _score_folds(data, configs, jobs)

    width = len(base_configs)
    cells = []
    for c in range(len(points)):
        rows, aggregates = _aggregate([r for chunk in chunks for r in chunk[c * width:(c + 1) * width]])
        first = configs[c * width]
        cell_k, cell_m, cell_a = first.gmm_components(), first.gmm_samples(), first.effective_alpha()
        infeasible = [
            r for r in rows
            if r.error_type is not None and issubclass(r.error_type, gmm.TooFewSamplesError)
        ]
        if infeasible:
            cells.append(SweepCell(cell_k, cell_m, cell_a, "skipped", {}, reason=infeasible[0].error))
        elif all(r.error is not None for r in rows):
            cells.append(SweepCell(cell_k, cell_m, cell_a, "failed", {}, reason=rows[0].error))
        else:
            cells.append(SweepCell(cell_k, cell_m, cell_a, "ok", aggregates))
    return SweepResult(tuple(cells))

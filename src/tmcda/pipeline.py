"""End-to-end estimation pipeline and evaluation protocols.

For one target intersection the pipeline runs, in order: L1 feature
selection on the labeled source, metric learning over the selected
standardized features, nearest-source matching of target instances under the
learned metric, mixture-based augmentation of the matched set, substitution
of the augmented set as the pseudo-target, balanced-weight boosting, and
prediction. Leave-one-intersection-out evaluation and parameter sweeps
wrap that single-fold routine.
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

_STAGE_IDS = {"lasso": 0, "constraints": 1, "gmm": 2}


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class LassoSettings:
    lambda_mode: str = "cv"          # "cv" | "fixed" | "fraction"
    lambda_value: float = 0.01
    cv_folds: int = 5
    cv_grid_size: int = 50
    lam_min_ratio: float = 1e-3
    tol: float = 1e-8
    max_sweeps: int = 10_000


@dataclass(frozen=True)
class ItmlSettings:
    gamma: float = 1.0
    max_passes: int = 100
    tol: float = 1e-3
    percentile: float = 10.0
    max_constraints: int = 200
    n_candidates: int = 5_000


@dataclass(frozen=True)
class GmmSettings:
    n_components: int | None = None  # None -> movement default
    n_samples: int | None = None
    tol: float = 1e-6
    max_iter: int = 200
    n_init: int = 5
    ridge: float | None = None


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
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
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
    """Fitted stage artifacts for one target, then its predictions.

    ``_prepare_stages`` fills everything upstream of boosting, which alone
    depends on alpha; ``_finish_estimation`` adds the booster and the
    predictions. ``Zs``/``ys`` are the standardized selected source features
    and labels, ``Zt`` the same features of the target, and
    ``pseudo_X``/``pseudo_y`` the augmented pseudo-target set (None when
    alpha is 0).
    """

    target_id: str
    movement: str
    config: PipelineConfig
    selected_features: tuple[int, ...]
    lasso_model: lasso.LassoModel
    lasso_lambda: float
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


def _run_stage(stage: str, fn, *args, **kwargs):
    # Every typed stage failure (DataError, MetricError, GMMError, LinAlgError)
    # is a ValueError; anything else is a coding bug and propagates.
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise PipelineError(stage, exc) from exc


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
    if settings.lambda_mode == "fixed":
        return settings.lambda_value
    raise ValueError(f"unknown lambda_mode {settings.lambda_mode!r}")


def _prepare_stages(split: DomainSplit, config: PipelineConfig) -> EstimationResult:
    if split.source.labels is None:
        raise PipelineError("lasso", ValueError("source dataset carries no labels"))
    X = split.source.X
    y = split.source.movement_labels(config.movement).astype(float)

    ls = config.lasso
    lam = _run_stage("lasso", select_lambda, X, y, ls, stage_seed(config.master_seed, "lasso"))
    model = _run_stage("lasso", lasso.fit_lasso, X, y, lam, tol=ls.tol, max_sweeps=ls.max_sweeps)

    selected = lasso.select_features(model)
    if not selected:
        warnings.warn(
            "feature selection returned an empty set; falling back to all features",
            RuntimeWarning,
        )
        selected = tuple(
            j for j in range(X.shape[1]) if j not in model.standardization.zero_variance
        )

    Zs = _selected_standardized(model, X, selected)
    Zt = _selected_standardized(model, split.target_features.X, selected)
    upstream = EstimationResult(split.target_id, config.movement, config, selected, model, lam, Zs, y, Zt)

    if config.effective_alpha() == 0.0:
        # Boosting will ignore the pseudo-target entirely; skip its stages.
        return upstream

    it = config.itml
    constraints = _run_stage(
        "itml",
        itml.build_constraints,
        Zs, y,
        itml.ConstraintConfig(
            percentile=it.percentile,
            max_per_set=it.max_constraints,
            n_candidates=it.n_candidates,
            seed=stage_seed(config.master_seed, "constraints"),
        ),
    )
    itml_result = _run_stage(
        "itml", itml.fit_itml, Zs, constraints,
        gamma=it.gamma, max_passes=it.max_passes, tol=it.tol,
    )
    matched_X, matched_y, matched_idx = _run_stage(
        "itml", itml.match_source_to_target, itml_result.A, Zt, Zs, y,
    )

    gs = config.gmm
    aug_X, aug_y, gmm_model = _run_stage(
        "gmm",
        gmm.augment,
        matched_X, matched_y,
        config.gmm_components(),
        config.gmm_samples(),
        gmm.EMConfig(
            tol=gs.tol, max_iter=gs.max_iter, ridge=gs.ridge, n_init=gs.n_init,
            seed=stage_seed(config.master_seed, "gmm"),
        ),
    )
    pseudo_X, pseudo_y = _run_stage("gmm", substitute_target, matched_X, matched_y, aug_X, aug_y)
    return replace(
        upstream,
        metric=itml_result.A, itml_result=itml_result, constraints=constraints,
        matched_indices=matched_idx, gmm_model=gmm_model, pseudo_X=pseudo_X, pseudo_y=pseudo_y,
    )


def _finish_estimation(split: DomainSplit, config: PipelineConfig, stages: EstimationResult) -> EstimationResult:
    alpha = config.effective_alpha()
    train_cfg = replace(config.boosting, alpha=alpha)
    Zs, ys = stages.Zs, stages.ys
    if config.exclude_matched_from_source and stages.matched_indices is not None:
        keep = np.ones(len(ys), dtype=bool)
        keep[np.unique(stages.matched_indices)] = False
        if not keep.any():
            raise PipelineError(
                "boosting", ValueError("excluding matched instances empties the source set")
            )
        Zs, ys = Zs[keep], ys[keep]
    if alpha == 0.0:
        pseudo_X = np.empty((0, Zs.shape[1]))
        pseudo_y = np.empty(0)
    else:
        pseudo_X, pseudo_y = stages.pseudo_X, stages.pseudo_y
    model = _run_stage("boosting", boosting.fit_gbbw, Zs, ys, pseudo_X, pseudo_y, train_cfg)
    preds = boosting.predict(model, stages.Zt, clamp_at_zero=config.clamp_predictions)
    if config.round_predictions:
        preds = np.rint(preds)
    return replace(stages, boosted_model=model, predictions=preds, config=config)


def run_estimation(split: DomainSplit, config: PipelineConfig) -> EstimationResult:
    """Run the full per-target pipeline; deterministic given the master seed."""
    return _finish_estimation(split, config, _prepare_stages(split, config))


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


def _score_fold(split: DomainSplit, config: PipelineConfig) -> FoldResult:
    label = VARIANT_LABELS[config.variant]
    n = split.target_features.n
    try:
        result = run_estimation(split, config)
        y_true = split.held_out_labels.reveal_for_scoring(config.movement)
        mae, rmse = evaluate(y_true, result.predictions)
        return FoldResult(split.target_id, config.movement, label, n, mae, rmse)
    except PipelineError as exc:  # fold failure policy: record and continue
        return FoldResult(split.target_id, config.movement, label, n, None, None, str(exc))


def _run_fold(data: Dataset, target_id: str, configs: tuple[PipelineConfig, ...]) -> list[FoldResult]:
    split = split_domains(data, target_id)
    return [_score_fold(split, config) for config in configs]


def leave_one_out(
    data: Dataset,
    configs,
    jobs: int = 1,
) -> EvaluationReport:
    """Score every intersection as the held-out target, once per config.

    Folds are independent; with ``jobs`` > 1 they run in separate processes.
    Rows are keyed and sorted on emit, so the report does not depend on
    scheduling order. A failed fold is recorded with its error, not dropped.
    """
    if isinstance(configs, PipelineConfig):
        configs = (configs,)
    configs = tuple(configs)
    ids = data.intersections()
    if len(ids) < 2:
        raise ValueError("leave-one-out needs at least 2 intersections")

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_run_fold, [data] * len(ids), ids, [configs] * len(ids)))
    else:
        chunks = [_run_fold(data, target_id, configs) for target_id in ids]
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=lambda r: (r.variant, r.movement, r.intersection))

    aggregates = {}
    for variant in sorted({r.variant for r in rows}):
        for movement in MOVEMENTS:
            ok = [r for r in rows if r.variant == variant and r.movement == movement and r.error is None]
            if ok:
                aggregates[(variant, movement)] = (
                    float(np.mean([r.mae for r in ok])),
                    float(np.mean([r.rmse for r in ok])),
                )
    digest = hashlib.sha256("|".join(c.digest() for c in configs).encode()).hexdigest()[:12]
    return EvaluationReport(tuple(rows), aggregates, digest, configs[0].master_seed)


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
    status: str                     # "ok" | "skipped"
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


def ablation_sweep(
    data: Dataset,
    grid: dict,
    base_configs,
    jobs: int = 1,
) -> SweepResult:
    """Run leave-one-out over a (components, samples, alpha) grid.

    ``grid`` maps any of "n_components", "n_samples", "alpha" to value lists;
    missing axes use the base configs' values. A grid point whose mixture fit
    is infeasible in some fold (more components than matched samples) is
    recorded as skipped.
    """
    if isinstance(base_configs, PipelineConfig):
        base_configs = (base_configs,)
    base_configs = tuple(base_configs)
    k_list = list(grid.get("n_components") or [None])
    m_list = list(grid.get("n_samples") or [None])
    a_list = list(grid.get("alpha") or [None])

    cells = []
    for k in k_list:
        for m in m_list:
            for a in a_list:
                configs = []
                for base in base_configs:
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
                    configs.append(cfg)
                report = leave_one_out(data, configs, jobs=jobs)
                infeasible = [
                    r for r in report.rows
                    if r.error is not None and "need at least K" in r.error
                ]
                cell_k = configs[0].gmm_components()
                cell_m = configs[0].gmm_samples()
                cell_a = configs[0].effective_alpha()
                if infeasible:
                    cells.append(SweepCell(cell_k, cell_m, cell_a, "skipped", {},
                                           reason=infeasible[0].error))
                else:
                    cells.append(SweepCell(cell_k, cell_m, cell_a, "ok", report.aggregates))
    return SweepResult(tuple(cells))

"""The benchmark's workloads: inputs made from a seed, and one top-level call per input.

Input i of a run is a synthetic network generated from (seed, i); the
workload turns it into one call of a public entry point
(``pipeline.leave_one_out``, ``pipeline.ablation_sweep`` or ``cli.main``).
A call returns an ``Outcome``: the report text the program produced, which
must repeat byte for byte, and one row per scored (target or grid cell,
movement, config) with the MAE of a constant predictor on the same rows as a
floor the model has to beat.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from tmcda import cli
from tmcda.boosting import TrainConfig
from tmcda.dataset import write_table
from tmcda.pipeline import (
    GmmSettings,
    ItmlSettings,
    LassoSettings,
    PipelineConfig,
    ablation_sweep,
    leave_one_out,
    render_summary,
)
from tmcda.schema import MOVEMENTS
from tmcda.synth import generate_synthetic_network

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class Row:
    mae: float | None       # None: the fold or cell failed or was skipped
    rmse: float | None
    baseline_mae: float     # constant source-mean predictor on the same rows


@dataclass(frozen=True)
class Outcome:
    text: str
    rows: tuple[Row, ...]
    exit_code: int = 0


@dataclass(frozen=True)
class Shape:
    n_intersections: int
    n_intervals: int
    shift: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    smoke_shape: Shape
    call_s: float           # typical seconds per call on a 2-vCPU x86_64 VM; sets the input count
    prepare: Callable       # (data, master seed, index, workdir, smoke) -> zero-argument call returning an Outcome

    def prepare_input(self, seed: int, index: int, work: Path, smoke: bool):
        """The call for input ``index``: its own network and master seed, made from (seed, index).

        Inputs share no randomness, so the cost of one run's inputs does not
        move together with its seed.
        """
        input_seed = int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
        shape = self.smoke_shape if smoke else self.shape
        data = generate_synthetic_network(input_seed, shape.n_intersections, shape.shift, shape.n_intervals)
        workdir = work / f"input{index}"
        workdir.mkdir(parents=True, exist_ok=True)
        return self.prepare(data, input_seed, index, workdir, smoke)


def constant_baseline(data) -> dict[tuple[str, str], float]:
    """MAE of predicting the source mean count, per (held-out target, movement)."""
    ids = np.array([str(s) for s in data.intersection_ids])
    out = {}
    for target in data.intersections():
        held = ids == target
        for m, movement in enumerate(MOVEMENTS):
            y = data.labels[:, m].astype(float)
            out[(target, movement)] = float(np.mean(np.abs(y[held] - y[~held].mean())))
    return out


# Tiny settings for the smoke mode: same code paths, a fraction of the work.
SMOKE_SETTINGS = {
    "lasso.cv_folds": 3, "lasso.cv_grid_size": 4, "lasso.lam_min_ratio": 0.1,
    "itml.max_passes": 3, "itml.max_constraints": 20, "itml.n_candidates": 200,
    "gmm.n_components": 2, "gmm.n_samples": 10, "gmm.n_init": 1,
    "boosting.n_stages": 4,
}


def _smoke(config: PipelineConfig) -> PipelineConfig:
    for key, value in SMOKE_SETTINGS.items():
        section, name = key.split(".")
        config = replace(config, **{section: replace(getattr(config, section), **{name: value})})
    return config


def _loo_rows(report, baseline) -> tuple[Row, ...]:
    return tuple(
        Row(r.mae, r.rmse, baseline[(r.intersection, r.movement)]) for r in report.rows
    )


def loo_cv_config(seed: int, movement: str) -> PipelineConfig:
    """Lasso CV over the default 5 folds x 50 points, down to a tenth of lambda_max.

    Variant ``source-only`` (lasso, then boosting on the source alone) with
    the criterion 6/7 boosting settings, so CV dominates. With variant
    ``full``, ITML aborts on the rare fold where CV keeps only categorical
    features: 5% or more of the sampled pairs then lie at distance 0, so the
    similarity threshold u (their 5th percentile) is 0 and the first
    projection divides by it.
    """
    light = alpha_sweep_config(seed)
    return replace(light, movement=movement, variant="source-only", lasso=LassoSettings(lam_min_ratio=0.1))


def prepare_loo_cv(data, seed: int, index: int, workdir: Path, smoke: bool):
    """Input i holds out each intersection for movement i mod 3, so runs cover all three."""
    configs = [loo_cv_config(seed, MOVEMENTS[index % len(MOVEMENTS)])]
    if smoke:
        configs = [_smoke(c) for c in configs]
    baseline = constant_baseline(data)

    def call() -> Outcome:
        report = leave_one_out(data, configs, jobs=1)
        return Outcome(render_summary(report) + report.to_long_text(), _loo_rows(report, baseline))

    return call


def alpha_sweep_config(seed: int) -> PipelineConfig:
    """The acceptance suite's criterion 6/7 configuration."""
    return PipelineConfig(
        movement="left",
        lasso=LassoSettings(lambda_mode="fraction", lambda_value=0.06, tol=1e-7, max_sweeps=2_000),
        itml=ItmlSettings(max_passes=30, max_constraints=100, n_candidates=3_000),
        gmm=GmmSettings(n_init=2),
        boosting=TrainConfig(n_stages=60, max_depth=1, shrinkage=0.3, alpha=0.5),
        master_seed=seed,
        variant="full",
    )


def prepare_alpha_sweep(data, seed: int, index: int, workdir: Path, smoke: bool):
    base = alpha_sweep_config(seed)
    if smoke:
        base = _smoke(base)
    baseline = constant_baseline(data)
    floor = float(np.mean([baseline[(t, base.movement)] for t in data.intersections()]))

    def call() -> Outcome:
        result = ablation_sweep(data, {"alpha": list(ALPHAS)}, base, jobs=1)
        rows = []
        for cell in result.cells:
            agg = cell.aggregates.get(("ITMLGMM-GBBW", base.movement)) if cell.status == "ok" else None
            rows.append(Row(*(agg if agg is not None else (None, None)), floor))
        return Outcome(result.to_text(), tuple(rows))

    return call


def _read_folds(path: Path, baseline) -> tuple[Row, ...]:
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            scored = rec["error"] == ""
            rows.append(Row(
                float(rec["mae"]) if scored else None,
                float(rec["rmse"]) if scored else None,
                baseline[(rec["intersection"], rec["movement"])],
            ))
    return tuple(rows)


def prepare_loo_variants(data, seed: int, index: int, workdir: Path, smoke: bool):
    data_path = workdir / "network.csv"
    config_path = workdir / "run.cfg"
    out_dir = workdir / "out"
    write_table(data, data_path)
    lines = [f"seed = {seed}", "lasso.lambda_mode = fraction", "lasso.lambda_value = 0.06"]
    if smoke:
        lines += [f"{key} = {value}" for key, value in SMOKE_SETTINGS.items()]
    config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    baseline = constant_baseline(data)
    argv = ["loo", "--data", str(data_path), "--config", str(config_path),
            "--out-dir", str(out_dir), "--variant", "all", "--movement", "left", "--jobs", "1"]
    summary, folds = out_dir / "summary.csv", out_dir / "folds.csv"

    def call() -> Outcome:
        for path in (summary, folds):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK or not (summary.is_file() and folds.is_file()):
            return Outcome("", (), exit_code=code if code != cli.EXIT_OK else -1)
        return Outcome(summary.read_text(encoding="utf-8") + folds.read_text(encoding="utf-8"),
                       _read_folds(folds, baseline), code)

    return call


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "loo-cv",
            "leave_one_out, source-only, movements in turn: lasso CV (5 folds x 50 lambdas) is most of the work, no ITML, no two configs share any",
            Shape(n_intersections=2, n_intervals=64, shift=1.0),
            Shape(n_intersections=3, n_intervals=16, shift=1.0),
            1.1,
            prepare_loo_cv,
        ),
        Workload(
            "loo-variants",
            "cli loo, all variants, movement left: CSV ingest, 200 depth-3 trees per config, ITML shared by two variants",
            Shape(n_intersections=2, n_intervals=32, shift=1.0),
            Shape(n_intersections=3, n_intervals=16, shift=1.0),
            2.6,
            prepare_loo_variants,
        ),
        Workload(
            "alpha-sweep",
            "ablation_sweep over 5 alphas: identical ITML redone for each alpha, 60 stumps, no lasso CV",
            Shape(n_intersections=3, n_intervals=64, shift=1.3),
            Shape(n_intersections=3, n_intervals=16, shift=1.3),
            2.2,
            prepare_alpha_sweep,
        ),
    )
}


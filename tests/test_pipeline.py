import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcda import boosting, gmm, itml, lasso, pipeline
from tmcda.boosting import TrainConfig
from tmcda.dataset import DataError, Dataset, DomainSplit, split_domains
from tmcda.lasso import fit_lasso
from tmcda.itml import build_constraints
from tmcda.pipeline import (
    _METRIC_RTOL,
    GmmSettings,
    ItmlSettings,
    LassoSettings,
    FoldResult,
    PipelineConfig,
    PipelineError,
    SweepCell,
    SweepResult,
    VARIANTS,
    ablation_sweep,
    evaluate,
    leave_one_out,
    render_summary,
    run_estimation,
    stage_seed,
)
from tmcda.schema import COLUMNS
from tmcda.synth import generate_synthetic_network


def _fast_cfg(movement="left", variant="full", seed=0, **boost_kw):
    boost = dict(n_stages=8, max_depth=2, shrinkage=0.3, alpha=0.5)
    boost.update(boost_kw)
    return PipelineConfig(
        movement=movement,
        lasso=LassoSettings(lambda_mode="fraction", lambda_value=0.05, tol=1e-6, max_sweeps=500),
        itml=ItmlSettings(max_passes=10, max_constraints=40, n_candidates=800),
        gmm=GmmSettings(n_components=2, n_samples=10, n_init=1),
        boosting=TrainConfig(**boost),
        master_seed=seed,
        variant=variant,
    )


@pytest.fixture(scope="module")
def data3():
    return generate_synthetic_network(seed=21, n_intersections=3, shift_strength=1.0, n_intervals=16)


# ----------------------------------------------------------------------- metrics

def test_perfect_prediction_scores_zero():
    y = np.array([3.0, 1.0, 4.0])
    assert evaluate(y, y) == (0.0, 0.0)


def test_hand_computed_mae_rmse():
    mae, rmse = evaluate(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    assert mae == pytest.approx(1.5)
    assert rmse == pytest.approx(np.sqrt(2.5))


def test_rmse_at_least_mae_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = rng.integers(1, 30)
        mae, rmse = evaluate(rng.standard_normal(n), rng.standard_normal(n))
        assert rmse >= mae >= 0.0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_rmse_mae_inequality_property(a, b):
    n = min(len(a), len(b))
    mae, rmse = evaluate(np.array(a[:n]), np.array(b[:n]))
    assert rmse >= mae - 1e-9


# Magnitudes 0 or >= 1e-300: a difference of two such values is 0 or at least
# 2^-1049, so the exact MAE of up to 40 of them is a nonzero double.
_COUNTS = st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v == 0.0 or abs(v) >= 1e-300)


@given(st.lists(st.tuples(_COUNTS, _COUNTS), min_size=1, max_size=40))
@example([(1e-200, 0.0)])  # its square underflows to 0
def test_evaluate_invariants(pairs):
    a, b = (np.array(column) for column in zip(*pairs))
    mae, rmse = evaluate(a, b)
    assert mae >= 0.0 and rmse >= 0.0
    assert (mae == 0.0) == (rmse == 0.0) == np.array_equal(a, b)
    assert evaluate(b, a) == (mae, rmse)
    assert rmse <= np.max(np.abs(a - b)) * (1.0 + _METRIC_RTOL)
    FoldResult("I00", "left", "GB", len(a), mae, rmse)  # MAE <= RMSE within its tolerance


def test_fold_with_equal_magnitude_errors_is_not_rejected():
    # Every |error| is 0.1, so RMSE == MAE exactly, but the rounded RMSE
    # (0.1) lands one ulp below the rounded MAE (0.10000000000000002).
    mae, rmse = evaluate(np.full(3, 0.1), np.zeros(3))
    assert rmse < mae
    row = FoldResult("I00", "left", "GB", 3, mae, rmse)
    assert row.error is None
    with pytest.raises(ValueError, match="metric invariant"):
        FoldResult("I00", "left", "GB", 3, 1.0, 0.999)
    with pytest.raises(ValueError, match="metric invariant"):
        FoldResult("I00", "left", "GB", 3, -1e-300, 0.0)


def test_evaluate_validates_inputs():
    with pytest.raises(ValueError, match="length"):
        evaluate(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="empty"):
        evaluate(np.ones(0), np.ones(0))


# ----------------------------------------------------------------- single target

def test_minimal_two_intersection_run(data3):
    two = data3.subset(np.array([str(s) in ("I00", "I01") for s in data3.intersection_ids]))
    split = split_domains(two, "I01")
    result = run_estimation(split, _fast_cfg())
    assert result.predictions.shape == (split.target_features.n,)
    assert np.all(result.predictions >= 0.0)  # clamped counts
    assert result.selected_features
    assert result.itml_result is not None and result.gmm_model is not None
    assert result.boosted_model.n_stages == 8
    assert result.matched_indices is not None
    assert len(result.matched_indices) == split.target_features.n


def test_source_only_variant_skips_adaptation_stages(data3):
    split = split_domains(data3, "I02")
    result = run_estimation(split, _fast_cfg(variant="source-only"))
    assert result.itml_result is None
    assert result.gmm_model is None
    assert result.config.boosting.alpha == 0.0


def test_empty_selection_falls_back_to_the_canonical_columns(data3):
    split = split_domains(data3, "I00")
    cfg = _fast_cfg()
    cfg = PipelineConfig(
        movement=cfg.movement,
        lasso=LassoSettings(lambda_mode="fixed", lambda_value=1e9),
        itml=cfg.itml, gmm=cfg.gmm, boosting=cfg.boosting,
        master_seed=cfg.master_seed, variant=cfg.variant,
    )
    with pytest.warns(RuntimeWarning, match="falling back to the canonical columns"):
        result = run_estimation(split, cfg)
    # Not every non-constant column: that would bring the affine copies back.
    X = split.source.X
    columns, std = lasso.canonical_columns(X, split.source.movement_labels("left").astype(float))
    assert result.selected_features == columns
    assert len(columns) < X.shape[1] - len(std.excluded)


def test_clamped_prediction():
    # Labels shifted down by 100 give an ensemble that is negative on part of
    # the target; the stage predicts 0 there and the ensemble elsewhere.
    rng = np.random.default_rng(11)
    Zs, Zt, pseudo_X = (rng.standard_normal((m, 3)) for m in (30, 20, 10))
    counts = lambda Z: 100.0 + 60.0 * Z[:, 0]
    model, preds = pipeline._boost_and_predict(
        Zs, counts(Zs) - 100.0, Zt, pseudo_X, counts(pseudo_X) - 100.0, TrainConfig(n_stages=5, alpha=0.5),
    )
    ensemble = boosting.predict(model, Zt)
    assert (ensemble < 0.0).any() and (ensemble > 0.0).any()
    assert np.array_equal(preds, np.where(ensemble < 0.0, 0.0, ensemble))


def test_stage_errors_carry_stage_tag(data3):
    split = split_domains(data3, "I00")
    # More CV folds than source rows: a valid setting that this split cannot meet.
    bad = replace(_fast_cfg(), lasso=LassoSettings(cv_folds=10_000))
    with pytest.raises(PipelineError, match=r"^\[lasso\] ValueError: need at least 10000 rows") as exc:
        run_estimation(split, bad)
    assert exc.value.stage == "lasso" and type(exc.value.cause) is ValueError


def test_coding_bug_in_a_stage_escapes_leave_one_out(data3, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected bug")

    monkeypatch.setattr(gmm, "augment", broken)
    with pytest.raises(TypeError, match="injected bug"):
        leave_one_out(data3, _fast_cfg())


def test_stage_value_error_is_a_failed_fold(data3, monkeypatch):
    def infeasible(*args, **kwargs):
        raise ValueError("injected failure")

    monkeypatch.setattr(gmm, "augment", infeasible)
    report = leave_one_out(data3, _fast_cfg())
    assert len(report.rows) == 3
    assert all(r.error == "[gmm] ValueError: injected failure" for r in report.rows)
    assert all(r.error_type is ValueError for r in report.rows)


@pytest.mark.parametrize("settings, field, value", [
    (LassoSettings, "lambda_mode", "crossval"),
    (LassoSettings, "lambda_value", -0.1),
    (LassoSettings, "lambda_value", float("inf")),
    (LassoSettings, "cv_folds", 1),
    (LassoSettings, "cv_folds", 2.5),         # raised TypeError in a pipeline stage
    (LassoSettings, "cv_grid_size", 0),
    (LassoSettings, "cv_grid_size", 3.5),     # raised TypeError in a pipeline stage
    (LassoSettings, "lam_min_ratio", 0.0),
    (LassoSettings, "lam_min_ratio", 1.5),
    (LassoSettings, "tol", 0.0),
    (LassoSettings, "tol", float("nan")),
    (LassoSettings, "max_sweeps", 0),
    (LassoSettings, "max_sweeps", 2.5),       # was accepted
    (ItmlSettings, "max_passes", 0),
    (ItmlSettings, "max_passes", 2.5),        # raised TypeError in a pipeline stage
    (ItmlSettings, "max_constraints", -1),
    (ItmlSettings, "max_constraints", 2.5),   # raised TypeError in a pipeline stage
    (ItmlSettings, "n_candidates", 0),
    (ItmlSettings, "n_candidates", 2.5),      # was accepted
    (GmmSettings, "n_components", 0),
    (GmmSettings, "n_components", 1.5),       # raised TypeError in a pipeline stage
    (GmmSettings, "n_components", True),      # a bool is no count
    (GmmSettings, "n_samples", -1),
    (GmmSettings, "n_samples", 2.5),          # raised TypeError in a pipeline stage
    (GmmSettings, "n_init", 0),
    (GmmSettings, "n_init", 1.5),             # raised TypeError in a pipeline stage
    (TrainConfig, "n_stages", -1),
    (TrainConfig, "n_stages", 2.5),           # raised TypeError in the fit
    (TrainConfig, "max_depth", -1),
    (TrainConfig, "max_depth", 2.5),          # trained trees of 11-13 nodes
    (TrainConfig, "min_samples_leaf", 0),
    (TrainConfig, "min_samples_leaf", 1.5),   # raised TypeError in the fit
    (TrainConfig, "max_depth", True),         # a bool is no count
    (PipelineConfig, "master_seed", -1),
    (PipelineConfig, "master_seed", 1.5),     # raised TypeError in a pipeline stage
])
def test_settings_reject_out_of_domain_values(settings, field, value):
    with pytest.raises(ValueError, match=f"{field} must"):
        settings(**{field: value})


@pytest.mark.parametrize("field, value", [("movement", "u-turn"), ("variant", "target-only")])
def test_pipeline_config_rejects_an_unknown_movement_or_variant(field, value):
    with pytest.raises(ValueError, match=f"unknown {field} {value!r}"):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("mae, rmse", [(None, 1.0), (1.0, None), (None, None)])
def test_a_successful_fold_must_carry_both_metrics(mae, rmse):
    with pytest.raises(ValueError, match="successful fold must carry metrics"):
        FoldResult("I00", "left", "GB", 3, mae, rmse)
    assert FoldResult("I00", "left", "GB", 3, mae, rmse, error="gmm: too few samples").error is not None


def test_settings_accept_their_boundary_values():
    LassoSettings(lambda_mode="fixed", lambda_value=0.0, cv_folds=2, cv_grid_size=1,
                  lam_min_ratio=1.0, max_sweeps=1)
    ItmlSettings(max_passes=1, max_constraints=0, n_candidates=1)
    GmmSettings(n_components=1, n_samples=0, n_init=1)
    TrainConfig(n_stages=0, max_depth=0, min_samples_leaf=1)


# ------------------------------------------------------------------- no leakage

def test_held_out_labels_rejected_by_training_paths(data3):
    split = split_domains(data3, "I01")
    held = split.held_out_labels
    X = split.target_features.X
    with pytest.raises(TypeError, match="held-out"):
        fit_lasso(X, held, 0.1)
    with pytest.raises(TypeError, match="held-out"):
        build_constraints(X, held)
    with pytest.raises(TypeError, match="held-out"):
        from tmcda.gmm import augment

        augment(X, held, K=2, M=5)
    with pytest.raises(TypeError, match="held-out"):
        from tmcda.boosting import fit_gbbw

        fit_gbbw(X, held, X, held, TrainConfig(n_stages=1))
    with pytest.raises(TypeError, match="held-out"):
        evaluate(held, np.zeros(len(held)))


def test_split_forbids_labeled_target(data3):
    split = split_domains(data3, "I01")
    labeled_target = data3.subset(
        np.array([str(s) == "I01" for s in data3.intersection_ids])
    )
    with pytest.raises(DataError, match="must not carry labels"):
        DomainSplit(split.source, labeled_target, split.held_out_labels, "I01")


def test_split_forbids_overlapping_source_and_target(data3):
    split = split_domains(data3, "I01")
    with pytest.raises(DataError, match=re.escape("source and target intersections overlap: ['I01']")):
        DomainSplit(data3, split.target_features, split.held_out_labels, "I01")


def test_split_forbids_unlabeled_source(data3):
    split = split_domains(data3, "I01")
    with pytest.raises(DataError, match="source dataset carries no labels"):
        DomainSplit(split.source.without_labels(), split.target_features, split.held_out_labels, "I01")


# ---------------------------------------------------------------- leave one out

def test_two_intersections_two_folds(data3):
    two = data3.subset(np.array([str(s) in ("I00", "I02") for s in data3.intersection_ids]))
    report = leave_one_out(two, _fast_cfg())
    ok = [r for r in report.rows if r.error is None]
    assert len(report.rows) == 2
    assert {r.intersection for r in report.rows} == {"I00", "I02"}
    assert ok, [r.error for r in report.rows]


def test_thirty_folds_protocol():
    data = generate_synthetic_network(seed=2, n_intersections=30, shift_strength=0.3, n_intervals=2)
    report = leave_one_out(data, _fast_cfg(variant="source-only", n_stages=2))
    assert len(report.rows) == 30
    assert len({r.intersection for r in report.rows}) == 30


def test_three_movements_times_folds(data3):
    two = data3.subset(np.array([str(s) in ("I00", "I01") for s in data3.intersection_ids]))
    configs = [_fast_cfg(movement=m, variant="source-only") for m in ("left", "through", "right")]
    report = leave_one_out(two, configs)
    assert len(report.rows) == 6


def test_aggregates_equal_independent_mean(data3):
    report = leave_one_out(data3, _fast_cfg(variant="itml-gbbw"))
    ok = [r for r in report.rows if r.error is None]
    assert len(ok) == 3
    mae_mean = sum(r.mae for r in ok) / len(ok)
    rmse_mean = sum(r.rmse for r in ok) / len(ok)
    agg = report.aggregates[("ITML-GBBW", "left")]
    assert agg[0] == pytest.approx(mae_mean)
    assert agg[1] == pytest.approx(rmse_mean)


def test_reports_deterministic_and_byte_identical(data3):
    a = leave_one_out(data3, _fast_cfg(seed=9))
    b = leave_one_out(data3, _fast_cfg(seed=9))
    assert a.to_long_text() == b.to_long_text()
    assert render_summary(a) == render_summary(b)
    assert a.aggregates == b.aggregates


def test_parallel_folds_match_sequential(data3):
    seq = leave_one_out(data3, _fast_cfg(seed=4), jobs=1)
    par = leave_one_out(data3, _fast_cfg(seed=4), jobs=2)
    assert seq.to_long_text() == par.to_long_text()


@pytest.mark.parametrize("jobs", [0, -3])
def test_fewer_than_one_job_is_rejected_by_both_entry_points(data3, jobs):
    with pytest.raises(ValueError, match=f"^jobs must be an integer >= 1, got {jobs}$"):
        leave_one_out(data3, _fast_cfg(), jobs=jobs)
    with pytest.raises(ValueError, match=f"^jobs must be an integer >= 1, got {jobs}$"):
        ablation_sweep(data3, {"alpha": [0.5]}, _fast_cfg(), jobs=jobs)


def test_one_intersection_is_refused_by_both_entry_points(data3):
    one = data3.subset(data3.intersection_ids == data3.intersections()[0])
    with pytest.raises(ValueError, match="leave-one-out needs at least 2 intersections"):
        leave_one_out(one, _fast_cfg())
    with pytest.raises(ValueError, match="leave-one-out needs at least 2 intersections"):
        ablation_sweep(one, {"alpha": [0.5]}, _fast_cfg())


def test_metric_invariant_enforced_per_row(data3):
    report = leave_one_out(data3, _fast_cfg())
    for row in report.rows:
        if row.error is None:
            assert row.rmse >= row.mae >= 0.0


def test_no_harm_under_zero_shift():
    # identically-distributed intersections: adaptation must not hurt much
    ratios = []
    for seed in range(10):
        data = generate_synthetic_network(seed=seed, n_intersections=4,
                                          shift_strength=0.0, n_intervals=32)
        split = split_domains(data, "I00")
        full = run_estimation(split, _fast_cfg(seed=seed, n_stages=20))
        base = run_estimation(split, _fast_cfg(variant="source-only", seed=seed, n_stages=20))
        truth = split.held_out_labels.reveal_for_scoring("left")
        mae_full, _ = evaluate(truth, full.predictions)
        mae_base, _ = evaluate(truth, base.predictions)
        ratios.append(mae_full / mae_base)
    assert np.mean(ratios) <= 1.10


# ----------------------------------------------------------------------- sweeps

def test_single_point_grid_equals_direct_leave_one_out(data3):
    cfg = _fast_cfg()
    sweep = ablation_sweep(data3, {"alpha": [0.5]}, cfg)
    direct = leave_one_out(data3, cfg)
    assert len(sweep.cells) == 1
    cell = sweep.cells[0]
    assert cell.status == "ok"
    assert cell.aggregates == direct.aggregates


def test_alpha_zero_cell_equals_source_only_baseline(data3):
    cfg = _fast_cfg()
    sweep = ablation_sweep(data3, {"alpha": [0.0]}, cfg)
    baseline = leave_one_out(data3, _fast_cfg(variant="source-only"))
    cell = sweep.cells[0]
    sweep_vals = {m: v for (_, m), v in cell.aggregates.items()}
    base_vals = {m: v for (_, m), v in baseline.aggregates.items()}
    assert sweep_vals == base_vals


def test_infeasible_component_count_skipped(data3):
    sweep = ablation_sweep(data3, {"n_components": [500]}, _fast_cfg())
    cell = sweep.cells[0]
    assert cell.status == "skipped"
    assert "need at least K" in cell.reason


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_named_variant_equals_full_with_its_pins(data3, variant):
    pinned = _fast_cfg()
    for section, values in VARIANTS[variant][1].items():
        pinned = replace(pinned, **{section: replace(getattr(pinned, section), **values)})
    a = leave_one_out(data3, pinned)
    b = leave_one_out(data3, _fast_cfg(variant=variant))
    a_vals = {(r.movement, r.intersection): (r.n, r.mae, r.rmse, r.error) for r in a.rows}
    b_vals = {(r.movement, r.intersection): (r.n, r.mae, r.rmse, r.error) for r in b.rows}
    assert a_vals == b_vals
    assert {r.variant for r in b.rows} == {VARIANTS[variant][0]}


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("movement", ["left", "through", "right"])
def test_as_run_fills_movement_defaults_pins_the_variant_and_is_idempotent(variant, movement):
    config = PipelineConfig(movement=movement, master_seed=9, variant=variant)
    ran = config.as_run()
    assert ran.as_run() == ran
    assert (ran.variant, ran.movement, ran.master_seed) == (variant, movement, 9)
    k, m = pipeline.GMM_DEFAULTS[movement]
    assert ran.gmm.n_components == k
    assert ran.gmm.n_samples == (0 if variant == "itml-gbbw" else m)
    assert ran.boosting.alpha == (0.0 if variant == "source-only" else config.boosting.alpha)
    assert ran.lasso == config.lasso and ran.itml == config.itml


def test_as_run_keeps_set_mixture_settings_unless_the_variant_pins_them():
    gmm_settings = GmmSettings(n_components=3, n_samples=7, n_init=2)
    assert PipelineConfig(gmm=gmm_settings).as_run().gmm == gmm_settings
    pinned = PipelineConfig(gmm=gmm_settings, variant="itml-gbbw").as_run().gmm
    assert pinned == GmmSettings(n_components=3, n_samples=0, n_init=2)


def test_sweep_cell_reports_the_settings_its_movements_ran(data3):
    # Movements with different mixture defaults ran different K and M; the
    # cell once reported its first movement's defaults for all of them.
    bases = [replace(_fast_cfg(movement=m, n_stages=3), gmm=GmmSettings(n_init=1)) for m in ("left", "through")]
    for order in (bases, bases[::-1]):
        cell = ablation_sweep(data3, {"alpha": [0.5]}, order).cells[0]
        assert (cell.values, cell.status) == ({"n_components": None, "n_samples": None, "alpha": 0.5}, "ok")
    sweep = ablation_sweep(data3, {"alpha": [0.5], "n_components": [2]}, bases)
    assert sweep.cells[0].values == {"n_components": 2, "n_samples": None, "alpha": 0.5}
    assert sweep.to_text().splitlines()[1].startswith("2,,0.5,ok,")
    alone = ablation_sweep(data3, {"alpha": [0.5]}, bases[1]).cells[0]
    assert alone.values == {"n_components": 4, "n_samples": 100, "alpha": 0.5}


def test_an_empty_config_list_is_refused_before_any_split(data3, monkeypatch):
    splits = _counting(monkeypatch, pipeline, "split_domains")
    with pytest.raises(ValueError, match="no configs to run"):
        leave_one_out(data3, [])
    with pytest.raises(ValueError, match="no configs to run"):
        ablation_sweep(data3, {"alpha": [0.5]}, [])
    assert splits == []


def test_sweep_fails_only_on_too_few_samples_not_on_other_mixture_errors(data3, monkeypatch):
    def singular(*args, **kwargs):
        raise gmm.GMMError("singular covariance; increase ridge")

    monkeypatch.setattr(gmm, "fit_gmm", singular)
    cell = ablation_sweep(data3, {"n_components": [2]}, _fast_cfg()).cells[0]
    assert cell.status == "failed" and cell.aggregates == {}
    assert cell.reason == "[gmm] GMMError: singular covariance; increase ridge"
    report = leave_one_out(data3, _fast_cfg())
    assert all(r.error == "[gmm] GMMError: singular covariance; increase ridge" for r in report.rows)
    assert all(r.error_type is gmm.GMMError for r in report.rows)


def test_sweep_over_k_m_alpha_grid_equals_per_cell_leave_one_out(data3, monkeypatch):
    grid = {"n_components": [1, 2], "n_samples": [5, 12], "alpha": [0.0, 0.5]}
    bases = [_fast_cfg(movement=m, seed=6, n_stages=4) for m in ("left", "through")]
    fits = _counting(monkeypatch, boosting, "fit_gbbw")
    sweep = ablation_sweep(data3, grid, bases)
    assert len(sweep.cells) == 8
    # Per fold and movement: one fit shared by the four alpha = 0 cells, which
    # skip the mixture, and one for each alpha = 0.5 cell.
    assert len(fits) == 3 * 2 * (1 + 4)
    i = 0
    for k in grid["n_components"]:
        for m in grid["n_samples"]:
            for a in grid["alpha"]:
                configs = [
                    replace(b, gmm=replace(b.gmm, n_components=k, n_samples=m),
                            boosting=replace(b.boosting, alpha=a))
                    for b in bases
                ]
                cell = sweep.cells[i]
                assert (cell.values, cell.status) == ({"n_components": k, "n_samples": m, "alpha": a}, "ok")
                assert cell.aggregates == leave_one_out(data3, configs).aggregates
                assert len(cell.aggregates) == 2
                i += 1
    assert ablation_sweep(data3, grid, bases, jobs=2) == sweep


@pytest.mark.parametrize("grid, message", [
    ({"alphas": [0.5]}, r"unknown grid axis\(es\): \['alphas'\]"),
    ({"alpha": []}, "grid.alpha: no values"),
    ({"n_components": [2], "n_samples": []}, "grid.n_samples: no values"),
    ({"alpha": [0.5, 1.5]}, r"grid.alpha: alpha must be a number in \[0, 1\], got 1.5"),
    ({"n_components": [2.7, 1.2]}, "grid.n_components: n_components must be an integer >= 1, got 2.7"),
    ({"n_samples": [float("inf")]}, "grid.n_samples: n_samples must be an integer >= 0, got inf"),
], ids=["unknown-axis", "empty-alpha", "empty-n-samples", "alpha-above-1", "fractional-count", "infinite-count"])
def test_sweep_rejects_a_grid_it_cannot_run_before_any_fold(data3, monkeypatch, grid, message):
    # An unknown axis or an empty list once ran the base config as one cell,
    # and a fractional count ran truncated.
    fits = _counting(monkeypatch, lasso, "fit_lasso")
    with pytest.raises(ValueError, match=message):
        ablation_sweep(data3, grid, _fast_cfg())
    assert fits == []


def test_sweep_refuses_base_configs_that_share_a_movement_before_any_fold(data3, monkeypatch):
    # Two variants on one movement gave a cell with both in its aggregates, and sweep.csv printed one.
    fits = _counting(monkeypatch, lasso, "fit_lasso")
    bases = [_fast_cfg(variant=v) for v in ("itml-gbbw", "full")] + [_fast_cfg(movement="through")]
    with pytest.raises(ValueError, match=r"base configs share movement\(s\) \['left'\]"):
        ablation_sweep(data3, {"alpha": [0.5]}, bases)
    assert fits == []


@pytest.mark.parametrize("mode", pipeline.LAMBDA_MODES)
def test_selection_is_the_fit_at_the_lambda_mode_penalty_whatever_the_tolerance_settings(data3, mode):
    X, y = data3.X, data3.movement_labels("through").astype(float)
    # The fit runs on the canonical columns: in cv mode it is the CV's model of
    # the full data, otherwise fit_lasso at the mode's penalty.
    columns, _ = lasso.canonical_columns(X, y)
    X_fit = X[:, list(columns)]
    if mode == "cv":
        expected = lasso.cross_validate_lambda(X_fit, y, n_folds=3, grid_size=6, seed=4)[3]
    else:
        expected = fit_lasso(X_fit, y, 0.05, of_lambda_max=mode == "fraction")
        assert expected.lam == {"fraction": 0.05 * lasso.lambda_max(X_fit, y), "fixed": 0.05}[mode]
    assert 0 < len(columns) < X.shape[1]
    others = [j for j in range(X.shape[1]) if j not in columns]
    # lasso.tol and lasso.max_sweeps are accepted and change nothing.
    for tol, max_sweeps in ((1e-8, 10_000), (1e-3, 2), (0.5, 1)):
        settings = LassoSettings(lambda_mode=mode, lambda_value=0.05, cv_folds=3, cv_grid_size=6,
                                 tol=tol, max_sweeps=max_sweeps)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = pipeline.fit_selection(X, y, settings, seed=4)
        assert caught == []
        assert (model.lam, model.intercept, model.objective_value) == (
            expected.lam, expected.intercept, expected.objective_value)
        for field in ("coef", "coef_std"):
            assert getattr(model, field)[list(columns)].tobytes() == getattr(expected, field).tobytes()
            assert not getattr(model, field)[others].any()
        assert model.selected == tuple(columns[j] for j in expected.selected)


def test_selection_at_lambda_max_keeps_no_column_whatever_the_blas_kernel():
    # loo-cv seed 4, input 4, fold 0: CV picks lambda_max. Coordinate descent, comparing it with
    # its own z.r/n, kept column 1 at 8.9e-16 under OpenBLAS's Katmai kernels only; the path
    # gives exact zeros under every kernel.
    seed = int(np.random.SeedSequence((4, 4)).generate_state(1)[0])
    split = split_domains(generate_synthetic_network(seed, 2, 1.0, 64), "I00")
    y = split.source.movement_labels("through").astype(float)
    model = pipeline.fit_selection(split.source.X, y, LassoSettings(lam_min_ratio=0.1), stage_seed(seed, "lasso"))
    assert model.selected == ()
    assert not model.coef_std.any()


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_fits_lasso_and_itml_once_per_fold(data3, monkeypatch):
    lasso_calls = _counting(monkeypatch, lasso, "fit_lasso")
    itml_calls = _counting(monkeypatch, itml, "fit_itml")
    gmm_calls = _counting(monkeypatch, gmm, "fit_gmm")
    sweep = ablation_sweep(data3, {"alpha": [0.25, 0.5, 0.75, 1.0]}, _fast_cfg(n_stages=3))
    assert [c.status for c in sweep.cells] == ["ok"] * 4
    assert len(lasso_calls) == len(itml_calls) == len(gmm_calls) == 3


def test_configs_that_differ_only_in_the_inert_lasso_settings_share_the_lasso_stage(data3, monkeypatch):
    # fit_selection reads neither tol nor max_sweeps, so they are not part of the stage's key.
    cv_calls = _counting(monkeypatch, lasso, "cross_validate_lambda")
    base = _fast_cfg(variant="source-only", n_stages=2)
    settings = LassoSettings(lambda_mode="cv", cv_folds=3, cv_grid_size=6)
    configs = [replace(base, lasso=replace(settings, tol=tol)) for tol in (1e-8, 1e-4)]
    report = leave_one_out(data3, configs)
    assert [r.error for r in report.rows] == [None] * 6
    assert len(cv_calls) == 3    # one per fold


def test_itml_failure_fails_both_itml_variants_and_spares_source_only(data3, monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise itml.MetricError("injected metric failure")

    monkeypatch.setattr(itml, "fit_itml", failing)
    report = leave_one_out(data3, [_fast_cfg(variant=v) for v in ("full", "itml-gbbw", "source-only")])
    by_variant = {}
    for r in report.rows:
        by_variant.setdefault(r.variant, []).append(r)
    for label in ("ITMLGMM-GBBW", "ITML-GBBW"):
        assert [r.error for r in by_variant[label]] == ["[itml] MetricError: injected metric failure"] * 3
        assert all(r.error_type is itml.MetricError for r in by_variant[label])
    assert all(r.error is None and r.mae is not None for r in by_variant["GB"])
    assert len(calls) == 3  # the failure is kept for the fold, not retried per variant


def test_a_fold_runs_every_stage_through_the_stage_runner_in_order(data3, monkeypatch):
    stages = []
    original = pipeline._run_stage

    def spy(memo, key, fn, *args):
        stages.append(key[0])
        return original(memo, key, fn, *args)

    monkeypatch.setattr(pipeline, "_run_stage", spy)
    leave_one_out(data3, _fast_cfg())
    assert stages == ["lasso", "itml", "gmm", "boosting"] * 3
    stages.clear()
    leave_one_out(data3, _fast_cfg(variant="source-only"))
    assert stages == ["lasso", "boosting"] * 3


def test_excluding_every_source_row_fails_the_fold_in_boosting(data3, monkeypatch):
    fit_gbbw = boosting.fit_gbbw

    def drop_every_source_row(Zs, ys, pseudo_X, pseudo_y, cfg):
        return fit_gbbw(Zs[:0], ys[:0], pseudo_X, pseudo_y, cfg)

    monkeypatch.setattr(boosting, "fit_gbbw", drop_every_source_row)
    report = leave_one_out(data3, _fast_cfg())
    assert [r.error for r in report.rows] == ["[boosting] ValueError: source_X must have >= 1 rows, got 0"] * 3
    assert all(r.error_type is ValueError for r in report.rows)


def test_alpha_grid_shape(data3):
    sweep = ablation_sweep(data3, {"alpha": [0.0, 0.25, 0.5, 0.75, 1.0]},
                           _fast_cfg(n_stages=3))
    assert len(sweep.cells) == 5
    assert [c.values["alpha"] for c in sweep.cells] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for cell in sweep.cells:
        assert cell.status == "ok"
        for value in cell.aggregates.values():
            assert np.isfinite(value).all()
    text = sweep.to_text()
    assert len(text.strip().splitlines()) == 6


def test_sweep_text_prints_each_axis_value_as_before_its_cells_held_one_field_per_axis():
    # The bytes sweep.csv had when a cell held one field per axis: an integer as str prints it (":g" would give
    # 1.23457e+06), a blank for None, a real with ":g" where that reads back as it and repr otherwise.
    cells = (
        SweepCell({"n_components": 1234567, "n_samples": None, "alpha": 0.1234567}, "ok",
                  {("ITMLGMM-GBBW", "left"): (1.25, 2.5), ("ITMLGMM-GBBW", "through"): (10.0, 12.345678)}),
        SweepCell({"n_components": None, "n_samples": 40, "alpha": 1.0}, "skipped", {},
                  reason="[gmm] TooFewSamplesError: x"),
        SweepCell({"n_components": np.int64(2), "n_samples": 0, "alpha": np.float64(0.0)}, "ok",
                  {("ITMLGMM-GBBW", "through"): (0.5, 0.75)}),
    )
    assert SweepResult(cells).to_text() == (
        "n_components,n_samples,alpha,status,left_mae,left_rmse,through_mae,through_rmse\n"
        "1234567,,0.1234567,ok,1.2500,2.5000,10.0000,12.3457\n"
        ",40,1,skipped,,,,\n"
        "2,0,0,ok,,,0.5000,0.7500\n"
    )


# ------------------------------------------------------------------ determinism

def test_stage_seeds_are_stable():
    assert stage_seed(7, "lasso") == stage_seed(7, "lasso")
    assert stage_seed(7, "lasso") != stage_seed(7, "gmm")
    assert stage_seed(7, "lasso") != stage_seed(8, "lasso")


def test_split_requires_labels(data3):
    with pytest.raises(DataError, match="unlabeled"):
        split_domains(data3.without_labels(), "I01")


def test_default_config_runs_end_to_end():
    # the out-of-the-box configuration: CV-selected penalty, full constraint
    # budget, 200-stage depth-3 booster, per-movement mixture defaults
    data = generate_synthetic_network(seed=33, n_intersections=4,
                                      shift_strength=1.0, n_intervals=24)
    split = split_domains(data, "I02")
    result = run_estimation(split, PipelineConfig(movement="left", master_seed=33))
    assert result.predictions.shape == (24,)
    assert np.all(np.isfinite(result.predictions))
    assert result.boosted_model.n_stages == 200
    assert result.gmm_model is not None and result.gmm_model.K == 2
    assert len(result.matched_indices) == 24
    assert result.config.gmm.n_samples == 40
    truth = split.held_out_labels.reveal_for_scoring("left")
    mae, rmse = evaluate(truth, result.predictions)
    assert rmse >= mae >= 0.0


# ------------------------------------------------ pipeline-level properties

_STAGES = ("lasso", "itml", "gmm", "boosting")


def _small_configs(lasso_settings, master_seed=0):
    """Every variant x movement at small settings."""
    return [
        PipelineConfig(
            movement=movement, variant=variant, master_seed=master_seed, lasso=lasso_settings,
            itml=ItmlSettings(max_passes=10, max_constraints=40, n_candidates=400),
            gmm=GmmSettings(n_components=2, n_samples=20, n_init=1),
            boosting=TrainConfig(n_stages=10, max_depth=2, shrinkage=0.3, alpha=0.5),
        )
        for variant in VARIANTS for movement in ("left", "through", "right")
    ]


def _scores_or_fails_in_a_stage(data, configs):
    """The leave-one-out report, after checking each row and that a rerun prints the same text."""
    report = leave_one_out(data, configs)
    assert len(report.rows) == len(configs) * len(data.intersections())
    for row in report.rows:
        if row.error is None:
            assert np.isfinite([row.mae, row.rmse]).all()
            assert row.rmse >= row.mae * (1.0 - _METRIC_RTOL)
        else:
            assert issubclass(row.error_type, Exception)
            assert row.error.startswith(tuple(f"[{stage}] {row.error_type.__name__}: " for stage in _STAGES))
    assert leave_one_out(data, configs).to_long_text() == report.to_long_text()
    return report


_CV = LassoSettings(lambda_mode="cv", cv_folds=3, cv_grid_size=10, max_sweeps=1000)
_LASSO = st.one_of(
    st.just(_CV),
    st.floats(0.01, 0.9).map(lambda f: LassoSettings(lambda_mode="fraction", lambda_value=f, max_sweeps=1000)),
)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**16), st.integers(2, 4), st.integers(4, 24), st.sampled_from([0.0, 0.5, 1.3, 3.0, 6.0]),
       _LASSO, st.integers(0, 2**16))
# one selected feature: similar pairs shrink the metric until a close pair lies below 1e-12
@example(1362, 4, 12, 1.3, LassoSettings(lambda_mode="fraction", lambda_value=0.75, max_sweeps=1000), 1)
def test_every_fold_of_a_random_network_scores_or_fails_in_a_named_stage(
        seed, n_intersections, n_intervals, shift, lasso_settings, master_seed):
    data = generate_synthetic_network(seed, n_intersections, shift, n_intervals)
    _scores_or_fails_in_a_stage(data, _small_configs(lasso_settings, master_seed))


def _adversarial(name):
    """A 3 x 12 network made into a case the generator cannot make."""
    data = generate_synthetic_network(seed=8, n_intersections=3, shift_strength=1.0, n_intervals=12)
    first = data.intersection_ids == "I00"
    X, labels = data.X.copy(), data.labels.copy()
    if name == "duplicate rows":
        return data.subset(np.repeat(np.arange(data.n), 2))
    if name == "near-duplicate rows":
        # Each row twice, the copy's continuous cells one ulp higher: pairs at a rounding-level distance.
        twice = data.subset(np.repeat(np.arange(data.n), 2))
        X = twice.X.copy()
        continuous = [j for j, column in enumerate(COLUMNS) if not column.integer]
        X[1::2, continuous] = np.nextafter(X[1::2, continuous], np.inf)
        return Dataset(twice.intersection_ids, twice.approaches, twice.interval_indices, X, twice.labels)
    if name == "a 2-row source intersection":
        return data.subset(~first | (np.cumsum(first) <= 2))
    if name == "a 1-row target":
        return data.subset(~first | (np.cumsum(first) == 1))
    if name == "a constant feature column":
        X[:, 0] = 250.0
    elif name == "all-zero target counts":
        labels[first, 0] = 0
    elif name == "all-zero labels":
        labels[:] = 0
    return Dataset(data.intersection_ids, data.approaches, data.interval_indices.copy(), X, labels)


@pytest.mark.parametrize("name", ["duplicate rows", "near-duplicate rows", "a constant feature column",
                                  "all-zero target counts", "all-zero labels", "a 2-row source intersection",
                                  "a 1-row target"])
def test_every_fold_of_an_adversarial_network_scores_or_fails_in_a_named_stage(name):
    report = _scores_or_fails_in_a_stage(_adversarial(name), _small_configs(_CV))
    if name == "a 1-row target":
        full = [r for r in report.rows if r.intersection == "I00" and r.variant == VARIANTS["full"][0]]
        assert len(full) == 3
        assert all(r.error.startswith("[gmm] TooFewSamplesError: ") for r in full)

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tmcda import cli, gmm, itml, lasso
from tmcda.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from tmcda.dataset import load_table, write_table
from tmcda.lasso import (
    canonical_columns, coefficient_report, cross_validate_lambda, fit_lasso, lambda_max, widen,
)
from tmcda.pipeline import VARIANTS, leave_one_out, render_summary
from tmcda.runconfig import ConfigError, apply_entries, parse_flat_file
from tmcda.synth import generate_synthetic_network

FAST_CONFIG = """
# fast end-to-end settings for tests
seed = 3
lasso.lambda_mode = fraction
lasso.lambda_value = 0.05
lasso.tol = 1e-5
lasso.max_sweeps = 3000
itml.max_passes = 6
itml.max_constraints = 30
itml.n_candidates = 500
gmm.n_components = 2
gmm.n_samples = 8
gmm.n_init = 1
boosting.n_stages = 4
boosting.max_depth = 2
boosting.shrinkage = 0.3
"""


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "net.csv"
    assert main(["synth", "--seed", "5", "--n-intersections", "3",
                 "--shift", "1.0", "--n-intervals", "8", "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["synth", "--seed", "9", "--n-intersections", "2", "--n-intervals", "6"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_single_intersection(tmp_path):
    code = main(["synth", "--n-intersections", "1", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_VALIDATION


def test_synth_leaves_no_temporary_file_when_writing_fails(tmp_path, monkeypatch):
    def failing(data, path):
        Path(path).write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_table", failing)
    assert main(["synth", "--out", str(tmp_path / "net.csv")]) == EXIT_RUNTIME
    assert list(tmp_path.iterdir()) == []


def test_synth_output_loads_cleanly(data_file):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = load_table(data_file)
    assert data.n == 24
    assert data.labels is not None


def test_loo_on_synth_output_equals_leave_one_out_on_the_generated_network(tmp_path, data_file, config_file):
    data = generate_synthetic_network(5, 3, 1.0, 8)  # the data_file fixture's settings
    assert np.array_equal(load_table(data_file).X, data.X)
    out_dir = tmp_path / "loo"
    assert main(["loo", "--data", str(data_file), "--config", str(config_file),
                 "--out-dir", str(out_dir), "--variant", "all", "--movement", "left"]) == EXIT_OK
    base, _ = apply_entries(parse_flat_file(config_file), allow_grid=False)
    report = leave_one_out(data, [replace(base, variant=v) for v in VARIANTS])
    assert (out_dir / "folds.csv").read_text() == report.to_long_text()
    assert (out_dir / "summary.csv").read_text() == render_summary(report)


def test_unknown_flags_exit_with_usage_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loo", "--nonsense"])
    assert exc.value.code == EXIT_USAGE


def test_select_matches_direct_library_call(tmp_path, data_file):
    out_dir = tmp_path / "sel"
    assert main(["select", "--data", str(data_file), "--lambda-mode", "fraction",
                 "--lambda-value", "0.05", "--out-dir", str(out_dir)]) == EXIT_OK
    written = (out_dir / "coefficients.csv").read_text()

    data = load_table(data_file)
    models = {}
    for movement in ("left", "through", "right"):
        y = data.movement_labels(movement).astype(float)
        columns, std = canonical_columns(data.X, y)
        X = data.X[:, list(columns)]
        model = fit_lasso(X, y, 0.05, of_lambda_max=True)
        assert model.lam == 0.05 * lambda_max(X, y)
        models[movement] = widen(model, columns, std)
    assert written == coefficient_report(models)
    assert len(written.strip().splitlines()) == 26
    # The columns outside the canonical design (constants and copies) print 0.
    dropped = [j for j in range(data.X.shape[1]) if j not in columns]
    assert dropped and all(written.splitlines()[1 + j].endswith("0.0000,0.0000,0.0000") for j in dropped)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(data_file) in manifest["inputs"]


def test_select_cv_matches_direct_library_call(tmp_path, data_file):
    out_dir = tmp_path / "sel_cv"
    assert main(["select", "--data", str(data_file), "--lambda-mode", "cv",
                 "--seed", "4", "--out-dir", str(out_dir)]) == EXIT_OK
    written = (out_dir / "coefficients.csv").read_text()

    data = load_table(data_file)
    models = {}
    for movement in ("left", "through", "right"):
        y = data.movement_labels(movement).astype(float)
        columns, std = canonical_columns(data.X, y)
        X = data.X[:, list(columns)]
        models[movement] = widen(cross_validate_lambda(X, y, seed=4)[3], columns, std)
    assert written == coefficient_report(models)


def test_select_zero_signal_gives_zero_table(tmp_path, data_file):
    out_dir = tmp_path / "zero"
    assert main(["select", "--data", str(data_file), "--lambda-mode", "fixed",
                 "--lambda-value", "1e9", "--out-dir", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "coefficients.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        assert line.endswith("0.0000,0.0000,0.0000")


def test_loo_row_counts_and_summary_variants(tmp_path, config_file):
    data = tmp_path / "two.csv"
    assert main(["synth", "--seed", "2", "--n-intersections", "2",
                 "--n-intervals", "8", "--out", str(data)]) == EXIT_OK
    out_dir = tmp_path / "loo"
    assert main(["loo", "--data", str(data), "--config", str(config_file),
                 "--out-dir", str(out_dir), "--variant", "full",
                 "--movement", "all"]) == EXIT_OK
    folds = (out_dir / "folds.csv").read_text().strip().splitlines()
    assert len(folds) == 1 + 2 * 3  # header + 2 folds x 3 movements
    summary = (out_dir / "summary.csv").read_text()
    assert "ITMLGMM-GBBW" in summary

    out_all = tmp_path / "loo_all"
    assert main(["loo", "--data", str(data), "--config", str(config_file),
                 "--out-dir", str(out_all), "--variant", "all",
                 "--movement", "left"]) == EXIT_OK
    summary_all = (out_all / "summary.csv").read_text()
    assert "ITML-GBBW" in summary_all and "GB" in summary_all
    folds_all = (out_all / "folds.csv").read_text().strip().splitlines()
    assert len(folds_all) == 1 + 2 * 3  # header + 2 folds x 3 variants


def test_loo_reruns_are_byte_identical(tmp_path, data_file, config_file):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for out_dir in dirs:
        assert main(["loo", "--data", str(data_file), "--config", str(config_file),
                     "--out-dir", str(out_dir), "--variant", "full",
                     "--movement", "left"]) == EXIT_OK
    assert (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()
    assert (dirs[0] / "folds.csv").read_bytes() == (dirs[1] / "folds.csv").read_bytes()


def test_loo_manifest_records_inputs_and_seed(tmp_path, data_file, config_file):
    out_dir = tmp_path / "manifested"
    assert main(["loo", "--data", str(data_file), "--config", str(config_file),
                 "--out-dir", str(out_dir), "--variant", "source-only",
                 "--movement", "left", "--seed", "77"]) == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 77
    assert manifest["schema_version"] == "1"
    assert manifest["inputs"] == _digests(data_file, config_file)
    assert manifest["config"]["boosting"]["n_stages"] == 4


def _digests(*paths):
    return {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_sweep_manifest_records_the_data_grid_and_config_files(tmp_path, data_file, config_file):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.alpha = 0.5\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid), "--config", str(config_file),
                 "--out-dir", str(out_dir), "--movement", "left"]) == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["inputs"] == _digests(data_file, grid, config_file)


def test_unknown_config_keys_listed_all_at_once(tmp_path, data_file):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gmm.n_component = 2\nboosting.stages = 5\nseed = 1\n")
    out_dir = tmp_path / "out"
    code = main(["loo", "--data", str(data_file), "--config", str(bad),
                 "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    with pytest.raises(ConfigError) as exc:
        apply_entries(parse_flat_file(bad), allow_grid=False)
    assert "gmm.n_component" in str(exc.value)
    assert "boosting.stages" in str(exc.value)


@pytest.mark.parametrize("key", [
    "itml.gamma", "itml.percentile", "itml.tol", "gmm.tol", "gmm.max_iter", "gmm.ridge",
    "pipeline.clamp", "pipeline.round", "pipeline.exclude_matched", "pipeline.variant",
])
def test_removed_config_key_fails_at_load(tmp_path, data_file, capsys, key):
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(FAST_CONFIG + f"\n{key} = 1\n")
    out_dir = tmp_path / "out"
    code = main(["loo", "--data", str(data_file), "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert not (out_dir / "folds.csv").exists()
    assert f"unknown configuration key(s): ['{key}']" in capsys.readouterr().err


def test_sweep_rejects_the_variant_key(tmp_path, data_file, capsys):
    # A sweep always runs variant full; loo takes the variant from --variant.
    grid = tmp_path / "grid.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.alpha = 0.5\npipeline.variant = source-only\n")
    out_dir = tmp_path / "out"
    code = main(["sweep", "--data", str(data_file), "--grid", str(grid), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert not (out_dir / "sweep.csv").exists()
    assert "unknown configuration key(s): ['pipeline.variant']" in capsys.readouterr().err


def test_loo_manifest_names_the_movements_and_variants_it_ran(tmp_path, data_file, config_file):
    out_dir = tmp_path / "out"
    assert main(["loo", "--data", str(data_file), "--config", str(config_file), "--out-dir", str(out_dir),
                 "--movement", "all", "--variant", "full"]) == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["movements"] == ["left", "through", "right"]
    assert manifest["variants"] == ["full"]
    assert "movement" not in manifest["config"] and "variant" not in manifest["config"]


def test_sweep_grid_rows_and_manifest(tmp_path, data_file):
    grid = tmp_path / "grid.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.alpha = 0.0, 0.25, 0.5, 0.75, 1.0\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--out-dir", str(out_dir), "--movement", "left"]) == EXIT_OK
    lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["grid"]["alpha"] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert manifest["config"]["base"]["gmm"]["n_components"] == 2
    assert manifest["config"]["base"]["gmm"]["n_samples"] == 8
    assert manifest["movements"] == ["left"]
    assert "movement" not in manifest["config"]["base"] and "variant" not in manifest["config"]["base"]


def test_sweep_rows_of_alphas_that_agree_to_six_digits_keep_distinct_keys(tmp_path, data_file):
    # ``:g`` alone prints both as 0.123457.
    grid = tmp_path / "grid.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.alpha = 0.1234567, 0.1234568\n")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--out-dir", str(out_dir), "--movement", "left"]) == EXIT_OK
    rows = (out_dir / "sweep.csv").read_text().strip().splitlines()[1:]
    keys = [tuple(row.split(",")[:3]) for row in rows]
    assert keys == [("2", "8", "0.1234567"), ("2", "8", "0.1234568")]


def test_sweep_config_keys_override_grid_file_keys_and_others_still_apply(tmp_path, data_file, config_file):
    grid = tmp_path / "grid.cfg"
    grid.write_text("boosting.min_samples_leaf = 3\ngmm.n_init = 2\ngrid.alpha = 0.5\n")
    out_dir = tmp_path / "merged"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--config", str(config_file), "--out-dir", str(out_dir),
                 "--movement", "left"]) == EXIT_OK
    base = json.loads((out_dir / "manifest.json").read_text())["config"]["base"]
    assert base["boosting"]["min_samples_leaf"] == 3  # grid file only
    assert base["gmm"]["n_init"] == 1                 # both: --config wins
    assert base["boosting"]["n_stages"] == 4          # --config only


def test_sweep_marks_cells_whose_every_fold_failed_and_exits_runtime_when_all_did(
        tmp_path, data_file, monkeypatch, capsys):
    fit_gmm = gmm.fit_gmm

    def singular_for_two(X, K, *args, **kwargs):
        if K == 2:
            raise gmm.GMMError("singular covariance; increase ridge")
        return fit_gmm(X, K, *args, **kwargs)

    monkeypatch.setattr(gmm, "fit_gmm", singular_for_two)
    grid = tmp_path / "grid.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.n_components = 1, 2\n")
    out_dir = tmp_path / "some"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--out-dir", str(out_dir), "--movement", "left"]) == EXIT_OK
    statuses = [line.split(",")[3] for line in (out_dir / "sweep.csv").read_text().splitlines()[1:]]
    assert statuses == ["ok", "failed"]
    assert "(2 cells, 0 skipped, 1 failed)" in capsys.readouterr().out

    grid.write_text(FAST_CONFIG + "\ngrid.n_components = 2\n")
    out_dir = tmp_path / "all"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--out-dir", str(out_dir), "--movement", "left"]) == EXIT_RUNTIME
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[1].split(",")[3] == "failed"
    err = capsys.readouterr().err
    assert "every cell failed" in err and "[gmm] GMMError: singular covariance" in err


def test_single_cell_sweep_equals_loo(tmp_path, data_file, config_file):
    grid = tmp_path / "grid1.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.alpha = 0.5\n")
    sweep_dir = tmp_path / "s"
    loo_dir = tmp_path / "l"
    assert main(["sweep", "--data", str(data_file), "--grid", str(grid),
                 "--out-dir", str(sweep_dir), "--movement", "left"]) == EXIT_OK
    assert main(["loo", "--data", str(data_file), "--config", str(config_file),
                 "--out-dir", str(loo_dir), "--variant", "full",
                 "--movement", "left"]) == EXIT_OK
    sweep_line = (sweep_dir / "sweep.csv").read_text().strip().splitlines()[1]
    mae = sweep_line.split(",")[-2]
    summary = (loo_dir / "summary.csv").read_text().strip().splitlines()
    loo_mae = [line for line in summary if line.startswith("MAE,")][0].split(",")[-1]
    assert mae == loo_mae


def test_grid_config_parses_lists(tmp_path):
    grid = tmp_path / "g.cfg"
    grid.write_text("grid.n_components = 1, 2\ngrid.n_samples = 5\nseed = 4\n")
    base, parsed = apply_entries(parse_flat_file(grid), allow_grid=True)
    assert parsed == {"n_components": [1, 2], "n_samples": [5]}
    assert base.master_seed == 4


def test_runtime_failure_when_every_fold_fails(tmp_path, data_file):
    cfg = tmp_path / "infeasible.cfg"
    cfg.write_text(FAST_CONFIG + "\ngmm.n_components = 500\n")
    out_dir = tmp_path / "fail"
    code = main(["loo", "--data", str(data_file), "--config", str(cfg),
                 "--out-dir", str(out_dir), "--variant", "full", "--movement", "left"])
    assert code == EXIT_RUNTIME
    folds = (out_dir / "folds.csv").read_text()
    assert "need at least K" in folds


def test_missing_data_file_is_validation_error(tmp_path, config_file):
    code = main(["loo", "--data", str(tmp_path / "absent.csv"),
                 "--config", str(config_file), "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


def test_select_single_movement_column(tmp_path, data_file):
    out_dir = tmp_path / "one"
    assert main(["select", "--data", str(data_file), "--movement", "through",
                 "--lambda-mode", "fraction", "--lambda-value", "0.05",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    lines = (out_dir / "coefficients.csv").read_text().strip().splitlines()
    assert lines[0] == "variable,through"
    assert len(lines) == 26


def test_loo_jobs_flag_matches_sequential(tmp_path, data_file, config_file):
    seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
    base = ["loo", "--data", str(data_file), "--config", str(config_file),
            "--variant", "itml-gbbw", "--movement", "left"]
    assert main(base + ["--out-dir", str(seq_dir), "--jobs", "1"]) == EXIT_OK
    assert main(base + ["--out-dir", str(par_dir), "--jobs", "2"]) == EXIT_OK
    assert (seq_dir / "folds.csv").read_bytes() == (par_dir / "folds.csv").read_bytes()


def test_out_of_domain_setting_fails_at_load_with_validation_code(tmp_path, data_file, capsys):
    cfg = tmp_path / "crossval.cfg"
    cfg.write_text(FAST_CONFIG + "\nlasso.lambda_mode = crossval\n")
    out_dir = tmp_path / "out"
    code = main(["loo", "--data", str(data_file), "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert not (out_dir / "folds.csv").exists()
    assert "lambda_mode must be one of cv, fixed, fraction, got 'crossval'" in capsys.readouterr().err


def test_infinite_lambda_value_in_a_config_file_exits_validation(tmp_path, data_file, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(FAST_CONFIG + "\nlasso.lambda_mode = fixed\nlasso.lambda_value = inf\n")
    out_dir = tmp_path / "out"
    code = main(["loo", "--data", str(data_file), "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert "lambda_value must be finite and >= 0, got inf" in err
    assert "Traceback" not in err


def test_negative_seed_in_a_config_file_exits_validation_without_traceback(tmp_path, data_file, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(FAST_CONFIG + "\nseed = -1\n")
    out_dir = tmp_path / "out"
    code = main(["loo", "--data", str(data_file), "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: seed: master_seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command, flag", [
    (["synth", "--n-intervals", "0"], "--n-intervals"),
    (["synth", "--shift", "-1"], "--shift"),
    (["synth", "--shift", "inf"], "--shift"),
    (["synth", "--shift", "100"], "--shift: shift_strength must be <= 50, got 100.0"),
    (["select", "--lambda-mode", "fixed", "--lambda-value", "-1"], "--lambda-value"),
    (["select", "--lambda-mode", "fixed", "--lambda-value", "inf"], "--lambda-value must be finite"),
    (["loo", "--jobs", "0"], "--jobs"),
    (["sweep", "--jobs", "0"], "--jobs"),
    (["synth", "--seed", "-1"], "--seed must be >= 0"),
    (["select", "--seed", "-1"], "--seed must be >= 0"),
    (["loo", "--seed", "-1"], "--seed must be >= 0"),
    (["sweep", "--seed", "-1"], "--seed must be >= 0"),
], ids=["synth-n-intervals", "synth-shift", "synth-shift-inf", "synth-shift-large", "select-lambda-value",
        "select-lambda-value-inf",
        "loo-jobs", "sweep-jobs", "synth-seed", "select-seed", "loo-seed", "sweep-seed"])
def test_out_of_range_flag_exits_validation_without_traceback(tmp_path, data_file, capsys, command, flag):
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.alpha = 0.5\n")
    out = tmp_path / "out"
    where = {
        "synth": ["--out", str(out / "net.csv")],
        "select": ["--data", str(data_file), "--out-dir", str(out)],
        "loo": ["--data", str(data_file), "--out-dir", str(out)],
        "sweep": ["--data", str(data_file), "--grid", str(grid), "--out-dir", str(out)],
    }[command[0]]
    capsys.readouterr()
    assert main(command + where) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err
    assert not out.exists()


def test_loo_rejects_a_data_file_naming_a_column_twice(tmp_path, data_file, config_file, capsys):
    lines = data_file.read_text().splitlines()
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join([lines[0] + ",o_TM"] + [line + ",999999" for line in lines[1:]]) + "\n")
    out = tmp_path / "out"
    code = main(["loo", "--data", str(doubled), "--config", str(config_file), "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    assert "o_TM" in capsys.readouterr().err
    assert not out.exists()


def test_loo_rejects_a_non_finite_count_with_row_and_column(tmp_path, data_file, config_file, capsys):
    lines = data_file.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index("v_LM")] = "nan"
    lines[2] = ",".join(cells)
    corrupt = tmp_path / "nan.csv"
    corrupt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["loo", "--data", str(corrupt), "--config", str(config_file), "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "row 2: non-finite value 'nan' in column 'v_LM'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_loo_rejects_a_blank_intersection_id_with_its_row(tmp_path, data_file, config_file, capsys):
    lines = data_file.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index("intersection_id")] = "  "
    lines[3] = ",".join(cells)
    blank = tmp_path / "blank.csv"
    blank.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["loo", "--data", str(blank), "--config", str(config_file), "--out-dir", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "row 3: missing value in column 'intersection_id'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "loo", "sweep"])
@pytest.mark.parametrize("fault, message", [
    ("header", "missing column(s) ['o_TM']"),
    ("row", "row 2: non-finite value 'nan' in column 'v_LM'"),
], ids=["header", "row"])
def test_a_data_error_names_the_file_once(tmp_path, data_file, config_file, capsys, command, fault, message):
    lines = data_file.read_text().splitlines()
    header = lines[0].split(",")
    if fault == "header":
        lines[0] = ",".join("o_TMX" if name == "o_TM" else name for name in header)
    else:
        cells = lines[2].split(",")
        cells[header.index("v_LM")] = "nan"
        lines[2] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.alpha = 0.5\n")
    out_dir = tmp_path / "out"
    files = {"select": [], "loo": ["--config", str(config_file)],
             "sweep": ["--config", str(config_file), "--grid", str(grid)]}[command]
    code = main([command, "--data", str(bad), "--out-dir", str(out_dir), *files])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out_dir.exists()


def test_select_on_too_few_rows_to_fit_exits_validation_naming_the_file(tmp_path, data_file, capsys):
    small = tmp_path / "small.csv"
    small.write_text("\n".join(data_file.read_text().splitlines()[:5]) + "\n")  # header and 4 rows
    out_dir = tmp_path / "out"
    code = main(["select", "--data", str(small), "--lambda-mode", "cv", "--out-dir", str(out_dir)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {small}: need at least 5 rows for 5-fold CV\n"
    assert not out_dir.exists()


def test_coding_bug_exits_runtime_with_type_and_traceback(tmp_path, data_file, config_file, monkeypatch, capsys):
    def broken_augment(*args, **kwargs):
        raise TypeError("unexpected keyword 'K'")

    monkeypatch.setattr(gmm, "augment", broken_augment)
    code = main(["loo", "--data", str(data_file), "--config", str(config_file),
                 "--out-dir", str(tmp_path / "out"), "--variant", "full", "--movement", "left"])
    assert code == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "in broken_augment" in err
    assert err.rstrip().endswith("error: TypeError: unexpected keyword 'K'")


def test_loo_all_variants_fits_lasso_once_per_fold_and_movement(tmp_path, data_file, config_file, monkeypatch):
    calls = {"lasso": 0, "itml": 0}
    fit_lasso_, fit_itml_ = lasso.fit_lasso, itml.fit_itml

    def counted_lasso(*args, **kwargs):
        calls["lasso"] += 1
        return fit_lasso_(*args, **kwargs)

    def counted_itml(*args, **kwargs):
        calls["itml"] += 1
        return fit_itml_(*args, **kwargs)

    monkeypatch.setattr(lasso, "fit_lasso", counted_lasso)
    monkeypatch.setattr(itml, "fit_itml", counted_itml)
    out_dir = tmp_path / "all"
    assert main(["loo", "--data", str(data_file), "--config", str(config_file),
                 "--out-dir", str(out_dir), "--variant", "all", "--movement", "all"]) == EXIT_OK
    folds = (out_dir / "folds.csv").read_text().strip().splitlines()
    assert len(folds) == 1 + 3 * 3 * 3  # header + 3 folds x 3 movements x 3 variants
    assert calls == {"lasso": 3 * 3, "itml": 3 * 3}  # full and itml-gbbw share ITML


@pytest.mark.parametrize("line, message", [
    ("grid.alpha = 0.5, 1.5", "grid.alpha: alpha must be in [0, 1], got 1.5"),
    ("grid.alpha = nan", "grid.alpha: alpha must be in [0, 1], got nan"),
    ("grid.n_components = 0", "grid.n_components: GmmSettings: n_components must be >= 1, got 0"),
    ("grid.n_samples = 4, -1", "grid.n_samples: GmmSettings: n_samples must be >= 0, got -1"),
    ("grid.alpha =", "grid.alpha: no values"),
    ("grid.alpha = ,", "grid.alpha: no values"),
], ids=["alpha-above-1", "alpha-nan", "n-components-0", "n-samples-negative", "alpha-empty", "alpha-commas"])
def test_sweep_rejects_an_out_of_domain_grid_value_before_loading_data(
        tmp_path, data_file, monkeypatch, capsys, line, message):
    grid = tmp_path / "grid.cfg"
    grid.write_text(FAST_CONFIG + f"\n{line}\n")
    loads = []
    monkeypatch.setattr(cli, "load_table", lambda path: loads.append(path) or load_table(path))
    out_dir = tmp_path / "out"
    code = main(["sweep", "--data", str(data_file), "--grid", str(grid), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert loads == [] and not out_dir.exists()
    with pytest.raises(ConfigError, match=line.split(" ")[0]):
        apply_entries(parse_flat_file(grid), allow_grid=True)


def test_an_out_of_domain_config_value_names_the_file_whose_value_won_and_its_key(tmp_path, data_file, capsys):
    grid, override = tmp_path / "g.cfg", tmp_path / "c.cfg"
    grid.write_text(FAST_CONFIG + "\ngrid.alpha = 0.5\ngmm.n_init = 0\n")
    out_dir = tmp_path / "out"
    args = ["sweep", "--data", str(data_file), "--grid", str(grid), "--out-dir", str(out_dir)]
    assert main(args) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {grid}: gmm.n_init: GmmSettings: n_init must be >= 1, got 0\n"
    # --config overrides the grid file's key, so its file is the one named.
    override.write_text("gmm.n_init = -2\n")
    assert main(args + ["--config", str(override)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {override}: gmm.n_init: GmmSettings: n_init must be >= 1, got -2\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["loo", "sweep"])
def test_a_dataset_with_one_intersection_exits_validation(tmp_path, data_file, config_file, capsys, command):
    data = load_table(data_file)
    one = tmp_path / "one.csv"
    write_table(data.subset(data.intersection_ids == data.intersections()[0]), one)
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.alpha = 0.5\n")
    out_dir = tmp_path / "out"
    args = [command, "--data", str(one), "--config", str(config_file), "--out-dir", str(out_dir)]
    code = main(args + (["--grid", str(grid)] if command == "sweep" else []))
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err == f"error: {one}: leave-one-out needs at least 2 intersections\n"
    assert not out_dir.exists()

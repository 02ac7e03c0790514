"""Command-line front end: synthetic data, feature selection, evaluation, sweeps.

Every command writes its outputs atomically; all but ``synth`` then write a
manifest recording the configuration snapshot, master seed, schema version
and input digests. Exit codes: 0 success, 2 usage, 3 validation (bad flags,
config or data, or data too small to fit), 4 runtime failure (every fold of
a ``loo`` or every cell of a ``sweep`` failed, or an I/O error or coding bug,
printed with its traceback).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from . import lasso, runconfig
from .dataset import DataError, load_table, write_table
from .pipeline import (
    LAMBDA_MODES,
    VARIANTS,
    LassoSettings,
    PipelineConfig,
    ablation_sweep,
    leave_one_out,
    render_summary,
    select_lambda,
)
from .schema import MOVEMENTS, SCHEMA_VERSION
from .synth import generate_synthetic_network

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class ValidationFailure(Exception):
    pass


@contextmanager
def _atomic_path(path: Path):
    """Yield a temporary path beside ``path``; move it into place only if the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        yield Path(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, seed: int, config: dict,
                    inputs: list[str], outputs: list[Path], **ran) -> None:
    """``ran`` names what the command chose itself, such as the movements it ran."""
    manifest = {
        **ran,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "schema_version": SCHEMA_VERSION,
        "master_seed": seed,
        "config": config,
        "inputs": {str(Path(p)): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _write_outputs(out_dir: str, reports: dict[str, str], command: str, seed: int, config: dict,
                   inputs: list[str], **ran) -> list[Path]:
    """Write each named report atomically into ``out_dir``, then the manifest listing them."""
    outputs = [Path(out_dir) / name for name in reports]
    for path, text in zip(outputs, reports.values()):
        _atomic_write(path, text)
    _write_manifest(Path(out_dir), command, seed, config, inputs, outputs, **ran)
    return outputs


def _movements(arg: str) -> list[str]:
    return list(MOVEMENTS) if arg == "all" else [arg]


def _variants(arg: str) -> list[str]:
    return list(VARIANTS) if arg == "all" else [arg]


def _check_seed(seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ValidationFailure(f"--seed must be >= 0, got {seed}")


def _snapshot(config: PipelineConfig) -> dict:
    """The config as a manifest records it, less the movement and variant, which the command sets."""
    snapshot = asdict(config)
    del snapshot["movement"], snapshot["variant"]
    return snapshot


def _load_labeled(path: str, purpose: str):
    """The data file, loaded and labeled; load_table names the file in its own errors."""
    try:
        data = load_table(path)
    except (DataError, OSError) as exc:
        raise ValidationFailure(str(exc)) from exc
    if data.labels is None:
        raise ValidationFailure(f"{path}: {purpose} needs a labeled dataset")
    return data


def _loo_inputs(args):
    """The checked (base config, grid, data) of ``loo`` and ``sweep``.

    Flags first, then the config files, so that a bad flag, key or grid
    value fails before any data is read.
    """
    _check_seed(args.seed)
    if args.jobs < 1:
        raise ValidationFailure(f"--jobs must be >= 1, got {args.jobs}")
    grid_file = getattr(args, "grid", None)  # sweep only
    entries, sources = {}, {}
    try:
        # --config keys override the grid file's; the grid file's other keys still apply.
        for path in (grid_file, args.config):
            if path is not None:
                file_entries = runconfig.parse_flat_file(path)
                entries.update(file_entries)
                sources.update(dict.fromkeys(file_entries, path))
        base, grid = runconfig.apply_entries(entries, allow_grid=grid_file is not None, sources=sources)
    except (runconfig.ConfigError, OSError) as exc:
        raise ValidationFailure(str(exc)) from exc
    if args.seed is not None:
        base = replace(base, master_seed=args.seed)
    data = _load_labeled(args.data, "leave-one-out")
    if len(data.intersections()) < 2:
        raise ValidationFailure(f"{args.data}: leave-one-out needs at least 2 intersections")
    return base, grid, data


def _files_read(args) -> list[str]:
    """The data, grid and config files a ``loo`` or ``sweep`` read: the manifest's inputs."""
    return [path for path in (args.data, getattr(args, "grid", None), args.config) if path is not None]


def cmd_synth(args) -> int:
    _check_seed(args.seed)
    if args.n_intersections < 2:
        raise ValidationFailure("--n-intersections must be >= 2")
    if args.n_intervals < 1:
        raise ValidationFailure(f"--n-intervals must be >= 1, got {args.n_intervals}")
    try:  # the flags above are checked, so the generator can only reject the shift
        data = generate_synthetic_network(args.seed, args.n_intersections, args.shift, args.n_intervals)
    except ValueError as exc:
        raise ValidationFailure(f"--shift: {exc}") from exc
    out = Path(args.out)
    with _atomic_path(out) as tmp:
        write_table(data, tmp)
    print(f"wrote {data.n} rows ({args.n_intersections} intersections) to {out}")
    return EXIT_OK


def cmd_select(args) -> int:
    _check_seed(args.seed)
    if not 0 <= args.lambda_value < math.inf:  # NaN too
        raise ValidationFailure(f"--lambda-value must be finite and >= 0, got {args.lambda_value}")
    data = _load_labeled(args.data, "feature selection")
    seed = 0 if args.seed is None else args.seed
    settings = LassoSettings(lambda_mode=args.lambda_mode, lambda_value=args.lambda_value)
    movements = tuple(_movements(args.movement))
    models = {}
    try:
        for movement in movements:
            y = data.movement_labels(movement).astype(float)
            lam = select_lambda(data.X, y, settings, seed)
            models[movement] = lasso.fit_lasso(data.X, y, lam)
    except ValueError as exc:  # a typed fit failure, such as too few rows for CV: the data's fault
        raise ValidationFailure(f"{args.data}: {exc}") from exc
    [out] = _write_outputs(args.out_dir, {"coefficients.csv": lasso.coefficient_report(models, movements)},
                           "select", seed, {"lambda_mode": args.lambda_mode, "lambda_value": args.lambda_value},
                           [args.data])
    print(f"wrote {out}")
    return EXIT_OK


def cmd_loo(args) -> int:
    base, _, data = _loo_inputs(args)
    movements, variants = _movements(args.movement), _variants(args.variant)
    configs = [replace(base, movement=m, variant=v) for v in variants for m in movements]
    report = leave_one_out(data, configs, jobs=args.jobs)
    summary, folds = _write_outputs(
        args.out_dir, {"summary.csv": render_summary(report), "folds.csv": report.to_long_text()},
        "loo", base.master_seed, _snapshot(base), _files_read(args), movements=movements, variants=variants)
    failures = [r for r in report.rows if r.error is not None]
    print(f"wrote {summary} and {folds} ({len(report.rows)} rows, {len(failures)} failed)")
    if failures and len(failures) == len(report.rows):
        print("error: every fold failed; see folds.csv", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_sweep(args) -> int:
    base, grid, data = _loo_inputs(args)
    movements = _movements(args.movement)
    result = ablation_sweep(data, grid, [replace(base, movement=m) for m in movements], jobs=args.jobs)
    [out] = _write_outputs(args.out_dir, {"sweep.csv": result.to_text()}, "sweep", base.master_seed,
                           {"base": _snapshot(base), "grid": grid}, _files_read(args), movements=movements)
    skipped = sum(1 for c in result.cells if c.status == "skipped")
    failed = sum(1 for c in result.cells if c.status == "failed")
    print(f"wrote {out} ({len(result.cells)} cells, {skipped} skipped, {failed} failed)")
    if failed and failed == len(result.cells):
        print(f"error: every cell failed; first: {result.cells[0].reason}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcda",
        description="Turning-movement-count estimation with instance-based domain adaptation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic intersection network")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-intersections", type=int, default=6)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--n-intervals", type=int, default=96)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select", help="fit per-movement coefficients and emit the table")
    p.add_argument("--data", required=True)
    p.add_argument("--movement", choices=[*MOVEMENTS, "all"], default="all")
    p.add_argument("--lambda-mode", choices=LAMBDA_MODES, default="cv")
    p.add_argument("--lambda-value", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("loo", help="leave-one-intersection-out evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--movement", choices=[*MOVEMENTS, "all"], default="all")
    p.add_argument("--variant", choices=[*VARIANTS, "all"], default="all")
    p.set_defaults(func=cmd_loo)

    p = sub.add_parser("sweep", help="grid sweep over mixture size, samples and alpha")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--movement", choices=[*MOVEMENTS, "all"], default="all")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # not a failed fold: an I/O failure or a coding bug, so show where
        traceback.print_exc(file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

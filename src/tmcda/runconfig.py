"""Flat key-value run configuration files with dotted section keys.

Lines look like ``gmm.n_components = 4``; ``#`` starts a comment. Every
field of the four settings classes is a ``<section>.<field>`` key parsed by
its annotated type, so keys and fields cannot drift apart; one more key,
``seed``, sets ``PipelineConfig.master_seed``. Each command chooses the
movement and variant itself. Unknown keys are hard errors,
reported all at once so a sweep cannot silently run with a misspelled
setting.
"""

from __future__ import annotations

from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

from .boosting import TrainConfig
from .pipeline import GmmSettings, ItmlSettings, LassoSettings, PipelineConfig


class ConfigError(ValueError):
    """Invalid run configuration."""


_PARSERS = {
    int: int,
    float: float,
    str: str,
    int | None: lambda text: None if text.lower() == "none" else int(text),
}

_SECTIONS = {"lasso": LassoSettings, "itml": ItmlSettings, "gmm": GmmSettings, "boosting": TrainConfig}


def _derive_keys() -> dict:
    """key -> (section, field, parser), with each parser read off the field's annotation."""
    keys = {"seed": (None, "master_seed", int)}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            keys[f"{section}.{f.name}"] = (section, f.name, _PARSERS[hints[f.name]])
    return keys


_KEYS = _derive_keys()

_GRID_KEYS = {"grid.n_components": "gmm", "grid.n_samples": "gmm", "grid.alpha": "boosting"}  # -> section


def parse_flat_file(path: str | Path) -> dict[str, str]:
    """Read key = value lines; later duplicates override earlier ones."""
    entries: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return entries


def apply_entries(entries: dict[str, str], allow_grid: bool) -> tuple[PipelineConfig, dict]:
    """Build a configuration, and the sweep grid when ``allow_grid``, from parsed entries."""
    unknown = [k for k in entries if k not in _KEYS and not (allow_grid and k in _GRID_KEYS)]
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {sorted(unknown)}")

    sections = {section: {} for section in _SECTIONS}
    top = {}
    problems = []
    for key, text in entries.items():
        if key in _GRID_KEYS:
            continue
        section, fname, parser = _KEYS[key]
        try:
            value = parser(text)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if section is None:
            top[fname] = value
        else:
            sections[section][fname] = value
    if problems:
        raise ConfigError("; ".join(problems))

    try:
        config = PipelineConfig(
            **{section: cls(**sections[section]) for section, cls in _SECTIONS.items()},
            **top,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    grid = {}
    for key, section in _GRID_KEYS.items():
        if allow_grid and key in entries:
            axis = key.split(".", 1)[1]
            parser = float if axis == "alpha" else int
            try:
                grid[axis] = [parser(v.strip()) for v in entries[key].split(",") if v.strip()]
                for value in grid[axis]:    # each must be a valid setting: fail now, not once the sweep runs
                    replace(getattr(config, section), **{axis: value})
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            if not grid[axis]:
                raise ConfigError(f"{key}: no values")
    return config, grid


def load_config(path: str | Path | None) -> PipelineConfig:
    """Build a pipeline configuration from a flat file (defaults if None)."""
    if path is None:
        return PipelineConfig()
    config, _ = apply_entries(parse_flat_file(path), allow_grid=False)
    return config

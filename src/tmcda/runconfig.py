"""Flat key-value run configuration files with dotted section keys.

Lines look like ``gmm.n_components = 4``; ``#`` starts a comment. Every
field of the four settings classes is a ``<section>.<field>`` key parsed by
its annotated type, so keys and fields cannot drift apart; one more key,
``seed``, sets ``PipelineConfig.master_seed``. A sweep's grid file may
also hold ``grid.<axis> = v1, v2, ...`` for each axis of
``pipeline.GRID_AXES``. Each command chooses the
movement and variant itself. Unknown keys are hard errors,
reported all at once so a sweep cannot silently run with a misspelled
setting.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .boosting import TrainConfig
from .pipeline import GRID_AXES, GmmSettings, ItmlSettings, LassoSettings, PipelineConfig, grid_configs


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


def _list_of(kind):
    """Parser of a comma-separated list of ``kind`` values; blank items are dropped."""
    return lambda text: [kind(v) for v in text.split(",") if v.strip()]


# A sweep's grid.<axis> keys, one per axis of the pipeline's table: key -> ("grid", axis, parser)
_GRID_KEYS = {f"grid.{axis}": ("grid", axis, _list_of(kind)) for axis, (_, kind) in GRID_AXES.items()}


def parse_flat_file(path: str | Path) -> dict[str, str]:
    """Read key = value lines; later duplicates override earlier ones.

    Malformed lines are reported all at once, each under the file's name.
    """
    entries: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        entries[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return entries


def apply_entries(entries: dict[str, str], allow_grid: bool,
                  sources: dict[str, str] | None = None) -> tuple[PipelineConfig, dict]:
    """Build a configuration, and the sweep grid when ``allow_grid``, from parsed entries.

    Every value is checked, grid values by ``grid_configs``, before any data
    is read. A problem names its key, and the key's file when ``sources``
    maps the key to one; unknown keys are listed file by file.
    """
    keys = {**_KEYS, **_GRID_KEYS} if allow_grid else _KEYS
    unknown = sorted(k for k in entries if k not in keys)
    if unknown:
        prefixes = {}    # "<file>: ", or "" without sources -> its unknown keys
        for key in unknown:
            prefixes.setdefault(f"{sources[key]}: " if sources else "", []).append(key)
        raise ConfigError("; ".join(f"{prefix}unknown configuration key(s): {names}"
                                    for prefix, names in prefixes.items()))

    parsed = {section: {} for section in (None, *_SECTIONS, "grid")}
    problems = []    # (key, a message that names it)
    for key, text in entries.items():
        section, fname, parser = keys[key]
        try:
            parsed[section][fname] = value = parser(text)
            if section != "grid":    # every settings check is on one field; "seed" is PipelineConfig's
                _SECTIONS.get(section, PipelineConfig)(**{fname: value})
        except ValueError as exc:
            problems.append((key, f"{key}: {exc}"))
    grid = parsed.pop("grid")
    if not problems:
        config = PipelineConfig(
            **{section: cls(**parsed[section]) for section, cls in _SECTIONS.items()},
            **parsed[None],
        )
        for axis, values in grid.items():
            try:
                grid_configs(config, {axis: values})
            except ValueError as exc:    # its message names the key
                problems.append((f"grid.{axis}", str(exc)))
    if problems:
        raise ConfigError("; ".join(f"{sources[key]}: {text}" if sources else text for key, text in problems))
    return config, grid

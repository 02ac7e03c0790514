import string
from dataclasses import fields, replace
from typing import get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tmcda.pipeline import LAMBDA_MODES, PipelineConfig
from tmcda.runconfig import _KEYS, ConfigError, apply_entries, parse_flat_file

SECTIONS = ("lasso", "itml", "gmm", "boosting")
TOP_LEVEL_FIELDS = ("master_seed",)


def _field_type(section, name):
    owner = PipelineConfig if section is None else type(getattr(PipelineConfig(), section))
    return get_type_hints(owner)[name]


def test_every_settings_field_has_exactly_one_key():
    default = PipelineConfig()
    expected = [(None, name) for name in TOP_LEVEL_FIELDS]
    expected += [(s, f.name) for s in SECTIONS for f in fields(getattr(default, s))]
    declared = [(section, name) for section, name, _ in _KEYS.values()]
    assert sorted(declared, key=str) == sorted(expected, key=str)
    for key, (section, name, _) in _KEYS.items():
        if section is not None:
            assert key == f"{section}.{name}"


def test_the_config_keys_are_exactly_these_nineteen():
    # Every key is an option a run can set. Adding or dropping one is a
    # deliberate change: edit this list with it.
    assert sorted(_KEYS) == [
        "boosting.alpha", "boosting.max_depth", "boosting.min_samples_leaf", "boosting.n_stages",
        "boosting.shrinkage",
        "gmm.n_components", "gmm.n_init", "gmm.n_samples",
        "itml.max_constraints", "itml.max_passes", "itml.n_candidates",
        "lasso.cv_folds", "lasso.cv_grid_size", "lasso.lam_min_ratio", "lasso.lambda_mode",
        "lasso.lambda_value", "lasso.max_sweeps", "lasso.tol",
        "seed",
    ]


_ints = st.integers(-10**6, 10**6).map(lambda v: (v, str(v)))
# NaN is drawn too: every float setting must reject it, or the equality below fails.
_floats = st.floats(allow_infinity=False).map(lambda v: (v, repr(v)))
_none = st.sampled_from(["none", "None", "NONE"]).map(lambda text: (None, text))
_words = st.text(alphabet=string.ascii_letters + string.digits + "-_.:/ ", min_size=1).map(str.strip).filter(bool)
_STRATEGIES = {
    int: _ints,
    float: _floats,
    str: st.one_of(st.sampled_from(LAMBDA_MODES), _words).map(lambda v: (v, v)),
    int | None: st.one_of(_none, _ints),
}


@st.composite
def _entries(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_KEYS)), unique=True, max_size=6))
    return {key: draw(_STRATEGIES[_field_type(*_KEYS[key][:2])]) for key in keys}


@given(entries=_entries())
def test_values_written_as_key_value_load_back_into_their_fields(tmp_path_factory, entries):
    expected = PipelineConfig()
    try:
        for key, (value, _) in entries.items():
            section, name, _ = _KEYS[key]
            if section is None:
                expected = replace(expected, **{name: value})
            else:
                updated = replace(getattr(expected, section), **{name: value})
                expected = replace(expected, **{section: updated})
    except ValueError:  # a value the settings class itself rejects
        expected = None

    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, (_, text) in entries.items()))
    if expected is None:
        with pytest.raises(ConfigError):
            apply_entries(parse_flat_file(path), allow_grid=False)
    else:
        assert apply_entries(parse_flat_file(path), allow_grid=False) == (expected, {})

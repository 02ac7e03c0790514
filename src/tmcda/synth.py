"""Synthetic intersection-network generator for desk-scale experiments.

Counts are drawn from a fixed, documented label function: a linear form over
six event features plus one pairwise interaction, exponentiated into a
Poisson rate. Per-intersection drift of both the feature distributions (via a
busy factor) and the label coefficients scales linearly with
``shift_strength``, so zero shift makes every intersection identically
distributed. Everything is deterministic given the seed.

Each thing is written once. ``_intersections`` is the one place an
intersection's generator is made and its drift drawn and scaled;
``label_coefficients`` and ``generate_synthetic_network`` both read the
drift from it. ``_poisson_rates`` is the one place the label function is
written. A row's draws go into one mapping keyed by column name, which is
then read in ``COLUMNS`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .schema import APPROACHES, COLUMNS, check_count

# Features entering the label function, with fixed scale constants mapping
# raw values to O(1) magnitudes. The interaction term multiplies the scaled
# left-turn occupancy and permissive-green features.
LABEL_FEATURES = ("o_TM", "d_TM", "g_TM", "o_LM", "p_LM", "m_TM")
LABEL_SCALES = np.array([300.0, 40.0, 300.0, 120.0, 60.0, 10.0])
INTERACTION_PAIR = ("o_LM", "p_LM")

_LABEL_COLUMNS = [[c.name for c in COLUMNS].index(name) for name in LABEL_FEATURES]
_INTERACTION = [LABEL_FEATURES.index(name) for name in INTERACTION_PAIR]

# The label function at zero shift, one row per movement in MOVEMENTS order
# (left, through, right).
_BASE_INTERCEPT = np.array([3.0, 3.6, 3.2])
_BASE_WEIGHTS = np.array([
    [0.20, 0.15, 0.10, 0.70, 0.40, -0.15],
    [0.70, 0.45, 0.30, 0.05, 0.05, -0.20],
    [0.35, 0.25, 0.10, 0.20, 0.10, -0.15],
])
_BASE_INTERACTION = np.array([0.60, 0.35, 0.35])

# |log_busy| <= 0.7 * shift, so the largest Poisson mean drawn from the busy
# factor is 40 * 1.25 * e^(0.7 * 50) ~ 8e16, below the ~9.2e18 that numpy's
# Poisson sampler accepts; larger shifts can make it raise.
MAX_SHIFT_STRENGTH = 50.0

_PEAK_HOURS = (7, 8, 16, 17)
_RATE_CAP = np.log(200.0)
_RATE_FLOOR = np.log(0.5)

# Lane-count columns of an approach and the range each is drawn from.
_LANES = {"l_SL": (0, 2), "l_EL": (0, 3), "l_TL": (1, 4), "l_ER": (0, 2), "l_SR": (0, 2)}


@dataclass(frozen=True)
class IntersectionCoefficients:
    """Ground-truth generating parameters, exposed for verification.

    ``log_busy[k]`` shifts intersection k's feature distributions;
    ``weights[k, m]`` / ``intercepts[k, m]`` / ``interactions[k, m]`` define
    movement m's Poisson log-rate at intersection k. All drift terms are
    exactly linear in ``shift_strength``.
    """

    shift_strength: float
    log_busy: np.ndarray
    intercepts: np.ndarray
    weights: np.ndarray
    interactions: np.ndarray


def _intersections(
    seed: int, n_intersections: int, shift_strength: float,
) -> tuple[list[np.random.Generator], IntersectionCoefficients]:
    """Each intersection's generator, positioned after its drift draws, and the coefficients that drift gives."""
    check_count("n_intersections", n_intersections, 2)
    if not 0 <= shift_strength < np.inf:  # NaN fails too
        raise ValueError(f"shift_strength must be finite and >= 0, got {shift_strength}")
    if shift_strength > MAX_SHIFT_STRENGTH:
        raise ValueError(f"shift_strength must be <= {MAX_SHIFT_STRENGTH:g}, got {shift_strength}")
    rngs, drifts = [], []
    for k in range(n_intersections):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        # Busy-factor drift dominates (covariate shift between intersections);
        # the label function itself drifts only mildly. Bounded busy drift keeps
        # the held-out intersection within matching range of its neighbors.
        drifts.append((
            shift_strength * rng.uniform(-0.7, 0.7),
            _BASE_INTERCEPT + shift_strength * rng.normal(0.0, 0.04, size=3),
            _BASE_WEIGHTS * (1.0 + shift_strength * rng.normal(0.0, 0.06, size=(3, 6))),
            _BASE_INTERACTION * (1.0 + shift_strength * rng.normal(0.0, 0.06, size=3)),
        ))
        rngs.append(rng)
    return rngs, IntersectionCoefficients(shift_strength, *(np.array(d, dtype=float) for d in zip(*drifts)))


def label_coefficients(seed: int, n_intersections: int, shift_strength: float) -> IntersectionCoefficients:
    """Recompute the per-intersection generating coefficients."""
    return _intersections(seed, n_intersections, shift_strength)[1]


def _poisson_rates(z: np.ndarray, coef: IntersectionCoefficients, k: int) -> np.ndarray:
    """Movement Poisson rates at intersection k for one row of scaled label features z (length 6)."""
    z_int = z[_INTERACTION[0]] * z[_INTERACTION[1]]
    log_rate = coef.intercepts[k] + coef.weights[k] @ z + coef.interactions[k] * z_int
    return np.exp(np.clip(log_rate, _RATE_FLOOR, _RATE_CAP))


def generate_synthetic_network(
    seed: int,
    n_intersections: int,
    shift_strength: float,
    n_intervals: int,
) -> Dataset:
    """Generate a labeled multi-intersection dataset.

    Each intersection contributes ``n_intervals`` rows cycling through the
    four approaches and the peak hours. Identical arguments always produce a
    bit-identical dataset.
    """
    rngs, coef = _intersections(seed, n_intersections, shift_strength)
    check_count("n_intervals", n_intervals, 1)
    n_rows = n_intersections * n_intervals
    ids = np.repeat(np.array([f"I{k:02d}" for k in range(n_intersections)], dtype=object), n_intervals)
    intervals = np.tile(np.arange(n_intervals, dtype=np.int64), n_intersections)
    approaches = np.array(APPROACHES, dtype=object)[intervals % 4]
    X = np.zeros((n_rows, len(COLUMNS)))
    labels = np.zeros((n_rows, 3), dtype=np.int64)

    for k, rng in enumerate(rngs):
        busy = np.exp(coef.log_busy[k])
        # Static layout: major axis, lanes and signal type per approach, POI.
        major_ns = rng.random() < 0.5
        lanes = {a: {name: int(rng.integers(*bounds)) for name, bounds in _LANES.items()} for a in APPROACHES}
        left_types = {a: int(rng.integers(1, 4)) for a in APPROACHES}
        poi = {"e_POIE": int(np.round(rng.lognormal(5.3, 0.5))), "e_POIC": 1 + int(rng.poisson(10))}
        layout = {a: {**lanes[a], **poi, "road_type": 1 if (a in ("NB", "SB")) == major_ns else 2,
                      "left_turn_type": left_types[a], "direction": d} for d, a in enumerate(APPROACHES, 1)}

        for t in range(n_intervals):
            row = k * n_intervals + t
            bm = busy * (1.0 + 0.25 * np.sin(2.0 * np.pi * t / 16.0))
            f = {**layout[APPROACHES[t % 4]], "h_MOH": t % 4 + 1, "h_HOD": _PEAK_HOURS[(t // 4) % 4]}
            f["o_TM"] = min(rng.gamma(4.0, 45.0 * bm), 880.0)
            f["d_TM"] = int(rng.poisson(40.0 * bm))
            f["g_TM"] = float(np.clip(rng.normal(300.0 * min(busy, 1.6), 45.0), 60.0, 750.0))
            f["c_TM"] = 4 + int(rng.poisson(11.0))
            f["m_TM"] = float(np.clip(rng.normal(12.0 / bm, 2.0), 0.5, 60.0))
            f["s_TM"] = abs(rng.normal(0.6, 0.2)) * f["m_TM"]
            f["o_LM"] = min(rng.gamma(3.0, 30.0 * bm), 880.0)
            f["d_LM"] = int(rng.poisson(12.0 * bm))
            f["g_LM"] = float(np.clip(rng.normal(80.0, 15.0), 10.0, 300.0))
            f["c_LM"] = 3 + int(rng.poisson(9.0))
            f["m_LM"] = float(np.clip(rng.normal(25.0 / bm, 5.0), 0.5, 120.0))
            f["s_LM"] = abs(rng.normal(0.7, 0.25)) * f["m_LM"]
            # Independent of the per-approach signal type so that label
            # distributions are identical across intersections at zero shift.
            f["p_LM"] = rng.exponential(40.0)

            X[row] = [f[c.name] for c in COLUMNS]
            labels[row] = rng.poisson(_poisson_rates(X[row, _LABEL_COLUMNS] / LABEL_SCALES, coef, k))

    return Dataset(ids, approaches, intervals, X, labels)

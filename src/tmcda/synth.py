"""Synthetic intersection-network generator for desk-scale experiments.

Counts are drawn from a fixed, documented label function: a linear form over
six event features plus one pairwise interaction, exponentiated into a
Poisson rate. Per-intersection drift of both the feature distributions (via a
busy factor) and the label coefficients scales linearly with
``shift_strength``, so zero shift makes every intersection identically
distributed. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .schema import APPROACHES, COLUMNS, MOVEMENTS

# Features entering the label function, with fixed scale constants mapping
# raw values to O(1) magnitudes. The interaction term multiplies the scaled
# left-turn occupancy and permissive-green features.
LABEL_FEATURES = ("o_TM", "d_TM", "g_TM", "o_LM", "p_LM", "m_TM")
LABEL_SCALES = np.array([300.0, 40.0, 300.0, 120.0, 60.0, 10.0])
INTERACTION_PAIR = ("o_LM", "p_LM")

_BASE_INTERCEPT = {"left": 3.0, "through": 3.6, "right": 3.2}
_BASE_WEIGHTS = {
    "left": np.array([0.20, 0.15, 0.10, 0.70, 0.40, -0.15]),
    "through": np.array([0.70, 0.45, 0.30, 0.05, 0.05, -0.20]),
    "right": np.array([0.35, 0.25, 0.10, 0.20, 0.10, -0.15]),
}
_BASE_INTERACTION = {"left": 0.60, "through": 0.35, "right": 0.35}

# |log_busy| <= 0.7 * shift, so the largest Poisson mean drawn from the busy
# factor is 40 * 1.25 * e^(0.7 * 50) ~ 8e16, below the ~9.2e18 that numpy's
# Poisson sampler accepts; larger shifts can make it raise.
MAX_SHIFT_STRENGTH = 50.0

_PEAK_HOURS = (7, 8, 16, 17)
_RATE_CAP = np.log(200.0)
_RATE_FLOOR = np.log(0.5)


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


def _intersection_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, k)))


def _draw_drift(rng: np.random.Generator) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    # Busy-factor drift dominates (covariate shift between intersections);
    # the label function itself drifts only mildly. Bounded busy drift keeps
    # the held-out intersection within matching range of its neighbors.
    log_busy_unit = rng.uniform(-0.7, 0.7)
    intercept_unit = rng.normal(0.0, 0.04, size=3)
    weight_unit = rng.normal(0.0, 0.06, size=(3, 6))
    interaction_unit = rng.normal(0.0, 0.06, size=3)
    return log_busy_unit, intercept_unit, weight_unit, interaction_unit


def label_coefficients(seed: int, n_intersections: int, shift_strength: float) -> IntersectionCoefficients:
    """Recompute the per-intersection generating coefficients."""
    if n_intersections < 2:
        raise ValueError("n_intersections must be >= 2")
    if not 0 <= shift_strength < np.inf:  # NaN fails too
        raise ValueError(f"shift_strength must be finite and >= 0, got {shift_strength}")
    if shift_strength > MAX_SHIFT_STRENGTH:
        raise ValueError(f"shift_strength must be <= {MAX_SHIFT_STRENGTH:g}, got {shift_strength}")
    log_busy = np.empty(n_intersections)
    intercepts = np.empty((n_intersections, 3))
    weights = np.empty((n_intersections, 3, 6))
    interactions = np.empty((n_intersections, 3))
    base_w = np.stack([_BASE_WEIGHTS[m] for m in MOVEMENTS])
    base_b = np.array([_BASE_INTERCEPT[m] for m in MOVEMENTS])
    base_i = np.array([_BASE_INTERACTION[m] for m in MOVEMENTS])
    for k in range(n_intersections):
        rng = _intersection_rng(seed, k)
        lb, ib, wb, xb = _draw_drift(rng)
        log_busy[k] = shift_strength * lb
        intercepts[k] = base_b + shift_strength * ib
        weights[k] = base_w * (1.0 + shift_strength * wb)
        interactions[k] = base_i * (1.0 + shift_strength * xb)
    return IntersectionCoefficients(shift_strength, log_busy, intercepts, weights, interactions)


def _poisson_rates(z: np.ndarray, coef: IntersectionCoefficients, k: int) -> np.ndarray:
    """Movement log-rates for one row of scaled label features z (length 6)."""
    z_int = z[LABEL_FEATURES.index(INTERACTION_PAIR[0])] * z[LABEL_FEATURES.index(INTERACTION_PAIR[1])]
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
    coef = label_coefficients(seed, n_intersections, shift_strength)
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    col = {c.name: i for i, c in enumerate(COLUMNS)}
    label_idx = [col[name] for name in LABEL_FEATURES]

    n_rows = n_intersections * n_intervals
    ids = np.empty(n_rows, dtype=object)
    approaches = np.empty(n_rows, dtype=object)
    intervals = np.empty(n_rows, dtype=np.int64)
    X = np.zeros((n_rows, len(COLUMNS)))
    labels = np.zeros((n_rows, 3), dtype=np.int64)

    row = 0
    for k in range(n_intersections):
        rng = _intersection_rng(seed, k)
        _draw_drift(rng)  # consume the drift draws; values come from coef
        busy = np.exp(coef.log_busy[k])

        # Static layout: major axis, lanes and signal type per approach, POI.
        major_ns = rng.random() < 0.5
        lanes = {}
        for a in APPROACHES:
            lanes[a] = (
                int(rng.integers(0, 2)),   # shared left
                int(rng.integers(0, 3)),   # exclusive left
                int(rng.integers(1, 4)),   # through
                int(rng.integers(0, 2)),   # exclusive right
                int(rng.integers(0, 2)),   # shared right
            )
        left_types = {a: int(rng.integers(1, 4)) for a in APPROACHES}
        poi_employees = int(np.round(rng.lognormal(5.3, 0.5)))
        poi_categories = 1 + int(rng.poisson(10))

        for t in range(n_intervals):
            approach = APPROACHES[t % 4]
            hod = _PEAK_HOURS[(t // 4) % 4]
            moh = t % 4 + 1
            wave = 1.0 + 0.25 * np.sin(2.0 * np.pi * t / 16.0)
            bm = busy * wave
            major = (approach in ("NB", "SB")) == major_ns

            o_tm = min(rng.gamma(4.0, 45.0 * bm), 880.0)
            d_tm = int(rng.poisson(40.0 * bm))
            g_tm = float(np.clip(rng.normal(300.0 * min(busy, 1.6), 45.0), 60.0, 750.0))
            c_tm = 4 + int(rng.poisson(11.0))
            m_tm = float(np.clip(rng.normal(12.0 / bm, 2.0), 0.5, 60.0))
            s_tm = abs(rng.normal(0.6, 0.2)) * m_tm
            o_lm = min(rng.gamma(3.0, 30.0 * bm), 880.0)
            d_lm = int(rng.poisson(12.0 * bm))
            g_lm = float(np.clip(rng.normal(80.0, 15.0), 10.0, 300.0))
            c_lm = 3 + int(rng.poisson(9.0))
            m_lm = float(np.clip(rng.normal(25.0 / bm, 5.0), 0.5, 120.0))
            s_lm = abs(rng.normal(0.7, 0.25)) * m_lm
            # Independent of the per-approach signal type so that label
            # distributions are identical across intersections at zero shift.
            p_lm = rng.exponential(40.0)

            feats = np.zeros(len(COLUMNS))
            feats[col["o_TM"]] = o_tm
            feats[col["d_TM"]] = d_tm
            feats[col["g_TM"]] = g_tm
            feats[col["c_TM"]] = c_tm
            feats[col["m_TM"]] = m_tm
            feats[col["s_TM"]] = s_tm
            feats[col["o_LM"]] = o_lm
            feats[col["d_LM"]] = d_lm
            feats[col["g_LM"]] = g_lm
            feats[col["c_LM"]] = c_lm
            feats[col["m_LM"]] = m_lm
            feats[col["s_LM"]] = s_lm
            feats[col["p_LM"]] = p_lm
            feats[col["l_SL"]], feats[col["l_EL"]], feats[col["l_TL"]], feats[col["l_ER"]], feats[col["l_SR"]] = lanes[approach]
            feats[col["e_POIE"]] = poi_employees
            feats[col["e_POIC"]] = poi_categories
            feats[col["road_type"]] = 1 if major else 2
            feats[col["left_turn_type"]] = left_types[approach]
            feats[col["direction"]] = APPROACHES.index(approach) + 1
            feats[col["h_MOH"]] = moh
            feats[col["h_HOD"]] = hod

            z = feats[label_idx] / LABEL_SCALES
            rates = _poisson_rates(z, coef, k)
            labels[row] = rng.poisson(rates)

            ids[row] = f"I{k:02d}"
            approaches[row] = approach
            intervals[row] = t
            X[row] = feats
            row += 1

    return Dataset(ids, approaches, intervals, X, labels)

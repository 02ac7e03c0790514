"""Gradient boosting over regression trees with balanced domain weighting.

The balanced variant trains on a labeled source set and a pseudo-target set,
weighting every source instance by (1 - alpha) and every pseudo-target
instance by alpha inside the loss. The constant initializer and the
per-stage residual fit use those weights. At alpha = 0 and alpha = 1 the fit
is standard gradient boosting, ``fit_gradient_boosting``, on the source set
alone and on the pseudo-target set alone.

The loss is squared error only, the case gradient boosting (Friedman 2001,
*Greedy function approximation*) reduces to least-squares residual fitting
with a closed-form stage multiplier. A fit updates F, r = y - F and the stage
tree's leaf values h in place.

Every stage, at every ``max_depth``, is one ``tree.fit_tree`` call on the
fit's ``SplitPlan``, which writes h and the stage's tree, and one update
F += shrinkage * h. A stump fit (``max_depth`` 1, the paper's 60-stage
setting) searches only the plan's root, which every stage shares.

That multiplier is sum(w r h) / sum(w h^2), and it is 1: each leaf's value
is the weighted mean of its rows' residuals, WR_L / W_L, so both sums equal
sum over leaves of WR_L^2 / W_L (h is 0 everywhere only if every leaf mean
is, and the stage then adds 0 either way). A fit therefore takes no line
search: each stage adds shrinkage * h, and a model is f0 plus its stage
trees, each added at ``shrinkage``. Computed leaf means are within rounding
of the exact ones, so a stage's F differs from the line-searched one by at
most shrinkage * |gamma - 1| * |h|, with |gamma - 1| of order 1e-14; where
sum(w h^2) underflows, the line search would read 0 for an h below 1e-150.
``compute_gamma`` is kept as the reference the tests check this against.

A fit allocates the model's ``tree.Forest`` once, at the depth of its
plan's trees and with every split slot padding, and each stage's
``fit_tree`` call writes that stage's tree straight into its row, so the
fit keeps no other copy of its trees. A 200-stage depth-3 fit on 104 rows
of 6 features peaks 748 KB above its start, traced, and its model keeps
44 KB, 34 KB of it the forest's arrays. ``predict`` finds every (stage, row)
pair's leaf at once, and a cumulative sum along the stage axis then adds
f0 and each stage's shrinkage * leaf value in stage order, the same
additions as adding one tree's output at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import check_samples, count_problem, real_problem, refuse
from .tree import Forest, SplitPlan, check_depth, fit_tree


@dataclass(frozen=True)
class TrainConfig:
    """Boosting settings; ``max_depth`` is an integer from 0 to ``tree.MAX_DEPTH``, 10."""

    n_stages: int = 200
    max_depth: int = 3
    min_samples_leaf: int = 2
    shrinkage: float = 0.1
    alpha: float = 0.5

    def __post_init__(self):
        refuse((
            count_problem("n_stages", self.n_stages, 0),
            count_problem("min_samples_leaf", self.min_samples_leaf, 1),
            real_problem("shrinkage", self.shrinkage, 0, 1, "(]"),
            real_problem("alpha", self.alpha, 0, 1),
        ))
        check_depth(self.max_depth)


@dataclass(frozen=True)
class BoostedModel:
    """f0 plus one regression tree per stage, each added at ``shrinkage``.

    The model predicts f0 + shrinkage * h_1(x) + ... + shrinkage * h_M(x),
    added in stage order. Row t of ``forest`` is stage t's tree, and the
    model keeps nothing else of them (see the module docstring); a tree
    that splits on a feature at or past ``n_features`` raises ValueError
    here.
    """

    f0: float
    forest: Forest
    shrinkage: float
    n_features: int
    loss_trace: tuple[float, ...] = ()

    def __post_init__(self):
        if np.any(self.forest.feature >= self.n_features):
            raise ValueError(f"a tree splits on a feature at or past n_features = {self.n_features}")

    @property
    def n_stages(self) -> int:
        return len(self.forest.value)


def compute_gamma(F_prev: np.ndarray, h: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Closed-form weighted line search for the stage multiplier.

    For squared loss the optimum is sum(w*r*h) / sum(w*h^2) with r = y - F;
    a zero denominator (h identically zero on weighted support) yields 0.
    ``_boost`` does not call it: a stage tree's leaf means make it 1 (see
    the module docstring), and it stays as the reference for that identity.
    """
    F_prev = np.asarray(F_prev, dtype=float)
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    denom = float(w.dot(h * h))
    if denom == 0.0:
        return 0.0
    return float(w.dot((y - F_prev) * h)) / denom


def _weighted_loss(w: np.ndarray, r: np.ndarray) -> float:
    """The loss sum(w * r^2) / 2, as 0.5 * w.dot(r * r).

    It is the double w.dot(0.5 * r ** 2) reads, halving being exact, while
    every nonzero r^2, w * r^2 and partial sum of the dot is at least
    2^-1021 (half of it is still a normal double) and the total is finite.
    Below that the halved terms round on their own; past it the total
    overflows where the halved one may not.
    """
    return 0.5 * float(w.dot(r * r))


def _boost(X: np.ndarray, y: np.ndarray, w: np.ndarray, config: TrainConfig) -> BoostedModel:
    f0 = float(w @ y / w.sum())
    F = np.full(len(y), f0)
    r = y - F
    h = np.zeros(len(y))
    trace = [_weighted_loss(w, r)]
    plan = SplitPlan.build(X, w, config.min_samples_leaf)
    shrinkage = config.shrinkage
    forest = Forest.padded(config.n_stages, plan.depth(config.max_depth))
    for t in range(config.n_stages):
        fit_tree(plan, r, leaf_values=h, out=forest.tree(t))
        F += shrinkage * h
        np.subtract(y, F, out=r)
        trace.append(_weighted_loss(w, r))
    return BoostedModel(f0=f0, forest=forest, shrinkage=shrinkage, n_features=X.shape[1], loss_trace=tuple(trace))


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, config: TrainConfig) -> BoostedModel:
    """Standard gradient boosting: uniform unit weights on one training set.

    ``X`` and ``y`` that fail ``schema.check_samples`` raise ValueError.
    """
    X, y = check_samples(X, y)
    return _boost(X, y, np.ones(len(y)), config)


def fit_gbbw(
    source_X: np.ndarray,
    source_y: np.ndarray,
    target_X: np.ndarray,
    target_y: np.ndarray,
    config: TrainConfig,
) -> BoostedModel:
    """Balanced-weighting gradient boosting over source and pseudo-target sets.

    Instance weights are (1 - alpha) on source rows and alpha on pseudo-target
    rows. At the boundaries the irrelevant set is excluded outright: the
    alpha = 0 model is ``fit_gradient_boosting`` on the source set, whatever
    the pseudo-target contents, and the alpha = 1 model that on the
    pseudo-target set. An empty pseudo-target set is valid only at alpha = 0.
    At every alpha, before any fit, both sets must pass
    ``schema.check_samples`` (the source set with at least one row) and
    have the same column count, or raise ValueError: an excluded set is
    checked too.
    """
    source_X, source_y = check_samples(source_X, source_y, names=("source_X", "source_y"))
    target_X, target_y = check_samples(target_X, target_y, least=0, names=("target_X", "target_y"))
    if source_X.shape[1] != target_X.shape[1]:
        raise ValueError(f"source_X has shape {source_X.shape} and target_X has shape {target_X.shape}; "
                         f"both sets need the same number of columns")
    n1, n2 = len(source_y), len(target_y)
    alpha = config.alpha
    if n2 == 0 and alpha > 0.0:
        raise ValueError(f"an empty pseudo-target set is only valid with alpha = 0, got alpha = {alpha}")
    if alpha == 0.0:
        return fit_gradient_boosting(source_X, source_y, config)
    if alpha == 1.0:
        return fit_gradient_boosting(target_X, target_y, config)
    X = np.vstack([source_X, target_X])
    y = np.concatenate([source_y, target_y])
    w = np.concatenate([np.full(n1, 1.0 - alpha), np.full(n2, alpha)])
    return _boost(X, y, w, config)


def predict(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the staged additive model, unclamped: the pipeline clamps counts at zero.

    Finds every stage's leaves at once in the forest (see the module docstring).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got shape {X.shape}")
    forest = model.forest
    # cumsum adds sequentially: ((f0 + c_1) + c_2) + ..., as a loop over stages would.
    terms = np.concatenate([np.full((1, len(X)), model.f0), model.shrinkage * forest.value.take(forest.leaves(X))])
    return np.cumsum(terms, axis=0)[-1]

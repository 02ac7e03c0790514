"""Gradient boosting over regression trees with balanced domain weighting.

The balanced variant trains on a labeled source set and a pseudo-target set,
weighting every source instance by (1 - alpha) and every pseudo-target
instance by alpha inside the loss. The constant initializer, the per-stage
residual fit and the stage multiplier all use those weights; alpha = 0
reduces exactly to standard gradient boosting on the source set alone, and
alpha = 1 trains on the pseudo-target set alone.

The loss is squared error only, the case gradient boosting (Friedman 2001,
*Greedy function approximation*) reduces to least-squares residual fitting
with a closed-form stage multiplier. A fit updates F, r = y - F and the stage
tree's leaf values h in place; no tree writes h at a zero-weight row.

That multiplier is sum(w r h) / sum(w h^2), and it is 1: each leaf's value
is the weighted mean of its rows' residuals, WR_L / W_L, so both sums equal
sum over leaves of WR_L^2 / W_L (h is 0 everywhere only if every leaf mean
is, and the stage then adds 0 either way). A fit therefore takes no line
search: it adds shrinkage * h and records 1.0 as each stage's multiplier.
Computed leaf means are within rounding of the exact ones, so a stage's F
differs from the line-searched one by at most shrinkage * |gamma - 1| * |h|,
with |gamma - 1| of order 1e-14; where sum(w h^2) underflows, the line
search would read 0 for an h below 1e-150. ``compute_gamma`` is kept as
the reference the tests check this against.

A model stacks its trees once, when it is constructed: one node table with
every stage's nodes laid end to end, children renumbered into it, each leaf
its own child, and each node's stage contribution (shrinkage * gamma) *
value. ``predict`` walks all (stage, row) pairs down that table at once, one
level per step, until each sits at a leaf; the table, not the config's
``max_depth``, decides when the walk ends. A cumulative sum along the stage
axis then adds f0 and the contributions in stage order, the same additions
as adding one tree's output at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .tree import _LEAF, RegressionTree, SplitPlan, fit_tree


@dataclass(frozen=True)
class TrainConfig:
    n_stages: int = 200
    max_depth: int = 3
    min_samples_leaf: int = 2
    shrinkage: float = 0.1
    alpha: float = 0.5

    def __post_init__(self):
        if self.n_stages < 0:
            raise ValueError("n_stages must be >= 0")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ValueError("shrinkage must be in (0, 1]")


@dataclass(frozen=True)
class BoostedModel:
    """Constant initializer plus M stages of (multiplier, tree).

    Constructing a model also stacks its trees into one node table for
    ``predict``; a tree that splits on a feature at or past ``n_features``
    raises ValueError here.
    """

    f0: float
    stages: tuple[tuple[float, RegressionTree], ...]
    shrinkage: float
    alpha: float
    n_features: int
    loss_trace: tuple[float, ...] = ()
    _table: _StackedTrees = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", _StackedTrees.build(self))

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class _StackedTrees:
    """Every stage's node table laid end to end, with children as table rows.

    A leaf is its own left and right child, so a walk that moves every
    (stage, row) pair one level per step leaves finished pairs in place.
    ``contribution`` is each node's ``(shrinkage * gamma) * value``.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    contribution: np.ndarray

    @classmethod
    def build(cls, model: "BoostedModel") -> "_StackedTrees":
        trees = [tree for _, tree in model.stages]

        def column(name, dtype):
            return np.fromiter(chain.from_iterable(getattr(tree, name) for tree in trees), dtype=dtype)

        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        feature = column("feature", np.intp)
        if np.any(feature >= model.n_features):
            raise ValueError(f"a tree splits on a feature at or past n_features = {model.n_features}")
        leaf = feature == _LEAF
        offset = np.repeat(roots, sizes)
        at = np.arange(len(feature))
        scale = np.repeat([model.shrinkage * gamma for gamma, _ in model.stages], sizes)
        return cls(
            roots=roots,
            feature=feature,
            threshold=column("threshold", float),
            left=np.where(leaf, at, offset + column("left", np.intp)),
            right=np.where(leaf, at, offset + column("right", np.intp)),
            contribution=scale * column("value", float),
        )


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


def _boost(X: np.ndarray, y: np.ndarray, w: np.ndarray, config: TrainConfig, alpha: float) -> BoostedModel:
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in inputs")
    f0 = float(w @ y / w.sum())
    F = np.full(len(y), f0)
    r = y - F
    h = np.zeros(len(y))
    stages = []
    trace = [float(w.dot(0.5 * r ** 2))]
    plan = SplitPlan.build(X, w, config.min_samples_leaf)
    for _ in range(config.n_stages):
        tree = fit_tree(plan, r, config.max_depth, leaf_values=h)
        F += config.shrinkage * h
        np.subtract(y, F, out=r)
        stages.append((1.0, tree))
        trace.append(float(w.dot(0.5 * r ** 2)))
    return BoostedModel(
        f0=f0,
        stages=tuple(stages),
        shrinkage=config.shrinkage,
        alpha=alpha,
        n_features=X.shape[1],
        loss_trace=tuple(trace),
    )


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, config: TrainConfig) -> BoostedModel:
    """Standard gradient boosting: uniform unit weights on one training set.

    A NaN or infinite value in ``X`` or ``y`` raises ValueError.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y) or len(y) < 1:
        raise ValueError("X and y must be nonempty and aligned")
    return _boost(X, y, np.ones(len(y)), config, alpha=0.0)


def fit_gbbw(
    source_X: np.ndarray,
    source_y: np.ndarray,
    target_X: np.ndarray,
    target_y: np.ndarray,
    config: TrainConfig,
) -> BoostedModel:
    """Balanced-weighting gradient boosting over source and pseudo-target sets.

    Instance weights are (1 - alpha) on source rows and alpha on pseudo-target
    rows. At the boundaries the irrelevant set is excluded outright, so the
    alpha = 0 model is bit-identical to standard gradient boosting on the
    source set and invariant to the pseudo-target contents (and symmetrically
    for alpha = 1). A NaN or infinite value in the features or labels of a
    set the fit trains on raises ValueError; an excluded set is not read.
    """
    source_X = np.asarray(source_X, dtype=float)
    source_y = np.asarray(source_y, dtype=float)
    target_X = np.asarray(target_X, dtype=float)
    target_y = np.asarray(target_y, dtype=float)
    n1, n2 = len(source_y), len(target_y)
    if n1 < 1:
        raise ValueError("source set must be nonempty")
    if len(source_X) != n1 or len(target_X) != n2:
        raise ValueError("features and labels must align")
    alpha = config.alpha
    if alpha == 1.0 and n2 == 0:
        raise ValueError("alpha = 1 requires a nonempty pseudo-target set")
    if n2 == 0 and alpha > 0.0:
        raise ValueError("empty pseudo-target set is only valid with alpha = 0")

    if alpha == 0.0:
        X, y, w = source_X, source_y, np.full(n1, 1.0 - alpha)
    elif alpha == 1.0:
        X, y, w = target_X, target_y, np.full(n2, alpha)
    else:
        X = np.vstack([source_X, target_X])
        y = np.concatenate([source_y, target_y])
        w = np.concatenate([np.full(n1, 1.0 - alpha), np.full(n2, alpha)])
    return _boost(X, y, w, config, alpha=alpha)


def predict(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Evaluate the staged additive model, unclamped: the pipeline clamps counts at zero.

    Walks every tree at once down the stacked table (see the module docstring).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got shape {X.shape}")
    table = model._table
    rows = np.arange(len(X))
    node = np.repeat(table.roots[:, None], len(X), axis=1)     # (stages, rows)
    while True:
        feature = table.feature[node]
        if np.all(feature == _LEAF):
            break
        # A leaf reads column -1, a valid column whose value it ignores.
        go_left = X[rows, feature] <= table.threshold[node]
        node = np.where(go_left, table.left[node], table.right[node])
    # cumsum adds sequentially: ((f0 + c_1) + c_2) + ..., as a loop over stages would.
    terms = np.concatenate([np.full((1, len(X)), model.f0), table.contribution[node]])
    return np.cumsum(terms, axis=0)[-1]


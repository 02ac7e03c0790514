"""Axis-aligned regression trees fit by greedy weighted variance reduction.

A split's score is the reduction in weighted sum of squared deviations of the
residuals; leaf predictions are weighted means. Ties between equally good
splits break to the lowest feature index, then the lowest threshold, so the
result is independent of evaluation order. Zero-weight instances are dropped
before fitting and cannot influence the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LEAF = -1


@dataclass
class RegressionTree:
    """Flat node-table representation: node i is a leaf iff feature[i] == -1."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    max_depth: int = 0
    min_samples_leaf: int = 1

    def _add_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        node_of = np.zeros(len(X), dtype=np.int64)
        pending = [0]
        while pending:
            node = pending.pop()
            mask = node_of == node
            if not mask.any():
                continue
            if self.feature[node] == _LEAF:
                out[mask] = self.value[node]
                continue
            go_left = mask & (X[:, self.feature[node]] <= self.threshold[node])
            node_of[go_left] = self.left[node]
            node_of[mask & ~go_left] = self.right[node]
            pending += [self.left[node], self.right[node]]
        return out

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "value": [float(v) for v in self.value],
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        return cls(
            list(data["feature"]),
            list(data["threshold"]),
            list(data["left"]),
            list(data["right"]),
            list(data["value"]),
            int(data["max_depth"]),
            int(data["min_samples_leaf"]),
        )


def _best_split(X, r, w, idx, min_samples_leaf):
    """Best (feature, threshold, gain) at a node, or None if no valid split."""
    n_node = len(idx)
    if n_node < 2 * min_samples_leaf:
        return None
    w_node = w[idx]
    wr_node = w_node * r[idx]
    total_w = w_node.sum()
    total_wr = wr_node.sum()
    parent_score = total_wr * total_wr / total_w

    best = None
    pos = np.arange(n_node - 1)
    feasible = (pos + 1 >= min_samples_leaf) & (n_node - pos - 1 >= min_samples_leaf)
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        valid = feasible & (xs_sorted[:-1] < xs_sorted[1:])
        if not valid.any():
            continue
        cw = np.cumsum(w_node[order])[:-1]
        cwr = np.cumsum(wr_node[order])[:-1]
        score = np.where(
            valid,
            cwr * cwr / cw + (total_wr - cwr) ** 2 / (total_w - cw),
            -np.inf,
        )
        k = int(np.argmax(score))
        gain = score[k] - parent_score
        if gain > 1e-12 * max(1.0, abs(parent_score)) and (best is None or gain > best[2]):
            lo, hi = xs_sorted[k], xs_sorted[k + 1]
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                # The midpoint of neighbouring doubles can round up to hi,
                # which would send every row left.
                threshold = lo
            best = (j, float(threshold), float(gain))
    return best


def fit_tree(
    X: np.ndarray,
    r: np.ndarray,
    w: np.ndarray,
    max_depth: int = 3,
    min_samples_leaf: int = 2,
) -> RegressionTree:
    """Fit a tree to residuals ``r`` under nonnegative instance weights ``w``."""
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    keep = w > 0
    X, r, w = X[keep], r[keep], w[keep]

    tree = RegressionTree(max_depth=max_depth, min_samples_leaf=min_samples_leaf)

    def build(idx: np.ndarray, depth: int) -> int:
        node = tree._add_node()
        w_node = w[idx]
        tree.value[node] = float((w_node * r[idx]).sum() / w_node.sum())
        if depth >= max_depth:
            return node
        split = _best_split(X, r, w, idx, min_samples_leaf)
        if split is None:
            return node
        j, threshold, _ = split
        go_left = X[idx, j] <= threshold
        tree.feature[node] = j
        tree.threshold[node] = threshold
        tree.left[node] = build(idx[go_left], depth + 1)
        tree.right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    # ``build`` refers to itself through its closure; unbinding it breaks that
    # cycle, so X, r and w are freed on return instead of at the next cyclic GC.
    del build
    return tree

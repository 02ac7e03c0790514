"""Axis-aligned regression trees fit by greedy weighted variance reduction.

A split's score is the reduction in weighted sum of squared deviations of the
residuals; leaf predictions are weighted means. Ties between equally good
splits break to the lowest feature index, then the lowest threshold, so the
result is independent of evaluation order. Zero-weight instances are left out
of the root and cannot influence the tree.

The split search sorts each feature once per fit, not once per node: a
boosting fit computes ``presort(X)`` for its fixed ``X`` and hands it to every
stage's tree. A node is a mask over the rows. Filtering each feature's stable
global order by that mask gives the node's sorted order for every feature in
one gather (the attribute lists of SPRINT; Shafer, Agrawal & Mehta 1996),
with tied values in ascending row order, as a stable sort of the node's own
rows would leave them. Cumulative sums, split scores and the arg-max are then
taken across all features at once; taking the first maximum keeps the tie
rule above. The trees are the same, bit for bit, as those of a search that
sorts every feature at every node.
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


def presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each feature's stable ascending row order and the sorted values, both (n_features, n_rows)."""
    XT = np.asarray(X, dtype=float).T
    order = np.argsort(XT, axis=1, kind="stable")
    return order, np.take_along_axis(XT, order, axis=1)


def _best_split(order, xsorted, w, wr, member, n_node, total_w, total_wr, min_samples_leaf):
    """Best (feature, threshold) at the node holding the rows in ``member``, or None."""
    if n_node < 2 * min_samples_leaf:
        return None
    n_features = len(order)
    in_node = member[order]
    rows = order[in_node].reshape(n_features, n_node)
    xs = xsorted[in_node].reshape(n_features, n_node)
    # Candidate k puts the k + 1 smallest values left; both sides keep min_samples_leaf rows.
    lo, hi = min_samples_leaf - 1, n_node - min_samples_leaf
    cw = w[rows].cumsum(axis=1)[:, lo:hi]
    cwr = wr[rows].cumsum(axis=1)[:, lo:hi]
    right_w = total_w - cw  # <= 0 when the right side's weight rounds away: no split, and no division
    valid = (xs[:, lo:hi] < xs[:, lo + 1:hi + 1]) & (right_w > 0)
    score = cwr * cwr / cw + np.divide((total_wr - cwr) ** 2, right_w, out=np.full_like(cw, -np.inf), where=valid)
    k = score.argmax(axis=1)
    parent_score = total_wr * total_wr / total_w
    gain = score[np.arange(n_features), k] - parent_score
    ok = gain > 1e-12 * max(1.0, abs(parent_score))
    if not ok.any():
        return None
    # First-occurrence arg-max: the lowest feature among equal gains, and
    # within a feature the lowest threshold among equal scores.
    j = int(np.argmax(np.where(ok, gain, -np.inf)))
    below, above = xs[j, lo + k[j]], xs[j, lo + k[j] + 1]
    threshold = (below + above) / 2.0
    if not threshold < above:
        # The midpoint of neighbouring doubles can round up to the upper one,
        # which would send every row left.
        threshold = below
    return j, float(threshold)


def fit_tree(
    X: np.ndarray,
    r: np.ndarray,
    w: np.ndarray,
    max_depth: int = 3,
    min_samples_leaf: int = 2,
    *,
    presorted: tuple[np.ndarray, np.ndarray] | None = None,
    leaf_values: np.ndarray | None = None,
) -> RegressionTree:
    """Fit a tree to residuals ``r`` under nonnegative instance weights ``w``.

    ``presorted`` is ``presort(X)``, passed by callers that fit many trees on
    one ``X``. If ``leaf_values`` is given, each row with positive weight gets
    the value of its leaf there, equal to ``tree.predict(X)`` on that row;
    zero-weight rows are left as they are.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0):
        raise ValueError("at least one weight must be positive")
    order, xsorted = presort(X) if presorted is None else presorted
    wr = w * r

    tree = RegressionTree(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    # Depth first, left child first, so nodes are numbered in preorder.
    pending = [(w > 0, 0, None, None)]    # (rows in the node, depth, parent, parent's child list)
    while pending:
        member, depth, parent, children = pending.pop()
        node = tree._add_node()
        if parent is not None:
            children[parent] = node
        # Sums over the node's rows in ascending row order.
        w_node = w[member]
        total_w = w_node.sum()
        total_wr = wr[member].sum()
        tree.value[node] = float(total_wr / total_w)
        split = None
        if depth < max_depth:
            split = _best_split(order, xsorted, w, wr, member, len(w_node), total_w, total_wr, min_samples_leaf)
        if split is None:
            if leaf_values is not None:
                leaf_values[member] = tree.value[node]
            continue
        j, threshold = split
        tree.feature[node] = j
        tree.threshold[node] = threshold
        go_left = X[:, j] <= threshold
        pending.append((member & ~go_left, depth + 1, node, tree.right))
        pending.append((member & go_left, depth + 1, node, tree.left))
    return tree

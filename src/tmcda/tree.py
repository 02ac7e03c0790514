"""Axis-aligned regression trees fit by greedy weighted variance reduction.

A split's score is the reduction in weighted sum of squared deviations of the
residuals; leaf predictions are weighted means. Ties between equally good
splits break to the lowest feature index, then the lowest threshold, so the
result is independent of evaluation order. Zero-weight instances are left out
of the root and cannot influence the tree.

The split search sorts each feature once per fit, not once per node: a
boosting fit builds one ``SplitPlan`` for its fixed ``X`` and ``w`` and hands
it to every stage's tree. A node is a mask over the rows. Filtering each
feature's stable global order by that mask gives the node's sorted order for
every feature in one gather (the attribute lists of SPRINT; Shafer, Agrawal &
Mehta 1996), with tied values in ascending row order, as a stable sort of the
node's own rows would leave them. Cumulative sums, split scores and the
arg-max are then taken across all features at once; taking the first maximum
keeps the tie rule above. The trees are the same, bit for bit, as those of a
search that sorts every feature at every node.

Most of a node's search does not depend on the residuals: its rows, its
total weight, its rows and values sorted per feature, the cumulative
weights, the weights right of each candidate and which candidates are valid
(distinct values on both sides, positive weight on the right). Every stage
searches the same root, so the plan holds these arrays for the root, next to
the presort; a stage redoes only the residual sums, the score and the
arg-max. Other nodes get the same arrays from the same function when they
are reached, and drop them after. The score divides by the right-side
weight with 1.0 in place at invalid candidates, then adds 0.0 at valid
candidates and -inf at invalid ones: the same doubles as a division masked
to the valid candidates, without one, because the divided term is never
-0.0.

``fit_tree`` grows the node table depth first, left child first, so nodes
are numbered in preorder and a split node's left child is the node right
after it; the table becomes a frozen ``RegressionTree`` once, when the fit
ends. Prediction moves all rows down the node table one level per step,
with the same ``x <= threshold`` rule the fit used, until every row sits at
a leaf. It relies on the table ``fit_tree`` builds: node 0 the root, every
other node with exactly one parent, leaves without children. Nothing
checks a table built by hand; one with a cycle would never finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_LEAF = -1


@dataclass(frozen=True)
class RegressionTree:
    """Flat node-table representation: node i is a leaf iff feature[i] == -1."""

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Move every row down one level per step until all rows sit at leaves."""
        X = np.asarray(X, dtype=float)
        feature, left, right = np.array(self.feature), np.array(self.left), np.array(self.right)
        threshold = np.array(self.threshold, dtype=float)
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))     # rows not yet at a leaf
        while len(rows):
            at = node[rows]
            inner = feature[at] != _LEAF
            rows, at = rows[inner], at[inner]
            go_left = X[rows, feature[at]] <= threshold[at]
            node[rows] = np.where(go_left, left[at], right[at])
        return np.array(self.value, dtype=float)[node]

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "value": [float(v) for v in self.value],
        }


class _Node(NamedTuple):
    """A node's rows and the residual-independent part of its split search.

    ``search`` is None when the node is not searched (too deep, or too few rows
    for two leaves). Otherwise it holds the node's rows and values sorted per
    feature, (n_features, n_rows), and, per candidate threshold, the weight
    left of it, the weight right of it (1.0 where the candidate is not valid)
    and the candidate's mask term: 0.0 where it is valid, -inf where it is
    not. A valid candidate has different values on its two sides and positive
    weight on the right.
    """

    member: np.ndarray
    total_w: float
    search: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def _node(order, xsorted, w, member, min_samples_leaf, searched) -> _Node:
    w_node = w[member]
    total_w = w_node.sum()    # over the node's rows in ascending row order
    n_node = len(w_node)
    if not searched or n_node < 2 * min_samples_leaf:
        return _Node(member, total_w, None)
    n_features = len(order)
    in_node = member[order]
    rows = order[in_node].reshape(n_features, n_node)
    xs = xsorted[in_node].reshape(n_features, n_node)
    # Candidate k puts the k + 1 smallest values left; both sides keep min_samples_leaf rows.
    lo, hi = min_samples_leaf - 1, n_node - min_samples_leaf
    cw = w[rows].cumsum(axis=1)[:, lo:hi]
    right_w = total_w - cw  # <= 0 when the right side's weight rounds away: no split, and no division
    valid = (xs[:, lo:hi] < xs[:, lo + 1:hi + 1]) & (right_w > 0)
    mask = np.where(valid, 0.0, -np.inf)
    return _Node(member, total_w, (rows, xs, cw, np.where(valid, right_w, 1.0), mask))


@dataclass(frozen=True)
class SplitPlan:
    """What every tree fit on one ``X`` and ``w`` shares: see the module docstring.

    ``order`` and ``xsorted`` are each feature's stable ascending row order
    and the sorted values, both (n_features, n_rows); ``root`` is the root
    node, the rows with positive weight. ``shape`` and ``min_samples_leaf``
    record what the plan was built for, and ``fit_tree`` rejects a plan that
    does not match its call.
    """

    shape: tuple[int, ...]
    min_samples_leaf: int
    order: np.ndarray
    xsorted: np.ndarray
    root: _Node

    @classmethod
    def build(cls, X: np.ndarray, w: np.ndarray, min_samples_leaf: int) -> "SplitPlan":
        """Check the weights, presort ``X`` and lay out the root's search."""
        X = np.asarray(X, dtype=float)
        w = np.asarray(w, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        order = np.argsort(X.T, axis=1, kind="stable")
        xsorted = np.take_along_axis(X.T, order, axis=1)
        root = _node(order, xsorted, w, w > 0, min_samples_leaf, True)
        return cls(X.shape, min_samples_leaf, order, xsorted, root)


def _best_split(node: _Node, wr, total_wr, min_samples_leaf):
    """Best (feature, threshold) at ``node`` for the weighted residuals ``wr``, or None."""
    if node.search is None:
        return None
    rows, xs, cw, right_safe, mask = node.search
    lo, hi = min_samples_leaf - 1, rows.shape[1] - min_samples_leaf
    cwr = wr[rows].cumsum(axis=1)[:, lo:hi]
    # Adding 0.0 leaves a valid candidate's nonnegative term as it is; an invalid one scores -inf.
    score = cwr * cwr / cw + ((total_wr - cwr) ** 2 / right_safe + mask)
    parent_score = total_wr * total_wr / node.total_w
    gain = score.max(axis=1) - parent_score
    ok = gain > 1e-12 * max(1.0, abs(parent_score))
    if not ok.any():
        return None
    # First-occurrence arg-max: the lowest feature among equal gains, and
    # within a feature the lowest threshold among equal scores.
    j = int(np.where(ok, gain, -np.inf).argmax())
    k = lo + int(score[j].argmax())
    below, above = xs[j, k], xs[j, k + 1]
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
    plan: SplitPlan | None = None,
    leaf_values: np.ndarray | None = None,
) -> RegressionTree:
    """Fit a tree to residuals ``r`` under nonnegative instance weights ``w``.

    ``plan`` is ``SplitPlan.build(X, w, min_samples_leaf)``, passed by callers
    that fit many trees on one ``X`` and ``w``; without it ``fit_tree`` builds
    one. A plan built for another shape of ``X`` or another
    ``min_samples_leaf`` raises ValueError; the plan also stands for the
    values of ``X`` and ``w``, which are not compared. If ``leaf_values`` is
    given, each row with positive weight gets the value of its leaf there,
    equal to ``tree.predict(X)`` on that row; zero-weight rows are left as
    they are.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    if plan is None:
        plan = SplitPlan.build(X, w, min_samples_leaf)
    elif plan.shape != X.shape or plan.min_samples_leaf != min_samples_leaf:
        raise ValueError(
            f"split plan built for X of shape {plan.shape} and min_samples_leaf = {plan.min_samples_leaf}, "
            f"used with {X.shape} and {min_samples_leaf}"
        )
    wr = w * r

    feature, threshold, left, right, value = [], [], [], [], []
    # Depth first, left child first, so nodes are numbered in preorder (see the module docstring).
    pending = [(plan.root.member, 0, None)]    # (rows in the node, depth, parent if a right child)
    while pending:
        member, depth, right_of = pending.pop()
        index = len(value)
        if right_of is not None:
            right[right_of] = index
        node = plan.root if depth == 0 else _node(
            plan.order, plan.xsorted, w, member, min_samples_leaf, depth < max_depth)
        total_wr = wr[member].sum()    # over the node's rows in ascending row order
        value.append(float(total_wr / node.total_w))
        split = _best_split(node, wr, total_wr, min_samples_leaf) if depth < max_depth else None
        if split is None:
            if leaf_values is not None:
                leaf_values[member] = value[index]
            j, t, left_child = _LEAF, 0.0, _LEAF
        else:
            j, t = split
            left_child = index + 1
            go_left = X[:, j] <= t
            pending.append((member & ~go_left, depth + 1, index))
            pending.append((member & go_left, depth + 1, None))
        feature.append(j)
        threshold.append(t)
        left.append(left_child)
        right.append(_LEAF)    # a split node's right child writes its index here when it is reached
    return RegressionTree(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value))

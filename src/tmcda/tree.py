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
arg-max are then taken across all features at once; taking the first
maximum keeps the tie rule above. The trees are the same, bit for bit, as
those of a search that sorts every feature at every node.

Most of a node's search does not depend on the residuals: its rows, its
total weight, its rows sorted per feature, which candidates are valid
(distinct values on both sides, positive weight on the right) and the
weights left and right of each. A node keeps these for its valid candidates
only, listed feature by feature in threshold order, and a stage redoes only
the residual sums, the scores of those candidates and one arg-max over all
of them, whose gain over the parent it then tests (see ``_best_split`` for
when a lower score has the same gain). An invalid candidate is never
scored, so it cannot reach the maximum, not even as a NaN when a score
overflows.

Every stage searches the same root, so the plan holds the root next to the
presort. Later stages also reach many of the same other nodes: a node is its
row mask, and the splits near the root change little from stage to stage.
The plan keeps the other nodes it builds, keyed by the row mask's bytes, up
to ``_MEMO_BYTES`` of their arrays, and drops the least recently used first;
a node is built again only after it has been dropped. A leaf at
``max_depth`` is not built: one reduction gives its weight and weighted
residual totals, and nothing of it is kept. A kept node also keeps, per
split chosen at it, the threshold and its children's row masks. The bound
counts the kept nodes' masks and search arrays, not the Python objects
around them or their children's masks, so the memo's real size is larger:
1.4 to 2.2 times the counted bytes on the benchmark's inputs. It is in bytes
because a searched node's arrays grow with its rows times its features: at
30 intersections x 384 intervals (11,560 rows, 21 features) a node near the
root takes megabytes, and a bound of 128 nodes raised the peak memory of a
60-stage fit from 70 MB to 247 MB. The memo dies with the plan, so nothing
is shared between fits.

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

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_LEAF = -1
_MEMO_BYTES = 1 << 19    # array bytes of the non-root nodes a SplitPlan keeps (see the module docstring)


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


class _Search(NamedTuple):
    """The residual-independent part of a node's split search, over its valid candidates.

    ``rows`` holds the node's rows sorted per feature, (n_features, n_rows).
    Candidate k of feature j puts the k + 1 smallest values left and sits at
    ``j * n_rows + k`` of ``rows`` raveled. The valid candidates, feature by
    feature in threshold order, are at ``flat``, with the weights ``left_w``
    left and ``right_w`` right of each.
    """

    rows: np.ndarray
    flat: np.ndarray
    left_w: np.ndarray
    right_w: np.ndarray


class _Node(NamedTuple):
    """A node's rows, total weight and its ``_Search``.

    ``search`` is None when the node has too few rows for two leaves or no
    valid candidate. ``children`` maps each split ``fit_tree`` has chosen at
    the node, as (feature, candidate index), to its threshold and the row
    masks of its left and right children.
    """

    member: np.ndarray
    total_w: float
    search: _Search | None
    children: dict[tuple[int, int], tuple[float, np.ndarray, np.ndarray]]

    @property
    def nbytes(self) -> int:
        """Bytes of the node's row mask and search arrays."""
        return self.member.nbytes + sum(a.nbytes for a in self.search or ())


def _node(order, xsorted, w, member, min_samples_leaf) -> _Node:
    w_node = w[member]
    total_w = float(np.add.reduce(w_node))    # over the node's rows in ascending row order
    n_node = len(w_node)
    if n_node < 2 * min_samples_leaf:
        return _Node(member, total_w, None, {})
    n_features = len(order)
    in_node = member[order]
    rows = order[in_node].reshape(n_features, n_node)
    xs = xsorted[in_node].reshape(n_features, n_node)
    cw = np.add.accumulate(w[rows], axis=1)
    right_w = total_w - cw  # <= 0 when the right side's weight rounds away: no split, and no division
    # Both sides keep min_samples_leaf rows.
    lo, hi = min_samples_leaf - 1, n_node - min_samples_leaf
    valid = np.zeros((n_features, n_node), dtype=bool)
    valid[:, lo:hi] = (xs[:, lo:hi] < xs[:, lo + 1:hi + 1]) & (right_w[:, lo:hi] > 0)
    flat = valid.ravel().nonzero()[0]
    search = _Search(rows, flat, cw.take(flat), right_w.take(flat)) if len(flat) else None
    return _Node(member, total_w, search, {})


class _NodeMemo(OrderedDict):
    """Nodes by row-mask bytes, least recently used first, and their ``nbytes`` in total."""

    nbytes = 0


@dataclass(frozen=True)
class SplitPlan:
    """What every tree fit on one ``X`` and ``w`` shares: see the module docstring.

    ``order`` and ``xsorted`` are each feature's stable ascending row order
    and the sorted values, both (n_features, n_rows); ``root`` is the root
    node, the rows with positive weight. ``shape`` and ``min_samples_leaf``
    record what the plan was built for, and ``fit_tree`` rejects a plan that
    does not match its call. ``_memo`` holds the other nodes that ``node``
    built last, at most ``_MEMO_BYTES`` of them.
    """

    shape: tuple[int, ...]
    min_samples_leaf: int
    order: np.ndarray
    xsorted: np.ndarray
    root: _Node
    _memo: _NodeMemo = field(init=False, compare=False, repr=False, default_factory=_NodeMemo)

    @classmethod
    def build(cls, X: np.ndarray, w: np.ndarray, min_samples_leaf: int) -> "SplitPlan":
        """Check the weights, presort ``X`` and lay out the root's search."""
        X = np.asarray(X, dtype=float)
        w = np.asarray(w, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("at least one weight must be positive")
        order = np.argsort(X.T, axis=1, kind="stable")
        xsorted = np.take_along_axis(X.T, order, axis=1)
        root = _node(order, xsorted, w, w > 0, min_samples_leaf)
        if not math.isfinite(root.total_w):    # no node total, and so no split score, can be inf / inf
            raise ValueError(f"weights must have a finite total, got {root.total_w}")
        return cls(X.shape, min_samples_leaf, order, xsorted, root)

    def node(self, w: np.ndarray, member: np.ndarray) -> _Node:
        """The non-root node of rows ``member``: kept from an earlier call, or built and kept."""
        memo = self._memo
        key = member.tobytes()
        node = memo.get(key)
        if node is None:
            node = _node(self.order, self.xsorted, w, member, self.min_samples_leaf)
            if node.nbytes <= _MEMO_BYTES:    # a node larger than the bound is not kept
                memo[key] = node
                memo.nbytes += node.nbytes
                while memo.nbytes > _MEMO_BYTES:
                    memo.nbytes -= memo.popitem(last=False)[1].nbytes
        else:
            memo.move_to_end(key)
        return node


def _best_split(node: _Node, wr, total_wr):
    """Best (feature, candidate index) at ``node`` for the weighted residuals ``wr``, or None."""
    search = node.search
    if search is None:
        return None
    cwr = np.add.accumulate(wr[search.rows], axis=1).take(search.flat)
    # score = cwr * cwr / left_w + (total_wr - cwr) ** 2 / right_w, written in place.
    score = cwr * cwr
    score /= search.left_w
    right = np.subtract(total_wr, cwr, out=cwr)
    right *= right
    right /= search.right_w
    score += right
    parent_score = total_wr * total_wr / node.total_w
    # The candidates are listed feature by feature in threshold order, so the
    # first maximum is at the lowest feature, then the lowest threshold, among
    # equal scores; a lower score never has a higher gain.
    i = score.argmax()
    best = score.item(i)
    gain = best - parent_score
    if not gain > 1e-12 * max(1.0, abs(parent_score)):
        return None
    n_rows = search.rows.shape[1]
    if math.nextafter(best, -math.inf) - parent_score == gain:
        # A lower score can round to the same gain (a tie to even; 2.8% of the
        # searches on the benchmark's inputs). The lowest feature with the
        # best gain wins, at its highest score.
        first = int((score - parent_score == gain).argmax())
        end = search.flat.searchsorted((search.flat.item(first) // n_rows + 1) * n_rows)
        i = first + score[first:end].argmax()
    return divmod(search.flat.item(i), n_rows)


def _split(X, node: _Node, j: int, k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Threshold and left and right row masks of candidate ``k`` of feature ``j`` at ``node``."""
    rows = node.search.rows
    below, above = X[rows[j, k], j], X[rows[j, k + 1], j]
    threshold = (below + above) / 2.0
    if not threshold < above:
        # The midpoint of neighbouring doubles can round up to the upper one,
        # which would send every row left.
        threshold = below
    go_left = X[:, j] <= threshold
    return float(threshold), node.member & go_left, node.member & ~go_left


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
    they are. ``r``, ``w`` and ``leaf_values`` hold one entry per row of
    ``X``; any other shape raises ValueError, and so do a non-finite weight
    and a non-finite total of ``w`` or of ``w * r``.
    """
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    w = np.asarray(w, dtype=float)
    for name, a in (("r", r), ("w", w), ("leaf_values", leaf_values)):
        if a is not None and a.shape != (len(X),):
            raise ValueError(f"{name} has shape {a.shape}; X has {len(X)} rows, and {name} needs one entry per row")
    if plan is None:
        plan = SplitPlan.build(X, w, min_samples_leaf)
    elif plan.shape != X.shape or plan.min_samples_leaf != min_samples_leaf:
        raise ValueError(
            f"split plan built for X of shape {plan.shape} and min_samples_leaf = {plan.min_samples_leaf}, "
            f"used with {X.shape} and {min_samples_leaf}"
        )
    weights = np.empty((2, len(X)))    # w and w * r, summed together at the leaves at max_depth
    weights[0] = w
    wr = np.multiply(w, r, out=weights[1])

    feature, threshold, left, right, value = [], [], [], [], []
    # Depth first, left child first, so nodes are numbered in preorder (see the module docstring).
    pending = [(plan.root.member, 0, None)]    # (rows in the node, depth, parent if a right child)
    while pending:
        member, depth, right_of = pending.pop()
        index = len(value)
        if right_of is not None:
            right[right_of] = index
        # Totals over the node's rows in ascending row order, summed pairwise.
        if depth < max_depth:
            node = plan.node(w, member) if depth else plan.root
            total_w, total_wr = node.total_w, float(np.add.reduce(wr[member]))
        else:
            # Rows of np.compress's result are contiguous, so each is summed as w[member] is.
            node = None
            total_w, total_wr = np.add.reduce(np.compress(member, weights, axis=1), axis=1).tolist()
        if depth == 0 and not math.isfinite(total_wr):
            raise ValueError(f"weighted residuals w * r must have a finite total, got {total_wr}")
        value.append(total_wr / total_w)
        split = None if node is None else _best_split(node, wr, total_wr)
        if split is None:
            if leaf_values is not None:
                leaf_values[member] = value[index]
            j, t, left_child = _LEAF, 0.0, _LEAF
        else:
            children = node.children.get(split)
            if children is None:
                children = node.children[split] = _split(X, node, *split)
            j, t, left_child = split[0], children[0], index + 1
            pending.append((children[2], depth + 1, index))
            pending.append((children[1], depth + 1, None))
        feature.append(j)
        threshold.append(t)
        left.append(left_child)
        right.append(_LEAF)    # a split node's right child writes its index here when it is reached
    return RegressionTree(tuple(feature), tuple(threshold), tuple(left), tuple(right), tuple(value))

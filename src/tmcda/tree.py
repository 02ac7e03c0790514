"""Axis-aligned regression trees fit by greedy weighted variance reduction.

A split's score is the reduction in weighted sum of squared deviations of the
residuals; leaf predictions are weighted means. Among equal scores the first
wins: the lowest feature index, then the lowest threshold, so the result is
independent of evaluation order. Zero-weight instances are left out of the
root and cannot influence the tree.

The split search sorts each feature once per fit, not once per node: a
boosting fit builds one ``SplitPlan`` that holds its ``X``, ``w`` and
``min_samples_leaf``, and fits every stage's tree from it. A node is a mask
over the rows. Filtering each feature's stable global order by that mask
gives the node's sorted order for every feature in one gather (the attribute lists of SPRINT; Shafer, Agrawal &
Mehta 1996), with tied values in ascending row order, as a stable sort of the
node's own rows would leave them. Cumulative sums, split scores and the
arg-max are then taken across all features at once.

A node's value is its weighted residual total over its weight total. Only
the root sums its rows for these, pairwise in ascending row order: the
search at a node already holds its children's totals, the left child's as
the cumulative sums at the cut and the right child's as the node's totals
less those (LightGBM's histogram subtraction; Ke et al. 2017). A node's own
search divides by its own weight total, summed like the root's. The trees
are the same, bit for bit, as those of a search that sorts every feature at
every node and hands each child these totals.

Each cut adds to a child's totals the rounding of at most n additions and
one subtraction over the node's n rows. So a node at depth d has totals
within (d + 1) * n * eps of sum(|w * r|) and sum(w) over the root's n rows
(eps = 2**-53), and its value lies within (d + 1) * n * eps * (sum(|w * r|)
+ |value| * sum(w)) / W of its rows' weighted mean, W their weight: beside
residuals of +-2e154 a right leaf reads -1/3 where its rows' mean is 0. A
node value that is not finite is a ValueError.

Most of a node's search does not depend on the residuals: its rows, its
total weight, its rows sorted per feature, which candidates are valid
(distinct values on both sides, positive weight on the right) and the
weights left and right of each. A node keeps these for its valid candidates
only, listed feature by feature in threshold order, and a stage redoes only
the residual sums, the scores of those candidates and one arg-max over all
of them, whose gain over the parent it then tests. An invalid candidate is
never scored, so it cannot reach the maximum, not even as a NaN when a
score overflows.

Every stage searches the same root, so the plan holds the root next to the
presort. Later stages also reach many of the same other nodes: a node is its
row mask, and the splits near the root change little from stage to stage.
The plan keeps the other nodes it builds, keyed by the row mask's bytes, up
to ``_MEMO_BYTES`` of their arrays, and drops the least recently used first;
a node is built again only after it has been dropped. A leaf at
``max_depth`` is not built and gets no row mask: its totals come from its
parent's search, its rows are one side of the parent's rows sorted along
the cut's feature (which ``leaf_values`` is written through), and nothing of
it is kept. A kept node also keeps, per split chosen at it above depth
``max_depth - 1``, the threshold and its children's row masks; a split at
that depth reads the threshold from there if the same rows took the same
cut higher up in an earlier tree, and keeps nothing. The bound
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
ends. Every depth, stumps included, goes through that one loop. It starts
at the plan's root, whose search every tree of the fit shares; a depth-1
tree is a root split at ``max_depth - 1``, so both its leaves come from
the root's search, with no row masks. The root's total is the pairwise sum
of ``w * r`` over its rows, taken over ``w * r`` itself, with no gather,
when every row has positive weight (the same additions in the same order).
The plan decides once whether every weight is 1, and then hands ``r`` on
as ``w * r``, the same doubles, without the product.

Prediction is one walk, ``Forest.leaves``. A ``Forest`` lays trees' node
tables end to end, once, with children renumbered into the one table and
each leaf its own left and right child. The walk moves every (tree, row)
pair one level per step, with the same ``x <= threshold`` rule the fit
used, and a pair that has reached its leaf stays there; the table, not a
depth, decides when the walk ends. It relies on the table ``fit_tree``
builds: node 0 the root, every other node with exactly one parent, leaves
without children. Nothing checks a table built by hand; one with a cycle
would never finish. A boosted model stacks its stage trees, so that it
predicts without one walk per tree, and ``RegressionTree.predict`` walks a
forest of one tree.
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
        """The value of the leaf each row of ``X`` reaches, through ``Forest.leaves``."""
        forest = Forest.stack((self,))
        return forest.value[forest.leaves(np.asarray(X, dtype=float))[0]]


@dataclass(frozen=True)
class Forest:
    """Trees' node tables laid end to end, children as rows of the one table.

    Tree t's root is row ``roots[t]``. A leaf is its own left and right
    child, so a walk that moves every (tree, row) pair one level per step
    leaves finished pairs in place (see the module docstring).
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @classmethod
    def stack(cls, trees: tuple[RegressionTree, ...]) -> "Forest":
        # One pass of list += tuple per column: a third faster than one np.fromiter per column.
        feature, threshold, left, right, value = [], [], [], [], []
        for tree in trees:
            feature += tree.feature
            threshold += tree.threshold
            left += tree.left
            right += tree.right
            value += tree.value
        sizes = np.array([len(tree.feature) for tree in trees], dtype=np.intp)
        roots = np.cumsum(sizes) - sizes
        feature = np.array(feature, dtype=np.intp)
        leaf = feature == _LEAF
        offset = np.repeat(roots, sizes)
        at = np.arange(len(feature))
        return cls(roots, feature, np.array(threshold, dtype=float),
                   np.where(leaf, at, offset + np.array(left, dtype=np.intp)),
                   np.where(leaf, at, offset + np.array(right, dtype=np.intp)), np.array(value, dtype=float))

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The table row of each (tree, row) pair's leaf, shape (trees, rows of ``X``).

        ``X`` is a float array with a column for every feature a tree splits on.
        When every pair starts at a leaf (no rows, or one-leaf trees) the
        walk returns before it reads ``X``.
        """
        rows = np.arange(len(X))
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        while True:
            feature = self.feature[node]
            if np.all(feature == _LEAF):
                return node
            # A leaf reads column -1, a valid column whose value it ignores.
            go_left = X[rows, feature] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])


class _Search(NamedTuple):
    """The residual-independent part of a node's split search, over its valid candidates.

    ``rows`` holds the node's rows sorted per feature, (n_features, n_rows).
    Candidate k of feature j puts the k + 1 smallest values left and sits at
    ``j * n_rows + k`` of ``rows`` raveled. The valid candidates, feature by
    feature in threshold order, are at ``flat``, with the weights ``left_w``
    left and ``right_w`` right of each: the weight totals of the children
    each would make.
    """

    rows: np.ndarray
    flat: np.ndarray
    left_w: np.ndarray
    right_w: np.ndarray


class _Node(NamedTuple):
    """A node's rows, total weight and its ``_Search``.

    ``search`` is None when the node has too few rows for two leaves or no
    valid candidate. ``nbytes`` counts the bytes of the row mask and the
    search arrays, what the memo bound counts. ``children`` maps each split
    ``fit_tree`` has chosen at the node above depth ``max_depth - 1``, as
    (feature, candidate index), to its threshold and the row masks of its
    left and right children.
    """

    member: np.ndarray
    total_w: float
    search: _Search | None
    nbytes: int
    children: dict[tuple[int, int], tuple[float, np.ndarray, np.ndarray]]


def _node(order, xsorted, w, member, min_samples_leaf) -> _Node:
    w_node = w[member]
    total_w = float(np.add.reduce(w_node))    # over the node's rows in ascending row order
    n_node = len(w_node)
    if n_node < 2 * min_samples_leaf:
        return _Node(member, total_w, None, member.nbytes, {})
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
    return _Node(member, total_w, search, member.nbytes + sum(a.nbytes for a in search or ()), {})


class _NodeMemo(OrderedDict):
    """Nodes by row-mask bytes, least recently used first, and their ``nbytes`` in total."""

    nbytes = 0


@dataclass(frozen=True)
class SplitPlan:
    """A boosting fit's inputs and what every tree fit on them shares: see the module docstring.

    ``w`` holds one weight per row of ``X``. ``order`` and ``xsorted`` are
    each feature's stable ascending row order and the sorted values, both
    (n_features, n_rows); ``root`` is the root node, the rows with positive
    weight, ``every_row`` tells whether that is every row and
    ``unit_weights`` whether every weight is 1. ``_memo``
    holds the other nodes that ``node`` built last, at most ``_MEMO_BYTES``
    of them. ``X`` is read at each split, so it must not change meanwhile.
    """

    X: np.ndarray
    w: np.ndarray
    min_samples_leaf: int
    order: np.ndarray
    xsorted: np.ndarray
    root: _Node
    every_row: bool
    unit_weights: bool
    _memo: _NodeMemo = field(init=False, compare=False, repr=False, default_factory=_NodeMemo)

    @classmethod
    def build(cls, X: np.ndarray, w: np.ndarray, min_samples_leaf: int) -> "SplitPlan":
        """Check the weights, one per row of ``X``, presort ``X`` and lay out the root's search."""
        X = np.asarray(X, dtype=float)
        w = np.asarray(w, dtype=float)
        if w.shape != (len(X),):
            raise ValueError(f"w has shape {w.shape}; X has {len(X)} rows, and w needs one entry per row")
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
        return cls(X, w, min_samples_leaf, order, xsorted, root, bool(root.member.all()), bool(np.all(w == 1.0)))

    def weighted(self, r: np.ndarray) -> np.ndarray:
        """The weighted residuals ``w * r``: ``r`` itself, the same doubles, under unit weights."""
        return r if self.unit_weights else self.w * r

    def root_total(self, wr: np.ndarray) -> float:
        """The total of the weighted residuals ``wr`` over the root's rows, summed pairwise in row order."""
        return float(np.add.reduce(wr if self.every_row else wr[self.root.member]))

    def node(self, member: np.ndarray) -> _Node:
        """The non-root node of rows ``member``: kept from an earlier call, or built and kept."""
        memo = self._memo
        key = member.tobytes()
        node = memo.get(key)
        if node is None:
            node = _node(self.order, self.xsorted, self.w, member, self.min_samples_leaf)
            if node.nbytes <= _MEMO_BYTES:    # a node larger than the bound is not kept
                memo[key] = node
                memo.nbytes += node.nbytes
                while memo.nbytes > _MEMO_BYTES:
                    memo.nbytes -= memo.popitem(last=False)[1].nbytes
        else:
            memo.move_to_end(key)
        return node


def _best_split(node: _Node, wr, total_wr):
    """((feature, candidate index), left totals, right totals) of the best split at ``node``, or None.

    ``wr`` are the weighted residuals and ``total_wr`` their total at the
    node; each child's totals are (weight, weighted residual), taken from
    the search as the module docstring says.
    """
    search = node.search
    if search is None:
        return None
    cwr = np.add.accumulate(wr[search.rows], axis=1).take(search.flat)
    # score = cwr * cwr / left_w + (total_wr - cwr) ** 2 / right_w; cwr stays, for the left child's total.
    right = np.subtract(total_wr, cwr)
    right *= right
    right /= search.right_w
    score = cwr * cwr
    score /= search.left_w
    score += right
    parent_score = total_wr * total_wr / node.total_w
    # The candidates are listed feature by feature in threshold order, so the
    # first maximum is at the lowest feature, then the lowest threshold, among
    # equal scores.
    i = score.argmax()
    gain = score.item(i) - parent_score
    if not gain > 1e-12 * max(1.0, abs(parent_score)):
        return None
    left_wr = cwr.item(i)
    return (divmod(search.flat.item(i), search.rows.shape[1]),
            (search.left_w.item(i), left_wr), (search.right_w.item(i), total_wr - left_wr))


def _threshold(X: np.ndarray, rows: np.ndarray, j: int, k: int) -> float:
    """The threshold of candidate ``k`` of feature ``j`` at a node whose search holds ``rows``."""
    below, above = X.item(rows.item(j, k), j), X.item(rows.item(j, k + 1), j)
    threshold = (below + above) / 2.0
    if not threshold < above:
        # The midpoint of neighbouring doubles can round up to the upper one,
        # which would send every row left.
        threshold = below
    return threshold


def _leaf_value(total_w: float, total_wr: float, index: int) -> float:
    """The value of node ``index``, of (weight, weighted residual) totals; not finite is a ValueError."""
    value = total_wr / total_w
    if not math.isfinite(value):
        raise ValueError(f"weighted residuals w * r must have a finite total and mean at every node; "
                         f"node {index} has {total_wr} / {total_w}")
    return value


def fit_tree(
    plan: SplitPlan,
    r: np.ndarray,
    max_depth: int = 3,
    *,
    leaf_values: np.ndarray | None = None,
) -> RegressionTree:
    """Fit a tree to residuals ``r`` on the plan's ``X``, weights and ``min_samples_leaf``.

    ``plan`` is ``SplitPlan.build(X, w, min_samples_leaf)``; the trees fit
    from one plan share its presort, root and node memo. If ``leaf_values``
    is given, each row with positive weight gets the value of its leaf
    there, equal to ``tree.predict(X)`` on that row; zero-weight rows are
    left as they are. ``r`` and ``leaf_values`` hold one entry per row of
    ``X``; any other shape raises ValueError, and so does a ``leaf_values``
    that is not a float64 ndarray (an integer one would truncate the
    values) or a node value that is not finite, such as one from a
    non-finite total of ``w * r``.
    """
    r = np.asarray(r, dtype=float)
    shape = plan.w.shape
    if r.shape != shape:
        raise ValueError(f"r has shape {r.shape}; X has {shape[0]} rows, and r needs one entry per row")
    if leaf_values is not None:
        if not (isinstance(leaf_values, np.ndarray) and leaf_values.dtype == np.float64):
            got = getattr(leaf_values, "dtype", type(leaf_values).__name__)
            raise ValueError(f"leaf_values must be a float64 ndarray, got {got}")
        if leaf_values.shape != shape:
            raise ValueError(f"leaf_values has shape {leaf_values.shape}; X has {shape[0]} rows, "
                             f"and leaf_values needs one entry per row")
    wr = plan.weighted(r)
    # One (feature, threshold, left, right, value) row per node, in preorder (see the module docstring).
    nodes = []
    # (rows in the node, depth, parent if a right child, weight total, weighted residual total):
    # only the root sums its rows; the others' totals come from their parent's search.
    root = plan.root
    pending = [(root.member, 0, None, root.total_w, plan.root_total(wr))]
    while pending:
        member, depth, right_of, total_w, total_wr = pending.pop()
        index = len(nodes)
        if right_of is not None:
            nodes[right_of][3] = index
        leaf = _leaf_value(total_w, total_wr, index)
        node = (plan.node(member) if depth else root) if depth < max_depth else None
        split = None if node is None else _best_split(node, wr, total_wr)
        if split is None:
            nodes.append((_LEAF, 0.0, _LEAF, _LEAF, leaf))
            if leaf_values is not None:
                leaf_values[member] = leaf
            continue
        (j, k), left_totals, right_totals = split
        children = node.children.get((j, k))
        t = _threshold(plan.X, node.search.rows, j, k) if children is None else children[0]
        if depth + 1 == max_depth:
            # Both children are leaves, and their rows are the search's rows
            # sorted along j, split at the cut: no masks, and nothing kept.
            left_leaf = _leaf_value(*left_totals, index + 1)
            right_leaf = _leaf_value(*right_totals, index + 2)
            nodes += ((j, t, index + 1, index + 2, leaf), (_LEAF, 0.0, _LEAF, _LEAF, left_leaf),
                      (_LEAF, 0.0, _LEAF, _LEAF, right_leaf))
            if leaf_values is not None:
                rows = node.search.rows[j]
                leaf_values[rows[:k + 1]] = left_leaf
                leaf_values[rows[k + 1:]] = right_leaf
            continue
        nodes.append([j, t, index + 1, _LEAF, leaf])    # the right child's index is set when it is placed
        if children is None:
            go_left = plan.X[:, j] <= t
            children = node.children[j, k] = (t, member & go_left, member & ~go_left)
        pending.append((children[2], depth + 1, index, *right_totals))
        pending.append((children[1], depth + 1, None, *left_totals))
    return RegressionTree(*zip(*nodes))

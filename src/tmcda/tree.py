"""Axis-aligned regression trees fit by greedy weighted variance reduction.

A split's score is the reduction in weighted sum of squared deviations of the
residuals; leaf predictions are weighted means. Among equal scores the first
wins: the lowest feature index, then the lowest threshold, so the result is
independent of evaluation order. Every weight is finite and positive, and
the root holds every row.

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

When every weight is one value c (the paper's alpha = 1/2 fits,
and every source-only or alpha = 1 fit), the weights need no sums: the
count path. ``SplitPlan.build`` checks once that every multiple c * m up
to the row count N is an exact double, which holds when c's odd
significand (c with its trailing zero bits dropped) has at most
53 - bit_length(N) bits: 1, 1/2 and 3 pass, 0.1 and 0.7 do not, nor
1 + 2**-49 beyond 7 rows. The plan then keeps counts = c * (1, 2, ..., N),
and a node of n rows reads its total weight as counts[n - 1] and the
left and right weights of its candidate k as counts[k] and counts[n - 1]
- counts[k], with no gather of its rows' weights, no cumulative sum and
no test that the right weight is positive (k + 1 < n rows go left). These
are the doubles the sums give, bit for bit: every partial sum of equal
weights is then an exact multiple of c, whatever the order of its
additions. Any other weights take the sums.

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

A tree is three arrays in heap order, the layout of Hummingbird's
PerfectTreeTraversal (Nakandala et al. 2020, *A tensor compiler for
unified machine learning prediction serving*): a tree of depth d has
2^d - 1 split slots, ``feature`` and ``threshold``, and 2^d leaf slots,
``value``. Slot 0 is the root, the children of split slot k are slots
2k + 1 and 2k + 2, and slot 2^d - 1 + i is leaf slot i. A row goes left
when ``x <= threshold``. A node at depth e < d that is a leaf is padding:
every split slot under it, its own included, holds feature 0 at threshold
+inf, and each of the 2^(d - e) leaf slots under it holds its value.
Padding sends a finite cell left and a NaN cell right, and either way the
row reaches a slot that holds the leaf's value, so no prediction depends
on how padding routes a row. A real split's threshold is below +inf (the
midpoint of two values whose upper one is finite, or the lower value), so
``RegressionTree.n_nodes``, 1 + 2 per split below +inf, counts the nodes
of the tree without its padding.

The trees fit from one plan at ``max_depth`` take ``SplitPlan.depth``:
``max_depth``, or 0 when the root has no valid split (no column, every
column constant, too few rows for two leaves, or no cut that keeps weight
on its right), since no tree of the plan can then split. A tree of depth 0
is one leaf slot and reads no column, so a fit on zero columns predicts.
``max_depth`` is at most ``MAX_DEPTH`` = 10, because the slots do not
shrink with the tree's real nodes: at depth 10 a tree takes 1,023 split
slots of 16 bytes and 1,024 leaf slots of 8, about 24 KB, where a
depth-3 tree takes 176 bytes.

``fit_tree`` writes into a tree of ``Forest.padded``, whose split slots
are all padding and whose depth is the fit's ``max_depth``, each real
split's feature and threshold and each leaf's value as it reaches them,
depth first, left child first. A boosting fit passes row t of its forest
(``Forest.tree``), so that it keeps no other copy of its trees. Every
depth, stumps included, goes through that one loop. It starts at the
plan's root, whose search every tree of the fit shares; a depth-1 tree
is a root split at ``max_depth - 1``, so both its leaves come from the
root's search, with no row masks. The root's total is the pairwise sum of
``w * r`` over every row; with c = 1 the product is ``r``, bit for bit.

Prediction is ``Forest.leaves``: every (tree, row) pair starts at slot 0
and takes d steps, each a gather of the slot's feature and threshold and
of the row's cell, to child 2k + 2 - (x <= threshold), with no leaf test.
It gives each pair's position in ``value`` raveled, so the leaf values are
one more gather. ``RegressionTree`` is a forest of one tree, the one
``fit_tree`` returns, and ``RegressionTree.predict`` reads it the same way.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .schema import check_count, check_samples

MAX_DEPTH = 10    # a tree takes 2**d - 1 split slots and 2**d leaf slots: about 24 KB at depth 10
_MEMO_BYTES = 1 << 19    # array bytes of the non-root nodes a SplitPlan keeps (see the module docstring)


@dataclass(frozen=True, eq=False)
class Forest:
    """Trees of one depth d in heap order, one tree per row (see the module docstring).

    ``feature`` and ``threshold``, each (trees, 2^d - 1), hold the split
    slots, where slot k's children are slots 2k + 1 and 2k + 2, and
    ``value``, (trees, 2^d), the leaf slots. Two forests are equal when
    their arrays are, entry for entry.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray

    @classmethod
    def padded(cls, n_trees: int, depth: int):
        """``n_trees`` trees of depth ``depth`` whose every split slot is padding, feature 0 at threshold
        +inf, and whose leaf slots are not yet written; a ValueError unless ``depth`` is a ``max_depth``
        from 0 to ``MAX_DEPTH``."""
        check_depth(depth)
        splits = (n_trees, 2**depth - 1)
        return cls(np.zeros(splits, dtype=np.intp), np.full(splits, math.inf), np.empty((n_trees, 2**depth)))

    def __eq__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def tree(self, t: int) -> "RegressionTree":
        """Tree ``t`` as a one-tree forest whose arrays are views of row t."""
        return RegressionTree(self.feature[t:t + 1], self.threshold[t:t + 1], self.value[t:t + 1])

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Each (tree, row) pair's leaf as its position in ``value`` raveled, shape (trees, rows of ``X``).

        ``X`` is a float array with a column for every feature a tree splits
        on; trees of depth 0 never read it.
        """
        n_trees, n_splits = self.feature.shape
        n_rows, n_columns = X.shape
        tree = np.arange(n_trees)[:, None]
        first = tree * n_splits    # each tree's slot 0 in the split arrays raveled
        cells = np.arange(n_rows) * n_columns    # each row's first cell in X raveled
        X, feature, threshold = X.ravel(), self.feature.ravel(), self.threshold.ravel()
        at = np.repeat(first, n_rows, axis=1)    # first + k for a pair at slot k
        for _ in range(n_splits.bit_length()):    # d steps, each from slot k to 2k + 2 - (x <= threshold)
            go_left = X.take(feature.take(at) + cells) <= threshold.take(at)
            at *= 2
            at -= first - 2
            at -= go_left
        return at + (tree - n_splits)    # tree t's leaf slot i sits at t * 2^d + i of value raveled


@dataclass(frozen=True, eq=False)
class RegressionTree(Forest):
    """The one tree ``fit_tree`` returns, as a forest of one tree."""

    @property
    def n_nodes(self) -> int:
        """The nodes of the tree without its padding: 1 + 2 per split whose threshold is below +inf."""
        return 1 + 2 * int(np.count_nonzero(self.threshold < math.inf))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The value of the leaf each row of ``X`` reaches, through ``Forest.leaves``."""
        return self.value.take(self.leaves(np.asarray(X, dtype=float)))[0]


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


def _node(order, xsorted, w, counts, member, min_samples_leaf) -> _Node:
    """The node of rows ``member``; ``counts`` is the plan's (see ``SplitPlan``), None off the count path."""
    if counts is None:
        w_node = w[member]
        total_w = float(np.add.reduce(w_node))    # over the node's rows in ascending row order
        n_node = len(w_node)
    else:
        n_node = np.count_nonzero(member)
        total_w = counts.item(n_node - 1)
    if n_node < 2 * min_samples_leaf:
        return _Node(member, total_w, None, member.nbytes, {})
    n_features = len(order)
    in_node = member[order]
    rows = order[in_node].reshape(n_features, n_node)
    xs = xsorted[in_node].reshape(n_features, n_node)
    # Both sides keep min_samples_leaf rows.
    lo, hi = min_samples_leaf - 1, n_node - min_samples_leaf
    valid = np.zeros((n_features, n_node), dtype=bool)
    valid[:, lo:hi] = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
    if counts is None:
        cw = np.add.accumulate(w[rows], axis=1)
        right_w = total_w - cw  # <= 0 when the right side's weight rounds away: no split, and no division
        valid[:, lo:hi] &= right_w[:, lo:hi] > 0
        flat = valid.ravel().nonzero()[0]
        left_w, right_w = cw.take(flat), right_w.take(flat)
    else:
        # Candidate k leaves k + 1 rows left and at least one right, so right_w > 0 holds.
        flat = valid.ravel().nonzero()[0]
        left_w = counts.take(flat % n_node)
        right_w = total_w - left_w
    search = _Search(rows, flat, left_w, right_w) if len(flat) else None
    return _Node(member, total_w, search, member.nbytes + sum(a.nbytes for a in search or ()), {})


def _counts(w: np.ndarray) -> np.ndarray | None:
    """c * (1, 2, ..., N) when each of the N weights ``w`` is c and every such multiple is an exact
    double, by the significand test of the module docstring; else None."""
    c = w.item(0)
    numerator = c.as_integer_ratio()[0]
    odd = numerator // (numerator & -numerator)    # c's significand with its trailing zero bits dropped
    if odd.bit_length() + len(w).bit_length() > 53 or not np.all(w == c):
        return None
    return c * np.arange(1, len(w) + 1)


def check_depth(max_depth) -> None:
    """A ValueError unless ``max_depth`` is an integer from 0 to ``MAX_DEPTH``."""
    check_count("max_depth", max_depth, 0)
    if max_depth > MAX_DEPTH:
        raise ValueError(f"max_depth must be at most {MAX_DEPTH}, got {max_depth}")


class _NodeMemo(OrderedDict):
    """Nodes by row-mask bytes, least recently used first, and their ``nbytes`` in total."""

    nbytes = 0


@dataclass(frozen=True)
class SplitPlan:
    """A boosting fit's inputs and what every tree fit on them shares: see the module docstring.

    ``w`` holds one finite, positive weight per row of ``X``. ``order`` and
    ``xsorted`` are each feature's stable ascending row order and the sorted
    values, both (n_features, n_rows); ``root`` is the root node, every row.
    ``counts`` is c * (1, 2, ..., N) when each of the N rows weighs c and
    every such multiple is an exact double, the count path of the module
    docstring, and None otherwise. ``_memo`` holds the other nodes that
    ``node`` built last, at most ``_MEMO_BYTES`` of them. ``X`` is read at
    each split, so it must not change meanwhile.
    """

    X: np.ndarray
    w: np.ndarray
    min_samples_leaf: int
    order: np.ndarray
    xsorted: np.ndarray
    counts: np.ndarray | None
    root: _Node
    _memo: _NodeMemo = field(init=False, compare=False, repr=False, default_factory=_NodeMemo)

    @classmethod
    def build(cls, X: np.ndarray, w: np.ndarray, min_samples_leaf: int) -> "SplitPlan":
        """Check ``X`` and ``w`` by ``schema.check_samples``, each weight positive, and
        ``min_samples_leaf``, then presort ``X`` and lay out the root's search."""
        X, w = check_samples(X, w, names=("X", "w"))
        if not np.all(w > 0):
            raise ValueError("weights must be positive")
        check_count("min_samples_leaf", min_samples_leaf, 1)
        order = np.argsort(X.T, axis=1, kind="stable")
        xsorted = np.take_along_axis(X.T, order, axis=1)
        counts = _counts(w)
        root = _node(order, xsorted, w, counts, np.ones(len(w), dtype=bool), min_samples_leaf)
        if not math.isfinite(root.total_w):    # no node total, and so no split score, can be inf / inf
            raise ValueError(f"weights must have a finite total, got {root.total_w}")
        return cls(X, w, min_samples_leaf, order, xsorted, counts, root)

    def depth(self, max_depth: int) -> int:
        """The depth of the trees fit from this plan at ``max_depth``: 0 when the root has no valid split."""
        return max_depth if self.root.search is not None else 0

    def node(self, member: np.ndarray) -> _Node:
        """The non-root node of rows ``member``: kept from an earlier call, or built and kept."""
        memo = self._memo
        key = member.tobytes()
        node = memo.get(key)
        if node is None:
            node = _node(self.order, self.xsorted, self.w, self.counts, member, self.min_samples_leaf)
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


def _leaf_value(total_w: float, total_wr: float, slot: int) -> float:
    """The value of the node at ``slot``, of (weight, weighted residual) totals; not finite is a ValueError."""
    value = total_wr / total_w
    if not math.isfinite(value):
        raise ValueError(f"weighted residuals w * r must have a finite total and mean at every node; "
                         f"the node at slot {slot} has {total_wr} / {total_w}")
    return value


def fit_tree(plan: SplitPlan, r: np.ndarray, *, leaf_values: np.ndarray, out: RegressionTree) -> RegressionTree:
    """Fit a tree to residuals ``r`` on the plan's ``X``, weights and ``min_samples_leaf``.

    ``plan`` is ``SplitPlan.build(X, w, min_samples_leaf)``; the trees fit
    from one plan share its presort, root and node memo. The tree is written
    into ``out`` and returned: a tree whose split slots are all still
    padding, such as ``Forest.tree(t)`` of a ``Forest.padded``, whose depth
    is the tree's ``max_depth``; ``plan.depth(max_depth)`` is the least
    that holds every tree of the plan. Each row gets the value of its leaf
    in ``leaf_values``, equal to ``tree.predict(X)`` on that row. ``r`` and
    ``leaf_values`` hold one entry per row of ``X``; any other shape raises
    ValueError, and so do a ``leaf_values`` that is not a float64 ndarray
    (an integer one would truncate the values) and a node value that is not
    finite, such as one from a non-finite total of ``w * r``.
    """
    r = np.asarray(r, dtype=float)
    shape = plan.w.shape
    if r.shape != shape:
        raise ValueError(f"r has shape {r.shape}; X has {shape[0]} rows, and r needs one entry per row")
    if not (isinstance(leaf_values, np.ndarray) and leaf_values.dtype == np.float64):
        got = getattr(leaf_values, "dtype", type(leaf_values).__name__)
        raise ValueError(f"leaf_values must be a float64 ndarray, got {got}")
    if leaf_values.shape != shape:
        raise ValueError(f"leaf_values has shape {leaf_values.shape}; X has {shape[0]} rows, "
                         f"and leaf_values needs one entry per row")
    feature, threshold, value = out.feature[0], out.threshold[0], out.value[0]
    n_splits = len(feature)
    depth = n_splits.bit_length()
    wr = plan.w * r
    # (rows in the node, its slot, its depth, weight total, weighted residual total):
    # only the root sums its rows; the others' totals come from their parent's search.
    root = plan.root
    pending = [(root.member, 0, 0, root.total_w, float(np.add.reduce(wr)))]
    while pending:
        member, slot, level, total_w, total_wr = pending.pop()
        leaf = _leaf_value(total_w, total_wr, slot)
        node = (plan.node(member) if level else root) if level < depth else None
        split = None if node is None else _best_split(node, wr, total_wr)
        if split is None:
            # Its value goes to every leaf slot under it, the first of them at (slot + 1) * span - 1.
            span = 1 << (depth - level)
            first = (slot + 1) * span - 1 - n_splits
            value[first:first + span] = leaf
            leaf_values[member] = leaf
            continue
        (j, k), left_totals, right_totals = split
        children = node.children.get((j, k))
        feature[slot] = j
        threshold[slot] = t = _threshold(plan.X, node.search.rows, j, k) if children is None else children[0]
        left = 2 * slot + 1
        if level + 1 == depth:
            # Both children are leaves, and their rows are the search's rows
            # sorted along j, split at the cut: no masks, and nothing kept.
            value[left - n_splits] = left_leaf = _leaf_value(*left_totals, left)
            value[left + 1 - n_splits] = right_leaf = _leaf_value(*right_totals, left + 1)
            rows = node.search.rows[j]
            leaf_values[rows[:k + 1]] = left_leaf
            leaf_values[rows[k + 1:]] = right_leaf
            continue
        if children is None:
            go_left = plan.X[:, j] <= t
            children = node.children[j, k] = (t, member & go_left, member & ~go_left)
        pending.append((children[2], left + 1, level + 1, *right_totals))
        pending.append((children[1], left, level + 1, *left_totals))
    return out

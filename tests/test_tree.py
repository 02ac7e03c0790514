import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcda.boosting import TrainConfig, fit_gbbw
from tmcda.tree import MAX_DEPTH, Forest, RegressionTree, SplitPlan, fit_tree

from _oracles import BruteTree, brute_force_split, heap_layout, reference_node_table, reference_tree, reference_walk


def _fit_on(plan, r, max_depth=3, leaf_values=None):
    """One tree from ``plan`` at ``max_depth``, in a tree of the plan's depth, its leaf values written to
    ``leaf_values`` or to a buffer of its own."""
    leaf_values = np.empty(len(r)) if leaf_values is None else leaf_values
    return fit_tree(plan, r, leaf_values=leaf_values, out=RegressionTree.padded(1, plan.depth(max_depth)))


def _fit(X, r, w, max_depth=3, min_samples_leaf=2, leaf_values=None):
    """One tree from a plan built for it, as ``_fit_on`` fits it."""
    return _fit_on(SplitPlan.build(X, w, min_samples_leaf), r, max_depth, leaf_values)


def test_depth_zero_gives_weighted_mean_leaf():
    X = np.arange(6, dtype=float)[:, None]
    r = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
    tree = _fit(X, r, w, max_depth=0)
    assert tree.n_nodes == 1 and tree.value.shape == (1, 1)
    expected = (r * w).sum() / w.sum()
    assert tree.value[0, 0] == pytest.approx(expected)
    assert np.allclose(tree.predict(X), expected)


def test_step_data_splits_at_step():
    X = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0])[:, None]
    r = np.array([5.0, 5.0, 5.0, 5.0, -3.0, -3.0, -3.0, -3.0])
    w = np.ones(8)
    tree = _fit(X, r, w, max_depth=1, min_samples_leaf=1)
    assert tree.feature[0, 0] == 0
    assert tree.threshold[0, 0] == pytest.approx(6.5)
    preds = tree.predict(X)
    assert np.allclose(preds[:4], 5.0)
    assert np.allclose(preds[4:], -3.0)
    oracle = brute_force_split(X, r, w, 1)
    assert oracle[0] == 0 and oracle[1] == pytest.approx(6.5)


def test_split_choice_matches_exhaustive_oracle_on_random_data():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 3))
        r = rng.standard_normal(40)
        w = rng.uniform(0.1, 2.0, 40)
        tree = _fit(X, r, w, max_depth=1, min_samples_leaf=3)
        oracle = brute_force_split(X, r, w, 3)
        if oracle is None:
            assert tree.n_nodes == 1
        else:
            assert tree.feature[0, 0] == oracle[0]
            assert tree.threshold[0, 0] == pytest.approx(oracle[1], rel=1e-12)


def test_split_between_neighbouring_doubles_keeps_both_children():
    # (lo + hi) / 2 rounds up to hi for these two neighbouring doubles.
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi
    X = np.array([lo, lo, hi, hi])[:, None]
    r = np.array([1.0, 1.0, -1.0, -1.0])
    tree = _fit(X, r, np.ones(4), max_depth=1, min_samples_leaf=1)
    assert tree.threshold[0, 0] == lo
    assert np.array_equal(tree.predict(X), r)
    assert np.isfinite(tree.value).all()
    oracle = brute_force_split(X, r, np.ones(4), 1)
    assert oracle[:2] == (0, lo)


def test_split_whose_right_side_weight_rounds_away_is_not_chosen():
    # Pseudo-target rows weigh 1e-17, less than 2^-53 of the node, so the
    # node total minus the source rows' weight rounds to 0 for any candidate
    # that puts only pseudo-target rows on the right.
    rng = np.random.default_rng(0)
    Xs = rng.standard_normal((40, 2))
    ys = 3.0 * Xs[:, 0] + 0.1 * rng.standard_normal(40)
    Xt = rng.standard_normal((20, 2)) + 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_gbbw(Xs, ys, Xt, 3.0 * Xt[:, 0], TrainConfig(n_stages=20, alpha=1e-17))
    # Slot 0 of row 0 of a model's forest is its first stage tree's root.
    root = model.forest
    go_left = Xs[:, root.feature[0, 0]] <= root.threshold[0, 0]
    assert go_left.any() and not go_left.all()
    source_only = fit_gbbw(Xs, ys, Xt, 3.0 * Xt[:, 0], TrainConfig(n_stages=20, alpha=0.0)).forest
    assert root.feature[0, 0] == source_only.feature[0, 0]
    assert np.array_equal(go_left, Xs[:, source_only.feature[0, 0]] <= source_only.threshold[0, 0])


def test_deep_tree_predictions_match_brute_force():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        X = rng.standard_normal((60, 4))
        r = X[:, 0] * 2.0 + np.sin(X[:, 1]) + 0.1 * rng.standard_normal(60)
        w = rng.uniform(0.2, 1.5, 60)
        tree = _fit(X, r, w, max_depth=3, min_samples_leaf=2)
        oracle = BruteTree(X, r, w, max_depth=3, min_samples_leaf=2)
        Xq = rng.standard_normal((30, 4))
        assert np.allclose(tree.predict(Xq), oracle.predict(Xq), atol=1e-12)


def test_zero_weight_instances_are_refused():
    # The root holds every row: a row that must not count is left out of X, not given weight 0.
    X = np.random.default_rng(1).standard_normal((40, 2))
    for zero in (0.0, -0.0):
        w = np.ones(40)
        w[-1] = zero
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            SplitPlan.build(X, w, 2)


def test_uniform_weights_equal_any_constant_weights():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    r = rng.standard_normal(40)
    a = _fit(X, r, np.ones(40), max_depth=2, min_samples_leaf=2)
    b = _fit(X, r, np.full(40, 3.7), max_depth=2, min_samples_leaf=2)
    assert np.array_equal(a.feature, b.feature)
    assert np.allclose(a.threshold, b.threshold)
    assert np.allclose(a.value, b.value)


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2))
    r = rng.standard_normal(50)
    tree = _fit(X, r, np.ones(50), max_depth=4, min_samples_leaf=7)
    assert tree.n_nodes > 3
    for _, _, member in _leaves_with_rows(tree, X, np.ones(50, dtype=bool)):
        assert member.sum() >= 7


def test_constant_residuals_never_split():
    X = np.arange(20, dtype=float)[:, None]
    tree = _fit(X, np.full(20, 2.5), np.ones(20), max_depth=3)
    assert tree.n_nodes == 1
    assert tree.value.shape == (1, 8) and np.all(tree.value == 2.5)


def test_weight_validation():
    X = np.zeros((3, 1))
    for bad in (-1.0, -np.inf, np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            SplitPlan.build(X, np.array([1.0, bad, 1.0]), 1)
    with pytest.raises(ValueError, match="weights must be finite and positive, over at least one row"):
        SplitPlan.build(np.zeros((0, 1)), np.zeros(0), 1)
    with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore"):
        SplitPlan.build(X, np.array([1e308, 1e308, 1.0]), 2)


@pytest.mark.parametrize("shape", [(), (6,), (6, 2, 1)])
def test_a_plan_refuses_features_that_are_not_2d(shape):
    with pytest.raises(ValueError, match=re.escape(f"X must be 2-D, one row per instance, got shape {shape}")):
        SplitPlan.build(np.zeros(shape), np.ones(6), 1)


@pytest.mark.parametrize("min_samples_leaf", [0, -1, 1.5, 2.0, None])
def test_a_plan_refuses_a_min_samples_leaf_that_is_not_an_integer_of_at_least_one(min_samples_leaf):
    # 0 used to fail in numpy's broadcasting, and -1 fitted a tree.
    message = re.escape(f"min_samples_leaf must be an integer >= 1, got {min_samples_leaf!r}")
    with pytest.raises(ValueError, match=message):
        SplitPlan.build(np.arange(10, dtype=float)[:, None], np.ones(10), min_samples_leaf)


@pytest.mark.parametrize("max_depth", [-1, 1.5, 2.0, None])
def test_a_padded_tree_refuses_a_depth_that_is_not_an_integer_of_at_least_zero(max_depth):
    # -1 used to give one leaf.
    with pytest.raises(ValueError, match=re.escape(f"max_depth must be an integer >= 0, got {max_depth!r}")):
        RegressionTree.padded(1, max_depth)


def test_a_padded_tree_refuses_a_depth_above_the_bound_and_fits_one_at_it():
    rng = np.random.default_rng(7)
    X, r = rng.standard_normal((60, 2)), rng.standard_normal(60)
    with pytest.raises(ValueError, match=re.escape(f"max_depth must be at most {MAX_DEPTH}, got {MAX_DEPTH + 1}")):
        Forest.padded(2, MAX_DEPTH + 1)
    leaf_values = np.empty(60)
    tree = _fit(X, r, np.ones(60), MAX_DEPTH, 1, leaf_values)
    assert tree.value.shape == (1, 2**MAX_DEPTH) and tree == reference_tree(X, r, np.ones(60), MAX_DEPTH, 1)
    assert np.array_equal(tree.predict(X), leaf_values)
    assert tree.n_nodes == len(reference_node_table(X, r, np.ones(60), MAX_DEPTH, 1)["value"])
    assert np.any(tree.threshold[0, 2 ** (MAX_DEPTH - 1) - 1:] < np.inf)    # a split at depth MAX_DEPTH - 1


def test_a_plan_whose_root_has_no_valid_split_fits_trees_of_one_leaf_slot():
    # No column, every column constant, too few rows for two leaves, a right side whose weight rounds away.
    # A deeper tree is padding only, with the leaf's value in every leaf slot; it reads column 0.
    for X, w, min_samples_leaf in ((np.zeros((5, 0)), np.ones(5), 1), (np.ones((5, 2)), np.ones(5), 1),
                                   (np.arange(5.0)[:, None], np.ones(5), 3),
                                   (np.arange(2.0)[:, None], np.array([1.0, 1e-300]), 1)):
        plan = SplitPlan.build(X, w, min_samples_leaf)
        r = np.arange(len(X), dtype=float)
        leaf_values = np.empty(len(X))
        tree = _fit_on(plan, r, 3, leaf_values)
        assert plan.depth(3) == 0 and tree.feature.shape == tree.threshold.shape == (1, 0)
        assert tree.n_nodes == 1 and tree.value.shape == (1, 1)
        assert np.array_equal(tree.predict(X), leaf_values) and np.all(leaf_values == tree.value[0, 0])
        deep = fit_tree(plan, r, leaf_values=np.empty(len(X)), out=RegressionTree.padded(1, 3))
        assert deep.n_nodes == 1 and np.all(deep.threshold == np.inf) and np.all(deep.value == tree.value[0, 0])
        assert X.shape[1] == 0 or np.array_equal(deep.predict(X), leaf_values)


def test_fit_tree_requires_a_leaf_values_buffer_and_an_out_tree():
    plan = SplitPlan.build(np.arange(10, dtype=float)[:, None], np.ones(10), 1)
    with pytest.raises(TypeError, match="leaf_values"):
        fit_tree(plan, np.arange(10, dtype=float), out=RegressionTree.padded(1, 3))
    with pytest.raises(TypeError, match="out"):
        fit_tree(plan, np.arange(10, dtype=float), leaf_values=np.empty(10))


def test_a_plan_takes_the_count_path_when_every_weight_is_one_value_whose_multiples_are_exact():
    for c in (0.5, 1.0, 3.0):
        for n in (32, 40):
            w = np.full(n, c)
            plan = SplitPlan.build(np.arange(n, dtype=float)[:, None], w, 2)
            assert np.array_equal(plan.counts, c * np.arange(1, n + 1))
            assert plan.root.total_w == np.add.reduce(w) == c * n
    one_bit_too_many = 1.0 + 2.0**-49    # 50 significant bits, and 32 rows take 6 more
    for w in (np.full(32, 0.1), np.full(32, 0.7), np.tile([0.25, 0.75], 16), np.tile([1.0, 2.0], 16),
              np.full(32, one_bit_too_many),
              np.where(np.arange(40) % 5 == 1, 1e-300, 1.0)):
        plan = SplitPlan.build(np.arange(len(w), dtype=float)[:, None], w, 2)
        assert plan.counts is None
    assert SplitPlan.build(np.zeros((7, 1)), np.full(7, one_bit_too_many), 2).counts is not None
    assert SplitPlan.build(np.zeros((8, 1)), np.full(8, one_bit_too_many), 2).counts is None


def test_a_non_finite_total_of_the_weighted_residuals_is_rejected():
    X = np.arange(4, dtype=float)[:, None]
    for r in ([0.0, np.nan, 1.0, 2.0], [0.0, np.inf, 1.0, 2.0], [1e308, 1e308, 1e308, 0.0]):
        for max_depth in (0, 2):
            with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore"):
                _fit(X, np.array(r), np.ones(4), max_depth, min_samples_leaf=1)
    # The root's total is 0, but the cumulative sum at the only cut, the left child's total, overflows.
    with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore", invalid="ignore"):
        _fit(X[[0, 2, 1, 3]], np.array([1e308, -1e308, 1e308, -1e308]), np.ones(4), 1, min_samples_leaf=2)


def _leaves_with_rows(tree, X, member, slot=0, depth=0):
    """(depth, value, row mask) of every leaf at or below split slot ``slot``, whose rows are ``member``.

    A slot past the split slots, or a padding split (threshold +inf), is a leaf; every leaf slot under it
    must hold its value.
    """
    feature, threshold, value = tree.feature[0], tree.threshold[0], tree.value[0]
    if slot >= len(feature) or threshold[slot] == np.inf:
        span = len(value) >> depth
        first = (slot + 1) * span - len(value)
        assert np.array_equal(value[first:first + span], np.full(span, value[first]))
        yield depth, value[first], member
        return
    go_left = X[:, feature[slot]] <= threshold[slot]
    yield from _leaves_with_rows(tree, X, member & go_left, 2 * slot + 1, depth + 1)
    yield from _leaves_with_rows(tree, X, member & ~go_left, 2 * slot + 2, depth + 1)


def test_leaf_values_at_max_depth_are_the_prefix_sums_at_their_parents_cut():
    # Leaves of 9-300 rows, where np.add.reduce sums pairwise, over residuals
    # and weights of many magnitudes, so that the summation order shows: the
    # root's value is its rows' pairwise mean, the leaves' are not.
    seen, pairwise = set(), []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(18, 301))
        X = rng.standard_normal((n, 3))
        r = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        w = rng.uniform(0.1, 3.0, n)
        w[rng.random(n) < 0.1] = 1e-300
        max_depth = int(rng.integers(1, 3))
        tree = _fit(X, r, w, max_depth, min_samples_leaf=9)
        assert tree == reference_tree(X, r, w, max_depth, 9)
        assert _fit(X, r, w, 0, 9).value[0, 0] == np.add.reduce(w * r) / np.add.reduce(w)
        for depth, value, m in _leaves_with_rows(tree, X, np.ones(n, dtype=bool)):
            if depth:
                pairwise.append(value == np.add.reduce(w[m] * r[m]) / np.add.reduce(w[m]))
                seen.add(int(m.sum()))
    assert min(seen) >= 9 and max(seen) > 128
    assert not all(pairwise)


def test_ties_go_to_the_lowest_feature_then_the_lowest_threshold():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    # Along either identical column, the cuts after the first and after the
    # third row both score 1/1 + 1/3.
    tree = _fit(np.column_stack([x, x]), np.array([1.0, 0.0, 0.0, 1.0]), np.ones(4), 1, 1)
    assert (tree.feature[0, 0], tree.threshold[0, 0]) == (0, 0.5)
    # Both features score 1 at their best cut, feature 0 at its last, feature 1 at its first.
    X = np.column_stack([x, x[::-1]])
    r = np.array([0.0, 0.0, 0.0, 1.0])
    tree = _fit(X, r, np.ones(4), 1, 1)
    assert (tree.feature[0, 0], tree.threshold[0, 0]) == (0, 2.5)
    assert tree == reference_tree(X, r, np.ones(4), 1, 1)
    assert _fit(X[:, ::-1], r, np.ones(4), 1, 1).feature[0, 0] == 0
    # Both columns cut the same rows at 2.5 and sum them in other orders, so
    # feature 1's score is one bit higher. Both round to the same gain, but
    # ties are decided on scores: feature 1 wins.
    X = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [5.0, 3.0], [4.0, 4.0], [3.0, 5.0]])
    r = np.array([0.95, -9.6, -2.39, 9.66, 7.24, 5.04])
    tree = _fit(X, r, np.ones(6), 1, 1)
    assert (tree.feature[0, 0], tree.threshold[0, 0]) == (1, 2.5)
    assert tree == reference_tree(X, r, np.ones(6), 1, 1)
    # Within one feature, the cut at 5.5 scores one bit higher than the cut
    # at 1.5 and has the same gain: the higher score wins here too.
    X = np.array([1.0, 4.0, 6.0, 0.0, 5.0, 2.0, 3.0, 7.0])[:, None]
    r = np.array([-13.4, 0.3, 12.3, 3.6, -8.2, 0.5, 3.4, -6.5])
    assert _fit(X, r, np.ones(8), 1, 1).threshold[0, 0] == 5.5


def test_a_plan_fits_each_residual_vector_as_a_plan_built_for_it_alone():
    # The memo a plan fills for one tree must not change the next tree it fits.
    rng = np.random.default_rng(5)
    X, w = rng.standard_normal((30, 3)), rng.uniform(0.0, 2.0, 30)
    plan = SplitPlan.build(X, w, min_samples_leaf=2)
    for _ in range(5):
        r = rng.standard_normal(30)
        assert _fit_on(plan, r, 3) == _fit(X, r, w, 3, 2) == reference_tree(X, r, w, 3, 2)
    assert len(plan._memo)


def test_a_node_split_just_above_max_depth_in_one_tree_and_higher_up_in_a_later_one():
    # x = 0..15; rows 0-7 are the node S. The first residuals cut the root
    # at 11.5, then 7.5, so S sits at depth 2 = max_depth - 1 and its cut at
    # 3.5 writes two leaves and keeps nothing. The second residuals cut the
    # root at 7.5, so S sits at depth 1 and its children at 3.5 are searched,
    # which keeps the cut's threshold and masks; the third fit reads them.
    X = np.arange(16, dtype=float)[:, None]
    w = np.ones(16)
    plan = SplitPlan.build(X, w, min_samples_leaf=1)
    low = np.repeat([-10.0, 0.0, 30.0, 100.0], 4)
    high = np.repeat([-10.0, 0.0, 100.0, 100.0], 4) + np.tile([-2.0, -2.0, 2.0, 2.0], 4)
    rows = np.arange(16)
    S = rows < 8
    for r, thresholds, kept in ((low, (11.5, 7.5, 3.5), False), (high, (7.5, 3.5), True), (low, (11.5, 7.5, 3.5), True)):
        leaf_values = np.full(16, np.nan)
        tree = _fit_on(plan, r, 3, leaf_values)
        assert tree == reference_tree(X, r, w, 3, 1)
        assert np.array_equal(leaf_values, tree.predict(X))
        assert tuple(tree.threshold[0, [0, 1, 3][:len(thresholds)]]) == thresholds    # the leftmost splits
        children = plan._memo[S.tobytes()].children
        if kept:
            ((t, left_mask, right_mask),) = children.values()
            assert t == 3.5 and np.array_equal(left_mask, rows < 4) and np.array_equal(right_mask, S & (rows >= 4))
        else:
            assert not children


def test_residuals_weights_and_leaf_values_need_one_entry_per_row_of_X():
    rng = np.random.default_rng(6)
    X, r, w = rng.standard_normal((5, 2)), rng.standard_normal(5), np.ones(5)
    with pytest.raises(ValueError, match=r"r has shape \(4,\); X has 5 rows"):
        _fit(X, r[:4], w)
    with pytest.raises(ValueError, match=r"r has shape \(5, 1\); X has 5 rows"):
        _fit(X, r[:, None], w)
    with pytest.raises(ValueError, match=r"w has shape \(6,\); X has 5 rows"):
        SplitPlan.build(X, np.ones(6), 1)
    with pytest.raises(ValueError, match=r"leaf_values has shape \(4,\); X has 5 rows"):
        _fit(X, r, w, leaf_values=np.zeros(4))


def test_leaf_values_must_be_a_float64_array():
    # An integer array used to truncate each leaf's value (-1.032 was written as -1); a list raised
    # AttributeError.
    rng = np.random.default_rng(6)
    X, r, w = rng.standard_normal((5, 2)), rng.standard_normal(5), np.ones(5)
    for leaf_values, got in ((np.zeros(5, dtype=int), "int64"), (np.zeros(5, dtype=np.float32), "float32"),
                             ([0.0] * 5, "list")):
        with pytest.raises(ValueError, match=f"leaf_values must be a float64 ndarray, got {got}"):
            _fit(X, r, w, leaf_values=leaf_values)


def test_a_candidate_that_is_not_valid_cannot_spoil_its_feature_when_its_score_overflows():
    # Between the tied 1.0s the cumulative residual is 2e154, whose square
    # overflows; the candidates between 0 and 1 and between 1 and 2 are valid and finite.
    X = np.array([[0.0], [1.0], [1.0], [2.0]])
    r = np.array([1.0, 2e154, -2e154, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _fit(X, r, np.ones(4), max_depth=1, min_samples_leaf=1)
        expected = reference_tree(X, r, np.ones(4), 1, 1)
    assert tree == expected
    assert tree.threshold.tolist() == [[0.5]]
    # The right leaf's total is the root's 0 less the left's 1, so it reads
    # -1/3 where its rows' mean is 0: inside the module docstring's bound.
    assert tree.value.tolist() == [[1.0, -1 / 3]]

_NEXT = np.nextafter(1.0, 2.0)
_COLUMNS = (
    st.sampled_from([0.0, 1.0, 2.0]),                          # heavy ties
    st.sampled_from([1.0, _NEXT, np.nextafter(_NEXT, 2.0)]),   # neighbouring doubles
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


_ONE_VALUE_WEIGHTS = (0.5, 1.0, 3.0, 0.1, 0.7, 1.0 + 2.0**-49)


@st.composite
def _fits(draw):
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.integers(0, len(_COLUMNS) - 1), min_size=1, max_size=4))
    X = np.array([[draw(_COLUMNS[k]) for k in kinds] for _ in range(n)])
    r = np.array(draw(st.lists(
        st.sampled_from([-1.0, 0.0, 2.0]) | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=n, max_size=n)))
    if draw(st.booleans()):
        # Weights of many magnitudes: beside 1, a right side of 1e-300 rows rounds away, and is no split.
        w = np.array(draw(st.lists(st.sampled_from([1e-300, 0.5, 1.0, 3.0]) | st.floats(1e-300, 10.0),
                                   min_size=n, max_size=n)))
    else:
        # Every weight one value: the count path, where c * n is exact for every n up to the rows.
        w = np.full(n, draw(st.sampled_from(_ONE_VALUE_WEIGHTS)))
    return X, r, w, draw(st.integers(0, 4)), draw(st.integers(1, 5))


_LO = _NEXT                         # (_LO + _HI) / 2 rounds up to _HI: the threshold falls back to _LO
_HI = np.nextafter(_NEXT, 2.0)


@settings(max_examples=300, deadline=None)
@given(_fits())
# A split at depth max_depth - 1 writes both leaves from its sorted rows; here
# its cut lies between neighbouring doubles, at max_depth 1 and 2, and some
# rows weigh 1e-300 beside rows of weight 1.
@example((np.array([[_LO], [_LO], [_HI], [_HI]]), np.array([1.0, 1.0, -1.0, -1.0]), np.ones(4), 1, 1))
@example((np.array([[0.0], [0.0], [_LO], [_LO], [_HI], [_HI]]), np.array([10.0, 10.0, 1.0, 1.0, -1.0, -1.0]),
          np.ones(6), 2, 1))
@example((np.array([[_LO], [_LO], [_HI], [_HI], [_LO], [_HI]]), np.array([1.0, 1.0, -1.0, -1.0, 50.0, -50.0]),
          np.array([1.0, 1.0, 1.0, 1.0, 1e-300, 1e-300]), 1, 1))
@example((np.array([[0.0], [0.0], [_LO], [_LO], [_HI], [_HI], [_LO], [_HI], [0.0]]),
          np.array([10.0, 10.0, 1.0, 1.0, -1.0, -1.0, 50.0, -50.0, 7.0]),
          np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-300, 1e-300, 1e-300]), 2, 1))
# The only cut leaves 1e-300 right of 1, a weight that rounds away: no split.
@example((np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), np.array([1.0, 1e-300]), 1, 1))
# A stump with no candidate: one leaf, written at every row.
@example((np.ones((4, 2)), np.array([1.0, -1.0, 2.0, 0.0]), np.array([1.0, 1e-300, 2.0, 1.0]), 1, 1))
def test_tree_equals_per_node_sort_reference_and_fills_its_leaf_values(fit):
    X, r, w, max_depth, min_samples_leaf = fit
    leaf_values = np.full(len(r), np.nan)
    tree = _fit(X, r, w, max_depth, min_samples_leaf, leaf_values=leaf_values)
    assert tree == reference_tree(X, r, w, max_depth, min_samples_leaf)
    assert np.array_equal(leaf_values, tree.predict(X))


@st.composite
def _same_cut_fits(draw):
    """Columns whose lowest values all sit on the same k rows, each column in its own row order.

    Every column's cut after its k-th value splits the same rows, and its
    score sums the same residuals in another order. The k rows' residuals lie
    near b and the other 2k near -2b. That cut is then every column's best,
    with a score S near 9k b^2 and a gain near 2S/3, and a change in the last
    bit of the left sum moves S by about one bit or less, so the columns'
    scores there often differ by exactly one bit. b puts S's significand in
    [1.55, 1.95], where the gain stays in S's binade and the parent score
    falls in the binade below: two scores one bit apart can then round to the
    same gain, and only the scores tell the columns apart.
    """
    k = draw(st.integers(3, 12))
    n = 3 * k
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))    # one drawn seed is far cheaper than drawing each value
    rows = rng.permutation(n)
    columns = []
    for _ in range(draw(st.integers(2, 8))):
        x = np.empty(n)
        x[rows[:k]] = rng.permutation(k)
        x[rows[k:]] = k + rng.permutation(2 * k)
        columns.append(x)
    b = rng.choice([-1.0, 1.0]) * np.sqrt(rng.uniform(1.55, 1.95) * 2.0 ** draw(st.integers(4, 13)) / (9 * k))
    r = np.full(n, -2.0 * b)
    r[rows[:k]] = b
    r += rng.integers(-999, 1000, n) * (1e-4 * abs(b))
    return np.column_stack(columns), r


@settings(max_examples=300, deadline=None)
@given(_same_cut_fits())
def test_stumps_equal_the_reference_where_columns_cut_the_same_rows_in_other_orders(fit):
    X, r = fit
    w = np.ones(len(r))
    assert _fit(X, r, w, 1, 1) == reference_tree(X, r, w, 1, 1)


_CUTS = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0, allow_nan=False)


def _rows(draw, n_features):
    """Up to 25 rows of cuts and NaN cells."""
    X = np.array(draw(st.lists(st.lists(_CUTS | st.just(np.nan), min_size=n_features, max_size=n_features),
                               max_size=25)))
    return X.reshape(-1, n_features)


@st.composite
def _heap_trees(draw):
    """A tree of depth 0-4 with random slots, padding or not, and rows to route through it."""
    n_features, depth = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    n_splits = 2**depth - 1
    feature = np.array(draw(st.lists(st.integers(0, n_features - 1), min_size=n_splits, max_size=n_splits)),
                       dtype=np.intp)
    threshold = np.array(draw(st.lists(_CUTS | st.just(np.inf), min_size=n_splits, max_size=n_splits)), dtype=float)
    value = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n_splits + 1, max_size=n_splits + 1)))
    return RegressionTree(feature[None], threshold[None], value[None]), _rows(draw, n_features)


@given(_heap_trees())
# Trees of depth 0 never read X, which may have no column; with no rows there is nothing to route.
@example((RegressionTree(np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0)), np.array([[2.5]])), np.zeros((2, 0))))
@example((RegressionTree(np.zeros((1, 1), dtype=np.intp), np.array([[0.5]]), np.array([[1.0, 2.0]])), np.zeros((0, 1))))
def test_predict_equals_walking_each_row_down_the_table(case):
    tree, X = case
    feature, threshold, value = tree.feature[0], tree.threshold[0], tree.value[0]
    walked = []
    for x in X:
        slot = 0
        while slot < len(feature):
            slot = 2 * slot + 1 if x[feature[slot]] <= threshold[slot] else 2 * slot + 2
        walked.append(value[slot - len(feature)])
    assert np.array_equal(tree.predict(X), np.array(walked, dtype=float))


@st.composite
def _node_tables(draw):
    """A random node table in preorder, a depth at least its height, and rows to route through it."""
    n_features = draw(st.integers(1, 3))
    table = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
    height = 0

    def grow(depth):
        nonlocal height
        height = max(height, depth)
        node = len(table["value"])
        for key in ("feature", "left", "right"):
            table[key].append(-1)
        table["threshold"].append(0.0)
        table["value"].append(draw(st.floats(-1e3, 1e3)))
        if depth < 4 and draw(st.booleans()):
            table["feature"][node] = draw(st.integers(0, n_features - 1))
            table["threshold"][node] = draw(_CUTS)
            table["left"][node] = grow(depth + 1)
            table["right"][node] = grow(depth + 1)
        return node

    grow(0)
    return table, draw(st.integers(height, 4)), _rows(draw, n_features)


@given(_node_tables(), st.integers(0, 3))
def test_a_forest_finds_the_leaf_each_tree_predicts_from(case, n_trees):
    # Padding routes a NaN cell right and every other cell left: either way the leaf holds the table's value.
    table, depth, X = case
    feature, threshold, value = heap_layout(table, depth)
    tree = RegressionTree(feature[None], threshold[None], value[None])
    assert tree.n_nodes == len(table["value"])
    walked = reference_walk(table, X)
    assert np.array_equal(tree.predict(X), walked)
    # Tree t's values are the table's plus t, so a leaf of another tree would show.
    shift = np.arange(n_trees, dtype=float)[:, None]
    forest = Forest(np.tile(feature, (n_trees, 1)), np.tile(threshold, (n_trees, 1)), value + shift)
    leaves = forest.leaves(X)
    assert leaves.shape == (n_trees, len(X))
    assert np.array_equal(forest.value.take(leaves), walked + shift)


@settings(max_examples=200, deadline=None)
@given(_fits(), st.sampled_from([1e150, 1e153, 1e154, 1e155]))
def test_tree_equals_the_reference_where_split_scores_overflow(fit, scale):
    # Scores and gains reach inf and NaN; the choice among the rest stays the reference's.
    X, r, w, max_depth, min_samples_leaf = fit
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _fit(X, r * scale, w, max_depth, min_samples_leaf)
        assert tree == reference_tree(X, r * scale, w, max_depth, min_samples_leaf)



@settings(max_examples=300, deadline=None)
@given(_fits(), st.sampled_from([1.0, 1e150, 1e153, 1e154, 1e155]))
@example((np.array([[0.0], [1.0]]), np.array([-1.0, 0.0]), np.array([2.86926498e-204, 0.5]), 1, 1), 1e150)
def test_node_values_are_finite_and_within_the_stated_bound_of_their_rows_means(fit, scale):
    # The module docstring's bound for a leaf at depth d, over the root's n
    # rows, against the exact weighted mean; one more n * eps for the
    # rounding of the pairwise mean it is compared with. Over a tiny node
    # weight the bound can exceed the float range: it is then inf, and holds.
    X, r, w, max_depth, min_samples_leaf = fit
    r = r * scale
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _fit(X, r, w, max_depth, min_samples_leaf)
    n, abs_wr, total_w = len(w), np.add.reduce(np.abs(w * r)), np.add.reduce(w)
    for depth, value, m in _leaves_with_rows(tree, X, np.ones(n, dtype=bool)):
        weight = np.add.reduce(w[m])
        assert math.isfinite(value)
        mean = np.add.reduce(w[m] * r[m]) / weight
        with np.errstate(over="ignore"):
            bound = (depth + 2) * n * 2.0**-53 * (abs_wr + abs(value) * total_w) / weight
        assert abs(value - mean) <= bound

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcda.boosting import TrainConfig, fit_gbbw
from tmcda.tree import Forest, RegressionTree, SplitPlan, fit_tree

from _oracles import BruteTree, brute_force_split, reference_tree


def _fit(X, r, w, max_depth=3, min_samples_leaf=2, leaf_values=None):
    """One tree from a plan built for it."""
    return fit_tree(SplitPlan.build(X, w, min_samples_leaf), r, max_depth, leaf_values=leaf_values)


def test_depth_zero_gives_weighted_mean_leaf():
    X = np.arange(6, dtype=float)[:, None]
    r = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    w = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
    tree = _fit(X, r, w, max_depth=0)
    assert tree.n_nodes == 1
    expected = (r * w).sum() / w.sum()
    assert tree.value[0] == pytest.approx(expected)
    assert np.allclose(tree.predict(X), expected)


def test_step_data_splits_at_step():
    X = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0])[:, None]
    r = np.array([5.0, 5.0, 5.0, 5.0, -3.0, -3.0, -3.0, -3.0])
    w = np.ones(8)
    tree = _fit(X, r, w, max_depth=1, min_samples_leaf=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(6.5)
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
            assert tree.feature[0] == oracle[0]
            assert tree.threshold[0] == pytest.approx(oracle[1], rel=1e-12)


def test_split_between_neighbouring_doubles_keeps_both_children():
    # (lo + hi) / 2 rounds up to hi for these two neighbouring doubles.
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert (lo + hi) / 2.0 == hi
    X = np.array([lo, lo, hi, hi])[:, None]
    r = np.array([1.0, 1.0, -1.0, -1.0])
    tree = _fit(X, r, np.ones(4), max_depth=1, min_samples_leaf=1)
    assert tree.threshold[0] == lo
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
    root = model.stages[0]
    go_left = Xs[:, root.feature[0]] <= root.threshold[0]
    assert go_left.any() and not go_left.all()
    source_only = fit_gbbw(Xs, ys, Xt, 3.0 * Xt[:, 0], TrainConfig(n_stages=20, alpha=0.0)).stages[0]
    assert root.feature[0] == source_only.feature[0]
    assert np.array_equal(go_left, Xs[:, source_only.feature[0]] <= source_only.threshold[0])


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


def test_zero_weight_instances_do_not_affect_fit():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 2))
    r = rng.standard_normal(30)
    w = rng.uniform(0.5, 1.5, 30)
    base = _fit(X, r, w, max_depth=3, min_samples_leaf=2)
    X_extra = np.vstack([X, 100.0 * rng.standard_normal((10, 2))])
    r_extra = np.concatenate([r, 50.0 * np.ones(10)])
    w_extra = np.concatenate([w, np.zeros(10)])
    spiked = _fit(X_extra, r_extra, w_extra, max_depth=3, min_samples_leaf=2)
    assert base.to_dict() == spiked.to_dict()
    r_nan = np.concatenate([r, np.full(10, np.nan)])
    assert _fit(X_extra, r_nan, w_extra, max_depth=3, min_samples_leaf=2).to_dict() == base.to_dict()


def test_uniform_weights_equal_any_constant_weights():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 3))
    r = rng.standard_normal(40)
    a = _fit(X, r, np.ones(40), max_depth=2, min_samples_leaf=2)
    b = _fit(X, r, np.full(40, 3.7), max_depth=2, min_samples_leaf=2)
    assert a.feature == b.feature
    assert np.allclose(a.threshold, b.threshold)
    assert np.allclose(a.value, b.value)


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2))
    r = rng.standard_normal(50)
    tree = _fit(X, r, np.ones(50), max_depth=4, min_samples_leaf=7)
    node_of = np.zeros(50, dtype=int)
    for i in range(50):
        node = 0
        while tree.feature[node] != -1:
            node = tree.left[node] if X[i, tree.feature[node]] <= tree.threshold[node] else tree.right[node]
        node_of[i] = node
    for leaf in set(node_of):
        assert (node_of == leaf).sum() >= 7


def test_constant_residuals_never_split():
    X = np.arange(20, dtype=float)[:, None]
    tree = _fit(X, np.full(20, 2.5), np.ones(20), max_depth=3)
    assert tree.n_nodes == 1
    assert tree.value[0] == pytest.approx(2.5)


def test_weight_validation():
    X = np.zeros((3, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        SplitPlan.build(X, np.array([1.0, -1.0, 1.0]), 1)
    with pytest.raises(ValueError, match="positive"):
        SplitPlan.build(X, np.zeros(3), 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SplitPlan.build(X, np.array([1.0, bad, 1.0]), 1)
    with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore"):
        SplitPlan.build(X, np.array([1e308, 1e308, 1.0]), 2)


def test_a_non_finite_total_of_the_weighted_residuals_is_rejected():
    X = np.arange(4, dtype=float)[:, None]
    for r in ([0.0, np.nan, 1.0, 2.0], [0.0, np.inf, 1.0, 2.0], [1e308, 1e308, 1e308, 0.0]):
        for max_depth in (0, 2):
            with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore"):
                _fit(X, np.array(r), np.ones(4), max_depth, min_samples_leaf=1)
    # The root's total is 0, but the cumulative sum at the only cut, the left child's total, overflows.
    with pytest.raises(ValueError, match="finite total"), np.errstate(over="ignore", invalid="ignore"):
        _fit(X[[0, 2, 1, 3]], np.array([1e308, -1e308, 1e308, -1e308]), np.ones(4), 1, min_samples_leaf=2)


def _nodes_with_rows(tree, X, member, node=0, depth=0):
    """(node, depth, row mask) of ``node``, whose rows are ``member``, and of every node below it."""
    yield node, depth, member
    j = tree.feature[node]
    if j != -1:
        go_left = X[:, j] <= tree.threshold[node]
        yield from _nodes_with_rows(tree, X, member & go_left, tree.left[node], depth + 1)
        yield from _nodes_with_rows(tree, X, member & ~go_left, tree.right[node], depth + 1)


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
        w[rng.random(n) < 0.1] = 0.0
        max_depth = int(rng.integers(1, 3))
        tree = _fit(X, r, w, max_depth, min_samples_leaf=9)
        assert tree.to_dict() == reference_tree(X, r, w, max_depth, 9)
        kept = w > 0
        assert tree.value[0] == np.add.reduce(w[kept] * r[kept]) / np.add.reduce(w[kept])
        for node, _, m in _nodes_with_rows(tree, X, kept):
            if node and tree.feature[node] == -1:
                pairwise.append(tree.value[node] == np.add.reduce(w[m] * r[m]) / np.add.reduce(w[m]))
                seen.add(int(m.sum()))
    assert min(seen) >= 9 and max(seen) > 128
    assert not all(pairwise)


def test_ties_go_to_the_lowest_feature_then_the_lowest_threshold():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    # Along either identical column, the cuts after the first and after the
    # third row both score 1/1 + 1/3.
    tree = _fit(np.column_stack([x, x]), np.array([1.0, 0.0, 0.0, 1.0]), np.ones(4), 1, 1)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)
    # Both features score 1 at their best cut, feature 0 at its last, feature 1 at its first.
    X = np.column_stack([x, x[::-1]])
    r = np.array([0.0, 0.0, 0.0, 1.0])
    tree = _fit(X, r, np.ones(4), 1, 1)
    assert (tree.feature[0], tree.threshold[0]) == (0, 2.5)
    assert tree.to_dict() == reference_tree(X, r, np.ones(4), 1, 1)
    assert _fit(X[:, ::-1], r, np.ones(4), 1, 1).feature[0] == 0
    # Both columns cut the same rows at 2.5 and sum them in other orders, so
    # feature 1's score is one bit higher. Both round to the same gain, but
    # ties are decided on scores: feature 1 wins.
    X = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0], [5.0, 3.0], [4.0, 4.0], [3.0, 5.0]])
    r = np.array([0.95, -9.6, -2.39, 9.66, 7.24, 5.04])
    tree = _fit(X, r, np.ones(6), 1, 1)
    assert (tree.feature[0], tree.threshold[0]) == (1, 2.5)
    assert tree.to_dict() == reference_tree(X, r, np.ones(6), 1, 1)
    # Within one feature, the cut at 5.5 scores one bit higher than the cut
    # at 1.5 and has the same gain: the higher score wins here too.
    X = np.array([1.0, 4.0, 6.0, 0.0, 5.0, 2.0, 3.0, 7.0])[:, None]
    r = np.array([-13.4, 0.3, 12.3, 3.6, -8.2, 0.5, 3.4, -6.5])
    assert _fit(X, r, np.ones(8), 1, 1).threshold[0] == 5.5


def test_a_plan_fits_each_residual_vector_as_a_plan_built_for_it_alone():
    # The memo a plan fills for one tree must not change the next tree it fits.
    rng = np.random.default_rng(5)
    X, w = rng.standard_normal((30, 3)), rng.uniform(0.0, 2.0, 30)
    plan = SplitPlan.build(X, w, min_samples_leaf=2)
    for _ in range(5):
        r = rng.standard_normal(30)
        assert fit_tree(plan, r, 3).to_dict() == _fit(X, r, w, 3, 2).to_dict() == reference_tree(X, r, w, 3, 2)
    assert len(plan._memo)


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
    assert tree.to_dict() == expected
    assert tree.threshold == (0.5, 0.0, 0.0)
    # The right leaf's total is the root's 0 less the left's 1, so it reads
    # -1/3 where its rows' mean is 0: inside the module docstring's bound.
    assert tree.value == (0.0, 1.0, -1 / 3)

_NEXT = np.nextafter(1.0, 2.0)
_COLUMNS = (
    st.sampled_from([0.0, 1.0, 2.0]),                          # heavy ties
    st.sampled_from([1.0, _NEXT, np.nextafter(_NEXT, 2.0)]),   # neighbouring doubles
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _fits(draw):
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.integers(0, len(_COLUMNS) - 1), min_size=1, max_size=4))
    X = np.array([[draw(_COLUMNS[k]) for k in kinds] for _ in range(n)])
    r = np.array(draw(st.lists(
        st.sampled_from([-1.0, 0.0, 2.0]) | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0, allow_subnormal=False),
                               min_size=n, max_size=n)))
    if not (w > 0).any():
        w[draw(st.integers(0, n - 1))] = 1.0
    return X, r, w, draw(st.integers(0, 4)), draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(_fits())
def test_tree_equals_per_node_sort_reference_and_fills_its_leaf_values(fit):
    X, r, w, max_depth, min_samples_leaf = fit
    leaf_values = np.full(len(r), np.nan)
    tree = _fit(X, r, w, max_depth, min_samples_leaf, leaf_values=leaf_values)
    assert tree.to_dict() == reference_tree(X, r, w, max_depth, min_samples_leaf)
    kept = w > 0
    assert np.array_equal(leaf_values[kept], tree.predict(X)[kept])
    assert np.isnan(leaf_values[~kept]).all()


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
    assert _fit(X, r, w, 1, 1).to_dict() == reference_tree(X, r, w, 1, 1)


@st.composite
def _node_tables(draw):
    """A random valid node table (root 0, other ids shuffled) and rows to route through it."""
    n_features = draw(st.integers(1, 3))
    cuts = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0, allow_nan=False)
    nodes = []        # (feature, threshold, left, right, value), children as indices into nodes

    def grow(depth):
        index = len(nodes)
        nodes.append(None)
        value = draw(st.floats(-1e3, 1e3, allow_nan=False))
        if depth < 4 and draw(st.booleans()):
            split = (draw(st.integers(0, n_features - 1)), draw(cuts))
            left = grow(depth + 1)
            right = grow(depth + 1)
            nodes[index] = (*split, left, right, value)
        else:
            nodes[index] = (-1, 0.0, -1, -1, value)
        return index

    grow(0)
    ids = [0] + [1 + i for i in draw(st.permutations(range(len(nodes) - 1)))]
    renumbered = [None] * len(nodes)
    for old, (feature, threshold, left, right, value) in enumerate(nodes):
        renumbered[ids[old]] = (feature, threshold, -1 if left < 0 else ids[left],
                                -1 if right < 0 else ids[right], value)
    table = RegressionTree(*zip(*renumbered))
    X = np.array(draw(st.lists(st.lists(cuts, min_size=n_features, max_size=n_features), max_size=25)))
    return table, X.reshape(-1, n_features)


@given(_node_tables())
def test_predict_equals_walking_each_row_down_the_table(case):
    table, X = case
    walked = []
    for x in X:
        node = 0
        while table.feature[node] != -1:
            node = table.left[node] if x[table.feature[node]] <= table.threshold[node] else table.right[node]
        walked.append(table.value[node])
    assert np.array_equal(table.predict(X), np.array(walked, dtype=float))


@given(_node_tables())
def test_a_forest_finds_the_leaf_each_tree_predicts_from(case):
    # The tables are stacked behind a one-leaf tree, so the second copy's children are renumbered too.
    table, X = case
    trees = [RegressionTree((-1,), (0.0,), (-1,), (-1,), (2.5,)), table, table]
    forest = Forest.stack(trees)
    leaves = forest.leaves(X)
    assert leaves.shape == (len(trees), len(X)) and np.all(forest.feature[leaves] == -1)
    assert np.array_equal(forest.value[leaves], np.array([tree.predict(X) for tree in trees]).reshape(leaves.shape))
    assert Forest.stack([]).leaves(X).shape == (0, len(X))



@settings(max_examples=200, deadline=None)
@given(_fits(), st.sampled_from([1e150, 1e153, 1e154, 1e155]))
def test_tree_equals_the_reference_where_split_scores_overflow(fit, scale):
    # Scores and gains reach inf and NaN; the choice among the rest stays the reference's.
    X, r, w, max_depth, min_samples_leaf = fit
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _fit(X, r * scale, w, max_depth, min_samples_leaf)
        assert tree.to_dict() == reference_tree(X, r * scale, w, max_depth, min_samples_leaf)



@settings(max_examples=300, deadline=None)
@given(_fits(), st.sampled_from([1.0, 1e150, 1e153, 1e154, 1e155]))
def test_node_values_are_finite_and_within_the_stated_bound_of_their_rows_means(fit, scale):
    # The module docstring's bound for a node at depth d, over the root's n
    # rows, against the exact weighted mean; one more n * eps for the
    # rounding of the pairwise mean it is compared with.
    X, r, w, max_depth, min_samples_leaf = fit
    r = r * scale
    with np.errstate(over="ignore", invalid="ignore"):
        tree = _fit(X, r, w, max_depth, min_samples_leaf)
    kept = w > 0
    n, abs_wr, total_w = int(kept.sum()), np.add.reduce(np.abs(w * r)[kept]), np.add.reduce(w[kept])
    for node, depth, m in _nodes_with_rows(tree, X, kept):
        value, weight = tree.value[node], np.add.reduce(w[m])
        assert math.isfinite(value)
        mean = np.add.reduce(w[m] * r[m]) / weight
        assert abs(value - mean) <= (depth + 2) * n * 2.0**-53 * (abs_wr + abs(value) * total_w) / weight

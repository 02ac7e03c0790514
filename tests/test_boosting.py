import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcda import boosting, tree
from tmcda.tree import MAX_DEPTH, Forest, RegressionTree
from tmcda.boosting import (
    BoostedModel,
    TrainConfig,
    compute_gamma,
    fit_gbbw,
    fit_gradient_boosting,
    predict,
)

from _oracles import (
    heap_layout,
    reference_ensemble_predict,
    reference_node_table,
    reference_tree,
    reference_walk,
    straight_line_gbbw,
)


def _two_domain_problem(seed, n1=12, n2=4, p=3):
    rng = np.random.default_rng(seed)
    Xs = rng.standard_normal((n1, p))
    Xt = rng.standard_normal((n2, p)) + 1.0
    f = lambda X: 3.0 * X[:, 0] - X[:, 1] ** 2
    ys = f(Xs) + 0.1 * rng.standard_normal(n1)
    yt = f(Xt) + 0.1 * rng.standard_normal(n2)
    return Xs, ys, Xt, yt


def _fit_with_trees(fit, *args, check=None):
    """``fit(*args)`` and the trees its ``boosting.fit_tree`` calls return, in stage order.

    ``check(plan, r)``, if given, runs after each of those calls,
    before the stage moves F. Stage t's tree must be written into row t of
    the model's forest, and each tree's copy is taken when its call returns.
    """
    trees, fit_tree = [], boosting.fit_tree

    def recording(plan, r, *, leaf_values, out):
        fitted = fit_tree(plan, r, leaf_values=leaf_values, out=out)
        assert fitted is out
        trees.append(RegressionTree(*(np.copy(a) for a in (out.feature, out.threshold, out.value))))
        if check is not None:
            check(plan, r)
        return fitted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boosting, "fit_tree", recording)
        model = fit(*args)
    assert len(trees) == model.n_stages
    assert all(model.forest.tree(t) == tree for t, tree in enumerate(trees))
    return model, trees


# ------------------------------------------------------------------ multiplier

def test_gamma_one_when_tree_reproduces_residuals():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(10)
    F = rng.standard_normal(10)
    h = y - F
    w = rng.uniform(0.1, 2.0, 10)
    assert compute_gamma(F, h, y, w) == pytest.approx(1.0)


def test_gamma_zero_for_zero_tree():
    assert compute_gamma(np.ones(5), np.zeros(5), np.zeros(5), np.ones(5)) == 0.0


def test_gamma_matches_grid_search_oracle():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(8)
    F = rng.standard_normal(8)
    h = rng.standard_normal(8)
    w = rng.uniform(0.1, 1.0, 8)
    gamma = compute_gamma(F, h, y, w)
    grid = np.linspace(gamma - 1.0, gamma + 1.0, 40_001)
    losses = [(w * 0.5 * (y - F - g * h) ** 2).sum() for g in grid]
    assert abs(grid[int(np.argmin(losses))] - gamma) < 1e-4


@st.composite
def _one_stage(draw):
    """One stage's inputs: 1-3 columns (some tie-heavy), positive weights, F and y, depth 0-4."""
    n = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1, max_size=3))
    X = np.array([[draw(_CELLS[k]) for k in kinds] for _ in range(n)]).reshape(n, len(kinds))
    w = np.array(draw(st.lists(st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    values = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_nan=False)
    F = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    y = F.copy() if draw(st.integers(0, 3)) == 0 else np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return X, w, F, y, draw(st.integers(0, 4)), draw(st.integers(1, 3))


def _leaves(stage_tree, slot=0, depth=0):
    """The value of each leaf at or below split slot ``slot`` of ``stage_tree``, once per leaf: a padding split
    (threshold +inf) is a leaf, whose value fills the leaf slots under it."""
    feature, threshold, value = stage_tree.feature[0], stage_tree.threshold[0], stage_tree.value[0]
    if slot < len(feature) and threshold[slot] < np.inf:
        return _leaves(stage_tree, 2 * slot + 1, depth + 1) + _leaves(stage_tree, 2 * slot + 2, depth + 1)
    return [value[(slot + 1) * (len(value) >> depth) - len(value)]]


@settings(max_examples=300, deadline=None)
@given(_one_stage())
@example(case=(np.zeros((4, 2)), np.ones(4), np.zeros(4),
               np.array([7.32269802e-228, 0.0, 0.0, 0.0]), 0, 1))    # sum(w h^2) underflows to 0
def test_the_line_search_after_one_stage_returns_one_within_the_leaf_mean_rounding(case):
    # A stage's leaf values are its leaves' weighted residual means, so
    # sum(w r h) = sum(w h^2) and the multiplier is 1 (0 when h is 0 on every
    # row); the fit adds shrinkage * h without computing it. With
    # leaf values h_L within the tree's stated rounding of the means
    # (d + 1) n eps (S + |h_L| W) / W_L, S = sum |w r| and W = sum w over the
    # n rows, the two sums differ by at most (d + 1) n eps (S sum_L |h_L|
    # + W sum_L h_L^2), and computing them adds (n + 2) eps (sum w |r h|
    # + sum w h^2); twice that over sum w h^2 bounds |gamma - 1|, as long as
    # sum w h^2 does not underflow.
    X, w, F, y, depth, min_leaf = case
    r = y - F
    h = np.zeros(len(y))
    plan = tree.SplitPlan.build(X, w, min_leaf)
    fitted = tree.fit_tree(plan, r, leaf_values=h, out=tree.RegressionTree.padded(1, plan.depth(depth)))
    gamma = compute_gamma(F, h, y, w)
    if not np.any(h):
        assert gamma == 0.0
        return
    denom = (w * h * h).sum()
    if denom < np.finfo(float).tiny:
        # The line search reads a rounded-away sum, 0 if it is 0, but the
        # stage's whole update is shrinkage * h, below 1e-150 in every row.
        assert np.abs(h).max() < 1e-150
        return
    eps, n = 2.0 ** -53, len(y)
    leaves = np.array(_leaves(fitted))
    S, W = np.abs(w * r).sum(), w.sum()
    leaf_error = (depth + 1) * n * (S * np.abs(leaves).sum() + W * (leaves * leaves).sum())
    sum_error = (n + 2) * ((w * np.abs(r * h)).sum() + denom)
    assert abs(gamma - 1.0) <= 2.0 * eps * (leaf_error + sum_error) / denom


# -------------------------------------------------------------------- training

def test_zero_stages_predicts_weighted_constant():
    Xs, ys, Xt, yt = _two_domain_problem(3)
    alpha = 0.5
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=0, alpha=alpha))
    expected = ((1 - alpha) * ys.sum() + alpha * yt.sum()) / ((1 - alpha) * len(ys) + alpha * len(yt))
    assert model.f0 == pytest.approx(expected)
    assert np.allclose(predict(model, Xs), expected)


def test_alpha_zero_bitwise_equals_source_only_boosting():
    Xs, ys, Xt, yt = _two_domain_problem(4)
    config = TrainConfig(n_stages=20, max_depth=2, shrinkage=0.3, alpha=0.0)
    adapted = fit_gbbw(Xs, ys, Xt, yt, config)
    plain = fit_gradient_boosting(Xs, ys, config)
    assert adapted == plain
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(predict(adapted, probe), predict(plain, probe))


def test_alpha_one_equals_gradient_boosting_on_the_pseudo_target_set():
    Xs, ys, Xt, yt = _two_domain_problem(4)
    config = TrainConfig(n_stages=20, max_depth=2, shrinkage=0.3, alpha=1.0)
    assert fit_gbbw(Xs, ys, Xt, yt, config) == fit_gradient_boosting(Xt, yt, config)


def test_alpha_zero_invariant_to_pseudo_target_contents():
    Xs, ys, Xt, yt = _two_domain_problem(5)
    config = TrainConfig(n_stages=15, max_depth=2, alpha=0.0)
    a = fit_gbbw(Xs, ys, Xt, yt, config)
    b = fit_gbbw(Xs, ys, 1000.0 * Xt, -50.0 * yt, config)
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(predict(a, probe), predict(b, probe))


def test_alpha_one_invariant_to_source_contents():
    Xs, ys, Xt, yt = _two_domain_problem(6)
    config = TrainConfig(n_stages=15, max_depth=2, alpha=1.0)
    a = fit_gbbw(Xs, ys, Xt, yt, config)
    b = fit_gbbw(-99.0 * Xs, 123.0 * ys, Xt, yt, config)
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(predict(a, probe), predict(b, probe))


def test_weighted_training_loss_non_increasing_with_unit_shrinkage():
    Xs, ys, Xt, yt = _two_domain_problem(7, n1=30, n2=10)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=25, max_depth=2, shrinkage=1.0, alpha=0.5))
    trace = np.array(model.loss_trace)
    assert np.all(np.diff(trace) <= 1e-10)


def test_full_fit_matches_straight_line_re_implementation():
    Xs, ys, Xt, yt = _two_domain_problem(8, n1=12, n2=4)
    alpha, M, depth, min_leaf, nu = 0.5, 3, 2, 2, 1.0
    model = fit_gbbw(Xs, ys, Xt, yt,
                     TrainConfig(n_stages=M, max_depth=depth, min_samples_leaf=min_leaf,
                                 shrinkage=nu, alpha=alpha))
    oracle = straight_line_gbbw(Xs, ys, Xt, yt, alpha, M, depth, min_leaf, nu)
    probe = np.vstack([Xs, Xt])
    assert np.max(np.abs(predict(model, probe) - oracle(probe))) < 1e-10


def test_single_stump_hand_case():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 2.0, 2.0])
    model, (stump,) = _fit_with_trees(fit_gradient_boosting, X, y, TrainConfig(n_stages=1, max_depth=1,
                                                                              min_samples_leaf=1, shrinkage=1.0))
    # F0 = 1; residuals (-1,-1,1,1); stump at 0.5 reproduces them
    assert model.f0 == pytest.approx(1.0)
    assert stump.threshold[0] == pytest.approx(0.5)
    assert np.allclose(predict(model, X), y)


def test_prediction_additive_in_stages():
    Xs, ys, Xt, yt = _two_domain_problem(9)
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, TrainConfig(n_stages=10, max_depth=2, alpha=0.5))
    probe = np.vstack([Xs, Xt])
    forest = model.forest
    truncated = BoostedModel(model.f0, Forest(forest.feature[:-1], forest.threshold[:-1], forest.value[:-1]),
                             model.shrinkage, model.n_features)
    recomposed = predict(truncated, probe) + model.shrinkage * fitted[-1].predict(probe)
    assert np.allclose(predict(model, probe), recomposed, atol=1e-12)


def test_label_scaling_equivariance():
    Xs, ys, Xt, yt = _two_domain_problem(10)
    config = TrainConfig(n_stages=12, max_depth=2, alpha=0.5)
    base = fit_gbbw(Xs, ys, Xt, yt, config)
    scaled = fit_gbbw(Xs, 7.0 * ys, Xt, 7.0 * yt, config)
    probe = np.vstack([Xs, Xt])
    assert scaled.f0 == pytest.approx(7.0 * base.f0, rel=1e-12)
    assert np.allclose(predict(scaled, probe), 7.0 * predict(base, probe), rtol=1e-10)


@pytest.mark.parametrize("max_depth", [MAX_DEPTH + 1, 64])
def test_a_max_depth_above_the_bound_is_refused(max_depth):
    with pytest.raises(ValueError, match=re.escape(f"max_depth must be at most {MAX_DEPTH}, got {max_depth}")):
        TrainConfig(max_depth=max_depth)
    assert TrainConfig(max_depth=MAX_DEPTH).max_depth == MAX_DEPTH


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_fit_on_zero_columns_keeps_one_leaf_slot_per_stage_and_predicts(alpha):
    Xs, ys, Xt, yt = np.zeros((5, 0)), np.arange(5.0), np.zeros((3, 0)), np.arange(3.0) + 10.0
    config = TrainConfig(n_stages=4, max_depth=3, shrinkage=0.5, alpha=alpha)
    model = fit_gbbw(Xs, ys, Xt, yt, config)
    assert model.forest.feature.shape == model.forest.threshold.shape == (4, 0)
    assert model.forest.value.shape == (4, 1)
    X, y, w = _reference_data(Xs, ys, Xt, yt, alpha)
    F, tables = np.full(len(y), model.f0), []
    for _ in range(config.n_stages):
        tables.append(reference_node_table(X, y - F, w, config.max_depth, config.min_samples_leaf))
        F = F + config.shrinkage * reference_walk(tables[-1], X)
    expected = reference_ensemble_predict(model.f0, config.shrinkage, tables, np.zeros((2, 0)))
    assert predict(model, np.zeros((2, 0))).tobytes() == expected.tobytes()


def test_boundary_validation():
    Xs, ys, Xt, yt = _two_domain_problem(12)
    empty_X, empty_y = np.empty((0, Xs.shape[1])), np.empty(0)
    with pytest.raises(ValueError, match="alpha = 1"):
        fit_gbbw(Xs, ys, empty_X, empty_y, TrainConfig(alpha=1.0))
    with pytest.raises(ValueError, match="alpha = 0"):
        fit_gbbw(Xs, ys, empty_X, empty_y, TrainConfig(alpha=0.5))
    with pytest.raises(ValueError, match="alpha"):
        TrainConfig(alpha=1.5)
    # alpha = 0 with an empty pseudo-target is the plain source-only fit
    model = fit_gbbw(Xs, ys, empty_X, empty_y, TrainConfig(n_stages=3, alpha=0.0))
    assert model.n_stages == 3


@pytest.mark.parametrize("shape", [(), (12,), (12, 2, 1)])
def test_gradient_boosting_refuses_features_that_are_not_2d(shape):
    with pytest.raises(ValueError, match=re.escape(f"X must be 2-D, one row per sample, got shape {shape}")):
        fit_gradient_boosting(np.zeros(shape), np.zeros(12), TrainConfig(n_stages=2))


@pytest.mark.parametrize("source_shape, target_shape, bad", [
    ((10,), (10,), "source_X"),           # equal lengths would stack into a 2-row matrix
    ((10,), (4,), "source_X"),
    ((10, 2), (4,), "target_X"),
    ((10, 2, 1), (4, 2), "source_X"),
    ((10, 2), (), "target_X"),
])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_gbbw_refuses_features_that_are_not_2d_in_either_set(source_shape, target_shape, bad, alpha):
    shape = source_shape if bad == "source_X" else target_shape
    message = re.escape(f"{bad} must be 2-D, one row per sample, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        fit_gbbw(np.zeros(source_shape), np.zeros(10), np.zeros(target_shape), np.zeros(target_shape[:1]),
                 TrainConfig(n_stages=2, alpha=alpha))


@pytest.mark.parametrize("misaligned", ["X", "source_y", "target_y"])
def test_misaligned_rows_are_refused_by_both_entry_points(misaligned):
    Xs, ys, Xt, yt = _two_domain_problem(19)
    config = TrainConfig(n_stages=2, alpha=0.5)
    if misaligned == "X":
        with pytest.raises(ValueError, match=r"^y must have shape \(\d+,\), one entry per row of X, got shape"):
            fit_gradient_boosting(Xs, ys[:-1], config)
    else:
        ys, yt = (ys[:-1], yt) if misaligned == "source_y" else (ys, yt[:-1])
        features = misaligned.replace("y", "X")
        with pytest.raises(ValueError, match=rf"^{misaligned} must have shape \(\d+,\), one entry per row of {features}"):
            fit_gbbw(Xs, ys, Xt, yt, config)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_gbbw_refuses_sets_with_different_column_counts_before_any_fit(alpha, monkeypatch):
    Xs, ys, Xt, yt = _two_domain_problem(20)
    monkeypatch.setattr(boosting, "_boost", lambda *args: pytest.fail("fit before the column check"))
    message = re.escape("source_X has shape (12, 3) and target_X has shape (4, 2)")
    with pytest.raises(ValueError, match=message):
        fit_gbbw(Xs, ys, Xt[:, :2], yt, TrainConfig(n_stages=2, alpha=alpha))


def test_predict_validates_dimensions():
    Xs, ys, Xt, yt = _two_domain_problem(14)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=2, alpha=0.5))
    with pytest.raises(ValueError, match="features"):
        predict(model, np.zeros((3, 7)))


def test_fit_calls_fit_tree_once_per_stage_and_never_predicts(monkeypatch):
    # The benchmark's tracer times boosting.fit_tree and RegressionTree.predict,
    # and a stage makes one fit_tree call at every max_depth, stumps included.
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(boosting, "fit_tree", counting("fit_tree", boosting.fit_tree))
    monkeypatch.setattr(RegressionTree, "predict", counting("predict", RegressionTree.predict))
    Xs, ys, Xt, yt = _two_domain_problem(7)
    for max_depth in range(4):
        calls.clear()
        model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=9, max_depth=max_depth, alpha=0.5))
        assert model.n_stages == 9
        assert calls == ["fit_tree"] * 9


def test_predict_never_calls_tree_predict(monkeypatch):
    # The tracer's tree.predict probe reads 0 calls: predict walks the stacked table.
    Xs, ys, Xt, yt = _two_domain_problem(7)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=9, max_depth=2, alpha=0.5))
    calls = []
    original = RegressionTree.predict
    monkeypatch.setattr(RegressionTree, "predict", lambda *a, **k: calls.append(1) or original(*a, **k))
    predict(model, Xs)
    assert calls == []


def test_a_model_that_splits_past_n_features_is_rejected():
    Xs, ys, Xt, yt = _two_domain_problem(13)
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, TrainConfig(n_stages=3, max_depth=2, alpha=0.5))
    assert model.n_features == 3 and fitted[0].n_nodes > 1
    # The same forest, each split moved to feature 7.
    forest = model.forest
    edited = replace(forest, feature=np.where(forest.threshold < np.inf, 7, forest.feature))
    with pytest.raises(ValueError, match="n_features"):
        BoostedModel(f0=model.f0, forest=edited, shrinkage=model.shrinkage, n_features=model.n_features)


@st.composite
def _models(draw):
    """A model of 0-6 random trees of height 0-4 laid out at one depth, their node tables, and rows with NaN
    cells to route through it."""
    n_features = draw(st.integers(1, 3))
    cuts = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0, allow_nan=False)
    finite = st.floats(-1e3, 1e3, allow_nan=False)

    def grow(table, depth, limit):
        """Append a subtree to ``table`` in preorder; a leaf's feature and children are -1."""
        node = len(table["value"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            table[key].append(blank)
        table["value"].append(draw(finite))
        if depth < limit and draw(st.booleans()):
            table["feature"][node] = draw(st.integers(0, n_features - 1))
            table["threshold"][node] = draw(cuts)
            table["left"][node] = grow(table, depth + 1, limit)
            table["right"][node] = grow(table, depth + 1, limit)
        return node

    depth = draw(st.integers(0, 4))
    tables = []
    for _ in range(draw(st.integers(0, 6))):
        tables.append({"feature": [], "threshold": [], "left": [], "right": [], "value": []})
        grow(tables[-1], 0, draw(st.integers(0, depth)))
    forest = Forest.padded(len(tables), depth)
    for t, table in enumerate(tables):
        forest.feature[t], forest.threshold[t], forest.value[t] = heap_layout(table, depth)
    model = BoostedModel(f0=draw(finite), forest=forest, shrinkage=draw(st.floats(1e-3, 1.0)), n_features=n_features)
    cell = cuts | st.just(float("nan"))
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features), max_size=20)))
    return model, tables, X.reshape(-1, n_features)


@settings(max_examples=300, deadline=None)
@given(_models())
def test_predict_equals_the_stage_by_stage_reference_bit_for_bit(case):
    model, tables, X = case
    expected = reference_ensemble_predict(model.f0, model.shrinkage, tables, X).tobytes()
    assert predict(model, X).tobytes() == expected


_CELLS = (
    st.sampled_from([0.0, 1.0, 2.0]),                          # heavy ties
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


@st.composite
def _boosting_fits(draw):
    """Two domains over 1-3 columns (some tie-heavy) and a config whose stages reuse one split plan."""
    alpha = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    n1 = draw(st.integers(1, 20))
    n2 = draw(st.integers(1 if alpha > 0 else 0, 10))
    kinds = draw(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1, max_size=3))
    X = np.array([[draw(_CELLS[k]) for k in kinds] for _ in range(n1 + n2)]).reshape(n1 + n2, len(kinds))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=n1 + n2, max_size=n1 + n2)))
    config = TrainConfig(n_stages=draw(st.integers(1, 5)), max_depth=draw(st.integers(0, 3)),
                         min_samples_leaf=draw(st.integers(1, 5)),
                         shrinkage=draw(st.sampled_from([0.1, 0.5, 1.0])), alpha=alpha)
    return X[:n1], y[:n1], X[n1:], y[n1:], config


@settings(max_examples=200, deadline=None)
@given(_boosting_fits())
def test_every_stage_tree_equals_the_reference_tree_on_that_stages_residuals(case):
    Xs, ys, Xt, yt, config = case
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config)
    alpha = config.alpha
    if alpha == 0.0:
        X, y, w = Xs, ys, np.full(len(ys), 1.0)
    elif alpha == 1.0:
        X, y, w = Xt, yt, np.full(len(yt), 1.0)
    else:
        X, y = np.vstack([Xs, Xt]), np.concatenate([ys, yt])
        w = np.concatenate([np.full(len(ys), 1.0 - alpha), np.full(len(yt), alpha)])
    F = np.full(len(y), model.f0)
    for tree in fitted:
        r = y - F
        assert tree == reference_tree(X, r, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * tree.predict(X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_or_labels_are_rejected(bad):
    Xs, ys, Xt, yt = _two_domain_problem(15)
    config = TrainConfig(n_stages=3, max_depth=2, alpha=0.5)
    for spoiled in range(4):
        arrays = [a.copy() for a in (Xs, ys, Xt, yt)]
        arrays[spoiled].flat[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_gbbw(*arrays, config)
        if spoiled < 2:
            with pytest.raises(ValueError, match="non-finite"):
                fit_gradient_boosting(*arrays[:2], config)
    # At alpha = 0 and 1 one set is left out of the fit, and its values are checked all the same.
    Xt_bad, ys_bad = Xt.copy(), ys.copy()
    Xt_bad[0, 0] = ys_bad[0] = bad
    with pytest.raises(ValueError, match="^target_X has non-finite entries$"):
        fit_gbbw(Xs, ys, Xt_bad, yt, replace(config, alpha=0.0))
    with pytest.raises(ValueError, match="^source_y has non-finite entries$"):
        fit_gbbw(Xs, ys_bad, Xt, yt, replace(config, alpha=1.0))


def _count_node_builds(monkeypatch):
    """Record the row-mask bytes of every node ``tree._node`` builds."""
    built, build_node = [], tree._node

    def counting_node(*args):
        built.append(args[-2].tobytes())    # the row mask, before min_samples_leaf
        return build_node(*args)

    monkeypatch.setattr(tree, "_node", counting_node)
    return built


def _fit_recording_plans(*args):
    """The stage trees of ``fit_gbbw(*args)``, and the plan of each ``fit_tree`` call."""
    plans = []
    _, fitted = _fit_with_trees(fit_gbbw, *args, check=lambda plan, *_: plans.append(plan))
    return fitted, plans


def _node_masks(stage_tree, X, member, depth=0, slot=0):
    """(depth, row mask) of the node at split slot ``slot`` of ``stage_tree``, whose rows are ``member``, and of
    every node below it; a padding split (threshold +inf) is a leaf."""
    yield depth, member
    feature, threshold = stage_tree.feature[0], stage_tree.threshold[0]
    if slot < len(feature) and threshold[slot] < np.inf:
        go_left = X[:, feature[slot]] <= threshold[slot]
        yield from _node_masks(stage_tree, X, member & go_left, depth + 1, 2 * slot + 1)
        yield from _node_masks(stage_tree, X, member & ~go_left, depth + 1, 2 * slot + 2)


def test_each_node_is_built_once_per_fit_while_it_stays_in_the_memo(monkeypatch):
    built = _count_node_builds(monkeypatch)
    Xs, ys, Xt, yt = _two_domain_problem(16, n1=30, n2=10)
    fitted, plans = _fit_recording_plans(Xs, ys, Xt, yt, TrainConfig(n_stages=60, max_depth=3, alpha=0.5))
    memo = plans[-1]._memo
    assert len(memo) == len(built) - 1        # the plan's root, then every other node: nothing evicted
    assert len(set(built)) == len(built)
    visited = sum(stage_tree.n_nodes for stage_tree in fitted)
    assert len(built) < visited / 2           # most nodes came from the memo
    # Only nodes above max_depth are built, and none of the leaves at max_depth is kept.
    X, _, w = _reference_data(Xs, ys, Xt, yt, 0.5)
    above, at_max_depth = set(), set()
    for stage_tree in fitted:
        for depth, member in _node_masks(stage_tree, X, w > 0):
            (above if depth < 3 else at_max_depth).add(member.tobytes())
    assert set(built) <= above and set(memo) <= above
    assert at_max_depth - above


def test_boosting_fits_share_no_nodes(monkeypatch):
    built = _count_node_builds(monkeypatch)
    first, second = _two_domain_problem(17, n1=30, n2=10), _two_domain_problem(18, n1=30, n2=10)
    config = TrainConfig(n_stages=20, max_depth=3, alpha=0.5)
    runs, plans = [], []
    for data in (first, second, first):
        del built[:]
        plans += _fit_recording_plans(*data, config)[1]
        runs.append(list(built))
    assert runs[2] == runs[0]                 # the same nodes built again: nothing kept from the fits before
    assert len({id(plan) for plan in plans}) == 3 and len(plans) == 60


def _reference_data(Xs, ys, Xt, yt, alpha):
    """The rows, labels and weights ``fit_gbbw`` trains on."""
    if alpha == 0.0:
        return Xs, ys, np.full(len(ys), 1.0)
    if alpha == 1.0:
        return Xt, yt, np.full(len(yt), 1.0)
    return (np.vstack([Xs, Xt]), np.concatenate([ys, yt]),
            np.concatenate([np.full(len(ys), 1.0 - alpha), np.full(len(yt), alpha)]))


@pytest.mark.parametrize("max_depth", [1, 3])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_loss_trace_is_the_weighted_loss_after_each_stage(alpha, max_depth):
    Xs, ys, Xt, yt = _two_domain_problem(20, n1=30, n2=10)
    config = TrainConfig(n_stages=25, max_depth=max_depth, shrinkage=0.3, alpha=alpha)
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config)
    X, y, w = _reference_data(Xs, ys, Xt, yt, alpha)
    F = np.full(len(y), model.f0)
    expected = [float(w @ (0.5 * (y - F) ** 2))]
    for stage_tree in fitted:
        F = F + config.shrinkage * stage_tree.predict(X)
        expected.append(float(w @ (0.5 * (y - F) ** 2)))
    assert model.loss_trace == tuple(expected)


@st.composite
def _stage_fits(draw):
    """Two domains over 1-3 columns (some tie-heavy) and a config of depth 0-3, ``min_samples_leaf`` up to the rows fit on.

    Alpha 0 and 1 fit under unit weights, 0.3 under balanced ones.
    """
    alpha = draw(st.sampled_from([0.0, 0.3, 1.0]))
    n1 = draw(st.integers(1, 20))
    n2 = draw(st.integers(1 if alpha > 0 else 0, 10))
    kinds = draw(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1, max_size=3))
    X = np.array([[draw(_CELLS[k]) for k in kinds] for _ in range(n1 + n2)]).reshape(n1 + n2, len(kinds))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=n1 + n2, max_size=n1 + n2)))
    n = {0.0: n1, 1.0: n2}.get(alpha, n1 + n2)
    config = TrainConfig(n_stages=draw(st.integers(1, 8)), max_depth=draw(st.integers(0, 3)),
                         min_samples_leaf=draw(st.integers(1, n)), shrinkage=draw(st.sampled_from([0.1, 1.0])),
                         alpha=alpha)
    return X[:n1], y[:n1], X[n1:], y[n1:], config


@settings(max_examples=200, deadline=None)
@given(_stage_fits())
# Every column ties on every row: the root has no candidate, and every stage is one leaf.
@example(case=(np.ones((3, 2)), np.array([0.0, 1.0, 5.0]), np.ones((2, 2)), np.array([2.0, -3.0]),
               TrainConfig(n_stages=4, max_depth=1, min_samples_leaf=1, shrinkage=1.0, alpha=0.3)))
# Unit weights, where w * r is r, bit for bit.
@example(case=(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 5.0, 2.0]), np.empty((0, 1)),
               np.empty(0), TrainConfig(n_stages=3, max_depth=1, min_samples_leaf=1, shrinkage=0.1, alpha=0.0)))
# Squared residuals near 3.7e-316, below _weighted_loss's stated range: the halved terms' sum reads one bit more.
@example(case=(np.zeros((1, 1)), np.zeros(1), np.zeros((3, 1)), np.array([0.0, 0.0, 1.0251888e-157]),
               TrainConfig(n_stages=1, max_depth=0, min_samples_leaf=1, shrinkage=0.1, alpha=0.3)))
def test_a_stump_fit_moves_F_by_each_stages_tree_bit_for_bit(case):
    # Every stage, stumps included, is one fit_tree call that writes h, then
    # F += shrinkage * h; each stage's weighted residuals, the loss trace and
    # the predictions on the training rows are those of
    # F + shrinkage * tree.predict(X).
    Xs, ys, Xt, yt, config = case
    X, y, w = _reference_data(Xs, ys, Xt, yt, config.alpha)
    seen = []

    def check(plan, r):
        seen.append(plan.w * r)

    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config, check=check)
    assert model.f0 == float(w @ y / w.sum())
    assert len(seen) == model.n_stages == config.n_stages
    F = np.full(len(y), model.f0)
    expected = [_stated_loss(w, y - F)]
    for stage_tree, wr in zip(fitted, seen):
        assert wr.tobytes() == (w * (y - F)).tobytes()
        assert stage_tree == reference_tree(X, y - F, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * stage_tree.predict(X)
        expected.append(_stated_loss(w, y - F))
    assert model.loss_trace == tuple(expected)
    assert predict(model, X).tobytes() == F.tobytes()


@st.composite
def _deep_fits(draw):
    """``_stage_fits`` at depth 0-4, and rows with NaN cells to predict."""
    Xs, ys, Xt, yt, config = draw(_stage_fits())
    n_features = Xs.shape[1]
    cell = st.sampled_from([0.0, 1.0, 2.0, float("nan")]) | st.floats(-1e3, 1e3, allow_nan=False)
    Xq = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features), max_size=20)))
    return Xs, ys, Xt, yt, replace(config, max_depth=draw(st.integers(0, 4))), Xq.reshape(-1, n_features)


@settings(max_examples=150, deadline=None)
@given(_deep_fits())
def test_stage_trees_count_the_reference_nodes_and_the_model_predicts_the_reference_walk(case):
    # Each stage's tree has the reference preorder table's nodes, padding aside, and the model predicts
    # what walking those tables stage by stage gives, on rows whose NaN cells padding may route either way.
    Xs, ys, Xt, yt, config, Xq = case
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config)
    X, y, w = _reference_data(Xs, ys, Xt, yt, config.alpha)
    F, tables = np.full(len(y), model.f0), []
    for stage_tree in fitted:
        tables.append(reference_node_table(X, y - F, w, config.max_depth, config.min_samples_leaf))
        assert stage_tree.n_nodes == len(tables[-1]["value"])
        F = F + config.shrinkage * reference_walk(tables[-1], X)
    expected = reference_ensemble_predict(model.f0, config.shrinkage, tables, Xq)
    assert predict(model, Xq).tobytes() == expected.tobytes()


def _stated_loss(w, r):
    """The loss as ``_weighted_loss`` states it: the halved terms' sum, w.dot(0.5 * r ** 2), inside its stated
    range, and its own formula outside.

    The range holds when every nonzero r^2 and w * r^2 is at least 2^-1021 and the total is finite; the terms
    are not negative, so every nonzero partial sum is then at least 2^-1021 too.
    """
    squares = r * r
    inside = np.all((squares == 0) | ((squares >= 2.0 ** -1021) & (w * squares >= 2.0 ** -1021)))
    if inside and np.isfinite(w.dot(squares)):
        return float(w.dot(0.5 * r ** 2))
    return 0.5 * float(w.dot(squares))


_TINY = (1.0 + 2.0 ** -52) * 2.0 ** -1022      # below 2^-1021, with the lowest mantissa bit set


@pytest.mark.parametrize("w, r, same", [
    (np.full(2, _TINY), np.ones(2), False),        # each halved term rounds on its own: 2^-1022 against _TINY
    (np.full(2, 2.0 * _TINY), np.ones(2), True),   # at 2^-1021 halving is exact
    (np.ones(2), np.full(2, 1e154), False),        # 2e308 overflows; the halved total, 1e308, does not
    (np.ones(2), np.full(2, 9e153), True),         # 1.62e308 is finite
])
def test_the_loss_is_the_halved_terms_sum_inside_the_stated_range_and_not_past_either_edge(w, r, same):
    with np.errstate(over="ignore"):
        assert (boosting._weighted_loss(w, r) == float(w.dot(0.5 * r ** 2))) == same


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(1e-3, 10.0),
                          st.sampled_from([0.0, -1.0]) | st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)),
                min_size=1, max_size=24))
def test_the_loss_is_the_halved_terms_sum_bit_for_bit_inside_the_stated_range(pairs):
    # Every nonzero w r^2 is at least 1e-303 > 2^-1021, and the total at most 2.4e302.
    w, r = (np.array(column) for column in zip(*pairs))
    assert boosting._weighted_loss(w, r) == float(w.dot(0.5 * r ** 2))


@st.composite
def _long_fits(draw):
    """At least 30 stages of depth 2-3 trees on tie-heavy columns, and a memo bound of 0-4 roots' bytes."""
    alpha = draw(st.sampled_from([0.0, 0.5]))
    n1, n2 = draw(st.integers(4, 20)), draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=1, max_size=3))
    X = np.array([[draw(_CELLS[k]) for k in kinds] for _ in range(n1 + n2)]).reshape(n1 + n2, len(kinds))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(-1e3, 1e3, allow_nan=False),
                               min_size=n1 + n2, max_size=n1 + n2)))
    config = TrainConfig(n_stages=draw(st.integers(30, 40)), max_depth=draw(st.integers(2, 3)),
                         min_samples_leaf=draw(st.integers(1, 3)),
                         shrinkage=draw(st.sampled_from([0.1, 0.5, 1.0])), alpha=alpha)
    return X[:n1], y[:n1], X[n1:], y[n1:], config, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]))


@settings(max_examples=60, deadline=None)
@given(_long_fits())
def test_long_fits_under_a_small_memo_bound_equal_the_reference_tree_at_every_stage(case):
    Xs, ys, Xt, yt, config, roots = case
    X, y, w = _reference_data(Xs, ys, Xt, yt, config.alpha)
    bound = int(roots * tree.SplitPlan.build(X, w, config.min_samples_leaf).root.nbytes)
    sizes = []

    def check(plan, *_):
        memo = plan._memo
        assert memo.nbytes == sum(node.nbytes for node in memo.values()) <= bound
        sizes.append(len(memo))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "_MEMO_BYTES", bound)
        model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config, check=check)
    assert len(sizes) == config.n_stages
    F = np.full(len(y), model.f0)
    for stage_tree in fitted:
        assert stage_tree == reference_tree(X, y - F, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * stage_tree.predict(X)


def test_a_small_memo_bound_hits_misses_and_evicts(monkeypatch):
    Xs, ys, Xt, yt = _two_domain_problem(19, n1=30, n2=10)
    X, y, w = _reference_data(Xs, ys, Xt, yt, 0.5)
    config = TrainConfig(n_stages=40, max_depth=3, alpha=0.5)
    monkeypatch.setattr(tree, "_MEMO_BYTES", 2 * tree.SplitPlan.build(X, w, config.min_samples_leaf).root.nbytes)
    built = _count_node_builds(monkeypatch)
    fitted, plans = _fit_recording_plans(Xs, ys, Xt, yt, config)
    lookups = sum(stage_tree.n_nodes - 1 for stage_tree in fitted)
    misses = len(built) - 1
    assert 0 < misses < lookups                       # some nodes are built, others come from the memo
    assert len(set(built)) < len(built)               # and some are built again after they were evicted
    assert len(plans[-1]._memo) < len(set(built)) - 1


# ------------------------------------------------------------------ what a model keeps

def _held(value):
    """Every object reachable from ``value`` through instance attributes, tuples, lists and dicts."""
    todo, seen = [value], []
    while todo:
        item = todo.pop()
        seen.append(item)
        if isinstance(item, (tuple, list)):
            todo += item
        elif isinstance(item, dict):
            todo += item.values()
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            todo += vars(item).values()
    return seen


def test_a_fitted_model_keeps_its_forest_and_no_stage_tree():
    Xs, ys, Xt, yt = _two_domain_problem(22, n1=80, n2=24, p=6)
    config = TrainConfig(n_stages=200, max_depth=3, alpha=0.5)
    fit_gbbw(Xs, ys, Xt, yt, config)    # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = fit_gbbw(Xs, ys, Xt, yt, config)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert not any(isinstance(item, RegressionTree) for item in _held(model))
    forest = model.forest
    arrays = sum(a.nbytes for a in (forest.feature, forest.threshold, forest.value))
    # The forest's arrays, the loss trace (a tuple slot and a float object per entry), and 32 KiB for the
    # objects around them and the tuples and floats of the fit that Python's free lists hold on to (about
    # 16 KB). Preorder stage trees would add a tuple slot and a float per node, about 100 KB here.
    assert kept <= arrays + len(model.loss_trace) * (8 + 24) + 32768
    assert model.n_stages == len(forest.value) == config.n_stages
    assert forest.feature.shape == forest.threshold.shape == (200, 7) and forest.value.shape == (200, 8)


@pytest.mark.parametrize("alpha, max_depth", [(0.25, 3), (0.5, 3), (0.5, 1), (1.0, 2)])
def test_the_forest_holds_the_fit_trees_bit_for_bit(alpha, max_depth):
    # Forest equality compares values; here every row's bytes are the reference tree's, signed zeros included.
    Xs, ys, Xt, yt = _two_domain_problem(23, n1=40, n2=16)
    config = TrainConfig(n_stages=30, max_depth=max_depth, alpha=alpha)
    model, fitted = _fit_with_trees(fit_gbbw, Xs, ys, Xt, yt, config)
    assert any(stage_tree.n_nodes > 1 for stage_tree in fitted)
    X, y, w = _reference_data(Xs, ys, Xt, yt, alpha)
    F = np.full(len(y), model.f0)
    for t, stage_tree in enumerate(fitted):
        expected = reference_tree(X, y - F, w, max_depth, config.min_samples_leaf)
        row = model.forest.tree(t)
        assert all(getattr(row, name).tobytes() == getattr(expected, name).tobytes()
                   for name in ("feature", "threshold", "value"))
        F = F + config.shrinkage * stage_tree.predict(X)
    assert model.n_stages == len(fitted)

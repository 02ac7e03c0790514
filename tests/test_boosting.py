from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcda import boosting, tree
from tmcda.tree import RegressionTree
from tmcda.boosting import (
    BoostedModel,
    TrainConfig,
    compute_gamma,
    fit_gbbw,
    fit_gradient_boosting,
    predict,
)

from _oracles import reference_ensemble_predict, reference_tree, straight_line_gbbw


def _two_domain_problem(seed, n1=12, n2=4, p=3):
    rng = np.random.default_rng(seed)
    Xs = rng.standard_normal((n1, p))
    Xt = rng.standard_normal((n2, p)) + 1.0
    f = lambda X: 3.0 * X[:, 0] - X[:, 1] ** 2
    ys = f(Xs) + 0.1 * rng.standard_normal(n1)
    yt = f(Xt) + 0.1 * rng.standard_normal(n2)
    return Xs, ys, Xt, yt


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
    """One stage's inputs: 1-3 columns (some tie-heavy), weights with zeros, F and y, depth 0-4."""
    n = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.integers(0, len(_CELLS) - 1), min_size=1, max_size=3))
    X = np.array([[draw(_CELLS[k]) for k in kinds] for _ in range(n)]).reshape(n, len(kinds))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(1e-3, 10.0), min_size=n, max_size=n)))
    if not np.any(w > 0):
        w[draw(st.integers(0, n - 1))] = 1.0
    values = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_nan=False)
    F = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    y = F.copy() if draw(st.integers(0, 3)) == 0 else np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return X, w, F, y, draw(st.integers(0, 4)), draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_one_stage())
@example(case=(np.zeros((4, 2)), np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4),
               np.array([7.32269802e-228, 0.0, 0.0, 0.0]), 0, 1))    # sum(w h^2) underflows to 0
def test_the_line_search_after_one_stage_returns_one_within_the_leaf_mean_rounding(case):
    # A stage's leaf values are its leaves' weighted residual means, so
    # sum(w r h) = sum(w h^2) and the multiplier is 1 (0 when h is 0 on every
    # weighted row); the fit adds shrinkage * h without computing it. With
    # leaf values h_L within the tree's stated rounding of the means
    # (d + 1) n eps (S + |h_L| W) / W_L, S = sum |w r| and W = sum w over the
    # n rows, the two sums differ by at most (d + 1) n eps (S sum_L |h_L|
    # + W sum_L h_L^2), and computing them adds (n + 2) eps (sum w |r h|
    # + sum w h^2); twice that over sum w h^2 bounds |gamma - 1|, as long as
    # sum w h^2 does not underflow.
    X, w, F, y, depth, min_leaf = case
    r = y - F
    h = np.zeros(len(y))
    fitted = tree.fit_tree(tree.SplitPlan.build(X, w, min_leaf), r, depth, leaf_values=h)
    gamma = compute_gamma(F, h, y, w)
    if not np.any(h[w > 0]):
        assert gamma == 0.0
        return
    denom = (w * h * h).sum()
    if denom < np.finfo(float).tiny:
        # The line search reads a rounded-away sum, 0 if it is 0, but the
        # stage's whole update is shrinkage * h, below 1e-150 in every row.
        assert np.abs(h).max() < 1e-150
        return
    eps, n = 2.0 ** -53, len(y)
    leaves = np.array([v for f, v in zip(fitted.feature, fitted.value) if f == -1])
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
    model = fit_gradient_boosting(X, y, TrainConfig(n_stages=1, max_depth=1,
                                                    min_samples_leaf=1, shrinkage=1.0))
    # F0 = 1; residuals (-1,-1,1,1); stump at 0.5 reproduces them
    assert model.f0 == pytest.approx(1.0)
    tree = model.stages[0]
    assert tree.threshold[0] == pytest.approx(0.5)
    assert np.allclose(predict(model, X), y)


def test_prediction_additive_in_stages():
    Xs, ys, Xt, yt = _two_domain_problem(9)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=10, max_depth=2, alpha=0.5))
    probe = np.vstack([Xs, Xt])
    truncated = BoostedModel(model.f0, model.stages[:-1], model.shrinkage, model.n_features)
    recomposed = predict(truncated, probe) + model.shrinkage * model.stages[-1].predict(probe)
    assert np.allclose(predict(model, probe), recomposed, atol=1e-12)


def test_label_scaling_equivariance():
    Xs, ys, Xt, yt = _two_domain_problem(10)
    config = TrainConfig(n_stages=12, max_depth=2, alpha=0.5)
    base = fit_gbbw(Xs, ys, Xt, yt, config)
    scaled = fit_gbbw(Xs, 7.0 * ys, Xt, 7.0 * yt, config)
    probe = np.vstack([Xs, Xt])
    assert scaled.f0 == pytest.approx(7.0 * base.f0, rel=1e-12)
    assert np.allclose(predict(scaled, probe), 7.0 * predict(base, probe), rtol=1e-10)


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


def _with_trees(model, edit):
    """``model`` with every stage's tree passed through ``edit``, built by hand."""
    return BoostedModel(f0=model.f0, stages=tuple(edit(tree) for tree in model.stages),
                        shrinkage=model.shrinkage, n_features=model.n_features)


def test_a_model_that_splits_past_n_features_is_rejected():
    Xs, ys, Xt, yt = _two_domain_problem(13)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=3, max_depth=2, alpha=0.5))
    assert model.n_features == 3 and model.stages[0].feature[0] != -1

    def split_on_feature_7(tree):
        return replace(tree, feature=tuple(7 if f != -1 else f for f in tree.feature))

    with pytest.raises(ValueError, match="n_features"):
        _with_trees(model, split_on_feature_7)


@st.composite
def _models(draw):
    """A model of 0-6 random trees of depth 0-4, and rows with NaN cells to route through it."""
    n_features = draw(st.integers(1, 3))
    cuts = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0, allow_nan=False)
    finite = st.floats(-1e3, 1e3, allow_nan=False)

    def grow(nodes, depth, limit):
        """Append a subtree to ``nodes`` in preorder, as (feature, threshold, left, right, value) rows."""
        index = len(nodes)
        row = [-1, 0.0, -1, -1, draw(finite)]
        nodes.append(row)
        if depth < limit and draw(st.booleans()):
            row[0] = draw(st.integers(0, n_features - 1))
            row[1] = draw(cuts)
            row[2] = grow(nodes, depth + 1, limit)
            row[3] = grow(nodes, depth + 1, limit)
        return index

    stages = []
    for _ in range(draw(st.integers(0, 6))):
        nodes = []
        grow(nodes, 0, draw(st.integers(0, 4)))
        stages.append(RegressionTree(*zip(*nodes)))
    model = BoostedModel(f0=draw(finite), stages=tuple(stages), shrinkage=draw(st.floats(1e-3, 1.0)),
                         n_features=n_features)
    cell = cuts | st.just(float("nan"))
    X = np.array(draw(st.lists(st.lists(cell, min_size=n_features, max_size=n_features), max_size=20)))
    return model, X.reshape(-1, n_features)


@settings(max_examples=300, deadline=None)
@given(_models())
def test_predict_equals_the_stage_by_stage_reference_bit_for_bit(case):
    model, X = case
    expected = reference_ensemble_predict(model, X).tobytes()
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
    model = fit_gbbw(Xs, ys, Xt, yt, config)
    alpha = config.alpha
    if alpha == 0.0:
        X, y, w = Xs, ys, np.full(len(ys), 1.0)
    elif alpha == 1.0:
        X, y, w = Xt, yt, np.full(len(yt), 1.0)
    else:
        X, y = np.vstack([Xs, Xt]), np.concatenate([ys, yt])
        w = np.concatenate([np.full(len(ys), 1.0 - alpha), np.full(len(yt), alpha)])
    F = np.full(len(y), model.f0)
    for tree in model.stages:
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
    # At alpha = 0 the pseudo-target set is left out, and not read.
    Xt_bad = Xt.copy()
    Xt_bad[0, 0] = bad
    source_only = replace(config, alpha=0.0)
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(predict(fit_gbbw(Xs, ys, Xt_bad, yt, source_only), probe),
                          predict(fit_gbbw(Xs, ys, Xt, yt, source_only), probe))


def _count_node_builds(monkeypatch):
    """Record the row-mask bytes of every node ``tree._node`` builds, and every plan used."""
    built, plans = [], []
    build_node, fit = tree._node, boosting.fit_tree

    def counting_node(order, xsorted, w, member, min_samples_leaf):
        built.append(member.tobytes())
        return build_node(order, xsorted, w, member, min_samples_leaf)

    def recording_fit(plan, *args, **kwargs):
        plans.append(plan)
        return fit(plan, *args, **kwargs)

    monkeypatch.setattr(tree, "_node", counting_node)
    monkeypatch.setattr(boosting, "fit_tree", recording_fit)
    return built, plans


def _node_masks(stage_tree, X, member, depth=0, node=0):
    """(depth, row mask) of ``node`` of ``stage_tree``, whose rows are ``member``, and of every node below it."""
    yield depth, member
    j = stage_tree.feature[node]
    if j != -1:
        go_left = X[:, j] <= stage_tree.threshold[node]
        yield from _node_masks(stage_tree, X, member & go_left, depth + 1, stage_tree.left[node])
        yield from _node_masks(stage_tree, X, member & ~go_left, depth + 1, stage_tree.right[node])


def test_each_node_is_built_once_per_fit_while_it_stays_in_the_memo(monkeypatch):
    built, plans = _count_node_builds(monkeypatch)
    Xs, ys, Xt, yt = _two_domain_problem(16, n1=30, n2=10)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=60, max_depth=3, alpha=0.5))
    memo = plans[-1]._memo
    assert len(memo) == len(built) - 1        # the plan's root, then every other node: nothing evicted
    assert len(set(built)) == len(built)
    visited = sum(stage_tree.n_nodes for stage_tree in model.stages)
    assert len(built) < visited / 2           # most nodes came from the memo
    # Only nodes above max_depth are built, and none of the leaves at max_depth is kept.
    X, _, w = _reference_data(Xs, ys, Xt, yt, 0.5)
    above, at_max_depth = set(), set()
    for stage_tree in model.stages:
        for depth, member in _node_masks(stage_tree, X, w > 0):
            (above if depth < 3 else at_max_depth).add(member.tobytes())
    assert set(built) <= above and set(memo) <= above
    assert at_max_depth - above


def test_boosting_fits_share_no_nodes(monkeypatch):
    built, plans = _count_node_builds(monkeypatch)
    first, second = _two_domain_problem(17, n1=30, n2=10), _two_domain_problem(18, n1=30, n2=10)
    config = TrainConfig(n_stages=20, max_depth=3, alpha=0.5)
    runs = []
    for data in (first, second, first):
        del built[:]
        fit_gbbw(*data, config)
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
    model = fit_gbbw(Xs, ys, Xt, yt, config)
    X, y, w = _reference_data(Xs, ys, Xt, yt, alpha)
    F = np.full(len(y), model.f0)
    expected = [float(w @ (0.5 * (y - F) ** 2))]
    for stage_tree in model.stages:
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
# Unit weights: the plan hands r on as w * r.
@example(case=(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 5.0, 2.0]), np.empty((0, 1)),
               np.empty(0), TrainConfig(n_stages=3, max_depth=1, min_samples_leaf=1, shrinkage=0.1, alpha=0.0)))
def test_a_stump_fit_moves_F_by_each_stages_tree_bit_for_bit(case):
    # Every stage, stumps included, is one fit_tree call that writes h, then
    # F += shrinkage * h; each stage's weighted residuals, the loss trace and
    # the predictions on the training rows are those of
    # F + shrinkage * tree.predict(X).
    Xs, ys, Xt, yt, config = case
    X, y, w = _reference_data(Xs, ys, Xt, yt, config.alpha)
    fit, seen = boosting.fit_tree, []

    def recording_fit(plan, r, max_depth, *, leaf_values):
        assert max_depth == config.max_depth
        seen.append(plan.weighted(r).copy())
        return fit(plan, r, max_depth, leaf_values=leaf_values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boosting, "fit_tree", recording_fit)
        model = fit_gbbw(Xs, ys, Xt, yt, config)
    assert model.f0 == float(w @ y / w.sum())
    assert len(seen) == model.n_stages == config.n_stages
    F = np.full(len(y), model.f0)
    expected = [float(w.dot(0.5 * (y - F) ** 2))]
    for stage_tree, wr in zip(model.stages, seen):
        assert wr.tobytes() == (w * (y - F)).tobytes()
        assert stage_tree == reference_tree(X, y - F, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * stage_tree.predict(X)
        expected.append(float(w.dot(0.5 * (y - F) ** 2)))
    assert model.loss_trace == tuple(expected)
    assert predict(model, X).tobytes() == F.tobytes()


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
    fit = boosting.fit_tree
    sizes = []

    def checked_fit(plan, *args, **kwargs):
        result = fit(plan, *args, **kwargs)
        memo = plan._memo
        assert memo.nbytes == sum(node.nbytes for node in memo.values()) <= bound
        sizes.append(len(memo))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree, "_MEMO_BYTES", bound)
        patch.setattr(boosting, "fit_tree", checked_fit)
        model = fit_gbbw(Xs, ys, Xt, yt, config)
    assert len(sizes) == config.n_stages
    F = np.full(len(y), model.f0)
    for stage_tree in model.stages:
        assert stage_tree == reference_tree(X, y - F, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * stage_tree.predict(X)


def test_a_small_memo_bound_hits_misses_and_evicts(monkeypatch):
    Xs, ys, Xt, yt = _two_domain_problem(19, n1=30, n2=10)
    X, y, w = _reference_data(Xs, ys, Xt, yt, 0.5)
    config = TrainConfig(n_stages=40, max_depth=3, alpha=0.5)
    monkeypatch.setattr(tree, "_MEMO_BYTES", 2 * tree.SplitPlan.build(X, w, config.min_samples_leaf).root.nbytes)
    built, plans = _count_node_builds(monkeypatch)
    model = fit_gbbw(Xs, ys, Xt, yt, config)
    lookups = sum(stage_tree.n_nodes - 1 for stage_tree in model.stages)
    misses = len(built) - 1
    assert 0 < misses < lookups                       # some nodes are built, others come from the memo
    assert len(set(built)) < len(built)               # and some are built again after they were evicted
    assert len(plans[-1]._memo) < len(set(built)) - 1

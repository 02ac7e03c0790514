from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcda import boosting
from tmcda.tree import RegressionTree
from tmcda.boosting import (
    BoostedModel,
    TrainConfig,
    compute_gamma,
    fit_gbbw,
    fit_gradient_boosting,
    predict,
    pseudo_residuals,
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


# ------------------------------------------------------------------ residuals

def test_residuals_zero_at_fit():
    y = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(pseudo_residuals(y, y), np.zeros(3))


def test_residuals_hand_case():
    assert np.array_equal(
        pseudo_residuals(np.array([3.0, 1.0]), np.array([1.0, 1.0])),
        np.array([2.0, 0.0]),
    )


def test_residual_sign_matches_error_sign():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(50)
    F = rng.standard_normal(50)
    r = pseudo_residuals(y, F)
    assert np.array_equal(np.sign(r), np.sign(y - F))


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
    assert adapted.f0 == plain.f0
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(predict(adapted, probe), predict(plain, probe))


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
    # F0 = 1; residuals (-1,-1,1,1); stump at 0.5 reproduces them; gamma = 1
    assert model.f0 == pytest.approx(1.0)
    gamma, tree = model.stages[0]
    assert gamma == pytest.approx(1.0)
    assert tree.threshold[0] == pytest.approx(0.5)
    assert np.allclose(predict(model, X), y)


def test_prediction_additive_in_stages():
    Xs, ys, Xt, yt = _two_domain_problem(9)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=10, max_depth=2, alpha=0.5))
    probe = np.vstack([Xs, Xt])
    truncated = BoostedModel(model.f0, model.stages[:-1], model.shrinkage,
                             model.alpha, model.n_features)
    gamma, tree = model.stages[-1]
    recomposed = predict(truncated, probe) + model.shrinkage * gamma * tree.predict(probe)
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
    # The benchmark's tracer times boosting.fit_tree and RegressionTree.predict.
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(boosting, "fit_tree", counting("fit_tree", boosting.fit_tree))
    monkeypatch.setattr(RegressionTree, "predict", counting("predict", RegressionTree.predict))
    Xs, ys, Xt, yt = _two_domain_problem(7)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=9, max_depth=2, alpha=0.5))
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
    return BoostedModel(f0=model.f0, stages=tuple((gamma, edit(tree)) for gamma, tree in model.stages),
                        shrinkage=model.shrinkage, alpha=model.alpha, n_features=model.n_features)


def test_a_model_that_splits_past_n_features_is_rejected():
    Xs, ys, Xt, yt = _two_domain_problem(13)
    model = fit_gbbw(Xs, ys, Xt, yt, TrainConfig(n_stages=3, max_depth=2, alpha=0.5))
    assert model.n_features == 3 and model.stages[0][1].feature[0] != -1

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
        stages.append((draw(finite), RegressionTree(*zip(*nodes))))
    model = BoostedModel(f0=draw(finite), stages=tuple(stages), shrinkage=draw(st.floats(1e-3, 1.0)),
                         alpha=0.5, n_features=n_features)
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
    for gamma, tree in model.stages:
        r = y - F
        assert tree.to_dict() == reference_tree(X, r, w, config.max_depth, config.min_samples_leaf)
        F = F + config.shrinkage * gamma * tree.predict(X)

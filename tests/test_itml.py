import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmcda import itml
from tmcda.boosting import TrainConfig
from tmcda.dataset import split_domains
from tmcda.itml import (
    ConstraintSet,
    MetricError,
    build_constraints,
    fit_itml,
    logdet_divergence,
    mahalanobis_distance,
    match_source_to_target,
)
from tmcda.pipeline import GmmSettings, ItmlSettings, LassoSettings, PipelineConfig, run_estimation
from tmcda.synth import generate_synthetic_network

from _oracles import percentile_by_sort, reference_constraints, reference_itml, reference_match, scalar_itml_trace


# ---------------------------------------------------------------------- distance

def test_distance_zero_for_identical_points():
    A = np.eye(3)
    x = np.array([1.0, 2.0, 3.0])
    assert mahalanobis_distance(A, x, x) == 0.0


def test_distance_identity_is_squared_euclidean():
    A = np.eye(2)
    assert mahalanobis_distance(A, np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(25.0)


def test_distance_hand_computed_diagonal():
    # (1,1) under diag(2,1): 2*1 + 1*1 = 3
    A = np.diag([2.0, 1.0])
    assert mahalanobis_distance(A, np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(3.0)


def test_distance_symmetric_in_arguments():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 4))
    A = B @ B.T + 0.5 * np.eye(4)
    x, z = rng.standard_normal(4), rng.standard_normal(4)
    assert mahalanobis_distance(A, x, z) == pytest.approx(mahalanobis_distance(A, z, x))


def test_distance_dimension_mismatch():
    with pytest.raises(MetricError):
        mahalanobis_distance(np.eye(2), np.zeros(3), np.zeros(3))


# ----------------------------------------------------------------- logdet divergence

def test_divergence_zero_at_prior():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((3, 3))
    A = B @ B.T + np.eye(3)
    assert logdet_divergence(A, A) == pytest.approx(0.0, abs=1e-12)


def test_divergence_1x1_hand_value():
    # tr(2) - ln 2 - 1
    value = logdet_divergence(np.array([[2.0]]), np.array([[1.0]]))
    assert value == pytest.approx(2.0 - np.log(2.0) - 1.0, abs=1e-12)


def test_divergence_invariant_under_congruence():
    rng = np.random.default_rng(2)
    for _ in range(5):
        B = rng.standard_normal((4, 4))
        A = B @ B.T + np.eye(4)
        C = rng.standard_normal((4, 4))
        A0 = C @ C.T + np.eye(4)
        S = rng.standard_normal((4, 4)) + 0.1 * np.eye(4)
        assert abs(np.linalg.det(S)) > 1e-8
        lhs = logdet_divergence(S.T @ A @ S, S.T @ A0 @ S)
        rhs = logdet_divergence(A, A0)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_divergence_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        B = rng.standard_normal((3, 3))
        C = rng.standard_normal((3, 3))
        A = B @ B.T + 0.1 * np.eye(3)
        A0 = C @ C.T + 0.1 * np.eye(3)
        assert logdet_divergence(A, A0) >= 0.0


def test_a_metric_with_no_dimension_is_refused():
    # numpy's "zero-size array to reduction operation" used to escape, from check_metric and so from fit_itml.
    with pytest.raises(MetricError, match="at least one dimension"):
        itml.check_metric(np.zeros((0, 0)))
    with pytest.raises(MetricError, match="at least one dimension"):
        fit_itml(np.zeros((3, 0)), ConstraintSet(((0, 1),), ((0, 2),), 1.0, 2.0))


@pytest.mark.parametrize("call, message", [
    (lambda: itml.check_metric(np.array([[2.0, 1.0], [0.5, 2.0]])), "metric is not symmetric"),
    (lambda: logdet_divergence(np.eye(2), np.eye(3)), "metrics must share a dimension"),
], ids=["asymmetric", "mismatched-shapes"])
def test_malformed_metrics_are_refused(call, message):
    with pytest.raises(MetricError, match=message):
        call()


def test_a_metric_whose_squared_pivot_ratio_is_at_most_three_units_of_rounding_is_numerically_singular():
    # diag(1, d) has Cholesky pivots 1 and sqrt(d), exact for these powers of two: a squared ratio of d.
    for d in (2.0**-1000, 2.0**-60, 2.0**-52):
        with pytest.raises(MetricError, match="metric is numerically singular"):
            itml.check_metric(np.diag([1.0, d]))
    assert np.array_equal(itml.check_metric(np.diag([1.0, 2.0**-50])), np.diag([1.0, 2.0**-50]))
    # The floor is relative: a metric of any scale keeps or loses it alike.
    with pytest.raises(MetricError, match="metric is numerically singular"):
        itml.check_metric(np.diag([2.0**200, 2.0**148]))
    itml.check_metric(np.diag([2.0**-200, 2.0**-250]))


_NEAR_DUPLICATES = np.array([[0.0, 1.0, 2.0]] * 34 + [[0.0, 0.0, 1.0], [1.4e-45, 1.0, 2.0]])


def test_a_fit_that_collapses_a_direction_raises_metric_error():
    # The pair (0, 34) at distance 2 held to u = 1.96e-90, the square of the rows' 1.4e-45 gap that
    # build_constraints once took for u: one pass leaves A with eigenvalues (0, 1, 1).
    C = ConstraintSet(((0, 34),), (), 1.4e-45**2, 2.0)
    with pytest.raises(MetricError, match="metric is numerically singular"):
        fit_itml(_NEAR_DUPLICATES, C, gamma=1.0, max_passes=1, tol=1e-3)


def test_pairs_within_the_relative_floor_of_zero_are_dropped_and_the_fit_keeps_a_metric():
    # The 34 pairs 1.4e-45 apart lie within 1e-12 of the largest distance, 2, and count as at distance 0.
    # The 35 left are all at distance 2, so u and l are 2 widened by 5%.
    with pytest.warns(RuntimeWarning, match="no dissimilar"):
        C = build_constraints(_NEAR_DUPLICATES, np.zeros(36), max_per_set=1, n_candidates=630)
    assert (C.similar, C.dissimilar, C.u, C.l) == (((0, 34),), (), 0.95 * 2.0, 1.05 * 2.0)
    itml.check_metric(fit_itml(_NEAR_DUPLICATES, C, gamma=1.0, max_passes=1, tol=1e-3).A)
    # The pair (1, 2) at distance d^2 against a largest distance of about 1: kept above 1e-12, dropped below.
    for d, kept in ((1e-5, True), (1e-7, False)):
        C = build_constraints(np.array([[0.0], [1.0], [1.0 + d]]), np.arange(3.0))
        assert ((1, 2) in C.similar) is kept and C.dissimilar == ((0, 2),)
    with pytest.raises(MetricError, match="^a sampled pair's distance overflows to inf$"):
        build_constraints(np.array([[0.0], [1e200]]), np.arange(2.0))


def test_divergence_rejects_non_psd():
    with pytest.raises(MetricError):
        logdet_divergence(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


# -------------------------------------------------------------------- constraints

def test_two_identical_labels_land_in_similar():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([5.0, 5.0])
    with pytest.warns(RuntimeWarning, match="no dissimilar"):
        C = build_constraints(X, y)
    assert C.similar == ((0, 1),)
    assert C.dissimilar == ()


def test_a_cap_of_zero_keeps_no_pair_without_calling_the_labels_degenerate():
    X = np.random.default_rng(5).standard_normal((30, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = build_constraints(X, np.arange(30.0), max_per_set=0)
    assert (C.similar, C.dissimilar) == ((), ())
    with pytest.warns(RuntimeWarning, match="no dissimilar"):
        build_constraints(X, np.full(30, 4.0), max_per_set=0)


def test_extreme_label_gap_lands_in_dissimilar():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 100.0])
    C = build_constraints(X, y)
    assert C.dissimilar == ((0, 1),)
    assert C.similar == ()


def test_thresholds_match_independent_percentile_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    C = build_constraints(X, y, seed=0)
    # 100 points -> 4950 pairs, below the candidate cap, so all pairs are used
    dists = []
    for i in range(100):
        for j in range(i + 1, 100):
            d = X[i] - X[j]
            dists.append(d @ d)
    assert C.u == pytest.approx(percentile_by_sort(dists, 5.0), rel=1e-12)
    assert C.l == pytest.approx(percentile_by_sort(dists, 95.0), rel=1e-12)
    assert C.u < C.l
    assert len(C.similar) <= 200 and len(C.dissimilar) <= 200


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0.0, 1e6, allow_subnormal=False), min_size=1,
                max_size=60),
       st.lists(st.sampled_from([5.0, 10.0, 90.0, 95.0]) | st.floats(0.0, 99.99), min_size=1, max_size=4))
def test_percentiles_equal_numpys_bit_for_bit(values, qs):
    values = np.array(values)
    assert _bits(itml._percentiles(values, *qs)) == _bits(np.percentile(values, qs).tolist())


def test_constraint_set_validates_u_less_than_l():
    with pytest.raises(MetricError):
        ConstraintSet(((0, 1),), (), u=2.0, l=1.0)
    with pytest.raises(MetricError):
        ConstraintSet(((0, 1),), ((0, 1),), u=1.0, l=2.0)
    # The projections divide by the slacks, which start at u and l.
    for u in (0.0, -1.0, float("nan")):
        with pytest.raises(MetricError, match="0 < u < l"):
            ConstraintSet(((0, 1),), (), u=u, l=2.0)
    # An infinite l used to be accepted, and the fit then stopped at its first
    # dissimilar projection with "slack diverged".
    with pytest.raises(MetricError, match="0 < u < l < inf"):
        ConstraintSet(((0, 1),), ((0, 2),), u=1.0, l=float("inf"))


@pytest.mark.parametrize("pair", [(0, -1), (-2, 1), (0, 1.5), (1.0, 2), (0, 1, 2)], ids=repr)
def test_constraint_set_refuses_pairs_that_are_not_two_non_negative_integer_indices(pair):
    # (0, -1) used to wrap to the last row and fit that pair without a word.
    for similar, dissimilar in (((pair,), ()), ((), (pair,))):
        with pytest.raises(MetricError, match="two non-negative integer row indices"):
            ConstraintSet(similar, dissimilar, 1.0, 2.0)


def test_fit_refuses_a_pair_past_the_last_row_and_takes_numpy_integer_indices():
    # Row 5 of 3 used to end in numpy's IndexError.
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    with pytest.raises(MetricError, match="indexes row 5 of 3"):
        fit_itml(X, ConstraintSet(((0, 1),), ((5, 2),), 1.0, 2.0))
    as_numpy = fit_itml(X, ConstraintSet(((np.int64(0), np.uint8(1)),), ((np.int32(0), np.int64(2)),), 1.0, 2.0))
    assert as_numpy.A.tobytes() == fit_itml(X, ConstraintSet(((0, 1),), ((0, 2),), 1.0, 2.0)).A.tobytes()


def test_integer_thresholds_fit_as_floats():
    # Slacks start at u and l; integer thresholds must not make them integers.
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    ints = fit_itml(X, ConstraintSet(((0, 1),), ((0, 2),), u=1, l=2), max_passes=3)
    floats = fit_itml(X, ConstraintSet(((0, 1),), ((0, 2),), u=1.0, l=2.0), max_passes=3)
    assert np.array_equal(ints.final_xi, floats.final_xi) and ints.final_xi.dtype == float
    assert np.array_equal(ints.A, floats.A)


def test_constraints_need_two_instances():
    with pytest.raises(MetricError):
        build_constraints(np.zeros((1, 2)), np.zeros(1))


# ----------------------------------------------------------------------- fitting

def test_empty_constraints_return_prior_exactly():
    A0 = np.diag([2.0, 3.0])
    result = fit_itml(np.zeros((4, 2)), ConstraintSet((), (), 1.0, 2.0), A0=A0)
    assert np.array_equal(result.A, A0)
    assert result.converged


def test_satisfied_constraint_with_margin_is_untouched():
    # Similar pair at squared distance 0.02; u chosen so the pair is inside
    # the no-update region even under a large slack weight (p < u/gamma).
    gamma = 50.0
    X = np.array([[0.0, 0.0], [0.1, 0.1]])
    p = 0.02
    u = 2.0 * gamma * p
    C = ConstraintSet(((0, 1),), (), u=u, l=2.0 * u)
    result = fit_itml(X, C, gamma=gamma, max_passes=5, tol=1e-10)
    assert np.array_equal(result.A, np.eye(2))
    assert result.converged
    assert result.final_lambda[0] == 0.0


def test_scalar_trajectory_matches_straight_line_oracle():
    x_i, x_j = 3.0, 1.0
    u = 1.0
    gamma = 1e6
    X = np.array([[x_i], [x_j]])
    C = ConstraintSet(((0, 1),), (), u=u, l=2.0)
    for n_passes in (1, 2, 3, 7):
        result = fit_itml(X, C, gamma=gamma, max_passes=n_passes, tol=0.0)
        a_oracle, xi_oracle, lam_oracle = scalar_itml_trace(x_i, x_j, u, gamma, n_passes)[-1]
        assert result.A[0, 0] == pytest.approx(a_oracle, rel=1e-12)
        assert result.final_xi[0] == pytest.approx(xi_oracle, rel=1e-12)
        assert result.final_lambda[0] == pytest.approx(lam_oracle, rel=1e-12)
    final = fit_itml(X, C, gamma=gamma, max_passes=200, tol=1e-12)
    d = mahalanobis_distance(final.A, X[0], X[1])
    assert d <= u * (1.0 + 1e-6)


def _random_instance(seed, n=30, q=4, cap=30):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, q))
    y = X @ rng.standard_normal(q) + 0.3 * rng.standard_normal(n)
    C = build_constraints(X, y, max_per_set=cap, seed=seed)
    return X, y, C


def test_metric_stays_psd_with_validation_enabled():
    X, _, C = _random_instance(10)
    result = fit_itml(X, C, max_passes=50, tol=1e-4)
    eigs = np.linalg.eigvalsh(result.A)
    assert eigs.min() > 0
    assert np.allclose(result.A, result.A.T, atol=1e-12)


def test_rank_one_update_matches_from_scratch_3x3():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((3, 3))
    A0 = B @ B.T + np.eye(3)
    X = rng.standard_normal((2, 3))
    u = 0.05  # force a violated similar constraint
    C = ConstraintSet(((0, 1),), (), u=u, l=1000.0)
    gamma = 1.0
    result = fit_itml(X, C, A0=A0, gamma=gamma, max_passes=1, tol=0.0)
    # one full pass = one projection; recompute it from the definitions
    v = X[0] - X[1]
    p = v @ A0 @ v
    alpha = min(0.0, 0.5 * (1.0 / p - gamma / u))
    beta = alpha / (1.0 - alpha * p)
    expected = A0 + beta * np.outer(A0 @ v, A0 @ v)
    assert np.allclose(result.A, expected, atol=1e-12)


def test_converged_constraints_meet_slack_adjusted_bounds():
    for seed in range(5):
        X, _, C = _random_instance(seed, cap=25)
        result = fit_itml(X, C, gamma=1.0, max_passes=500, tol=1e-5)
        assert result.converged
        m_sim = len(C.similar)
        for c, (i, j) in enumerate(C.similar):
            d = mahalanobis_distance(result.A, X[i], X[j])
            assert d <= result.final_xi[c] * (1.0 + 1e-3)
        for c, (i, j) in enumerate(C.dissimilar):
            d = mahalanobis_distance(result.A, X[i], X[j])
            assert d >= result.final_xi[m_sim + c] * (1.0 - 1e-3)


def test_dual_objective_monotone_and_divergence_finite():
    # The cyclic projections maximize the dual; its trace must not decrease.
    # The divergence-plus-slack objective itself overshoots in the first pass
    # and relaxes toward the optimum from above.
    for seed in range(5):
        X, _, C = _random_instance(seed + 50, cap=30)
        result = fit_itml(X, C, gamma=1.0, max_passes=300, tol=1e-4)
        duals = np.array(result.dual_objectives)
        assert np.all(np.diff(duals) >= -1e-9)
        assert np.isfinite(result.divergences[-1])
        assert result.objectives[-1] <= result.objectives[0] + 1e-9


def test_zero_distance_pair_skipped_with_warning():
    X = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 3.0]])
    C = ConstraintSet((), ((0, 1),), u=0.5, l=1.0)
    with pytest.warns(RuntimeWarning, match="zero distance"):
        result = fit_itml(X, C, max_passes=3, tol=1e-8)
    assert result.skipped_pairs == [(0, 1)]
    assert np.array_equal(result.A, np.eye(2))


def test_a_pair_at_a_tiny_nonzero_distance_is_projected_not_skipped():
    # The similar pair (2, 3) shrinks the 1-D metric until (0, 1), 3e-5 apart,
    # lies below 1e-12 in absolute terms; it is still no zero distance.
    X = np.array([[0.0], [3e-5], [0.0], [4.0], [1.0]])
    C = ConstraintSet(((2, 3), (0, 1)), ((2, 4),), u=1e-3, l=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_itml(X, C, max_passes=20, tol=1e-8)
    assert result.skipped_pairs == []
    assert result.A[0, 0] * 9e-10 < 1e-12
    assert np.array_equal(result.A, reference_itml(X, C, 1.0, 20, 1e-8)["A"])


def test_similarity_threshold_is_positive_when_many_pairs_coincide():
    # Binary rows repeat, so more than 5% of the sampled pairs lie at
    # distance 0; such pairs are dropped, so u > 0 and ITML skips none.
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(60, 3)).astype(float)
    y = X @ np.array([3.0, 1.0, 2.0]) + rng.uniform(0.0, 1.0, 60)
    C = build_constraints(X, y)
    assert 0.0 < C.u < C.l
    assert len(C) > 0
    assert all(np.any(X[i] != X[j]) for i, j in C.similar + C.dissimilar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit_itml(X, C, max_passes=50)
    assert result.skipped_pairs == []
    assert np.isfinite(result.A).all()


def test_no_constraints_when_every_sampled_pair_coincides():
    X = np.ones((4, 2))
    y = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.warns(RuntimeWarning, match="distance 0"):
        C = build_constraints(X, y)
    assert len(C) == 0 and 0.0 < C.u < C.l


# ----------------------------------------------------------------------- matching

def test_target_subset_of_source_matches_itself():
    rng = np.random.default_rng(13)
    source = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    target = source[[4, 9, 17]]
    B = rng.standard_normal((3, 3))
    A = B @ B.T + 0.5 * np.eye(3)
    mx, my, idx = match_source_to_target(A, target, source, y)
    assert list(idx) == [4, 9, 17]
    assert np.array_equal(my, y[[4, 9, 17]])
    assert np.array_equal(mx, source[[4, 9, 17]])


def test_identity_metric_equals_euclidean_nearest_neighbor():
    rng = np.random.default_rng(14)
    source = rng.standard_normal((25, 4))
    y = rng.standard_normal(25)
    target = rng.standard_normal((7, 4))
    _, _, idx = match_source_to_target(np.eye(4), target, source, y)
    for t, chosen in zip(target, idx):
        dists = np.sum((source - t) ** 2, axis=1)
        assert chosen == int(np.argmin(dists))


def test_matching_agrees_with_brute_force_distance_matrix():
    rng = np.random.default_rng(15)
    source = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    target = rng.standard_normal((5, 3))
    B = rng.standard_normal((3, 3))
    A = B @ B.T + 0.1 * np.eye(3)
    _, _, idx = match_source_to_target(A, target, source, y)
    for t_row, chosen in zip(target, idx):
        brute = np.array([mahalanobis_distance(A, t_row, s_row) for s_row in source])
        assert chosen == int(np.argmin(brute))


def test_matching_invariant_to_metric_rescaling():
    rng = np.random.default_rng(16)
    source = rng.standard_normal((30, 3))
    y = rng.standard_normal(30)
    target = rng.standard_normal((8, 3))
    B = rng.standard_normal((3, 3))
    A = B @ B.T + 0.2 * np.eye(3)
    _, _, idx1 = match_source_to_target(A, target, source, y)
    _, _, idx2 = match_source_to_target(7.3 * A, target, source, y)
    assert np.array_equal(idx1, idx2)


def test_matching_ties_break_to_lowest_index():
    source = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    y = np.array([10.0, 20.0, 30.0])
    target = np.array([[1.0, 0.0]])
    _, my, idx = match_source_to_target(np.eye(2), target, source, y)
    assert idx[0] == 0 and my[0] == 10.0


def test_matching_empty_source_errors():
    with pytest.raises(MetricError):
        match_source_to_target(np.eye(2), np.zeros((1, 2)), np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("source_X, source_y, message", [
    (np.zeros((4, 2)), np.zeros(3), r"source_y must have shape \(4,\), one entry per row of source_X, got shape \(3,\)"),
    (np.zeros((4, 3)), np.zeros(4), "feature dimensions do not match the metric"),
], ids=["misaligned-labels", "wrong-width"])
def test_matching_refuses_a_source_set_it_cannot_match_from(source_X, source_y, message):
    with pytest.raises(MetricError, match=message):
        match_source_to_target(np.eye(2), np.zeros((1, 2)), source_X, source_y)


@st.composite
def _matching_cases(draw):
    """(A, target, source, labels): source rows with exact copies and neighbours a few ulps away, which tie
    with their originals at rounding level, and target rows that are source rows or new ones."""
    q = draw(st.integers(1, 4))
    cell = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)
    row = st.lists(cell, min_size=q, max_size=q)
    source = []
    for values in draw(st.lists(row, min_size=1, max_size=6)):
        source.append(values)
        for _ in range(draw(st.integers(0, 2))):
            near = np.array(values)
            j, steps = draw(st.integers(0, q - 1)), draw(st.integers(-2, 2))
            for _ in range(abs(steps)):
                near[j] = np.nextafter(near[j], np.copysign(np.inf, steps))
            source.append(near.tolist())
    source = np.array(draw(st.permutations(source)))
    target = np.array(draw(st.lists(st.sampled_from(source.tolist()) | row, min_size=1, max_size=8)))
    B = np.array(draw(st.lists(row, min_size=q, max_size=q)))
    A = B @ B.T + draw(st.sampled_from([1e-3, 0.5, 2.0])) * np.eye(q)
    return A, target, source, np.arange(len(source)) * 1.5


@settings(max_examples=400, deadline=None)
@given(_matching_cases())
@example(case=(np.eye(1), np.array([[1.0]]), np.array([[np.nextafter(1.0, 2.0)], [1.0], [np.nextafter(1.0, 0.0)]]),
               np.array([0.0, 1.5, 3.0])))
def test_matching_equals_the_one_line_distance_expression_bit_for_bit(case):
    A, target, source, y = case
    got, expected = match_source_to_target(A, target, source, y), reference_match(A, target, source, y)
    for g, e in zip(got, expected):
        assert (g.dtype, g.shape, g.tobytes()) == (e.dtype, e.shape, e.tobytes())


def _traced_peak(call):
    """``call()``'s tracemalloc peak above the traced memory at its start, in bytes, after one untraced call
    (first-call allocations stay out of it)."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_matching_holds_at_most_two_target_by_source_arrays():
    rng = np.random.default_rng(31)
    n_target, n_source, q = 96, 1500, 5
    target, source = rng.standard_normal((n_target, q)), rng.standard_normal((n_source, q))
    y = rng.standard_normal(n_source)
    peak = _traced_peak(lambda: match_source_to_target(np.eye(q), target, source, y))
    distances = n_target * n_source * 8
    # Two (target, source) arrays: the doubled cross products and the distances. Beside them A S (source,
    # features), its row products (source) and one ufunc buffer for the broadcast ss, plus 16 KiB.
    assert peak <= 2 * distances + (n_source * q + n_source) * 8 + np.getbufsize() * 8 + 16384


def test_constraint_building_holds_two_difference_arrays_and_no_all_pairs_table():
    rng = np.random.default_rng(32)
    n, q, m = 128, 6, 3_000
    X, y = rng.standard_normal((n, q)), rng.standard_normal(n)
    total = n * (n - 1) // 2    # 8,128 pairs: a permutation prefix of m of them
    peak = _traced_peak(lambda: build_constraints(X, y, n_candidates=m))
    differences = m * q * 8
    # The larger of two phases, plus 16 KiB. Sampling: np.triu_indices' two index arrays and the
    # permutation (total entries each), the two drawn index arrays and the stacked pairs (m, 2). Distances:
    # X[i] and X[j] (m, q) and the stacked pairs. A stacked (total, 2) table or a third (m, q) array
    # would not fit.
    sampling = 3 * total * 8 + 4 * m * 8
    assert peak <= max(sampling, 2 * differences + 2 * m * 8) + 16384


def test_constraint_sampling_dense_cap_is_deterministic():
    # pair count between the cap and 4x the cap takes the permutation path
    rng = np.random.default_rng(17)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    config = dict(max_per_set=50, n_candidates=500, seed=3)
    a = build_constraints(X, y, **config)
    b = build_constraints(X, y, **config)
    assert a.similar == b.similar and a.dissimilar == b.dissimilar
    assert (a.u, a.l) == (b.u, b.l)
    pairs = list(a.similar) + list(a.dissimilar)
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < j < 60 for i, j in pairs)
    assert len(a.similar) <= 50 and len(a.dissimilar) <= 50


@st.composite
def _constraint_inputs(draw):
    """Rows with repeats and tied labels, and a candidate cap putting the pair
    count at most 1x, between 1x and 4x, or above 4x the cap. Half the cases
    have 1-3 features, the other half up to 24, across the sizes where BLAS
    changes kernels."""
    n = draw(st.integers(2, 40))
    total = n * (n - 1) // 2
    ranges = [(total, total + 50)]                         # every pair
    if total >= 2:
        ranges.append(((total + 3) // 4, total - 1))       # a permutation prefix
    if total >= 5:
        ranges.append((1, (total - 1) // 4))               # rejection sampling
    lo, hi = draw(st.sampled_from(ranges))
    q = draw(st.integers(1, 3) | st.integers(4, 24))
    cell = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)
    distinct = draw(st.lists(st.lists(cell, min_size=q, max_size=q), min_size=1, max_size=n))
    X = np.array([distinct[draw(st.integers(0, len(distinct) - 1))] for _ in range(n)])
    label = st.sampled_from([0.0, 3.0, 7.0]) | st.floats(0.0, 200.0, allow_subnormal=False)
    y = np.array(draw(st.lists(label, min_size=n, max_size=n)))
    config = dict(
        max_per_set=draw(st.integers(0, 30)),
        n_candidates=draw(st.sampled_from([lo, hi]) | st.integers(lo, hi)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return X, y, config


def _with_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(_constraint_inputs())
def test_constraints_equal_the_per_pair_reference(case):
    X, y, config = case
    C, caught = _with_warnings(build_constraints, X, y, **config)
    expected, expected_caught = _with_warnings(reference_constraints, X, y, **config)
    assert (C.similar, C.dissimilar, C.u, C.l) == expected
    assert all(type(i) is int for pair in C.similar + C.dissimilar for i in pair)
    assert caught == expected_caught


def _bits(value):
    """A value with every float spelled out exactly, so -0.0 and 0.0 differ."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return float.hex(value)
    return value


def _outcome(fn, *args, **kwargs):
    """What a fit returned, or the error it raised, plus the warnings it raised."""
    try:
        return _with_warnings(lambda: fn(*args, **kwargs))
    except (MetricError, np.linalg.LinAlgError) as error:
        return (type(error), str(error)), None


@settings(max_examples=200, deadline=None)
@given(_constraint_inputs(),
       st.sampled_from([1.0]) | st.floats(0.01, 100.0),
       st.sampled_from([1e-3]) | st.floats(1e-8, 0.5),
       st.integers(1, 10))
@example(case=(np.array([[0.0]] * 38 + [[3.0]]), np.zeros(39), dict(max_per_set=1, n_candidates=741)),
         gamma=1.0, tol=1e-3, max_passes=1)    # every candidate pair at distance 0 but the last row's 38
def test_fit_equals_the_reference_projection_loop_bit_for_bit(case, gamma, tol, max_passes):
    X, y, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        C = build_constraints(X, y, **config)
    result, caught = _outcome(fit_itml, X, C, gamma=gamma, max_passes=max_passes, tol=tol)
    expected, expected_caught = _outcome(reference_itml, X, C, gamma, max_passes, tol)
    assert caught == expected_caught
    if caught is None:
        assert result == expected           # the same error
        return
    for name, value in expected.items():
        assert _bits(getattr(result, name)) == _bits(value), name
    assert np.array_equal(result.A, result.A.T)     # exactly symmetric, as the module docstring says


@pytest.mark.parametrize("gamma", [1.0, 7.0])
def test_a_zero_alpha_stops_before_the_slack_only_under_unit_gamma(gamma):
    # p = 1 < u and dual 0, so alpha = min(0, step) is 0. The slack update gamma * xi / (gamma + 0 * xi) is xi
    # itself at gamma 1, but at gamma 7 it rounds to one ulp below u: a stop that ignored gamma would keep u.
    u = 847.4338895034957
    X = np.array([[0.0], [1.0]])
    C = ConstraintSet(((0, 1),), (), u=u, l=2.0 * u)
    result = fit_itml(X, C, gamma=gamma, max_passes=1)
    expected = reference_itml(X, C, gamma, 1, 1e-3)
    for name, value in expected.items():
        assert _bits(getattr(result, name)) == _bits(value), name
    assert result.final_lambda[0] == 0.0
    assert result.final_xi[0] == (u if gamma == 1.0 else 847.4338895034956)


@pytest.mark.parametrize("A0", [np.diag([2.0, 3.0]), np.array([[2.0, -0.0], [-0.0, 3.0]])],
                         ids=["diagonal", "negative-zero"])
def test_constraints_satisfied_at_the_prior_leave_it_bit_for_bit(A0):
    # Both constraints hold at A0 with dual 0, so every alpha is exactly 0 and no update is formed;
    # with -0.0 in A0, adding the +0.0 update would have turned it into +0.0.
    X = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0]])
    C = ConstraintSet(((0, 1),), ((0, 2),), u=1.0, l=2.0)    # distances 0.05 <= u and 500 >= l
    result = fit_itml(X, C, A0=A0)
    assert _bits(result.A) == _bits(A0)
    assert result.dual_changes == [0.0]
    assert result.converged and result.n_passes == 1


@pytest.fixture(scope="module")
def pipeline_fold():
    """The alpha-sweep benchmark's settings on one fold: 3,585 of its 6,000 projections have
    alpha == 0 and skip the update; more than half the constraints end with dual 0."""
    data = generate_synthetic_network(1, 3, 1.3, 64)
    config = PipelineConfig(
        movement="left",
        lasso=LassoSettings(lambda_mode="fraction", lambda_value=0.06, tol=1e-7, max_sweeps=2_000),
        itml=ItmlSettings(max_passes=30, max_constraints=100, n_candidates=3_000),
        gmm=GmmSettings(n_init=2),
        boosting=TrainConfig(n_stages=60, max_depth=1, shrinkage=0.3, alpha=0.5),
        master_seed=1,
        variant="full",
    )
    return run_estimation(split_domains(data, data.intersections()[0]), config)


def test_pipeline_shaped_fit_equals_the_reference_bit_for_bit(pipeline_fold):
    result = pipeline_fold.itml_result
    assert np.mean(result.final_lambda == 0.0) > 0.5
    expected = reference_itml(pipeline_fold.Zs, pipeline_fold.constraints, 1.0, 30, 1e-3)
    for name, value in expected.items():
        assert _bits(getattr(result, name)) == _bits(value), name


# Each projection's distance is vec(v v^T) . vec(A); earlier versions took (v A) v. Both add up the q^2
# terms v_i A_ij v_j, so by the dot-product error bound (Higham 2002, section 3.1) the first lies within
# gamma_{q^2+1} S of the exact value and the second within gamma_{2q} S, S = sum_ij |A_ij| |v_i v_j|,
# gamma_n = n u / (1 - n u), u = 2**-53: they differ by at most their sum, (q + 1)^2 u S to first order.
def _distance_bound(A, v):
    q = len(v)
    gamma = lambda n: n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
    return (gamma(q * q + 1) + gamma(2 * q)) * float(np.abs(A).ravel().dot(np.abs(np.outer(v, v)).ravel()))


def _distances(A, V):
    """Each row's vec(v v^T) . vec(A), as fit_itml takes it, and (v A) v, as earlier versions did."""
    m, q = V.shape
    VV = (V[:, :, None] * V[:, None, :]).reshape(m, q * q)
    a = A.reshape(-1)
    return [float(vv.dot(a)) for vv in VV], [float(v.dot(A).dot(v)) for v in V]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1))
def test_a_projections_distance_is_within_the_rounding_bound_of_the_former_formula(q, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((q, q)) * 10.0 ** rng.integers(-8, 9, (q, q))
    A = B + B.T
    V = rng.standard_normal((20, q)) * 10.0 ** rng.integers(-8, 9, (20, q))
    V[rng.random((20, q)) < 0.2] = 0.0
    for v, p, former in zip(V, *_distances(A, V)):
        assert abs(p - former) <= _distance_bound(A, v)


def test_pipeline_shaped_fit_keeps_the_former_formulas_passes_violations_and_zero_duals(pipeline_fold):
    # alpha == 0 and the 1e-12 skip could decide differently only for a distance within the bound above
    # of its threshold; on this fold none does, and A stays within 1e-12 of its largest entry.
    result = pipeline_fold.itml_result
    former = reference_itml(pipeline_fold.Zs, pipeline_fold.constraints, 1.0, 30, 1e-3, former=True)
    assert (result.n_passes, result.converged) == (former["n_passes"], former["converged"])
    assert result.violations == former["violations"]
    assert np.array_equal(result.final_lambda == 0.0, former["final_lambda"] == 0.0)
    assert np.abs(result.A - former["A"]).max() <= 1e-12 * np.abs(former["A"]).max()
    V = np.array([pipeline_fold.Zs[i] - pipeline_fold.Zs[j]
                  for (i, j) in pipeline_fold.constraints.similar + pipeline_fold.constraints.dissimilar])
    for v, p, old in zip(V, *_distances(result.A, V)):
        assert abs(p - old) <= _distance_bound(result.A, v)


# The per-pass diagnostics the fit reports, against the formulas it used before: distances from a
# three-operand einsum, the divergence from solve(A0, A) and slogdet. Each new value must lie within
# DIAGNOSTIC_BOUND of the old one, relative to the sum of the magnitudes of the terms it adds up
# (for terms that do not cancel, a relative 1e-12). The divergences and objectives also hold two log
# determinants, from a Cholesky factor now and from LU (in slogdet) before. Both factorizations are
# backward stable (Higham 2002, Accuracy and Stability of Numerical Algorithms, Thms 9.3 and 10.3):
# the factors are those of A + dA with |dA| of order q(q+1) u |A|, u = 2**-53, and dA moves log det A
# by tr(A^-1 dA) to first order, of order q(q+1) u kappa_2(A). So the two may differ by up to
# LOGDET_ALLOWANCE * q(q+1) u kappa_2(A) more: one such term for each formula. Against 50-digit
# values on 300 random SPD matrices (q 2-12, kappa_2 up to 1e12), each formula's error stayed below
# 0.09 q(q+1) u kappa_2(A).
DIAGNOSTIC_BOUND = 1e-12
LOGDET_ALLOWANCE = 2.0


def _check_diagnostics_against_the_former_formulas(X, C, gamma, tol, result):
    V = np.array([X[i] - X[j] for (i, j) in C.similar + C.dissimilar])
    deltas = np.array([1.0] * len(C.similar) + [-1.0] * len(C.dissimilar))
    xi0 = np.where(deltas > 0, C.u, C.l)
    q = X.shape[1]
    for t in range(1, result.n_passes + 1):
        # The first t passes of a fit are those of the fit stopped after pass t, whose results hold
        # pass t's metric, slacks and duals.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            at_t = fit_itml(X, C, gamma=gamma, max_passes=t, tol=tol)
        A, xi, lam = at_t.A, at_t.final_xi, at_t.final_lambda

        dists = (V[:, :, None] * V[:, None, :]).reshape(len(V), q * q).dot(A.reshape(-1))
        old_dists = np.einsum("ij,jk,ik->i", V, A, V)
        dist_scale = (np.abs(V).dot(np.abs(A)) * np.abs(V)).sum(axis=1)
        assert np.all(np.abs(dists - old_dists) <= DIAGNOSTIC_BOUND * dist_scale), t

        M = np.linalg.solve(np.eye(q), A)
        sign, logdet = np.linalg.slogdet(M)
        assert sign > 0
        old_divergence = float(np.trace(M) - logdet - q)
        old_divergence = 0.0 if -1e-9 < old_divergence < 0.0 else old_divergence
        ratio = xi / xi0
        slack = gamma * float(np.sum(ratio - np.log(ratio) - 1.0))
        dual_term = float(np.sum(lam * deltas * (old_dists - xi)))
        scale = abs(float(np.trace(M))) + abs(logdet) + q
        logdet_error = LOGDET_ALLOWANCE * q * (q + 1) * 2.0 ** -53 * np.linalg.cond(A)
        assert abs(result.divergences[t - 1] - old_divergence) <= DIAGNOSTIC_BOUND * scale + logdet_error, t
        scale += slack
        objective_error = abs(result.objectives[t - 1] - (old_divergence + slack))
        assert objective_error <= DIAGNOSTIC_BOUND * scale + logdet_error, t
        scale += float(np.sum(np.abs(lam) * (dist_scale + xi)))
        old_dual = old_divergence + slack + dual_term
        assert abs(result.dual_objectives[t - 1] - old_dual) <= DIAGNOSTIC_BOUND * scale + logdet_error, t


@settings(max_examples=100, deadline=None)
@given(_constraint_inputs(),
       st.sampled_from([1.0]) | st.floats(0.01, 100.0),
       st.sampled_from([1e-3]) | st.floats(1e-8, 0.5),
       st.integers(1, 10))
@example(case=(np.array([[0.0, 0.0, 1.0]] * 26 + [[0.0, 2.0, 0.0], [0.0, 2.0 ** -14, 1.0]]), np.zeros(28),
               dict(max_per_set=1, n_candidates=378)),
         gamma=1.0, tol=1e-3, max_passes=1)    # leaves kappa_2(A) = 6.7e8: the log dets differ by 2.2e-8
# Near-duplicate rows once put u at 1.96e-90, and the one similar pair's projection left A singular; their
# pairs now count as at distance 0, u is 1.9 and the fit keeps a metric.
@example(case=(np.array([[0.0, 1.0, 2.0]] * 34 + [[0.0, 0.0, 1.0], [1.4e-45, 1.0, 2.0]]), np.zeros(36),
               dict(max_per_set=1, n_candidates=630)),
         gamma=1.0, tol=1e-3, max_passes=1)
def test_per_pass_diagnostics_are_within_the_bound_of_the_former_formulas(case, gamma, tol, max_passes):
    X, y, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        C = build_constraints(X, y, **config)
    result, caught = _outcome(fit_itml, X, C, gamma=gamma, max_passes=max_passes, tol=tol)
    if caught is not None:      # not a fit that raised
        _check_diagnostics_against_the_former_formulas(X, C, gamma, tol, result)


def test_pipeline_shaped_diagnostics_are_within_the_bound_of_the_former_formulas(pipeline_fold):
    result = pipeline_fold.itml_result
    assert result.n_passes == 30
    _check_diagnostics_against_the_former_formulas(pipeline_fold.Zs, pipeline_fold.constraints, 1.0, 1e-3, result)


def test_a_pass_calls_neither_solve_nor_slogdet_nor_einsum(monkeypatch):
    # The divergence comes from a Cholesky factor of A and the prior's terms, taken once per fit;
    # the distances from one two-operand product.
    X, _, C = _random_instance(10)
    calls = []
    for module, name in ((np.linalg, "solve"), (np.linalg, "slogdet"), (np, "einsum")):
        monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs: calls.append(name))
    result = fit_itml(X, C, max_passes=50, tol=1e-4)
    assert result.n_passes > 1 and calls == []


def test_dot_into_a_buffer_gives_the_plain_products_bytes():
    # fit_itml writes A v into a buffer allocated once per fit, through the array's dot method.
    rng = np.random.default_rng(13)
    for _ in range(20_000):
        q = int(rng.integers(1, 30))
        B = rng.standard_normal((q, q)) * 10.0 ** rng.integers(-3, 4)
        A = B + B.T
        v = rng.standard_normal(q)
        Av = np.empty(q)
        A.dot(v, out=Av)
        assert Av.tobytes() == np.dot(A, v).tobytes()


def test_the_k_1_product_gives_the_broadcast_products_but_plus_zero_for_a_zero_factor():
    # fit_itml forms Av_i * Av_j as Av[:, None].dot(Av[None, :]). Each entry is one product: a nonzero
    # one is the same double as np.multiply's, and a product with a zero factor comes out +0.0, where
    # np.multiply gives -0.0 for factors of opposite signs. A product of nonzero factors that
    # underflows is a zero whose sign is the BLAS kernel's: OpenBLAS's SkylakeX kernel gives -0.0 for
    # factors of opposite signs, as np.multiply does, and its Haswell and Katmai kernels give +0.0.
    rng = np.random.default_rng(14)
    for _ in range(5_000):
        q = int(rng.integers(1, 30))
        Av = rng.standard_normal(q) * 10.0 ** rng.integers(-170, 170, q)    # products underflow and overflow
        Av[rng.random(q) < 0.2] = 0.0
        Av[rng.random(q) < 0.1] = -0.0
        outer = np.empty((q, q))
        with np.errstate(over="ignore", under="ignore"):
            Av[:, None].dot(Av[None, :], out=outer)
            expected = np.multiply(Av[:, None], Av)
        zero_factor = (Av == 0.0)[:, None] | (Av == 0.0)
        nonzero = expected != 0.0
        assert outer[nonzero].tobytes() == expected[nonzero].tobytes()
        assert outer[zero_factor].tobytes() == np.zeros(zero_factor.sum()).tobytes()
        assert np.all(outer[~zero_factor & ~nonzero] == 0.0)    # underflowed: a zero of either sign


@pytest.mark.parametrize("similar", [True, False], ids=["similar", "dissimilar"])
def test_an_underflowed_product_leaves_the_same_metric_as_np_multiply_on_every_kernel(similar):
    # v = (1, 1e-170, -1e-170): Av_2 * Av_3 = -1e-340 underflows to a zero whose sign is the BLAS
    # kernel's (np.multiply: -0.0). Scaled by beta and added to the identity prior's +0.0 it gives +0.0
    # either way, so A is the np.multiply-based update's bit for bit.
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1e-170, -1e-170]])
    C = ConstraintSet(((0, 1),), (), u=0.5, l=1.0) if similar else ConstraintSet((), ((0, 1),), u=0.5, l=10.0)
    with np.errstate(under="ignore"):
        assert np.signbit(np.multiply(X[1, 1], X[1, 2]))
        result = fit_itml(X, C, max_passes=1)
        expected = reference_itml(X, C, 1.0, 1, 1e-3)["A"]
    assert result.dual_changes == [0.5 if similar else 0.45]    # alpha != 0: the update was applied
    assert result.A.tobytes() == expected.tobytes()
    assert result.A[1, 2] == 0.0 and not np.signbit(result.A[1, 2])


@pytest.mark.parametrize("similar", [True, False], ids=["similar", "dissimilar"])
def test_negative_zeros_of_the_prior_keep_their_sign_only_under_an_update_with_negative_beta(similar):
    # v = (-1, 0, 0), so A v = (-2, 0, 0) and every update entry off the diagonal is a zero product,
    # which the k = 1 product writes as +0.0 on every kernel (np.multiply: -2 * 0 = -0.0). A similar
    # pair pulled in scales it by beta < 0 to -0.0, and -0.0 + -0.0 keeps A0's -0.0; a dissimilar pair
    # pushed out scales it by beta > 0, and -0.0 + 0.0 turns A0's -0.0 into +0.0.
    A0 = np.array([[2.0, -0.0, -0.0], [-0.0, 3.0, -0.0], [-0.0, -0.0, 4.0]])
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    C = ConstraintSet(((0, 1),), (), u=0.5, l=1.0) if similar else ConstraintSet((), ((0, 1),), u=0.5, l=10.0)
    result = fit_itml(X, C, A0=A0, max_passes=1)
    assert result.dual_changes == [0.75 if similar else 0.2]    # alpha != 0: the update was applied
    off_diagonal = result.A[~np.eye(3, dtype=bool)]
    assert np.all(off_diagonal == 0.0) and np.all(np.signbit(off_diagonal) == similar)
    assert (result.A[1, 1], result.A[2, 2]) == (3.0, 4.0)
    assert result.A[0, 0] == pytest.approx(0.8 if similar else 2.0 + 4.0 / 3.0)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=0.0), dict(gamma=-1.0), dict(gamma=float("nan")),
    dict(tol=-1e-3), dict(tol=float("nan")),
    dict(max_passes=0), dict(max_passes=-1),
], ids=repr)
def test_fit_rejects_invalid_arguments(kwargs):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
    C = ConstraintSet(((0, 1),), ((0, 2),), u=1.0, l=2.0)
    with pytest.raises(MetricError, match=next(iter(kwargs))):
        fit_itml(X, C, **kwargs)


def test_fit_checks_the_prior_once_and_the_metric_once_per_pass(monkeypatch):
    # One Cholesky factorization checks A0 and gives its log det, one per pass does so for A,
    # and the last pass's A is returned without another.
    calls = []
    original = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda A: calls.append(1) or original(A))
    X, _, C = _random_instance(10)
    result = fit_itml(X, C, max_passes=50, tol=1e-4)
    assert result.n_passes > 1
    assert len(calls) == result.n_passes + 1


def test_constraint_config_rejects_negative_cap_and_empty_sample():
    X, y = np.full((1, 2), np.nan), np.zeros(1)    # checked before X: no "non-finite" or "at least 2" error
    with pytest.raises(MetricError, match=r"^max_per_set must be an integer >= 0, got -1$"):
        build_constraints(X, y, max_per_set=-1)
    with pytest.raises(MetricError, match=r"^n_candidates must be an integer >= 1, got 0$"):
        build_constraints(X, y, n_candidates=0)


def test_constraint_sampling_sparse_path_is_deterministic():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)
    config = dict(max_per_set=40, n_candidates=800, seed=4)  # 19900 pairs
    a = build_constraints(X, y, **config)
    b = build_constraints(X, y, **config)
    assert a.similar == b.similar and a.dissimilar == b.dissimilar
    pairs = list(a.similar) + list(a.dissimilar)
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < j < 200 for i, j in pairs)


def _with(a, index, value):
    a = a.copy()
    a[index] = value
    return a


_NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


@_NON_FINITE
def test_constraints_refuse_non_finite_features_and_labels(value):
    # A NaN row used to drop every pair it is in; a NaN label, every pair.
    X = np.random.default_rng(0).standard_normal((30, 3))
    y = X @ np.array([1.0, 2.0, 3.0])
    with pytest.raises(MetricError, match="X has non-finite entries"):
        build_constraints(_with(X, (3, 1), value), y)
    with pytest.raises(MetricError, match="y has non-finite entries"):
        build_constraints(X, _with(y, 3, value))


@_NON_FINITE
def test_fit_refuses_non_finite_features(value):
    # min(0.0, nan) is 0.0: a NaN pair's projection used to be a no-op, and the fit returned a finite A.
    X = np.random.default_rng(0).standard_normal((30, 3))
    C = build_constraints(X, X @ np.array([1.0, 2.0, 3.0]))
    with pytest.raises(MetricError, match="X has non-finite entries"):
        fit_itml(_with(X, (C.similar[0][0], 1), value), C)


@_NON_FINITE
def test_matching_refuses_non_finite_features(value):
    # A NaN target row used to match source 0.
    rng = np.random.default_rng(0)
    source, target, y = rng.standard_normal((20, 3)), rng.standard_normal((5, 3)), rng.standard_normal(20)
    with pytest.raises(MetricError, match="target_X has non-finite entries"):
        match_source_to_target(np.eye(3), _with(target, (3, 1), value), source, y)
    with pytest.raises(MetricError, match="source_X has non-finite entries"):
        match_source_to_target(np.eye(3), target, _with(source, (3, 1), value), y)


@_NON_FINITE
@pytest.mark.parametrize("index", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_check_metric_names_non_finite_entries(value, index):
    # Such a matrix used to be called "not symmetric", and inf - inf warned on the way.
    with pytest.raises(MetricError, match="metric has non-finite entries"):
        itml.check_metric(_with(np.eye(2), index, value))

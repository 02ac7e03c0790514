import numpy as np
import pytest

from tmcda.itml import (
    ConstraintConfig,
    ConstraintSet,
    MetricError,
    build_constraints,
    fit_itml,
    logdet_divergence,
    mahalanobis_distance,
    match_source_to_target,
)

from _oracles import percentile_by_sort, scalar_itml_trace


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
    C = build_constraints(X, y, ConstraintConfig(seed=0))
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


def test_constraint_set_validates_u_less_than_l():
    with pytest.raises(MetricError):
        ConstraintSet(((0, 1),), (), u=2.0, l=1.0)
    with pytest.raises(MetricError):
        ConstraintSet(((0, 1),), ((0, 1),), u=1.0, l=2.0)


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
    C = build_constraints(X, y, ConstraintConfig(max_per_set=cap, seed=seed))
    return X, y, C


def test_metric_stays_psd_with_validation_enabled():
    X, _, C = _random_instance(10)
    result = fit_itml(X, C, max_passes=50, tol=1e-4, validate=True)
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


def test_similarity_threshold_is_positive_when_many_pairs_coincide():
    # Binary rows repeat, so more than 5% of the sampled pairs lie at
    # distance 0; a similar-pair slack starting at u = 0 cannot be projected.
    rng = np.random.default_rng(0)
    X = rng.integers(0, 2, size=(60, 3)).astype(float)
    y = X @ np.array([3.0, 1.0, 2.0]) + rng.uniform(0.0, 1.0, 60)
    C = build_constraints(X, y)
    assert 0.0 < C.u < C.l
    with pytest.warns(RuntimeWarning, match="zero distance"):
        result = fit_itml(X, C, max_passes=50)
    assert np.isfinite(result.A).all()


def test_diagnostics_text_layout():
    X, _, C = _random_instance(12)
    result = fit_itml(X, C, max_passes=20, tol=1e-3)
    lines = result.diagnostics_text().strip().splitlines()
    assert lines[0] == "pass,dual_change,violations,divergence,objective"
    assert len(lines) == result.n_passes + 1


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


def test_constraint_sampling_dense_cap_is_deterministic():
    # pair count between the cap and 4x the cap takes the permutation path
    rng = np.random.default_rng(17)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    config = ConstraintConfig(max_per_set=50, n_candidates=500, seed=3)
    a = build_constraints(X, y, config)
    b = build_constraints(X, y, config)
    assert a.similar == b.similar and a.dissimilar == b.dissimilar
    assert (a.u, a.l) == (b.u, b.l)
    pairs = list(a.similar) + list(a.dissimilar)
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < j < 60 for i, j in pairs)
    assert len(a.similar) <= 50 and len(a.dissimilar) <= 50


def test_constraint_sampling_sparse_path_is_deterministic():
    rng = np.random.default_rng(18)
    X = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)
    config = ConstraintConfig(max_per_set=40, n_candidates=800, seed=4)  # 19900 pairs
    a = build_constraints(X, y, config)
    b = build_constraints(X, y, config)
    assert a.similar == b.similar and a.dissimilar == b.dissimilar
    pairs = list(a.similar) + list(a.dissimilar)
    assert len(set(pairs)) == len(pairs)
    assert all(0 <= i < j < 200 for i, j in pairs)

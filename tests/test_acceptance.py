"""Acceptance suite: one test and one printed PASS line per criterion.

Criteria 6 and 7 reproduce qualitative orderings on synthetic networks and are
deterministic given the frozen seeds, so they are stable across runs.
"""

import time

import numpy as np
import pytest

from tmcda.boosting import TrainConfig, fit_gbbw, fit_gradient_boosting, predict
from tmcda.cli import EXIT_OK, main
from tmcda.gmm import fit_gmm, sample_gmm
from tmcda.itml import build_constraints, fit_itml, logdet_divergence, mahalanobis_distance
from tmcda.lasso import fit_lasso, lambda_max
from tmcda.pipeline import (
    GmmSettings,
    ItmlSettings,
    LassoSettings,
    PipelineConfig,
    ablation_sweep,
    evaluate,
    leave_one_out,
)
from tmcda.synth import generate_synthetic_network

from _oracles import (
    l1_objective,
    mixture_log_likelihood,
    proximal_gradient_lasso,
    standardize,
    straight_line_gbbw,
    subgradient_violation,
)


def _report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}) [{elapsed:.1f}s]")


# --------------------------------------------------------------------------- 1

def test_criterion_1_lasso_optimality():
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        X = rng.standard_normal((50, 5)) * rng.uniform(0.5, 4.0, size=5)
        beta = rng.standard_normal(5) * rng.integers(0, 2, size=5)
        y = rng.normal(0.0, 1.0) + X @ beta + 0.4 * rng.standard_normal(50)
        lam = float(rng.uniform(0.01, 0.7)) * lambda_max(X, y)

        model = fit_lasso(X, y, lam)
        Z, yc = standardize(X, y)
        assert subgradient_violation(Z, yc, model.coef_std, lam) <= 1e-6
        oracle = proximal_gradient_lasso(Z, yc, lam)
        gap = abs(l1_objective(Z, yc, model.coef_std, lam) - l1_objective(Z, yc, oracle, lam))
        assert gap <= 1e-6

        ols_model = fit_lasso(X, y, 0.0)
        design = np.column_stack([np.ones(50), X])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(ols_model.intercept - coef[0]) <= 1e-8
        assert np.max(np.abs(ols_model.coef - coef[1:])) <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, "subgradient<=1e-6, oracle objective gap<=1e-6, OLS<=1e-8 on 50 instances", elapsed)


# --------------------------------------------------------------------------- 2

def _itml_instances():
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        X = rng.standard_normal((30, 4))
        y = X @ rng.standard_normal(4) + 0.3 * rng.standard_normal(30)
        C = build_constraints(X, y, max_per_set=30, seed=seed)
        yield seed, X, C


def test_criterion_2_itml_correctness():
    start = time.time()
    for seed, X, C in _itml_instances():
        result = fit_itml(X, C, gamma=1.0, max_passes=2_000, tol=1e-5)
        assert result.converged, f"instance {seed} did not converge"
        A = result.A
        assert np.allclose(A, A.T, atol=1e-10)
        assert np.linalg.eigvalsh(A).min() > 0.0

        m_sim = len(C.similar)
        for c, (i, j) in enumerate(C.similar):
            d = mahalanobis_distance(A, X[i], X[j])
            assert d <= result.final_xi[c] * (1.0 + 1e-3)
        for c, (i, j) in enumerate(C.dissimilar):
            d = mahalanobis_distance(A, X[i], X[j])
            assert d >= result.final_xi[m_sim + c] * (1.0 - 1e-3)

        # the quantity the projections maximize must be monotone
        assert np.all(np.diff(result.dual_objectives) >= -1e-9)
        assert np.isfinite(result.divergences[-1])

    # empty-constraint run returns the prior bitwise
    from tmcda.itml import ConstraintSet

    A0 = np.diag([1.5, 2.5, 0.5])
    empty = fit_itml(np.zeros((3, 3)), ConstraintSet((), (), 1.0, 2.0), A0=A0)
    assert np.array_equal(empty.A, A0)

    # congruence invariance of the divergence
    rng = np.random.default_rng(99)
    for _ in range(5):
        B = rng.standard_normal((4, 4))
        A = B @ B.T + np.eye(4)
        Cm = rng.standard_normal((4, 4))
        A0 = Cm @ Cm.T + np.eye(4)
        S = rng.standard_normal((4, 4)) + 0.2 * np.eye(4)
        assert abs(
            logdet_divergence(S.T @ A @ S, S.T @ A0 @ S) - logdet_divergence(A, A0)
        ) <= 1e-8

    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, "PSD metric, slack bounds<=1e-3, dual monotone, prior exact, invariance<=1e-8", elapsed)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The divergence+slack objective is not a non-increasing quantity for "
        "cyclic Bregman projections with corrections: it overshoots in the "
        "first pass and relaxes toward the optimum from above with small "
        "rises along the way. The dual objective, asserted green in "
        "criterion 2, is what the projections monotonically improve. This "
        "test states the literal per-pass claim and is expected to fail."
    ),
)
def test_criterion_2_objective_proxy_literal_clause():
    for _, X, C in _itml_instances():
        result = fit_itml(X, C, gamma=1.0, max_passes=2_000, tol=1e-5)
        rises = np.diff(result.objectives)
        assert np.all(rises <= 1e-3), f"objective proxy rose by {rises.max():.3e}"


# --------------------------------------------------------------------------- 3

def test_criterion_3_gmm_correctness():
    start = time.time()
    rng = np.random.default_rng(31)

    # monotone log-likelihood and normalized weights on every tested run
    for K in (2, 3):
        for _ in range(3):
            X = np.vstack([
                rng.multivariate_normal([0, 0], np.eye(2), 60),
                rng.multivariate_normal([5, 2], [[0.5, 0.1], [0.1, 0.7]], 50),
            ])
            model = fit_gmm(X, K=K, seed=int(rng.integers(1e6)))
            assert np.all(np.diff(model.ll_trace) >= -1e-8)
            assert abs(model.weights.sum() - 1.0) <= 1e-12
            independent = mixture_log_likelihood(X, model.weights, model.means, model.covariances)
            assert model.log_likelihood == pytest.approx(independent, abs=1e-6)

    # K = 1 runs EM, which lands within rounding of the closed form
    X = rng.standard_normal((40, 3)) * np.array([2.0, 0.7, 1.3])
    model = fit_gmm(X, K=1, ridge=1e-5)
    assert np.max(np.abs(model.means[0] - X.mean(axis=0))) <= 1e-10
    expected = np.cov(X, rowvar=False, bias=True) + 1e-5 * np.eye(3)
    assert np.max(np.abs(model.covariances[0] - expected)) <= 1e-10

    # two-cluster recovery over 10 seeds
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        X = np.concatenate([r2.normal(-10, 1, 120), r2.normal(10, 1, 80)])[:, None]
        fitted = fit_gmm(X, K=2, seed=seed, n_init=3)
        order = np.argsort(fitted.means[:, 0])
        assert abs(fitted.means[order][0, 0] + 10.0) <= 0.5
        assert abs(fitted.means[order][1, 0] - 10.0) <= 0.5
        assert abs(fitted.weights[order][0] - 0.6) <= 0.1

    # sampler moment matching at M = 10000
    from tmcda.gmm import GaussianMixture

    weights = np.array([0.7, 0.3])
    mix = GaussianMixture(weights, np.array([[-6.0], [6.0]]),
                          np.array([[[1.0]], [[1.0]]]), 0.0, 0, True, (0.0,))
    draws = sample_gmm(mix, 10_000, seed=5)
    hi = draws[:, 0] > 0
    prop_hi = hi.mean()
    assert abs((1 - prop_hi) - 0.7) <= 3.0 * np.sqrt(0.7 * 0.3 / 10_000)
    assert abs(draws[~hi, 0].mean() + 6.0) <= 3.0 / np.sqrt((~hi).sum())
    assert abs(draws[hi, 0].mean() - 6.0) <= 3.0 / np.sqrt(hi.sum())

    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, "EM monotone<=1e-8, K=1 exact<=1e-10, clusters recovered, sampler 3-sigma, weights 1e-12", elapsed)


# --------------------------------------------------------------------------- 4

def test_criterion_4_gbbw_correctness():
    start = time.time()
    rng = np.random.default_rng(41)
    Xs = rng.standard_normal((12, 3))
    ys = 3.0 * Xs[:, 0] - Xs[:, 1] ** 2 + 0.1 * rng.standard_normal(12)
    Xt = rng.standard_normal((4, 3)) + 0.8
    yt = 3.0 * Xt[:, 0] - Xt[:, 1] ** 2 + 0.1 * rng.standard_normal(4)

    # alpha = 0 bitwise-equals source-only boosting
    cfg0 = TrainConfig(n_stages=25, max_depth=2, shrinkage=0.2, alpha=0.0)
    probe = np.vstack([Xs, Xt])
    assert np.array_equal(
        predict(fit_gbbw(Xs, ys, Xt, yt, cfg0), probe),
        predict(fit_gradient_boosting(Xs, ys, cfg0), probe),
    )

    # per-stage weighted loss non-increasing at unit shrinkage
    cfg1 = TrainConfig(n_stages=30, max_depth=2, shrinkage=1.0, alpha=0.5)
    model = fit_gbbw(Xs, ys, Xt, yt, cfg1)
    assert np.all(np.diff(model.loss_trace) <= 1e-10)

    # stage multiplier against a grid-search oracle
    from tmcda.boosting import compute_gamma

    for seed in range(5):
        r2 = np.random.default_rng(seed)
        y = r2.standard_normal(8)
        F = r2.standard_normal(8)
        h = r2.standard_normal(8)
        w = r2.uniform(0.1, 1.0, 8)
        gamma = compute_gamma(F, h, y, w)
        grid = np.linspace(gamma - 0.5, gamma + 0.5, 20_001)
        losses = [(w * 0.5 * (y - F - g * h) ** 2).sum() for g in grid]
        assert abs(grid[int(np.argmin(losses))] - gamma) <= 1e-4

    # 16-instance fit against the straight-line re-implementation
    cfg2 = TrainConfig(n_stages=3, max_depth=2, min_samples_leaf=2, shrinkage=1.0, alpha=0.5)
    lib = fit_gbbw(Xs, ys, Xt, yt, cfg2)
    oracle = straight_line_gbbw(Xs, ys, Xt, yt, 0.5, 3, 2, 2, 1.0)
    assert np.max(np.abs(predict(lib, probe) - oracle(probe))) <= 1e-10

    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, "alpha=0 bitwise, loss monotone, gamma<=1e-4, straight-line oracle<=1e-10", elapsed)


# --------------------------------------------------------------------------- 5

def test_criterion_5_metrics():
    start = time.time()
    assert evaluate(np.array([3.0, 1.0]), np.array([3.0, 1.0])) == (0.0, 0.0)
    mae, rmse = evaluate(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    assert mae == 1.5 and rmse == pytest.approx(np.sqrt(2.5), abs=1e-15)
    rng = np.random.default_rng(51)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        mae, rmse = evaluate(rng.standard_normal(n), rng.standard_normal(n))
        assert rmse >= mae >= 0.0
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(5, "hand values exact, RMSE>=MAE on 1000 vectors", elapsed)


# ------------------------------------------------------------------------- 6/7

def _ordering_config(variant, seed):
    return PipelineConfig(
        movement="left",
        lasso=LassoSettings(lambda_mode="fraction", lambda_value=0.06, tol=1e-7, max_sweeps=2_000),
        itml=ItmlSettings(max_passes=30, max_constraints=100, n_candidates=3_000),
        gmm=GmmSettings(n_init=2),
        boosting=TrainConfig(n_stages=60, max_depth=1, shrinkage=0.3, alpha=0.5),
        master_seed=seed,
        variant=variant,
    )


N_ORDERING_SEEDS = 20


def test_criterion_6_qualitative_ordering_at_desk_scale():
    start = time.time()
    rows = []
    for seed in range(N_ORDERING_SEEDS):
        data = generate_synthetic_network(seed, n_intersections=6, shift_strength=1.3,
                                          n_intervals=96)
        report = leave_one_out(
            data,
            [_ordering_config("full", seed),
             _ordering_config("itml-gbbw", seed),
             _ordering_config("source-only", seed)],
        )
        assert all(r.error is None for r in report.rows)
        rows.append((
            report.aggregates[("ITMLGMM-GBBW", "left")][0],
            report.aggregates[("ITML-GBBW", "left")][0],
            report.aggregates[("GB", "left")][0],
        ))
    arr = np.array(rows)
    med_full, med_itml, med_src = np.median(arr, axis=0)
    improvement = float(np.median(arr[:, 2] - arr[:, 0]))
    assert med_full <= med_itml <= med_src, (med_full, med_itml, med_src)
    assert improvement > 0.0
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, f"median MAE {med_full:.2f} <= {med_itml:.2f} <= {med_src:.2f}, "
               f"median improvement {improvement:+.2f} over {N_ORDERING_SEEDS} seeds", elapsed)


def test_criterion_7_alpha_ablation_shape():
    start = time.time()
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    table = []
    for seed in range(N_ORDERING_SEEDS):
        data = generate_synthetic_network(seed, n_intersections=6, shift_strength=1.3,
                                          n_intervals=96)
        sweep = ablation_sweep(data, {"alpha": alphas}, _ordering_config("full", seed))
        assert [c.values["alpha"] for c in sweep.cells] == alphas
        assert all(c.status == "ok" for c in sweep.cells)
        values = [c.aggregates[("ITMLGMM-GBBW", "left")][0] for c in sweep.cells]
        assert np.isfinite(values).all()
        table.append(values)
    medians = np.median(np.array(table), axis=0)
    assert not medians[-1] < medians[:-1].min(), medians  # alpha=1 never uniquely best
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(7, "all cells finite; alpha=1.0 not uniquely best "
               f"(medians {np.round(medians, 2).tolist()})", elapsed)


# --------------------------------------------------------------------------- 8

def test_criterion_8_determinism_and_no_leakage(tmp_path):
    start = time.time()
    data = tmp_path / "net.csv"
    assert main(["synth", "--seed", "6", "--n-intersections", "3",
                 "--n-intervals", "8", "--out", str(data)]) == EXIT_OK
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "lasso.lambda_mode = fraction\nlasso.lambda_value = 0.05\n"
        "lasso.tol = 1e-5\nlasso.max_sweeps = 3000\n"
        "itml.max_passes = 6\nitml.max_constraints = 30\nitml.n_candidates = 500\n"
        "gmm.n_components = 2\ngmm.n_samples = 8\ngmm.n_init = 1\n"
        "boosting.n_stages = 4\nboosting.max_depth = 2\nseed = 12\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert main(["loo", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(out_dir), "--variant", "full",
                     "--movement", "left"]) == EXIT_OK
        outs.append((
            (out_dir / "summary.csv").read_bytes(),
            (out_dir / "folds.csv").read_bytes(),
        ))
    assert outs[0] == outs[1]

    # leakage barrier: held-out labels cannot enter any training path
    from tmcda.dataset import split_domains
    from tmcda.gmm import augment
    from tmcda.lasso import fit_lasso as fl

    network = generate_synthetic_network(6, 3, 1.0, 8)
    split = split_domains(network, "I01")
    held = split.held_out_labels
    X = split.target_features.X
    for attack in (
        lambda: fl(X, held, 0.1),
        lambda: build_constraints(X, held),
        lambda: augment(X, held, K=2, M=4),
        lambda: fit_gbbw(X, held, X, held, TrainConfig(n_stages=1)),
        lambda: evaluate(held, np.zeros(len(held))),
        lambda: np.asarray(held),
    ):
        with pytest.raises(TypeError, match="held-out"):
            attack()

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(8, "byte-identical reruns; every label-injection path raises", elapsed)

"""Gaussian mixture fitting by expectation-maximization, and sampling.

Used to augment a matched labeled set: features and label are stacked into
joint vectors of dimension d = q + 1, a K-component full-covariance mixture
is fit by EM, and synthetic joint samples are drawn from the fitted mixture.

EM takes every component at once where that gives the same doubles as one
component at a time: the E-step factors the (K, d, d) stack of covariances
with one Cholesky call and solves the (K, d, n) stack of residuals with one
triangular solve, and the M-step's means are one stacked product of the
responsibilities with the data. The covariance products stay one per
component: stacked, their bits depend on the BLAS kernel (OpenBLAS's Katmai
kernel rounds a product on a slice of a stacked array differently from the
same product on its own), while per component they are the former loop's
on every kernel tested. K = 1 runs the same EM, whose second step computes
the closed form's mean and covariance up to rounding (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schema import check_count, check_samples, count_problem, real_problem, refuse


class GMMError(ValueError):
    """Raised for infeasible mixture fits."""


class TooFewSamplesError(GMMError):
    """Raised when a mixture has more components than there are samples to fit."""


EM_TOL = 1e-6
EM_MAX_ITER = 200


@dataclass(frozen=True)
class GaussianMixture:
    """K mixing weights, component means and full covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihood: float
    n_iter: int
    converged: bool
    ll_trace: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]


def effective_ridge(X: np.ndarray, ridge: float | None) -> float:
    if ridge is not None:
        return ridge
    var = np.var(X, axis=0)
    return 1e-6 * float(var.mean()) if var.mean() > 0 else 1e-6


def _log_responsibilities(X, weights, means, covs) -> tuple[np.ndarray, float]:
    """Log posterior membership per row and the total log-likelihood, every component at once."""
    try:
        L = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise GMMError("singular covariance; increase ridge") from None
    z = np.linalg.solve(L, (X - means[:, None, :]).transpose(0, 2, 1))
    log_det = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    log_density = -0.5 * ((X.shape[1] * np.log(2.0 * np.pi) + log_det)[:, None] + np.sum(z * z, axis=1))
    # (n, K) in C order: a transposed view would change the order in which the sums over components
    # here, and over rows in the M-step, add up
    log_p = (np.log(weights)[:, None] + log_density).T.copy()
    top = log_p.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
    return log_p - log_norm[:, None], float(log_norm.sum())


def _kmeanspp_means(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Seed component means at data points, spread by squared distance to the nearest mean so far."""
    n = len(X)
    means = [X[rng.integers(n)]]
    d2 = np.full(n, np.inf)
    for _ in range(1, K):
        d2 = np.minimum(d2, np.sum((X - means[-1]) ** 2, axis=1))
        total = d2.sum()
        means.append(X[rng.integers(n)] if total <= 0 else X[rng.choice(n, p=d2 / total)])
    return np.stack(means)


def _em_single(X: np.ndarray, K: int, rng: np.random.Generator, ridge: float) -> GaussianMixture:
    n, d = X.shape
    means = _kmeanspp_means(X, K, rng)
    pooled = np.cov(X, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
    covs = np.tile(pooled, (K, 1, 1))
    weights = np.full(K, 1.0 / K)

    trace = []
    prev_ll = -np.inf
    reinitialized = np.zeros(K, dtype=bool)
    converged = False
    it = 0
    for it in range(1, EM_MAX_ITER + 1):
        log_r, ll = _log_responsibilities(X, weights, means, covs)
        r = np.exp(log_r)
        trace.append(ll)

        nk = r.sum(axis=0)
        for k in range(K):
            if nk[k] < 1e-12:
                if reinitialized[k]:
                    raise GMMError(f"component {k} lost all responsibility mass twice")
                reinitialized[k] = True
                means[k] = X[rng.integers(n)]
                covs[k] = pooled.copy()
                weights = np.full(K, 1.0 / K)
                log_r, ll = _log_responsibilities(X, weights, means, covs)
                r = np.exp(log_r)
                nk = r.sum(axis=0)

        weights = nk / n
        means = (r.T[:, None, :] @ X)[:, 0, :] / nk[:, None]
        for k in range(K):
            # one product per component: a batched product's bits depend on the BLAS kernel
            diff = X - means[k]
            covs[k] = (r[:, k, None] * diff).T @ diff / nk[k] + ridge * np.eye(d)

        if prev_ll > -np.inf:
            improvement = (ll - prev_ll) / max(1.0, abs(prev_ll))
            if improvement < EM_TOL:
                converged = True
                break
        prev_ll = ll

    _, final_ll = _log_responsibilities(X, weights, means, covs)
    trace.append(final_ll)
    order = np.argsort(-weights, kind="stable")
    return GaussianMixture(weights[order], means[order], covs[order], final_ll, it, converged, tuple(trace))


def fit_gmm(X: np.ndarray, K: int, *, n_init: int = 5, seed: int = 0, ridge: float | None = None) -> GaussianMixture:
    """Fit a K-component full-covariance mixture, best of ``n_init`` (>= 1) seeded restarts.

    The E-step computes responsibilities from the current parameters; the
    M-step re-estimates weights, means and (biased, responsibility-weighted)
    covariances, each regularized by ridge times the identity. ``ridge`` is
    absolute, a number in [0, inf); when None it is 1e-6 times the mean diagonal
    variance of the data. Iteration stops when the relative log-likelihood
    improvement drops below ``EM_TOL`` (1e-6), or after ``EM_MAX_ITER``
    (200) iterations. Restart selection is by final log-likelihood, ties to
    the earliest restart. K = 1 runs the same EM, and only its first
    restart: from the second step on every row's responsibility is 1, so
    every restart returns the same fit, bit for bit, whatever its seeding
    (tested against all ``n_init`` restarts). Components are returned in
    order of decreasing weight, ties in component order. An ``X`` that
    fails ``schema.check_samples`` raises ``GMMError``, and so does a ``K``
    or ``n_init`` that is not an integer >= 1, or a ``seed`` that is not one
    >= 0, a bool included; fewer rows than ``K`` raise ``TooFewSamplesError``.
    """
    refuse((count_problem("n_init", n_init, 1), count_problem("seed", seed, 0),
            None if ridge is None else real_problem("ridge", ridge, 0, math.inf, "[)")), GMMError)
    X = check_samples(X, least=0, error=GMMError)
    check_count("K", K, 1, GMMError)
    if len(X) < K:
        raise TooFewSamplesError(f"need at least K={K} samples, got {len(X)}")
    ridge = effective_ridge(X, ridge)
    restarts = np.random.SeedSequence(seed).spawn(1 if K == 1 else n_init)
    fits = (_em_single(X, K, np.random.default_rng(seq), ridge) for seq in restarts)
    return max(fits, key=lambda fit: fit.log_likelihood)


def sample_gmm(model: GaussianMixture, M: int, seed: int) -> np.ndarray:
    """Draw M joint samples: pick a component by its weight, then draw from it.

    An ``M`` or ``seed`` that is not an integer >= 0, a bool included, raises ``GMMError``.
    """
    refuse((count_problem("M", M, 0), count_problem("seed", seed, 0)), GMMError)
    rng = np.random.default_rng(seed)
    ks = rng.choice(model.K, size=M, p=model.weights)
    z = rng.standard_normal((M, model.d))
    out = np.empty((M, model.d))
    for k in range(model.K):
        mask = ks == k
        if not mask.any():
            continue
        L = np.linalg.cholesky(model.covariances[k])
        out[mask] = model.means[k] + z[mask] @ L.T
    return out


def augment(
    matched_X: np.ndarray,
    matched_y: np.ndarray,
    K: int,
    M: int,
    *,
    n_init: int = 5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, GaussianMixture | None]:
    """Augment a matched labeled set with mixture-drawn synthetic samples.

    Features and label are stacked into joint vectors (label last), a mixture
    is fit, M joint samples are drawn and split back. Synthetic labels are
    clamped at zero (counts). Returns original plus synthetic rows, size
    N + M, along with the fitted mixture (``fit_gmm`` with ``n_init`` and
    ``seed``; the draws use ``seed`` too). M = 0 returns the input unchanged
    without fitting, and reads neither K nor ``n_init``. A matched set that
    fails ``schema.check_samples`` raises ``GMMError``.
    """
    matched_X, matched_y = check_samples(matched_X, matched_y, error=GMMError, names=("matched_X", "matched_y"))
    if M == 0:
        return matched_X.copy(), matched_y.copy(), None

    joint = np.hstack([matched_X, matched_y[:, None]])
    model = fit_gmm(joint, K, n_init=n_init, seed=seed)
    synth = sample_gmm(model, M, seed)
    synth_X = synth[:, :-1]
    synth_y = np.maximum(synth[:, -1], 0.0)
    return (
        np.vstack([matched_X, synth_X]),
        np.concatenate([matched_y, synth_y]),
        model,
    )

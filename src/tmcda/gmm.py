"""Gaussian mixture fitting by expectation-maximization, and sampling.

Used to augment a matched labeled set: features and label are stacked into
joint vectors of dimension d = q + 1, a K-component full-covariance mixture
is fit by EM, and synthetic joint samples are drawn from the fitted mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GMMError(ValueError):
    """Raised for infeasible mixture fits."""


class TooFewSamplesError(GMMError):
    """Raised when a mixture has more components than there are samples to fit."""


EM_TOL = 1e-6
EM_MAX_ITER = 200


@dataclass(frozen=True)
class EMConfig:
    """EM controls; the stopping rule is fixed by ``EM_TOL`` and ``EM_MAX_ITER``.

    ``ridge`` is the absolute covariance regularization added to every
    component covariance diagonal; when None it defaults to 1e-6 times the
    mean diagonal variance of the data; a given ridge must be finite and
    >= 0. ``n_init`` (>= 1) is the number of seeded EM restarts.
    """

    ridge: float | None = None
    n_init: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.ridge is not None and not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise GMMError(f"ridge must be finite and >= 0, got {self.ridge}")
        if self.n_init < 1:
            raise GMMError(f"n_init must be >= 1, got {self.n_init}")


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


def _chol_log_density(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Row-wise Gaussian log-density via a Cholesky factorization."""
    d = len(mean)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise GMMError("singular covariance; increase ridge") from None
    diff = X - mean
    z = np.linalg.solve(L, diff.T)
    maha = np.sum(z * z, axis=0)
    log_det = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + maha)


def _log_responsibilities(X, weights, means, covs) -> tuple[np.ndarray, float]:
    """Log posterior membership per row and the total log-likelihood."""
    n, K = len(X), len(weights)
    log_p = np.empty((n, K))
    for k in range(K):
        log_p[:, k] = np.log(weights[k]) + _chol_log_density(X, means[k], covs[k])
    top = log_p.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
    return log_p - log_norm[:, None], float(log_norm.sum())


def _kmeanspp_means(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Seed component means at data points, spread by squared distance."""
    n = len(X)
    means = [X[rng.integers(n)]]
    for _ in range(1, K):
        d2 = np.min(
            [np.sum((X - m) ** 2, axis=1) for m in means], axis=0
        )
        total = d2.sum()
        if total <= 0:
            means.append(X[rng.integers(n)])
            continue
        means.append(X[rng.choice(n, p=d2 / total)])
    return np.stack(means)


def _em_single(X: np.ndarray, K: int, rng: np.random.Generator, ridge: float):
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
        for k in range(K):
            means[k] = (r[:, k] @ X) / nk[k]
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
    return weights, means, covs, final_ll, it, converged, tuple(trace)


def fit_gmm(X: np.ndarray, K: int, config: EMConfig = EMConfig()) -> GaussianMixture:
    """Fit a K-component full-covariance mixture, best of ``n_init`` restarts.

    The E-step computes responsibilities from the current parameters; the
    M-step re-estimates weights, means and (biased, responsibility-weighted)
    covariances, each regularized by ridge times the identity. Iteration
    stops when the relative log-likelihood improvement drops below
    ``EM_TOL`` (1e-6), or after ``EM_MAX_ITER`` (200) iterations.
    Restart selection is by final log-likelihood, ties to the earliest
    restart. A non-finite entry of ``X`` raises ``GMMError``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if not np.isfinite(X).all():
        raise GMMError("samples have non-finite entries")
    n, d = X.shape
    if K < 1:
        raise GMMError("K must be >= 1")
    if n < K:
        raise TooFewSamplesError(f"need at least K={K} samples, got {n}")
    ridge = effective_ridge(X, config.ridge)

    if K == 1:
        mean = X.mean(axis=0)
        cov = np.cov(X, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
        _, ll = _log_responsibilities(X, np.ones(1), mean[None, :], cov[None, :, :])
        return GaussianMixture(np.ones(1), mean[None, :], cov[None, :, :], ll, 0, True, (ll,))

    seeds = np.random.SeedSequence(config.seed).spawn(config.n_init)
    best = None
    for restart, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        fit = _em_single(X, K, rng, ridge)
        if best is None or fit[3] > best[1][3]:
            best = (restart, fit)
    weights, means, covs, ll, n_iter, converged, trace = best[1]
    order = np.argsort(-weights, kind="stable")
    return GaussianMixture(
        weights[order].copy(), means[order].copy(), covs[order].copy(), ll, n_iter, converged, trace
    )


def sample_gmm(model: GaussianMixture, M: int, seed: int) -> np.ndarray:
    """Draw M joint samples: pick a component by its weight, then draw from it."""
    if M < 0:
        raise GMMError("M must be >= 0")
    if M == 0:
        return np.empty((0, model.d))
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
    config: EMConfig = EMConfig(),
) -> tuple[np.ndarray, np.ndarray, GaussianMixture | None]:
    """Augment a matched labeled set with mixture-drawn synthetic samples.

    Features and label are stacked into joint vectors (label last), a mixture
    is fit, M joint samples are drawn and split back. Synthetic labels are
    clamped at zero (counts). Returns original plus synthetic rows, size
    N + M, along with the fitted mixture. M = 0 returns the input unchanged
    without fitting. Non-finite features or labels raise ``GMMError``.
    """
    matched_X = np.asarray(matched_X, dtype=float)
    matched_y = np.asarray(matched_y, dtype=float)
    if len(matched_X) == 0:
        raise GMMError("matched set is empty")
    if len(matched_X) != len(matched_y):
        raise GMMError("features and labels must align")
    if not (np.isfinite(matched_X).all() and np.isfinite(matched_y).all()):
        raise GMMError("matched set has non-finite entries")
    if M == 0:
        return matched_X.copy(), matched_y.copy(), None

    joint = np.hstack([matched_X, matched_y[:, None]])
    model = fit_gmm(joint, K, config)
    synth = sample_gmm(model, M, config.seed)
    synth_X = synth[:, :-1]
    synth_y = np.maximum(synth[:, -1], 0.0)
    return (
        np.vstack([matched_X, synth_X]),
        np.concatenate([matched_y, synth_y]),
        model,
    )

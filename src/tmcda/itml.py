"""Mahalanobis metric learning via logdet-regularized Bregman projections.

The metric d_A(x_i, x_j) = (x_i - x_j)^T A (x_i - x_j) is learned from
similar/dissimilar pair constraints by cycling Bregman projections with a
slack mechanism: each projection updates A with a rank-one correction and
adjusts the constraint's slack and dual variable. The divergence to the
prior metric, tr(A A0^-1) - log det(A A0^-1) - n, regularizes the solution
and doubles as the convergence monitor.

For regression labels, similar/dissimilar pairs are derived from
label-difference percentiles; the distance thresholds come from percentiles
of prior-metric distances over the sampled pairs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class MetricError(ValueError):
    """Raised for invalid metric matrices or diverged training state."""


def check_metric(A: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Validate that A is symmetric positive-definite; returns A as float array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise MetricError(f"metric must be square, got shape {A.shape}")
    if not np.all(np.abs(A - A.T) <= sym_tol * max(1.0, np.abs(A).max())):
        raise MetricError("metric is not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise MetricError("metric is not positive-definite") from None
    return A


def mahalanobis_distance(A: np.ndarray, x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Squared Mahalanobis distance (x_i - x_j)^T A (x_i - x_j)."""
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    A = np.asarray(A, dtype=float)
    if x_i.shape != x_j.shape or A.shape != (x_i.size, x_i.size):
        raise MetricError(
            f"dimension mismatch: A {A.shape}, x_i {x_i.shape}, x_j {x_j.shape}"
        )
    d = x_i - x_j
    return float(d @ A @ d)


def logdet_divergence(A: np.ndarray, A0: np.ndarray) -> float:
    """tr(A A0^-1) - log det(A A0^-1) - n; zero iff A == A0."""
    A = check_metric(A)
    A0 = check_metric(A0)
    if A.shape != A0.shape:
        raise MetricError("metrics must share a dimension")
    n = A.shape[0]
    M = np.linalg.solve(A0, A)
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise MetricError("logdet divergence undefined: A A0^-1 not positive-definite")
    value = float(np.trace(M) - logdet - n)
    return 0.0 if -1e-9 < value < 0.0 else value


@dataclass(frozen=True)
class ConstraintSet:
    """Similar/dissimilar index pairs with distance thresholds u < l."""

    similar: tuple[tuple[int, int], ...]
    dissimilar: tuple[tuple[int, int], ...]
    u: float
    l: float

    def __post_init__(self):
        if self.u >= self.l:
            raise MetricError(f"require u < l, got u={self.u}, l={self.l}")
        if set(self.similar) & set(self.dissimilar):
            raise MetricError("a pair cannot be both similar and dissimilar")

    def __len__(self) -> int:
        return len(self.similar) + len(self.dissimilar)


@dataclass(frozen=True)
class ConstraintConfig:
    percentile: float = 10.0       # label-difference percentile defining similarity
    max_per_set: int = 200
    n_candidates: int = 5_000
    seed: int = 0


def build_constraints(
    X: np.ndarray,
    y: np.ndarray,
    config: ConstraintConfig = ConstraintConfig(),
) -> ConstraintSet:
    """Derive pair constraints from continuous labels.

    A sampled pair is similar when its absolute label difference falls at or
    below the ``percentile``-th percentile of sampled differences, dissimilar
    at or above the (100 - percentile)-th. When both thresholds coincide the
    pair is classified against half the label range. u and l are the 5th and
    95th percentiles of prior-metric (identity) distances over the sampled
    pairs, u over the positive ones when that is 0 (no similar-pair slack can
    start at 0); degenerate equal percentiles are widened by 5% around their value.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2:
        raise MetricError("need at least 2 labeled instances")

    total_pairs = n * (n - 1) // 2
    if total_pairs <= config.n_candidates:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif total_pairs <= 4 * config.n_candidates:
        # Dense cap: enumerate and take a seeded permutation prefix
        # (rejection sampling stalls when the cap nears the pair count).
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = np.random.default_rng(config.seed).permutation(total_pairs)
        pairs = [all_pairs[k] for k in order[: config.n_candidates]]
    else:
        rng = np.random.default_rng(config.seed)
        seen = set()
        pairs = []
        while len(pairs) < config.n_candidates:
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            pair = (min(i, j), max(i, j))
            if pair not in seen:
                seen.add(pair)
                pairs.append((int(pair[0]), int(pair[1])))
    pairs_arr = np.array(pairs)

    deltas = np.abs(y[pairs_arr[:, 0]] - y[pairs_arr[:, 1]])
    t_sim = float(np.percentile(deltas, config.percentile))
    t_dis = float(np.percentile(deltas, 100.0 - config.percentile))
    half_range = (float(y.max()) - float(y.min())) / 2.0

    diffs = X[pairs_arr[:, 0]] - X[pairs_arr[:, 1]]
    dists = np.einsum("ij,ij->i", diffs, diffs)

    similar, dissimilar = [], []
    for (i, j), delta in zip(pairs, deltas):
        is_sim = delta <= t_sim
        is_dis = delta >= t_dis
        if is_sim and is_dis:
            is_dis = delta > half_range
            is_sim = not is_dis
        if is_sim and len(similar) < config.max_per_set:
            similar.append((i, j))
        elif is_dis and len(dissimilar) < config.max_per_set:
            dissimilar.append((i, j))

    if not dissimilar:
        warnings.warn("degenerate labels: no dissimilar pairs found", RuntimeWarning)

    u = float(np.percentile(dists, 5.0))
    if u == 0.0 and dists.any():
        u = float(np.percentile(dists[dists > 0], 5.0))
    l = float(np.percentile(dists, 95.0))
    if l <= u:
        mid = max(u, 1e-9)
        u, l = 0.95 * mid, 1.05 * mid
    return ConstraintSet(tuple(similar), tuple(dissimilar), u, l)


@dataclass
class ITMLResult:
    """Learned metric plus per-pass convergence diagnostics.

    ``objectives`` traces the divergence-plus-weighted-slack-divergence value
    per pass; it relaxes toward the optimum from above but is not monotone
    under cyclic projections. ``dual_objectives`` (the same value plus the
    complementarity term sum(lambda_c * delta_c * (d_c - xi_c))) is the
    quantity the projections maximize and is non-decreasing every pass.
    ``final_xi``/``final_lambda`` are ordered similar-then-dissimilar.
    """

    A: np.ndarray
    converged: bool
    n_passes: int
    dual_changes: list[float] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)
    divergences: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    dual_objectives: list[float] = field(default_factory=list)
    skipped_pairs: list[tuple[int, int]] = field(default_factory=list)
    final_xi: np.ndarray | None = None
    final_lambda: np.ndarray | None = None

    def diagnostics_text(self) -> str:
        lines = ["pass,dual_change,violations,divergence,objective"]
        for t in range(self.n_passes):
            lines.append(
                f"{t + 1},{self.dual_changes[t]:.6e},{self.violations[t]},"
                f"{self.divergences[t]:.6e},{self.objectives[t]:.6e}"
            )
        return "\n".join(lines) + "\n"


def _slack_divergence(xi: np.ndarray, xi0: np.ndarray) -> float:
    ratio = xi / xi0
    return float(np.sum(ratio - np.log(ratio) - 1.0))


def fit_itml(
    X: np.ndarray,
    constraints: ConstraintSet,
    A0: np.ndarray | None = None,
    gamma: float = 1.0,
    max_passes: int = 100,
    tol: float = 1e-3,
    validate: bool = False,
) -> ITMLResult:
    """Learn the metric by cyclic Bregman projections with slack.

    Per constraint, with v = x_i - x_j and p = v^T A v:

        delta = +1 (similar) or -1 (dissimilar)
        alpha = min(lambda_c, (delta/2) * (1/p - gamma/xi_c))
        beta  = delta*alpha / (1 - delta*alpha*p)
        xi_c    <- gamma*xi_c / (gamma + delta*alpha*xi_c)
        lambda_c <- lambda_c - alpha
        A       <- A + beta * A v v^T A

    Passes cycle all constraints (similar first, then dissimilar, in
    construction order) until the largest dual change in a pass falls below
    ``tol``. Pairs with zero prior distance are skipped with a warning; a
    nonpositive slack aborts with a state dump. ``validate`` additionally
    asserts A stays symmetric positive-semidefinite after every update.
    """
    X = np.asarray(X, dtype=float)
    q = X.shape[1]
    if A0 is None:
        A0 = np.eye(q)
    A0 = check_metric(A0)
    if gamma <= 0:
        raise MetricError("gamma must be > 0")

    A = A0.copy()
    result = ITMLResult(A=A, converged=False, n_passes=0)
    entries = [(i, j, 1.0) for (i, j) in constraints.similar] + [
        (i, j, -1.0) for (i, j) in constraints.dissimilar
    ]
    if not entries:
        result.A = A0.copy()
        result.converged = True
        result.final_xi = np.empty(0)
        result.final_lambda = np.empty(0)
        return result

    m = len(entries)
    V = np.stack([X[i] - X[j] for (i, j, _) in entries])
    deltas = np.array([d for (_, _, d) in entries])
    xi0 = np.where(deltas > 0, constraints.u, constraints.l)
    xi = xi0.copy()
    lam = np.zeros(m)
    skipped = set()

    for t in range(1, max_passes + 1):
        max_dual_change = 0.0
        for c in range(m):
            v = V[c]
            p = float(v @ A @ v)
            if p < 1e-12:
                if (c not in skipped):
                    skipped.add(c)
                    i, j, _ = entries[c]
                    result.skipped_pairs.append((i, j))
                    warnings.warn(
                        f"skipping constraint ({i}, {j}): zero distance under current metric",
                        RuntimeWarning,
                    )
                continue
            delta = deltas[c]
            alpha = min(lam[c], (delta / 2.0) * (1.0 / p - gamma / xi[c]))
            beta = delta * alpha / (1.0 - delta * alpha * p)
            new_xi = gamma * xi[c] / (gamma + delta * alpha * xi[c])
            if new_xi <= 0 or not np.isfinite(new_xi):
                raise MetricError(
                    "slack diverged during training: "
                    f"constraint {entries[c][:2]}, pass {t}, p={p:.6g}, "
                    f"alpha={alpha:.6g}, xi={xi[c]:.6g} -> {new_xi:.6g}, "
                    f"lambda={lam[c]:.6g}"
                )
            xi[c] = new_xi
            lam[c] -= alpha
            max_dual_change = max(max_dual_change, abs(alpha))
            Av = A @ v
            A += beta * np.outer(Av, Av)
            A = (A + A.T) / 2.0
            if validate:
                eigs = np.linalg.eigvalsh(A)
                if eigs.min() < -1e-9:
                    raise MetricError(f"metric lost positive-semidefiniteness: min eig {eigs.min():.3e}")

        dists = np.einsum("ij,jk,ik->i", V, A, V)
        viol = int(
            np.sum((deltas > 0) & (dists > xi * (1 + tol)))
            + np.sum((deltas < 0) & (dists < xi * (1 - tol)))
        )
        result.dual_changes.append(max_dual_change)
        result.violations.append(viol)
        result.divergences.append(logdet_divergence(A, A0))
        result.objectives.append(result.divergences[-1] + gamma * _slack_divergence(xi, xi0))
        result.dual_objectives.append(
            result.objectives[-1] + float(np.sum(lam * deltas * (dists - xi)))
        )
        result.n_passes = t
        if max_dual_change < tol:
            result.converged = True
            break

    result.A = check_metric((A + A.T) / 2.0)
    result.final_xi = xi
    result.final_lambda = lam
    return result


def match_source_to_target(
    A: np.ndarray,
    target_X: np.ndarray,
    source_X: np.ndarray,
    source_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match each target instance to its nearest labeled source instance.

    Returns (matched features, matched labels, source indices), one row per
    target instance; a source instance may be matched repeatedly. Ties break
    to the lowest source index.
    """
    A = check_metric(A)
    target_X = np.asarray(target_X, dtype=float)
    source_X = np.asarray(source_X, dtype=float)
    source_y = np.asarray(source_y)
    if len(source_X) == 0:
        raise MetricError("source set is empty")
    if len(source_X) != len(source_y):
        raise MetricError("source features and labels must align")
    if target_X.shape[1] != source_X.shape[1] or source_X.shape[1] != A.shape[0]:
        raise MetricError("feature dimensions do not match the metric")

    AS = source_X @ A
    ss = np.einsum("ij,ij->i", source_X, AS)
    tt = np.einsum("ij,ij->i", target_X, target_X @ A)
    cross = target_X @ AS.T
    dists = tt[:, None] + ss[None, :] - 2.0 * cross
    idx = np.argmin(dists, axis=1)
    return source_X[idx].copy(), source_y[idx].copy(), idx

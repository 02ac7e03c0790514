"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the mathematical definitions
(brute force, straight-line loops, grid search) rather than reusing library
internals, so each check is a genuine second route.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# L1-penalized regression


def standardize(X, y):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return (X - mean) / std, y - y.mean()


def l1_objective(Z, yc, beta, lam):
    r = yc - Z @ beta
    return r @ r / (2.0 * len(yc)) + lam * np.abs(beta).sum()


def proximal_gradient_lasso(Z, yc, lam, max_iter=200_000, tol=1e-13):
    """ISTA with a Lipschitz step on the standardized problem."""
    n, p = Z.shape
    step = n / (np.linalg.norm(Z, 2) ** 2)
    beta = np.zeros(p)
    for _ in range(max_iter):
        grad = -(Z.T @ (yc - Z @ beta)) / n
        cand = beta - step * grad
        new = np.sign(cand) * np.maximum(np.abs(cand) - step * lam, 0.0)
        if np.max(np.abs(new - beta)) < tol:
            return new
        beta = new
    return beta


def subgradient_violation(Z, yc, beta, lam):
    """Largest violation of the stationarity conditions at beta."""
    n = len(yc)
    grad = -(Z.T @ (yc - Z @ beta)) / n
    worst = 0.0
    for j in range(len(beta)):
        if beta[j] != 0.0:
            worst = max(worst, abs(grad[j] + lam * np.sign(beta[j])))
        else:
            worst = max(worst, max(0.0, abs(grad[j]) - lam))
    return worst


# ---------------------------------------------------------------------------
# Percentiles (sort + linear interpolation, independent of numpy.percentile)


def percentile_by_sort(values, q):
    xs = sorted(float(v) for v in values)
    if len(xs) == 1:
        return xs[0]
    h = (len(xs) - 1) * q / 100.0
    lo = int(np.floor(h))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


# ---------------------------------------------------------------------------
# Scalar metric-learning trace (1-d, single similar constraint)


def scalar_itml_trace(x_i, x_j, u, gamma, n_passes):
    """Step-by-step re-implementation of the projection loop in 1-d."""
    a = 1.0
    xi = u
    lam = 0.0
    v = x_i - x_j
    states = []
    for _ in range(n_passes):
        p = v * a * v
        alpha = min(lam, 0.5 * (1.0 / p - gamma / xi))
        beta = alpha / (1.0 - alpha * p)
        xi = gamma * xi / (gamma + alpha * xi)
        lam = lam - alpha
        a = a + beta * a * v * v * a
        states.append((a, xi, lam))
    return states


# ---------------------------------------------------------------------------
# Brute-force regression tree (direct weighted SSE over every candidate)


def _wsse(r, w):
    if w.sum() == 0:
        return 0.0
    mean = (w * r).sum() / w.sum()
    return float((w * (r - mean) ** 2).sum())


def brute_force_split(X, r, w, min_samples_leaf):
    """Best (feature, threshold) by direct weighted-SSE evaluation of every
    candidate; None if no split clears the relative gain guard."""
    n, p = X.shape
    parent_sse = _wsse(r, w)
    guard_scale = max(1.0, (w * r).sum() ** 2 / w.sum())
    best = None
    for j in range(p):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                threshold = lo
            left = X[:, j] <= threshold
            if left.sum() < min_samples_leaf or (~left).sum() < min_samples_leaf:
                continue
            if w.sum() - w[left].sum() <= 0:  # the right side's weight rounds away: no split
                continue
            gain = parent_sse - _wsse(r[left], w[left]) - _wsse(r[~left], w[~left])
            if gain > 1e-12 * guard_scale and (best is None or gain > best[2]):
                best = (j, threshold, gain)
    return best


class BruteTree:
    def __init__(self, X, r, w, max_depth, min_samples_leaf):
        keep = w > 0
        self.root = self._build(X[keep], r[keep], w[keep], max_depth, min_samples_leaf)

    def _build(self, X, r, w, depth, min_leaf):
        value = (w * r).sum() / w.sum()
        if depth == 0:
            return ("leaf", value)
        split = brute_force_split(X, r, w, min_leaf)
        if split is None:
            return ("leaf", value)
        j, threshold, _ = split
        left = X[:, j] <= threshold
        return (
            "node",
            j,
            threshold,
            self._build(X[left], r[left], w[left], depth - 1, min_leaf),
            self._build(X[~left], r[~left], w[~left], depth - 1, min_leaf),
        )

    def predict_one(self, x, node=None):
        node = self.root if node is None else node
        while node[0] == "node":
            _, j, threshold, left, right = node
            node = left if x[j] <= threshold else right
        return node[1]

    def predict(self, X):
        return np.array([self.predict_one(x) for x in X])


# ---------------------------------------------------------------------------
# Reference tree builder: sorts every feature of every node on its own and
# searches features one at a time. Its node tables are the library's contract
# bit for bit: the same arithmetic in the same order, the same tie rule.


def _reference_split(X, r, w, idx, min_samples_leaf):
    n_node = len(idx)
    if n_node < 2 * min_samples_leaf:
        return None
    w_node = w[idx]
    wr_node = w_node * r[idx]
    total_w = w_node.sum()
    total_wr = wr_node.sum()
    parent_score = total_wr * total_wr / total_w

    best = None
    pos = np.arange(n_node - 1)
    feasible = (pos + 1 >= min_samples_leaf) & (n_node - pos - 1 >= min_samples_leaf)
    for j in range(X.shape[1]):
        xs = X[idx, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        cw = np.cumsum(w_node[order])[:-1]
        cwr = np.cumsum(wr_node[order])[:-1]
        right_w = total_w - cw
        # A right side whose weight rounds away is no split.
        valid = feasible & (xs_sorted[:-1] < xs_sorted[1:]) & (right_w > 0)
        if not valid.any():
            continue
        score = np.full(n_node - 1, -np.inf)
        score[valid] = cwr[valid] * cwr[valid] / cw[valid] + (total_wr - cwr[valid]) ** 2 / right_w[valid]
        k = int(np.argmax(score))
        gain = score[k] - parent_score
        if gain > 1e-12 * max(1.0, abs(parent_score)) and (best is None or gain > best[2]):
            lo, hi = xs_sorted[k], xs_sorted[k + 1]
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                threshold = lo
            best = (j, float(threshold), float(gain))
    return best


def reference_tree(X, r, w, max_depth, min_samples_leaf):
    """Node table of the tree as ``RegressionTree.to_dict`` lays it out."""
    keep = w > 0
    X, r, w = X[keep], r[keep], w[keep]
    table = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def build(idx, depth):
        node = len(table["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            table[key].append(blank)
        w_node = w[idx]
        table["value"].append(float((w_node * r[idx]).sum() / w_node.sum()))
        if depth >= max_depth:
            return node
        split = _reference_split(X, r, w, idx, min_samples_leaf)
        if split is None:
            return node
        j, threshold, _ = split
        go_left = X[idx, j] <= threshold
        table["feature"][node] = j
        table["threshold"][node] = threshold
        table["left"][node] = build(idx[go_left], depth + 1)
        table["right"][node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(len(X)), 0)
    return {**table, "max_depth": max_depth, "min_samples_leaf": min_samples_leaf}


# ---------------------------------------------------------------------------
# Straight-line balanced-weight boosting (loops written from the procedure)


def straight_line_gbbw(Xs, ys, Xt, yt, alpha, n_stages, max_depth, min_leaf, shrinkage):
    X = np.vstack([Xs, Xt])
    y = np.concatenate([ys, yt])
    w = np.concatenate([np.full(len(ys), 1.0 - alpha), np.full(len(yt), alpha)])
    f0 = (w * y).sum() / w.sum()
    F = np.full(len(y), f0)
    trees, gammas = [], []
    for _ in range(n_stages):
        r = y - F
        tree = BruteTree(X, r, w, max_depth, min_leaf)
        h = tree.predict(X)
        denom = (w * h * h).sum()
        gamma = 0.0 if denom == 0 else (w * r * h).sum() / denom
        F = F + shrinkage * gamma * h
        trees.append(tree)
        gammas.append(gamma)

    def predict(Xq):
        out = np.full(len(Xq), f0)
        for gamma, tree in zip(gammas, trees):
            out += shrinkage * gamma * tree.predict(Xq)
        return out

    return predict


# ---------------------------------------------------------------------------
# Mixture log-likelihood evaluated from first principles


def mixture_log_likelihood(X, weights, means, covs):
    total = 0.0
    for x in X:
        density = 0.0
        for pi, mu, cov in zip(weights, means, covs):
            d = len(mu)
            diff = x - mu
            quad = diff @ np.linalg.inv(cov) @ diff
            norm = (2.0 * np.pi) ** (d / 2.0) * np.sqrt(np.linalg.det(cov))
            density += pi * np.exp(-0.5 * quad) / norm
        total += np.log(density)
    return total

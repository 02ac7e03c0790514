"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written from the mathematical definitions
(brute force, straight-line loops, grid search) rather than reusing library
internals, so each check is a genuine second route.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np


# ---------------------------------------------------------------------------
# L1-penalized regression


def standardize(X, y):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return (X - mean) / std, y - y.mean()


def reference_standardize(X, y):
    """``(Z, yc, StandardizationParams)`` through numpy's ``mean`` and ``std`` and ``apply``, constant columns zeroed."""
    from tmcda.lasso import StandardizationParams

    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    constant = x_std <= 1e-12 * np.maximum(1.0, np.abs(x_mean))
    excluded = tuple(int(j) for j in np.flatnonzero(constant))
    std = StandardizationParams(x_mean, np.where(constant, 1.0, x_std), float(y.mean()), excluded)
    return np.where(constant, 0.0, std.apply(X)), y - std.y_mean, std


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
# Reference lasso solvers: the homotopy path of one fold at a time with
# np.ix_ gathers, a setdiff1d inactive set, two solves per kink and one grid
# row at a time; coordinate descent on a numpy coefficient vector with
# np.sign. The library's ``_lasso_path`` and ``cross_validate_lambda``, which
# follow every fold's path in lockstep, must return the same lambda and
# match the rest within the tolerance stated in tests/test_lasso.py; its
# ``fit_lasso``, the path at one lambda, must reach coordinate descent's
# support and objective on a design of full column rank.


def _reference_solve(M, rhs):
    return np.linalg.solve(M, rhs) if len(M) else np.zeros_like(rhs)


def reference_lasso_path(G, c, grid):
    from tmcda.lasso import _MAX_KINKS, _SPAN_RTOL

    p = len(c)
    coefs = np.zeros((len(grid), p))
    active = []
    signs = []
    filled = 0
    entered = dropped = -1
    dropped_sign = 0.0
    for _ in range(_MAX_KINKS):
        A = np.array(active, dtype=np.intp)
        G_AA = G[np.ix_(A, A)]
        a, b = _reference_solve(G_AA, np.column_stack([c[A], signs])).T
        inactive = np.setdiff1d(np.arange(p), A)
        G_AI = G[np.ix_(A, inactive)]
        G_II = G[inactive, inactive]
        alpha = c[inactive] - G_AI.T @ a
        delta = G_AI.T @ b
        schur = G_II - np.einsum("ij,ij->j", G_AI, _reference_solve(G_AA, G_AI))
        eligible = schur > _SPAN_RTOL * G_II

        best_in, best_j, best_s = 0.0, -1, 0.0
        for s in (1.0, -1.0):
            slope = 1.0 - s * delta
            ok = eligible & (slope > 0.0) & ~((inactive == dropped) & (s == dropped_sign))
            hits = np.full(len(inactive), -np.inf)
            hits[ok] = s * alpha[ok] / slope[ok]
            if len(hits) and hits.max() > best_in:
                k = int(np.argmax(hits))
                best_in, best_j, best_s = float(hits[k]), int(inactive[k]), s
        best_out, best_k = 0.0, -1
        if active:
            shrinking = (b * np.asarray(signs) < 0.0) & (A != entered)
            hits = np.full(len(active), -np.inf)
            hits[shrinking] = a[shrinking] / b[shrinking]
            if hits.max() > best_out:
                best_k = int(np.argmax(hits))
                best_out = float(hits[best_k])

        kink = max(best_in, best_out)
        while filled < len(grid) and grid[filled] >= kink:
            coefs[filled, A] = a - grid[filled] * b
            filled += 1
        if filled == len(grid) or kink <= 0.0:
            return coefs

        if best_in >= best_out:
            active.append(best_j)
            signs.append(best_s)
            entered, dropped = best_j, -1
        else:
            dropped, dropped_sign, entered = active.pop(best_k), signs.pop(best_k), -1
    raise RuntimeError(f"lasso path did not reach the end of the grid in {_MAX_KINKS} kinks")


def reference_cross_validate_lambda(X, y, n_folds, grid_size, lam_min_ratio, seed):
    """``(lambda, mean_err)`` of ``cross_validate_lambda`` on valid inputs, setdiff1d folds."""
    from tmcda.lasso import _standardize, lambda_max

    n = len(y)
    lam_hi = lambda_max(X, y)
    if lam_hi == 0.0:
        return 0.0, np.zeros(1)
    grid = lam_hi * np.logspace(0.0, np.log10(lam_min_ratio), grid_size)
    order = np.random.default_rng(seed).permutation(n)
    errors = np.zeros((n_folds, grid_size))
    for f, val_idx in enumerate(np.array_split(order, n_folds)):
        train = np.setdiff1d(order, val_idx)
        Z, yc, std = _standardize(X[train], y[train])
        coefs = reference_lasso_path(Z.T @ Z / len(train), Z.T @ yc / len(train), grid)
        Z_val = (X[val_idx] - std.x_mean) / std.x_std
        resid = (y[val_idx] - std.y_mean)[:, None] - Z_val @ coefs.T
        errors[f] = np.mean(resid * resid, axis=0)
    mean_err = errors.mean(axis=0)
    return float(grid[int(np.argmin(mean_err))]), mean_err


def reference_fit_lasso(X, y, lam, tol=1e-8, max_sweeps=10_000):
    """The ``LassoModel`` of cyclic coordinate descent, on valid inputs, with its sweeps and convergence.

    CD starts from zero; sweeps stop when no coefficient moves by ``tol`` or
    more, or after ``max_sweeps``. The objective is that of its final
    residual.
    """
    from tmcda.lasso import LassoModel, _standardize

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    Z, yc, std = _standardize(X, y)
    active = np.ones(p, dtype=bool)
    active[list(std.excluded)] = False

    beta = np.zeros(p)
    r = yc.copy()
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(p):
            if not active[j]:
                continue
            old = beta[j]
            rho = Z[:, j] @ r / n + old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0)
            if new != old:
                r -= (new - old) * Z[:, j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        objective = float(r.dot(r)) / (2.0 * n) + lam * math.fsum(np.abs(beta))
        if max_delta < tol:
            converged = True
            break

    coef = np.where(active, beta / std.x_std, 0.0)
    intercept = std.y_mean - float(coef @ std.x_mean)
    selected = tuple(int(j) for j in np.flatnonzero(beta != 0.0))
    return LassoModel(
        intercept=intercept,
        coef=coef,
        coef_std=beta,
        lam=lam,
        selected=selected,
        objective_value=objective,
        standardization=std,
        converged=converged,
        n_sweeps=sweeps,
    )


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
# Reference constraint builder: enumerates pairs as Python lists, one branch
# per pair-count range, and classifies them one pair at a time. Its output is
# the library's contract: the same pairs in the same order, the same u and l,
# the same warnings.


def reference_constraints(X, y, max_per_set, n_candidates, seed):
    """(similar, dissimilar, u, l) as ``build_constraints`` returns them."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= n_candidates:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif total_pairs <= 4 * n_candidates:
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        order = np.random.default_rng(seed).permutation(total_pairs)
        pairs = [all_pairs[k] for k in order[:n_candidates]]
    else:
        rng = np.random.default_rng(seed)
        seen = set()
        pairs = []
        while len(pairs) < n_candidates:
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            pair = (min(i, j), max(i, j))
            if pair not in seen:
                seen.add(pair)
                pairs.append((int(pair[0]), int(pair[1])))
    pairs_arr = np.array(pairs)
    diffs = X[pairs_arr[:, 0]] - X[pairs_arr[:, 1]]
    dists = np.einsum("ij,ij->i", diffs, diffs)
    kept = dists > 1e-12 * dists.max()    # at most 1e-12 of the largest distance counts as 0
    if not kept.any():
        warnings.warn("every sampled pair lies at distance 0: no constraints", RuntimeWarning)
        return (), (), 0.95e-9, 1.05e-9
    pairs_arr, dists = pairs_arr[kept], dists[kept]

    deltas = np.abs(y[pairs_arr[:, 0]] - y[pairs_arr[:, 1]])
    t_sim = float(np.percentile(deltas, 10.0))
    t_dis = float(np.percentile(deltas, 90.0))
    half_range = (float(y.max()) - float(y.min())) / 2.0

    similar, dissimilar, any_dissimilar = [], [], False
    for (i, j), delta in zip(pairs_arr.tolist(), deltas):
        is_sim = delta <= t_sim
        is_dis = delta >= t_dis
        if is_sim and is_dis:
            is_dis = delta > half_range
            is_sim = not is_dis
        any_dissimilar = any_dissimilar or is_dis
        if is_sim and len(similar) < max_per_set:
            similar.append((i, j))
        elif is_dis and len(dissimilar) < max_per_set:
            dissimilar.append((i, j))

    if not any_dissimilar:    # the labels, not the cap
        warnings.warn("degenerate labels: no dissimilar pairs found", RuntimeWarning)

    u = float(np.percentile(dists, 5.0))
    l = float(np.percentile(dists, 95.0))
    if l <= u:
        mid = max(u, 1e-9)
        u, l = 0.95 * mid, 1.05 * mid
    return tuple(similar), tuple(dissimilar), u, l


# ---------------------------------------------------------------------------
# Reference nearest-source matching: the distance expression written as one
# line, as the library once wrote it. ``match_source_to_target`` must return
# the same indices, rows and labels, bit for bit, ties at rounding level
# included.


def reference_match(A, target_X, source_X, source_y):
    """(matched features, matched labels, source indices) as ``match_source_to_target`` returns them."""
    A = np.asarray(A, dtype=float)
    target_X = np.asarray(target_X, dtype=float)
    source_X = np.asarray(source_X, dtype=float)
    source_y = np.asarray(source_y)
    AS = source_X @ A
    ss = np.einsum("ij,ij->i", source_X, AS)
    tt = np.einsum("ij,ij->i", target_X, target_X @ A)
    cross = target_X @ AS.T
    dists = tt[:, None] + ss[None, :] - 2.0 * cross
    idx = np.argmin(dists, axis=1)
    return source_X[idx].copy(), source_y[idx].copy(), idx


# ---------------------------------------------------------------------------
# Reference ITML projection loop: numpy scalars and arrays throughout, and A
# re-symmetrized after every projection and once more at the end. ``fit_itml``
# must return the same result, bit for bit.


def reference_itml(X, constraints, gamma, max_passes, tol, former=False):
    """The fields of the ``ITMLResult`` that ``fit_itml`` returns, as a dict, from prior A0 = I.

    Each distance v^T A v is the dot product of vec(v v^T) with vec(A), as ``fit_itml`` takes it.
    With ``former`` it is (v A) v, the formula of earlier versions, which rounds differently.
    """
    from tmcda.itml import check_metric, logdet_divergence, MetricError

    X = np.asarray(X, dtype=float)
    A0 = np.eye(X.shape[1])
    A = A0.copy()
    out = dict(A=A, converged=False, n_passes=0, dual_changes=[], violations=[], divergences=[],
               objectives=[], dual_objectives=[], skipped_pairs=[])
    entries = [(i, j, 1.0) for (i, j) in constraints.similar] + [
        (i, j, -1.0) for (i, j) in constraints.dissimilar
    ]
    if not entries:
        return {**out, "A": A0.copy(), "converged": True,
                "final_xi": np.empty(0), "final_lambda": np.empty(0)}

    m = len(entries)
    V = np.stack([X[i] - X[j] for (i, j, _) in entries])
    VV = np.stack([np.outer(v, v).ravel() for v in V])
    deltas = np.array([d for (_, _, d) in entries])
    xi0 = np.where(deltas > 0, constraints.u, constraints.l)
    xi = xi0.copy()
    lam = np.zeros(m)
    skipped = set()

    for t in range(1, max_passes + 1):
        max_dual_change = 0.0
        trace = float(np.trace(A))
        for c in range(m):
            v = V[c]
            p = float(v @ A @ v) if former else float(np.dot(VV[c], A.ravel()))
            if p <= 1e-12 * float(np.sum(v * v)) * trace:
                if c not in skipped:
                    skipped.add(c)
                    i, j, _ = entries[c]
                    out["skipped_pairs"].append((i, j))
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

        dists = (V.dot(A) * V).sum(axis=1) if former else np.dot(VV, A.ravel())
        viol = int(
            np.sum((deltas > 0) & (dists > xi * (1 + tol)))
            + np.sum((deltas < 0) & (dists < xi * (1 - tol)))
        )
        ratio = xi / xi0
        out["dual_changes"].append(max_dual_change)
        out["violations"].append(viol)
        out["divergences"].append(logdet_divergence(A, A0))
        out["objectives"].append(
            out["divergences"][-1] + gamma * float(np.sum(ratio - np.log(ratio) - 1.0)))
        out["dual_objectives"].append(
            out["objectives"][-1] + float(np.sum(lam * deltas * (dists - xi)))
        )
        out["n_passes"] = t
        if max_dual_change < tol:
            out["converged"] = True
            break

    return {**out, "A": check_metric((A + A.T) / 2.0), "final_xi": xi, "final_lambda": lam}


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
        self.root = self._build(X, r, w, max_depth, min_samples_leaf)

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
# searches features one at a time. The root's totals are its rows' pairwise
# sums; each child's are its parent's cumulative sums at the chosen cut, the
# right child's as the parent's totals less the left sums; the first maximum
# score wins. Its node tables are the library's contract bit for bit: the
# same arithmetic in the same order, the same tie rule.


def _reference_split(X, r, w, idx, total_wr, min_samples_leaf):
    """(feature, threshold, left totals, right totals) of the best split of rows ``idx``, or None.

    ``total_wr`` is the node's weighted residual total as its parent handed
    it down; the weight total the search divides by is the node's own,
    summed pairwise.
    """
    n_node = len(idx)
    if n_node < 2 * min_samples_leaf:
        return None
    w_node = w[idx]
    wr_node = w_node * r[idx]
    total_w = w_node.sum()
    parent_score = total_wr * total_wr / total_w

    best = None    # (score, feature, threshold, left totals, right totals)
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
        if best is None or score[k] > best[0]:
            lo, hi = xs_sorted[k], xs_sorted[k + 1]
            threshold = (lo + hi) / 2.0
            if not threshold < hi:
                threshold = lo
            best = (score[k], j, float(threshold), (cw[k], cwr[k]), (right_w[k], total_wr - cwr[k]))
    if best is None or not best[0] - parent_score > 1e-12 * max(1.0, abs(parent_score)):
        return None
    return best[1:]


def reference_node_table(X, r, w, max_depth, min_samples_leaf):
    """The fitted tree as a node table, nodes in preorder: a dict of ``feature``, ``threshold``, ``left``,
    ``right`` and ``value`` lists, -1 for a leaf's feature and children."""
    table = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def build(idx, depth, totals):
        node = len(table["feature"])
        for key, blank in (("feature", -1), ("threshold", 0.0), ("left", -1), ("right", -1)):
            table[key].append(blank)
        total_w, total_wr = totals
        table["value"].append(float(total_wr / total_w))
        if depth >= max_depth:
            return node
        split = _reference_split(X, r, w, idx, total_wr, min_samples_leaf)
        if split is None:
            return node
        j, threshold, left_totals, right_totals = split
        go_left = X[idx, j] <= threshold
        table["feature"][node] = j
        table["threshold"][node] = threshold
        table["left"][node] = build(idx[go_left], depth + 1, left_totals)
        table["right"][node] = build(idx[~go_left], depth + 1, right_totals)
        return node

    build(np.arange(len(X)), 0, (w.sum(), (w * r).sum()))
    return table


def _has_candidate(X, w, min_samples_leaf):
    """Whether some cut between two distinct values of a column leaves min_samples_leaf rows and a positive
    weight total on each side."""
    n = len(X)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, cw = X[order, j], np.cumsum(w[order])
        cuts = range(min_samples_leaf - 1, n - min_samples_leaf)
        if any(xs[k] < xs[k + 1] and w.sum() - cw[k] > 0 for k in cuts):
            return True
    return False


def heap_layout(table, depth):
    """A node table laid out in heap order at ``depth``: (feature, threshold, value) of 2^d - 1, 2^d - 1 and
    2^d slots. The children of the node at slot k go to slots 2k + 1 and 2k + 2; a leaf above ``depth``
    becomes splits on feature 0 at +inf, and its value fills every leaf slot under it."""
    feature = np.zeros(2**depth - 1, dtype=np.intp)
    threshold = np.full(2**depth - 1, np.inf)
    value = np.full(2**depth, np.nan)

    def place(node, slot, level):
        if table["feature"][node] == -1:
            span = 2 ** (depth - level)
            first = (slot + 1) * span - 2**depth
            value[first:first + span] = table["value"][node]
            return
        feature[slot], threshold[slot] = table["feature"][node], table["threshold"][node]
        place(table["left"][node], 2 * slot + 1, level + 1)
        place(table["right"][node], 2 * slot + 2, level + 1)

    place(0, 0, 0)
    return feature, threshold, value


def reference_tree(X, r, w, max_depth, min_samples_leaf):
    """The fitted tree as a one-tree ``RegressionTree``: ``reference_node_table`` laid out in heap order at
    ``max_depth``, or at depth 0 when no cut of the root is valid."""
    from tmcda.tree import RegressionTree

    depth = max_depth if _has_candidate(X, w, min_samples_leaf) else 0
    table = reference_node_table(X, r, w, max_depth, min_samples_leaf)
    return RegressionTree(*(a[None] for a in heap_layout(table, depth)))


def reference_walk(table, X):
    """Each row's leaf value, the row walked down the node table from node 0 by ``x <= threshold``."""
    values = []
    for x in X:
        node = 0
        while table["feature"][node] != -1:
            go_left = x[table["feature"][node]] <= table["threshold"][node]
            node = table["left"][node] if go_left else table["right"][node]
        values.append(table["value"][node])
    return np.array(values, dtype=float)


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
# Reference ensemble prediction: the constant, then each stage's scaled tree
# output added in stage order, each tree walked as a node table. The
# ``boosting.predict`` of the model built from ``f0``, ``shrinkage`` and
# these tables laid out in heap order must match it bit for bit.


def reference_ensemble_predict(f0, shrinkage, tables, X):
    F = np.full(len(X), f0)
    for table in tables:
        F += shrinkage * reference_walk(table, X)
    return F


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


# ---------------------------------------------------------------------------
# Reference mixture EM: ``fit_gmm``'s EM written one component at a time (each
# log-density, mean and covariance in its own loop step), K = 1 included, as
# the library wrote it before it stacked the components. The library must
# return the same bytes, or raise the same GMMError.


def _reference_log_responsibilities(X, weights, means, covs):
    from tmcda.gmm import GMMError

    n, d = X.shape
    log_p = np.empty((n, len(weights)))
    for k in range(len(weights)):
        try:
            L = np.linalg.cholesky(covs[k])
        except np.linalg.LinAlgError:
            raise GMMError("singular covariance; increase ridge") from None
        z = np.linalg.solve(L, (X - means[k]).T)
        log_det = 2.0 * np.sum(np.log(np.diag(L)))
        log_p[:, k] = np.log(weights[k]) + -0.5 * (d * np.log(2.0 * np.pi) + log_det + np.sum(z * z, axis=0))
    top = log_p.max(axis=1, keepdims=True)
    log_norm = top[:, 0] + np.log(np.exp(log_p - top).sum(axis=1))
    return log_p - log_norm[:, None], float(log_norm.sum())


def _reference_em_single(X, K, rng, ridge, reseeds):
    from tmcda.gmm import EM_MAX_ITER, EM_TOL, GMMError

    n, d = X.shape
    means = [X[rng.integers(n)]]
    for _ in range(1, K):
        d2 = np.min([np.sum((X - m) ** 2, axis=1) for m in means], axis=0)
        total = d2.sum()
        means.append(X[rng.integers(n)] if total <= 0 else X[rng.choice(n, p=d2 / total)])
    means = np.stack(means)
    pooled = np.cov(X, rowvar=False, bias=True).reshape(d, d) + ridge * np.eye(d)
    covs = np.tile(pooled, (K, 1, 1))
    weights = np.full(K, 1.0 / K)
    trace, prev_ll, reinitialized, converged = [], -np.inf, np.zeros(K, dtype=bool), False
    for it in range(1, EM_MAX_ITER + 1):
        log_r, ll = _reference_log_responsibilities(X, weights, means, covs)
        r = np.exp(log_r)
        trace.append(ll)
        nk = r.sum(axis=0)
        for k in range(K):
            if nk[k] < 1e-12:
                if reinitialized[k]:
                    raise GMMError(f"component {k} lost all responsibility mass twice")
                reinitialized[k] = True
                reseeds.append(k)
                means[k] = X[rng.integers(n)]
                covs[k] = pooled.copy()
                weights = np.full(K, 1.0 / K)
                log_r, ll = _reference_log_responsibilities(X, weights, means, covs)
                r = np.exp(log_r)
                nk = r.sum(axis=0)
        weights = nk / n
        for k in range(K):
            means[k] = (r[:, k] @ X) / nk[k]
            diff = X - means[k]
            covs[k] = (r[:, k, None] * diff).T @ diff / nk[k] + ridge * np.eye(d)
        if prev_ll > -np.inf and (ll - prev_ll) / max(1.0, abs(prev_ll)) < EM_TOL:
            converged = True
            break
        prev_ll = ll
    _, final_ll = _reference_log_responsibilities(X, weights, means, covs)
    trace.append(final_ll)
    return weights, means, covs, final_ll, it, converged, tuple(trace)


def reference_em(X, K, n_init, seed, ridge=None, reseeds=None):
    """``fit_gmm(X, K, n_init=n_init, seed=seed, ridge=ridge)`` on valid 2-D inputs, one component at a time.

    Appends the index of every component it reseeds to ``reseeds`` (a list),
    when given one.
    """
    from tmcda.gmm import GaussianMixture

    if ridge is None:
        var = np.var(X, axis=0)
        ridge = 1e-6 * float(var.mean()) if var.mean() > 0 else 1e-6
    reseeds = [] if reseeds is None else reseeds
    best = None
    for seq in np.random.SeedSequence(seed).spawn(n_init):
        fit = _reference_em_single(X, K, np.random.default_rng(seq), ridge, reseeds)
        if best is None or fit[3] > best[3]:
            best = fit
    weights, means, covs, ll, n_iter, converged, trace = best
    order = np.argsort(-weights, kind="stable")
    return GaussianMixture(weights[order], means[order], covs[order], ll, n_iter, converged, trace)


# ---------------------------------------------------------------------------
# Reference synthetic network: the generator as it was before its drift was
# drawn in one place, kept verbatim. It draws each intersection's drift
# twice (once for the coefficients, once to move the stream past it) and
# assembles each row by column index. Only the dataset and coefficient
# containers come from the library.

_REF_MOVEMENTS = ("left", "through", "right")
_REF_BASE_INTERCEPT = {"left": 3.0, "through": 3.6, "right": 3.2}
_REF_BASE_WEIGHTS = {
    "left": np.array([0.20, 0.15, 0.10, 0.70, 0.40, -0.15]),
    "through": np.array([0.70, 0.45, 0.30, 0.05, 0.05, -0.20]),
    "right": np.array([0.35, 0.25, 0.10, 0.20, 0.10, -0.15]),
}
_REF_BASE_INTERACTION = {"left": 0.60, "through": 0.35, "right": 0.35}
_REF_LABEL_FEATURES = ("o_TM", "d_TM", "g_TM", "o_LM", "p_LM", "m_TM")
_REF_LABEL_SCALES = np.array([300.0, 40.0, 300.0, 120.0, 60.0, 10.0])
_REF_INTERACTION_PAIR = ("o_LM", "p_LM")
_REF_MAX_SHIFT_STRENGTH = 50.0
_REF_PEAK_HOURS = (7, 8, 16, 17)
_REF_RATE_CAP = np.log(200.0)
_REF_RATE_FLOOR = np.log(0.5)


def _reference_intersection_rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence((seed, k)))


def _reference_draw_drift(rng):
    log_busy_unit = rng.uniform(-0.7, 0.7)
    intercept_unit = rng.normal(0.0, 0.04, size=3)
    weight_unit = rng.normal(0.0, 0.06, size=(3, 6))
    interaction_unit = rng.normal(0.0, 0.06, size=3)
    return log_busy_unit, intercept_unit, weight_unit, interaction_unit


def reference_label_coefficients(seed, n_intersections, shift_strength):
    """``synth.label_coefficients`` on valid arguments and on invalid shifts, as first written."""
    from tmcda.synth import IntersectionCoefficients

    if n_intersections < 2:
        raise ValueError("n_intersections must be >= 2")
    # Restated with the real-number rule's wording: a bool, a string or None is no shift, and NaN fails too.
    real = isinstance(shift_strength, numbers.Real) and not isinstance(shift_strength, bool)
    if not (real and 0 <= shift_strength <= _REF_MAX_SHIFT_STRENGTH):
        raise ValueError(f"shift_strength must be a number in [0, {_REF_MAX_SHIFT_STRENGTH:g}], got {shift_strength!r}")
    log_busy = np.empty(n_intersections)
    intercepts = np.empty((n_intersections, 3))
    weights = np.empty((n_intersections, 3, 6))
    interactions = np.empty((n_intersections, 3))
    base_w = np.stack([_REF_BASE_WEIGHTS[m] for m in _REF_MOVEMENTS])
    base_b = np.array([_REF_BASE_INTERCEPT[m] for m in _REF_MOVEMENTS])
    base_i = np.array([_REF_BASE_INTERACTION[m] for m in _REF_MOVEMENTS])
    for k in range(n_intersections):
        rng = _reference_intersection_rng(seed, k)
        lb, ib, wb, xb = _reference_draw_drift(rng)
        log_busy[k] = shift_strength * lb
        intercepts[k] = base_b + shift_strength * ib
        weights[k] = base_w * (1.0 + shift_strength * wb)
        interactions[k] = base_i * (1.0 + shift_strength * xb)
    return IntersectionCoefficients(shift_strength, log_busy, intercepts, weights, interactions)


def _reference_poisson_rates(z, coef, k):
    z_int = z[_REF_LABEL_FEATURES.index(_REF_INTERACTION_PAIR[0])] * z[
        _REF_LABEL_FEATURES.index(_REF_INTERACTION_PAIR[1])]
    log_rate = coef.intercepts[k] + coef.weights[k] @ z + coef.interactions[k] * z_int
    return np.exp(np.clip(log_rate, _REF_RATE_FLOOR, _REF_RATE_CAP))


def reference_network(seed, n_intersections, shift_strength, n_intervals):
    """``synth.generate_synthetic_network`` on valid arguments and on invalid shifts, as first written."""
    from tmcda.dataset import Dataset
    from tmcda.schema import APPROACHES, COLUMNS

    coef = reference_label_coefficients(seed, n_intersections, shift_strength)
    if n_intervals < 1:
        raise ValueError("n_intervals must be >= 1")
    col = {c.name: i for i, c in enumerate(COLUMNS)}
    label_idx = [col[name] for name in _REF_LABEL_FEATURES]

    n_rows = n_intersections * n_intervals
    ids = np.empty(n_rows, dtype=object)
    approaches = np.empty(n_rows, dtype=object)
    intervals = np.empty(n_rows, dtype=np.int64)
    X = np.zeros((n_rows, len(COLUMNS)))
    labels = np.zeros((n_rows, 3), dtype=np.int64)

    row = 0
    for k in range(n_intersections):
        rng = _reference_intersection_rng(seed, k)
        _reference_draw_drift(rng)  # consume the drift draws; values come from coef
        busy = np.exp(coef.log_busy[k])

        major_ns = rng.random() < 0.5
        lanes = {}
        for a in APPROACHES:
            lanes[a] = (
                int(rng.integers(0, 2)),   # shared left
                int(rng.integers(0, 3)),   # exclusive left
                int(rng.integers(1, 4)),   # through
                int(rng.integers(0, 2)),   # exclusive right
                int(rng.integers(0, 2)),   # shared right
            )
        left_types = {a: int(rng.integers(1, 4)) for a in APPROACHES}
        poi_employees = int(np.round(rng.lognormal(5.3, 0.5)))
        poi_categories = 1 + int(rng.poisson(10))

        for t in range(n_intervals):
            approach = APPROACHES[t % 4]
            hod = _REF_PEAK_HOURS[(t // 4) % 4]
            moh = t % 4 + 1
            wave = 1.0 + 0.25 * np.sin(2.0 * np.pi * t / 16.0)
            bm = busy * wave
            major = (approach in ("NB", "SB")) == major_ns

            o_tm = min(rng.gamma(4.0, 45.0 * bm), 880.0)
            d_tm = int(rng.poisson(40.0 * bm))
            g_tm = float(np.clip(rng.normal(300.0 * min(busy, 1.6), 45.0), 60.0, 750.0))
            c_tm = 4 + int(rng.poisson(11.0))
            m_tm = float(np.clip(rng.normal(12.0 / bm, 2.0), 0.5, 60.0))
            s_tm = abs(rng.normal(0.6, 0.2)) * m_tm
            o_lm = min(rng.gamma(3.0, 30.0 * bm), 880.0)
            d_lm = int(rng.poisson(12.0 * bm))
            g_lm = float(np.clip(rng.normal(80.0, 15.0), 10.0, 300.0))
            c_lm = 3 + int(rng.poisson(9.0))
            m_lm = float(np.clip(rng.normal(25.0 / bm, 5.0), 0.5, 120.0))
            s_lm = abs(rng.normal(0.7, 0.25)) * m_lm
            p_lm = rng.exponential(40.0)

            feats = np.zeros(len(COLUMNS))
            feats[col["o_TM"]] = o_tm
            feats[col["d_TM"]] = d_tm
            feats[col["g_TM"]] = g_tm
            feats[col["c_TM"]] = c_tm
            feats[col["m_TM"]] = m_tm
            feats[col["s_TM"]] = s_tm
            feats[col["o_LM"]] = o_lm
            feats[col["d_LM"]] = d_lm
            feats[col["g_LM"]] = g_lm
            feats[col["c_LM"]] = c_lm
            feats[col["m_LM"]] = m_lm
            feats[col["s_LM"]] = s_lm
            feats[col["p_LM"]] = p_lm
            feats[col["l_SL"]], feats[col["l_EL"]], feats[col["l_TL"]], feats[col["l_ER"]], feats[col["l_SR"]] = lanes[approach]
            feats[col["e_POIE"]] = poi_employees
            feats[col["e_POIC"]] = poi_categories
            feats[col["road_type"]] = 1 if major else 2
            feats[col["left_turn_type"]] = left_types[approach]
            feats[col["direction"]] = APPROACHES.index(approach) + 1
            feats[col["h_MOH"]] = moh
            feats[col["h_HOD"]] = hod

            z = feats[label_idx] / _REF_LABEL_SCALES
            rates = _reference_poisson_rates(z, coef, k)
            labels[row] = rng.poisson(rates)

            ids[row] = f"I{k:02d}"
            approaches[row] = approach
            intervals[row] = t
            X[row] = feats
            row += 1

    return Dataset(ids, approaches, intervals, X, labels)

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

Each pair of percentiles is read off one ``np.sort``, with numpy's default
(linear) method written out: for n sorted values s and percentile q, the
index h = (n - 1) * (q / 100), lo = floor(h), g = h - lo, a = s[lo],
b = s[lo + 1] (s[lo] when lo is the last index), d = b - a, and the
percentile is a + d * g below g = 0.5 and b - d * (1 - g) from 0.5 on. That
is numpy's own interpolation, operation for operation and in the same
order, so the result equals ``np.percentile``'s bit for bit for the finite
values >= +0.0 taken here (tested against it). ``np.percentile`` itself is
avoided because it calls ``np.unique`` on its indices, and ``np.unique``
calls ``np.ma.is_masked``: the first call in a process imports ``numpy.ma``,
about 1.25 MB of peak RSS and 15 ms once, in every process that builds
constraints (tested in a fresh interpreter).

The metric stays exactly symmetric without being re-symmetrized: entry
(i, j) of the update is beta * (Av_i * Av_j), and IEEE multiplication is
commutative, so it is the same double as entry (j, i), and adding it to a
symmetric A keeps A symmetric. The grouping matters: (beta * Av_i) * Av_j
need not equal (beta * Av_j) * Av_i.

Each projection's distance p = v^T A v is one dot product: of vec(A)
(``A.reshape(-1)``, a view that follows A's in-place updates) with the
pair's row of an (m, q^2) array that holds vec(v v^T), the products
v_i * v_j, for each of the m constraints. That array is formed once per fit
by broadcasting, at m q^2 8 bytes: 58-230 KB on the benchmark's
``alpha-sweep`` fits (200 constraints on 6-12 features), about 1.4 MB for
400 constraints on 21 features at paper scale. Each pass's distances are one
product of that array with vec(A). Earlier versions took p as (v A) v, two
calls where this is one, and that rounds differently, so A is not theirs bit
for bit; it is within a stated tolerance. Both formulas add up the q^2 terms
A_ij v_i v_j, so by the dot-product error bound (Higham 2002, *Accuracy and
Stability of Numerical Algorithms*, section 3.1) the two p differ by at
most (q + 1)^2 u S to first order, S = sum_ij |A_ij| |v_i v_j|, u = 2**-53
(tested). A decision on p, alpha == 0 or the 1e-12 skip below, can
differ from the former formula's only for a p within that bound of its
threshold. On the benchmark-shaped fold of the tests the pass count, the
violation counts and the set of zero duals are the former formula's, and A
lies within 1e-12 max|A| of its A (tested). The same held on all 108 fits
of the benchmark's ``alpha-sweep`` (seeds 3 and 12) and ``loo-variants``
(seeds 3 and 12) inputs that were compared, with A at most 1.4e-14 max|A|
from the former A.

The projection loop is bound by interpreter and numpy call overhead, not by
arithmetic, at the 6-16 features of the benchmark's inputs. It keeps its
scalars (slacks, duals, signs) as Python floats, which give the same doubles
as numpy scalars at a fraction of the cost; the per-pass bookkeeping turns
them into arrays once per pass. It calls the arrays' dot methods
(``vv.dot(a)`` for p, ``A.dot(v, out=Av)``), which do the work of
``np.dot`` without its ``__array_function__`` dispatch, and keeps the
in-place operators ``*=`` and ``+=``, which cost less than calling
``__imul__`` and ``__iadd__`` as bound methods. It iterates over one tuple
per constraint, (vec(v v^T), v, |v|^2, delta / 2, delta), in place of a
list lookup for each. ``A v`` and the update are written into two buffers
allocated once per fit (a dot into ``out=`` gives the same bytes as the
plain call). The products Av_i * Av_j are formed as the k = 1
matrix product ``Av[:, None].dot(Av[None, :], out=outer)``, at less than
half the cost of the broadcast ``np.multiply``, and then ``outer *= beta``
keeps the grouping above. Each entry of that product is one multiplication:
a nonzero entry is the same double as ``np.multiply`` gives, and a product
with a zero factor comes out +0.0 where ``np.multiply`` gives -0.0 (factors
of opposite signs). A product of nonzero factors that underflows is a zero
whose sign is the BLAS kernel's: OpenBLAS's SkylakeX kernel gives -0.0 for
factors of opposite signs, as ``np.multiply`` does, and its Haswell and
Katmai kernels give +0.0 (tested). Scaled by beta and added to A, a zero
of either sign leaves every entry of A unchanged except a -0.0, so while A
holds no -0.0 (below) neither the k = 1 product nor the kernel's sign of an
underflow changes a bit of the fit.

A projection whose dual step alpha is exactly 0 (a constraint satisfied
with dual 0, most projections on the pipeline's inputs) can move its slack
and nothing else. Under gamma = 1, the pipeline's value, it moves nothing,
and the loop stops before the slack arithmetic: gamma * xi is xi,
gamma + (+-0.0) * xi is exactly 1 (xi is finite and positive, which the
slack check keeps true), and xi / 1 is xi, so the slack, its check, the
dual, A and the pass's dual change all stay as they were. Under any other
gamma, gamma * xi / gamma can round, so the loop keeps the slack update:
at gamma = 7, xi = 847.4338895034957 becomes 847.4338895034956, one ulp
lower (tested). Its dual, lambda - alpha, would equal lambda (a dual never
becomes -0.0: it starts at +0.0, and x - x is +0.0), the pass's largest dual
change, max(m, |alpha|), would stay m, and the rank-one update could not
change A: beta is then +-0.0, so every entry of the update is +-0.0, and
adding +-0.0 leaves every entry of A unchanged except a -0.0, which +0.0
turns into +0.0. A holds no -0.0 when A0 holds none: A starts as
(A0 + A0^T) / 2, and round-to-nearest addition gives -0.0 only from
-0.0 + -0.0. So for such an A0, the identity prior among them, neither the
skip nor the k = 1 product changes a bit of the fit; for an A0 with -0.0
entries, they can change the sign of a zero entry of A and nothing else.
(This takes the products Av_i * Av_j to be finite. Were one to overflow,
the update would write inf * 0 = NaN into A and fail the pass's metric
check, where the skip goes on.)

The projection loop reads a constraint's slack and dual once, and takes
min(lambda_c, step) as ``step if step < lambda_c else lambda_c``, which
returns the same double as ``min``, NaN and ties included. The per-pass
bookkeeping forms every constraint's distance from one product, above, and
the divergence from the Cholesky
factor that checks A is a metric: log det A is twice the sum of the logs of
its diagonal, and tr(A A0^-1) is the dot product of A with (A0^-1)^T, which
is taken once per fit with log det A0, from the factor that checks A0. The
bookkeeping feeds nothing back into the projections, so A, the slacks, the
duals, the dual changes and the pass count are those of a three-operand
``einsum`` and ``solve(A0, A)`` with ``slogdet``. The reported divergences,
objectives and dual objectives differ from theirs by rounding. Cholesky and
LU (which ``slogdet`` uses) are backward stable (Higham 2002, *Accuracy and
Stability of Numerical Algorithms*, chapters 9-10), so each gives log det A
to within about q(q+1) u kappa_2(A) for q features, u = 2**-53, to first
order. The two results may differ by twice that plus 1e-12 of the sum of the
magnitudes of their terms (tested; at most 2.1e-15 relative on the
benchmark's fits, and 2.2e-8 on a fit that leaves kappa_2(A) = 6.7e8). A
violation count could differ only for a distance within rounding of its
threshold (none did on those fits).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schema import check_samples, count_problem, real_problem, refuse


class MetricError(ValueError):
    """Raised for invalid metric matrices or diverged training state."""


def check_metric(A: np.ndarray) -> np.ndarray:
    """Validate that A is finite, symmetric (to a relative 1e-10) and positive-definite, not numerically
    singular (see ``_factor``); returns A as float array."""
    A = np.asarray(A, dtype=float)
    _factor(A)
    return A


def _factor(A: np.ndarray) -> np.ndarray:
    """Check the float array A as ``check_metric`` does; return the Cholesky factor that proves A positive-definite.

    A whose factor completes is still refused as numerically singular when
    the squared ratio of its smallest pivot (diagonal entry of the factor)
    to its largest is at most 3u, u = 2^-53: its condition number is then
    at least about 1 / (3u), so its smallest direction is within rounding
    of zero, and its log det and distances along it carry no digits.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise MetricError(f"metric must be square with at least one dimension, got shape {A.shape}")
    scale = np.abs(A).max()    # NaN or inf if any entry is
    if not math.isfinite(scale):
        raise MetricError("metric has non-finite entries")
    if not np.all(np.abs(A - A.T) <= 1e-10 * max(1.0, scale)):
        raise MetricError("metric is not symmetric")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise MetricError("metric is not positive-definite") from None
    pivots = L.diagonal()
    ratio = pivots.min() / pivots.max()
    if ratio * ratio <= 3.0 * 2.0**-53:
        raise MetricError("metric is numerically singular")
    return L


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
    A, A0 = np.asarray(A, dtype=float), np.asarray(A0, dtype=float)
    L, L0 = _factor(A), _factor(A0)
    if A.shape != A0.shape:
        raise MetricError("metrics must share a dimension")
    return _logdet_divergence(A, L, *_prior_terms(A0, L0))


def _logdet(L: np.ndarray) -> float:
    """log det A from A's Cholesky factor L."""
    return 2.0 * float(np.log(L.diagonal()).sum())


def _prior_terms(A0: np.ndarray, L0: np.ndarray) -> tuple[np.ndarray, float]:
    """(A0^-1)^T, contiguous, and log det A0 from its Cholesky factor L0: the divergence's terms of the prior alone."""
    return np.ascontiguousarray(np.linalg.inv(A0).T), _logdet(L0)


def _logdet_divergence(A: np.ndarray, L: np.ndarray, A0_inv_T: np.ndarray, logdet_A0: float) -> float:
    """``logdet_divergence`` for a metric A with Cholesky factor L and its prior's ``_prior_terms``."""
    trace = float(np.vdot(A, A0_inv_T))    # sum_ij A_ij (A0^-1)_ji = tr(A A0^-1)
    value = trace - (_logdet(L) - logdet_A0) - A.shape[0]
    return 0.0 if -1e-9 < value < 0.0 else value


@dataclass(frozen=True)
class ConstraintSet:
    """Similar/dissimilar pairs of non-negative row indices with finite distance thresholds 0 < u < l."""

    similar: tuple[tuple[int, int], ...]
    dissimilar: tuple[tuple[int, int], ...]
    u: float
    l: float

    def __post_init__(self):
        if not (0.0 < self.u < self.l and math.isfinite(self.l)):
            raise MetricError(f"require 0 < u < l < inf, got u={self.u}, l={self.l}")
        pairs = np.array(self.similar + self.dissimilar)
        if len(pairs) and not (pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,) and pairs.min() >= 0):
            raise MetricError("a constraint pair must be two non-negative integer row indices")
        if set(self.similar) & set(self.dissimilar):
            raise MetricError("a pair cannot be both similar and dissimilar")

    def __len__(self) -> int:
        return len(self.similar) + len(self.dissimilar)


# Label-difference percentile that defines a similar pair; its complement defines a dissimilar one.
SIMILARITY_PERCENTILE = 10.0

# A sampled pair whose prior distance is at most this share of the largest one counts as at distance 0.
ZERO_DISTANCE_RTOL = 1e-12


def _percentiles(values: np.ndarray, *qs: float) -> list[float]:
    """``np.percentile(values, qs).tolist()`` for a float array of finite values >= +0.0 and 0 <= q < 100,
    bit for bit, from one sort: numpy's default (linear) method, written out (see the module docstring)."""
    s = np.sort(values)
    out = []
    for q in qs:
        h = (len(s) - 1) * (q / 100.0)
        lo = int(h)    # floor, as h >= 0
        a, b = float(s[lo]), float(s[min(lo + 1, len(s) - 1)])
        g, d = h - lo, b - a
        out.append(a + d * g if g < 0.5 else b - d * (1.0 - g))
    return out


def _candidate_pairs(n: int, n_candidates: int, seed: int) -> np.ndarray:
    """The candidate pairs (i < j) of ``build_constraints`` over ``n`` rows, one row each, in sampling order.

    A permutation prefix is taken from ``np.triu_indices``' two index arrays
    before they are stacked, so no (all pairs, 2) table is made.
    """
    total = n * (n - 1) // 2
    if total > 4 * n_candidates:
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
                pairs.append(pair)
        return np.array(pairs)
    first, second = np.triu_indices(n, 1)
    if total > n_candidates:
        drawn = np.random.default_rng(seed).permutation(total)[:n_candidates]
        first, second = first[drawn], second[drawn]
    return np.column_stack((first, second))


def build_constraints(
    X: np.ndarray,
    y: np.ndarray,
    *,
    max_per_set: int = 200,
    n_candidates: int = 5_000,
    seed: int = 0,
) -> ConstraintSet:
    """Derive pair constraints from continuous labels.

    Candidate pairs (i < j) are every pair in lexicographic order when there
    are at most ``n_candidates``, a seeded permutation prefix of that order
    when there are at most 4 x ``n_candidates``, and distinct pairs drawn by
    rejection sampling above that, where permuting every pair costs more.
    Sampled pairs at prior-metric (identity) distance 0 are dropped first,
    where a pair counts as at distance 0 when its distance is at most
    ``ZERO_DISTANCE_RTOL`` (1e-12) times the largest sampled distance. A
    pair at exactly 0 cannot constrain any metric, and one within that share
    of 0 would put u so far below l that meeting it collapses a direction of
    the metric: near-duplicate rows 1.4e-45 apart once set u to 1.96e-90.
    With them dropped, l / u is below 1e12. A sampled distance that
    overflows to inf raises ``MetricError``. Over the pairs that remain, a
    pair is similar when its absolute label difference falls at or below
    the ``SIMILARITY_PERCENTILE``-th percentile of their differences,
    dissimilar at or above the (100 - ``SIMILARITY_PERCENTILE``)-th. When
    both thresholds coincide the pair is classified against half the label
    range. Each set keeps its first ``max_per_set`` pairs in sampling
    order. u and l are the 5th and 95th
    percentiles of the remaining pairs' prior distances; degenerate equal
    percentiles are widened by 5% around their value. With no pair left the
    set is empty. ``max_per_set`` and ``seed`` must be integers >= 0 and
    ``n_candidates`` one >= 1, the seed even when it draws nothing. ``X``
    and ``y`` that fail ``schema.check_samples``, with at least 2 rows,
    raise ``MetricError``. When no remaining pair is dissimilar, cap aside,
    it warns that the labels are degenerate.
    """
    refuse((count_problem("max_per_set", max_per_set, 0), count_problem("n_candidates", n_candidates, 1),
            count_problem("seed", seed, 0)), MetricError)
    X, y = check_samples(X, y, least=2, error=MetricError)
    n = len(y)

    pairs = _candidate_pairs(n, n_candidates, seed)
    diffs = X[pairs[:, 0]]
    diffs -= X[pairs[:, 1]]    # X[i] - X[j] in place: two (pairs, features) arrays alive, not three
    dists = np.einsum("ij,ij->i", diffs, diffs)
    top = float(dists.max())
    if top == math.inf:
        raise MetricError("a sampled pair's distance overflows to inf")
    kept = dists > ZERO_DISTANCE_RTOL * top
    if not kept.any():  # u = l = 0, widened as below
        warnings.warn("every sampled pair lies at distance 0: no constraints", RuntimeWarning)
        return ConstraintSet((), (), 0.95e-9, 1.05e-9)
    pairs, dists = pairs[kept], dists[kept]

    deltas = np.abs(y[pairs[:, 0]] - y[pairs[:, 1]])
    sim_cut, dis_cut = _percentiles(deltas, SIMILARITY_PERCENTILE, 100.0 - SIMILARITY_PERCENTILE)
    is_sim = deltas <= sim_cut
    is_dis = deltas >= dis_cut
    both = is_sim & is_dis
    is_dis[both] = deltas[both] > (float(y.max()) - float(y.min())) / 2.0
    is_sim[both] = ~is_dis[both]
    if not is_dis.any():
        warnings.warn("degenerate labels: no dissimilar pairs found", RuntimeWarning)
    similar = pairs[is_sim][:max_per_set].tolist()
    dissimilar = pairs[is_dis][:max_per_set].tolist()

    u, l = _percentiles(dists, 5.0, 95.0)
    if l <= u:
        mid = max(u, 1e-9)
        u, l = 0.95 * mid, 1.05 * mid
    return ConstraintSet(tuple(map(tuple, similar)), tuple(map(tuple, dissimilar)), u, l)


@dataclass(frozen=True)
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
    dual_changes: list[float]
    violations: list[int]
    divergences: list[float]
    objectives: list[float]
    dual_objectives: list[float]
    skipped_pairs: list[tuple[int, int]]
    final_xi: np.ndarray
    final_lambda: np.ndarray


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
    ``tol``. A constraint whose distance p under the current metric is at
    most 1e-12 |v|^2 tr(A), with A's trace as of the start of the pass, is
    skipped for that projection, with a warning the first time: v is then
    numerically in A's null space. The floor scales with v and A, so a pair
    at a tiny but nonzero distance, or one that similar pairs have drawn
    close, is projected as any other. A nonpositive slack aborts with a
    state dump. Every pass checks that A is still symmetric positive-definite
    with one Cholesky factorization, which also gives the pass's log det A;
    the fit returns the last pass's A as that check left it. The fixed prior
    ``A0`` is factored once, at the start, for its check and its log
    determinant, and inverted once. A projection with alpha exactly 0
    updates only its slack, and under ``gamma`` = 1 not even that (see the
    module docstring for why both are exact).
    ``gamma`` must be a number in (0, inf), ``max_passes`` an integer >= 1
    and ``tol`` a number in [0, inf], or a ``MetricError`` names every one
    that is not; so it does for an ``X`` that fails ``schema.check_samples``.
    """
    X = check_samples(X, error=MetricError)
    q = X.shape[1]
    A0 = np.eye(q) if A0 is None else np.asarray(A0, dtype=float)
    L0 = _factor(A0)
    refuse((real_problem("gamma", gamma, 0, math.inf, "()"), count_problem("max_passes", max_passes, 1),
            real_problem("tol", tol, 0, math.inf)), MetricError)

    entries = [(i, j, 1.0) for (i, j) in constraints.similar] + [
        (i, j, -1.0) for (i, j) in constraints.dissimilar
    ]
    if not entries:
        return ITMLResult(
            A=A0.copy(), converged=True, n_passes=0, dual_changes=[], violations=[], divergences=[],
            objectives=[], dual_objectives=[], skipped_pairs=[], final_xi=np.empty(0), final_lambda=np.empty(0),
        )

    A = (A0 + A0.T) / 2.0   # exactly A0 when A0 is exactly symmetric
    m = len(entries)
    I, J = np.array([(i, j) for (i, j, _) in entries]).T
    if max(I.max(), J.max()) >= len(X):
        raise MetricError(f"a constraint pair indexes row {max(I.max(), J.max())} of {len(X)}")
    V = X[I] - X[J]
    deltas = [d for (_, _, d) in entries]
    halves = [d / 2.0 for d in deltas]
    xi0 = [float(constraints.u) if d > 0 else float(constraints.l) for d in deltas]
    xi = list(xi0)
    lam = [0.0] * m
    delta_arr, xi0_arr = np.array(deltas), np.array(xi0)
    A0_inv_T, logdet_A0 = _prior_terms(A0, L0)
    skipped, skipped_pairs = set(), []
    dual_changes, violations, divergences, objectives, dual_objectives = [], [], [], [], []

    VV = (V[:, :, None] * V[:, None, :]).reshape(m, q * q)    # row c: vec(v v^T), each entry v_i * v_j
    norms = VV[:, ::q + 1].sum(axis=1).tolist()    # |v|^2 per constraint
    rows = list(zip(VV, V, norms, halves, deltas))
    a = A.reshape(-1)    # vec(A), a view that follows A's in-place updates
    Av, outer = np.empty(q), np.empty_like(A)
    Av_col, Av_row = Av[:, None], Av[None, :]
    is_sim, is_dis = delta_arr > 0, delta_arr < 0
    upper, lower = 1 + tol, 1 - tol
    unit_gamma = gamma == 1.0
    for t in range(1, max_passes + 1):
        max_dual_change = 0.0
        floor = 1e-12 * float(A.trace())
        for c, (vv, v, norm, half, delta) in enumerate(rows):
            p = float(vv.dot(a))    # vec(v v^T) . vec(A) = v^T A v, to the rounding in the module docstring
            if p <= norm * floor:
                if (c not in skipped):
                    skipped.add(c)
                    i, j, _ = entries[c]
                    skipped_pairs.append((i, j))
                    warnings.warn(
                        f"skipping constraint ({i}, {j}): zero distance under current metric",
                        RuntimeWarning,
                    )
                continue
            xi_c, lam_c = xi[c], lam[c]
            step = half * (1.0 / p - gamma / xi_c)
            alpha = step if step < lam_c else lam_c    # min(lam_c, step), NaN and ties included
            if alpha == 0.0 and unit_gamma:
                continue    # a satisfied constraint: its slack, dual, the pass's dual change and A stay as they are
            delta_alpha = delta * alpha
            new_xi = gamma * xi_c / (gamma + delta_alpha * xi_c)
            if new_xi <= 0 or not math.isfinite(new_xi):
                raise MetricError(
                    "slack diverged during training: "
                    f"constraint {entries[c][:2]}, pass {t}, p={p:.6g}, "
                    f"alpha={alpha:.6g}, xi={xi_c:.6g} -> {new_xi:.6g}, "
                    f"lambda={lam_c:.6g}"
                )
            xi[c] = new_xi
            if alpha == 0.0:
                continue    # as above, but gamma * xi / gamma can round: the slack moves, nothing else
            lam[c] = lam_c - alpha
            abs_alpha = abs(alpha)
            if abs_alpha > max_dual_change:
                max_dual_change = abs_alpha
            A.dot(v, out=Av)
            Av_col.dot(Av_row, out=outer)    # Av_i * Av_j, a k = 1 matrix product
            outer *= delta_alpha / (1.0 - delta_alpha * p)    # beta
            A += outer    # exactly symmetric: see the module docstring

        xi_arr, lam_arr = np.array(xi), np.array(lam)
        dists = VV.dot(a)    # v^T A v for every constraint
        viol = (np.count_nonzero(is_sim & (dists > xi_arr * upper))
                + np.count_nonzero(is_dis & (dists < xi_arr * lower)))
        dual_changes.append(max_dual_change)
        violations.append(viol)
        L = _factor(A)    # checks A, and gives log det A
        divergences.append(_logdet_divergence(A, L, A0_inv_T, logdet_A0))
        objectives.append(divergences[-1] + gamma * _slack_divergence(xi_arr, xi0_arr))
        dual_objectives.append(objectives[-1] + float(np.sum(lam_arr * delta_arr * (dists - xi_arr))))
        if max_dual_change < tol:
            break

    return ITMLResult(
        A=A, converged=max_dual_change < tol, n_passes=t,
        dual_changes=dual_changes, violations=violations, divergences=divergences,
        objectives=objectives, dual_objectives=dual_objectives, skipped_pairs=skipped_pairs,
        final_xi=np.array(xi), final_lambda=np.array(lam),
    )


def match_source_to_target(
    A: np.ndarray,
    target_X: np.ndarray,
    source_X: np.ndarray,
    source_y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match each target instance to its nearest labeled source instance.

    Returns (matched features, matched labels, source indices), one row per
    target instance; a source instance may be matched repeatedly. Ties break
    to the lowest source index. Both sets must pass ``schema.check_samples``,
    the target with any number of rows and the source with at least one,
    or raise ``MetricError``; the labels come back as floats.
    """
    A = check_metric(A)
    target_X = check_samples(target_X, least=0, error=MetricError, names=("target_X",))
    source_X, source_y = check_samples(source_X, source_y, error=MetricError, names=("source_X", "source_y"))
    if target_X.shape[1] != source_X.shape[1] or source_X.shape[1] != A.shape[0]:
        raise MetricError("feature dimensions do not match the metric")

    AS = source_X @ A
    ss = np.einsum("ij,ij->i", source_X, AS)
    tt = np.einsum("ij,ij->i", target_X, target_X @ A)
    # tt[:, None] + ss[None, :] - 2.0 * cross: the same operations in the same order (doubling is exact),
    # with two (target, source) arrays alive, not three, and one ufunc buffer for a broadcast operand, not two.
    cross = target_X @ AS.T
    cross *= 2.0
    dists = np.repeat(tt, len(ss)).reshape(cross.shape)
    dists += ss
    dists -= cross
    idx = np.argmin(dists, axis=1)
    return source_X[idx], source_y[idx], idx

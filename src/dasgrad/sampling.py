"""Adaptive categorical sampling over training indices.

A flat-array sum tree gives O(log n) draws. A full refresh of the sampling
distribution is one O(n) ``set_all``; a single-leaf ``update`` is O(log n).
``scores_dasgrad`` is the one score function: per-example norms of the
preconditioned candidate direction, of which ``scores_apsgd`` (gradient
norms) is the v_hat = 1, no-momentum case. Normalization smooths scores
with a small epsilon so every example keeps strictly positive probability.
"""

from __future__ import annotations

import numpy as np

from . import problems as _problems


class SamplingTree:
    """Sum tree over n nonnegative leaf weights.

    Layout: ``nodes`` has 2 * capacity entries, capacity a power of two.
    nodes[1] is the root, leaf i lives at nodes[capacity + i], and every
    internal node holds the exact float sum of its two children (parents are
    recomputed from children by ``update`` and ``set_all``, never adjusted
    incrementally, so the sum invariant holds to the last bit).
    """

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        self.n = int(weights.size)
        self.capacity = 1
        while self.capacity < self.n:
            self.capacity *= 2
        self.set_all(weights)

    @property
    def total(self) -> float:
        return float(self.nodes[1])

    def leaves(self, rows=None) -> np.ndarray:
        """Copy of the n leaf weights, or of those at the index array rows."""
        leaves = self.nodes[self.capacity:self.capacity + self.n]
        if rows is None:
            return leaves.copy()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and rows.min() < 0:
            raise IndexError("leaf index out of range")
        return leaves[rows]  # numpy raises IndexError for a row >= n

    def set_all(self, weights) -> None:
        """Replace all n leaf weights and rebuild the parents level by
        level, O(n). The tree is built in a new array and kept only when
        the input is valid and its total is finite, so a rejected call
        changes nothing. Each parent is the same child sum that n per-leaf
        ``update`` calls leave, so the nodes match theirs bit for bit."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.n,):
            raise ValueError("weights must be a 1-d sequence of length %d"
                             % self.n)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(weights > 0):
            raise ValueError("at least one weight must be positive")
        nodes = np.zeros(2 * self.capacity)
        nodes[self.capacity:self.capacity + self.n] = weights
        lo = self.capacity
        with np.errstate(over="ignore"):
            while lo > 1:
                half = lo // 2
                level = nodes[lo:2 * lo]
                nodes[half:lo] = level[0::2] + level[1::2]
                lo = half
        if not np.isfinite(nodes[1]):
            raise ValueError("the weights' total overflows")
        self.nodes = nodes

    def update(self, i: int, w: float) -> None:
        """Set leaf i to w and refresh its ancestors. A weight that makes
        the total overflow is rejected and the old leaf restored."""
        if not 0 <= i < self.n:
            raise IndexError("leaf index out of range")
        if not np.isfinite(w) or w < 0:
            raise ValueError("weight must be finite and nonnegative")
        idx = self.capacity + i
        old = self.nodes[idx]
        self.nodes[idx] = w
        idx >>= 1
        with np.errstate(over="ignore"):
            while idx >= 1:
                self.nodes[idx] = self.nodes[2 * idx] + self.nodes[2 * idx + 1]
                idx >>= 1
        if not np.isfinite(self.nodes[1]):
            self.update(i, old)
            raise ValueError("the weights' total overflows")

    def index_of_prefix(self, u: float) -> int:
        """Leaf whose cumulative-weight interval contains u in [0, total).

        Descends left on u < left-child sum, otherwise subtracts the left
        sum and descends right, so boundary ties go right.
        """
        idx = 1
        nodes = self.nodes
        while idx < self.capacity:
            left = 2 * idx
            if u < nodes[left]:
                idx = left
            else:
                u -= nodes[left]
                idx = left + 1
        i = idx - self.capacity
        # float slack in the child sums can spill past the last live leaf
        return min(i, self.n - 1)

    def sample(self, rng) -> int:
        """Draw one index with probability leaf_i / total."""
        root = self.total
        if root <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        return self.index_of_prefix(rng.random() * root)

    def sample_many(self, rng, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. indices; one vectorized descent per level."""
        root = self.total
        if root <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        u = rng.random(size) * root
        idx = np.ones(size, dtype=np.int64)
        nodes = self.nodes
        # Ties go right, as in index_of_prefix. Where a draw goes left it
        # subtracts 0.0, which leaves u unchanged, so draws match the
        # scalar descent bit for bit.
        for _ in range(self.capacity.bit_length() - 1):
            idx <<= 1
            left_sum = nodes[idx]
            right = u >= left_sum
            left_sum *= right
            u -= left_sum
            idx += right
        return np.minimum(idx - self.capacity, self.n - 1)


def normalize_scores(scores, epsilon):
    """Turn nonnegative scores into strictly positive probabilities:
    p_i = (s_i + eps) / sum_j (s_j + eps)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    if np.any(scores < 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite and nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    shifted = scores + epsilon
    with np.errstate(over="ignore"):
        total = shifted.sum()
    if not np.isfinite(total):
        raise ValueError("the total of the scores overflows")
    return shifted / total


def importance_weight(p_i, n):
    """Weight (1/n)/p_i that unbiases a p-sampled gradient toward the
    uniform training mean. Works elementwise on arrays."""
    p_i = np.asarray(p_i, dtype=np.float64)
    if np.any(p_i <= 0):
        raise ValueError("probabilities must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    out = (1.0 / n) / p_i
    return float(out) if out.ndim == 0 else out


def target_weight(p_i, label_count, m):
    """Weight (label_count/m)/p_i that retargets the estimator at a test
    label distribution: label_count is how often the sampled example's label
    occurs among the m test points."""
    p_i = np.asarray(p_i, dtype=np.float64)
    if np.any(p_i <= 0):
        raise ValueError("probabilities must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    label_count = np.asarray(label_count, dtype=np.float64)
    if np.any(label_count < 0) or np.any(label_count > m):
        raise ValueError("label_count must lie in [0, m]")
    out = (label_count / m) / p_i
    return float(out) if out.ndim == 0 else out


def scores_apsgd(problem, theta):
    """Per-example gradient norms ||grad f_i(theta)||_2, one dataset pass."""
    theta = np.asarray(theta, dtype=np.float64)
    ones = np.ones(problem.param_dim)
    return scores_dasgrad(problem, theta, np.zeros(problem.param_dim),
                          ones, beta1_t=0.0)


def scores_dasgrad(problem, theta, m_prev, v_hat, beta1_t, eps_div=1e-8):
    """Norms || (b m_prev + (1 - b) grad f_i(theta)) / v_hat^{1/4} ||_2 for
    every example, b the momentum blend at the current step. Zero
    coordinates of v_hat use the sqrt(eps_div) guard of the update rule.
    Centroid problems take the direct dense route (exact at zero); for the
    logistic kinds the per-example part, (1 - b) r_i (x) x_i, is rank one in
    the features, so three matrix products give the squared norms without
    materializing n x param_dim gradients.
    """
    theta = np.asarray(theta, dtype=np.float64)
    m_prev = np.asarray(m_prev, dtype=np.float64)
    if not 0.0 <= beta1_t < 1.0:
        raise ValueError("beta1_t must lie in [0, 1)")
    v_hat = np.asarray(v_hat, dtype=np.float64)
    root = np.where(v_hat > 0, np.sqrt(np.sqrt(v_hat)), np.sqrt(eps_div))
    keep = 1.0 - beta1_t

    if problem.kind == _problems.CENTROID:
        X = problem.X
        if problem.is_sparse:
            X = np.asarray(X.todense())
        diff = (beta1_t * m_prev + keep * theta)[None, :] - keep * X
        return np.linalg.norm(diff / root[None, :], axis=1)

    # binary: W is the identity and .T of a 1-d array is the array itself
    W = problem.weights_view
    A = beta1_t * W(m_prev) + keep * (problem.l2_lambda * W(theta))
    C = keep * _problems.residuals(problem, theta)   # (n,) or (n, K)
    inv_sq = W(1.0 / (root * root))
    base = float((A * A * inv_sq).sum())
    cross = np.asarray(problem.X @ (A * inv_sq).T)
    quad = np.asarray(problem.X_sq @ inv_sq.T)
    if problem.kind == _problems.BINARY_LOGISTIC:
        sq = base + 2.0 * C * cross + (C * C) * quad
    else:
        sq = base + 2.0 * (C * cross).sum(axis=1) + (C * C * quad).sum(axis=1)
    return np.sqrt(np.maximum(sq, 0.0))


def expected_weighted_second_moment(probs, norms):
    """Error term E_p[w^2 ||g||^2] = sum_i norms_i^2 / (n^2 p_i).

    Over the positive simplex its minimum is ((1/n) sum_i norms_i)^2,
    reached at p proportional to the norms.
    """
    probs = np.asarray(probs, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if probs.shape != norms.shape or probs.ndim != 1:
        raise ValueError("probs and norms must be 1-d and the same length")
    if np.any(probs <= 0):
        raise ValueError("probabilities must be positive")
    n = probs.size
    return float((norms * norms / probs).sum() / (n * n))

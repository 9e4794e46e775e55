"""Adaptive categorical sampling over training indices.

A ``SamplingTree`` is a value: its constructor checks the weights and
takes their running sums, both kept as read-only arrays, and nothing
changes them afterwards. A refresh of the sampling distribution builds a
new tree in O(n), and ``sample_many`` draws a block of indices with one
binary search of the running sums. ``update`` returns a new tree with one
leaf changed, also in O(n); the optimizers never call it, as each refresh
replaces the whole distribution.
``scores_dasgrad`` is the one score function: per-example norms of the
preconditioned candidate direction, of which ``scores_apsgd`` (gradient
norms) is the v_hat = 1, no-momentum case; for the logistic kinds both
share one rank-one norm routine over the weight rows (one row for
binary), and the ap-SGD case reads its constant quad term from
``Problem.row_sq_norms``. Normalization smooths scores with a small
epsilon so every example keeps strictly positive probability.

Every refresh and every drawn batch checks its vectors, so each check is
one pass: ``SamplingTree`` and ``normalize_scores`` test a vector's range
with one ``np.minimum.reduce``/``np.maximum.reduce`` pair (NaN fails it,
as it propagates), and take the per-condition tests only to pick the error
message. ``importance_weight`` and ``target_weight`` skip NaN, as
``np.any(p <= 0)`` does, through ``np.fmin.reduce``/``np.fmax.reduce``.
Each accepts and rejects the same inputs, with the same message, as the
per-condition tests.
"""

from __future__ import annotations

import numpy as np

from . import problems as _problems


class SamplingTree:
    """Categorical distribution over n nonnegative leaf weights, at least
    one of them positive.

    Holds its own copy of the weights and their running sums,
    ``cdf = np.cumsum(weights)``, as read-only arrays: ``total`` is
    ``cdf[-1]``, and a draw is one binary search of the running sums. A
    tree is built once and never changed, so ``cdf`` equals
    ``np.cumsum(weights)`` to the last bit.
    """

    def __init__(self, weights):
        weights = np.array(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not (0.0 <= np.minimum.reduce(weights)
                and 0.0 < np.maximum.reduce(weights) < np.inf):
            if not np.all(np.isfinite(weights)):
                raise ValueError("weights must be finite")
            if np.any(weights < 0):
                raise ValueError("weights must be nonnegative")
            raise ValueError("at least one weight must be positive")
        # the running sums are nondecreasing, so only the last can be inf
        with np.errstate(over="ignore"):
            cdf = np.cumsum(weights)
        if not np.isfinite(cdf[-1]):
            raise ValueError("the weights' total overflows")
        weights.flags.writeable = cdf.flags.writeable = False
        self.n = int(weights.size)
        self.weights, self.cdf = weights, cdf

    @property
    def total(self) -> float:
        return float(self.cdf[-1])

    def update(self, i: int, w: float) -> SamplingTree:
        """A new tree with leaf i set to w, O(n); this one is unchanged.
        No library code calls it; perfbench's tracer counts its calls."""
        if not 0 <= i < self.n:
            raise IndexError("leaf index out of range")
        weights = self.weights.copy()
        weights[i] = w
        return SamplingTree(weights)

    def sample_many(self, rng, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. indices: draw i is the first leaf whose
        running sum exceeds u_i = rng.random() * total, so a u on an edge
        goes right, past any empty leaves."""
        u = rng.random(size) * self.total
        # u rounds up to total at most; that draw takes the last leaf
        return np.minimum(np.searchsorted(self.cdf, u, side="right"),
                          self.n - 1)


def normalize_scores(scores, epsilon):
    """Turn nonnegative scores into strictly positive probabilities:
    p_i = (s_i + eps) / sum_j (s_j + eps)."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    if not (0.0 <= np.minimum.reduce(scores)
            and np.maximum.reduce(scores) < np.inf):
        raise ValueError("scores must be finite and nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    shifted = scores + epsilon
    with np.errstate(over="ignore"):
        total = np.add.reduce(shifted)
    if not np.isfinite(total):
        raise ValueError("the total of the scores overflows")
    return shifted / total


def importance_weight(p_i, n):
    """Weight (1/n)/p_i that unbiases a p-sampled gradient toward the
    uniform training mean. Works elementwise on arrays."""
    p_i = np.asarray(p_i, dtype=np.float64)
    if p_i.size and np.fmin.reduce(p_i, axis=None) <= 0:
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
    if p_i.size and np.fmin.reduce(p_i, axis=None) <= 0:
        raise ValueError("probabilities must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    label_count = np.asarray(label_count, dtype=np.float64)
    if label_count.size and (np.fmin.reduce(label_count, axis=None) < 0
                             or np.fmax.reduce(label_count, axis=None) > m):
        raise ValueError("label_count must lie in [0, m]")
    out = (label_count / m) / p_i
    return float(out) if out.ndim == 0 else out


def scores_apsgd(problem, theta, R=None):
    """Per-example gradient norms ||grad f_i(theta)||_2, one dataset pass:
    ``scores_dasgrad`` at v_hat = 1 without momentum. For the logistic
    kinds the quad term is the problem's ``row_sq_norms``, and R, when
    given, must be the residuals at theta (``problems.residuals``); the
    metric tick passes those of its own loss pass."""
    theta = np.asarray(theta, dtype=np.float64)
    dim = problem.param_dim
    if problem.kind == _problems.CENTROID:
        return scores_dasgrad(problem, theta, np.zeros(dim), np.ones(dim),
                              beta1_t=0.0)
    if R is None:
        R = _problems.residuals(problem, theta)
    return _rank_one_norms(problem, theta, R, np.zeros(dim),
                           problem.weights_view(np.ones(dim)), 0.0,
                           problem.row_sq_norms)


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
        diff = ((beta1_t * m_prev + keep * theta)[None, :]
                - keep * problem.X)
        q = diff / root[None, :]
        # what np.linalg.norm(q, axis=1) computes, without its wrapper
        return np.sqrt(_problems._row_sum(q * q))

    inv_sq = problem.weights_view(1.0 / (root * root))
    return _rank_one_norms(problem, theta, _problems.residuals(problem, theta),
                           m_prev, inv_sq, beta1_t,
                           np.asarray(problem.X_sq @ inv_sq.T))


def _rank_one_norms(problem, theta, R, m_prev, inv_sq, beta1_t, quad):
    """The logistic branch of ``scores_dasgrad``: the norms from the
    (n, K) residuals R at theta, the weights inv_sq = v_hat^{-1/2} (shaped
    as theta's (K, d) weights view) and the (n, K) quad = X_sq inv_sq^T;
    K = 1 for binary."""
    W = problem.weights_view
    keep = 1.0 - beta1_t
    A = beta1_t * W(m_prev) + keep * (problem.l2_lambda * W(theta))
    C = keep * R
    base = float((A * A * inv_sq).sum())
    cross = np.asarray(problem.X_cols @ (A * inv_sq).T)
    sq = (base + 2.0 * _problems._row_sum(C * cross)
          + _problems._row_sum(C * C * quad))
    return np.sqrt(np.maximum(sq, 0.0))


def expected_weighted_second_moment(probs, norms):
    """Error term E_p[w^2 ||g||^2] = sum_i norms_i^2 / (n^2 p_i).

    Over the positive simplex its minimum is ((1/n) sum_i norms_i)^2,
    reached at p proportional to the norms.
    """
    probs = np.asarray(probs, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if probs.shape != norms.shape or probs.ndim != 1 or probs.size == 0:
        raise ValueError("probs and norms must be 1-d, nonempty and the same "
                         "length")
    if not (0.0 < np.minimum.reduce(probs)
            and np.maximum.reduce(probs) < np.inf):
        raise ValueError("probabilities must be finite and positive")
    if not (0.0 <= np.minimum.reduce(norms)
            and np.maximum.reduce(norms) < np.inf):
        raise ValueError("norms must be finite and nonnegative")
    n = probs.size
    return float((norms * norms / probs).sum() / (n * n))

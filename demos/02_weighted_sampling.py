"""The adaptive sampling machinery: draws from running sums, score
normalization, and importance weights.

Shows that draws follow the leaf weights, that a new distribution is a
new tree, built with its running sums in O(n) while the old one stays as
it was, and that the importance weights make the weighted estimator
unbiased regardless of how skewed the sampling is.
"""

import numpy as np

from dasgrad import (
    SamplingTree, expected_weighted_second_moment, importance_weight,
    normalize_scores,
)

rng = np.random.default_rng(1)

# --- draws follow the leaf weights ------------------------------------------
weights = np.array([1.0, 2.0, 3.0, 4.0])
tree = SamplingTree(weights)
draws = tree.sample_many(rng, 200_000)
freq = np.bincount(draws, minlength=4) / len(draws)
print("leaf weights      ", weights / weights.sum())
print("observed frequency", np.round(freq, 4))

# --- a refresh builds a new tree in one O(n) pass ----------------------------
refreshed = SamplingTree([4.0, 3.0, 2.0, 1.0])
draws = refreshed.sample_many(rng, 200_000)
print("new tree [4, 3, 2, 1]: observed frequency",
      np.round(np.bincount(draws, minlength=4) / len(draws), 4))
print("the first tree still holds", tree.weights)

# --- epsilon smoothing keeps every example alive -----------------------------
scores = np.array([0.0, 0.0, 5.0, 1.0])
probs = normalize_scores(scores, epsilon=1e-2)
print("scores  ", scores)
print("smoothed", np.round(probs, 4), "(zero-score entries stay positive)")

# --- unbiasedness: sum_i p_i w_i g_i equals the plain mean -------------------
n = 50
g = rng.standard_normal((n, 3))
skewed = normalize_scores(rng.random(n) ** 4, 1e-6)
w = importance_weight(skewed, n)
estimate = (skewed[:, None] * w[:, None] * g).sum(axis=0)
print("weighted estimator ", np.round(estimate, 12))
print("uniform mean       ", np.round(g.mean(axis=0), 12))

# --- sampling proportional to the norms minimizes the second moment ---------
norms = 0.1 + rng.random(n)
best = normalize_scores(norms, 1e-12)
value_best = expected_weighted_second_moment(best, norms)
value_unif = expected_weighted_second_moment(np.full(n, 1.0 / n), norms)
print("E[w^2 ||g||^2]: proportional sampling %.6f  uniform %.6f  "
      "(closed form (E||g||)^2 = %.6f)"
      % (value_best, value_unif, norms.mean() ** 2))

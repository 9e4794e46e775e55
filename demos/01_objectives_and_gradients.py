"""Tour of the objective functions and their gradient oracles.

Builds one problem of each kind, evaluates per-example and full-batch
losses/gradients, and runs the finite-difference gradient checker.
"""

import numpy as np

from dasgrad import (
    BINARY_LOGISTIC, CENTROID, MULTICLASS_LOGISTIC,
    Problem,
    example_gradient, example_loss, finite_difference_check,
    full_gradient, full_objective,
)

rng = np.random.default_rng(0)

# --- centroid: f_i(theta) = 0.5 ||theta - x_i||^2 --------------------------
points = rng.standard_normal((6, 3)) * 2.0
centroid = Problem(points, np.zeros(6, dtype=np.int64), CENTROID)
theta = np.zeros(3)
print("centroid")
print("  F(0)           =", full_objective(centroid, theta))
print("  f_0(0)         =", example_loss(centroid, 0, theta))
print("  grad f_0(0)    =", example_gradient(centroid, 0, theta))
print("  grad F at mean =", full_gradient(centroid, points.mean(axis=0)))

# --- binary logistic with L2 ------------------------------------------------
# one feature row, then its label, per example
rows = [(rng.standard_normal(4), int(rng.integers(0, 2))) for _ in range(30)]
X, y = np.array([x for x, _ in rows]), np.array([label for _, label in rows])
binary = Problem(X, y, BINARY_LOGISTIC, l2_lambda=0.1)
theta = rng.standard_normal(4)
print("binary logistic")
print("  F(theta) =", full_objective(binary, theta))
print("  loss at theta=0 is log 2:", full_objective(binary, np.zeros(4)))

# --- multiclass logistic: parameter is the flattened (K, d) matrix ----------
k = 4
rows = [(rng.standard_normal(5), int(rng.integers(0, k))) for _ in range(40)]
X, y = np.array([x for x, _ in rows]), np.array([label for _, label in rows])
multi = Problem(X, y, MULTICLASS_LOGISTIC, l2_lambda=0.01, num_classes=k)
theta = rng.standard_normal(multi.param_dim)
print("multiclass logistic")
print("  parameter dimension:", multi.param_dim, "(K x d =", k, "x", multi.d,
      ")")
print("  F(theta) =", full_objective(multi, theta))

# --- every analytic gradient agrees with central differences ----------------
print("finite-difference check (max relative error, h = 1e-6)")
for name, prob in (("centroid", centroid), ("binary", binary),
                   ("multiclass", multi)):
    theta = rng.standard_normal(prob.param_dim)
    print("  %-10s %.2e" % (name, finite_difference_check(prob, theta, 1e-6)))

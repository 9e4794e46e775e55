"""One stepping engine, seven optimizers.

Runs every method on a small multiclass problem and prints the loss
trajectories, then demonstrates the exact collapse of the double adaptive
method onto its uniform-sampling ancestor.
"""

import numpy as np

from dasgrad import (
    METHODS, MULTICLASS_LOGISTIC, OptimizerConfig, Problem,
    convex_preset, run, solve_reference,
)

rng = np.random.default_rng(2)
rows = [(rng.standard_normal(6) + 3.0 * (rng.integers(0, 3) == 0),
         int(rng.integers(0, 3)))
        for _ in range(120)]
problem = Problem(np.array([x for x, _ in rows]),
                  np.array([label for _, label in rows]), MULTICLASS_LOGISTIC,
                  l2_lambda=1e-3, num_classes=3)
reference = solve_reference(problem, tol=1e-8, max_iters=2000)
print("reference optimum f* = %.4f (converged: %s)"
      % (reference.f_star, reference.converged))

print("\nloss every 100 steps (T = 500, alpha = 0.05, batch 4):")
for method in METHODS:
    cfg = convex_preset(method, alpha=0.05, batch_size=4)
    result = run(problem, cfg, T=500, seed=0, metric_tick=100)
    print("  %-8s" % method, " ".join("%.4f" % v for v in result.loss))

# a refresh period past T keeps the sampling uniform, and the double
# adaptive method IS amsgrad
uniform = OptimizerConfig(method="dasgrad", alpha=0.05, batch_size=4,
                          refresh_period=301)
plain = OptimizerConfig(method="amsgrad", alpha=0.05, batch_size=4)
r1 = run(problem, uniform, T=300, seed=7, metric_tick=300)
r2 = run(problem, plain, T=300, seed=7, metric_tick=300)
print("\ndasgrad with refresh_period = 301 > T vs amsgrad, same seed:")
print("  max |theta difference| =", float(np.abs(r1.theta - r2.theta).max()))

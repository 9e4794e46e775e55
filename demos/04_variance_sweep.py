"""Feature variance versus the benefit of adaptive sampling.

A scaled-down version of the centroid sweep: for increasing feature
sigma, compare the cumulative regret of the double adaptive method against
its uniform-sampling counterpart. The gap grows with the variance of the
gradients.

The full protocol (100 seeds) runs via:  dasgrad sweep-variance
"""

import numpy as np

from dasgrad import (
    CENTROID, convex_preset, make_problem, regret_ledger, run,
    solve_reference, synth_centroid,
)
from dasgrad.metrics import paired_ci

SEEDS = 20

print("sigma   amsgrad regret   dasgrad regret   gap (paired 95% CI)")
for sigma in (0.1, 1.0, 10.0):
    dataset = synth_centroid(200, 10, sigma, seed=11)
    problem = make_problem(dataset, CENTROID)
    reference = solve_reference(problem)
    finals = {}
    for method in ("amsgrad", "dasgrad"):
        cfg = convex_preset(method, alpha=0.01, batch_size=8)
        finals[method] = np.array([
            regret_ledger(r.loss, reference.f_star).cumulative[-1]
            for r in (run(problem, cfg, T=500, seed=s, metric_tick=1)
                      for s in range(SEEDS))])
    gap, lo, hi = paired_ci(finals["amsgrad"], finals["dasgrad"])
    print("%5.1f   %14.3f   %14.3f   %+.3f (%+.3f, %+.3f)"
          % (sigma, finals["amsgrad"].mean(), finals["dasgrad"].mean(),
             gap, lo, hi))

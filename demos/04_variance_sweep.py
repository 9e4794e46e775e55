"""Feature variance versus the benefit of adaptive sampling.

A scaled-down version of the centroid sweep: for increasing feature
sigma, compare the cumulative regret of the double adaptive method against
its uniform-sampling counterpart. The gap grows with the variance of the
gradients.

The full protocol (100 seeds) runs via:  dasgrad sweep-variance
"""

import csv
import os
import tempfile

from dasgrad import sweep_variance

SEEDS = 20

with tempfile.TemporaryDirectory() as out:
    sweep_variance((0.1, 1.0, 10.0), range(SEEDS), out)
    with open(os.path.join(out, "sweep_summary.csv")) as fh:
        summary = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]

print("sigma   amsgrad regret   dasgrad regret   gap (paired 95% CI)")
for sigma, dasgrad, amsgrad, gap, lo, hi in summary:
    print("%5.1f   %14.3f   %14.3f   %+.3f (%+.3f, %+.3f)"
          % (sigma, amsgrad, dasgrad, gap, lo, hi))

"""Importance weights that retarget training at a shifted test distribution.

Two classes of a four-class problem are cut to 10% of their examples, the
evaluation set stays balanced. Training with target-distribution weights
recovers accuracy on the balanced test set that uniform training loses.

The full protocol (20 seeds) runs via:  dasgrad matching
"""

import numpy as np

from dasgrad import (
    Dataset, MULTICLASS_LOGISTIC, accuracy, convex_preset, make_problem,
    run, synth_classification, unbalance,
)

total = synth_classification(2800, 40, 4, margin=3.0, seed=23)
train = Dataset(total.X[:2000], total.y[:2000], 4, "train")
evald = Dataset(total.X[2000:], total.y[2000:], 4, "eval")
train = unbalance(train, {1, 3}, keep_fraction=0.1, seed=23)
problem = make_problem(train, MULTICLASS_LOGISTIC, l2_lambda=1e-3)

print("training class counts after unbalancing:",
      np.bincount(problem.y, minlength=4).tolist())
print("evaluation class counts (balanced):     ",
      evald.label_counts().tolist())

arms = {
    "dasgrad + target weights": convex_preset(
        "dasgrad", alpha=0.01, batch_size=32,
        target_label_counts=evald.label_counts()),
    "amsgrad uniform baseline": convex_preset(
        "amsgrad", alpha=0.01, batch_size=32),
}
for name, cfg in arms.items():
    accs = [accuracy(problem, run(problem, cfg, T=2000, seed=s,
                                  metric_tick=2000).theta, evald.X, evald.y)
            for s in range(5)]
    print("%-26s balanced-test accuracy %.4f +- %.4f"
          % (name, np.mean(accs), np.std(accs)))

"""Importance weights that retarget training at a shifted test distribution.

Two classes of a four-class problem are cut to 10% of their examples, the
evaluation set stays balanced. Training with target-distribution weights
recovers accuracy on the balanced test set that uniform training loses.

The full protocol (20 seeds) runs via:  dasgrad matching
"""

import tempfile

import numpy as np

from dasgrad import matching_datasets, matching_experiment

train, evald = matching_datasets()
print("training class counts after unbalancing:",
      train.label_counts().tolist())
print("evaluation class counts (balanced):     ",
      evald.label_counts().tolist())

with tempfile.TemporaryDirectory() as out:
    results, _ = matching_experiment(range(5), out, metric_tick=2000)
for name, arm in (("dasgrad + target weights", "dasgrad_target"),
                  ("amsgrad uniform baseline", "amsgrad_uniform")):
    accs = [run.accuracy[-1] for run in results[arm]]
    print("%-26s balanced-test accuracy %.4f +- %.4f"
          % (name, np.mean(accs), np.std(accs)))

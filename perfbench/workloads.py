"""The benchmark's workloads: one call into a public dasgrad protocol each.

Problem shapes are fixed. T and the number of run seeds per call are sized
so that one call takes 3-11 s on a 2-core machine, and so that the
optimizer runs, whose cost does not depend on the data, outweigh the
reference solve, whose iteration count varies up to 2.5x between data
seeds. The workload seed gives the data seed and the run seeds, so every
figure can be re-checked on a seed nobody tuned on.

A run is one (optimizer, seed) pair of a call. ``call`` returns the runs
the protocol itself reported as failed (``failures.csv``) and a list of
problems found in its in-memory results; an exception means every run of
the call failed.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np


def derive_seeds(seed, salt, count):
    """Data seed and ``count`` distinct run seeds drawn from the workload
    seed; ``salt`` keeps workloads on different streams."""
    rng = np.random.default_rng([seed, salt])
    data_seed = int(rng.integers(1, 2**31 - 1))
    first_run = int(rng.integers(0, 2**31 - 1 - count))
    return data_seed, tuple(range(first_run, first_run + count))


def _all_finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def read_failures(out):
    """(optimizer, seed) pairs listed in a run_experiment failures.csv."""
    path = os.path.join(out, "failures.csv")
    if not os.path.exists(path):
        return set()
    with open(path) as fh:
        next(fh)
        return {(name, int(seed)) for name, seed, _ in
                (line.split(",", 2) for line in fh if line.strip())}


class Workload:
    name = ""
    why = ""
    salt = 0
    T = 0
    seeds_per_call = 0

    def __init__(self, dasgrad, seed, workdir):
        self.dg = dasgrad
        self.workdir = workdir
        self.data_seed, self.run_seeds = derive_seeds(
            seed, self.salt, self.seeds_per_call)

    def prepare(self):
        """Build inputs the protocol reads; not part of any timed call."""

    def runs(self):
        """Keys of the runs one call attempts."""
        raise NotImplementedError

    def trace_name(self, key):
        """File holding one run's trace, or None if the run has none."""
        return None

    def call(self, out):
        raise NotImplementedError

    def describe(self):
        return "data_seed=%d run_seeds=%d..%d T=%d" % (
            self.data_seed, self.run_seeds[0], self.run_seeds[-1], self.T)


class VarianceSweep(Workload):
    name = "variance_sweep"
    why = ("many tiny centroid runs (n=200, batch 8) with a metric tick "
           "every step: per-step Python overhead, sample_many and the tick "
           "dominate; refresh is a minor share")
    salt = 1
    T = 500
    seeds_per_call = 4
    SIGMAS = (0.1, 1.0, 10.0)
    METHODS = ("amsgrad", "dasgrad")

    def runs(self):
        return [(sigma, method, seed) for sigma in self.SIGMAS
                for method in self.METHODS for seed in self.run_seeds]

    def call(self, out):
        results = self.dg.harness.sweep_variance(
            self.SIGMAS, self.run_seeds, out, n=200, d=10, T=self.T,
            batch_size=8, metric_tick=1, data_seed=self.data_seed,
            methods=self.METHODS)
        problems = []
        for sigma in self.SIGMAS:
            for method in self.METHODS:
                got = results[sigma][method]
                if len(got) != len(self.run_seeds) \
                        or not all(_all_finite(r.loss) for r in got):
                    problems.append("sigma %g %s: missing or nonfinite runs"
                                    % (sigma, method))
        return set(), problems

    def describe(self):
        return "centroid n=200 d=10 batch=8 tick=1 sigmas=%s; %s" % (
            ",".join("%g" % s for s in self.SIGMAS), super().describe())


class ExperimentWorkload(Workload):
    """A workload whose call is harness.run_experiment on
    ``self.config``, built by ``prepare``."""

    def runs(self):
        return [(name, seed) for name in sorted(self.config.optimizers)
                for seed in self.run_seeds]

    def trace_name(self, key):
        return "trace_%s_%d.csv" % key

    def call(self, out):
        config = dataclasses.replace(self.config, output_dir=out)
        results = self.dg.harness.run_experiment(config)
        failed = read_failures(out)
        problems = ["%s seed %d: missing or nonfinite" % key
                    for key in self.runs()
                    if key not in failed and not (
                        key in results and _all_finite(results[key].loss))]
        return failed, problems


class LogisticConfig(ExperimentWorkload):
    name = "logistic_config"
    why = ("configs/logistic_small.cfg problem (n=2000, d=100, K=10, batch "
           "4): dasgrad's per-leaf tree refresh dominates its runs, adam and"
           " amsgrad never refresh")
    salt = 2
    T = 300
    seeds_per_call = 10
    CONFIG = os.path.join("configs", "logistic_small.cfg")

    def prepare(self):
        cfg = self.dg.harness.load_config(self.CONFIG)
        spec = cfg.problem
        shape = (spec.kind, spec.n, spec.d, spec.num_classes, cfg.metric_tick,
                 sorted(cfg.optimizers),
                 sorted({o.batch_size for o in cfg.optimizers.values()}))
        expected = ("multiclass-logistic", 2000, 100, 10, 50,
                    ["adam", "amsgrad", "dasgrad"], [4])
        if shape != expected:
            raise ValueError("%s no longer describes the benchmarked problem:"
                             " %r" % (self.CONFIG, shape))
        self.config = dataclasses.replace(
            cfg, T=self.T, seeds=self.run_seeds,
            problem=dataclasses.replace(spec, data_seed=self.data_seed))

    def describe(self):
        return "%s multiclass n=2000 d=100 K=10 batch=4 tick=50; %s" % (
            self.CONFIG, super().describe())


class DistributionMatching(Workload):
    name = "distribution_matching"
    why = ("unbalanced multiclass with target weights: 32 draws per step, "
           "and a metric tick that re-packs 800 eval rows every 20 steps")
    salt = 3
    T = 400
    seeds_per_call = 16
    ARMS = ("dasgrad_target", "amsgrad_uniform")

    def runs(self):
        return [(arm, seed) for arm in self.ARMS for seed in self.run_seeds]

    def trace_name(self, key):
        return "matching_trace_%s_%d.csv" % key

    def call(self, out):
        results, gap = self.dg.harness.matching_experiment(
            self.run_seeds, out, T=self.T, data_seed=self.data_seed)
        problems = [] if _all_finite(gap) else ["nonfinite accuracy gap"]
        for arm in self.ARMS:
            if len(results[arm]) != len(self.run_seeds) or not all(
                    _all_finite(r.accuracy) for r in results[arm]):
                problems.append("%s: missing or nonfinite runs" % arm)
        return set(), problems

    def describe(self):
        return ("multiclass d=40 K=4 batch=32 tick=20, 800 eval rows, "
                "target weights; %s" % super().describe())


class SparseBinaryLarge(ExperimentWorkload):
    name = "sparse_binary_large"
    why = ("binary logistic read from a sparse file (n=20000, 10% density): "
           "load_sparse, CSR row gathers and the sum tree at large n")
    salt = 4
    T = 40
    seeds_per_call = 3
    N = 20_000
    D = 100
    DENSITY = 0.1
    METHODS = ("amsgrad", "ap_sgd", "dasgrad")

    def prepare(self):
        """Write the sparse dataset file the protocol loads on every call."""
        os.makedirs(self.workdir, exist_ok=True)
        self.path = os.path.join(self.workdir, "sparse_binary.txt")
        data = self.dg.datasets.synth_classification(
            self.N, self.D, 2, margin=3.0, sparsity=1.0 - self.DENSITY,
            seed=self.data_seed)
        with open(self.path, "w") as fh:
            fh.write("#d=%d #k=2\n" % self.D)
            for ex in data.examples:
                f = ex.features
                fh.write("%d %s\n" % (ex.label, " ".join(
                    "%d:%s" % (i, format(v, ".17g"))
                    for i, v in zip(f.indices, f.values))))
        h = self.dg.harness
        self.config = h.ExperimentConfig(
            problem=h.ProblemSpec(kind="binary-logistic", path=self.path,
                                  sparse=True, l2_lambda=1e-3),
            optimizers={m: h.convex_preset(m) for m in self.METHODS},
            T=self.T, seeds=self.run_seeds, metric_tick=10)

    def describe(self):
        return ("binary logistic n=%d d=%d density=%g (sparse file) "
                "batch=32 tick=10; %s" % (self.N, self.D, self.DENSITY,
                                          super().describe()))


WORKLOADS = {w.name: w for w in (VarianceSweep, LogisticConfig,
                                 DistributionMatching, SparseBinaryLarge)}


"""Spans recorded from outside the library.

A ``Tracer`` replaces functions of the dasgrad modules with wrappers that
record one span per call: name, start, end and the index of the enclosing
span. The library calls its own functions through module attributes
(``_optimizers.run``, ``_sampling.scores_dasgrad``) or module globals, so
replacing the attribute reaches every internal call. ``uninstall`` puts the
originals back.

Spans live in memory as parallel lists; ``reset`` drops them, and
``layer_totals`` folds them into per-layer self times and counts.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter

LAYERS = ("datasets", "problems", "sampling", "optimizers", "metrics",
          "harness")

# Private harness functions that write result files; traced so that file
# emission has a span of its own.
HARNESS_WRITERS = ("_write_aggregate_csv", "_write_comparison_csv",
                   "_write_metadata")

# SamplingTree.update runs once per leaf on every refresh: a span each would
# cost more than the call, so it is only counted. Its time, and the
# counter's, stays in the caller's self time (refresh_probabilities).
COUNT_ONLY_METHODS = ("update",)
SPAN_METHODS = ("sample_many",)

TICK_CALLS = ("problems.full_objective", "metrics.gradient_norm_variance",
              "metrics.accuracy")
SCORE_CALLS = ("sampling.scores_dasgrad", "sampling.scores_apsgd")
EMIT_CALLS = ("harness.write_trace_csv",) + tuple(
    "harness." + attr for attr in HARNESS_WRITERS)
SETUP_CALLS = ("metrics.solve_reference",)


def _n_of(obj):
    return int(getattr(obj, "n", 0))


def _work_hooks():
    """Span name -> function(args, result) giving (counter, amount)."""
    return {
        "sampling.sample_many": lambda a, r: ("sampling.draws", int(a[2])),
        "sampling.SamplingTree": lambda a, r: ("sampling.leaves_built",
                                               len(a[1])),
        "sampling.scores_dasgrad": lambda a, r: ("sampling.examples_scored",
                                                 _n_of(a[0])),
        "sampling.normalize_scores": lambda a, r: (
            "sampling.leaves_normalized", len(r)),
        "optimizers.refresh_probabilities": lambda a, r: (
            "optimizers.leaves_pushed", _n_of(a[0])),
        "metrics.solve_reference": lambda a, r: (
            "metrics.reference_iterations", int(r.solver_iterations)),
        "datasets.synth_centroid": lambda a, r: ("datasets.examples", r.n),
        "datasets.synth_classification": lambda a, r: ("datasets.examples",
                                                       r.n),
        "datasets.load_sparse": lambda a, r: ("datasets.examples", r.n),
        "datasets.load_dense_csv": lambda a, r: ("datasets.examples", r.n),
    }


class Tracer:
    """Wraps library functions and records their calls as spans.

    ``full=False`` wraps only what the end-to-end metrics need: every
    public ``datasets`` function, ``metrics.solve_reference`` and
    ``optimizers.run``, a few calls per optimizer run. ``full=True`` wraps
    every public function of the six layer modules, the harness writers and
    the ``SamplingTree`` methods.

    ``boundary``, when given, is called before every span that has no
    enclosing span, outside the span's own time.
    """

    def __init__(self, package, full, boundary=None):
        self.package = package
        self.full = full
        self.boundary = boundary
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self.run_log = []       # (method, steps, start, seconds) per run
        self._stack = []
        self._patches = []
        self._hooks = _work_hooks()

    # ------------------------------------------------------------------
    # installation

    def install(self):
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in sorted(vars(module).items()):
                if not self._wanted(layer, attr, obj, module):
                    continue
                self._patch(module, attr, "%s.%s" % (layer, attr))
        if self.full:
            for attr in HARNESS_WRITERS:
                self._patch(self.package.harness, attr, "harness." + attr)
            tree = self.package.sampling.SamplingTree
            self._patch(tree, "__init__", "sampling.SamplingTree")
            for attr in SPAN_METHODS:
                self._patch(tree, attr, "sampling." + attr)
            for attr in COUNT_ONLY_METHODS:
                self._patch(tree, attr, "sampling.tree_%s_calls" % attr,
                            count_only=True)
        return self

    def _wanted(self, layer, attr, obj, module):
        if attr.startswith("_") or not inspect.isfunction(obj):
            return False
        if obj.__module__ != module.__name__:
            return False
        if self.full:
            return True
        return (layer == "datasets" or attr == "solve_reference"
                or (layer, attr) == ("optimizers", "run"))

    def _patch(self, owner, attr, name, count_only=False):
        original = owner.__dict__[attr]
        wrapper = self._counter(name, original) if count_only \
            else self._spanner(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        counts = self.counts
        hook = self._hooks.get(name)
        log_run = name == "optimizers.run"
        clock = time.perf_counter
        boundary = self.boundary

        def spanned(*args, **kwargs):
            if boundary is not None and not stack:
                boundary()
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                counter, amount = hook(args, result)
                counts[counter] += amount
            if log_run:
                self.run_log.append((args[1].method, int(args[2]),
                                     starts[idx], ends[idx] - starts[idx]))
            return result
        return spanned

    def reset(self):
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        self.counts.clear()
        self.run_log.clear()
        self._stack.clear()

    # ------------------------------------------------------------------
    # reduction

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def setup_spans(self):
        """(start, seconds) of each span in data synthesis/loading,
        make_problem and the reference solve that no other such span
        encloses."""
        def is_setup(name):
            return name.startswith("datasets.") or name in SETUP_CALLS

        return [(self.starts[idx], self.ends[idx] - self.starts[idx])
                for idx, name in enumerate(self.names)
                if is_setup(name) and not (
                    self.parents[idx] >= 0
                    and is_setup(self.names[self.parents[idx]]))]

    def layer_totals(self):
        """Per-layer self times, selected inclusive times and work counts
        of the spans recorded since the last reset."""
        names, parents = self.names, self.parents
        dur = self.durations()
        child = [0.0] * len(names)
        for idx, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[idx]

        totals = Counter()
        for idx, name in enumerate(names):
            self_time = dur[idx] - child[idx]
            layer = name.split(".", 1)[0]
            totals[layer + ".self_s"] += self_time
            totals[name + ".calls"] += 1
            totals[name + ".incl_s"] += dur[idx]
            totals[name + ".self_s"] += self_time
            parent = names[parents[idx]] if parents[idx] >= 0 else None
            if name in TICK_CALLS and parent == "optimizers.run":
                totals["metrics.tick_s"] += dur[idx]
                if name == "metrics.gradient_norm_variance":
                    totals["metrics.ticks"] += 1
            if name in SCORE_CALLS and parent not in SCORE_CALLS:
                totals["sampling.scores_s"] += dur[idx]
                totals["sampling.scores_s." + self._score_caller(idx)] \
                    += dur[idx]
            if name in EMIT_CALLS:
                totals["harness.emit_s"] += dur[idx]
        totals["spans"] = len(names)
        for name, count in self.counts.items():
            totals[name] += count
        return totals

    def _score_caller(self, idx):
        p = self.parents[idx]
        while p >= 0:
            if self.names[p] == "optimizers.refresh_probabilities":
                return "refresh"
            if self.names[p] == "metrics.gradient_norm_variance":
                return "tick"
            p = self.parents[p]
        return "other"

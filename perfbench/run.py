"""dasgrad benchmark: one workload per invocation, run as a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload variance_sweep --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): variance_sweep, logistic_config,
distribution_matching, sparse_binary_large. One process calls the
workload's public dasgrad protocol again and again, each call after the
previous one has finished, for about ``--seconds``. The library is
imported from ``src/`` of the checkout the script sits in; BLAS is held to
one thread so timings are steady and traces are bit-stable.

Every call's output files are hashed. At the default seed (0) the hashes
must equal those recorded in checksums.json; at any seed every call must
reproduce the first call's files byte for byte. A run -- one (optimizer,
seed) pair -- fails when it diverges, when its call raises, or when a file
it wrote differs; a differing file shared by all runs of the call (an
aggregate or summary) fails every run of that call.

On a shared host the machine's speed can drift by tens of percent over
minutes, moving every time together. So the end-to-end times are given in
reference seconds: each stretch of a call is timed, divided by the time of
a fixed reference kernel (``calibration_seconds``) taken in the same
process at both ends of the stretch -- at the ends of the call and before
each of its top-level library calls -- and multiplied by the constant
REFERENCE_KERNEL_S. So the figures measure the work at one fixed machine
speed, close to that of a quiet 2-vCPU Xeon host, on which a reference
second is about a second. The text lines give every timing in stopwatch
seconds as well.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced calls with calls in which every public function of the six layer
modules is wrapped in a span (tracing.py), and reports per-layer self times
and counts per traced call, the time no span covers and the tracing
overhead.
Text lines describe the run; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

``--record-checksums`` (default seed only) stores the hashes of the first
call as the recorded ones for the workload.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

BLAS_THREADS = 1
DEFAULT_SEED = 0
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_work"
CHECKSUMS = HERE / "checksums.json"
TAIL_BEYOND = 10
# About the calibration kernel's time on a quiet 2-vCPU Xeon host; fixed, so
# that reference seconds compare across runs and commits.
REFERENCE_KERNEL_S = 0.004
# Run latency is reported per method: pooled, the 1.4-10x gap between dasgrad
# and amsgrad runs would put the median on the boundary between two clusters.
RUN_METHODS = ("dasgrad", "amsgrad")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-checksums", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_checksums and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-checksums needs --seed %d --trace 0"
                     % DEFAULT_SEED)
    return args


def import_dasgrad():
    """The dasgrad package from this checkout's src/, never an installed
    copy."""
    src = ROOT / "src"
    if not (src / "dasgrad" / "__init__.py").is_file():
        raise SystemExit("perfbench: no dasgrad sources under %s" % src)
    sys.path.insert(0, str(src))
    import dasgrad
    if Path(dasgrad.__file__).resolve().parent != (src / "dasgrad").resolve():
        raise SystemExit("perfbench: imported dasgrad from %s, not %s"
                         % (dasgrad.__file__, src))
    return dasgrad


def machine_facts():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS}


def hash_outputs(out):
    """{file name: sha256} of every file a call wrote, and their bytes."""
    hashes, size = {}, 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def failed_by_files(workload, hashes, reference, already_failed):
    """Runs failed by files that differ from the reference: a differing
    trace fails its run, any other differing file every run of the call."""
    by_trace = {workload.trace_name(key): key for key in workload.runs()
                if workload.trace_name(key)}
    failed = set()
    for name in sorted(set(hashes) | set(reference)):
        if hashes.get(name) == reference.get(name):
            continue
        key = by_trace.get(name)
        if key is None:
            return set(workload.runs()), ["%s differs" % name]
        if key not in already_failed:
            failed.add(key)
    return failed, ["%s differs" % workload.trace_name(k)
                    for k in sorted(failed, key=str)]


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, or None when it would not lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k <= (n - 1) / 2.0:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[k]


def calibration_seconds():
    """Seconds taken by one fixed reference kernel that does not use
    dasgrad, made of the three kinds of work a dasgrad run is made of: a
    pure-Python sum-tree update loop over a numpy array, a run of small
    numpy array operations, and dense passes over a 2000x100 matrix like a
    score or objective pass. Dividing a time by it taken next to the time
    cancels the drift of the machine's speed, which on a shared host moves
    all times together by tens of percent over minutes."""
    import numpy as np
    start = time.perf_counter()
    nodes = np.zeros(2048)
    for i in range(600):
        idx = 1024 + i
        nodes[idx] = 1.0 + (i & 7)
        idx >>= 1
        while idx:
            nodes[idx] = nodes[2 * idx] + nodes[2 * idx + 1]
            idx >>= 1
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(150):
        x = np.clip(x * 0.999 + 0.001, -1.0, 2.0)
        x.sum()
    X = np.linspace(-1.0, 1.0, 200_000).reshape(2000, 100)
    W = np.linspace(-0.5, 0.5, 1000).reshape(10, 100)
    for _ in range(3):
        Z = X @ W.T
        np.exp(Z - Z.max(axis=1, keepdims=True)).sum(axis=1)
    return time.perf_counter() - start


class Calibrations:
    """Reference-kernel timings taken at both ends of a call and before each
    of its top-level library calls (a data step, the reference solve or one
    optimizer run), so that every stretch of the call is scaled by the
    machine's speed measured right next to it."""

    def __init__(self):
        self.points = []        # (start, end, kernel seconds)

    def take(self):
        start = time.perf_counter()
        kernel = calibration_seconds()
        self.points.append((start, time.perf_counter(), kernel))

    def _scale(self, i):
        """Reference seconds per second for the stretch after point i. The
        kernel time is the median of the points from i-1 to i+2, so that one
        disturbed kernel does not rescale a long stretch such as the
        reference solve."""
        near = self.points[max(i - 1, 0):i + 3]
        return REFERENCE_KERNEL_S / statistics.median(p[2] for p in near)

    def wall(self):
        """Stopwatch seconds of the call, without the kernels taken inside
        it."""
        pts = self.points
        return sum(pts[i + 1][0] - pts[i][1] for i in range(len(pts) - 1))

    def wall_ref(self):
        """Reference seconds of the call, stretch by stretch."""
        pts = self.points
        return sum((pts[i + 1][0] - pts[i][1]) * self._scale(i)
                   for i in range(len(pts) - 1))

    def ref(self, start, seconds):
        """Reference seconds of a span inside one stretch."""
        return seconds * self._scale(
            bisect.bisect_right([p[1] for p in self.points], start) - 1)


class Phase:
    """Calls of one workload with tracing on or off, and what they gave."""

    def __init__(self, traced):
        self.traced = traced
        self.walls = []         # per call, stopwatch seconds
        self.wall_refs = []     # per call, reference seconds
        self.kernels = []       # every calibration kernel time taken
        self.setups = []
        self.setup_refs = []
        self.run_log = []       # (method, steps, seconds, reference seconds)
        self.totals = {}
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_call(dasgrad, workload, phase, out, reference):
    """Call the workload once, traced or not as ``phase`` says, and add its
    times, runs and checks to ``phase``. ``reference`` holds the expected
    output hashes; when it is empty this call's hashes are put into it.
    Untraced calls are calibrated before each top-level library call; traced
    calls only at their ends."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    cal = Calibrations()
    tracer = tracing.Tracer(dasgrad, full=phase.traced,
                            boundary=None if phase.traced else cal.take)
    runs = workload.runs()
    phase.calls += 1
    phase.attempted += len(runs)
    tracer.install()
    try:
        cal.take()
        failed, problems = workload.call(out)
        cal.take()
    except Exception:
        phase.failed += len(runs)
        phase.problems.append("call raised:\n" + traceback.format_exc())
        return
    finally:
        tracer.uninstall()
    hashes, size = hash_outputs(out)
    if not reference:
        reference.update(hashes)
    by_files, file_problems = failed_by_files(workload, hashes, reference,
                                              failed)
    failed |= by_files
    phase.failed += len(failed)
    phase.problems += problems + file_problems
    if failed:
        phase.problems.append("failed runs: %s" % sorted(failed, key=str))
    phase.walls.append(cal.wall())
    phase.wall_refs.append(cal.wall_ref())
    phase.kernels += [p[2] for p in cal.points]
    setups = tracer.setup_spans()
    phase.setups.append(sum(s for _, s in setups))
    phase.setup_refs.append(sum(cal.ref(st, s) for st, s in setups))
    phase.run_log += [(m, t, s, cal.ref(st, s))
                      for m, t, st, s in tracer.run_log]
    if phase.traced:
        totals = tracer.layer_totals()
        totals["harness.bytes_written"] += size
        for name, value in totals.items():
            phase.totals[name] = phase.totals.get(name, 0.0) + value


def run_window(dasgrad, workload, phases, seconds, out, reference):
    """Call the workload for about ``seconds``, taking the phases in turn,
    so that traced and untraced calls see the same drift of the machine.
    Each phase gets at least one call; after that another call starts only
    while it is expected to end less than half a call past the deadline."""
    start = time.perf_counter()
    for n in itertools.count():
        walls = [w for phase in phases for w in phase.walls]
        if n >= len(phases) and \
                time.perf_counter() - start + median(walls) / 2 >= seconds:
            return
        run_call(dasgrad, workload, phases[n % len(phases)], out, reference)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(phase):
    """End-to-end metrics of an untraced phase. Times are in reference
    seconds (see Calibrations); peak memory is as measured. Text lines give
    each timing's median, tail and sample count, in stopwatch and in
    reference seconds; the tails stay out of the metrics because on a
    shared 2-vCPU host short bursts spread them by 0.2-0.3 of their median
    across runs."""
    lines = []
    metrics = {}

    def timing(name, secs, refs):
        text = "  %-18s p50 %.6f s  p50 %.6f ref-s" % (
            name, median(secs), median(refs))
        if tail(secs):
            text += "  |  p%.0f %.6f s  p%.0f %.6f ref-s" % (
                tail(secs) + tail(refs))
        lines.append(text + "  (n=%d)" % len(secs))
        metrics[name] = (median(refs), "s")

    timing("wall_s", phase.walls, phase.wall_refs)
    timing("setup_s", phase.setups, phase.setup_refs)
    for method in RUN_METHODS:
        runs = [(s, r) for m, _, s, r in phase.run_log if m == method]
        timing("run_s.%s.p50" % method, [s for s, _ in runs],
               [r for _, r in runs])
    steps = sum(t for _, t, _, _ in phase.run_log)
    inside = sum(s for _, _, s, _ in phase.run_log)
    inside_ref = sum(r for _, _, _, r in phase.run_log)
    metrics["steps_per_s"] = (ratio(steps, inside_ref), "1/s")
    lines.append("  %-18s %.1f /s  %.1f /ref-s  (%d steps in %.3f s = "
                 "%.3f ref-s inside optimizers.run, %d runs)"
                 % ("steps_per_s", ratio(steps, inside),
                    ratio(steps, inside_ref), steps, inside, inside_ref,
                    len(phase.run_log)))
    lines.append("  %-18s median %.3f ms of %d kernels (reference %.3f ms)" % (
        "calibration", 1e3 * median(phase.kernels), len(phase.kernels),
        1e3 * REFERENCE_KERNEL_S))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak, "MB")
    lines.append("  %-18s %.1f" % ("peak_rss_mb", peak))
    return metrics, lines


def per_layer(traced, untraced):
    """Per-layer metrics from a traced phase, per call of the workload."""
    calls = max(len(traced.walls), 1)
    t = {name: value / calls for name, value in traced.totals.items()}

    def g(name):
        return t.get(name, 0.0)

    m = {
        "sampling.sample_many_s": (g("sampling.sample_many.incl_s"), "s"),
        "sampling.draws": (g("sampling.draws"), "count"),
        "sampling.sample_many_us_per_draw": (
            1e6 * ratio(g("sampling.sample_many.incl_s"),
                        g("sampling.draws")), "us"),
        "sampling.tree_build_s": (g("sampling.SamplingTree.incl_s"), "s"),
        "sampling.tree_builds": (g("sampling.SamplingTree.calls"), "count"),
        "sampling.tree_build_ns_per_leaf": (
            1e9 * ratio(g("sampling.SamplingTree.incl_s"),
                        g("sampling.leaves_built")), "ns"),
        "sampling.tree_update_calls": (g("sampling.tree_update_calls"),
                                       "count"),
        "sampling.scores_s": (g("sampling.scores_s"), "s"),
        "sampling.scores_s.refresh": (g("sampling.scores_s.refresh"), "s"),
        "sampling.scores_s.tick": (g("sampling.scores_s.tick"), "s"),
        "sampling.scores_ns_per_example": (
            1e9 * ratio(g("sampling.scores_s"),
                        g("sampling.examples_scored")), "ns"),
        "sampling.normalize_s": (g("sampling.normalize_scores.incl_s"), "s"),
        "sampling.normalize_ns_per_leaf": (
            1e9 * ratio(g("sampling.normalize_scores.incl_s"),
                        g("sampling.leaves_normalized")), "ns"),
        "sampling.self_s": (g("sampling.self_s"), "s"),
        "optimizers.refresh_self_s": (
            g("optimizers.refresh_probabilities.self_s"), "s"),
        "optimizers.refreshes": (
            g("optimizers.refresh_probabilities.calls"), "count"),
        "optimizers.leaves_pushed": (g("optimizers.leaves_pushed"), "count"),
        "optimizers.refresh_self_us_per_leaf": (
            1e6 * ratio(g("optimizers.refresh_probabilities.self_s"),
                        g("optimizers.leaves_pushed")), "us"),
        "optimizers.step_self_s": (g("optimizers.step_general.self_s"), "s"),
        "optimizers.steps": (g("optimizers.step_general.calls"), "count"),
        "optimizers.step_self_us_per_step": (
            1e6 * ratio(g("optimizers.step_general.self_s"),
                        g("optimizers.step_general.calls")), "us"),
        "optimizers.moment_update_s": (
            g("optimizers.moment_update.incl_s"), "s"),
        "optimizers.project_s": (g("optimizers.project_box.incl_s"), "s"),
        "optimizers.self_s": (g("optimizers.self_s"), "s"),
        "metrics.tick_s": (g("metrics.tick_s"), "s"),
        "metrics.ticks": (g("metrics.ticks"), "count"),
        "metrics.tick_ms_per_tick": (
            1e3 * ratio(g("metrics.tick_s"), g("metrics.ticks")), "ms"),
        "metrics.grad_norm_var_s": (
            g("metrics.gradient_norm_variance.incl_s"), "s"),
        "metrics.accuracy_s": (g("metrics.accuracy.incl_s"), "s"),
        "metrics.solve_reference_s": (g("metrics.solve_reference.incl_s"),
                                      "s"),
        "metrics.reference_iterations": (g("metrics.reference_iterations"),
                                         "count"),
        "metrics.reference_ms_per_iteration": (
            1e3 * ratio(g("metrics.solve_reference.incl_s"),
                        g("metrics.reference_iterations")), "ms"),
        "metrics.self_s": (g("metrics.self_s"), "s"),
        "problems.margins_calls": (g("problems.margins.calls"), "count"),
        "problems.full_objective_s": (g("problems.full_objective.incl_s"),
                                      "s"),
        "problems.full_gradient_s": (g("problems.full_gradient.incl_s"), "s"),
        "problems.self_s": (g("problems.self_s"), "s"),
        "datasets.synth_s": (g("datasets.synth_centroid.incl_s")
                             + g("datasets.synth_classification.incl_s"),
                             "s"),
        "datasets.load_s": (g("datasets.load_sparse.incl_s")
                            + g("datasets.load_dense_csv.incl_s"), "s"),
        "datasets.make_problem_s": (g("datasets.make_problem.incl_s"), "s"),
        "datasets.examples": (g("datasets.examples"), "count"),
        "datasets.self_s": (g("datasets.self_s"), "s"),
        "harness.emit_s": (g("harness.emit_s"), "s"),
        "harness.bytes_written": (g("harness.bytes_written"), "bytes"),
        "harness.emit_ns_per_byte": (
            1e9 * ratio(g("harness.emit_s"), g("harness.bytes_written")),
            "ns"),
        "harness.self_s": (g("harness.self_s"), "s"),
    }
    wall = ratio(sum(traced.walls), len(traced.walls))
    covered = sum(g(layer + ".self_s") for layer in tracing.LAYERS)
    m["unattributed_s"] = (wall - covered, "s")
    # Traced and untraced calls alternate, so the host's drift falls on both.
    m["trace.overhead_s"] = (median(traced.walls) - median(untraced.walls),
                             "s")
    m["trace.spans"] = (g("spans"), "count")
    return m


def report_phase(label, phase):
    print("%s: %d calls, %d runs attempted, %d failed"
          % (label, phase.calls, phase.attempted, phase.failed))
    for problem in phase.problems[:20]:
        print("  ! " + problem.rstrip().replace("\n", "\n    "))


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    dasgrad = import_dasgrad()
    os.chdir(ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    workdir = os.path.join(WORK_DIR, args.workload)
    out = os.path.join(workdir, "out")
    workload = workloads.WORKLOADS[args.workload](dasgrad, args.seed, workdir)

    print("machine: %s" % json.dumps(machine_facts(), sort_keys=True))
    print("workload %s seed %d: %s" % (workload.name, args.seed,
                                       workload.describe()))
    print("  why: %s" % workload.why)
    t0 = time.perf_counter()
    workload.prepare()
    print("  inputs prepared in %.3f s (not timed as set-up)"
          % (time.perf_counter() - t0))

    recorded = {}
    checked_against = "the first call of this process (seed %d has no " \
                      "recorded checksums)" % args.seed
    if args.record_checksums:
        checked_against = "the first call, whose hashes are being recorded"
    elif args.seed == DEFAULT_SEED:
        with open(CHECKSUMS) as fh:
            recorded = dict(json.load(fh).get(workload.name, {}))
        checked_against = "checksums.json"
    reference = dict(recorded)
    missing_record = args.seed == DEFAULT_SEED and not args.record_checksums \
        and not recorded

    untraced = Phase(traced=False)
    phases = [untraced]
    if args.trace:
        traced = Phase(traced=True)
        phases.append(traced)
    run_window(dasgrad, workload, phases, args.seconds, out, reference)

    print("outputs checked against %s" % checked_against)
    for phase in phases:
        report_phase("traced" if phase.traced else "untraced", phase)
    if missing_record:
        print("  ! no checksums recorded for %s" % workload.name)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not missing_record \
        and not any(p.problems for p in phases)
    print("runs_failed %d of runs_attempted %d" % (failed, attempted))
    if args.record_checksums and not correct:
        print("  ! checksums not recorded: the call did not pass its checks")
    elif args.record_checksums:
        with open(CHECKSUMS) as fh:
            table = json.load(fh)
        table[workload.name] = reference
        with open(CHECKSUMS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("recorded %d checksums for %s" % (len(reference), workload.name))

    e2e, lines = end_to_end(untraced)
    print("end-to-end (untraced):")
    print("\n".join(lines))
    if args.trace:
        metrics = per_layer(traced, untraced)
        print("per layer (traced, per call, %d calls):" % traced.calls)
        for name, (value, unit) in metrics.items():
            print("  %-38s %.6g %s" % (name, value, unit))
        print("tracing overhead: %.3f s per call on an untraced wall of "
              "%.3f s" % (metrics["trace.overhead_s"][0],
                          median(untraced.walls)))
    else:
        metrics = e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

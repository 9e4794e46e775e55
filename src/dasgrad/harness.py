"""Experiment harness: config files, trace/aggregate/comparison CSV
emission, and the desk-scale experiment protocols.

Trace CSV schema (one row per metric tick)::

    step,loss,accuracy,inst_regret,cum_regret,grad_norm_var

``accuracy`` is blank for centroid problems. The recorded loss includes
the L2 regularizer (it is part of every f_i).

Every CSV cell is written by one rule: a string as is, None blank, an
integer in decimal and any other number with 17 significant digits
(``format(float(x), ".17g")``), so reruns of the same config are byte
identical.

Config files are flat ``key = value`` lines with ``#`` comments; each
``[optimizer.<name>]`` section header starts one optimizer block. See
``configs/`` for working examples.

Every protocol call forks one helper process (the ``fork`` start method
is required) once its settings are accepted, through
``sharing._share_runs``. A sparse data file of more than one chunk is
parsed before that with a helper of its own, which ``datasets.load_sparse``
joins before it returns, so at most two processes run per call. Every
protocol regrets against ``metrics.solve_reference``, one solve per
distinct problem of the call. The solves and then the
call's (arm, seed) runs form one task list, which the helper takes from
the front (so it makes the solves first) and the parent from the back.
The helper's results come back pickled over a pipe in one message, and
the parent puts every task back in list order, so the written bytes are
those of one process making every solve and then every run in order.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields

import numpy as np

from . import datasets as _datasets
from . import metrics as _metrics
from . import optimizers as _optimizers
from . import problems as _problems
from . import sampling as _sampling
from . import sharing as _sharing

@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    path: str | None = None
    sparse: bool = False
    n: int = 200
    d: int = 10
    num_classes: int = 2
    sigma: float = 1.0
    margin: float = 4.0
    sparsity: float = 0.0
    data_seed: int = 0
    l2_lambda: float = 0.0

    def __post_init__(self):
        for name, key in (("n", "n"), ("d", "d"), ("num_classes", "classes")):
            whole = _optimizers._whole(getattr(self, name))
            if whole is None:
                raise _optimizers.SettingError("%s must be whole, got %r" % (
                    key, getattr(self, name)), name)
            object.__setattr__(self, name, whole)
        kinds = _problems.KINDS
        _optimizers._check_rules(self, [
            (self.kind in kinds, "kind must be one of " + ", ".join(kinds),
             "kind"),
            (self.path != "", "path must not be empty", "path"),
            (self.n >= 1, "n must be at least 1", "n"),
            (self.d >= 1, "d must be at least 1", "d"),
            (self.num_classes >= 2, "classes must be at least 2",
             "num_classes"),
            (0 <= self.sigma < math.inf,
             "sigma must be finite and nonnegative", "sigma"),
            (0 <= self.margin < math.inf,
             "margin must be finite and nonnegative", "margin"),
            (0 <= self.sparsity <= 1, "sparsity must lie in [0, 1]",
             "sparsity"),
            (self.data_seed >= 0, "data_seed must be nonnegative",
             "data_seed"),
            (0 <= self.l2_lambda < math.inf,
             "lambda must be finite and nonnegative", "l2_lambda"),
            # settings at odds with another
            (self.kind != _problems.CENTROID or self.l2_lambda == 0,
             "lambda must be 0 for a centroid problem, whose loss has no L2 "
             "term", "l2_lambda"),
            (self.kind != _problems.BINARY_LOGISTIC or self.num_classes == 2,
             "classes must be 2 for a binary-logistic problem",
             "num_classes"),
            (self.kind == _problems.CENTROID or self.path
             or self.n >= self.num_classes,
             "n must be at least classes (%s) to synthesize a %s problem"
             % (self.num_classes, self.kind), "n", "num_classes")])

    def dataset(self):
        """The spec's Dataset: its file loaded, or its synthetic draw."""
        if self.path:
            loader = _datasets.load_sparse if self.sparse \
                else _datasets.load_dense_csv
            return loader(self.path)
        if self.kind == _problems.CENTROID:
            return _datasets.synth_centroid(self.n, self.d, self.sigma,
                                            self.data_seed)
        return _datasets.synth_classification(
            self.n, self.d, self.num_classes, margin=self.margin,
            sparsity=self.sparsity, seed=self.data_seed)

    def build(self):
        dataset = self.dataset()
        return dataset, _datasets.make_problem(dataset, self.kind,
                                               self.l2_lambda)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    optimizers: dict            # name -> OptimizerConfig
    T: int = 500
    seeds: tuple = (0, 1)
    metric_tick: int = 10
    output_dir: str = "out"
    reference_tol: float = _metrics.REFERENCE_TOL
    reference_max_iters: int = _metrics.REFERENCE_MAX_ITERS

    def __post_init__(self):
        object.__setattr__(self, "seeds", _check_run_settings(
            self.T, self.metric_tick, self.seeds, 1))
        _optimizers._check_rules(self, [
            (self.optimizers, "need at least one optimizer", "optimizers"),
            (0 < self.reference_tol < math.inf,
             "reference_tol must be finite and positive", "reference_tol")])
        _optimizers._positive_int("reference_max_iters",
                                  self.reference_max_iters)


def _check_run_settings(T, metric_tick, seeds, min_seeds):
    """The seeds as a tuple of ints. Rejects a bool or non-integral seed,
    too few seeds, a negative one and a repeated one (it would count one
    run twice), a T or tick that ``run`` rejects and a tick above T (no
    trace rows)."""
    given = tuple(seeds)
    seeds = tuple(map(_optimizers._whole, given))
    if None in seeds:
        raise _optimizers.SettingError(
            "seeds must be whole, got %s" % ",".join(map(str, given)), "seeds")
    if len(seeds) < min_seeds:
        raise _optimizers.SettingError("need at least %s, got %d" % (
            ("one seed", "two seeds")[min_seeds - 1], len(seeds)), "seeds")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise _optimizers.SettingError(
            "seeds must not repeat or be negative, got %s"
            % ",".join(str(s) for s in seeds), "seeds")
    T = _optimizers._positive_int("T", T)
    if _optimizers._positive_int("metric_tick", metric_tick) > T:
        raise _optimizers.SettingError(
            "metric_tick must lie in [1, T=%d], got %d" % (T, metric_tick),
            "metric_tick", "T")
    return seeds


def convex_preset(method, **overrides):
    """OptimizerConfig with the convex-experiment hyperparameters (alpha
    0.01, beta1 0.9, beta2 0.99, batch 32, refresh 10), which are its
    defaults."""
    return _optimizers.OptimizerConfig(method=method, **overrides)


# ---------------------------------------------------------------------------
# config file parsing

def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _parse_box(text):
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _parse_ints(text):
    return tuple(int(v) for v in text.split(","))


# config key -> type converter; these are the only keys a config may use
_GLOBAL_KEYS = {
    "kind": str, "path": str, "sparse": _parse_bool, "n": int, "d": int,
    "classes": int, "sigma": float, "margin": float, "sparsity": float,
    "data_seed": int, "lambda": float, "T": int, "seeds": _parse_ints,
    "metric_tick": int, "output_dir": str, "reference_tol": float,
    "reference_max_iters": int,
}
_OPTIMIZER_KEYS = {
    "method": str, "alpha": float, "beta1": float, "beta2": float,
    "epsilon_div": float, "epsilon_prob": float, "beta1_decay": float,
    "refresh_period": int, "batch_size": int, "box": _parse_box,
}
# config keys whose dataclass field has another name
_FIELD_OF_KEY = {"classes": "num_classes", "lambda": "l2_lambda",
                 "box": "projection"}
_PROBLEM_FIELDS = {f.name for f in fields(ProblemSpec)}


def parse_config_text(text, base_dir="."):
    """Parse the flat key = value format into an ExperimentConfig; a
    section's method is its name unless a ``method`` line says otherwise.
    The parser only converts values to their types and builds the
    ProblemSpec, each OptimizerConfig and the ExperimentConfig, whose rules
    decide what is accepted. Every error names a line: a bad key or value
    its own, a SettingError that of the first of its fields that the
    section sets, else the optimizer section's header line."""
    globals_kv = current = {}
    optimizer_kv = {}
    header_line = {}
    field_line = {}     # (section, field) -> line; section None: globals
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not (line.startswith("[optimizer.") and line.endswith("]")):
                raise ValueError("line %d: bad section header %r"
                                 % (line_no, line))
            section = line[len("[optimizer."):-1]
            if not section or section in optimizer_kv:
                raise ValueError("line %d: bad or duplicate optimizer name"
                                 % line_no)
            current = optimizer_kv[section] = {}
            header_line[section] = line_no
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        converters = _GLOBAL_KEYS if section is None else _OPTIMIZER_KEYS
        if key not in converters:
            raise ValueError("line %d: unknown key %r" % (line_no, key))
        field = _FIELD_OF_KEY.get(key, key)
        if field in current:
            raise ValueError("line %d: key %r repeats line %d"
                             % (line_no, key, field_line[section, field]))
        try:
            current[field] = converters[key](value)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (line_no, exc)) from None
        field_line[section, field] = line_no

    if not optimizer_kv:
        raise ValueError("config defines no [optimizer.*] section")

    def build(make, section, kv, **rest):
        try:
            return make(**kv, **rest)
        except _optimizers.SettingError as exc:
            line_no = next((field_line[section, f] for f in exc.fields
                            if (section, f) in field_line),
                           header_line.get(section))
            at = "" if section is None else "[optimizer.%s]: " % section
            raise ValueError("line %d: %s%s" % (line_no, at, exc)) from None

    spec_kv = {"kind": _problems.CENTROID}
    for key in _PROBLEM_FIELDS & set(globals_kv):
        spec_kv[key] = globals_kv.pop(key)
    if spec_kv.get("path"):     # a relative path is read from base_dir
        spec_kv["path"] = os.path.join(base_dir, spec_kv["path"])
    spec = build(ProblemSpec, None, spec_kv)
    optimizers = {name: build(_optimizers.OptimizerConfig, name,
                              {"method": name, **kv})
                  for name, kv in optimizer_kv.items()}
    return build(ExperimentConfig, None, globals_kv, problem=spec,
                 optimizers=optimizers)


def load_config(path):
    with open(path) as fh:
        return parse_config_text(fh.read(), base_dir=os.path.dirname(path) or ".")


# ---------------------------------------------------------------------------
# CSV emission

TRACE_HEADER = "step,loss,accuracy,inst_regret,cum_regret,grad_norm_var"


def _cell(x):
    """One CSV cell: a str as is, None blank, an int or np.integer in
    decimal, any other number with 17 significant digits."""
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return "%d" % x
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    """Write the ``header`` names and then each row, one comma-joined line
    of cells apiece; every CSV file of the harness is written here."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_trace_csv(path, result, f_star, cum_regret):
    """The trace of ``result`` against ``f_star``, whose cumulative regret
    ``np.cumsum(result.loss - f_star)`` the caller has already taken."""
    inst = result.loss - f_star
    acc = [None] * len(result.ticks) if result.accuracy is None \
        else result.accuracy
    _write_csv(path, TRACE_HEADER.split(","),
               zip(result.ticks, result.loss, acc, inst, cum_regret,
                   result.grad_norm_var))


def _write_aggregate_csv(path, steps, named_aggregates):
    """named_aggregates: list of (metric_name, AggregateTrace or None)."""
    header = ["step"] + ["%s_%s" % (name, col) for name, _ in named_aggregates
                         for col in ("mean", "ci_low", "ci_high")]
    header.append("n_seeds")
    n_seeds = next(agg.n_seeds for _, agg in named_aggregates if agg is not None)
    columns = [steps]
    for _, agg in named_aggregates:
        columns += [[None] * len(steps)] * 3 if agg is None \
            else [agg.mean, agg.ci_low, agg.ci_high]
    columns.append([n_seeds] * len(steps))
    _write_csv(path, header, zip(*columns))


class ExperimentResults(dict):
    """Results of one protocol call; the runner keys completed runs (arm,
    seed). A diverged run has no entry: ``failures`` lists it as (arm, seed,
    step, message), as in failures.csv. ``skipped`` names the outputs left
    out because fewer than two seeds completed or paired. ``cum_regret``
    maps the runner's key of a completed run to its cumulative regret and
    ``reference`` each arm to the ReferenceSolution of its problem."""

    def __init__(self, items=(), failures=()):
        super().__init__(items)
        self.failures = list(failures)
        self.skipped = []
        self.cum_regret = {}
        self.reference = {}

    def runs(self, name):
        """The completed runs of arm ``name``, in seed order."""
        return [run for (arm, _), run in self.items() if arm == name]

    def paired(self, *names, value=lambda run: run):
        """One list per arm in ``names`` of ``value(run)`` over the seeds
        every one of those arms completed, in seed order."""
        seeds = [run.seed for run in self.runs(names[0])
                 if all((name, run.seed) in self for name in names)]
        return [[value(self[name, seed]) for seed in seeds]
                for name in names]


def _run_arms(arms, seeds, T, metric_tick, out, own, writes, trace=None,
              eval_set=None, tol=_metrics.REFERENCE_TOL,
              max_iters=_metrics.REFERENCE_MAX_ITERS):
    """Make one ``metrics.solve_reference(problem, tol, max_iters)`` per
    distinct problem of ``arms``, name -> (problem, OptimizerConfig), and
    every (arm, seed) run. A run that diverged, or whose cumulative regret
    against its problem's f_star is not finite at a tick, is recorded in
    ``failures``, never raised, and has no entry; out/failures.csv lists
    this call's failures and exists only if any. Each completed run's trace
    is written to out/(trace % (arm, seed)) when ``trace`` is given; the
    caller writes the names ``writes`` in out afterwards. Target label
    counts that no arm's problem can draw, and a directory at any name the
    call writes in out, raise ValueError before out is made. Then, before
    the helper is forked, makes out and removes failures.csv and every
    file in it whose whole name matches the regular expression ``own``,
    the form of the call's per-run and per-arm outputs, so that no earlier
    call's file of those forms survives there, whatever seeds or arms that
    call ran. No other file is touched.

    The solves, in arm order, then the (arm, seed) runs form one task list
    shared with one forked helper (see sharing._share_runs), which takes
    tasks from its front while the parent takes them from its back. Results
    are rebuilt in list order, so every output byte is that of one process
    making every task in order. The returned ExperimentResults'
    ``cum_regret`` holds each completed run's cumulative regret and its
    ``reference`` each arm's ReferenceSolution."""
    for problem, config in arms.values():
        _optimizers._check_target_counts(problem, config.target_label_counts)
    problems = list(dict.fromkeys(p for p, _ in arms.values()))
    tasks = problems + [(name, seed) for name in arms for seed in seeds]
    written = ["failures.csv", *writes]
    written += [trace % key for key in tasks[len(problems):]] if trace else []
    for path in (os.path.join(out, name) for name in written):
        if os.path.isdir(path):
            raise ValueError("output %s is a directory" % path)

    def attempt(i):
        if i < len(problems):
            return _metrics.solve_reference(problems[i], tol, max_iters)
        name, seed = tasks[i]
        problem, config = arms[name]
        try:
            return _optimizers.run(problem, config, T, seed,
                                   metric_tick=metric_tick, eval_set=eval_set)
        except _optimizers.DivergenceError as exc:
            return name, seed, exc.step, str(exc)

    os.makedirs(out, exist_ok=True)
    for name in os.listdir(out):
        path = os.path.join(out, name)
        if (name == "failures.csv" or re.fullmatch(own, name)) \
                and os.path.isfile(path):
            os.remove(path)
    done = _sharing._share_runs(attempt, len(tasks))
    results = ExperimentResults()
    results.reference = {n: done[problems.index(arms[n][0])] for n in arms}
    for i in range(len(problems), len(tasks)):
        if isinstance(done[i], _optimizers.RunResult):
            results[tasks[i]] = done[i]
        else:
            results.failures.append(done[i])
    for (name, seed), run in list(results.items()):
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.cumsum(run.loss - results.reference[name].f_star)
        finite = np.isfinite(cum)
        if finite.all():
            results.cum_regret[name, seed] = cum
            continue
        step = int(run.ticks[finite.argmin()])
        del results[name, seed]
        results.failures.append(
            (name, seed, step, "nonfinite regret at step %d" % step))
    if results.failures:
        _write_csv(os.path.join(out, "failures.csv"),
                   ["optimizer", "seed", "step", "message"], results.failures)
    for key, run in results.items() if trace else ():
        write_trace_csv(os.path.join(out, trace % key), run,
                        results.reference[key[0]].f_star,
                        results.cum_regret[key])
    return results


def run_experiment(config):
    """Solve the reference and execute every (optimizer, seed) run, shared
    with one forked helper, writing per-seed traces (see _run_arms); then
    write one aggregate CSV per optimizer, a dasgrad-vs-baseline comparison
    CSV, and a metadata file. Returns the in-memory ExperimentResults of
    this call."""
    dataset, problem = config.problem.build()
    out = config.output_dir
    names = sorted(config.optimizers)
    # the centroid solve is closed-form and ignores tol and max_iters
    results = _run_arms(
        {n: (problem, config.optimizers[n]) for n in names}, config.seeds,
        config.T, config.metric_tick, out,
        r"trace_.+_\d+\.csv|aggregate_.+\.csv|comparison\.csv",
        ["aggregate_%s.csv" % n for n in names]
        + ["comparison.csv", "metadata.txt"],
        trace="trace_%s_%d.csv", tol=config.reference_tol,
        max_iters=config.reference_max_iters)

    aggregated = []
    for name in names:
        runs = results.runs(name)
        if len(runs) < 2:
            results.skipped.append("aggregate_%s.csv" % name)
            continue
        aggregated.append(name)
        steps = runs[0].ticks
        acc_agg = None if runs[0].accuracy is None else \
            _metrics.aggregate_runs([r.accuracy for r in runs])
        _write_aggregate_csv(
            os.path.join(out, "aggregate_%s.csv" % name), steps,
            [("loss", _metrics.aggregate_runs([r.loss for r in runs])),
             ("accuracy", acc_agg),
             ("cum_regret", _metrics.aggregate_runs(
                 [results.cum_regret[name, r.seed] for r in runs]))])

    if "dasgrad" in aggregated and len(aggregated) > 1:
        _write_comparison_csv(os.path.join(out, "comparison.csv"), results,
                              [n for n in aggregated if n != "dasgrad"])
    elif "dasgrad" in names and len(names) > 1:
        results.skipped.append("comparison.csv")

    _write_metadata(os.path.join(out, "metadata.txt"), config, dataset,
                    problem, results.reference[names[0]])
    return results


def _write_comparison_csv(path, results, baselines):
    """Per-tick improvement of dasgrad over each baseline. Loss improvement
    is baseline - dasgrad; accuracy improvement is dasgrad - baseline.
    Paired columns (the gain mean among them) use per-seed differences over
    the seeds both arms completed; a baseline sharing fewer than two such
    seeds with dasgrad gets no rows. Unpaired columns treat every completed
    run of each arm as an independent sample."""
    das = results.runs("dasgrad")
    header = ["step", "baseline"] + [
        "%s_gain_%s" % (metric, col) for metric in ("loss", "acc")
        for col in ("mean", "paired_lo", "paired_hi", "unpaired_lo",
                    "unpaired_hi")]
    rows = []
    for base in baselines:
        if len(results.paired(base, "dasgrad")[0]) < 2:
            continue
        gains = [("loss", base, "dasgrad")]
        if das[0].accuracy is not None:
            gains.append(("accuracy", "dasgrad", base))
        # per gain a - b: rows of every run of a and of b, then the rows of
        # the seeds both completed
        stacks = [[np.array([getattr(r, attr) for r in runs])
                   for runs in [results.runs(a), results.runs(b)]
                   + results.paired(a, b)] for attr, a, b in gains]
        for row, step in enumerate(das[0].ticks):
            cells = [step, base]
            for a, b, a_paired, b_paired in stacks:
                cells += _metrics.paired_ci(a_paired[:, row], b_paired[:, row])
                cells += _metrics.unpaired_ci(a[:, row], b[:, row])[1:]
            rows.append(cells + [None] * (len(header) - len(cells)))
    _write_csv(path, header, rows)


def _write_metadata(path, config, dataset, problem, reference):
    lines = [
        "provenance = %s" % dataset.provenance,
        "kind = %s" % problem.kind,
        "n = %d" % problem.n,
        "d = %d" % problem.d,
        "classes = %d" % problem.num_classes,
        "lambda = %s" % _cell(problem.l2_lambda),
        "T = %d" % config.T,
        "seeds = %s" % ",".join(str(s) for s in config.seeds),
        "metric_tick = %d" % config.metric_tick,
        "loss_includes_regularizer = true",
        "reference_f_star = %s" % _cell(reference.f_star),
        "reference_grad_norm = %s" % _cell(reference.grad_norm_at_star),
        "reference_converged = %s" % str(reference.converged).lower(),
        "reference_iterations = %d" % reference.solver_iterations,
    ]
    if dataset.provenance.startswith("synth"):
        lines.append("note = synthetic stand-in dataset; real corpora enter "
                     "via the CSV/sparse loaders")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment protocols

# calibrated desk-scale defaults for the centroid variance sweep
SWEEP_DEFAULTS = dict(n=200, d=10, T=500, batch_size=8, alpha=0.01,
                      metric_tick=1, data_seed=11)


def _protocol_settings(defaults, overrides, seeds):
    """(``defaults`` updated by ``overrides``, seeds as a tuple). Raises
    ValueError on an unknown setting and on what _check_run_settings
    rejects, with two seeds at least: the paired CIs need them."""
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError("unknown setting(s): %s" % ", ".join(unknown))
    p = {**defaults, **overrides}
    return p, _check_run_settings(p["T"], p["metric_tick"], seeds, 2)


def sweep_variance(sigmas, seeds, output_dir, methods=("amsgrad", "dasgrad"),
                   **overrides):
    """Centroid variance sweep over ``sigmas``; ``overrides`` replace
    SWEEP_DEFAULTS. Per sigma, over the seeds every method completed: an
    aggregate CSV of cumulative regret, and a sweep_summary.csv row with
    the paired CI of the final-regret gap (first baseline minus dasgrad).
    failures.csv names a diverged run <method>_sigma<tag>; a sigma left with
    fewer than two seeds gets neither and is named in ``skipped``. Raises
    ValueError before any run on a bad setting (see _protocol_settings).
    Returns ExperimentResults {sigma: {method: [completed RunResult]}}."""
    p, seeds = _protocol_settings(SWEEP_DEFAULTS, overrides, seeds)
    if "dasgrad" not in methods or len(methods) < 2:
        raise ValueError("the sweep compares dasgrad against a baseline")
    baseline = next(m for m in methods if m != "dasgrad")

    arms, per_sigma = {}, []
    for sigma in sigmas:
        tag = ("%g" % sigma).replace(".", "p")
        _, problem = ProblemSpec(kind=_problems.CENTROID, n=p["n"], d=p["d"],
                                 sigma=sigma, data_seed=p["data_seed"]).build()
        names = ["%s_sigma%s" % (m, tag) for m in methods]
        for name, method in zip(names, methods):
            arms[name] = (problem, convex_preset(
                method, alpha=p["alpha"], batch_size=p["batch_size"]))
        per_sigma.append((sigma, tag, names))
    if len(arms) < len(sigmas) * len(methods):
        raise ValueError("methods and sigma tags (6 significant digits) "
                         "must not repeat")
    runs = _run_arms(arms, seeds, p["T"], p["metric_tick"], output_dir,
                     r"sweep_aggregate_sigma.+\.csv",
                     ["sweep_aggregate_sigma%s.csv" % tag
                      for _, tag, _ in per_sigma] + ["sweep_summary.csv"])

    results = ExperimentResults(failures=runs.failures)
    summary_rows = []
    for sigma, tag, names in per_sigma:
        results[sigma] = {m: runs.runs(n) for m, n in zip(methods, names)}
        paired = dict(zip(methods, runs.paired(*names)))
        aggregate = "sweep_aggregate_sigma%s.csv" % tag
        if len(paired["dasgrad"]) < 2:
            results.skipped.append(aggregate)
            continue
        cums = {m: [runs.cum_regret[n, r.seed] for r in paired[m]]
                for m, n in zip(methods, names)}
        _write_aggregate_csv(os.path.join(output_dir, aggregate),
                             paired["dasgrad"][0].ticks,
                             [(m, _metrics.aggregate_runs(cums[m]))
                              for m in methods])
        finals = {m: np.array([c[-1] for c in cums[m]]) for m in methods}
        summary_rows.append([float(v) for v in (
            (sigma, _metrics._rescaled(np.mean, finals["dasgrad"]),
             _metrics._rescaled(np.mean, finals[baseline]))
            + _metrics.paired_ci(finals[baseline], finals["dasgrad"]))])

    _write_csv(os.path.join(output_dir, "sweep_summary.csv"),
               ["sigma", "dasgrad_final_mean", baseline + "_final_mean",
                "gap_mean", "gap_paired_lo", "gap_paired_hi"], summary_rows)
    return results


# calibrated desk-scale defaults for the distribution-matching experiment
MATCHING_DEFAULTS = dict(n_train=2000, n_eval=800, d=40, num_classes=4,
                         margin=3.0, drop_labels=(1, 3), keep_fraction=0.1,
                         l2_lambda=1e-3, T=2000, alpha=0.01, batch_size=32,
                         metric_tick=20, data_seed=23)


def matching_datasets(p=MATCHING_DEFAULTS):
    """The (unbalanced training, balanced evaluation) Datasets that the
    matching protocol builds from its settings ``p``, MATCHING_DEFAULTS or
    an updated copy: one synthetic draw split at ``n_train``, whose
    training part keeps ``keep_fraction`` of each class in
    ``drop_labels``. Raises SettingError, naming the setting, on a problem
    setting that ProblemSpec rejects and on an empty split."""
    for name in ("n_train", "n_eval"):
        _optimizers._positive_int(name, p[name])
    total = ProblemSpec(kind=_problems.MULTICLASS_LOGISTIC,
                        n=p["n_train"] + p["n_eval"], d=p["d"],
                        num_classes=p["num_classes"], margin=p["margin"],
                        data_seed=p["data_seed"],
                        l2_lambda=p["l2_lambda"]).dataset()
    split = p["n_train"]
    train = _datasets.Dataset(total.X[:split], total.y[:split],
                              total.num_classes, total.provenance + "|train")
    eval_ds = _datasets.Dataset(total.X[split:], total.y[split:],
                                total.num_classes, total.provenance + "|eval")
    return _datasets.unbalance(train, p["drop_labels"], p["keep_fraction"],
                               p["data_seed"]), eval_ds


def matching_experiment(seeds, output_dir, **overrides):
    """Distribution-matching protocol: unbalance two classes of a synthetic
    multiclass problem, train DASGrad with target-distribution importance
    weights against a uniform-sampling AMSGrad baseline, and compare
    balanced-test accuracy; ``overrides`` replace MATCHING_DEFAULTS. The
    regret baseline is solved at ``metrics.solve_reference``'s defaults
    (see _run_arms). Writes a trace per
    completed run and a summary CSV: each arm's mean final accuracy, and
    the paired CI of the final accuracy gap over the seeds both arms
    completed. With fewer than two such seeds the gap lines are left out
    and named in ``skipped``. Raises ValueError before any run on
    a bad setting (see _protocol_settings), and before output_dir is made
    or the helper starts when unbalancing leaves a class with no training
    row, as the balanced target still weighs it (see _run_arms). Returns
    (ExperimentResults {arm: [completed RunResult]}, (gap, lo, hi) or
    None)."""
    p, seeds = _protocol_settings(MATCHING_DEFAULTS, overrides, seeds)
    train, eval_ds = matching_datasets(p)
    problem = _datasets.make_problem(train, _problems.MULTICLASS_LOGISTIC,
                                     p["l2_lambda"])
    arms = {
        "dasgrad_target": (problem, convex_preset(
            "dasgrad", alpha=p["alpha"], batch_size=p["batch_size"],
            target_label_counts=eval_ds.label_counts())),
        "amsgrad_uniform": (problem, convex_preset(
            "amsgrad", alpha=p["alpha"], batch_size=p["batch_size"])),
    }

    runs = _run_arms(arms, seeds, p["T"], p["metric_tick"], output_dir,
                     r"matching_trace_.+_\d+\.csv", ["matching_summary.csv"],
                     trace="matching_trace_%s_%d.csv",
                     eval_set=(eval_ds.X, eval_ds.y))
    results = ExperimentResults({name: runs.runs(name) for name in arms},
                                runs.failures)
    results.reference = runs.reference
    paired = runs.paired("dasgrad_target", "amsgrad_uniform",
                         value=lambda r: r.accuracy[-1])
    gap = _metrics.paired_ci(*paired) if len(paired[0]) >= 2 else None
    _write_csv(os.path.join(output_dir, "matching_summary.csv"),
               ["arm", "final_balanced_accuracy_mean"],
               [(name, np.mean([r.accuracy[-1] for r in results[name]]))
                for name in sorted(arms) if results[name]]
               + [("accuracy_gap_" + label, value) for label, value
                  in zip(("mean", "paired_lo", "paired_hi"), gap or ())])
    if gap is None:
        results.skipped.append("matching_summary.csv accuracy_gap rows")
    return results, gap


# ---------------------------------------------------------------------------
# self verification

def self_check(verbose=True):
    """Fast internal consistency suite: gradient checks, the sampler law,
    and the importance-sampling identities. Returns True when every check
    passes."""
    checks = []

    rng = np.random.default_rng(404)
    for kind in _problems.KINDS:
        worst = 0.0
        for _ in range(20):
            problem, theta = _random_instance(kind, rng)
            worst = max(worst,
                        _problems.finite_difference_check(problem, theta, 1e-6))
        checks.append(("gradient/%s (max rel err %.2e)" % (kind, worst),
                       worst < 1e-5))

    weights = 0.1 + np.random.default_rng(7).random(1000)
    draws = _sampling.SamplingTree(weights).sample_many(
        np.random.default_rng(7), 200_000)
    freq = np.bincount(draws, minlength=1000) / 200_000
    p = weights / weights.sum()
    bound = 4.0 * np.sqrt(p * (1 - p) / 200_000)
    sampler_ok = bool(np.all(np.abs(freq - p) <= bound))
    checks.append(("sampler law (200k draws, 4 sigma)", sampler_ok))

    id_rng = np.random.default_rng(9)
    ident_ok = True
    for _ in range(50):
        n = int(id_rng.integers(2, 50))
        probs = _sampling.normalize_scores(id_rng.random(n), 1e-3)
        g = id_rng.standard_normal((n, 3))
        w = _sampling.importance_weight(probs, n)
        lhs = (probs[:, None] * w[:, None] * g).sum(axis=0)
        ident_ok &= bool(np.all(np.abs(lhs - g.mean(axis=0)) < 1e-12))
    checks.append(("unbiasedness identity", ident_ok))

    lm_rng = np.random.default_rng(10)
    lemma_ok = True
    for _ in range(20):
        norms = 0.05 + lm_rng.random(50)
        p_star = _sampling.normalize_scores(norms, 1e-12)
        val = _sampling.expected_weighted_second_moment(p_star, norms)
        target = norms.mean() ** 2
        lemma_ok &= abs(val - target) <= 1e-10 * target
        identity = (norms**2).mean() - np.var(norms)
        lemma_ok &= abs(val - identity) <= 1e-9 * identity
    checks.append(("weighted-second-moment minimum identity", lemma_ok))

    all_ok = all(passed for _, passed in checks)
    if verbose:
        for label, passed in checks:
            print("%s %s" % ("PASS" if passed else "FAIL", label))
        print("self-check %s" % ("OK" if all_ok else "FAILED"))
    return all_ok


def _gaussian_rows(rng, n, d, k):
    """n standard-normal rows of length d, each followed by a label drawn
    from [0, k) (no draw when k == 1), as an (X, y) pair."""
    pairs = [(rng.standard_normal(d), int(rng.integers(0, k)) if k > 1 else 0)
             for _ in range(n)]
    return (np.array([x for x, _ in pairs]),
            np.array([label for _, label in pairs], dtype=np.int64))


def _random_instance(kind, rng):
    n = int(rng.integers(3, 10))
    d = int(rng.integers(2, 6))
    if kind == _problems.CENTROID:
        problem = _problems.Problem(*_gaussian_rows(rng, n, d, 1), kind)
    elif kind == _problems.BINARY_LOGISTIC:
        problem = _problems.Problem(*_gaussian_rows(rng, n, d, 2), kind,
                                    l2_lambda=0.1)
    else:
        k = int(rng.integers(3, 5))
        problem = _problems.Problem(*_gaussian_rows(rng, n, d, k), kind,
                                    l2_lambda=0.1, num_classes=k)
    theta = rng.standard_normal(problem.param_dim)
    return problem, theta

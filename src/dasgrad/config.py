"""Settings: every config key, its converter, default and rule.

Config files are flat ``key = value`` lines with ``#`` comments; each
``[optimizer.<name>]`` section header starts one optimizer block, whose
name may hold only letters, digits, ``_``, ``-`` and ``.``. A config
takes ``path`` (and ``sparse``) or the synthesis keys its kind reads
(``ProblemSpec.READS``), not both. See ``configs/`` for working examples.
The parser only converts values; the dataclass that holds a setting keeps
its default and rules, and raises ``SettingError`` on a rejected one.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import datasets as _datasets
from . import metrics as _metrics
from . import problems as _problems

METHODS = ("sgd", "ap_sgd", "adagrad", "rmsprop", "adam", "amsgrad", "dasgrad")


class SettingError(ValueError):
    """Raised when a setting lies outside its range or is at odds with
    another; ``fields`` names the dataclass fields the rule concerns, the
    one to blame first."""

    def __init__(self, message, *fields):
        super().__init__(message)
        self.fields = fields


def _check_rules(settings, rules):
    """Raise SettingError for the first (ok, rule, *fields) of ``rules``
    whose ``ok`` is false, quoting the value of its first field."""
    for ok, rule, *fields in rules:
        if not ok:
            raise SettingError("%s, got %r"
                               % (rule, getattr(settings, fields[0])), *fields)


def _whole(value):
    """value as a Python int; None for a bool or a non-integral value."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if isinstance(value, (bool, np.bool_)) or whole != value:
        return None
    return whole


def _positive_int(name, value):
    """value as a Python int >= 1; a bool or a non-integral number is
    rejected (the block arithmetic of ``optimizers.run`` needs whole ones)."""
    whole = _whole(value)
    if whole is None or whole < 1:
        raise SettingError("%s must be at least 1 and whole, got %r"
                           % (name, value), name)
    return whole


def _parse_bool(text):
    if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError("expected a boolean, got %r" % text)
    return text.lower() in ("true", "1", "yes")


def _parse_box(text):
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


# config key -> (dataclass field, converter), one table per section: above
# the first section a problem key goes to the ProblemSpec and a run key to
# the ExperimentConfig, and an optimizer key to its section's
# OptimizerConfig. These are the only keys a config may use.
_PROBLEM_KEYS = {
    "kind": ("kind", str), "path": ("path", str),
    "sparse": ("sparse", _parse_bool), "n": ("n", int), "d": ("d", int),
    "classes": ("num_classes", int), "sigma": ("sigma", float),
    "margin": ("margin", float), "sparsity": ("sparsity", float),
    "data_seed": ("data_seed", int), "lambda": ("l2_lambda", float)}
_RUN_KEYS = {
    "T": ("T", int),
    "seeds": ("seeds", lambda text: tuple(map(int, text.split(",")))),
    "metric_tick": ("metric_tick", int), "output_dir": ("output_dir", str),
    "reference_tol": ("reference_tol", float),
    "reference_max_iters": ("reference_max_iters", int)}
_OPTIMIZER_KEYS = {
    "method": ("method", str), "alpha": ("alpha", float),
    "beta1": ("beta1", float), "beta2": ("beta2", float),
    "epsilon_div": ("epsilon_div", float),
    "epsilon_prob": ("epsilon_prob", float),
    "beta1_decay": ("beta1_decay", float),
    "refresh_period": ("refresh_period", int),
    "batch_size": ("batch_size", int), "box": ("projection", _parse_box)}


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    alpha: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.99
    epsilon_div: float = 1e-8
    epsilon_prob: float = 1e-8
    refresh_period: int = 10
    batch_size: int = 32
    # effectively unconstrained unless the caller configures a real box
    projection: tuple = (-1e6, 1e6)
    # per-class counts of the target (test) labels, stored as a tuple of
    # ints; giving them turns target mode on, and m is their total
    target_label_counts: tuple | None = None
    beta1_decay: float = 1.0            # beta1_t = beta1 * decay**(t-1)

    def __post_init__(self):
        if self.method not in METHODS:
            raise SettingError("unknown method %r" % (self.method,), "method")
        moments = self.method in ("adam", "amsgrad", "dasgrad")
        _check_rules(self, [
            (0 < self.alpha < math.inf, "alpha must be finite and positive",
             "alpha"),
            (0 <= self.beta1 < 1, "beta1 must lie in [0, 1)", "beta1"),
            (0 <= self.beta2 < 1, "beta2 must lie in [0, 1)", "beta2"),
            (not moments or 0 < self.beta2
             and self.beta1 / math.sqrt(self.beta2) < 1,
             "beta1 / sqrt(beta2) must be below 1 for " + self.method,
             "beta1", "beta2"),
            (0 < self.epsilon_div < math.inf,
             "epsilon_div must be finite and positive", "epsilon_div"),
            (0 < self.epsilon_prob < math.inf,
             "epsilon_prob must be finite and positive", "epsilon_prob"),
            (0 <= self.beta1_decay <= 1, "beta1_decay must lie in [0, 1]",
             "beta1_decay")])
        for name in ("refresh_period", "batch_size"):
            object.__setattr__(self, name,
                               _positive_int(name, getattr(self, name)))
        counts = self.target_label_counts
        if counts is not None:
            ints = tuple(map(_whole, counts))
            if None in ints or min(ints, default=0) < 0 or sum(ints) < 1:
                raise SettingError("target_label_counts must be nonnegative "
                                   "integers with a positive total",
                                   "target_label_counts")
            object.__setattr__(self, "target_label_counts", ints)
        lo, hi = self.projection
        if np.ndim(lo) or np.ndim(hi) or not float(lo) <= float(hi):
            raise SettingError("projection box bounds must be two scalars "
                               "with lo <= hi and no NaN", "projection")
        object.__setattr__(self, "projection", (float(lo), float(hi)))

    def beta1_at(self, t):
        if self.method in ("sgd", "ap_sgd", "adagrad", "rmsprop"):
            return 0.0
        return self.beta1 * self.beta1_decay ** (t - 1)


def _check_target_counts(problem, counts):
    """Target label counts, when given, need one count per class of the
    problem, and none positive on a class with no training row: no draw
    reaches such a class, so the weighted estimator would miss its mass."""
    if counts is None:
        return
    if len(counts) != problem.num_classes:
        raise ValueError("need one target label count per class (%d), got %d"
                         % (problem.num_classes, len(counts)))
    unreachable = [str(k) for k, c in enumerate(counts)
                   if c > 0 and problem.class_counts[k] == 0]
    if unreachable:
        raise ValueError("positive target label count on class(es) with no "
                         "training row: %s" % ", ".join(unreachable))


# the convex-experiment hyperparameters (alpha 0.01, beta1 0.9, beta2 0.99,
# batch 32, refresh 10) are OptimizerConfig's defaults
convex_preset = OptimizerConfig


@dataclass(frozen=True)
class ProblemSpec:
    """The problem of an experiment: the data file at ``path``, read in the
    sparse format when ``sparse``, or else a synthetic draw of its kind;
    ``l2_lambda`` applies to both. ``READS`` maps each source of data to
    its ``datasets`` function and the fields it passes, in order; every
    other field that some source reads must keep its default."""

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

    _SYNTHESIS = ("n", "d", "num_classes", "margin", "sparsity", "data_seed")
    READS: ClassVar[dict] = {
        "sparse file": ("load_sparse", ("path",)),
        "dense file": ("load_dense_csv", ("path",)),
        _problems.CENTROID: ("synth_centroid",
                             ("n", "d", "sigma", "data_seed")),
        _problems.BINARY_LOGISTIC: ("synth_classification", _SYNTHESIS),
        _problems.MULTICLASS_LOGISTIC: ("synth_classification", _SYNTHESIS)}

    def __post_init__(self):
        for key, (name, convert) in _PROBLEM_KEYS.items():
            if convert is int:      # a count or the data seed
                whole = _whole(getattr(self, name))
                if whole is None:
                    raise SettingError("%s must be whole, got %r"
                                       % (key, getattr(self, name)), name)
                object.__setattr__(self, name, whole)
        _check_rules(self, [(self.kind in _problems.KINDS, "kind must be one "
                             "of " + ", ".join(_problems.KINDS), "kind")])
        defaults = {f.name: f.default for f in fields(self)}
        reads = self._source()[1]
        _check_rules(self, [
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
            (self.path or not self.sparse, "sparse needs a path", "sparse"),
            *((name in reads or getattr(self, name) == defaults[name],
               "%s applies only without a path, whose file decides it" % key
               if self.path else "%s does not apply to a synthetic %s "
               "problem" % (key, self.kind), name)
              for key, (name, _) in _PROBLEM_KEYS.items()
              if any(name in row for _, row in self.READS.values())),
            (self.kind != _problems.CENTROID or self.l2_lambda == 0,
             "lambda must be 0 for a centroid problem, whose loss has no L2 "
             "term", "l2_lambda"),
            (self.kind != _problems.BINARY_LOGISTIC or self.num_classes == 2,
             "classes must be 2 for a binary-logistic problem",
             "num_classes"),
            (self.kind == _problems.CENTROID or self.n >= self.num_classes,
             "n must be at least classes (%s) to synthesize a %s problem"
             % (self.num_classes, self.kind), "n", "num_classes")])

    def _source(self):
        """The spec's row of READS: its file's format, else its kind."""
        return self.READS[("sparse file" if self.sparse else "dense file")
                          if self.path else self.kind]

    def dataset(self):
        """The spec's Dataset: its source's ``datasets`` function, looked up
        on the module at each call (so a wrapper set there sees every load
        and draw), called on the fields it reads."""
        name, reads = self._source()
        return getattr(_datasets, name)(*(getattr(self, f) for f in reads))

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
        checked = _check_run_settings(self.T, self.metric_tick, self.seeds, 1)
        for name, value in zip(("T", "metric_tick", "seeds"), checked):
            object.__setattr__(self, name, value)
        # a name is part of output file names and of comparison.csv cells;
        # the error's second field is the name, whose header the parser names
        for name in self.optimizers:
            if not (isinstance(name, str)
                    and re.fullmatch(r"[A-Za-z0-9_.-]+", name)):
                raise SettingError(
                    "optimizer names may hold only letters, digits, _, - "
                    "and ., got %r" % (name,), "optimizers", name)
        _check_rules(self, [
            (self.optimizers, "need at least one optimizer", "optimizers"),
            (0 < self.reference_tol < math.inf,
             "reference_tol must be finite and positive", "reference_tol")])
        object.__setattr__(self, "reference_max_iters", _positive_int(
            "reference_max_iters", self.reference_max_iters))


def _check_run_settings(T, metric_tick, seeds, min_seeds):
    """(T, metric_tick, seeds): two ints and a tuple of ints. Rejects a
    bool or non-integral seed, too few seeds, a negative one and a repeated
    one (it would count one run twice), a T or tick that ``optimizers.run``
    rejects and a tick above T (no trace rows)."""
    given = tuple(seeds)
    seeds = tuple(map(_whole, given))
    if None in seeds:
        raise SettingError(
            "seeds must be whole, got %s" % ",".join(map(str, given)), "seeds")
    if len(seeds) < min_seeds:
        raise SettingError("need at least %s, got %d" % (
            ("one seed", "two seeds")[min_seeds - 1], len(seeds)), "seeds")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise SettingError(
            "seeds must not repeat or be negative, got %s"
            % ",".join(str(s) for s in seeds), "seeds")
    T = _positive_int("T", T)
    metric_tick = _positive_int("metric_tick", metric_tick)
    if metric_tick > T:
        raise SettingError(
            "metric_tick must lie in [1, T=%d], got %d" % (T, metric_tick),
            "metric_tick", "T")
    return T, metric_tick, seeds


def _protocol_settings(defaults, overrides, seeds):
    """(``defaults`` updated by ``overrides``, T and metric_tick as ints,
    seeds as a tuple). Raises ValueError on an unknown setting and on what
    _check_run_settings rejects, with two seeds at least: the paired CIs
    need them."""
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError("unknown setting(s): %s" % ", ".join(unknown))
    p = {**defaults, **overrides}
    p["T"], p["metric_tick"], seeds = _check_run_settings(
        p["T"], p["metric_tick"], seeds, 2)
    return p, seeds


def parse_config_text(text, base_dir="."):
    """Parse the flat key = value format into an ExperimentConfig; a
    section's method is its name unless a ``method`` line says otherwise.
    Every error names a line: a bad key or value its own, a SettingError
    that of the first of its fields that the section sets, else the
    optimizer section's header line, as it does for a section name that
    ExperimentConfig rejects."""
    problem_kv, run_kv, optimizer_kv = {}, {}, {}
    header_line = {}
    field_line = {}     # (section, field) -> line; section None: the top
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
            if section in optimizer_kv:
                raise ValueError("line %d: duplicate optimizer name"
                                 % line_no)
            optimizer_kv[section] = {}
            header_line[section] = line_no
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if section is None:     # a run key, else a problem key
            table, kv = ((_RUN_KEYS, run_kv) if key in _RUN_KEYS
                         else (_PROBLEM_KEYS, problem_kv))
        else:
            table, kv = _OPTIMIZER_KEYS, optimizer_kv[section]
        if key not in table:
            raise ValueError("line %d: unknown key %r" % (line_no, key))
        field, convert = table[key]
        if field in kv:
            raise ValueError("line %d: key %r repeats line %d"
                             % (line_no, key, field_line[section, field]))
        try:
            kv[field] = convert(value)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (line_no, exc)) from None
        field_line[section, field] = line_no

    if not optimizer_kv:
        raise ValueError("config defines no [optimizer.*] section")

    def build(make, section, kv, **rest):
        try:
            return make(**kv, **rest)
        except SettingError as exc:
            if exc.fields[0] == "optimizers" and len(exc.fields) > 1:
                section = exc.fields[1]     # a rule on one section's name
            line_no = next((field_line[section, f] for f in exc.fields
                            if (section, f) in field_line),
                           header_line.get(section))
            at = "" if section is None else "[optimizer.%s]: " % section
            raise ValueError("line %d: %s%s" % (line_no, at, exc)) from None

    if problem_kv.get("path"):     # a relative path is read from base_dir
        problem_kv["path"] = os.path.join(base_dir, problem_kv["path"])
    spec = build(ProblemSpec, None, {"kind": _problems.CENTROID, **problem_kv})
    optimizers = {name: build(OptimizerConfig, name, {"method": name, **kv})
                  for name, kv in optimizer_kv.items()}
    return build(ExperimentConfig, None, run_kv, problem=spec,
                 optimizers=optimizers)


def load_config(path):
    """Parse the config file ``path``, read as UTF-8. A byte that is not
    UTF-8 is kept as is: a comment may hold one, and a number that holds
    one fails, naming its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_config_text(fh.read(), base_dir=os.path.dirname(path) or ".")

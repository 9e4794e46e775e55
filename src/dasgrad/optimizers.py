"""Stepping engine for the stochastic gradient family.

One engine drives all seven methods; they differ only in the momentum blend,
the diagonal preconditioner, and whether the sampling distribution adapts:

* ``sgd``       -- uniform sampling, identity preconditioner.
* ``ap_sgd``    -- adaptive sampling by gradient norms, identity preconditioner.
* ``adagrad``   -- uniform sampling, (1/t) sum g^2 preconditioner.
* ``rmsprop``   -- uniform sampling, EMA of g^2, no momentum.
* ``adam``      -- uniform sampling, momentum + EMA of g^2 (no bias
  correction: the raw recursion is used, unlike most deep-learning Adams).
* ``amsgrad``   -- adam plus the running coordinatewise max of v.
* ``dasgrad``   -- amsgrad plus adaptive sampling by preconditioned
  candidate-direction norms, refreshed every ``refresh_period`` steps.

A run's state is theta, the moments (m, v, v_hat) and the SamplingTree,
which holds the sampling distribution and its running sums. v is the one
second-moment statistic: the EMA of g^2, or adagrad's running sum of g^2.

Every step samples ``batch_size`` indices i.i.d. with replacement from the
current distribution and averages the importance-weighted per-index
directions. Without target label counts the moment recursion absorbs the
raw batch mean of the sampled gradients; with them (target mode) it absorbs
the weighted mean, which is the estimate of the target-distribution risk
gradient that the momentum must track. Uniform sampling with unit weights
reproduces the unweighted methods bit for bit either way: a dasgrad run
with ``refresh_period`` above T never refreshes and is amsgrad, and ap_sgd
stepped without its refreshes is sgd.

The distribution changes only at a refresh, so ``run`` works in blocks
that end at the next refresh. ap_sgd refreshes before step 1 and dasgrad
first before step ``refresh_period``; each then refreshes at every
multiple of the period. The other methods never refresh, so their blocks
run to the end of the run. The indices of all a block's steps
are drawn in one ``sample_many`` call, and their rows gathered (CSR rows
densified) and weighted once. A block whose densified rows would pass
``_BLOCK_BYTES`` (1 MiB) is cut into blocks of whole steps, never less
than one. Each step slices its own ``batch_size`` rows.
One draw of k * batch_size uniforms is the same stream as k draws of
batch_size, so blocks reproduce per-step sampling bit for bit.

Every ``metric_tick`` steps the run records the loss, the gradient-norm
variance and the accuracy. The theta of each tick step stays pending,
across blocks, until one more would stack past ``metrics._TICK_BYTES`` or
the run ends; the pending thetas are taken in one ``metrics.tick`` call
on their stack, the same values as one call per tick step. A diverging
run raises ``DivergenceError`` at the step that makes theta nonfinite,
the tick that reads a nonfinite loss or the refresh that reads nonfinite
scores, whichever comes first: when a step or a refresh diverges, the
pending ticks are taken first, so a nonfinite loss at an earlier tick is
still the error raised. ``run`` ignores float overflow and invalid values
in its whole loop, so nothing in a run raises a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from . import problems as _problems
from . import sampling as _sampling

METHODS = ("sgd", "ap_sgd", "adagrad", "rmsprop", "adam", "amsgrad", "dasgrad")
_ADAPTIVE_PROBS = ("ap_sgd", "dasgrad")

# effectively unconstrained unless the caller configures a real box
DEFAULT_BOX = (-1e6, 1e6)


class DivergenceError(RuntimeError):
    """Raised when an update produces a nonfinite parameter vector, a
    metric tick a nonfinite loss or gradient-norm variance, or a refresh
    nonfinite scores."""

    def __init__(self, step, message="nonfinite update"):
        super().__init__("%s at step %d" % (message, step))
        self.step = step
        self.message = message

    def __reduce__(self):
        return type(self), (self.step, self.message)


class SettingError(ValueError):
    """Raised when a setting lies outside its range or is at odds with
    another; ``fields`` names the dataclass fields the rule concerns, the
    one to blame first."""

    def __init__(self, message, *fields):
        super().__init__(message)
        self.fields = fields


@dataclass
class MomentState:
    """Running moment vectors of one optimization run: the momentum m, the
    second moment v (the EMA of g^2, or adagrad's running sum of g^2) and
    v_hat, the running max of v for amsgrad and dasgrad and v itself for
    adam and rmsprop."""

    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray

    @classmethod
    def zeros(cls, dim):
        return cls(m=np.zeros(dim), v=np.zeros(dim), v_hat=np.zeros(dim))


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
    projection: tuple = DEFAULT_BOX
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
            ints = tuple(int(c) for c in counts)
            if ints != tuple(counts) or min(ints, default=0) < 0 \
                    or sum(ints) < 1:
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


def _check_rules(settings, rules):
    """Raise SettingError for the first (ok, rule, *fields) of ``rules``
    whose ``ok`` is false, quoting the value of its first field."""
    for ok, rule, *fields in rules:
        if not ok:
            raise SettingError("%s, got %r"
                               % (rule, getattr(settings, fields[0])), *fields)


def _whole(value):
    """value as a Python int, or None for a bool or a non-integral
    value."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    if isinstance(value, (bool, np.bool_)) or whole != value:
        return None
    return whole


def _positive_int(name, value):
    """value as a Python int >= 1. Bools and non-integral numbers are
    rejected: the block arithmetic of ``run`` needs whole periods."""
    whole = _whole(value)
    if whole is None or whole < 1:
        raise SettingError("%s must be at least 1 and whole, got %r"
                           % (name, value), name)
    return whole


def moment_update(state, g, beta1_t, beta2, use_max):
    """One moment recursion step:
    m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2, and v_hat keeps the
    coordinatewise max of v when use_max is set (otherwise it is v: v is
    rebound here, never changed in place, so the alias is safe).

    g is a float64 vector of m's shape and b1, b2 lie in [0, 1), as
    ``OptimizerConfig`` guarantees; neither is checked here. A g of another
    length raises numpy's broadcast ValueError before the state changes,
    but a length-1 g broadcasts over every coordinate."""
    state.m = beta1_t * state.m + (1.0 - beta1_t) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    if use_max:
        state.v_hat = np.maximum(state.v_hat, state.v)
    else:
        state.v_hat = state.v


def _weights_for(problem, indices, tree, config):
    """Importance weights for the sampled indices, or None when every
    weight is one (no target counts and a method with fixed uniform
    sampling).

    Without target counts the weights unbias toward the uniform training
    mean. Target mode is the Radon-Nikodym derivative of the class-matched
    target distribution: (test count of the class / m) is split evenly over
    the class's training examples, so the weighted estimator is unbiased
    for the target-label risk under any sampling distribution.
    """
    counts = config.target_label_counts
    if counts is None and config.method not in _ADAPTIVE_PROBS:
        return None
    p = tree.weights[indices]
    if counts is None:
        return _sampling.importance_weight(p, problem.n)
    labels = problem.y[indices]
    w = _sampling.target_weight(
        p, np.asarray(counts, dtype=np.float64)[labels], sum(counts))
    return w / problem.class_counts[labels]


def draw_batch(problem, tree, rng, config, size):
    """Draw ``size`` indices i.i.d. from the tree's distribution and return
    the batch (X, y, w): their rows (CSR rows densified), labels and
    weights, w None for unit weights (see ``_weights_for``)."""
    indices = tree.sample_many(rng, size)
    X, y = _problems.gather_rows(problem, indices)
    return X, y, _weights_for(problem, indices, tree, config)


def step_general(problem, theta, state, batch, config, t):
    """One step of the general method on a drawn batch (X, y, w), as
    ``draw_batch`` returns it: advance the moment state, average the
    importance-weighted per-index directions, and project. Returns the new
    theta.

    A theta strictly inside the box (lo < min and max < hi) is returned as
    the update made it: there ``np.clip`` is the identity and every
    coordinate is finite, so neither is taken. Any other theta is clipped,
    and a nonfinite one raises DivergenceError at step t."""
    X, y, w = batch
    G = _problems.batch_gradients(problem, theta, X, y)
    # np.add.reduce(a, axis=0) / len(a) is what a.mean(axis=0) computes,
    # without the Python wrapper it pays on every step
    B = len(G)
    if w is None:
        # w * G would be G and w.mean() one, bit for bit
        g_weighted = g_state = np.add.reduce(G, axis=0) / B
    else:
        g_weighted = np.add.reduce(w[:, None] * G, axis=0) / B
        w_mean = np.add.reduce(w) / B
        # Without target counts the recursion takes the raw batch mean of
        # the sampled gradients. Target mode feeds the corrected estimate
        # instead: its weights recenter the stream on the target-distribution
        # risk, which is the objective the momentum must track, and the
        # coupling of numerator and denominator keeps early steps bounded
        # when weights differ from one at t = 1.
        if config.target_label_counts is not None:
            g_state = g_weighted
        else:
            g_state = np.add.reduce(G, axis=0) / B

    method = config.method
    lo, hi = config.projection
    if method in ("sgd", "ap_sgd"):
        direction = g_weighted
    elif method == "adagrad":
        state.v = state.v + g_state * g_state
        denom = np.sqrt(state.v / t) + config.epsilon_div
        direction = g_weighted / denom
    else:
        beta1_t = config.beta1_at(t)
        m_prev = state.m
        moment_update(state, g_state, beta1_t, config.beta2,
                      method in ("amsgrad", "dasgrad"))
        denom = np.sqrt(state.v_hat) + config.epsilon_div
        if w is None:
            # with unit weights the blend below is the new m, bit for bit:
            # w_mean is 1.0 and g_weighted is g_state
            direction = state.m / denom
        else:
            # mean_b w_b (b1 m_prev + (1 - b1) g_b) / denom, without the
            # stack
            direction = (beta1_t * w_mean * m_prev
                         + (1.0 - beta1_t) * g_weighted) / denom
    new_theta = theta - config.alpha / math.sqrt(t) * direction
    # a NaN fails both tests, as the reductions propagate it
    if not (lo < np.minimum.reduce(new_theta)
            and np.maximum.reduce(new_theta) < hi):
        # OptimizerConfig guarantees lo <= hi
        new_theta = np.clip(new_theta, lo, hi)
        if not np.isfinite(new_theta).all():
            raise DivergenceError(t)
    return new_theta


def refresh_probabilities(problem, theta, state, config, tree, t):
    """Recompute the sampling distribution from the current scores before
    step t and load it into the tree in one O(n) rebuild. Scores whose
    total is not finite raise DivergenceError: an overflow in them belongs
    to a diverging run, not to bad input."""
    if config.method == "ap_sgd":
        scores = _sampling.scores_apsgd(problem, theta)
    elif config.method == "dasgrad":
        scores = _sampling.scores_dasgrad(problem, theta, state.m,
                                          state.v_hat,
                                          config.beta1_at(max(t - 1, 1)),
                                          eps_div=config.epsilon_div)
    else:
        raise ValueError("method %r does not adapt probabilities"
                         % (config.method,))
    total = np.add.reduce(scores)
    if not math.isfinite(total):
        raise DivergenceError(t, "nonfinite scores")
    tree.set_all(_sampling.normalize_scores(scores, config.epsilon_prob))


@dataclass
class RunResult:
    """Trace of one run: metrics on the tick grid and the final theta.
    ``accuracy`` is None for centroid problems."""

    ticks: np.ndarray
    loss: np.ndarray
    accuracy: np.ndarray | None
    grad_norm_var: np.ndarray
    theta: np.ndarray
    seed: int


# A block whose densified rows would pass this many bytes is cut into
# blocks of whole steps, never less than one, so that a run that never
# refreshes gathers about this much at most; the cut draws the same stream
# (see the module docstring).
_BLOCK_BYTES = 1 << 20


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


def run(problem, config, T, seed, metric_tick=10, eval_set=None):
    """Run T steps from theta = 0. Deterministic given (config, seed).
    Metrics are recorded whenever t % metric_tick == 0; accuracy is
    computed on the (X, y) pair eval_set when given, else on the problem's
    own rows."""
    T = _positive_int("T", T)
    metric_tick = _positive_int("metric_tick", metric_tick)
    _check_target_counts(problem, config.target_label_counts)
    rng = np.random.default_rng(seed)
    theta = np.zeros(problem.param_dim)
    state = MomentState.zeros(problem.param_dim)
    tree = _sampling.SamplingTree(np.full(problem.n, 1.0 / problem.n))

    trace = ticks, losses, gvars, accs = [], [], [], []
    due, thetas = [], []    # the pending tick steps and their theta

    B, period = config.batch_size, config.refresh_period
    max_steps = max(1, _BLOCK_BYTES // (B * problem.d * 8))
    # the step of the next refresh (see the module docstring)
    refresh_at = {"ap_sgd": 1, "dasgrad": period}.get(config.method, T + 1)
    # pending ticks are taken once their thetas would stack past
    # metrics._TICK_BYTES, the bytes a centroid tick forms per chunk
    max_ticks = max(1, _metrics._TICK_BYTES // (problem.param_dim * 8))
    t = 1
    # an overflow on the way to a divergence is reported by DivergenceError
    # (at a step, a tick or a refresh), never by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            while t <= T:
                if t == refresh_at:
                    refresh_probabilities(problem, theta, state, config, tree,
                                          t)
                    refresh_at = t - t % period + period
                end = min(refresh_at, T + 1, t + max_steps)
                X, y, w = draw_batch(problem, tree, rng, config,
                                     (end - t) * B)
                for lo in range(0, len(y), B):
                    rows = slice(lo, lo + B)
                    batch = X[rows], y[rows], None if w is None else w[rows]
                    theta = step_general(problem, theta, state, batch, config,
                                         t)
                    if t % metric_tick == 0:
                        due.append(t)
                        thetas.append(theta)
                        if len(due) == max_ticks:
                            _take_ticks(problem, due, thetas, eval_set, trace)
                    t += 1
        except DivergenceError:
            # pending ticks come before the failing step or refresh: a
            # nonfinite loss among them is the run's first divergence
            if due:
                _take_ticks(problem, due, thetas, eval_set, trace)
            raise
        if due:
            _take_ticks(problem, due, thetas, eval_set, trace)

    return RunResult(ticks=np.array(ticks, dtype=np.int64),
                     loss=np.array(losses),
                     accuracy=None if problem.kind == _problems.CENTROID
                     else np.array(accs),
                     grad_norm_var=np.array(gvars), theta=theta, seed=seed)


def _take_ticks(problem, due, thetas, eval_set, trace):
    """``metrics.tick`` at the stack of pending thetas, the parameters after
    the steps due, appended to the trace's (ticks, loss, gvar, acc) lists;
    due and thetas are emptied. The first step whose loss or gradient-norm
    variance is not finite raises DivergenceError."""
    loss, gvar, acc = _metrics.tick(problem, thetas, eval_set)
    bad = ~(np.isfinite(loss) & np.isfinite(gvar))
    steps = due[:]
    del due[:], thetas[:]
    if bad.any():
        raise DivergenceError(steps[bad.argmax()], "nonfinite loss")
    ticks, losses, gvars, accs = trace
    ticks += steps
    losses.extend(loss)
    gvars.extend(gvar)
    if acc is not None:
        accs.extend(acc)

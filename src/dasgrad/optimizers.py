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
reproduces the unweighted methods bit for bit either way.

The distribution changes only at a refresh, so ``run`` works in refresh
blocks. A block starts at t = 1 and at every multiple of ``refresh_period``
(the only steps where a refresh can happen). The indices of all its steps
are drawn in one ``sample_many`` call, and their rows gathered (CSR rows
densified) and weighted once. A block holds at most
``refresh_period * batch_size`` gathered rows; one of more than
``_BLOCK_ROWS`` rows is cut into blocks of whole steps. Each step slices
its own ``batch_size`` rows. One draw of k * batch_size uniforms is the
same stream as k draws of batch_size, so blocks reproduce per-step
sampling bit for bit.

Every ``metric_tick`` steps the run records the loss, the gradient-norm
variance and the accuracy. A block keeps the theta of each of its tick
steps and takes them in one ``metrics.tick`` call on their stack when the
block ends, the same values as one call per tick step. A diverging run
raises ``DivergenceError`` at the step that makes theta nonfinite, the
tick that reads a nonfinite loss or the refresh that reads nonfinite
scores, whichever comes first: when a step diverges, the block's pending
ticks are taken first, so a nonfinite loss at an earlier tick is still the
error raised. ``run`` ignores float overflow and invalid values in its
whole loop, so nothing in a run raises a numpy warning.
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
    freeze_probabilities: bool = False  # keep the distribution uniform

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError("unknown method %r" % (self.method,))
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.method in ("adam", "amsgrad", "dasgrad"):
            if self.beta2 == 0.0 or self.beta1 / np.sqrt(self.beta2) >= 1.0:
                raise ValueError("need beta1 / sqrt(beta2) < 1 for %s"
                                 % self.method)
        if not (0 < self.epsilon_div < math.inf
                and 0 < self.epsilon_prob < math.inf):
            raise ValueError("epsilons must be finite and positive")
        if not 0.0 <= self.beta1_decay <= 1.0:
            raise ValueError("beta1_decay must lie in [0, 1]")
        for name in ("refresh_period", "batch_size"):
            object.__setattr__(self, name,
                               _positive_int(name, getattr(self, name)))
        counts = self.target_label_counts
        if counts is not None:
            ints = tuple(int(c) for c in counts)
            if ints != tuple(counts) or min(ints, default=0) < 0 \
                    or sum(ints) < 1:
                raise ValueError("target_label_counts must be nonnegative "
                                 "integers with a positive total")
            object.__setattr__(self, "target_label_counts", ints)
        lo, hi = self.projection
        if np.ndim(lo) or np.ndim(hi):
            raise ValueError("projection box bounds must be two scalars")
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            raise ValueError("projection box needs lo <= hi and no NaN")
        object.__setattr__(self, "projection", (lo, hi))

    def beta1_at(self, t):
        if self.method in ("sgd", "ap_sgd", "adagrad", "rmsprop"):
            return 0.0
        return self.beta1 * self.beta1_decay ** (t - 1)


def _positive_int(name, value):
    """value as a Python int >= 1. Bools and non-integral numbers are
    rejected: the block arithmetic of ``run`` needs whole periods."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if isinstance(value, (bool, np.bool_)) or whole is None \
            or whole != value or whole < 1:
        raise ValueError("%s must be at least 1 and whole, got %r"
                         % (name, value))
    return whole


def moment_update(state, g, beta1_t, beta2, use_max):
    """One moment recursion step:
    m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2, and v_hat keeps the
    coordinatewise max of v when use_max is set (otherwise it is v: v is
    rebound here, never changed in place, so the alias is safe)."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != state.m.shape:
        raise ValueError("gradient shape %s does not match state %s"
                         % (g.shape, state.m.shape))
    if not (0.0 <= beta1_t < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta parameters must lie in [0, 1)")
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
    p = tree.leaves(indices)
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
    theta."""
    X, y, w = batch
    G = _problems.batch_gradients(problem, theta, X, y)
    # np.add.reduce(a, axis=0) / len(a) is what a.mean(axis=0) computes,
    # without the Python wrapper it pays on every step
    B = len(G)
    if w is None:
        # w * G would be G and w.mean() one, bit for bit
        g_weighted = g_state = np.add.reduce(G, axis=0) / B
        w_mean = 1.0
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
        # mean_b w_b (b1 m_prev + (1 - b1) g_b) / denom, without the stack
        direction = (beta1_t * w_mean * m_prev
                     + (1.0 - beta1_t) * g_weighted) / denom
    # OptimizerConfig guarantees lo <= hi
    new_theta = np.clip(theta - config.alpha / np.sqrt(t) * direction, lo, hi)
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
    total = scores.sum()
    if not math.isfinite(total):
        raise DivergenceError(t, "nonfinite scores")
    tree.set_all(_sampling.normalize_scores(scores, config.epsilon_prob))


def _wants_refresh(config, t):
    if config.freeze_probabilities:
        return False
    if config.method == "dasgrad":
        return t % config.refresh_period == 0
    if config.method == "ap_sgd":
        return t == 1 or t % config.refresh_period == 0
    return False


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


# A refresh block of more rows than this is cut into blocks of whole steps,
# so that a long refresh period cannot make one gather arbitrarily large;
# the cut draws the same stream (see the module docstring).
_BLOCK_ROWS = 4096


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

    ticks, losses, accs, gvars = [], [], [], []

    period, B = config.refresh_period, config.batch_size
    max_steps = max(1, _BLOCK_ROWS // B)
    t = 1
    # an overflow on the way to a divergence is reported by DivergenceError
    # (at a step, a tick or a refresh), never by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        while t <= T:
            # the block runs up to the next multiple of the period, the
            # next step where a refresh can happen
            end = min(t - t % period + period, t + max_steps, T + 1)
            if _wants_refresh(config, t):
                refresh_probabilities(problem, theta, state, config, tree, t)
            X, y, w = draw_batch(problem, tree, rng, config, (end - t) * B)
            due, thetas = [], []    # the block's tick steps and their theta
            try:
                for lo in range(0, len(y), B):
                    rows = slice(lo, lo + B)
                    batch = X[rows], y[rows], None if w is None else w[rows]
                    theta = step_general(problem, theta, state, batch, config,
                                         t)
                    if t % metric_tick == 0:
                        due.append(t)
                        thetas.append(theta)
                    t += 1
            except DivergenceError:
                # a pending tick comes before the diverging step: its
                # nonfinite loss is the run's first divergence
                if due:
                    _tick_block(problem, due, thetas, eval_set)
                raise
            if due:
                loss, gvar, acc = _tick_block(problem, due, thetas, eval_set)
                ticks += due
                losses.extend(loss)
                gvars.extend(gvar)
                if acc is not None:
                    accs.extend(acc)

    return RunResult(ticks=np.array(ticks, dtype=np.int64),
                     loss=np.array(losses),
                     accuracy=None if problem.kind == _problems.CENTROID
                     else np.array(accs),
                     grad_norm_var=np.array(gvars), theta=theta, seed=seed)


def _tick_block(problem, due, thetas, eval_set):
    """``metrics.tick`` at the stack of thetas, the parameters after the
    steps due. The first step whose loss or gradient-norm variance is not
    finite raises DivergenceError."""
    loss, gvar, acc = _metrics.tick(problem, thetas, eval_set)
    bad = ~(np.isfinite(loss) & np.isfinite(gvar))
    if bad.any():
        raise DivergenceError(due[bad.argmax()], "nonfinite loss")
    return loss, gvar, acc

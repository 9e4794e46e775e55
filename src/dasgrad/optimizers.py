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

Every step samples ``batch_size`` indices i.i.d. with replacement from the
current distribution and averages the importance-weighted per-index
directions. Without target label counts the moment recursion absorbs the
raw batch mean of the sampled gradients; with them (target mode) it absorbs
the weighted mean, which is the estimate of the target-distribution risk
gradient that the momentum must track. Uniform sampling with unit weights
reproduces the unweighted methods bit for bit either way.
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
    """Raised when an update produces a nonfinite parameter vector, or a
    metric tick a nonfinite loss or gradient-norm variance."""

    def __init__(self, step, message="nonfinite update"):
        super().__init__("%s at step %d" % (message, step))
        self.step = step


@dataclass
class MomentState:
    """Running moment vectors of one optimization run."""

    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray
    adagrad_sum: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim):
        return cls(m=np.zeros(dim), v=np.zeros(dim), v_hat=np.zeros(dim),
                   adagrad_sum=np.zeros(dim))


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
        if self.refresh_period < 1 or self.batch_size < 1:
            raise ValueError("refresh_period and batch_size must be >= 1")
        counts = self.target_label_counts
        if counts is not None:
            ints = tuple(int(c) for c in counts)
            if ints != tuple(counts) or min(ints, default=0) < 0 \
                    or sum(ints) < 1:
                raise ValueError("target_label_counts must be nonnegative "
                                 "integers with a positive total")
            object.__setattr__(self, "target_label_counts", ints)
        lo, hi = self.projection
        if not np.all(np.asarray(lo) <= np.asarray(hi)):
            raise ValueError("projection box needs lo <= hi and no NaN")

    def beta1_at(self, t):
        if self.method in ("sgd", "ap_sgd", "adagrad", "rmsprop"):
            return 0.0
        return self.beta1 * self.beta1_decay ** (t - 1)


def step_size(alpha, t):
    """Decaying schedule alpha / sqrt(t)."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha / np.sqrt(t)


def moment_update(state, g, beta1_t, beta2, use_max):
    """One moment recursion step:
    m <- b1 m + (1 - b1) g, v <- b2 v + (1 - b2) g^2, and v_hat keeps the
    coordinatewise max of v when use_max is set (otherwise it tracks v)."""
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
        state.v_hat = state.v.copy()
    state.t += 1


def project_box(theta, lo, hi):
    """Coordinatewise clamp into [lo, hi]. For an axis-aligned box the
    metric-weighted projection separates per coordinate, so one clamp serves
    every positive diagonal metric."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(lo > hi):
        raise ValueError("projection box must satisfy lo <= hi")
    return np.clip(theta, lo, hi)


def _weights_for(problem, indices, probs, config):
    """Importance weights for the sampled indices.

    Without target counts the weights unbias toward the uniform training
    mean. Target mode is the Radon-Nikodym derivative of the class-matched
    target distribution: (test count of the class / m) is split evenly over
    the class's training examples, so the weighted estimator is unbiased
    for the target-label risk under any sampling distribution.
    """
    counts = config.target_label_counts
    if counts is None and config.method not in _ADAPTIVE_PROBS:
        return np.ones(len(indices))
    p = probs[indices]
    if counts is None:
        return _sampling.importance_weight(p, problem.n)
    labels = problem.y[indices]
    w = _sampling.target_weight(
        p, np.asarray(counts, dtype=np.float64)[labels], sum(counts))
    return w / problem.class_counts[labels]


def step_general(problem, theta, state, probs, tree, rng, config, t):
    """One step of the general method: sample a batch, advance the moment
    state, average the importance-weighted per-index directions, and
    project. Returns (new_theta, sampled_indices)."""
    indices = tree.sample_many(rng, config.batch_size)
    G = _problems.gradients(problem, theta, indices)
    w = _weights_for(problem, indices, probs, config)

    g_weighted = (w[:, None] * G).mean(axis=0)
    w_mean = w.mean()
    # Without target counts the recursion takes the raw batch mean of the
    # sampled gradients. Target mode feeds the corrected estimate instead: its
    # weights recenter the stream on the target-distribution risk, which is
    # the objective the momentum must track, and the coupling of numerator
    # and denominator keeps early steps bounded when weights differ from
    # one at t = 1. The two coincide bitwise whenever all weights are one.
    if config.target_label_counts is not None:
        g_state = g_weighted
    else:
        g_state = G.mean(axis=0)

    method = config.method
    if method in ("sgd", "ap_sgd"):
        direction = g_weighted
        state.t += 1
    elif method == "adagrad":
        state.adagrad_sum = state.adagrad_sum + g_state * g_state
        state.t += 1
        denom = np.sqrt(state.adagrad_sum / t) + config.epsilon_div
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

    lo, hi = config.projection
    with np.errstate(over="ignore", invalid="ignore"):
        new_theta = project_box(
            theta - step_size(config.alpha, t) * direction, lo, hi)
    if not np.all(np.isfinite(new_theta)):
        raise DivergenceError(t)
    return new_theta, indices


def refresh_probabilities(problem, theta, state, config, tree):
    """Recompute the sampling distribution from the current scores and load
    it into the tree in one O(n) rebuild. Returns the new distribution."""
    if config.method == "ap_sgd":
        scores = _sampling.scores_apsgd(problem, theta)
    elif config.method == "dasgrad":
        scores = _sampling.scores_dasgrad(problem, theta, state.m,
                                          state.v_hat,
                                          config.beta1_at(max(state.t, 1)),
                                          eps_div=config.epsilon_div)
    else:
        raise ValueError("method %r does not adapt probabilities"
                         % (config.method,))
    probs = _sampling.normalize_scores(scores, config.epsilon_prob)
    tree.set_all(probs)
    return probs


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
    """Trace of one run: sampled indices per step and metrics on the tick
    grid. ``accuracy`` is None for centroid problems."""

    indices: np.ndarray
    ticks: np.ndarray
    loss: np.ndarray
    accuracy: np.ndarray | None
    grad_norm_var: np.ndarray
    theta: np.ndarray
    seed: int


def run(problem, config, T, seed, metric_tick=10, theta0=None,
        eval_set=None):
    """Run T steps from theta0 (zeros by default). Deterministic given
    (config, seed). Metrics are recorded whenever t % metric_tick == 0;
    accuracy is computed on the (X, y) pair eval_set when given, else on
    the problem's own rows."""
    if T < 1 or metric_tick < 1:
        raise ValueError("T and metric_tick must be at least 1")
    counts = config.target_label_counts
    if counts is not None and len(counts) != problem.num_classes:
        raise ValueError("need one target label count per class (%d), got %d"
                         % (problem.num_classes, len(counts)))
    rng = np.random.default_rng(seed)
    dim = problem.param_dim
    theta = np.zeros(dim) if theta0 is None else np.array(theta0, dtype=np.float64)
    if theta.shape != (dim,):
        raise ValueError("theta0 has the wrong dimension")
    state = MomentState.zeros(dim)
    probs = np.full(problem.n, 1.0 / problem.n)
    tree = _sampling.SamplingTree(probs)

    classification = problem.kind != _problems.CENTROID
    X_eval, y_eval = (problem.X, problem.y) if eval_set is None else eval_set
    all_indices = np.empty((T, config.batch_size), dtype=np.int64)
    ticks, losses, accs, gvars = [], [], [], []

    for t in range(1, T + 1):
        if _wants_refresh(config, t):
            probs = refresh_probabilities(problem, theta, state, config, tree)
        theta, indices = step_general(problem, theta, state, probs, tree,
                                      rng, config, t)
        all_indices[t - 1] = indices
        if t % metric_tick == 0:
            # a diverging run is reported by DivergenceError, not warnings;
            # only the tick, as ufuncs run slower under a non-default errstate
            with np.errstate(over="ignore", invalid="ignore"):
                loss = _problems.full_objective(problem, theta)
                gvar = _metrics.gradient_norm_variance(problem, theta)
            if not (math.isfinite(loss) and math.isfinite(gvar)):
                raise DivergenceError(t, "nonfinite loss")
            ticks.append(t)
            losses.append(loss)
            gvars.append(gvar)
            if classification:
                accs.append(_metrics.accuracy(problem, theta, X_eval, y_eval))

    return RunResult(indices=all_indices,
                     ticks=np.array(ticks, dtype=np.int64),
                     loss=np.array(losses),
                     accuracy=np.array(accs) if classification else None,
                     grad_norm_var=np.array(gvars), theta=theta, seed=seed)

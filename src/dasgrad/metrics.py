"""The regret baseline (the reference solve), the metric tick, accuracy,
and multi-seed aggregation with normal-approximation confidence intervals.
A trace's regret is its loss minus f_star, summed over the ticks
(``np.cumsum``).

``tick`` is what a run records at its metric ticks: the full objective,
the gradient-norm variance and the accuracy at each row of a stack of
parameters (a run passes its pending ticks together), bit for
bit the values of ``problems.full_objective``, the population variance of
``sampling.scores_apsgd`` and ``accuracy`` at each row alone. A logistic
row takes one pass over X (one margin product); centroid rows form
theta - X in chunks of about ``_TICK_BYTES`` bytes, one pass per chunk,
each a tiled copy of the theta rows minus the flat X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import problems as _problems
from . import sampling as _sampling

Z_95 = 1.96

# A centroid tick forms theta - X for as many rows of its stack as fit in
# this many bytes, so that ticking a long stack holds no more memory than
# about this much; ``optimizers.run`` keeps no more pending tick thetas than
# fit in it either.
_TICK_BYTES = 1 << 20

REFERENCE_TOL, REFERENCE_MAX_ITERS = 1e-6, 2000


@dataclass(frozen=True)
class ReferenceSolution:
    """Best fixed parameter for a problem, used as the regret baseline."""

    theta_star: np.ndarray
    f_star: float
    grad_norm_at_star: float
    solver_iterations: int
    converged: bool


@dataclass(frozen=True)
class AggregateTrace:
    """Across-seed mean and 95% confidence band on a shared tick grid."""

    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n_seeds: int


def backtracking_gradient_descent(problem, tol, max_iters):
    """Full-batch gradient descent from theta = 0 with halving line search
    (Armijo constant 1e-4) until ||grad||_2 <= tol or the iteration cap. Each trial
    point costs one ``problems.objective_and_gradient`` call, one pass over
    X; the accepted trial's objective and gradient carry into the next
    iteration. Returns (best_theta, best_f, iterations, converged)."""
    theta = np.zeros(problem.param_dim)
    f, g = _problems.objective_and_gradient(problem, theta)
    best_theta, best_f = theta, f
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            converged = True
            iterations -= 1
            # the converging iterate carries the gradient-norm guarantee
            best_theta, best_f = theta, f
            break
        step = 1.0
        gsq = gnorm * gnorm
        while step > 1e-20:
            trial = theta - step * g
            f_trial, g_trial = _problems.objective_and_gradient(problem, trial)
            if f_trial <= f - 1e-4 * step * gsq:
                break
            step *= 0.5
        else:
            # the step underflowed without an acceptance: this point is new
            trial = theta - step * g
            f_trial, g_trial = _problems.objective_and_gradient(problem, trial)
        theta, f, g = trial, f_trial, g_trial
        if f < best_f:
            best_theta, best_f = theta, f
    return best_theta, best_f, iterations, converged


def solve_reference(problem, tol=REFERENCE_TOL,
                    max_iters=REFERENCE_MAX_ITERS):
    """Reference optimum. Centroid has the closed form theta* = mean(x);
    logistic problems run backtracking gradient descent and return the best
    iterate (flagged unconverged when the cap is hit first). Float overflow
    and invalid values are ignored, as in ``optimizers.run``: data whose
    loss overflows gives f_star = inf, not a numpy warning."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.kind == _problems.CENTROID:
            theta = problem.X.mean(axis=0)
            f, g = _problems.objective_and_gradient(problem, theta)
            return ReferenceSolution(
                theta_star=theta, f_star=f,
                grad_norm_at_star=float(np.linalg.norm(g)),
                solver_iterations=0, converged=True)
        theta, f, iterations, converged = backtracking_gradient_descent(
            problem, tol, max_iters)
        g = _problems.full_gradient(problem, theta)
        return ReferenceSolution(theta_star=theta, f_star=f,
                                 grad_norm_at_star=float(np.linalg.norm(g)),
                                 solver_iterations=iterations,
                                 converged=converged)


def tick(problem, thetas, eval_set=None):
    """(loss, gvar, acc) at each row of the (k, param_dim) stack thetas,
    as three arrays of k values: ``problems.full_objective``, the
    population variance over examples of the gradient norms
    ``sampling.scores_apsgd``, and ``accuracy`` on the (X, y) pair eval_set
    (the problem's own rows when None), bit-identical to the three separate
    calls on each row; acc is None for centroid problems. ``optimizers.run``
    keeps its tick thetas pending across its blocks and passes them once
    one more would stack past ``_TICK_BYTES``, when the run ends, or when a
    step or a refresh raises DivergenceError.

    Centroid problems form diff = theta - X for a chunk of rows at once:
    grad f_i = theta - x_i, so the loss and the gradient norms share the
    squares of diff. The chunk's diff is one contiguous (k, n * d) buffer:
    each theta row repeated n times, minus the flat X in place, so the
    subtraction's inner loop runs n * d long, not d as a (k, 1, d) - (n, d)
    broadcast would, with the same values. The sums and the variance are
    the ufunc steps of ``ndarray.sum`` and ``np.var`` taken per row, the
    d-entry sums of the gradient norms through ``problems._row_sum``. The
    logistic kinds tick one row at a time and form its margin product
    once: its losses give the objective, its residuals the gradient norms
    (grad f_i is rank one in x_i), and its argmax the training accuracy."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2 or thetas.shape[1] != problem.param_dim:
        raise ValueError("thetas has shape %s, expected (k, %d)"
                         % (thetas.shape, problem.param_dim))
    k, n = len(thetas), problem.n
    loss, gvar = np.empty(k), np.empty(k)
    if problem.kind == _problems.CENTROID:
        X = problem.X
        flat = X.reshape(-1)
        step = max(1, _TICK_BYTES // X.nbytes)
        for lo in range(0, k, step):
            rows = slice(lo, lo + step)
            sq = thetas[rows].repeat(n, axis=0).reshape(-1, flat.size)
            sq -= flat
            sq *= sq
            loss[rows] = 0.5 * np.add.reduce(sq, axis=1) / n
            norms = np.sqrt(_problems._row_sum(sq.reshape(-1, X.shape[1])))
            norms = norms.reshape(-1, n)
            del sq  # freed before the next chunk's sq is formed
            norms -= np.add.reduce(norms, axis=1, keepdims=True) / n
            norms *= norms
            gvar[rows] = np.add.reduce(norms, axis=1) / n
        return loss, gvar, None
    acc = np.empty(k)
    for row, theta in enumerate(thetas):
        L, R, Z = _problems._logistic_terms(problem, theta, problem.X,
                                            problem.y, want_loss=True,
                                            want_residuals=True)
        loss[row] = _problems._mean_objective(problem, theta, L)
        gvar[row] = np.var(_sampling.scores_apsgd(problem, theta, R))
        acc[row] = _share_correct(problem, Z, problem.y) \
            if eval_set is None else accuracy(problem, theta, *eval_set)
    return loss, gvar, acc


def accuracy(problem, theta, X, y):
    """Fraction of the rows of X (dense or CSR) whose predicted class
    equals the label in y; ties go to the lowest class index. Unsupported
    for centroid problems."""
    if problem.kind == _problems.CENTROID:
        raise ValueError("accuracy is undefined for centroid problems")
    if np.shape(y) != (X.shape[0],):
        raise ValueError("y must hold one label per row of X")
    theta = np.asarray(theta, dtype=np.float64)
    Z = np.asarray(X @ problem.weights_view(theta).T)
    return _share_correct(problem, Z, y)


def _share_correct(problem, Z, y):
    """Share of the rows of the margin product Z = X W^T, (n, K) with
    K = 1 for binary, whose predicted class equals y: class 1 where the
    binary margin is positive, else the row argmax with ties to the lowest
    class index."""
    if problem.kind == _problems.BINARY_LOGISTIC:
        pred = (Z[:, 0] > 0).astype(np.int64)
    else:
        pred = Z.argmax(axis=1)
    return float(np.mean(pred == y))


def aggregate_runs(traces):
    """Aggregate per-seed metric traces sharing one tick grid.

    ``traces``: sequence of 1-d arrays (one per seed). CI is
    mean +- 1.96 * sample_std / sqrt(n_seeds) with the n-1 denominator.
    """
    traces = [np.asarray(t, dtype=np.float64) for t in traces]
    if len(traces) < 2:
        raise ValueError("need at least two seeds to aggregate")
    length = traces[0].shape
    if any(t.shape != length for t in traces):
        raise ValueError("traces disagree on tick grid length")
    stack = np.vstack(traces)
    mean, lo, hi = _ci(lambda s: s.mean(axis=0),
                       lambda s: s.std(axis=0, ddof=1), len(stack), stack)
    return AggregateTrace(mean=mean, ci_low=lo, ci_high=hi,
                          n_seeds=len(stack))


def paired_ci(values_a, values_b):
    """Mean and 95% CI of per-seed differences a_s - b_s."""
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if a.size < 2:
        raise ValueError("need at least two paired seeds")
    return _ci(lambda a, b: (a - b).mean(),
               lambda a, b: (a - b).std(ddof=1), a.size, a, b)


def unpaired_ci(values_a, values_b):
    """Mean difference and 95% CI treating the two seed samples as
    independent (normal approximation)."""
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two seeds per side")
    # the spread is already a standard error: n = 1
    return _ci(lambda a, b: a.mean() - b.mean(),
               lambda a, b: np.sqrt(a.var(ddof=1) / a.size
                                    + b.var(ddof=1) / b.size), 1, a, b)


def _ci(mean, spread, n, *samples):
    """(m, m - h, m + h) with m = mean(*samples) and h = 1.96 *
    spread(*samples) / sqrt(n), both formulas taken by _rescaled; a bound
    beyond the float range is an infinity, not a numpy warning."""
    mean, spread = _rescaled(mean, *samples), _rescaled(spread, *samples)
    with np.errstate(over="ignore"):
        half = Z_95 * spread / np.sqrt(n)
        return mean, mean - half, mean + half


def _rescaled(formula, *samples):
    """formula(*samples), linear in the samples' scale (a mean or a spread)
    but overflowing on the way for large finite samples: only where the
    plain value is not finite is it taken again on the samples divided by
    their largest magnitude (per column) and scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = formula(*samples)
        bad = ~np.isfinite(value)
        if not bad.any():
            return value
        scale = np.maximum.reduce([np.abs(s).max(axis=0) for s in samples])
        scale = np.where(scale > 0, scale, 1.0)
        return np.where(bad, scale * formula(*(s / scale for s in samples)),
                        value)[()]

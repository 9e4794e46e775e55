"""Regret instrumentation, gradient-variance diagnostics, accuracy, and
multi-seed aggregation with normal-approximation confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problems as _problems
from . import sampling as _sampling

Z_95 = 1.96


@dataclass(frozen=True)
class ReferenceSolution:
    """Best fixed parameter for a problem, used as the regret baseline."""

    theta_star: np.ndarray
    f_star: float
    grad_norm_at_star: float
    solver_iterations: int
    converged: bool


@dataclass(frozen=True)
class RegretLedger:
    """Instantaneous and cumulative expected-regret trace on a tick grid."""

    instantaneous: np.ndarray
    cumulative: np.ndarray


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


def solve_reference(problem, tol=1e-8, max_iters=5000):
    """Reference optimum. Centroid has the closed form theta* = mean(x);
    logistic problems run backtracking gradient descent and return the best
    iterate (flagged unconverged when the cap is hit first)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if problem.kind == _problems.CENTROID:
        theta = problem.feature_mean()
        f, g = _problems.objective_and_gradient(problem, theta)
        return ReferenceSolution(theta_star=theta, f_star=f,
                                 grad_norm_at_star=float(np.linalg.norm(g)),
                                 solver_iterations=0, converged=True)
    theta, f, iterations, converged = backtracking_gradient_descent(
        problem, tol, max_iters)
    g = _problems.full_gradient(problem, theta)
    return ReferenceSolution(theta_star=theta, f_star=f,
                             grad_norm_at_star=float(np.linalg.norm(g)),
                             solver_iterations=iterations, converged=converged)


def instantaneous_regret(problem, theta_t, f_star):
    """Full-objective gap F(theta_t) - f_star."""
    return _problems.full_objective(problem, theta_t) - f_star


def regret_ledger(losses, f_star):
    """Ledger over recorded ticks: instantaneous gaps and their running sum."""
    inst = np.asarray(losses, dtype=np.float64) - f_star
    return RegretLedger(instantaneous=inst, cumulative=np.cumsum(inst))


def gradient_norm_variance(problem, theta):
    """Population variance over examples of ||grad f_i(theta)||_2."""
    norms = _sampling.scores_apsgd(problem, theta)
    return float(np.var(norms))


def accuracy(problem, theta, X, y):
    """Fraction of the rows of X (dense or CSR) whose predicted class
    equals the label in y; ties go to the lowest class index. Unsupported
    for centroid problems."""
    if problem.kind == _problems.CENTROID:
        raise ValueError("accuracy is undefined for centroid problems")
    if np.shape(y) != (X.shape[0],):
        raise ValueError("y must hold one label per row of X")
    theta = np.asarray(theta, dtype=np.float64)
    if problem.kind == _problems.BINARY_LOGISTIC:
        z = np.asarray(X @ theta).ravel()
        pred = (z > 0).astype(np.int64)
    else:
        W = problem.weights_view(theta)
        Z = np.asarray(X @ W.T)
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
    n = stack.shape[0]
    mean = stack.mean(axis=0)
    half = Z_95 * stack.std(axis=0, ddof=1) / np.sqrt(n)
    return AggregateTrace(mean=mean, ci_low=mean - half, ci_high=mean + half,
                          n_seeds=n)


def paired_ci(values_a, values_b):
    """Mean and 95% CI of per-seed differences a_s - b_s."""
    diff = np.asarray(values_a, dtype=np.float64) - np.asarray(values_b,
                                                               dtype=np.float64)
    n = diff.size
    if n < 2:
        raise ValueError("need at least two paired seeds")
    mean = diff.mean()
    half = Z_95 * diff.std(ddof=1) / np.sqrt(n)
    return mean, mean - half, mean + half


def unpaired_ci(values_a, values_b):
    """Mean difference and 95% CI treating the two seed samples as
    independent (normal approximation)."""
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two seeds per side")
    mean = a.mean() - b.mean()
    half = Z_95 * np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
    return mean, mean - half, mean + half


def trend_slope(steps, values):
    """Least-squares slope of values against steps."""
    steps = np.asarray(steps, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    return float(np.polyfit(steps, values, 1)[0])

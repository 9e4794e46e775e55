import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import problems as P
from dasgrad import sampling as S


def centroid_problem(points):
    X = np.asarray(points, dtype=float)
    return P.Problem(X, np.zeros(len(X), dtype=np.int64), P.CENTROID)


def logistic_problem(rng, n=40, d=5, lam=0.1):
    return P.Problem(*H._gaussian_rows(rng, n, d, 2), P.BINARY_LOGISTIC,
                     l2_lambda=lam)


class TestSolveReference:
    def test_centroid_closed_form(self):
        prob = centroid_problem([[0.0], [4.0]])
        ref = M.solve_reference(prob)
        np.testing.assert_allclose(ref.theta_star, [2.0])
        assert ref.f_star == pytest.approx(2.0)
        assert ref.converged

    def test_gd_solver_matches_centroid_closed_form(self):
        rng = np.random.default_rng(0)
        prob = centroid_problem(rng.standard_normal((20, 4)))
        theta_gd, f_gd, _, converged = M.backtracking_gradient_descent(
            prob, tol=1e-10, max_iters=500)
        closed = M.solve_reference(prob)
        assert converged
        np.testing.assert_allclose(theta_gd, closed.theta_star, atol=1e-9)
        assert abs(f_gd - closed.f_star) < 1e-10

    def test_logistic_reference_beats_random_probes(self):
        rng = np.random.default_rng(1)
        prob = logistic_problem(rng)
        ref = M.solve_reference(prob, tol=1e-8, max_iters=2000)
        assert ref.converged
        assert ref.grad_norm_at_star <= 1e-8
        for _ in range(100):
            theta = rng.standard_normal(prob.param_dim)
            assert ref.f_star <= P.full_objective(prob, theta) + 1e-12

    def test_overflowing_centroid_loss_is_inf_without_a_warning(self):
        rng = np.random.default_rng(3)
        prob = centroid_problem(1e200 * rng.standard_normal((8, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = M.solve_reference(prob)
        assert ref.f_star == np.inf
        assert ref.converged

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tolerance would accept theta = 0 as converged
        prob = logistic_problem(np.random.default_rng(2))
        with pytest.raises(ValueError, match="tol must be finite and "
                                             "positive"):
            M.solve_reference(prob, tol=tol)

    def test_unconverged_is_flagged(self):
        rng = np.random.default_rng(2)
        prob = logistic_problem(rng)
        ref = M.solve_reference(prob, tol=1e-14, max_iters=3)
        assert not ref.converged
        assert ref.solver_iterations == 3


def three_pass_descent(problem, tol, max_iters):
    """The solver as it was before ``objective_and_gradient``: one
    full_gradient pass and two full_objective passes (the trial, then the
    accepted point again) per iteration. Oracle for the rewrite."""
    theta = np.zeros(problem.param_dim)
    f = P.full_objective(problem, theta)
    best_theta, best_f = theta, f
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        g = P.full_gradient(problem, theta)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            converged = True
            iterations -= 1
            best_theta, best_f = theta, f
            break
        step = 1.0
        gsq = gnorm * gnorm
        while step > 1e-20:
            f_cand = P.full_objective(problem, theta - step * g)
            if f_cand <= f - 1e-4 * step * gsq:
                break
            step *= 0.5
        theta = theta - step * g
        f = P.full_objective(problem, theta)
        if f < best_f:
            best_theta, best_f = theta, f
    return best_theta, best_f, iterations, converged


def solver_problem(kind, storage, scale=1.0, seed=20):
    """A 60-row problem of the given kind with features scaled by
    ``scale``, stored dense or CSR (rows kept about half zeros)."""
    rng = np.random.default_rng(seed)
    k = {P.CENTROID: 1, P.BINARY_LOGISTIC: 2}.get(kind, 3)
    X, y = H._gaussian_rows(rng, 60, 5, k)
    X = scale * X * (rng.random(X.shape) < 0.5)
    if storage == "csr":
        X = sparse.csr_matrix(X)
    return P.Problem(X, y, kind, l2_lambda=0.0 if kind == P.CENTROID else 0.05)


def log_oracle_calls(monkeypatch):
    """Patch the full-batch oracles of ``problems`` to log, in order, the
    name of each call not made from inside another of them."""
    log = []
    depth = [0]
    for name in ("full_objective", "full_gradient", "objective_and_gradient"):
        def logged(*args, _fn=getattr(P, name), _name=name):
            if depth[0] == 0:
                log.append(_name)
            depth[0] += 1
            try:
                return _fn(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(P, name, logged)
    return log


# (kind, storage, feature scale, tol, max_iters, branch): converging runs of
# every kind and storage; two that hit the iteration cap, one of them with
# tol = 0, stalled at rounding level where trials are accepted and rejected
# by rounding noise; two whose scaled features reject step 1.0 so the search
# halves; and features of size 1e160, whose squared gradient norm overflows
# to inf, so that no trial passes the Armijo test and every search underflows
# past step 1e-20 (the overflow warnings of that case are silenced)
SOLVER_CASES = [(kind, storage, 1.0, 1e-8, 500, "converge")
                for kind in P.KINDS for storage in ("dense", "csr")] + [
    (P.MULTICLASS_LOGISTIC, "dense", 1.0, 1e-14, 5, "cap"),
    (P.BINARY_LOGISTIC, "csr", 1.0, 0.0, 200, "cap"),
    (P.BINARY_LOGISTIC, "dense", 30.0, 1e-8, 300, "halve"),
    (P.MULTICLASS_LOGISTIC, "csr", 30.0, 1e-8, 300, "halve"),
    (P.BINARY_LOGISTIC, "csr", 1e160, 1e-8, 3, "underflow"),
    (P.MULTICLASS_LOGISTIC, "dense", 1e160, 1e-8, 3, "underflow"),
]


class TestBacktrackingSolver:
    @pytest.mark.parametrize("kind,storage,scale,tol,max_iters,branch",
                             SOLVER_CASES)
    def test_bit_identical_to_three_pass_descent(self, kind, storage, scale,
                                                 tol, max_iters, branch):
        with np.errstate(over="ignore", invalid="ignore"):
            prob = solver_problem(kind, storage, scale)
            theta, f, iterations, converged = M.backtracking_gradient_descent(
                prob, tol, max_iters)
            theta_0, f_0, iterations_0, converged_0 = three_pass_descent(
                prob, tol, max_iters)
        assert np.array_equal(theta, theta_0)
        assert f == f_0
        assert iterations == iterations_0
        assert converged == converged_0

    @pytest.mark.parametrize("kind,storage,scale,tol,max_iters,branch",
                             SOLVER_CASES)
    def test_one_oracle_call_per_line_search_trial(self, kind, storage, scale,
                                                   tol, max_iters, branch,
                                                   monkeypatch):
        log = log_oracle_calls(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            prob = solver_problem(kind, storage, scale)
            _, _, iterations, converged = three_pass_descent(prob, tol,
                                                             max_iters)
        # after the first F, each iteration of the three-pass solver is one
        # gradient pass, an F pass per trial point, and one more F pass at
        # the point it accepted
        passes = []
        for name in log[1:]:
            if name == "full_gradient":
                passes.append(0)
            else:
                passes[-1] += 1
        trials = [count - 1 for count in passes[:iterations]]
        assert len(log) == (1 + iterations + converged + sum(trials)
                            + iterations)
        # a search that underflows tries steps 1 .. 2**-66 (67 trials) and
        # ends at step 2**-67, a point it never tried
        underflows = trials.count(67)
        assert {"converge": converged, "cap": iterations == max_iters,
                "halve": sum(trials) > iterations,
                "underflow": underflows > 0}[branch]

        log.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            M.backtracking_gradient_descent(prob, tol, max_iters)
        assert log == ["objective_and_gradient"] * (1 + sum(trials)
                                                    + underflows)


class TestRegret:
    """Instantaneous regret is F(theta_t) - f_star, the trace's
    inst_regret column."""

    def test_zero_at_optimum(self):
        prob = centroid_problem([[0.0], [4.0]])
        ref = M.solve_reference(prob)
        assert abs(P.full_objective(prob, ref.theta_star) - ref.f_star) < 1e-12

    def test_hand_value(self):
        prob = centroid_problem([[0.0], [4.0]])
        # F(0) = (1/4)(0 + 16) = 4, f* = 2
        assert P.full_objective(prob, np.array([0.0])) - 2.0 == \
            pytest.approx(2.0)

    def test_nonnegative_for_any_theta(self):
        rng = np.random.default_rng(3)
        prob = logistic_problem(rng)
        ref = M.solve_reference(prob, tol=1e-10, max_iters=3000)
        for _ in range(50):
            theta = rng.standard_normal(prob.param_dim) * 2
            assert P.full_objective(prob, theta) - ref.f_star >= -1e-10


def gradient_norm_variance(problem, theta):
    """Population variance over examples of ||grad f_i(theta)||_2, the
    gvar the metric tick records."""
    return float(np.var(S.scores_apsgd(problem, theta)))


class TestGradientNormVariance:
    def test_identical_examples(self):
        prob = centroid_problem([[1.0, 2.0]] * 5)
        assert gradient_norm_variance(prob, np.array([3.0, -1.0])) == 0.0

    def test_hand_value(self):
        # per-example gradient norms are |theta - x|: {1, 3} -> variance 1
        prob = centroid_problem([[1.0], [3.0]])
        assert gradient_norm_variance(prob, np.array([0.0])) == \
            pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        prob = logistic_problem(rng)
        theta = rng.standard_normal(prob.param_dim)
        norms = np.array([np.linalg.norm(P.example_gradient(prob, i, theta))
                          for i in range(prob.n)])
        mean = norms.sum() / prob.n
        oracle = ((norms - mean) ** 2).sum() / prob.n
        assert gradient_norm_variance(prob, theta) == \
            pytest.approx(oracle, rel=1e-10)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        prob = logistic_problem(rng)
        theta = rng.standard_normal(prob.param_dim)
        assert gradient_norm_variance(prob, theta) >= 0.0

    def test_lemma_chain_ties_modules_together(self):
        # min_p E_p[w^2 ||g||^2] + Var_n(||g||) = E_n[||g||^2]
        rng = np.random.default_rng(6)
        prob = logistic_problem(rng)
        theta = rng.standard_normal(prob.param_dim)
        norms = S.scores_apsgd(prob, theta)
        p_star = S.normalize_scores(norms, 1e-12)
        lhs = (S.expected_weighted_second_moment(p_star, norms)
               + gradient_norm_variance(prob, theta))
        rhs = float((norms**2).mean())
        assert lhs == pytest.approx(rhs, rel=1e-9)


def tick_problem(kind, storage, rng, n=30, d=6):
    k = {P.CENTROID: 1, P.BINARY_LOGISTIC: 2, P.MULTICLASS_LOGISTIC: 4}[kind]
    X, y = H._gaussian_rows(rng, n, d, k)
    if storage == "csr":
        X = sparse.csr_matrix(X * (rng.random(X.shape) < 0.5))
    return P.Problem(X, y, kind, l2_lambda=0.0 if kind == P.CENTROID
                     else 0.05, num_classes=k)


def single_tick(problem, theta, eval_set=None):
    """The single-theta tick that the stacked ``M.tick`` replaced, as it
    was: the oracle for each row of a stack."""
    theta = P._check_theta(problem, theta)
    if problem.kind == P.CENTROID:
        sq = theta[None, :] - problem.X
        sq *= sq
        loss = 0.5 * float(sq.sum()) / problem.n
        return loss, float(np.var(np.sqrt(sq.sum(axis=1)))), None
    L, R, Z = P._logistic_terms(problem, theta, problem.X, problem.y,
                                want_loss=True, want_residuals=True)
    loss = P._mean_objective(problem, theta, L)
    gvar = float(np.var(S.scores_apsgd(problem, theta, R)))
    if eval_set is not None:
        return loss, gvar, M.accuracy(problem, theta, *eval_set)
    return loss, gvar, M._share_correct(problem, Z, problem.y)


def assert_ticks_are_single_ticks(problem, thetas, eval_set=None):
    loss, gvar, acc = M.tick(problem, thetas, eval_set)
    singles = [single_tick(problem, theta, eval_set) for theta in thetas]
    expect = np.array([s[:2] for s in singles]).T
    assert loss.tobytes() == expect[0].tobytes()
    assert gvar.tobytes() == expect[1].tobytes()
    if problem.kind == P.CENTROID:
        assert acc is None
    else:
        assert acc.tobytes() == np.array([s[2] for s in singles]).tobytes()


# rows of the sweep's centroid problem (n = 200, d = 10) per chunk
SWEEP_CHUNK = M._TICK_BYTES // (200 * 10 * 8)


class TestTick:
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("kind", P.KINDS)
    def test_bit_identical_to_the_three_calls(self, kind, storage):
        rng = np.random.default_rng(17)
        prob = tick_problem(kind, storage, rng)
        held_out = tick_problem(kind, storage, rng, n=11)
        thetas = np.array([scale * rng.standard_normal(prob.param_dim)
                           for scale in (0.0, 1.0, 30.0)])
        for eval_set in (None, (held_out.X, held_out.y)):
            loss, gvar, acc = M.tick(prob, thetas, eval_set)
            for row, theta in enumerate(thetas):
                assert loss[row] == P.full_objective(prob, theta)
                assert gvar[row] == gradient_norm_variance(prob, theta)
                if kind == P.CENTROID:
                    assert acc is None
                    continue
                X, y = eval_set or (prob.X, prob.y)
                assert acc[row] == M.accuracy(prob, theta, X, y)

    @pytest.mark.parametrize("k", [1, SWEEP_CHUNK, SWEEP_CHUNK + 1,
                                   2 * SWEEP_CHUNK + 3])
    def test_centroid_stack_is_single_ticks_across_chunks(self, k):
        rng = np.random.default_rng(18)
        prob = P.Problem(*H._gaussian_rows(rng, 200, 10, 1), P.CENTROID)
        thetas = rng.standard_normal((k, 10)) * rng.choice([0.1, 1, 30],
                                                           (k, 1))
        assert_ticks_are_single_ticks(prob, thetas)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("kind", [P.BINARY_LOGISTIC,
                                      P.MULTICLASS_LOGISTIC])
    def test_logistic_stack_is_single_ticks(self, kind, storage):
        # d = 5: rows of the stack sit at offsets that are not multiples of
        # 16 bytes
        rng = np.random.default_rng(19)
        prob = tick_problem(kind, storage, rng, d=5)
        held_out = tick_problem(kind, storage, rng, n=11, d=5)
        thetas = rng.standard_normal((7, prob.param_dim)) * 3.0
        for eval_set in (None, (held_out.X, held_out.y)):
            assert_ticks_are_single_ticks(prob, thetas, eval_set)

    def test_centroid_stack_memory_is_bounded_by_the_chunk(self):
        rng = np.random.default_rng(20)
        prob = P.Problem(*H._gaussian_rows(rng, 200, 10, 1), P.CENTROID)
        thetas = rng.standard_normal((512, 10))
        tracemalloc.start()
        try:
            M.tick(prob, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass over all 512 rows would hold 8 MB of theta - X
        assert peak <= 2 * M._TICK_BYTES

    def test_rejects_wrong_theta_shape(self):
        prob = centroid_problem([[0.0, 1.0]])
        for thetas in (np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError):
                M.tick(prob, thetas)


class TestAccuracy:
    def test_zero_theta_binary_tie_rule(self):
        rng = np.random.default_rng(7)
        X, y = H._gaussian_rows(rng, 20, 3, 2)
        prob = P.Problem(X, y, P.BINARY_LOGISTIC)
        frac_zero = np.mean(y == 0)
        assert M.accuracy(prob, np.zeros(3), X, y) == pytest.approx(frac_zero)

    def test_separable_problem_reaches_one(self):
        rng = np.random.default_rng(8)
        centers = np.array([[8.0, 0.0], [-8.0, 0.0], [0.0, 8.0]])
        y = np.arange(60) % 3
        X = np.array([centers[k] + 0.1 * rng.standard_normal(2) for k in y])
        prob = P.Problem(X, y, P.MULTICLASS_LOGISTIC, l2_lambda=1e-4,
                         num_classes=3)
        ref = M.solve_reference(prob, tol=1e-6, max_iters=500)
        assert M.accuracy(prob, ref.theta_star, X, y) == 1.0

    def test_singleton(self):
        prob = P.Problem([[1.0]], [1], P.BINARY_LOGISTIC)
        assert M.accuracy(prob, np.array([2.0]), prob.X, prob.y) == 1.0

    def test_one_label_per_row(self):
        prob = P.Problem(np.eye(3), [0, 1, 1], P.BINARY_LOGISTIC)
        with pytest.raises(ValueError):
            M.accuracy(prob, np.ones(3), prob.X, prob.y[:1])

    def test_centroid_unsupported(self):
        prob = centroid_problem([[0.0]])
        with pytest.raises(ValueError):
            M.accuracy(prob, np.zeros(1), prob.X, prob.y)


class TestAggregateRuns:
    def test_identical_traces_zero_width(self):
        trace = np.array([3.0, 2.0, 1.0])
        agg = M.aggregate_runs([trace, trace.copy(), trace.copy()])
        np.testing.assert_array_equal(agg.mean, trace)
        np.testing.assert_array_equal(agg.ci_low, agg.ci_high)

    def test_two_seed_hand_value(self):
        # values 0 and 2: mean 1, sample std sqrt(2),
        # half width 1.96 * sqrt(2) / sqrt(2) = 1.96
        agg = M.aggregate_runs([np.array([0.0]), np.array([2.0])])
        assert agg.mean[0] == pytest.approx(1.0)
        assert agg.ci_high[0] - agg.mean[0] == pytest.approx(1.96)

    def test_duplication_law(self):
        # duplicating the seed set k times keeps the mean and shrinks the
        # half width by sqrt(k) * sqrt((kn-1)/(k(n-1))) exactly (the n-1
        # denominator makes the plain sqrt(k) law only asymptotic)
        rng = np.random.default_rng(9)
        traces = [rng.random(5) for _ in range(4)]
        base = M.aggregate_runs(traces)
        k, n = 3, 4
        dup = M.aggregate_runs(traces * k)
        np.testing.assert_allclose(dup.mean, base.mean, atol=1e-15)
        base_half = base.ci_high - base.mean
        dup_half = dup.ci_high - dup.mean
        factor = np.sqrt(k * (n - 1) / (k * n - 1.0)) / np.sqrt(k)
        np.testing.assert_allclose(dup_half, base_half * factor, atol=1e-12)

    def test_requires_matching_grids(self):
        with pytest.raises(ValueError):
            M.aggregate_runs([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError):
            M.aggregate_runs([np.zeros(3)])

    def test_ci_ordering_invariant(self):
        rng = np.random.default_rng(10)
        agg = M.aggregate_runs([rng.random(7) for _ in range(5)])
        assert np.all(agg.ci_low <= agg.mean + 1e-15)
        assert np.all(agg.mean <= agg.ci_high + 1e-15)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_ci_bands_finite_for_huge_finite_values(data):
    """Squares inside a standard deviation overflow above about 1e154.
    Every band stays finite, warns nothing, and keeps the textbook
    formula's bits wherever that formula does not overflow."""
    seeds, length = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 4))
    huge = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
    stack = np.array(data.draw(st.lists(
        st.lists(huge, min_size=length, max_size=length),
        min_size=seeds, max_size=seeds)))
    a, b = stack[:, 0], stack[::-1, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        plain = (M.Z_95 * stack.std(axis=0, ddof=1) / np.sqrt(seeds),
                 M.Z_95 * (a - b).std(ddof=1) / np.sqrt(seeds),
                 M.Z_95 * np.sqrt(a.var(ddof=1) / seeds
                                  + b.var(ddof=1) / seeds))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        agg = M.aggregate_runs(list(stack))
        paired = M.paired_ci(a, b)
        unpaired = M.unpaired_ci(a, b)
    bands = [(agg.mean, agg.ci_low, agg.ci_high), paired, unpaired]
    for (mean, lo, hi), half in zip(bands, plain):
        assert np.all(np.isfinite([lo, hi]))
        assert np.all(lo <= mean) and np.all(mean <= hi)
        kept = np.isfinite(half)
        np.testing.assert_array_equal(np.asarray(hi)[kept],
                                      np.asarray(mean + half)[kept])


def test_means_finite_for_samples_near_the_float_limit():
    """A mean, or a difference of means, of finite samples is finite where
    its plain sum overflows, and a difference of samples may overflow too.
    A band bound beyond the float range is an infinity. Nothing warns."""
    big = np.finfo(np.float64).max
    stack = np.array([[0.9, -0.9], [0.8, 0.9], [0.7, 0.8]]) * big
    a = np.array([0.9, -0.9, 0.1]) * big  # a - b overflows in two rows
    b = np.array([-0.5, 0.5, 0.0]) * big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        agg = M.aggregate_runs(list(stack))
        paired = M.paired_ci(a, b)
        unpaired = M.unpaired_ci(stack[:, 0], stack[:, 1])
    expected = (big * (stack / big).mean(axis=0),
                big * (a / big - b / big).mean(),
                big * ((stack[:, 0] / big).mean() - (stack[:, 1] / big).mean()))
    bands = [(agg.mean, agg.ci_low, agg.ci_high), paired, unpaired]
    for (mean, lo, hi), want in zip(bands, expected):
        np.testing.assert_allclose(mean, want, rtol=1e-14)
        assert np.all(lo <= mean) and np.all(mean <= hi)
    assert np.isfinite(agg.ci_high[0]) and agg.ci_high[1] == np.inf


class TestPairedCI:
    def test_paired_hand_value(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, 1.0, 2.0])
        mean, lo, hi = M.paired_ci(a, b)
        diff = a - b
        assert mean == pytest.approx(diff.mean())
        assert hi - mean == pytest.approx(1.96 * diff.std(ddof=1) / np.sqrt(3))

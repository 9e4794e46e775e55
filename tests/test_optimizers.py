import itertools
import pickle
import warnings

import numpy as np
import pytest
from scipy import sparse

from dasgrad import datasets as D
from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import optimizers as O
from dasgrad import problems as P
from dasgrad import sampling as S


def centroid_problem(points):
    X = np.asarray(points, dtype=float)
    return P.Problem(X, np.zeros(len(X), dtype=np.int64), P.CENTROID)


def multiclass_problem(rng, n=30, d=4, k=3, lam=0.01):
    return P.Problem(*H._gaussian_rows(rng, n, d, k), P.MULTICLASS_LOGISTIC,
                     l2_lambda=lam, num_classes=k)


class TestMomentUpdate:
    def test_hand_recursion(self):
        state = O.MomentState.zeros(1)
        O.moment_update(state, np.array([1.0]), 0.0, 0.9, use_max=True)
        np.testing.assert_allclose(state.m, [1.0])
        np.testing.assert_allclose(state.v, [0.1])
        np.testing.assert_allclose(state.v_hat, [0.1])
        # zero gradient: v decays but v_hat keeps the max
        O.moment_update(state, np.array([0.0]), 0.0, 0.9, use_max=True)
        np.testing.assert_allclose(state.v, [0.09])
        np.testing.assert_allclose(state.v_hat, [0.1])

    def test_memoryless_case(self):
        state = O.MomentState.zeros(2)
        g = np.array([2.0, -3.0])
        O.moment_update(state, g, 0.0, 0.0, use_max=False)
        np.testing.assert_allclose(state.m, g)
        np.testing.assert_allclose(state.v, g * g)
        assert state.v_hat is state.v

    def test_dimension_mismatch(self):
        state = O.MomentState.zeros(2)
        with pytest.raises(ValueError):
            O.moment_update(state, np.zeros(3), 0.9, 0.99, True)


class TestStepGeneral:
    def test_one_step_hand_computation(self):
        # sgd, alpha=1, t=1, forced draw of example 1: theta' = 0 - (0 - 4) = 4
        prob = centroid_problem([[0.0], [4.0]])
        cfg = O.OptimizerConfig(method="sgd", alpha=1.0, batch_size=1)
        tree = S.SamplingTree([0.0, 1.0])  # all mass on index 1
        state = O.MomentState.zeros(1)
        batch = O.draw_batch(prob, tree, np.random.default_rng(0), cfg, 1)
        assert batch[0].tolist() == [[4.0]] and batch[2] is None
        theta = O.step_general(prob, np.zeros(1), state, batch, cfg, t=1)
        np.testing.assert_allclose(theta, [4.0])

    def test_unbiased_direction_training_weights(self):
        rng = np.random.default_rng(2)
        prob = multiclass_problem(rng)
        theta = rng.standard_normal(prob.param_dim)
        probs = S.normalize_scores(rng.random(prob.n), 1e-3)
        w = S.importance_weight(probs, prob.n)
        est = np.zeros(prob.param_dim)
        for i in range(prob.n):
            est += probs[i] * w[i] * P.example_gradient(prob, i, theta)
        np.testing.assert_allclose(est, P.full_gradient(prob, theta),
                                   atol=1e-12)

    def test_unbiased_direction_target_weights(self):
        # engine target weights: ((c_k / m) / n_k) / p -> expectation is the
        # class-share weighted mean of class-mean gradients
        rng = np.random.default_rng(3)
        prob = multiclass_problem(rng, n=24, k=3)
        counts = np.array([10, 30, 20])
        m = counts.sum()
        cfg = O.OptimizerConfig(method="dasgrad", target_label_counts=counts)
        theta = rng.standard_normal(prob.param_dim)
        probs = S.normalize_scores(rng.random(prob.n), 1e-3)
        tree = S.SamplingTree(probs)
        est = np.zeros(prob.param_dim)
        for i in range(prob.n):
            w = O._weights_for(prob, np.array([i]), tree, cfg)[0]
            est += probs[i] * w * P.example_gradient(prob, i, theta)
        target = np.zeros(prob.param_dim)
        for k in range(3):
            members = np.flatnonzero(prob.y == k)
            class_mean = np.mean([P.example_gradient(prob, i, theta)
                                  for i in members], axis=0)
            target += (counts[k] / m) * class_mean
        np.testing.assert_allclose(est, target, atol=1e-12)

    def test_divergence_detected(self):
        prob = centroid_problem([[1.0], [3.0]])
        cfg = O.OptimizerConfig(method="sgd", alpha=1e200, batch_size=1,
                                projection=(-np.inf, np.inf))
        with pytest.raises(O.DivergenceError) as err:
            O.run(prob, cfg, T=10, seed=0, metric_tick=100)
        assert err.value.step >= 1

    def test_nonfinite_loss_diverges(self):
        # theta stays in [-1e200, 1e200], but the loss 0.5 (theta - x)^2
        # overflows at the first tick
        prob = centroid_problem([[1e200], [-1e200]])
        cfg = O.OptimizerConfig(method="sgd", alpha=0.1, batch_size=1)
        with pytest.raises(O.DivergenceError, match="nonfinite loss") as err:
            O.run(prob, cfg, T=10, seed=0, metric_tick=5)
        assert err.value.step == 5

    def test_divergence_error_survives_pickling(self):
        back = pickle.loads(pickle.dumps(O.DivergenceError(5,
                                                           "nonfinite loss")))
        assert type(back) is O.DivergenceError
        assert (back.step, str(back)) == (5, "nonfinite loss at step 5")


class TestConfigValidation:
    def test_gamma_guard(self):
        with pytest.raises(ValueError):
            O.OptimizerConfig(method="amsgrad", beta1=0.99, beta2=0.5)
        # fine for sgd, which has no moment recursion
        O.OptimizerConfig(method="sgd", beta1=0.99, beta2=0.5)

    @pytest.mark.parametrize("counts", [
        [], [0, 0], [3, -1], [1.5, 2], ["1", "2"]])
    def test_target_mode_needs_counts(self, counts):
        with pytest.raises(ValueError, match="target_label_counts"):
            O.OptimizerConfig(method="dasgrad", target_label_counts=counts)

    def test_target_counts_are_a_tuple_of_ints(self):
        counts = np.array([1, 2])
        a = O.OptimizerConfig(method="dasgrad", target_label_counts=counts)
        b = O.OptimizerConfig(method="dasgrad", target_label_counts=[1, 2])
        assert a == b and hash(a) == hash(b)
        counts[0] = 99
        assert a.target_label_counts == (1, 2)
        assert type(a.target_label_counts[0]) is int
        assert O.OptimizerConfig(method="sgd").target_label_counts is None

    def test_projection_is_two_floats(self):
        a = O.OptimizerConfig(method="dasgrad", projection=(-1, 1))
        b = O.OptimizerConfig(method="dasgrad", projection=(-1.0, 1.0))
        assert a == b and hash(a) == hash(b)
        assert all(type(bound) is float for bound in a.projection)

    def test_bad_method(self):
        with pytest.raises(ValueError):
            O.OptimizerConfig(method="adamw")


    @pytest.mark.parametrize("field, value, message", [
        ("alpha", np.nan, "alpha"), ("alpha", np.inf, "alpha"),
        ("alpha", 0.0, "alpha"), ("alpha", -0.1, "alpha"),
        ("epsilon_div", np.nan, "epsilons"),
        ("epsilon_prob", np.inf, "epsilons"),
        ("beta1_decay", 1.5, "beta1_decay"),
        ("beta1_decay", -0.5, "beta1_decay"),
        ("beta1_decay", np.nan, "beta1_decay"),
        ("projection", (np.nan, 1.0), "projection box"),
        ("projection", (-1.0, np.nan), "projection box"),
        ("projection", (1.0, -1.0), "lo <= hi"),
        ("projection", (np.array([-1.0, -2.0]), np.array([1.0, 2.0])),
         "two scalars"),
        ("projection", (-1.0, np.array([1.0, 2.0])), "two scalars"),
        ("projection", (np.array([-1.0]), 1.0), "two scalars"),
    ])
    def test_rejects_nonfinite_or_out_of_range_values(self, field, value,
                                                      message):
        with pytest.raises(ValueError, match=message):
            O.OptimizerConfig(method="dasgrad", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", True), ("batch_size", 0),
        ("batch_size", "4"), ("refresh_period", 2.5),
        ("refresh_period", np.True_), ("refresh_period", np.nan),
        ("refresh_period", np.inf)])
    def test_sizes_must_be_whole_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            O.OptimizerConfig(method="dasgrad", **{field: value})

    def test_sizes_are_stored_as_ints(self):
        cfg = O.OptimizerConfig(method="dasgrad", batch_size=np.int64(4),
                                refresh_period=5.0)
        assert (cfg.batch_size, cfg.refresh_period) == (4, 5)
        assert type(cfg.batch_size) is int
        assert type(cfg.refresh_period) is int

    @pytest.mark.parametrize("method", ["adam", "amsgrad", "dasgrad"])
    def test_beta1_decays_geometrically(self, method):
        cfg = O.OptimizerConfig(method=method, beta1=0.8, beta1_decay=0.5)
        for t in (1, 2, 5):
            assert cfg.beta1_at(t) == 0.8 * 0.5 ** (t - 1)

    def test_step_blends_moments_with_the_decayed_beta1(self):
        rng = np.random.default_rng(16)
        prob = multiclass_problem(rng, n=12)
        cfg = O.OptimizerConfig(method="amsgrad", beta1=0.8,
                                beta1_decay=0.5, batch_size=3)
        state = O.MomentState.zeros(prob.param_dim)
        state.m = rng.standard_normal(prob.param_dim)
        m_prev = state.m.copy()
        theta = rng.standard_normal(prob.param_dim)
        X, y, w = O.draw_batch(prob,
                               S.SamplingTree(np.full(prob.n, 1.0 / prob.n)),
                               np.random.default_rng(2), cfg, cfg.batch_size)
        O.step_general(prob, theta, state, (X, y, w), cfg, t=3)
        g = P.batch_gradients(prob, theta, X, y).mean(axis=0)
        beta1_t = 0.8 * 0.5 ** 2
        np.testing.assert_array_equal(
            state.m, beta1_t * m_prev + (1.0 - beta1_t) * g)

    def test_unbounded_box_and_closed_decay_range_are_legal(self):
        for decay in (0.0, 1.0):
            O.OptimizerConfig(method="dasgrad", beta1_decay=decay,
                              projection=(-np.inf, np.inf))


class TestCollapseEquivalences:
    def test_dasgrad_frozen_uniform_equals_amsgrad(self):
        rng = np.random.default_rng(4)
        prob = multiclass_problem(rng, n=20)
        kw = dict(alpha=0.05, beta1=0.9, beta2=0.99, batch_size=4)
        das = O.OptimizerConfig(method="dasgrad", freeze_probabilities=True,
                                **kw)
        ams = O.OptimizerConfig(method="amsgrad", **kw)
        r1 = O.run(prob, das, T=100, seed=7, metric_tick=1)
        r2 = O.run(prob, ams, T=100, seed=7, metric_tick=1)
        assert np.array_equal(r1.theta, r2.theta)
        assert np.array_equal(r1.loss, r2.loss)

    def test_apsgd_frozen_uniform_equals_sgd(self):
        rng = np.random.default_rng(5)
        prob = multiclass_problem(rng, n=20)
        kw = dict(alpha=0.05, batch_size=4)
        ap = O.OptimizerConfig(method="ap_sgd", freeze_probabilities=True, **kw)
        sgd = O.OptimizerConfig(method="sgd", **kw)
        r1 = O.run(prob, ap, T=100, seed=3, metric_tick=1)
        r2 = O.run(prob, sgd, T=100, seed=3, metric_tick=1)
        assert np.array_equal(r1.theta, r2.theta)
        assert np.array_equal(r1.loss, r2.loss)

    def test_rmsprop_equals_adam_beta1_zero(self):
        rng = np.random.default_rng(6)
        prob = multiclass_problem(rng, n=20)
        rms = O.OptimizerConfig(method="rmsprop", alpha=0.05, beta1=0.5,
                                beta2=0.9, batch_size=4)
        adam = O.OptimizerConfig(method="adam", alpha=0.05, beta1=0.0,
                                 beta2=0.9, batch_size=4)
        r1 = O.run(prob, rms, T=80, seed=1, metric_tick=1)
        r2 = O.run(prob, adam, T=80, seed=1, metric_tick=1)
        assert np.array_equal(r1.theta, r2.theta)

    def test_adam_equals_amsgrad_while_v_nondecreasing(self):
        # single example, tiny step: the gradient is deterministic and
        # barely moves, so v rises monotonically from zero and the max()
        # in amsgrad never binds
        prob = centroid_problem([[2.0, -1.0]])
        kw = dict(alpha=1e-4, beta1=0.9, beta2=0.99, batch_size=1)
        adam = O.OptimizerConfig(method="adam", **kw)
        ams = O.OptimizerConfig(method="amsgrad", **kw)
        state = O.MomentState.zeros(2)
        tree = S.SamplingTree([1.0])
        rng = np.random.default_rng(11)
        theta = np.zeros(2)
        prev_v = np.zeros(2)
        for t in range(1, 61):
            theta = O.step_general(prob, theta, state,
                                   O.draw_batch(prob, tree, rng, adam, 1),
                                   adam, t)
            assert np.all(state.v >= prev_v), \
                "test premise: v must rise along this run"
            prev_v = state.v.copy()
        r1 = O.run(prob, adam, T=60, seed=11, metric_tick=1)
        r2 = O.run(prob, ams, T=60, seed=11, metric_tick=1)
        assert np.array_equal(r1.theta, r2.theta)


class TestRefresh:
    def test_equal_scores_give_uniform(self):
        prob = centroid_problem([[1.0], [3.0]])
        # theta = 2 is equidistant from both examples
        cfg = O.OptimizerConfig(method="ap_sgd")
        tree = S.SamplingTree(np.full(2, 0.5))
        state = O.MomentState.zeros(1)
        O.refresh_probabilities(prob, np.array([2.0]), state, cfg, tree, 1)
        np.testing.assert_array_equal(tree.leaves(), [0.5, 0.5])

    def test_dominant_example_gets_proportional_mass(self):
        prob = centroid_problem([[1.0], [10.0]])
        cfg = O.OptimizerConfig(method="ap_sgd", epsilon_prob=1e-12)
        tree = S.SamplingTree(np.full(2, 0.5))
        state = O.MomentState.zeros(1)
        O.refresh_probabilities(prob, np.array([0.0]), state, cfg, tree, 1)
        probs = tree.leaves()
        assert probs[1] / probs[0] == pytest.approx(10.0, rel=1e-9)

    def test_tree_root_is_one_and_sampling_matches(self):
        rng = np.random.default_rng(7)
        prob = centroid_problem(rng.standard_normal((50, 3)))
        cfg = O.OptimizerConfig(method="ap_sgd")
        tree = S.SamplingTree(np.full(50, 1.0 / 50))
        state = O.MomentState.zeros(3)
        O.refresh_probabilities(prob, rng.standard_normal(3), state, cfg,
                                tree, 1)
        probs = tree.leaves()
        assert abs(tree.total - 1.0) <= 1e-9
        draws = tree.sample_many(np.random.default_rng(8), 100_000)
        freq = np.bincount(draws, minlength=50) / 100_000
        bound = 4 * np.sqrt(probs * (1 - probs) / 100_000)
        assert np.all(np.abs(freq - probs) <= bound)

    @pytest.mark.parametrize("t, blend_step", [(1, 1), (2, 1), (8, 7)])
    def test_tree_matches_fresh_build(self, t, blend_step):
        # the refresh before step t blends with beta1 of the step before it
        rng = np.random.default_rng(14)
        prob = multiclass_problem(rng, n=37)
        cfg = O.OptimizerConfig(method="dasgrad", batch_size=4,
                                beta1_decay=0.5)
        tree = S.SamplingTree(np.full(prob.n, 1.0 / prob.n))
        state = O.MomentState.zeros(prob.param_dim)
        state.m = rng.standard_normal(prob.param_dim)
        state.v_hat = rng.random(prob.param_dim)
        theta = rng.standard_normal(prob.param_dim)
        O.refresh_probabilities(prob, theta, state, cfg, tree, t)
        scores = S.scores_dasgrad(prob, theta, state.m, state.v_hat,
                                  cfg.beta1_at(blend_step),
                                  eps_div=cfg.epsilon_div)
        probs = S.normalize_scores(scores, cfg.epsilon_prob)
        assert np.array_equal(tree.leaves(), probs)
        assert np.array_equal(tree.cdf, S.SamplingTree(probs).cdf)

    def test_schedule(self):
        rng = np.random.default_rng(9)
        prob = centroid_problem(rng.standard_normal((10, 2)))
        cfg = O.OptimizerConfig(method="dasgrad", refresh_period=5,
                                batch_size=1)
        assert not O._wants_refresh(cfg, 1)
        assert O._wants_refresh(cfg, 5)
        ap = O.OptimizerConfig(method="ap_sgd", refresh_period=5)
        assert O._wants_refresh(ap, 1)
        assert O._wants_refresh(ap, 5)
        assert not O._wants_refresh(ap, 3)
        frozen = O.OptimizerConfig(method="dasgrad", refresh_period=5,
                                   freeze_probabilities=True)
        assert not O._wants_refresh(frozen, 5)


class TestRun:
    def test_single_step_equals_step_general(self):
        rng = np.random.default_rng(10)
        prob = multiclass_problem(rng, n=10)
        cfg = O.OptimizerConfig(method="amsgrad", batch_size=3)
        result = O.run(prob, cfg, T=1, seed=5, metric_tick=1)
        state = O.MomentState.zeros(prob.param_dim)
        tree = S.SamplingTree(np.full(prob.n, 1.0 / prob.n))
        batch = O.draw_batch(prob, tree, np.random.default_rng(5), cfg, 3)
        theta = O.step_general(prob, np.zeros(prob.param_dim), state, batch,
                               cfg, 1)
        assert np.array_equal(result.theta, theta)

    def test_identical_seeds_identical_traces(self):
        rng = np.random.default_rng(11)
        prob = multiclass_problem(rng, n=15)
        cfg = O.OptimizerConfig(method="dasgrad", batch_size=4,
                                refresh_period=3)
        r1 = O.run(prob, cfg, T=60, seed=42, metric_tick=5)
        r2 = O.run(prob, cfg, T=60, seed=42, metric_tick=5)
        assert np.array_equal(r1.theta, r2.theta)
        assert np.array_equal(r1.loss, r2.loss)

    def test_accuracy_on_eval_examples(self):
        rng = np.random.default_rng(15)
        prob = multiclass_problem(rng, n=20)
        held_out = multiclass_problem(rng, n=9)
        cfg = O.OptimizerConfig(method="dasgrad", batch_size=4,
                                refresh_period=3)
        result = O.run(prob, cfg, T=20, seed=3, metric_tick=10,
                       eval_set=(held_out.X, held_out.y))
        assert result.accuracy[-1] == M.accuracy(prob, result.theta,
                                                 held_out.X, held_out.y)

    def test_centroid_sgd_converges(self):
        rng = np.random.default_rng(12)
        prob = centroid_problem(rng.standard_normal((40, 3)))
        cfg = O.OptimizerConfig(method="sgd", alpha=0.3, batch_size=8)
        result = O.run(prob, cfg, T=3000, seed=0, metric_tick=3000)
        reference = M.solve_reference(prob)
        assert result.loss[-1] - reference.f_star < 1e-3

    def test_vhat_monotone_along_run(self):
        rng = np.random.default_rng(13)
        prob = centroid_problem(rng.standard_normal((8, 3)))
        cfg = O.OptimizerConfig(method="amsgrad", alpha=0.2, batch_size=2)
        state = O.MomentState.zeros(3)
        tree = S.SamplingTree(np.full(8, 1.0 / 8))
        gen = np.random.default_rng(1)
        theta = np.zeros(3)
        prev = np.zeros(3)
        for t in range(1, 501):
            theta = O.step_general(prob, theta, state,
                                   O.draw_batch(prob, tree, gen, cfg, 2),
                                   cfg, t)
            assert np.all(state.v_hat >= prev)
            prev = state.v_hat.copy()

    def test_target_counts_need_one_count_per_class(self):
        rng = np.random.default_rng(17)
        prob = multiclass_problem(rng, n=12, k=3)
        cfg = O.OptimizerConfig(method="dasgrad", target_label_counts=[1, 2])
        with pytest.raises(ValueError, match="per class"):
            O.run(prob, cfg, T=4, seed=0)

    def test_target_counts_reject_a_class_with_no_training_row(self):
        rng = np.random.default_rng(17)
        X, _ = H._gaussian_rows(rng, 12, 4, 1)
        prob = P.Problem(X, np.arange(12) % 2 * 2, P.MULTICLASS_LOGISTIC,
                         num_classes=3)   # labels 0 and 2 only
        cfg = O.OptimizerConfig(method="dasgrad",
                                target_label_counts=[1, 2, 1])
        with pytest.raises(ValueError, match="no training row: 1$"):
            O.run(prob, cfg, T=4, seed=0)
        # a class with no row and no target mass is fine
        cfg = O.OptimizerConfig(method="dasgrad",
                                target_label_counts=[1, 0, 1])
        assert len(O.run(prob, cfg, T=4, seed=0, metric_tick=2).loss) == 2

    @pytest.mark.parametrize("tick", [0, -2])
    def test_tick_below_one_rejected(self, tick):
        prob = centroid_problem([[1.0], [3.0]])
        cfg = O.OptimizerConfig(method="sgd", batch_size=1)
        with pytest.raises(ValueError, match="metric_tick"):
            O.run(prob, cfg, T=4, seed=0, metric_tick=tick)

    @pytest.mark.parametrize("T, tick, field", [
        (10, 2.5, "metric_tick"), (10, True, "metric_tick"),
        (7.5, 1, "T"), (np.False_, 1, "T")])
    def test_non_integral_T_or_tick_rejected(self, T, tick, field):
        prob = centroid_problem([[1.0], [3.0]])
        cfg = O.OptimizerConfig(method="sgd", batch_size=1)
        with pytest.raises(ValueError, match=field):
            O.run(prob, cfg, T=T, seed=0, metric_tick=tick)


# A test-local copy of the step loop as it stood before the sum tree became
# the only copy of the distribution: it keeps a separate ``probs`` array, a
# step counter in the moment state and a separate adagrad accumulator, and
# it draws, gathers and weights each step's batch on its own. The engine,
# which does these once per refresh block, must reproduce its traces and
# its divergences bit for bit.

class _CountingState:
    def __init__(self, dim):
        self.m, self.v, self.v_hat = np.zeros(dim), np.zeros(dim), np.zeros(dim)
        self.adagrad_sum = np.zeros(dim)
        self.t = 0


def _counting_moment_update(state, g, beta1_t, beta2, use_max):
    state.m = beta1_t * state.m + (1.0 - beta1_t) * g
    state.v = beta2 * state.v + (1.0 - beta2) * (g * g)
    if use_max:
        state.v_hat = np.maximum(state.v_hat, state.v)
    else:
        state.v_hat = state.v.copy()
    state.t += 1


def _probs_weights_for(problem, indices, probs, config):
    counts = config.target_label_counts
    if counts is None and config.method not in ("ap_sgd", "dasgrad"):
        return np.ones(len(indices))
    p = probs[indices]
    if counts is None:
        return S.importance_weight(p, problem.n)
    labels = problem.y[indices]
    w = S.target_weight(p, np.asarray(counts, dtype=np.float64)[labels],
                        sum(counts))
    return w / problem.class_counts[labels]


def _probs_step(problem, theta, state, probs, tree, rng, config, t):
    indices = tree.sample_many(rng, config.batch_size)
    G = P.batch_gradients(problem, theta, *P.gather_rows(problem, indices))
    w = _probs_weights_for(problem, indices, probs, config)
    g_weighted = (w[:, None] * G).mean(axis=0)
    w_mean = w.mean()
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
        _counting_moment_update(state, g_state, beta1_t, config.beta2,
                                method in ("amsgrad", "dasgrad"))
        denom = np.sqrt(state.v_hat) + config.epsilon_div
        direction = (beta1_t * w_mean * m_prev
                     + (1.0 - beta1_t) * g_weighted) / denom
    lo, hi = config.projection
    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.clip(theta - config.alpha / np.sqrt(t) * direction,
                        lo, hi)
    if not np.all(np.isfinite(theta)):
        raise O.DivergenceError(t)
    return theta


def _probs_refresh(problem, theta, state, config, tree):
    if config.method == "ap_sgd":
        scores = S.scores_apsgd(problem, theta)
    else:
        scores = S.scores_dasgrad(problem, theta, state.m, state.v_hat,
                                  config.beta1_at(max(state.t, 1)),
                                  eps_div=config.epsilon_div)
    probs = S.normalize_scores(scores, config.epsilon_prob)
    tree.set_all(probs)
    return probs


def _probs_run(problem, config, T, seed, metric_tick, eval_set=None):
    X_eval, y_eval = (problem.X, problem.y) if eval_set is None else eval_set
    rng = np.random.default_rng(seed)
    theta = np.zeros(problem.param_dim)
    state = _CountingState(problem.param_dim)
    probs = np.full(problem.n, 1.0 / problem.n)
    tree = S.SamplingTree(probs)
    ticks, losses, accs, gvars = [], [], [], []
    for t in range(1, T + 1):
        if O._wants_refresh(config, t):
            probs = _probs_refresh(problem, theta, state, config, tree)
        theta = _probs_step(problem, theta, state, probs, tree, rng, config, t)
        if t % metric_tick == 0:
            with np.errstate(over="ignore", invalid="ignore"):
                loss = P.full_objective(problem, theta)
                gvar = float(np.var(S.scores_apsgd(problem, theta)))
            if not (np.isfinite(loss) and np.isfinite(gvar)):
                raise O.DivergenceError(t, "nonfinite loss")
            ticks.append(t)
            losses.append(loss)
            gvars.append(gvar)
            if problem.kind != P.CENTROID:
                accs.append(M.accuracy(problem, theta, X_eval, y_eval))
    return (np.array(ticks, dtype=np.int64), np.array(losses),
            np.array(accs) if accs else None, np.array(gvars), theta)


def _bit_check_rows(kind, is_sparse, n, seed):
    rng = np.random.default_rng(seed)
    k = {P.CENTROID: 1, P.BINARY_LOGISTIC: 2, P.MULTICLASS_LOGISTIC: 3}[kind]
    X, y = H._gaussian_rows(rng, n, 4, k)
    if is_sparse:
        X = sparse.csr_matrix(X * (rng.random(X.shape) < 0.6))
    return X, y, k


def _bit_check_problem(kind, is_sparse):
    X, y, k = _bit_check_rows(kind, is_sparse, 24, 20)
    return P.Problem(X, y, kind, l2_lambda=0.01, num_classes=k)


_BIT_CHECK_MODES = [
    {},
    {"target": True},
    {"freeze_probabilities": True, "beta1_decay": 0.5},
    {"freeze_probabilities": True, "beta1_decay": 0.5, "target": True},
    {"beta1_decay": 0.5, "projection": (-0.05, 0.05)},
    {"eval_set": True},
]


def _assert_same_trace(problem, cfg, T, seed, metric_tick, case,
                       eval_set=None):
    result = O.run(problem, cfg, T=T, seed=seed, metric_tick=metric_tick,
                   eval_set=eval_set)
    ticks, loss, acc, gvar, theta = _probs_run(problem, cfg, T, seed,
                                               metric_tick, eval_set)
    assert np.array_equal(result.ticks, ticks), case
    assert np.array_equal(result.loss, loss), case
    assert np.array_equal(result.grad_norm_var, gvar), case
    assert np.array_equal(result.theta, theta), case
    if acc is None:
        assert result.accuracy is None, case
    else:
        assert np.array_equal(result.accuracy, acc), case


# (refresh_period, batch_size) with T = 24: a period that divides T, one
# step per block, a period that does not divide T with single draws, and a
# period longer than the run
_BIT_CHECK_SCHEDULES = [(3, 5), (1, 5), (5, 1), (30, 5)]


@pytest.mark.parametrize("kind", P.KINDS)
@pytest.mark.parametrize("method", O.METHODS)
def test_run_is_bit_identical_to_the_parent_loop(method, kind):
    for is_sparse in (False, True):
        problem = _bit_check_problem(kind, is_sparse)
        for (period, batch), mode in itertools.product(_BIT_CHECK_SCHEDULES,
                                                       _BIT_CHECK_MODES):
            kw = dict(mode)
            if kw.pop("target", False):
                kw["target_label_counts"] = (2, 5, 3)[:problem.num_classes]
            # accuracy on held-out rows, not the training rows
            eval_set = _bit_check_rows(kind, is_sparse, 9, 21)[:2] \
                if kw.pop("eval_set", False) else None
            cfg = O.OptimizerConfig(method=method, alpha=0.2,
                                    batch_size=batch, refresh_period=period,
                                    **kw)
            _assert_same_trace(problem, cfg, 24, 3, 4,
                               (method, kind, is_sparse, period, batch, mode),
                               eval_set)


@pytest.mark.parametrize("method", ["sgd", "ap_sgd", "dasgrad"])
def test_split_blocks_draw_the_same_stream(method, monkeypatch):
    # a block of more than _BLOCK_ROWS rows is cut into blocks of whole
    # steps: here 7-step periods into blocks of 2 steps (10 rows)
    monkeypatch.setattr(O, "_BLOCK_ROWS", 12)
    sizes = []
    draw_batch = O.draw_batch

    def recorded(problem, tree, rng, config, size):
        sizes.append(size)
        return draw_batch(problem, tree, rng, config, size)

    monkeypatch.setattr(O, "draw_batch", recorded)
    for is_sparse in (False, True):
        problem = _bit_check_problem(P.MULTICLASS_LOGISTIC, is_sparse)
        cfg = O.OptimizerConfig(method=method, alpha=0.2, batch_size=5,
                                refresh_period=7)
        sizes.clear()
        _assert_same_trace(problem, cfg, 24, 3, 4, (method, is_sparse))
        assert sizes == [10, 10, 10] + [10, 10, 10, 5] * 2 + [10, 10]


_DIVERGING_CASES = [(method, 1e200, 24, 5) for method in O.METHODS] + [
    ("sgd", 1000.0, 100, 1), ("ap_sgd", 1000.0, 100, 1)]


@pytest.mark.parametrize("method, alpha, T, metric_tick", _DIVERGING_CASES)
@pytest.mark.parametrize("is_sparse", [False, True])
def test_divergence_is_raised_at_the_parent_loops_step(method, alpha, T,
                                                      metric_tick, is_sparse):
    # alpha = 1e200 overflows theta at step 2 for sgd and ap_sgd and the
    # loss at the first tick for the others; alpha = 1000 lets theta grow
    # for some 60 steps and diverge inside a refresh block
    problem = _bit_check_problem(P.CENTROID, is_sparse)
    cfg = O.OptimizerConfig(method=method, alpha=alpha, batch_size=2,
                            refresh_period=3, projection=(-np.inf, np.inf))
    # the overflow warnings on the way to a divergence are not under test
    with np.errstate(all="ignore"):
        with pytest.raises(O.DivergenceError) as parent:
            _probs_run(problem, cfg, T, 3, metric_tick)
        with pytest.raises(O.DivergenceError) as engine:
            O.run(problem, cfg, T=T, seed=3, metric_tick=metric_tick)
    assert str(engine.value) == str(parent.value)
    assert engine.value.step == parent.value.step


@pytest.mark.parametrize("metric_tick", [1, 2, 7])
@pytest.mark.parametrize("kind", P.KINDS)
@pytest.mark.parametrize("method", ["sgd", "ap_sgd", "dasgrad"])
def test_block_ticks_are_the_parent_loops_ticks(method, kind, metric_tick):
    # every step, every other step and a tick grid that crosses the blocks
    # of each schedule unevenly
    for is_sparse in (False, True):
        problem = _bit_check_problem(kind, is_sparse)
        for period, batch in _BIT_CHECK_SCHEDULES:
            cfg = O.OptimizerConfig(method=method, alpha=0.2,
                                    batch_size=batch, refresh_period=period)
            _assert_same_trace(problem, cfg, 24, 3, metric_tick,
                               (method, kind, is_sparse, period, batch))


def _diverge_at(monkeypatch, step):
    """Make step_general raise DivergenceError at the given step."""
    step_general = O.step_general

    def diverging(problem, theta, state, batch, config, t):
        if t == step:
            raise O.DivergenceError(t)
        return step_general(problem, theta, state, batch, config, t)

    monkeypatch.setattr(O, "step_general", diverging)


def test_a_pending_nonfinite_tick_precedes_a_later_step_divergence(
        monkeypatch):
    # features near 1e200 overflow the loss at every tick while theta stays
    # in its box; ticks at 2 and 4 are pending when step 5 of the same
    # refresh block diverges
    rng = np.random.default_rng(4)
    problem = P.Problem(1e200 * rng.standard_normal((12, 3)),
                        np.zeros(12, dtype=np.int64), P.CENTROID)
    cfg = O.OptimizerConfig(method="sgd", alpha=0.1, batch_size=2,
                            refresh_period=10)
    _diverge_at(monkeypatch, 5)
    with pytest.raises(O.DivergenceError,
                       match="^nonfinite loss at step 2$") as err:
        O.run(problem, cfg, T=20, seed=0, metric_tick=2)
    assert err.value.step == 2


def test_a_step_divergence_after_finite_pending_ticks_is_reported(
        monkeypatch):
    problem = _bit_check_problem(P.CENTROID, False)
    cfg = O.OptimizerConfig(method="amsgrad", alpha=0.2, batch_size=2,
                            refresh_period=10)
    _diverge_at(monkeypatch, 5)
    with pytest.raises(O.DivergenceError,
                       match="^nonfinite update at step 5$") as err:
        O.run(problem, cfg, T=20, seed=0, metric_tick=2)
    assert err.value.step == 5


@pytest.mark.parametrize("kind", P.KINDS)
def test_a_run_ending_mid_block_records_its_last_ticks(kind):
    # the last block holds steps 10-13 of a 10-step period
    problem = _bit_check_problem(kind, False)
    cfg = O.OptimizerConfig(method="dasgrad", alpha=0.2, batch_size=2,
                            refresh_period=10)
    result = O.run(problem, cfg, T=13, seed=3, metric_tick=2)
    assert result.ticks.tolist() == [2, 4, 6, 8, 10, 12]
    _assert_same_trace(problem, cfg, 13, 3, 2, kind)


@pytest.mark.parametrize("method",
                         ["adagrad", "rmsprop", "adam", "amsgrad", "dasgrad"])
def test_moment_overflow_diverges_without_a_warning(method):
    # g * g overflows in the moment update (adagrad: its running sum)
    # before the first tick reads a nonfinite loss
    problem = _bit_check_problem(P.CENTROID, False)
    cfg = O.OptimizerConfig(method=method, alpha=1e300,
                            projection=(-np.inf, np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(O.DivergenceError, match="nonfinite loss at "
                                                    "step 5"):
            O.run(problem, cfg, T=20, seed=0, metric_tick=5)


@pytest.mark.parametrize("is_sparse", [False, True])
def test_workload_shaped_runs_are_bit_identical(is_sparse):
    # the logistic config's multiclass problem and a sparse binary one, so
    # that BLAS reads row slices of a block at the benchmark's shapes
    if is_sparse:
        data = D.synth_classification(4000, 100, 2, margin=3.0,
                                      sparsity=0.9, seed=5)
        problem = D.make_problem(data, P.BINARY_LOGISTIC, 1e-3)
        methods, batch, T, tick = ("amsgrad", "ap_sgd", "dasgrad"), 32, 40, 10
    else:
        data = D.synth_classification(2000, 100, 10, margin=3.0, seed=7)
        problem = D.make_problem(data, P.MULTICLASS_LOGISTIC, 1e-3)
        methods, batch, T, tick = ("adam", "amsgrad", "dasgrad"), 4, 60, 20
    assert problem.is_sparse == is_sparse
    for method in methods:
        cfg = O.OptimizerConfig(method=method, alpha=0.1, batch_size=batch)
        _assert_same_trace(problem, cfg, T, 0, tick, method)

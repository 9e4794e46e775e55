"""Acceptance suite: one test per advertised guarantee, each printing a
PASS line with the measured quantity. The experiment tests (7, 8, 10) rerun
the full desk-scale protocols and take a few minutes combined."""

import time

import numpy as np
import pytest

from dasgrad import datasets as D
from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import optimizers as O
from dasgrad import problems as P
from dasgrad import sampling as S


def _report(name, detail):
    print("ACCEPTANCE PASS %s: %s" % (name, detail))


def _random_instance(kind, rng):
    n = int(rng.integers(3, 12))
    d = int(rng.integers(2, 6))
    if kind == P.CENTROID:
        return P.Problem(*H._gaussian_rows(rng, n, d, 1), kind)
    if kind == P.BINARY_LOGISTIC:
        return P.Problem(*H._gaussian_rows(rng, n, d, 2), kind,
                         l2_lambda=float(rng.choice([0.0, 0.1])))
    k = int(rng.integers(3, 6))
    return P.Problem(*H._gaussian_rows(rng, n, d, k), kind,
                     l2_lambda=float(rng.choice([0.0, 0.1])), num_classes=k)


def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = {}
    for kind in P.KINDS:
        errs = []
        for _ in range(100):
            prob = _random_instance(kind, rng)
            theta = rng.standard_normal(prob.param_dim)
            errs.append(P.finite_difference_check(prob, theta, 1e-6))
        worst[kind] = max(errs)
        assert worst[kind] < 1e-5, kind
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion-1 gradient correctness",
            "max rel err %s in %.1fs" %
            ({k: "%.2e" % v for k, v in worst.items()}, elapsed))


def test_criterion_2_sampler_law_and_tree_sums():
    start = time.time()
    weights = 0.1 + np.random.default_rng(7).random(1000)
    tree = S.SamplingTree(weights)
    draws = tree.sample_many(np.random.default_rng(3), 1_000_000)
    freq = np.bincount(draws, minlength=1000) / 1e6
    p = weights / weights.sum()
    bound = 4.0 * np.sqrt(p * (1.0 - p) / 1e6)
    dev = np.abs(freq - p)
    assert np.all(dev <= bound), float((dev - bound).max())

    upd = np.random.default_rng(8)
    for _ in range(10_000):
        tree.update(int(upd.integers(0, 1000)), 0.1 + float(upd.random()))
    nodes = tree.nodes
    for idx in range(1, tree.capacity):
        child_sum = nodes[2 * idx] + nodes[2 * idx + 1]
        assert abs(nodes[idx] - child_sum) <= 1e-9 * max(abs(child_sum), 1e-300)
    direct = tree.leaves().sum()
    assert abs(tree.total - direct) <= 1e-9 * direct
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion-2 sampler law",
            "worst z=%.2f sigma over 1e6 draws; sums exact after 1e4 updates"
            " in %.1fs" % (float((dev / (bound / 4.0)).max()), elapsed))


def test_criterion_3_unbiasedness_identity():
    start = time.time()
    rng = np.random.default_rng(103)
    worst_training = worst_target = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        probs = S.normalize_scores(rng.random(n), 1e-3)
        g = rng.standard_normal((n, 4))
        w = S.importance_weight(probs, n)
        est = (probs[:, None] * w[:, None] * g).sum(axis=0)
        worst_training = max(worst_training,
                             float(np.abs(est - g.mean(axis=0)).max()))
        m = int(rng.integers(1, 100))
        counts = rng.integers(0, m + 1, size=n)
        wt = S.target_weight(probs, counts, m)
        est_t = (probs[:, None] * wt[:, None] * g).sum(axis=0)
        target_mean = ((counts / m)[:, None] * g).sum(axis=0)
        worst_target = max(worst_target,
                           float(np.abs(est_t - target_mean).max()))
    assert worst_training <= 1e-12
    assert worst_target <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report("criterion-3 unbiasedness identity",
            "max coord err training=%.1e target=%.1e in %.2fs"
            % (worst_training, worst_target, elapsed))


def test_criterion_4_weighted_second_moment_optimality():
    start = time.time()
    rng = np.random.default_rng(104)
    worst_rel = worst_ident = 0.0
    for _ in range(50):
        norms = 0.05 + rng.random(50)
        p_star = S.normalize_scores(norms, 1e-12)
        value = S.expected_weighted_second_moment(p_star, norms)
        closed = float(norms.mean() ** 2)
        worst_rel = max(worst_rel, abs(value - closed) / closed)
        for _ in range(1000):
            raw = -np.log(rng.random(50))
            other = raw / raw.sum()
            assert value <= S.expected_weighted_second_moment(other, norms) \
                + 1e-12
        identity = float((norms**2).mean() - np.var(norms))
        worst_ident = max(worst_ident, abs(value - identity) / identity)
    assert worst_rel <= 1e-10
    assert worst_ident <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("criterion-4 minimal weighted second moment",
            "closed-form rel err %.1e, variance identity rel err %.1e in %.1fs"
            % (worst_rel, worst_ident, elapsed))


def _lockstep(problem, cfg_a, cfg_b, T, seed):
    """Run two configs in lockstep and return the max coordinatewise
    trajectory gap over all steps."""
    dim = problem.param_dim
    thetas = [np.zeros(dim), np.zeros(dim)]
    states = [O.MomentState.zeros(dim), O.MomentState.zeros(dim)]
    rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
    trees = [S.SamplingTree(np.full(problem.n, 1.0 / problem.n))
             for _ in range(2)]
    worst = 0.0
    for t in range(1, T + 1):
        for j, cfg in enumerate((cfg_a, cfg_b)):
            if O._wants_refresh(cfg, t):
                O.refresh_probabilities(problem, thetas[j], states[j], cfg,
                                        trees[j], t)
            thetas[j], _ = O.step_general(problem, thetas[j], states[j],
                                          trees[j], rngs[j], cfg, t)
        worst = max(worst, float(np.abs(thetas[0] - thetas[1]).max()))
    return worst


def test_criterion_5_collapse_equivalences():
    start = time.time()
    rng = np.random.default_rng(105)
    prob = P.Problem(*H._gaussian_rows(rng, 40, 5, 3), P.MULTICLASS_LOGISTIC,
                     l2_lambda=0.01, num_classes=3)
    kw = dict(alpha=0.05, beta1=0.9, beta2=0.99, batch_size=4)
    gap_moment = _lockstep(
        prob, O.OptimizerConfig(method="dasgrad", freeze_probabilities=True,
                                **kw),
        O.OptimizerConfig(method="amsgrad", **kw), 500, seed=42)
    gap_plain = _lockstep(
        prob,
        O.OptimizerConfig(method="ap_sgd", freeze_probabilities=True,
                          alpha=0.05, batch_size=4),
        O.OptimizerConfig(method="sgd", alpha=0.05, batch_size=4),
        500, seed=42)
    assert gap_moment <= 1e-12
    assert gap_plain <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("criterion-5 collapse equivalences",
            "max trajectory gap dasgrad|uniform vs amsgrad %.1e, "
            "ap_sgd|uniform vs sgd %.1e in %.1fs"
            % (gap_moment, gap_plain, elapsed))


def test_criterion_6_vhat_monotone_and_projection():
    start = time.time()
    rng = np.random.default_rng(106)
    ds = D.synth_centroid(20, 5, 1.0, seed=0)
    prob = D.make_problem(ds, P.CENTROID)
    for method in ("amsgrad", "dasgrad"):
        cfg = H.convex_preset(method, alpha=0.05, batch_size=2)
        state = O.MomentState.zeros(5)
        tree = S.SamplingTree(np.full(20, 1.0 / 20))
        gen = np.random.default_rng(1)
        theta = np.zeros(5)
        prev = np.zeros(5)
        for t in range(1, 10_001):
            if O._wants_refresh(cfg, t):
                O.refresh_probabilities(prob, theta, state, cfg, tree, t)
            theta, _ = O.step_general(prob, theta, state, tree, gen, cfg, t)
            assert np.all(state.v_hat >= prev), (method, t)
            prev = state.v_hat.copy()

    d = 8
    a = rng.standard_normal((10_000, d)) * 2.0
    b = rng.standard_normal((10_000, d)) * 2.0
    m_diag = rng.random((10_000, d)) + 1e-3
    pa = np.clip(a, -1.0, 1.0)
    pb = np.clip(b, -1.0, 1.0)
    lhs = np.sqrt((m_diag * (pa - pb) ** 2).sum(axis=1))
    rhs = np.sqrt((m_diag * (a - b) ** 2).sum(axis=1))
    assert np.all(lhs <= rhs + 1e-12)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("criterion-6 vhat monotonicity and projection",
            "10^4-step runs monotone; nonexpansive on 10^4 triples in %.1fs"
            % elapsed)


def test_criterion_7_variance_sweep():
    start = time.time()
    gaps = []
    ci_sigma10 = None
    for sigma in (0.1, 1.0, 10.0):
        ds = D.synth_centroid(200, 10, sigma, 11)
        prob = D.make_problem(ds, P.CENTROID)
        ref = M.solve_reference(prob)
        finals = {}
        for method in ("amsgrad", "dasgrad"):
            cfg = H.convex_preset(method, alpha=0.01, batch_size=8)
            finals[method] = np.array([
                np.cumsum(O.run(prob, cfg, 500, s, metric_tick=1).loss
                          - ref.f_star)[-1]
                for s in range(100)])
        gap, lo, hi = M.paired_ci(finals["amsgrad"], finals["dasgrad"])
        gaps.append(gap)
        if sigma == 10.0:
            ci_sigma10 = (gap, lo, hi)
            assert finals["dasgrad"].mean() <= finals["amsgrad"].mean()
            assert lo > 0.0, "paired CI must exclude zero at sigma=10"
    assert gaps[0] < gaps[1] < gaps[2], gaps
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("criterion-7 variance sweep",
            "gaps %s increasing; sigma=10 paired CI (%.2f, %.2f) in %.0fs"
            % (["%.3f" % g for g in gaps], ci_sigma10[1], ci_sigma10[2],
               elapsed))


def test_criterion_8_logistic_comparison():
    start = time.time()
    ds = D.synth_classification(2000, 100, 10, margin=3.0, seed=7)
    prob = D.make_problem(ds, P.MULTICLASS_LOGISTIC, 1e-3)
    finals = {}
    for method in ("adam", "amsgrad", "dasgrad"):
        cfg = H.convex_preset(method, alpha=0.1, batch_size=4)
        finals[method] = np.array([
            O.run(prob, cfg, 2000, s, metric_tick=2000).loss[-1]
            for s in range(10)])
    detail = []
    for base in ("adam", "amsgrad"):
        assert finals["dasgrad"].mean() <= finals[base].mean(), base
        gap, lo, hi = M.paired_ci(finals[base], finals["dasgrad"])
        assert lo > 0.0, "paired CI vs %s must exclude zero" % base
        detail.append("vs %s %.4f (%.4f, %.4f)" % (base, gap, lo, hi))
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report("criterion-8 logistic comparison",
            "; ".join(detail) + " in %.0fs" % elapsed)


def test_criterion_9_sublinear_regret_signature():
    start = time.time()
    ds = D.synth_centroid(200, 10, 1.0, 11)
    prob = D.make_problem(ds, P.CENTROID)
    ref = M.solve_reference(prob)
    slopes = {}
    for method in O.METHODS:
        cfg = H.convex_preset(method, alpha=0.01, batch_size=8)
        cums = [np.cumsum(O.run(prob, cfg, 500, s, metric_tick=1).loss
                          - ref.f_star)
                for s in range(20)]
        ticks = np.arange(1, 501)
        avg = np.mean(cums, axis=0) / ticks
        half = ticks >= 250
        slopes[method] = M.trend_slope(ticks[half], avg[half])
        assert slopes[method] <= 0.0, method
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("criterion-9 sublinear regret signature",
            "all preset slopes <= 0 (max %.2e) in %.0fs"
            % (max(slopes.values()), elapsed))


def test_criterion_10_distribution_matching():
    start = time.time()
    p = H.MATCHING_DEFAULTS
    total = D.synth_classification(p["n_train"] + p["n_eval"], p["d"],
                                   p["num_classes"], margin=p["margin"],
                                   seed=p["data_seed"])
    split = p["n_train"]
    train = D.Dataset(total.X[:split], total.y[:split], p["num_classes"],
                      "train")
    evald = D.Dataset(total.X[split:], total.y[split:], p["num_classes"],
                      "eval")
    train = D.unbalance(train, p["drop_labels"], p["keep_fraction"],
                        p["data_seed"])
    prob = D.make_problem(train, P.MULTICLASS_LOGISTIC, p["l2_lambda"])
    counts = evald.label_counts()
    arms = {
        "target": H.convex_preset("dasgrad", alpha=p["alpha"],
                                  batch_size=p["batch_size"],
                                  target_label_counts=counts),
        "uniform": H.convex_preset("amsgrad", alpha=p["alpha"],
                                   batch_size=p["batch_size"]),
    }
    acc = {}
    for name, cfg in arms.items():
        acc[name] = np.array([
            M.accuracy(prob, O.run(prob, cfg, p["T"], s,
                                   metric_tick=p["T"]).theta,
                       evald.X, evald.y)
            for s in range(20)])
    assert acc["target"].mean() >= acc["uniform"].mean()
    gap, lo, hi = M.paired_ci(acc["target"], acc["uniform"])
    assert lo > 0.0, "paired CI of the accuracy gap must exclude zero"
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report("criterion-10 distribution matching",
            "balanced accuracy gap %.4f CI (%.4f, %.4f) over 20 seeds in %.0fs"
            % (gap, lo, hi, elapsed))


EXPERIMENT_CONFIG = """
kind = multiclass-logistic
n = 60
d = 5
classes = 3
margin = 3
data_seed = 5
lambda = 1e-3
T = 40
seeds = 0,1
metric_tick = 10
output_dir = {out}

[optimizer.dasgrad]
method = dasgrad
alpha = 0.05
batch_size = 4

[optimizer.amsgrad]
method = amsgrad
alpha = 0.05
batch_size = 4
"""


def test_criterion_11_determinism(tmp_path):
    import os
    start = time.time()
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out in dirs:
        cfg = H.parse_config_text(EXPERIMENT_CONFIG.format(out=out))
        H.run_experiment(cfg)
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    elapsed = time.time() - start
    _report("criterion-11 determinism",
            "%d files byte-identical across reruns in %.1fs"
            % (len(names), elapsed))


def test_criterion_12_sampling_scales_logarithmically():
    start = time.time()
    timings = {}
    for log_n in (10, 20):
        n = 2**log_n
        weights = 0.5 + np.random.default_rng(12).random(n)
        tree = S.SamplingTree(weights)
        rng = np.random.default_rng(13)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(10):
                tree.sample_many(rng, 100_000)
            best = min(best, time.perf_counter() - t0)
        timings[log_n] = best / 1e6
    ratio = timings[20] / timings[10]
    assert ratio < 8.0, ratio
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("criterion-12 sampling complexity",
            "per-draw %.0f ns (2^10) vs %.0f ns (2^20), ratio %.2f in %.0fs"
            % (timings[10] * 1e9, timings[20] * 1e9, ratio, elapsed))

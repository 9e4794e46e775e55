import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from dasgrad import harness as H
from dasgrad import optimizers as O
from dasgrad import problems as P
from dasgrad import sampling as S


class _SumTree:
    """Oracle for ``SamplingTree.sample_many``: the flat-array sum tree the
    sampler used before it kept running sums. ``nodes`` has 2 * capacity
    entries, capacity the least power of two >= n; nodes[1] is the root,
    leaf i lives at nodes[capacity + i], and every parent is the float sum
    of its two children, built level by level."""

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        self.n = len(weights)
        self.capacity = 1 << (self.n - 1).bit_length()
        self.nodes = np.zeros(2 * self.capacity)
        self.nodes[self.capacity:self.capacity + self.n] = weights
        lo = self.capacity
        while lo > 1:
            level = self.nodes[lo:2 * lo]
            self.nodes[lo // 2:lo] = level[0::2] + level[1::2]
            lo //= 2
        self.total = float(self.nodes[1])

    def sample_many(self, rng, size):
        """``index_of_prefix`` of u = rng.random(size) * total, as one
        vectorized descent per level. Where a draw goes left it subtracts
        0.0, which leaves u unchanged, so each draw is the scalar descent
        bit for bit."""
        u = rng.random(size) * self.total
        idx = np.ones(size, dtype=np.int64)
        for _ in range(self.capacity.bit_length() - 1):
            idx <<= 1
            left_sum = self.nodes[idx]
            right = u >= left_sum
            left_sum *= right
            u -= left_sum
            idx += right
        return np.minimum(idx - self.capacity, self.n - 1)


def index_of_prefix(tree, u):
    """The scalar root-to-leaf descent of a ``_SumTree`` to the leaf whose
    cumulative-weight interval contains u in [0, total). It goes left on
    u < left-child sum, else subtracts the left sum and goes right, so
    boundary ties go right."""
    idx = 1
    nodes = tree.nodes
    while idx < tree.capacity:
        left = 2 * idx
        if u < nodes[left]:
            idx = left
        else:
            u -= nodes[left]
            idx = left + 1
    # float slack in the child sums can spill past the last live leaf
    return min(idx - tree.capacity, tree.n - 1)


class TestTreeBuild:
    def test_root_sum(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        assert tree.total == 10.0

    def test_singleton(self):
        tree = S.SamplingTree([5.0])
        assert tree.total == 5.0
        assert tree.cdf.tolist() == [5.0]

    def test_large_random_build_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        weights = rng.random(1000)
        tree = S.SamplingTree(weights)
        direct = float(weights.sum())
        assert abs(tree.total - direct) <= 1e-9 * direct

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            S.SamplingTree([])
        with pytest.raises(ValueError):
            S.SamplingTree([1.0, -0.5])
        with pytest.raises(ValueError):
            S.SamplingTree([0.0, 0.0])


class TestTreeArrays:
    @pytest.mark.parametrize("name", ["weights", "cdf"])
    def test_assigning_into_an_array_raises(self, name):
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, name)[0] = 5.0
        tree.update(1, 4.0)
        tree.set_all([3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, name)[0] = 5.0
        assert tree.weights.tolist() == [3.0, 2.0, 1.0]
        assert tree.cdf.tolist() == [3.0, 5.0, 6.0]


class TestTreeUpdate:
    def test_root_after_update(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        tree.update(1, 5.0)
        assert tree.total == 13.0

    def test_identity_update_keeps_every_running_sum(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        before = tree.cdf.copy()
        tree.update(2, tree.weights[2])
        assert np.array_equal(tree.cdf, before)

    def test_many_updates_keep_running_sums_exact(self):
        rng = np.random.default_rng(1)
        tree = S.SamplingTree(rng.random(1000))
        for _ in range(10_000):
            tree.update(int(rng.integers(0, 1000)), float(rng.random()))
        _assert_running_sums_exact(tree)

    def test_bad_updates(self):
        tree = S.SamplingTree([1.0, 2.0])
        with pytest.raises(IndexError):
            tree.update(2, 1.0)
        with pytest.raises(ValueError):
            tree.update(0, -1.0)

    def test_update_that_overflows_the_total_is_rejected(self):
        tree = S.SamplingTree([1e308, 1.0, 3.0])
        before = tree.cdf.copy()
        with pytest.raises(ValueError):
            tree.update(1, 1e308)
        assert np.array_equal(tree.cdf, before)
        assert tree.weights.tolist() == [1e308, 1.0, 3.0]


class TestTreeSetAll:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 37, 1000])
    def test_matches_fresh_build_and_per_leaf_updates(self, n):
        rng = np.random.default_rng(n)
        weights = rng.random(n) + 0.01
        bulk = S.SamplingTree(rng.random(n) + 0.01)
        per_leaf = S.SamplingTree(bulk.weights)
        bulk.set_all(weights)
        for i, w in enumerate(weights):
            per_leaf.update(i, w)
        assert np.array_equal(bulk.cdf, S.SamplingTree(weights).cdf)
        assert np.array_equal(bulk.cdf, per_leaf.cdf)
        assert np.array_equal(bulk.weights, weights)

    @pytest.mark.parametrize("bad", [
        [1.0, 2.0],
        [1.0, 2.0, 3.0, 4.0],
        [[1.0, 2.0, 3.0]],
        [1.0, -0.5, 2.0],
        [1.0, np.nan, 2.0],
        [1.0, np.inf, 2.0],
        [0.0, 0.0, 0.0],
        [1e308, 1e308, 1.0],
    ])
    def test_rejects_bad_input_and_leaves_tree_unchanged(self, bad):
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            tree.set_all(bad)
        assert tree.weights.tolist() == [1.0, 2.0, 3.0]
        assert tree.cdf.tolist() == [1.0, 3.0, 6.0]

    def test_keeps_its_own_copy_of_the_weights(self):
        weights = np.array([1.0, 2.0, 3.0])
        tree = S.SamplingTree(weights)
        weights[0] = 100.0
        tree.set_all(weights)
        weights[1] = 100.0
        assert tree.weights.tolist() == [100.0, 2.0, 3.0]
        assert weights.flags.writeable
        _assert_running_sums_exact(tree)
        # the tree's own read-only array is copied too
        other = S.SamplingTree([5.0, 6.0, 7.0])
        other.set_all(tree.weights)
        other.update(0, 1.0)
        assert tree.weights.tolist() == [100.0, 2.0, 3.0]


_weight = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mixed_set_all_and_update_keep_running_sums_exact(data):
    n = data.draw(st.integers(min_value=1, max_value=40), label="n")
    positive = st.lists(_weight, min_size=n, max_size=n).filter(
        lambda ws: any(w > 0 for w in ws))
    tree = S.SamplingTree(data.draw(positive, label="initial"))
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("set_all"), positive),
        st.tuples(st.just("update"), st.integers(0, n - 1), _weight)),
        max_size=20), label="ops")
    for op in ops:
        if op[0] == "set_all":
            tree.set_all(op[1])
        else:
            tree.update(op[1], op[2])
        _assert_running_sums_exact(tree)


def _assert_running_sums_exact(tree):
    assert np.array_equal(tree.cdf, np.cumsum(tree.weights))
    assert tree.total == tree.cdf[-1]


class TestTreeSample:
    def test_prefix_descent_hand_case(self):
        # cumulative sums 1, 3, 6, 10: u = 5.5 lies in [3, 6) -> index 2
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        assert tree.sample_many(_FixedUniforms([0.55]), 1).tolist() == [2]

    def test_prefix_descent_matches_cumsum_oracle(self):
        rng = np.random.default_rng(2)
        weights = rng.random(37)
        tree = S.SamplingTree(weights)
        edges = np.cumsum(weights)
        fractions = rng.random(500)
        u = fractions * tree.total  # as sample_many scales its uniforms
        # ties at interval edges go right, so searchsorted side='right'
        expected = np.minimum(np.searchsorted(edges, u, side="right"),
                              len(weights) - 1)
        assert np.array_equal(
            tree.sample_many(_FixedUniforms(fractions), 500), expected)

    def test_single_support_point(self):
        tree = S.SamplingTree([0.0, 0.0, 7.0, 0.0])
        draws = tree.sample_many(_FixedUniforms([0.0, 1 / 7, 6.9 / 7]), 3)
        assert draws.tolist() == [2, 2, 2]

    def test_empirical_frequencies(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(3)
        draws = tree.sample_many(rng, 1_000_000)
        freq = np.bincount(draws, minlength=4) / 1e6
        np.testing.assert_allclose(freq, [0.1, 0.2, 0.3, 0.4], atol=0.01)

    @pytest.mark.parametrize("weights", [
        # non-dyadic weights: the running sums round
        [0.3, 1.7, 0.0, 2.4, 0.6],
        np.random.default_rng(2).random(37),
    ])
    def test_edge_grid_draws_search_the_running_sums(self, weights):
        _running_sum_draws_on_edge_grid(S.SamplingTree(weights), weights)

    def test_sample_many_ties_go_right_at_exact_edges(self):
        # dyadic weights with a power-of-two total keep every prefix sum,
        # and u = fraction * total, exact in floating point
        weights = np.array([0.375, 1.625, 0.0, 2.5, 3.5])
        tree = S.SamplingTree(weights)
        _running_sum_draws_on_edge_grid(tree, weights)
        # ties at an edge go right, past the empty leaf 2; u = total is
        # past the last edge and takes the last leaf
        edges = _FixedUniforms(np.array([0.375, 2.0, 4.5, 8.0]) / 8.0)
        assert tree.sample_many(edges, 4).tolist() == [1, 3, 4, 4]

    def test_sample_many_of_size_zero(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        draws = tree.sample_many(np.random.default_rng(0), 0)
        assert draws.shape == (0,)

    def test_zero_tree_rejected_at_sample(self):
        tree = S.SamplingTree([1.0])
        tree.update(0, 0.0)
        with pytest.raises(ValueError):
            tree.sample_many(np.random.default_rng(0), 1)


# sizes: one leaf, powers of two, one past a power of two, and any size up
# to 70
_tree_size = st.one_of(st.just(1), st.integers(1, 6).map(lambda j: 2**j),
                       st.integers(1, 6).map(lambda j: 2**j + 1),
                       st.integers(1, 70))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_draw_of_k_batches_is_k_batch_draws_in_a_row(data):
    # a refresh block draws its steps' indices at once; the stream must be
    # the one the steps would draw one batch at a time
    n = data.draw(_tree_size, label="n")
    weights = data.draw(st.lists(_weight, min_size=n, max_size=n).filter(
        lambda ws: any(w > 0 for w in ws)), label="weights")
    batch = data.draw(st.one_of(st.just(1), st.integers(1, 40)),
                      label="batch")
    k = data.draw(st.integers(1, 12), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    tree = S.SamplingTree(weights)
    block = tree.sample_many(np.random.default_rng(seed), k * batch)
    rng = np.random.default_rng(seed)
    steps = [tree.sample_many(rng, batch) for _ in range(k)]
    assert np.array_equal(block, np.concatenate(steps))


class _FixedUniforms:
    """rng stand-in replaying a fixed uniform sequence."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        v, self.values = self.values[:size], self.values[size:]
        return np.array(v)


def _edge_grid(weights, total):
    """Uniforms whose u = fraction * total cover a linspace, seeded
    uniforms, the prefix-sum edges and the floats either side of them, and
    u = total."""
    edges = np.cumsum(weights)
    return np.concatenate([
        np.linspace(0.0, 1 - 1e-12, 97),
        np.random.default_rng(5).random(1000),
        edges / total, np.nextafter(edges, 0.0) / total,
        np.nextafter(edges, np.inf) / total, [1.0],
    ])


def _running_sum_draws_on_edge_grid(tree, weights):
    """sample_many on the edge grid is the right-side search of the
    running sums, clamped to the last leaf."""
    fractions = _edge_grid(weights, tree.total)
    u = fractions * tree.total  # as sample_many scales its uniforms
    expected = np.minimum(np.searchsorted(np.cumsum(weights), u,
                                          side="right"), len(weights) - 1)
    draws = tree.sample_many(_FixedUniforms(fractions), len(fractions))
    assert np.array_equal(draws, expected)


@pytest.mark.parametrize("weights", [
    [0.3, 1.7, 0.0, 2.4, 0.6],
    [0.375, 1.625, 0.0, 2.5, 3.5],
    # a padding leaf at every level, and pairwise sums that round apart
    # from the running sums
    np.random.default_rng(2).random(37),
])
def test_oracle_vector_descent_is_its_scalar_descent(weights):
    oracle = _SumTree(weights)
    fractions = _edge_grid(weights, oracle.total)
    u = fractions * oracle.total
    scalar = [index_of_prefix(oracle, float(x)) for x in u]
    vector = oracle.sample_many(_FixedUniforms(fractions), len(fractions))
    assert vector.tolist() == scalar


def _draw_equality_cases():
    """(weights, draws) pairs: the uniform 1/n start that every run draws
    from first, and refreshed distributions of heavy-tailed scores."""
    for n in range(1, 301):
        yield np.full(n, 1.0 / n), 2000
    for n in (1100, 2000, 20000):
        yield np.full(n, 1.0 / n), 35_000
    rng = np.random.default_rng(16)
    for n in (200, 2000, 20000):
        for scores in (rng.random(n), rng.standard_cauchy(n) ** 2,
                       rng.lognormal(0.0, 2.0, n)):
            yield S.normalize_scores(scores, 1e-8), 35_000


def test_sample_many_draws_the_sum_trees_indices():
    # about 10^6 seeded draws; a running sum and the tree's pairwise sums
    # round differently, so a u within ulps of an edge could tell them apart
    for seed, (weights, size) in enumerate(_draw_equality_cases()):
        got = S.SamplingTree(weights).sample_many(
            np.random.default_rng(seed), size)
        want = _SumTree(weights).sample_many(
            np.random.default_rng(seed), size)
        assert np.array_equal(got, want), (len(weights), seed)


class TestNormalizeScores:
    def test_basic(self):
        probs = S.normalize_scores([3.0, 1.0], 1e-12)
        np.testing.assert_allclose(probs, [0.75, 0.25], rtol=1e-11)

    def test_equal_scores_uniform(self):
        probs = S.normalize_scores([2.5, 2.5, 2.5, 2.5], 1e-8)
        assert np.all(probs == probs[0])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_scores_with_epsilon(self):
        probs = S.normalize_scores([0.0, 0.0, 2.0], 1.0)
        np.testing.assert_allclose(probs, [0.2, 0.2, 0.6])

    def test_scale_invariance_when_epsilon_scales(self):
        rng = np.random.default_rng(4)
        scores = rng.random(20)
        for c in (1e-3, 7.0, 1e5):
            a = S.normalize_scores(scores, 1e-6)
            b = S.normalize_scores(c * scores, c * 1e-6)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            S.normalize_scores([-1.0], 1e-8)
        with pytest.raises(ValueError):
            S.normalize_scores([1.0], 0.0)

    def test_overflowing_total_rejected(self):
        # rejected by the ValueError alone, with no numpy overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="overflows"):
                S.normalize_scores([1.7e308, 1.7e308], 1e-8)


_epsilon = st.floats(min_value=1e-12, max_value=1.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=50), eps=_epsilon)
def test_all_zero_scores_give_uniform_probabilities(n, eps):
    probs = S.normalize_scores(np.zeros(n), eps)
    assert np.all(probs == probs[0])
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(exponents=st.lists(st.floats(min_value=-150.0, max_value=150.0),
                          min_size=2, max_size=50),
       eps=_epsilon)
def test_dynamic_range_1e300_keeps_probabilities_positive(exponents, eps):
    # the smallest and largest scores lie 1e300 apart
    scores = 10.0 ** np.array([-150.0, 150.0] + exponents)
    probs = S.normalize_scores(scores, eps)
    assert np.all(probs > 0)
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_target_weights_are_unbiased_for_the_class_reweighted_mean(data):
    """sum_i p_i w_i g_i = sum_k (c_k / m) mean_{i: y_i = k} g_i for the
    weights a target-mode step applies, under any positive p."""
    k = data.draw(st.integers(min_value=2, max_value=4), label="k")
    y = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=k,
                                    max_size=30).filter(
        lambda ys: len(set(ys)) == k), label="labels"))
    counts = np.array(data.draw(st.lists(st.integers(0, 20), min_size=k,
                                         max_size=k).filter(any),
                                label="target counts"))
    m = int(counts.sum())
    n = y.size
    scores = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1e3), min_size=n, max_size=n),
        label="scores"))
    probs = S.normalize_scores(scores, data.draw(_epsilon, label="eps"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    g = rng.standard_normal((n, 3))
    prob = P.Problem(np.zeros((n, 1)), y, P.MULTICLASS_LOGISTIC,
                     num_classes=k)
    cfg = O.OptimizerConfig(method="dasgrad", target_label_counts=counts)
    w = O._weights_for(prob, np.arange(n), S.SamplingTree(probs), cfg)
    lhs = (probs[:, None] * w[:, None] * g).sum(axis=0)
    rhs = sum(counts[c] / m * g[y == c].mean(axis=0) for c in range(k))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestWeights:
    def test_uniform_is_unweighted(self):
        assert S.importance_weight(1.0 / 7, 7) == 1.0

    def test_hand_value(self):
        assert S.importance_weight(0.25, 2) == pytest.approx(2.0)

    def test_weighted_mass_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            probs = S.normalize_scores(rng.random(n), 1e-3)
            w = S.importance_weight(probs, n)
            assert abs(float((probs * w).sum()) - 1.0) < 1e-12

    def test_target_weight_matched(self):
        # same target and sampling share -> weight 1
        assert S.target_weight(0.25, 1, 4) == pytest.approx(1.0)

    def test_target_weight_hand_value(self):
        assert S.target_weight(0.1, 2, 10) == pytest.approx(2.0)

    def test_target_weight_enumeration_three_classes(self):
        # weighted estimator hits sum_i (c_i / m) g_i exactly
        rng = np.random.default_rng(6)
        labels = np.array([0, 0, 1, 2, 2, 2])
        counts = np.array([10, 4, 6])
        m = 20
        probs = S.normalize_scores(rng.random(6), 1e-2)
        g = rng.standard_normal((6, 3))
        w = S.target_weight(probs, counts[labels], m)
        lhs = (probs[:, None] * w[:, None] * g).sum(axis=0)
        rhs = ((counts[labels] / m)[:, None] * g).sum(axis=0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            S.importance_weight(0.0, 3)
        with pytest.raises(ValueError):
            S.target_weight(0.5, 5, 0)
        with pytest.raises(ValueError):
            S.target_weight(0.5, 11, 10)


def small_centroid(points):
    X = np.asarray(points, dtype=float)
    return P.Problem(X, np.zeros(len(X), dtype=np.int64), P.CENTROID)


class TestScores:
    def test_apsgd_zero_at_example(self):
        prob = small_centroid([[1.0, 2.0], [0.0, 0.0]])
        scores = S.scores_apsgd(prob, np.array([1.0, 2.0]))
        assert scores[0] == 0.0

    def test_apsgd_hand_values(self):
        prob = small_centroid([[0.0], [3.0]])
        scores = S.scores_apsgd(prob, np.array([1.0]))
        np.testing.assert_allclose(scores, [1.0, 2.0])

    def test_apsgd_equals_per_example_norms(self):
        rng = np.random.default_rng(7)
        for kind in (P.BINARY_LOGISTIC, P.MULTICLASS_LOGISTIC):
            k = 4
            X, y = H._gaussian_rows(rng, 12, 5,
                                 2 if kind == P.BINARY_LOGISTIC else k)
            prob = P.Problem(X, y, kind, l2_lambda=0.07,
                             num_classes=None if kind == P.BINARY_LOGISTIC else k)
            theta = rng.standard_normal(prob.param_dim)
            scores = S.scores_apsgd(prob, theta)
            oracle = np.array([np.linalg.norm(P.example_gradient(prob, i, theta))
                               for i in range(prob.n)])
            np.testing.assert_allclose(scores, oracle, rtol=1e-12, atol=1e-12)

    def test_dasgrad_identity_preconditioner_reduces_to_apsgd(self):
        rng = np.random.default_rng(8)
        prob = small_centroid(rng.standard_normal((6, 3)))
        theta = rng.standard_normal(3)
        base = S.scores_apsgd(prob, theta)
        via_dasgrad = S.scores_dasgrad(prob, theta, np.zeros(3), np.ones(3),
                                       beta1_t=0.0)
        assert np.array_equal(base, via_dasgrad)

    def test_dasgrad_constant_preconditioner_scales_scores(self):
        rng = np.random.default_rng(9)
        prob = small_centroid(rng.standard_normal((6, 3)))
        theta = rng.standard_normal(3)
        c = 5.0
        base = S.scores_apsgd(prob, theta)
        scaled = S.scores_dasgrad(prob, theta, np.zeros(3), c * np.ones(3),
                                  beta1_t=0.0)
        np.testing.assert_allclose(scaled, base / c**0.25, rtol=1e-12)
        np.testing.assert_allclose(
            S.normalize_scores(scaled, 1e-15 / c**0.25),
            S.normalize_scores(base, 1e-15), atol=1e-12)

    def test_dasgrad_matches_direct_recomputation(self):
        rng = np.random.default_rng(10)
        k = 3
        prob = P.Problem(*H._gaussian_rows(rng, 9, 4, k), P.MULTICLASS_LOGISTIC,
                         l2_lambda=0.05,
                         num_classes=k)
        theta = rng.standard_normal(prob.param_dim)
        m_prev = rng.standard_normal(prob.param_dim)
        v_hat = rng.random(prob.param_dim)
        v_hat[::5] = 0.0  # exercise the zero-coordinate guard
        beta1_t, eps_div = 0.9, 1e-8
        scores = S.scores_dasgrad(prob, theta, m_prev, v_hat, beta1_t,
                                  eps_div=eps_div)
        root = np.where(v_hat > 0, v_hat**0.25, np.sqrt(eps_div))
        oracle = np.array([
            np.linalg.norm((beta1_t * m_prev
                            + (1 - beta1_t) * P.example_gradient(prob, i, theta))
                           / root)
            for i in range(prob.n)])
        np.testing.assert_allclose(scores, oracle, rtol=1e-12, atol=1e-12)

    def test_dasgrad_sparse_matches_direct_recomputation(self):
        rng = np.random.default_rng(11)
        d = 15
        rows, labels = [], []
        for _ in range(10):
            row = rng.standard_normal(d) * (rng.random(d) < 0.4)
            if not row.any():
                row[0] = 1.0
            rows.append(row)
            labels.append(int(rng.integers(0, 2)))
        prob = P.Problem(sparse.csr_matrix(np.array(rows)), labels,
                         P.BINARY_LOGISTIC, l2_lambda=0.03)
        assert prob.is_sparse
        theta = rng.standard_normal(d)
        m_prev = rng.standard_normal(d)
        v_hat = rng.random(d)
        scores = S.scores_dasgrad(prob, theta, m_prev, v_hat, 0.9)
        root = v_hat**0.25
        oracle = np.array([
            np.linalg.norm((0.9 * m_prev
                            + 0.1 * P.example_gradient(prob, i, theta)) / root)
            for i in range(prob.n)])
        np.testing.assert_allclose(scores, oracle, rtol=1e-11, atol=1e-12)


def two_pass_scores(problem, theta, m_prev, v_hat, beta1_t, eps_div=1e-8):
    """Reference copy of the earlier score route: the shared part of the
    direction is built first, keyed by kind, and the norms are assembled
    from it in a second function. Every operation keeps its order, so
    ``scores_dasgrad`` must match it bit for bit."""
    v_hat = np.asarray(v_hat, dtype=np.float64)
    root = np.where(v_hat > 0, np.sqrt(np.sqrt(v_hat)), np.sqrt(eps_div))
    keep = 1.0 - beta1_t
    X = problem.X
    # X squared by rows: the reference route of the quad term, which
    # Problem.X_sq takes by columns
    X_sq = X.multiply(X).tocsr() if problem.is_sparse else X**2
    inv_sq = 1.0 / (root * root)
    if problem.kind == P.CENTROID:
        const, coef = beta1_t * m_prev + keep * theta, -keep
        if problem.is_sparse:
            X = np.asarray(X.todense())
        return np.linalg.norm((const[None, :] + coef * X) / root[None, :],
                              axis=1)
    if problem.kind == P.BINARY_LOGISTIC:
        # the flat layout: theta, m_prev and the residuals as vectors
        A = beta1_t * m_prev + keep * (problem.l2_lambda * theta)
        C = keep * P.residuals(problem, theta).ravel()
        base = float((A * A * inv_sq).sum())
        cross = np.asarray(X @ (A * inv_sq)).ravel()
        quad = np.asarray(X_sq @ inv_sq).ravel()
        sq = base + 2.0 * C * cross + (C * C) * quad
        return np.sqrt(np.maximum(sq, 0.0))
    A = (beta1_t * problem.weights_view(m_prev)
         + keep * (problem.l2_lambda * problem.weights_view(theta)))
    C = keep * P.residuals(problem, theta)
    inv_sq = inv_sq.reshape(A.shape)
    base = float((A * A * inv_sq).sum())
    cross = np.asarray(X @ (A * inv_sq).T)
    quad = np.asarray(X_sq @ inv_sq.T)
    sq = base + 2.0 * (C * cross).sum(axis=1) + (C * C * quad).sum(axis=1)
    return np.sqrt(np.maximum(sq, 0.0))


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("beta1_t", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("zero_coords", [False, True])
@pytest.mark.parametrize("is_sparse", [False, True])
@pytest.mark.parametrize("kind", P.KINDS)
def test_scores_bit_identical_to_two_pass_route(kind, is_sparse, zero_coords,
                                                beta1_t, lam):
    rng = np.random.default_rng(12)
    k = {P.CENTROID: 1, P.BINARY_LOGISTIC: 2, P.MULTICLASS_LOGISTIC: 3}[kind]
    X, y = H._gaussian_rows(rng, 30, 6, k)
    if is_sparse:
        X = sparse.csr_matrix(X * (rng.random(X.shape) < 0.4))
    prob = P.Problem(X, y, kind, l2_lambda=lam)
    # CSR storage is kept for the logistic kinds only
    assert prob.is_sparse == (is_sparse and kind != P.CENTROID)
    theta = rng.standard_normal(prob.param_dim)
    m_prev = rng.standard_normal(prob.param_dim)
    v_hat = rng.random(prob.param_dim)
    if zero_coords:
        v_hat[::3] = 0.0
    assert np.array_equal(
        S.scores_dasgrad(prob, theta, m_prev, v_hat, beta1_t, eps_div=1e-6),
        two_pass_scores(prob, theta, m_prev, v_hat, beta1_t, eps_div=1e-6))
    ones, zeros = np.ones(prob.param_dim), np.zeros(prob.param_dim)
    assert np.array_equal(S.scores_apsgd(prob, theta),
                          two_pass_scores(prob, theta, zeros, ones, 0.0))


class TestExpectedWeightedSecondMoment:
    def test_hand_value_at_optimum(self):
        val = S.expected_weighted_second_moment(np.array([0.75, 0.25]),
                                                np.array([3.0, 1.0]))
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_uniform_gives_mean_square(self):
        rng = np.random.default_rng(12)
        norms = rng.random(11)
        uniform = np.full(11, 1.0 / 11)
        val = S.expected_weighted_second_moment(uniform, norms)
        assert val == pytest.approx(float((norms**2).mean()), rel=1e-12)

    def test_proportional_is_minimal(self):
        rng = np.random.default_rng(13)
        norms = np.array([3.0, 1.0])
        p_star = S.normalize_scores(norms, 1e-12)
        best = S.expected_weighted_second_moment(p_star, norms)
        for _ in range(1000):
            raw = -np.log(rng.random(2))
            p = raw / raw.sum()
            assert best <= S.expected_weighted_second_moment(p, norms) + 1e-12

    def test_variance_identity(self):
        rng = np.random.default_rng(14)
        norms = rng.random(30) + 0.05
        p_star = S.normalize_scores(norms, 1e-12)
        minimum = S.expected_weighted_second_moment(p_star, norms)
        identity = float((norms**2).mean() - np.var(norms))
        assert minimum == pytest.approx(identity, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            S.expected_weighted_second_moment(np.array([0.5, 0.5]),
                                              np.array([1.0]))

    @pytest.mark.parametrize("probs, norms, message", [
        ([0.5, np.inf], [1.0, 1.0], "probabilities must be finite"),
        ([0.5, np.nan], [1.0, 1.0], "probabilities must be finite"),
        ([np.nan, 0.5], [1.0, 1.0], "probabilities must be finite"),
        ([0.5, 0.0], [1.0, 1.0], "probabilities must be finite"),
        ([0.5, -0.5], [1.0, 1.0], "probabilities must be finite"),
        ([0.5, 0.5], [1.0, -1.0], "norms must be finite"),
        ([0.5, 0.5], [np.inf, 1.0], "norms must be finite"),
        ([0.5, 0.5], [1.0, np.nan], "norms must be finite"),
        ([], [], "nonempty"),
    ])
    def test_bad_input_is_rejected(self, probs, norms, message):
        with pytest.raises(ValueError, match=message):
            S.expected_weighted_second_moment(np.array(probs),
                                              np.array(norms))

    def test_zero_norms_are_accepted(self):
        assert S.expected_weighted_second_moment(
            np.array([0.25, 0.75]), np.array([0.0, 0.0])) == 0.0


# Test-local copies of the input checks as they stood before each became
# one min/max reduce pair: a check that passes them must accept and reject
# the same inputs, with the same error.

def _per_condition_set_all(n, weights):
    weights = np.array(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError("weights must be a 1-d sequence of length %d" % n)
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not np.any(weights > 0):
        raise ValueError("at least one weight must be positive")
    with np.errstate(over="ignore"):
        cdf = np.cumsum(weights)
    if not np.isfinite(cdf[-1]):
        raise ValueError("the weights' total overflows")
    return np.stack([weights, cdf])


def _per_condition_normalize_scores(scores, epsilon):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-d sequence")
    if np.any(scores < 0) or not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite and nonnegative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    shifted = scores + epsilon
    with np.errstate(over="ignore"):
        total = shifted.sum()
    if not np.isfinite(total):
        raise ValueError("the total of the scores overflows")
    return shifted / total


def _per_condition_importance_weight(p_i, n):
    p_i = np.asarray(p_i, dtype=np.float64)
    if np.any(p_i <= 0):
        raise ValueError("probabilities must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    out = (1.0 / n) / p_i
    return float(out) if out.ndim == 0 else out


def _per_condition_target_weight(p_i, label_count, m):
    p_i = np.asarray(p_i, dtype=np.float64)
    if np.any(p_i <= 0):
        raise ValueError("probabilities must be positive")
    if m < 1:
        raise ValueError("m must be at least 1")
    label_count = np.asarray(label_count, dtype=np.float64)
    if np.any(label_count < 0) or np.any(label_count > m):
        raise ValueError("label_count must lie in [0, m]")
    out = (label_count / m) / p_i
    return float(out) if out.ndim == 0 else out


def _outcome(f, *args):
    """("ok", type, shape, bytes) of what f returns, or (error type,
    message) of what it raises."""
    try:
        with np.errstate(all="ignore"):
            out = f(*args)
    except (ValueError, IndexError) as err:
        return type(err), str(err)
    return "ok", type(out), np.shape(out), np.asarray(out).tobytes()


_edge_float = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0,
                               -1.0, 5e-324, 1e308]) | st.floats()


def _edge_vectors():
    """0-d values and 1-d vectors (empty included) of the edge floats, all
    zeros and all NaN among them."""
    vectors = st.lists(_edge_float, max_size=6).map(np.array)
    fills = st.tuples(st.integers(1, 4), _edge_float).map(
        lambda nv: np.full(nv[0], nv[1]))
    return (_edge_float.map(np.float64).map(np.asarray) | vectors | fills
            | st.integers(1, 4).map(np.zeros))


@settings(max_examples=300, deadline=None)
@given(weights=_edge_vectors())
def test_set_all_check_is_the_per_condition_check(weights):
    n = max(weights.size, 1)
    tree = S.SamplingTree(np.ones(n))

    def set_all(w):
        tree.set_all(w)
        return np.stack([tree.weights, tree.cdf])

    assert _outcome(set_all, weights) == \
        _outcome(_per_condition_set_all, n, weights)


@settings(max_examples=300, deadline=None)
@given(scores=_edge_vectors(), eps=_edge_float)
def test_normalize_scores_check_is_the_per_condition_check(scores, eps):
    assert _outcome(S.normalize_scores, scores, eps) == \
        _outcome(_per_condition_normalize_scores, scores, eps)


@settings(max_examples=300, deadline=None)
@given(p=_edge_vectors(), n=st.integers(-1, 3))
def test_importance_weight_check_is_the_per_condition_check(p, n):
    assert _outcome(S.importance_weight, p, n) == \
        _outcome(_per_condition_importance_weight, p, n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_target_weight_check_is_the_per_condition_check(data):
    # a 0-d probability broadcasts over any label counts; a vector takes
    # one count per probability
    p = data.draw(_edge_vectors() | st.floats(0.1, 1.0).map(np.asarray),
                  label="p")
    counts = data.draw(_edge_vectors() if p.ndim == 0 else
                       st.lists(_edge_float, min_size=p.size,
                                max_size=p.size).map(np.array),
                       label="label_count")
    m = data.draw(st.integers(-1, 3), label="m")
    assert _outcome(S.target_weight, p, counts, m) == \
        _outcome(_per_condition_target_weight, p, counts, m)

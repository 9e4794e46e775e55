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


def recompute_tree_reference(tree):
    """Oracle: rebuild every internal node bottom-up from the stored leaves."""
    ref = np.array(tree.nodes)
    for idx in range(tree.capacity - 1, 0, -1):
        ref[idx] = ref[2 * idx] + ref[2 * idx + 1]
    return ref


class TestTreeBuild:
    def test_root_sum(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        assert tree.total == 10.0

    def test_singleton(self):
        tree = S.SamplingTree([5.0])
        assert tree.total == 5.0
        assert tree.capacity == 1

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


class TestTreeLeaves:
    def test_rows_pick_the_same_bits_as_all_leaves(self):
        weights = np.random.default_rng(3).random(37)
        tree = S.SamplingTree(weights / weights.sum())
        rows = np.array([36, 0, 5, 5, 17])
        assert np.array_equal(tree.leaves(rows), tree.leaves()[rows])
        assert np.array_equal(tree.leaves(), weights / weights.sum())

    def test_empty_rows(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        out = tree.leaves(np.array([], dtype=np.int64))
        assert out.shape == (0,)

    @pytest.mark.parametrize("row", [-1, 3])
    def test_out_of_range_row(self, row):
        # capacity 4 > n = 3, so row 3 is a padding node, not a leaf
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        with pytest.raises(IndexError):
            tree.leaves(np.array([0, row]))


class TestTreeUpdate:
    def test_root_after_update(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        tree.update(1, 5.0)
        assert tree.total == 13.0

    def test_identity_update_keeps_every_node(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        before = np.array(tree.nodes)
        tree.update(2, tree.leaves()[2])
        assert np.array_equal(tree.nodes, before)

    def test_many_updates_keep_sums_consistent(self):
        rng = np.random.default_rng(1)
        tree = S.SamplingTree(rng.random(1000))
        for _ in range(10_000):
            tree.update(int(rng.integers(0, 1000)), float(rng.random()))
        ref = recompute_tree_reference(tree)
        internal = tree.nodes[1:tree.capacity]
        ref_internal = ref[1:tree.capacity]
        np.testing.assert_allclose(internal, ref_internal, rtol=1e-9)

    def test_bad_updates(self):
        tree = S.SamplingTree([1.0, 2.0])
        with pytest.raises(IndexError):
            tree.update(2, 1.0)
        with pytest.raises(ValueError):
            tree.update(0, -1.0)

    def test_update_that_overflows_the_total_is_rejected(self):
        tree = S.SamplingTree([1e308, 1.0, 3.0])
        before = np.array(tree.nodes)
        with pytest.raises(ValueError):
            tree.update(1, 1e308)
        assert np.array_equal(tree.nodes, before)


class TestTreeSetAll:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 37, 1000])
    def test_matches_fresh_build_and_per_leaf_updates(self, n):
        rng = np.random.default_rng(n)
        weights = rng.random(n) + 0.01
        bulk = S.SamplingTree(rng.random(n) + 0.01)
        per_leaf = S.SamplingTree(np.array(bulk.leaves()))
        bulk.set_all(weights)
        for i, w in enumerate(weights):
            per_leaf.update(i, w)
        assert np.array_equal(bulk.nodes, S.SamplingTree(weights).nodes)
        assert np.array_equal(bulk.nodes, per_leaf.nodes)

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
        before = np.array(tree.nodes)
        with pytest.raises(ValueError):
            tree.set_all(bad)
        assert np.array_equal(tree.nodes, before)


_weight = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mixed_set_all_and_update_keep_sums_exact(data):
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
        assert np.array_equal(tree.nodes, recompute_tree_reference(tree))


class TestTreeSample:
    def test_prefix_descent_hand_case(self):
        # cumulative sums 1, 3, 6, 10: u = 5.5 lies in [3, 6) -> index 2
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        assert tree.index_of_prefix(5.5) == 2

    def test_prefix_descent_matches_cumsum_oracle(self):
        rng = np.random.default_rng(2)
        weights = rng.random(37)
        tree = S.SamplingTree(weights)
        edges = np.cumsum(weights)
        for u in rng.uniform(0.0, edges[-1], size=500):
            # ties at interval edges go right, so searchsorted side='right'
            expected = int(np.searchsorted(edges, u, side="right"))
            expected = min(expected, len(weights) - 1)
            assert tree.index_of_prefix(float(u)) == expected

    def test_single_support_point(self):
        tree = S.SamplingTree([0.0, 0.0, 7.0, 0.0])
        for u in (0.0, 1.0, 6.9):
            assert tree.index_of_prefix(u) == 2

    def test_empirical_frequencies(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0, 4.0])
        rng = np.random.default_rng(3)
        draws = tree.sample_many(rng, 1_000_000)
        freq = np.bincount(draws, minlength=4) / 1e6
        np.testing.assert_allclose(freq, [0.1, 0.2, 0.3, 0.4], atol=0.01)

    def test_sample_and_sample_many_agree(self):
        # non-dyadic weights: the tree sums and u - left_sum round
        weights = np.array([0.3, 1.7, 0.0, 2.4, 0.6])
        tree = S.SamplingTree(weights)
        many = tree.sample_many(np.random.default_rng(9), 200)
        singles = [tree.sample(np.random.default_rng(9)) for _ in range(1)]
        assert many[0] == singles[0]
        _scalar_and_vector_descents_agree(tree, weights)
        # with many random weights the tree's sums differ from a running
        # sum in the last bits, so the edges probe the rounded descent
        weights = np.random.default_rng(2).random(37)
        _scalar_and_vector_descents_agree(S.SamplingTree(weights), weights)

    def test_sample_many_ties_go_right_at_exact_edges(self):
        # dyadic weights with a power-of-two total keep every prefix sum,
        # and u = fraction * total, exact in floating point
        weights = np.array([0.375, 1.625, 0.0, 2.5, 3.5])
        tree = S.SamplingTree(weights)
        u, vector = _scalar_and_vector_descents_agree(tree, weights)
        # ties at an edge go right, past the empty leaf 2
        edges = np.cumsum(weights)
        expected = np.minimum(np.searchsorted(edges, u, side="right"),
                              len(weights) - 1)
        assert np.array_equal(vector, expected)

    def test_sample_many_of_size_zero(self):
        tree = S.SamplingTree([1.0, 2.0, 3.0])
        draws = tree.sample_many(np.random.default_rng(0), 0)
        assert draws.shape == (0,)

    def test_zero_tree_rejected_at_sample(self):
        tree = S.SamplingTree([1.0])
        tree.update(0, 0.0)
        with pytest.raises(ValueError):
            tree.sample(np.random.default_rng(0))


class _FixedUniforms:
    """rng stand-in replaying a fixed uniform sequence."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None):
        if size is None:
            v, self.values = self.values[0], self.values[1:]
            return float(v)
        v, self.values = self.values[:size], self.values[size:]
        return np.array(v)


def _scalar_and_vector_descents_agree(tree, weights):
    """Feed index_of_prefix and sample_many the same u-grid: a linspace,
    seeded uniforms, the prefix-sum edges and the floats either side of
    them, and u = total (the spill into the padding leaves). Returns the
    grid and the vector draws."""
    edges = np.cumsum(weights)
    fractions = np.concatenate([
        np.linspace(0.0, 1 - 1e-12, 97),
        np.random.default_rng(5).random(1000),
        edges / tree.total, np.nextafter(edges, 0.0) / tree.total,
        np.nextafter(edges, np.inf) / tree.total, [1.0],
    ])
    u = fractions * tree.total  # as sample_many scales its uniforms
    scalar = np.array([tree.index_of_prefix(float(x)) for x in u])
    vector = tree.sample_many(_FixedUniforms(fractions), len(fractions))
    assert np.array_equal(scalar, vector)
    return u, vector


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
    inv_sq = 1.0 / (root * root)
    if problem.kind == P.CENTROID:
        const, coef = beta1_t * m_prev + keep * theta, -keep
        if problem.is_sparse:
            X = np.asarray(X.todense())
        return np.linalg.norm((const[None, :] + coef * X) / root[None, :],
                              axis=1)
    A = (beta1_t * problem.weights_view(m_prev)
         + keep * (problem.l2_lambda * problem.weights_view(theta)))
    C = keep * P.residuals(problem, theta)
    if problem.kind == P.BINARY_LOGISTIC:
        base = float((A * A * inv_sq).sum())
        cross = np.asarray(X @ (A * inv_sq)).ravel()
        quad = np.asarray(problem.X_sq @ inv_sq).ravel()
        sq = base + 2.0 * C * cross + (C * C) * quad
        return np.sqrt(np.maximum(sq, 0.0))
    inv_sq = inv_sq.reshape(A.shape)
    base = float((A * A * inv_sq).sum())
    cross = np.asarray(X @ (A * inv_sq).T)
    quad = np.asarray(problem.X_sq @ inv_sq.T)
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
    assert prob.is_sparse == is_sparse
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

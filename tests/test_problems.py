import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit

from dasgrad import datasets as D
from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import problems as P
from dasgrad import sampling as S


def centroid_problem(points):
    X = np.asarray(points, dtype=float)
    return P.Problem(X, np.zeros(len(X), dtype=np.int64), P.CENTROID)


def random_problem(kind, rng, n=None, d=None, lam=0.1):
    n = n or int(rng.integers(3, 12))
    d = d or int(rng.integers(2, 6))
    if kind == P.CENTROID:
        return centroid_problem([rng.standard_normal(d) for _ in range(n)])
    if kind == P.BINARY_LOGISTIC:
        return P.Problem(*H._gaussian_rows(rng, n, d, 2), kind, l2_lambda=lam)
    k = int(rng.integers(3, 5))
    return P.Problem(*H._gaussian_rows(rng, n, d, k), kind, l2_lambda=lam,
                     num_classes=k)


def as_csr(prob):
    """The same problem with its features stored as CSR."""
    return P.Problem(sparse.csr_matrix(prob.X), prob.y, prob.kind,
                     l2_lambda=prob.l2_lambda, num_classes=prob.num_classes)


STORAGES = {"dense": lambda prob: prob, "csr": as_csr}


class TestExampleLoss:
    def test_centroid_zero_at_example(self):
        prob = centroid_problem([[3.0, 4.0], [1.0, 1.0]])
        assert P.example_loss(prob, 0, np.array([3.0, 4.0])) == 0.0

    def test_centroid_hand_value(self):
        prob = centroid_problem([[3.0, 4.0]])
        assert P.example_loss(prob, 0, np.zeros(2)) == pytest.approx(12.5)

    def test_binary_at_zero_is_log_two(self):
        prob = P.Problem([[2.0, -1.0]], [1], P.BINARY_LOGISTIC, l2_lambda=0.0)
        assert P.example_loss(prob, 0, np.zeros(2)) == pytest.approx(np.log(2.0))

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(0)
        for kind in P.KINDS:
            for _ in range(20):
                prob = random_problem(kind, rng)
                theta = rng.standard_normal(prob.param_dim)
                assert P.example_loss(prob, 0, theta) >= 0.0
                assert P.full_objective(prob, theta) >= 0.0

    def test_index_out_of_range(self):
        prob = centroid_problem([[0.0]])
        with pytest.raises(IndexError):
            P.example_loss(prob, 5, np.zeros(1))

    def test_dimension_mismatch(self):
        prob = centroid_problem([[0.0, 0.0]])
        with pytest.raises(ValueError):
            P.example_loss(prob, 0, np.zeros(3))


class TestExampleGradient:
    def test_centroid_difference(self):
        # grad f_i = theta - x_i
        prob = centroid_problem([[3.0, 4.0]])
        g = P.example_gradient(prob, 0, np.array([1.0, 1.0]))
        assert np.array_equal(g, np.array([-2.0, -3.0]))

    def test_binary_at_zero(self):
        prob = P.Problem([[1.0, 0.0]], [1], P.BINARY_LOGISTIC, l2_lambda=0.0)
        g = P.example_gradient(prob, 0, np.zeros(2))
        np.testing.assert_allclose(g, [-0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("kind", P.KINDS)
    def test_matches_finite_differences(self, kind, storage):
        rng = np.random.default_rng(3)
        prob = STORAGES[storage](random_problem(kind, rng, n=6, d=4))
        # CSR storage is kept for the logistic kinds only
        assert prob.is_sparse == (storage == "csr" and kind != P.CENTROID)
        theta = rng.standard_normal(prob.param_dim)
        h = 1e-6
        for i in range(prob.n):
            g = P.example_gradient(prob, i, theta)
            for j in range(theta.size):
                step = np.zeros_like(theta)
                step[j] = h
                num = (P.example_loss(prob, i, theta + step)
                       - P.example_loss(prob, i, theta - step)) / (2 * h)
                assert abs(num - g[j]) / max(1.0, abs(num), abs(g[j])) < 1e-5

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("kind", P.KINDS)
    def test_batch_gradients_stack_example_gradients(self, kind, storage):
        rng = np.random.default_rng(12)
        prob = STORAGES[storage](random_problem(kind, rng, n=7, d=5))
        theta = rng.standard_normal(prob.param_dim)
        rows = np.array([3, 0, 3, 6, 6, 6, 1])
        G = P.batch_gradients(prob, theta, *P.gather_rows(prob, rows))
        expected = np.vstack([P.example_gradient(prob, int(i), theta)
                              for i in rows])
        assert G.shape == (rows.size, prob.param_dim)
        np.testing.assert_allclose(G, expected, rtol=0, atol=1e-12)


class TestFullOracles:
    def test_full_objective_hand_value(self):
        prob = centroid_problem([[0.0], [2.0]])
        assert P.full_objective(prob, np.array([1.0])) == pytest.approx(0.5)

    def test_single_example_equals_example_loss(self):
        rng = np.random.default_rng(4)
        for kind in P.KINDS:
            prob = random_problem(kind, rng, n=1)
            theta = rng.standard_normal(prob.param_dim)
            assert P.full_objective(prob, theta) == pytest.approx(
                P.example_loss(prob, 0, theta), rel=1e-12)

    def test_full_objective_is_mean_of_example_losses(self):
        rng = np.random.default_rng(5)
        prob = random_problem(P.MULTICLASS_LOGISTIC, rng, n=9, d=5)
        theta = rng.standard_normal(prob.param_dim)
        mean_loss = np.mean([P.example_loss(prob, i, theta)
                             for i in range(prob.n)])
        assert abs(P.full_objective(prob, theta) - mean_loss) < 1e-12

    def test_full_gradient_zero_at_centroid_mean(self):
        rng = np.random.default_rng(6)
        prob = random_problem(P.CENTROID, rng, n=50, d=4)
        g = P.full_gradient(prob, prob.X.mean(axis=0))
        assert np.max(np.abs(g)) < 1e-10

    def test_full_gradient_hand_value(self):
        prob = centroid_problem([[0.0], [4.0]])
        g = P.full_gradient(prob, np.array([1.0]))
        np.testing.assert_allclose(g, [-1.0])

    def test_full_gradient_is_mean_of_example_gradients(self):
        rng = np.random.default_rng(7)
        for kind in P.KINDS:
            prob = random_problem(kind, rng)
            theta = rng.standard_normal(prob.param_dim)
            mean_grad = np.mean([P.example_gradient(prob, i, theta)
                                 for i in range(prob.n)], axis=0)
            np.testing.assert_allclose(P.full_gradient(prob, theta),
                                       mean_grad, atol=1e-12)


class TestObjectiveAndGradient:
    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("kind", P.KINDS)
    def test_objective_bit_identical_and_gradient_the_mean(self, kind,
                                                           storage):
        rng = np.random.default_rng(13)
        prob = STORAGES[storage](random_problem(kind, rng, n=30, d=6))
        for scale in (0.0, 1.0, 50.0):
            theta = scale * rng.standard_normal(prob.param_dim)
            f, g = P.objective_and_gradient(prob, theta)
            assert f == P.full_objective(prob, theta)
            np.testing.assert_allclose(
                g, P.batch_gradients(
                    prob, theta,
                    *P.gather_rows(prob, np.arange(prob.n))).mean(axis=0),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("storage", sorted(STORAGES))
    @pytest.mark.parametrize("kind", P.KINDS)
    def test_gradient_matches_central_differences(self, kind, storage):
        rng = np.random.default_rng(14)
        prob = STORAGES[storage](random_problem(kind, rng, n=8, d=4))
        theta = rng.standard_normal(prob.param_dim)
        _, g = P.objective_and_gradient(prob, theta)
        h = 1e-6
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = h
            num = (P.full_objective(prob, theta + step)
                   - P.full_objective(prob, theta - step)) / (2 * h)
            assert abs(num - g[j]) / max(1.0, abs(num), abs(g[j])) < 1e-5
        assert P.finite_difference_check(prob, theta, h) < 1e-5

    def test_rejects_wrong_theta_shape(self):
        prob = centroid_problem([[0.0, 1.0]])
        with pytest.raises(ValueError):
            P.objective_and_gradient(prob, np.zeros(3))

    @pytest.mark.parametrize("K", [1, 4])
    def test_csr_gradient_bits_equal_the_product_with_x(self, K):
        # the CSR gradient walks the rows of the stored transpose; its
        # bits must equal R^T X's, the product with X itself
        rng = np.random.default_rng(15 + K)
        kind = P.BINARY_LOGISTIC if K == 1 else P.MULTICLASS_LOGISTIC
        for _ in range(40):
            n, d = (int(v) for v in rng.integers(1, 60, 2))
            X = rng.standard_normal((n, d))
            X[rng.random((n, d)) < rng.random()] = 0.0
            # whole empty rows and columns
            X[rng.random(n) < 0.2] = 0.0
            X[:, rng.random(d) < 0.2] = 0.0
            y = rng.integers(0, max(K, 2), n)
            lam = float(rng.choice([0.0, 0.1]))
            prob = P.Problem(sparse.csr_matrix(X), y, kind, l2_lambda=lam,
                             num_classes=max(K, 2))
            theta = rng.standard_normal(prob.param_dim)
            R = P.residuals(prob, theta)
            G = np.asarray(R.T @ prob.X) / n
            expected = (G + lam * prob.weights_view(theta)).ravel()
            _, g = P.objective_and_gradient(prob, theta)
            assert np.array_equal(_bits(g), _bits(expected))


def _reduce_max_terms(problem, theta):
    """The softmax (L, R) of the full data with the max shift taken by
    Z.max(axis=1), as the batch path takes it."""
    Z = np.asarray(problem.X @ problem.weights_view(theta).T)
    shifted = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(shifted)
    row_sums = E.sum(axis=1)
    rows = np.arange(problem.n)
    L = np.log(row_sums) - shifted[rows, problem.y]
    R = E / row_sums[:, None]
    R[rows, problem.y] -= 1.0
    return L, R


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFullDataRowMax:
    @pytest.mark.parametrize("K", [2, 3, 10])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_loop_matches_the_reduce_bit_for_bit(self, K, storage):
        # X is the identity, so Z = X W^T is W^T entry for entry. Entries
        # come from a small pool, so rows hold ties; CSR X multiplies only
        # its stored ones, which lets +-inf and NaN reach Z unchanged.
        rng = np.random.default_rng(30 + K)
        n = 300
        pool = [-2.5, -0.0, 0.0, 1.0, 3.5, 700.0, -800.0]
        if storage == "csr":
            pool += [np.inf, -np.inf, np.nan]
        Z = rng.choice(pool, size=(n, K))
        Z[::7] = rng.standard_normal((len(Z[::7]), K))
        X = sparse.identity(n, format="csr") if storage == "csr" \
            else np.eye(n)
        prob = P.Problem(X, rng.integers(0, K, n), P.MULTICLASS_LOGISTIC,
                         num_classes=K)
        theta = Z.T.ravel()
        with np.errstate(all="ignore"):
            L, R, Z_out = P._logistic_terms(prob, theta, prob.X, prob.y,
                                            want_loss=True,
                                            want_residuals=True)
            L_ref, R_ref = _reduce_max_terms(prob, theta)
        assert np.array_equal(Z_out, Z, equal_nan=True)
        assert np.array_equal(_bits(L), _bits(L_ref))
        assert np.array_equal(_bits(R), _bits(R_ref))
        if storage == "csr":
            assert np.isnan(L).any() and np.isinf(Z).any()


# values that stress a sum's bits: signed zeros, NaN, infinities,
# subnormals and finite values near the float maximum, whose sums overflow.
# Which of two NaN payloads an add keeps is not fixed even within numpy
# (its vector loop keeps the first operand's, its scalar tail the
# second's), so the one NaN here is the one inf - inf makes, the payload of
# every NaN a run can meet: a problem's features are finite.
with np.errstate(invalid="ignore"):
    _DEFAULT_NAN = np.subtract(np.inf, np.inf)
_ROW_SUM_SPECIALS = np.array([
    0.0, -0.0, _DEFAULT_NAN, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
    -3e-309, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.5e308,
    -9e307])


def _row_sum_input(rng, n, width, layout, special_share):
    """An (n, width) float array in the given layout: C-contiguous, a view
    reshaped from a (k, n * width) stack as the centroid tick passes it,
    views that skip rows or columns or start inside a row, a Fortran-ordered
    copy, and views that walk the columns or the rows backwards."""
    shape = (2 * n, 2 * width + 3)
    # most rows hold values of one scale, so that the order of the adds
    # shows in the rounding; a few entries take another scale
    scales = rng.choice([1.0, 1e-310, 1e307], size=(shape[0], 1))
    scales = np.where(rng.random(shape) < 0.05,
                      rng.choice([1.0, 1e-310, 1e307], size=shape), scales)
    data = rng.standard_normal(shape) * scales
    special = rng.random(data.shape) < special_share
    data[special] = rng.choice(_ROW_SUM_SPECIALS, size=int(special.sum()))
    block = np.ascontiguousarray(data[:n, :width])
    return {"contiguous": block,
            "reshaped": block.reshape(1, n * width).reshape(-1, width),
            "rows": data[::2, :width],
            "columns": data[:n, :2 * width:2],
            "offset": data[:n, 3:3 + width],
            "fortran": np.asfortranarray(block),
            "reversed": data[:n, width - 1::-1],
            "flipped": data[n - 1::-1, :width]}[layout]


_ROW_SUM_LAYOUTS = ["contiguous", "reshaped", "rows", "columns", "offset",
                    "fortran", "reversed", "flipped"]


class TestRowSum:
    @pytest.mark.parametrize("layout", _ROW_SUM_LAYOUTS)
    @settings(max_examples=60, deadline=None)
    @given(width=st.one_of(st.integers(1, 10), st.sampled_from(
               list(range(11, 21)) + [127, 128, 129, 130, 300])),
           rows_per_column=st.one_of(st.integers(1, 63),
                                     st.integers(64, 100)),
           special_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_reduce_bit_for_bit(self, layout, width,
                                            rows_per_column, special_share,
                                            seed):
        # from 64 rows per column on, rows of up to 10 entries take the
        # column passes
        n = min(rows_per_column * width, 20000 // width)
        A = _row_sum_input(np.random.default_rng(seed), n, width, layout,
                           special_share)
        assert A.shape == (n, width)
        with np.errstate(all="ignore"):
            got, want = P._row_sum(A), np.add.reduce(A, axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("layout", _ROW_SUM_LAYOUTS)
    @pytest.mark.parametrize("width", [2, 8, 10])
    def test_tall_arrays_match_the_reduce(self, width, layout):
        # the Fortran-ordered array is summed down its columns by the
        # reduce, so a pairwise column pass would round it differently
        A = _row_sum_input(np.random.default_rng(width), 64 * width, width,
                           layout, 0.0)
        assert np.array_equal(P._row_sum(A).view(np.int64),
                              np.add.reduce(A, axis=1).view(np.int64))

    @pytest.mark.parametrize("width", [1, 7, 8, 10])
    def test_negative_zero_rows_sum_to_positive_zero(self, width):
        # many rows, so the column passes are taken
        A = np.full((64 * width, width), -0.0)
        assert np.array_equal(P._row_sum(A).view(np.int64),
                              np.zeros(len(A), dtype=np.int64))


def _csr_sq(X):
    """X squared elementwise, as sorted CSR rows for a sparse X: the
    reference route of the quad term, which ``Problem.X_sq`` takes by
    columns."""
    return X.multiply(X).sorted_indices() if sparse.issparse(X) else X**2


def _flat_terms(X, y, theta):
    """Binary (loss, residual, margin) with theta a flat vector of d
    weights: z = X theta, s = 2y - 1, r = -s sigmoid(-s z)."""
    s = 2.0 * y - 1.0
    z = np.asarray(X @ theta).ravel()
    m = -s * z
    return np.logaddexp(0.0, m), -s * expit(m), z


def _flat_scores(problem, theta, m_prev, v_hat, beta1_t):
    """Binary ``scores_dasgrad`` in the flat layout: every operand is a
    vector of length n or d."""
    root = np.sqrt(np.sqrt(v_hat))   # v_hat > 0: no zero-coordinate guard
    inv_sq = 1.0 / (root * root)
    keep = 1.0 - beta1_t
    A = beta1_t * m_prev + keep * (problem.l2_lambda * theta)
    C = keep * _flat_terms(problem.X, problem.y, theta)[1]
    base = float((A * A * inv_sq).sum())
    cross = np.asarray(problem.X @ (A * inv_sq)).ravel()
    quad = np.asarray(_csr_sq(problem.X) @ inv_sq).ravel()
    # (2C) cross and 2 (C cross) differ only where C cross is subnormal;
    # here A = 0 gives cross = 0, and any other A a base far above that
    sq = base + 2.0 * C * cross + (C * C) * quad
    return np.sqrt(np.maximum(sq, 0.0))


def _broadcast_batch_gradients(problem, theta, X, y):
    """``batch_gradients`` of the logistic kinds as one (B, K, d)
    broadcast for every K, binary (K = 1) included."""
    r = P._logistic_terms(problem, theta, X, y, want_residuals=True)[1]
    W = problem.weights_view(theta)
    G = r[:, :, None] * X[:, None, :] + problem.l2_lambda * W[None, :, :]
    return G.reshape(len(y), -1)


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("storage", ["dense", "csr"])
@pytest.mark.parametrize("kind", [P.BINARY_LOGISTIC, P.MULTICLASS_LOGISTIC])
def test_batch_gradients_match_the_broadcast_route(kind, storage, lam):
    # CSR batches are densified by gather_rows; saturated margins give
    # residuals of exactly 0 and +-1 next to ordinary ones
    rng = np.random.default_rng(34)
    n, d = 80, 9
    X, y = H._gaussian_rows(rng, n, d, 2 if kind == P.BINARY_LOGISTIC else 4)
    X *= rng.random(X.shape) < 0.6
    if storage == "csr":
        X = sparse.csr_matrix(X)
    prob = P.Problem(X, y, kind, l2_lambda=lam)
    for scale in (1.0, 900.0):
        theta = scale * rng.standard_normal(prob.param_dim)
        for size in (1, 5, 32, 200):
            Xb, yb = P.gather_rows(prob, rng.integers(0, n, size))
            assert np.array_equal(
                _bits(P.batch_gradients(prob, theta, Xb, yb)),
                _bits(_broadcast_batch_gradients(prob, theta, Xb, yb)))


class TestBinaryOneRowLayout:
    """A binary parameter is one row of d weights; every binary oracle
    gives, bit for bit, what the flat-vector formulas give."""

    @pytest.mark.parametrize("margins", ["unit", "saturated"])
    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_oracles_match_the_flat_formulas(self, storage, lam, margins):
        rng = np.random.default_rng(31)
        n, d = 64, 7
        X, y = H._gaussian_rows(rng, n, d, 2)
        X *= rng.random(X.shape) < 0.6
        X[:, 0] = 1.0   # no empty row
        if storage == "csr":
            X = sparse.csr_matrix(X)
        prob = P.Problem(X, y, P.BINARY_LOGISTIC, l2_lambda=lam)
        theta = rng.standard_normal(d)
        if margins == "saturated":
            # the median |z| is 800: exp(-800) underflows, so most
            # residuals are exactly 0 or +-1
            theta *= 800.0 / np.median(np.abs(prob.X @ theta))
        L, r, z = _flat_terms(prob.X, prob.y, theta)
        if margins == "saturated":
            assert np.isin(np.abs(r), (0.0, 1.0)).mean() > 0.5
        assert np.array_equal(
            _bits(P._logistic_terms(prob, theta, prob.X, prob.y)[2]
                  .ravel()), _bits(z))
        assert np.array_equal(_bits(P.losses(prob, theta)), _bits(L))
        assert np.array_equal(_bits(P.residuals(prob, theta).ravel()),
                              _bits(r))

        f, g = P.objective_and_gradient(prob, theta)
        assert f == float(L.mean()) + 0.5 * lam * float(theta @ theta)
        assert np.array_equal(_bits(g), _bits(
            np.asarray(prob.X.T @ r).ravel() / n + lam * theta))

        for size in (1, 32):
            Xb, yb = P.gather_rows(prob, rng.integers(0, n, size))
            rb = _flat_terms(Xb, yb, theta)[1]
            assert np.array_equal(
                _bits(P.batch_gradients(prob, theta, Xb, yb)),
                _bits(rb[:, None] * Xb + lam * theta[None, :]))

        m_prev = rng.standard_normal(d)
        v_hat = rng.random(d) + 0.1
        flat_norms = _flat_scores(prob, theta, np.zeros(d), np.ones(d), 0.0)
        assert np.array_equal(_bits(S.scores_apsgd(prob, theta)),
                              _bits(flat_norms))
        for beta1_t in (0.0, 0.9):
            assert np.array_equal(
                _bits(S.scores_dasgrad(prob, theta, m_prev, v_hat,
                                       beta1_t)),
                _bits(_flat_scores(prob, theta, m_prev, v_hat, beta1_t)))

        X_eval, y_eval = prob.X[::3], prob.y[::3]
        flat_acc = float(np.mean((z > 0).astype(np.int64) == prob.y))
        eval_acc = float(np.mean(
            (_flat_terms(X_eval, y_eval, theta)[2] > 0).astype(np.int64)
            == y_eval))
        assert M.accuracy(prob, theta, X_eval, y_eval) == eval_acc
        gvar = float(np.var(flat_norms))
        for eval_set, acc in ((None, flat_acc), ((X_eval, y_eval), eval_acc)):
            ticked = M.tick(prob, theta[None, :], eval_set)
            assert tuple(m[0] for m in ticked) == (f, gvar, acc)


class TestFiniteDifferenceCheck:
    def test_centroid_exact(self):
        rng = np.random.default_rng(8)
        prob = random_problem(P.CENTROID, rng)
        theta = rng.standard_normal(prob.param_dim)
        assert P.finite_difference_check(prob, theta, 1e-4) < 1e-9

    @pytest.mark.parametrize("kind", [P.BINARY_LOGISTIC, P.MULTICLASS_LOGISTIC])
    def test_logistic_small_error(self, kind):
        rng = np.random.default_rng(9)
        prob = random_problem(kind, rng)
        theta = rng.standard_normal(prob.param_dim)
        assert P.finite_difference_check(prob, theta, 1e-6) < 1e-5

    def test_h_must_be_positive(self):
        prob = centroid_problem([[0.0]])
        with pytest.raises(ValueError):
            P.finite_difference_check(prob, np.zeros(1), 0.0)


class TestConvexity:
    def test_spot_check(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            kind = P.KINDS[int(rng.integers(0, 3))]
            prob = random_problem(kind, rng)
            t1 = rng.standard_normal(prob.param_dim)
            t2 = rng.standard_normal(prob.param_dim)
            a = float(rng.uniform(0.01, 0.99))
            lhs = P.full_objective(prob, a * t1 + (1 - a) * t2)
            rhs = (a * P.full_objective(prob, t1)
                   + (1 - a) * P.full_objective(prob, t2))
            assert lhs <= rhs + 1e-9


class TestSparse:
    def test_sparse_problem_matches_dense(self):
        rng = np.random.default_rng(11)
        d = 6
        dense_rows, labels = [], []
        for i in range(8):
            dense_rows.append(rng.standard_normal(d) * (rng.random(d) < 0.5))
            labels.append(int(rng.integers(0, 2)))
        sparse_prob = P.Problem(sparse.csr_matrix(np.array(dense_rows)),
                                labels, P.BINARY_LOGISTIC, l2_lambda=0.05)
        dense_prob = P.Problem(np.array(dense_rows), labels,
                               P.BINARY_LOGISTIC, l2_lambda=0.05)
        theta = rng.standard_normal(d)
        assert sparse_prob.is_sparse and not dense_prob.is_sparse
        assert P.full_objective(sparse_prob, theta) == pytest.approx(
            P.full_objective(dense_prob, theta), rel=1e-12)
        np.testing.assert_allclose(P.full_gradient(sparse_prob, theta),
                                   P.full_gradient(dense_prob, theta),
                                   atol=1e-12)
        np.testing.assert_allclose(P.example_gradient(sparse_prob, 3, theta),
                                   P.example_gradient(dense_prob, 3, theta),
                                   atol=1e-14)


def _random_csr(rng, n, d, density, duplicates):
    """An (n, d) CSR matrix with sorted row indices: about ``density`` of
    its entries set, every third row empty, values of either sign spanning
    six decades and, with ``duplicates``, about one entry in four stored
    twice (the copies side by side, with their own values)."""
    indices, data, indptr = [], [], [0]
    for i in range(n):
        cols = [] if i % 3 == 1 else \
            np.flatnonzero(rng.random(d) < density).tolist()
        if duplicates:
            cols = sorted(cols + [c for c in cols if rng.random() < 0.25])
        indices += cols
        data += (rng.choice([-1.0, 1.0], len(cols))
                 * 10.0 ** rng.uniform(-3.0, 3.0, len(cols))).tolist()
        indptr.append(len(indices))
    return sparse.csr_matrix((np.array(data), np.array(indices, np.int32),
                              np.array(indptr, np.int32)), shape=(n, d))


def _csr_route_twin(problem):
    """The problem with every product of the full data with X taken as an
    explicit CSR product: the margins and cross term through the CSR X,
    and the quad term and ``row_sq_norms`` through ``_csr_sq``."""
    twin = copy.copy(problem)
    twin.X_cols = problem.X.tocsr()
    twin.X_sq = _csr_sq(problem.X)
    twin.XT = problem.X.T.tocsr()
    twin.row_sq_norms = np.asarray(
        twin.X_sq @ problem.weights_view(np.ones(problem.param_dim)).T)
    return twin


def _full_data_outputs(problem, rng):
    """Every output of the full data that takes a product with X, at a
    random theta and preconditioner: the objective and gradient, the
    residuals, both score functions, a metric tick of two rows and
    ``row_sq_norms``."""
    dim = problem.param_dim
    theta, m_prev = rng.standard_normal(dim), rng.standard_normal(dim)
    v_hat = rng.random(dim)
    v_hat[::4] = 0.0
    thetas = rng.standard_normal((2, dim))
    return (*P.objective_and_gradient(problem, theta),
            P.residuals(problem, theta),
            S.scores_dasgrad(problem, theta, m_prev, v_hat, 0.6),
            S.scores_apsgd(problem, theta),
            *M.tick(problem, thetas), problem.row_sq_norms)


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestColumnRoute:
    """A CSR X takes its full-data products by columns; each must give the
    bits of the explicit CSR product."""

    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize("density", [0.01, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("kind",
                             [P.BINARY_LOGISTIC, P.MULTICLASS_LOGISTIC])
    def test_bit_identical_to_the_csr_products(self, kind, density,
                                               duplicates):
        rng = np.random.default_rng([int(density * 100), duplicates])
        for n, d in ((1, 1), (7, 3), (60, 25), (300, 40)):
            k = 2 if kind == P.BINARY_LOGISTIC else int(rng.integers(2, 12))
            X = _random_csr(rng, n, d, density, duplicates)
            problem = P.Problem(X, rng.integers(0, k, n), kind,
                                l2_lambda=1e-3, num_classes=k)
            assert problem.X is X and problem.X_cols.format == "csc"
            seed = int(rng.integers(1 << 30))
            _assert_same_bits(
                _full_data_outputs(problem, np.random.default_rng(seed)),
                _full_data_outputs(_csr_route_twin(problem),
                                   np.random.default_rng(seed)))

    def test_column_form_shares_the_transpose(self):
        problem = P.Problem(_random_csr(np.random.default_rng(3), 20, 6, 0.5,
                                        True),
                            np.arange(20) % 2, P.BINARY_LOGISTIC)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(problem.XT, name),
                                    getattr(problem.X_cols, name))
        assert problem.X_sq.format == "csc"

    @pytest.mark.parametrize("kind",
                             [P.BINARY_LOGISTIC, P.MULTICLASS_LOGISTIC])
    def test_unsorted_indices_give_the_sorted_twin(self, kind):
        rng = np.random.default_rng(4)
        X = _random_csr(rng, 50, 12, 0.4, False)
        shuffled = X.copy()
        for a, b in zip(X.indptr[:-1], X.indptr[1:]):
            order = a + rng.permutation(b - a)
            shuffled.indices[a:b] = X.indices[order]
            shuffled.data[a:b] = X.data[order]
        shuffled.has_sorted_indices = False
        assert not shuffled.has_sorted_indices
        given = [a.copy() for a in (shuffled.data, shuffled.indices,
                                    shuffled.indptr)]
        y = rng.integers(0, 3, 50) % (2 if kind == P.BINARY_LOGISTIC else 3)
        problem = P.Problem(shuffled, y, kind, l2_lambda=1e-3)
        twin = P.Problem(X, y, kind, l2_lambda=1e-3)
        _assert_same_bits(
            _full_data_outputs(problem, np.random.default_rng(5)),
            _full_data_outputs(twin, np.random.default_rng(5)))
        # the caller's matrix is left as it was
        assert problem.X is not shuffled
        for kept, now in zip(given, (shuffled.data, shuffled.indices,
                                     shuffled.indptr)):
            assert np.array_equal(kept, now)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            P.Problem(np.zeros((1, 1)), [0], "ridge")

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            P.Problem(np.zeros((1, 2)), [7], P.MULTICLASS_LOGISTIC,
                      num_classes=3)

    @pytest.mark.parametrize("X", [np.ones((3, 2)),
                                   sparse.csr_matrix(np.ones((3, 2)))])
    def test_multiclass_needs_two_classes(self, X):
        with pytest.raises(ValueError, match="at least 2 classes, got 1"):
            P.Problem(X, [0, 0, 0], P.MULTICLASS_LOGISTIC, num_classes=1)

    def test_mixed_dimensions(self):
        with pytest.raises(ValueError):
            P.Problem([np.zeros(2), np.zeros(3)], [0, 0], P.CENTROID)

    @pytest.mark.parametrize("X,y", [
        (np.zeros(3), [0, 0, 0]),                           # X not 2-d
        (np.zeros((3, 2)), [0, 0]),                         # y too short
        (np.zeros((2, 2)), [0.0, 1.0]),                     # float labels
        (np.array([[1.0, np.nan], [0.0, 1.0]]), [0, 1]),    # nonfinite
        (sparse.csr_matrix([[1.0, 0.0], [0.0, np.inf]]), [0, 1]),
        (np.zeros((2, 0)), [0, 1]),                         # no features
        (sparse.csr_matrix((2, 0)), [0, 1]),
    ])
    def test_malformed_arrays(self, X, y):
        with pytest.raises(ValueError):
            P.Problem(X, y, P.BINARY_LOGISTIC)

    def test_centroid_skips_the_squared_features(self):
        # only the logistic score route reads X_sq; squaring 1e200 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = P.Problem(np.array([[1e200], [-1e200]]), [0, 0],
                             P.CENTROID)
        assert prob.X_sq is None

    def test_empty(self):
        with pytest.raises(ValueError):
            P.Problem(np.zeros((0, 2)), np.zeros(0, dtype=np.int64),
                      P.CENTROID)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_l2_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="l2_lambda"):
            P.Problem(np.zeros((2, 2)), [0, 1], P.BINARY_LOGISTIC,
                      l2_lambda=lam)

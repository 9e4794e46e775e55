"""Convex objectives used by the benchmark: per-example losses, analytic
gradients, full-batch oracles, and a finite-difference gradient checker.

``residuals`` and ``batch_gradients`` are the one gradient oracle: the
batch gradients of a step, the per-example and full gradients and the
sampling scores all come from them. ``batch_gradients`` takes rows as
``gather_rows`` returns them; the optimizer gathers a refresh block's rows
once and calls ``batch_gradients`` on each step's slice of them. Only the
logistic kinds keep a CSR X; a centroid ``Problem`` holds its X dense, so
``gather_rows`` is the one place CSR rows are densified. A logistic
``Problem`` holds a CSR X by columns (CSC) too, ``X_cols``, and every
product of the full data with X goes through it: the margins of a solve, a
tick or a refresh and the scores' cross term; ``X_sq``, read by the quad
term and ``row_sq_norms``, is held by columns only. The column walk adds
each row's terms in column order, the CSR row walk's order when the row's
indices are sorted, so it gives the CSR product's bits in less time; a
CSR X with unsorted indices is held as a sorted copy. ``XT``, the
transpose the full gradient reads, is ``X_cols``'s arrays seen as CSR.
``objective_and_gradient`` returns the full objective and the full
gradient together from one pass over X (one margin product, and for
softmax one exp pass, shared by both); the reference solve calls it once
per line-search trial. The metric tick (``metrics.tick``) takes the
losses, the residuals and the margin product of one such pass. On the
full data the softmax max shift runs a column loop, the same bits as the
row reduce in a fraction of its time; ``_row_sum`` does the same for the
row sums of many short rows (the softmax denominators, the score norms
and the centroid tick's gradient norms).

Three problem kinds are supported:

* ``centroid`` -- squared-distance learning of a center point,
  f_i(theta) = 0.5 * ||theta - x_i||^2.
* ``binary-logistic`` -- regularized logistic regression with labels {0, 1}
  mapped internally to {-1, +1}; the parameter is one row of d weights.
* ``multiclass-logistic`` -- softmax cross-entropy over K classes; the
  parameter is the (K, d) weight matrix flattened row-major (row k holds the
  weights of class k).

Both logistic kinds are one linear model: ``weights_view`` shapes the
parameter as its weight rows (one row for binary) and every formula but the
link (sigmoid or softmax) and the decision rule is written once for both.

L2 regularization at strength ``l2_lambda`` is applied to every parameter
coordinate. There is no separate bias term; append a constant feature column
if an intercept is wanted.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.special import expit

CENTROID = "centroid"
BINARY_LOGISTIC = "binary-logistic"
MULTICLASS_LOGISTIC = "multiclass-logistic"
KINDS = (CENTROID, BINARY_LOGISTIC, MULTICLASS_LOGISTIC)


class Problem:
    """Immutable objective over a feature matrix X (dense float64 ndarray
    or CSR, one row per example) and int64 labels y. The arrays are held as
    given, not copied (a CSR centroid X is held dense, and a CSR X whose
    row indices are not sorted as a sorted copy), and must not be modified
    afterwards. All operations below are pure reads and safe to call
    concurrently.
    """

    def __init__(self, X, y, kind, l2_lambda=0.0, num_classes=None):
        if kind not in KINDS:
            raise ValueError("unknown problem kind: %r" % (kind,))
        if not 0 <= l2_lambda < np.inf:
            raise ValueError("l2_lambda must be finite and nonnegative")
        if kind == CENTROID and l2_lambda:
            raise ValueError("lambda must be 0 for a centroid problem, whose "
                             "loss has no L2 term")
        if sparse.issparse(X):
            X = X.tocsr().astype(np.float64, copy=False)
            if kind == CENTROID:
                X = X.toarray()
            elif not X.has_sorted_indices:
                # a copy: the caller's matrix stays as it was
                X = X.sorted_indices()
            values = X.data if sparse.issparse(X) else X
        else:
            X = values = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-d, got shape %s" % (X.shape,))
        if X.shape[0] == 0:
            raise ValueError("a problem needs at least one example")
        if X.shape[1] == 0:
            raise ValueError("a problem needs at least one feature")
        if not np.all(np.isfinite(values)):
            raise ValueError("features must be finite")
        y = np.asarray(y)
        if y.shape != (X.shape[0],) or y.dtype.kind not in "iu":
            raise ValueError("y must hold one integer label per row of X")

        self.kind = kind
        self.l2_lambda = float(l2_lambda)
        self.X = X
        self.y = y.astype(np.int64, copy=False)
        self.n, self.d = X.shape
        if kind == CENTROID:
            self.num_classes = 1
        elif kind == BINARY_LOGISTIC:
            self.num_classes = 2
        else:
            inferred = int(self.y.max()) + 1
            self.num_classes = int(num_classes) if num_classes else max(inferred, 2)
            if self.num_classes < 2:
                raise ValueError("a %s problem needs at least 2 classes, "
                                 "got %d" % (kind, self.num_classes))
        if np.any(self.y < 0) or np.any(self.y >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        self.class_counts = np.bincount(self.y, minlength=self.num_classes)

        self.is_sparse = sparse.issparse(self.X)
        # every product of the full data with X goes through X_cols: a CSR
        # X by columns (CSC), the CSR product's bits in less time (see the
        # module docstring), else X itself. XT is the same arrays seen as
        # CSR: the full gradient's X^T R walks its rows, the same sums in
        # the same order as R^T X at half the cost
        self.X_cols, self.XT = self.X, None
        if self.is_sparse:
            self.X_cols = self.X.tocsc()
            self.XT = self.X_cols.T
        # X squared elementwise (by columns for a CSR X), read by the
        # logistic score computations, and its products with a unit
        # preconditioner: the squared row norms, one column per weight
        # row, that every ap-SGD score and metric tick reads
        self.X_sq = self.row_sq_norms = None
        if kind != CENTROID:
            self.X_sq = (self.X_cols.multiply(self.X_cols) if self.is_sparse
                         else self.X**2)
            self.row_sq_norms = np.asarray(
                self.X_sq @ self.weights_view(np.ones(self.param_dim)).T)
        # the binary labels' signs negated, taken once for the full data
        self.neg_s = (_neg_signs(self.y) if kind == BINARY_LOGISTIC
                      else None)

    @property
    def param_dim(self) -> int:
        if self.kind == MULTICLASS_LOGISTIC:
            return self.num_classes * self.d
        return self.d

    def weights_view(self, theta: np.ndarray) -> np.ndarray:
        """The parameter as its rows of d weights: (K, d) for multiclass,
        (1, d) for binary."""
        return theta.reshape(-1, self.d)

    def __repr__(self):
        return "Problem(kind=%s, n=%d, d=%d, K=%d, l2=%.3g)" % (
            self.kind, self.n, self.d, self.num_classes, self.l2_lambda)


def _check_index(problem, i):
    if not 0 <= i < problem.n:
        raise IndexError("example index %d out of range [0, %d)" % (i, problem.n))


def _check_theta(problem, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (problem.param_dim,):
        raise ValueError("theta has shape %s, expected (%d,)"
                         % (theta.shape, problem.param_dim))
    return theta


def gather_rows(problem, rows):
    """Features and labels of the index array ``rows`` (all rows when
    None). Gathered CSR rows are densified, here only; the full matrix
    keeps its format."""
    if rows is None:
        return problem.X, problem.y
    X = problem.X[rows]
    return X.toarray() if problem.is_sparse else X, problem.y[rows]


def _row_max(Z):
    """Row maxima of the (n, K) array Z as an (n, 1) column: one
    np.maximum pass per column, the same bits as Z.max(axis=1) and several
    times faster on many rows of few columns."""
    top = Z[:, 0].copy()
    for k in range(1, Z.shape[1]):
        np.maximum(top, Z[:, k], out=top)
    return top[:, None]


# Column passes beat the row reduce on rows of at most this many entries,
# given at least _ROW_SUM_ROWS_PER_COLUMN rows per entry: one ufunc call per
# column against one inner loop per row (measured from 64 to 40000 rows).
_ROW_SUM_COLUMNS = 10
_ROW_SUM_ROWS_PER_COLUMN = 64


def _row_sum(A):
    """Row sums of the 2-d array A, the same bits as np.add.reduce(A,
    axis=1). numpy adds each row's pairwise sum to a starting +0.0, and
    below 16 entries that pairwise sum is a running sum of up to seven
    entries, or the tree ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    followed by a running sum of the rest. Many short rows take those adds
    as whole-column passes; other shapes, and layouts that the reduce sums
    down the columns, keep the reduce."""
    n, K = A.shape
    # the reduce walks a row's entries in its inner loop unless the rows
    # lie closer together than the columns (Fortran order, say)
    if K > _ROW_SUM_COLUMNS or n < _ROW_SUM_ROWS_PER_COLUMN * K \
            or abs(A.strides[1]) > abs(A.strides[0]):
        return np.add.reduce(A, axis=1)
    cols = [A[:, k] for k in range(K)]
    if K < 8:
        # the running sum starts from +0.0, so it never ends on -0.0 and
        # the starting +0.0 of the reduce changes nothing
        total = 0.0 + cols[0]
        for col in cols[1:]:
            total += col
        return total
    total = (((cols[0] + cols[1]) + (cols[2] + cols[3]))
             + ((cols[4] + cols[5]) + (cols[6] + cols[7])))
    for col in cols[8:]:
        total += col
    # the reduce's starting +0.0: it only turns a -0.0 total into +0.0
    total += 0.0
    return total


def _neg_signs(y):
    """The (len(y), 1) column -s of the binary labels y in {0, 1}, whose
    signs are s = 2y - 1."""
    return -(2.0 * y - 1.0)[:, None]


def _logistic_terms(problem, theta, X, y, want_loss=False,
                    want_residuals=False):
    """(L, R, Z): per-example data losses and (n, K) residuals of the
    logistic kinds from one margin product Z = X W^T (and, for softmax, one
    exp pass), and Z itself, with W = ``weights_view(theta)``: K = 1 for
    binary. L and R are None unless asked for. The full data (X is
    ``problem.X``, with y ``problem.y``) takes its product through
    ``problem.X_cols`` and its label signs from ``problem.neg_s``. The
    sigmoid and softmax loss and residual formulas are written only
    here."""
    L = R = None
    full = X is problem.X
    Z = np.asarray((problem.X_cols if full else X)
                   @ problem.weights_view(theta).T)
    if problem.kind == BINARY_LOGISTIC:
        neg_s = problem.neg_s if full else _neg_signs(y)
        m = neg_s * Z
        if want_loss:
            L = np.logaddexp(0.0, m).ravel()
        if want_residuals:
            R = neg_s * expit(m)
        return L, R, Z
    # max-shift keeps exp() in range for any magnitude of scores; the
    # column loop pays off on full data, a batch of a few rows keeps the
    # reduce
    top = _row_max(Z) if full else Z.max(axis=1, keepdims=True)
    shifted = Z - top
    E = np.exp(shifted)
    row_sums = _row_sum(E)
    if want_loss:
        L = np.log(row_sums) - shifted[np.arange(len(y)), y]
    if want_residuals:
        R = E
        R /= row_sums[:, None]
        R[np.arange(len(y)), y] -= 1.0
    return L, R, Z


def residuals(problem, theta):
    """Residuals r_i with grad f_i = r_i (x) x_i + lambda W, where
    r_i = -s_i sigmoid(-s_i <theta, x_i>) with s_i in {-1, +1} (binary,
    K = 1) or r_i = softmax(W x_i) - e_{y_i} (multiclass), for every
    example: an (n, K) array."""
    if problem.kind == CENTROID:
        raise ValueError("residuals are defined for the logistic kinds")
    theta = _check_theta(problem, theta)
    return _logistic_terms(problem, theta, problem.X, problem.y,
                           want_residuals=True)[1]


def batch_gradients(problem, theta, X, y):
    """Per-example gradients of the dense rows X with labels y, as
    ``gather_rows`` returns them, stacked (len(y), param_dim). theta must
    be a float64 vector of length param_dim; it is not checked here."""
    if problem.kind == CENTROID:
        return theta[None, :] - X
    r = _logistic_terms(problem, theta, X, y, want_residuals=True)[1]
    W = problem.weights_view(theta)
    G = r[:, :, None] * X[:, None, :] + problem.l2_lambda * W[None, :, :]
    return G.reshape(len(y), -1)


def losses(problem, theta, rows=None):
    """Data part of f_i (regularizer excluded) for the index array ``rows``,
    or for every example when rows is None."""
    theta = _check_theta(problem, theta)
    X, y = gather_rows(problem, rows)
    if problem.kind == CENTROID:
        diff = theta[None, :] - X
        return 0.5 * (diff * diff).sum(axis=1)
    return _logistic_terms(problem, theta, X, y, want_loss=True)[0]


def example_loss(problem, i, theta):
    """Per-example loss f_i(theta)."""
    _check_index(problem, i)
    theta = _check_theta(problem, theta)
    loss = float(losses(problem, theta, [i])[0])
    if problem.kind == CENTROID:
        return loss
    return loss + 0.5 * problem.l2_lambda * float(theta @ theta)


def example_gradient(problem, i, theta):
    """Analytic gradient of f_i at theta, always returned dense."""
    _check_index(problem, i)
    theta = _check_theta(problem, theta)
    return batch_gradients(problem, theta, *gather_rows(problem, [i]))[0]


def full_objective(problem, theta):
    """Mean loss (1/n) sum_i f_i(theta), regularizer included."""
    theta = _check_theta(problem, theta)
    if problem.kind == CENTROID:
        diff = theta[None, :] - problem.X
        return 0.5 * float((diff * diff).sum()) / problem.n
    return _mean_objective(problem, theta, losses(problem, theta))


def full_gradient(problem, theta):
    """Gradient of the mean loss, (1/n) sum_i grad f_i(theta): the gradient
    half of ``objective_and_gradient``."""
    return objective_and_gradient(problem, theta)[1]


def objective_and_gradient(problem, theta):
    """(full_objective, full_gradient) at theta from one pass over X: the
    logistic kinds form the margins (and the softmax exponentials) once for
    both, and the objective is bit-identical to ``full_objective``."""
    theta = _check_theta(problem, theta)
    if problem.kind == CENTROID:
        return full_objective(problem, theta), theta - problem.X.mean(axis=0)
    L, R, _ = _logistic_terms(problem, theta, problem.X, problem.y,
                              want_loss=True, want_residuals=True)
    G = (problem.XT @ R).T if problem.is_sparse else R.T @ problem.X
    G = np.asarray(G) / problem.n
    g = (G + problem.l2_lambda * problem.weights_view(theta)).ravel()
    return _mean_objective(problem, theta, L), g


def _mean_objective(problem, theta, L):
    """Mean of the per-example data losses L plus the regularizer."""
    return float(L.mean()) + 0.5 * problem.l2_lambda * float(theta @ theta)


def finite_difference_check(problem, theta, h=1e-6):
    """Max relative error between the analytic full gradient and central
    differences of the full objective, with relative error
    |a - b| / max(1, |a|, |b|)."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta = _check_theta(problem, theta)
    g = full_gradient(problem, theta)
    worst = 0.0
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = h
        num = (full_objective(problem, theta + step)
               - full_objective(problem, theta - step)) / (2.0 * h)
        denom = max(1.0, abs(num), abs(g[j]))
        worst = max(worst, abs(num - g[j]) / denom)
    return worst

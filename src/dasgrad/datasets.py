"""Dataset ingestion and synthesis.

File formats:

* Dense CSV -- one example per row, ``label,f1,...,fd``, no header. The
  dimension is inferred from the first row.
* Sparse -- a header line ``#d=<dim> #k=<classes>`` followed by rows
  ``label idx:val idx:val ...`` with 0-based strictly increasing indices.

Both loaders read the file as UTF-8 and reject a malformed row, a
nonfinite value or a byte that is not UTF-8 included, with its line
number, and return the rows packed: a dense array or a CSR matrix.
The sparse loader parses a long file in two processes: it cuts the rows
into fixed-size chunks, which it shares with one forked helper, and puts
the chunks back in file order. The earliest chunk's error wins, so a file
gives the arrays, or the error, of one pass over its rows.

Synthetic generators draw their Gaussians by Box-Muller from the seeded
uniform stream so the whole pipeline shares one generator family. They
write into the array they return, so a draw peaks near 1.5x its dense
features: ``box_muller`` adds one half-size buffer of cosines, and a sparse
draw a one-byte mask, 64 KiB of uniforms at a time and its CSR copy.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import sharing as _sharing
from .problems import Problem


class SparseRow(NamedTuple):
    """A sparse row of a Dataset: its slices of the CSR index and value
    arrays, strictly increasing 0-based indices and nonzero values."""

    indices: np.ndarray
    values: np.ndarray


class Row(NamedTuple):
    """One row of a Dataset: features (a dense row or a SparseRow) and an
    integer class label in [0, K)."""

    features: np.ndarray | SparseRow
    label: int


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix X (dense float64 ndarray or CSR, one row per example),
    int64 labels y, the class count, and a provenance string (file path or
    synthesis recipe). Equality is identity and the hash is the object's
    id, as array fields have no single truth value; compare X and y to test
    two datasets for equal contents."""

    X: np.ndarray | sparse.csr_matrix
    y: np.ndarray
    num_classes: int
    provenance: str

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def examples(self) -> list:
        """The rows as (features, label) records, built on each access for
        callers that read rows one at a time. Features are views of X: a
        dense row, or a sparse row's (indices, values) slices of the CSR
        arrays, so X is never densified or copied."""
        labels = self.y.tolist()
        if not sparse.issparse(self.X):
            return list(map(Row, self.X, labels))
        X, bounds = self.X, self.X.indptr.tolist()
        return [Row(SparseRow(X.indices[a:b], X.data[a:b]), label)
                for a, b, label in zip(bounds[:-1], bounds[1:], labels)]

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.num_classes)


def make_problem(dataset, kind, l2_lambda=0.0):
    return Problem(dataset.X, dataset.y, kind, l2_lambda=l2_lambda,
                   num_classes=dataset.num_classes)


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))
        self.path = path
        self.line_no = line_no
        self.message = message

    def __reduce__(self):
        return type(self), (self.path, self.line_no, self.message)


def load_dense_csv(path):
    """Parse a dense CSV dataset; aborts with the line number on the first
    malformed row."""
    values, labels = [], []
    d = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if d is None:
                d = len(fields) - 1
                if d < 1:
                    raise DatasetFormatError(path, line_no,
                                             "need a label and features")
            elif len(fields) - 1 != d:
                raise DatasetFormatError(
                    path, line_no, "expected %d feature values, got %d"
                    % (d, len(fields) - 1))
            try:
                label = int(fields[0])
                row = [float(v) for v in fields[1:]]
            except ValueError as exc:
                raise DatasetFormatError(path, line_no,
                                         "non-numeric field (%s)" % exc) from None
            if label < 0:
                raise DatasetFormatError(path, line_no, "negative label")
            if not all(map(math.isfinite, row)):
                raise DatasetFormatError(path, line_no, "nonfinite value")
            labels.append(label)
            values.extend(row)
    if not labels:
        raise DatasetFormatError(path, 1, "empty dataset file")
    y = np.array(labels, dtype=np.int64)
    return Dataset(X=np.array(values).reshape(len(labels), d), y=y,
                   num_classes=int(y.max()) + 1, provenance=str(path))


_SPARSE_HEADER = re.compile(r"^#d=(\d+)\s+#k=(\d+)\s*$")


# rows of a sparse file per parse task; a file of more rows is parsed in
# chunks of this many, shared with one forked helper
_SPARSE_CHUNK_ROWS = 2500


def load_sparse(path):
    """Parse a sparse dataset (header ``#d=<dim> #k=<classes>``). A file of
    more than _SPARSE_CHUNK_ROWS rows is parsed in chunks of that many rows
    by this process and one forked helper (see sharing._share_runs), joined
    before this returns. The chunks are put together in file order and the
    earliest chunk's error is raised, so the result, or the error, is that
    of one pass over the rows."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        m = _SPARSE_HEADER.match(header.strip())
        if not m:
            raise DatasetFormatError(path, 1,
                                     "missing '#d=<dim> #k=<classes>' header")
        d, k = int(m.group(1)), int(m.group(2))
        if d < 1:
            raise DatasetFormatError(path, 1, "d must be at least 1")
        rows = fh.readlines()
    size = _SPARSE_CHUNK_ROWS
    if len(rows) <= size:
        chunks = [_parse_sparse_rows(path, rows, 2, d, k)]
    else:
        def attempt(i):
            try:
                return _parse_sparse_rows(path, rows[i * size:(i + 1) * size],
                                          2 + i * size, d, k)
            except DatasetFormatError as exc:
                return exc
        done = _sharing._share_runs(attempt, -(-len(rows) // size))
        chunks = [done[i] for i in range(len(done))]
        for chunk in chunks:
            if isinstance(chunk, DatasetFormatError):
                raise chunk
    del rows  # freed before the chunks are joined
    labels, indices, values, counts = map(np.concatenate, zip(*chunks))
    if not labels.size:
        raise DatasetFormatError(path, 1, "empty dataset file")
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    X = sparse.csr_matrix((values, indices, indptr), shape=(labels.size, d))
    return Dataset(X=X, y=labels, num_classes=k, provenance=str(path))


def _parse_sparse_rows(path, lines, first_line_no, d, k):
    """(labels, indices, values, per-row stored counts) as int64, int64,
    float64 and int64 arrays of the sparse rows ``lines``, the first of
    which is line ``first_line_no`` of ``path``; a zero value is not
    stored. Raises DatasetFormatError naming the first malformed row."""
    labels, indices, values, indptr = [], [], [], [0]
    for line_no, line in enumerate(lines, start=first_line_no):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        try:
            label = int(fields[0])
        except ValueError:
            raise DatasetFormatError(path, line_no,
                                     "non-numeric label") from None
        if not 0 <= label < k:
            raise DatasetFormatError(path, line_no, "label out of range")
        last = -1
        for tok in fields[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise DatasetFormatError(path, line_no,
                                         "malformed idx:val token %r"
                                         % tok) from None
            if idx < 0 or idx >= d:
                raise DatasetFormatError(path, line_no,
                                         "index %d out of range" % idx)
            if idx <= last:
                raise DatasetFormatError(
                    path, line_no, "indices must be strictly increasing")
            if not math.isfinite(val):
                raise DatasetFormatError(path, line_no,
                                         "nonfinite value in token %r"
                                         % tok)
            last = idx
            if val != 0.0:
                indices.append(idx)
                values.append(val)
        labels.append(label)
        indptr.append(len(indices))
    return (np.array(labels, dtype=np.int64),
            np.array(indices, dtype=np.int64),
            np.array(values, dtype=np.float64),
            np.diff(np.array(indptr, dtype=np.int64)))


def box_muller(rng, size):
    """Standard normals from the uniform stream via Box-Muller."""
    n_pairs = (size + 1) // 2
    z = np.empty(2 * n_pairs)
    r, angle = z[:n_pairs], z[n_pairs:]
    rng.random(out=r)
    rng.random(out=angle)
    np.subtract(1.0, r, out=r)  # (0, 1]: keeps log() finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= r
    r *= cos
    return z[:size]


def synth_centroid(n, d, sigma, seed):
    """n i.i.d. Gaussian(0, sigma^2 I_d) feature points, labels all zero."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    X = box_muller(rng, n * d).reshape(n, d)
    X *= sigma
    return Dataset(X=X, y=np.zeros(n, dtype=np.int64), num_classes=1,
                   provenance="synth_centroid(n=%d,d=%d,sigma=%g,seed=%d)"
                              % (n, d, sigma, seed))


# bytes of uniforms drawn at a time for the sparsity mask
_MASK_CHUNK_BYTES = 1 << 16


def synth_classification(n, d, num_classes, margin=4.0, sparsity=0.0, seed=0):
    """Gaussian class clusters with centers at pairwise distance >= margin,
    unit within-class noise, labels assigned round robin. With sparsity > 0
    each coordinate is independently zeroed at that rate and the features
    are stored sparse."""
    if not n >= num_classes >= 2:
        raise ValueError("need n >= num_classes >= 2")
    if not 0 <= margin < math.inf:
        raise ValueError("margin must be finite and nonnegative")
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    centers = box_muller(rng, num_classes * d).reshape(num_classes, d)
    if num_classes > 1 and margin > 0:
        dists = [np.linalg.norm(centers[a] - centers[b])
                 for a in range(num_classes) for b in range(a + 1, num_classes)]
        closest = min(dists)
        if closest <= 0:
            raise ValueError("degenerate centers; pick another seed")
        # normalize so the closest pair sits exactly at the margin: the
        # margin then controls class overlap in both directions
        centers = centers * (margin / closest)

    y = np.arange(n, dtype=np.int64) % num_classes
    # the noise plus each row's center in place: row i has label i mod K
    X = box_muller(rng, n * d).reshape(n, d)
    for k in range(num_classes):
        X[k::num_classes] += centers[k]
    if sparsity > 0.0:
        drop = np.empty((n, d), dtype=bool)
        rows = max(1, _MASK_CHUNK_BYTES // (8 * d))
        for lo in range(0, n, rows):
            np.less(rng.random((min(rows, n - lo), d)), sparsity,
                    out=drop[lo:lo + rows])
        X[drop] = 0.0
        del drop  # freed before the CSR copy
        X = sparse.csr_matrix(X)
    return Dataset(
        X=X, y=y, num_classes=num_classes,
        provenance="synth_classification(n=%d,d=%d,K=%d,margin=%g,"
                   "sparsity=%g,seed=%d)" % (n, d, num_classes, margin,
                                             sparsity, seed))


def unbalance(dataset, drop_labels, keep_fraction, seed):
    """Keep each example of a dropped label independently with probability
    keep_fraction; other labels and the ordering are untouched."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must lie in (0, 1]")
    drop_labels = set(int(l) for l in drop_labels)
    rng = np.random.default_rng(seed)
    keep = ~np.isin(dataset.y, sorted(drop_labels))
    dropped = ~keep
    # one uniform per dropped-label row, in row order
    keep[dropped] = rng.random(int(dropped.sum())) < keep_fraction
    if not keep.any():
        raise ValueError("unbalancing removed every example")
    rows = np.flatnonzero(keep)
    return Dataset(
        X=dataset.X[rows], y=dataset.y[rows], num_classes=dataset.num_classes,
        provenance="%s|unbalance(drop=%s,keep=%g,seed=%d)"
                   % (dataset.provenance, sorted(drop_labels), keep_fraction,
                      seed))

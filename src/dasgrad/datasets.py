"""Dataset ingestion and synthesis.

File formats:

* Dense CSV -- one example per row, ``label,f1,...,fd``, no header. The
  dimension is inferred from the first row.
* Sparse -- a header line ``#d=<dim> #k=<classes>`` followed by rows
  ``label idx:val idx:val ...`` with 0-based strictly increasing indices.

Both loaders reject a malformed row, a nonfinite value included, with its
line number, and return the rows packed: a dense array or a CSR matrix.

Synthetic generators draw their Gaussians by Box-Muller from the seeded
uniform stream so the whole pipeline shares one generator family.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .problems import Problem


@dataclass(frozen=True)
class SparseVector:
    """Sparse feature vector: strictly increasing 0-based indices and the
    matching nonzero values. The dimension lives with the owning dataset."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.shape != val.shape:
            raise ValueError("indices and values must be 1-d and equal length")
        if idx.size and np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx.size and idx[0] < 0:
            raise ValueError("indices must be nonnegative")
        if not np.all(np.isfinite(val)):
            raise ValueError("values must be finite")
        if np.any(val == 0.0):
            raise ValueError("zero values must not be stored")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)


@dataclass(frozen=True)
class Example:
    """One row of a Dataset: features (dense array or SparseVector) and an
    integer class label in [0, K)."""

    features: np.ndarray | SparseVector
    label: int = 0


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
        """The rows as Example objects, built on each access for callers
        that read rows one at a time; a sparse row is a SparseVector over
        its slice of the CSR arrays, so X is never densified."""
        if not sparse.issparse(self.X):
            return [Example(row, int(label))
                    for row, label in zip(self.X, self.y)]
        X = self.X
        return [Example(SparseVector(X.indices[a:b], X.data[a:b]), int(label))
                for a, b, label in zip(X.indptr[:-1], X.indptr[1:], self.y)]

    def label_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.num_classes)


def make_problem(dataset, kind, l2_lambda=0.0):
    return Problem(dataset.X, dataset.y, kind, l2_lambda=l2_lambda,
                   num_classes=dataset.num_classes)


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__("%s:%d: %s" % (path, line_no, message))
        self.line_no = line_no


def load_dense_csv(path):
    """Parse a dense CSV dataset; aborts with the line number on the first
    malformed row."""
    values, labels = [], []
    d = None
    with open(path) as fh:
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


def load_sparse(path):
    """Parse a sparse dataset (header ``#d=<dim> #k=<classes>``)."""
    labels, indices, values, indptr = [], [], [], [0]
    with open(path) as fh:
        header = fh.readline()
        m = _SPARSE_HEADER.match(header.strip())
        if not m:
            raise DatasetFormatError(path, 1,
                                     "missing '#d=<dim> #k=<classes>' header")
        d, k = int(m.group(1)), int(m.group(2))
        if d < 1:
            raise DatasetFormatError(path, 1, "d must be at least 1")
        for line_no, line in enumerate(fh, start=2):
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
    if not labels:
        raise DatasetFormatError(path, 1, "empty dataset file")
    X = sparse.csr_matrix((np.array(values, dtype=np.float64),
                           np.array(indices, dtype=np.int64),
                           np.array(indptr, dtype=np.int64)),
                          shape=(len(labels), d))
    return Dataset(X=X, y=np.array(labels, dtype=np.int64), num_classes=k,
                   provenance=str(path))


def box_muller(rng, size):
    """Standard normals from the uniform stream via Box-Muller."""
    n_pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(n_pairs)  # (0, 1]: keeps log() finite
    u2 = rng.random(n_pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:size]


def synth_centroid(n, d, sigma, seed):
    """n i.i.d. Gaussian(0, sigma^2 I_d) feature points, labels all zero."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    X = sigma * box_muller(rng, n * d).reshape(n, d)
    return Dataset(X=X, y=np.zeros(n, dtype=np.int64), num_classes=1,
                   provenance="synth_centroid(n=%d,d=%d,sigma=%g,seed=%d)"
                              % (n, d, sigma, seed))


def synth_classification(n, d, num_classes, margin=4.0, sparsity=0.0, seed=0):
    """Gaussian class clusters with centers at pairwise distance >= margin,
    unit within-class noise, labels assigned round robin. With sparsity > 0
    each coordinate is independently zeroed at that rate and the features
    are stored sparse."""
    if not n >= num_classes >= 2:
        raise ValueError("need n >= num_classes >= 2")
    if margin < 0 or not 0.0 <= sparsity <= 1.0:
        raise ValueError("bad margin or sparsity")
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
    noise = box_muller(rng, n * d).reshape(n, d)
    X = centers[y] + noise
    if sparsity > 0.0:
        keep = rng.random((n, d)) >= sparsity
        X = sparse.csr_matrix(X * keep)
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

import multiprocessing
import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dasgrad import cli as C
from dasgrad import datasets as D
from dasgrad import metrics as M
from dasgrad import problems as P
from dasgrad import sampling as S
from dasgrad import sharing as SH


class TestDenseCsv:
    def test_two_row_parse(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,0.5,2.0\n0,1.0,0.0\n")
        ds = D.load_dense_csv(path)
        assert ds.n == 2 and ds.d == 2 and ds.num_classes == 2
        np.testing.assert_allclose(ds.X, [[0.5, 2.0], [1.0, 0.0]])
        np.testing.assert_array_equal(ds.y, [1, 0])
        ex = ds.examples[0]
        np.testing.assert_allclose(ex.features, [0.5, 2.0])
        assert ex.label == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "\n  \n\n"):
            path.write_text(text)
            with pytest.raises(D.DatasetFormatError,
                               match=r"empty\.csv:1: empty dataset file"):
                D.load_dense_csv(path)

    def test_round_trip(self, tmp_path):
        for sparsity in (0.0, 0.5):  # a sparse dataset is written densified
            ds = D.synth_classification(12, 5, 3, margin=2.0,
                                        sparsity=sparsity, seed=4)
            path = tmp_path / ("rt_%g.csv" % sparsity)
            dense = ds.X.toarray() if sparsity else ds.X
            # .17g round-trips every float64 exactly
            path.write_text("".join(
                "%d,%s\n" % (label, ",".join(format(v, ".17g") for v in row))
                for row, label in zip(dense, ds.y)))
            back = D.load_dense_csv(path)
            assert back.n == ds.n and back.d == ds.d
            np.testing.assert_array_equal(back.y, ds.y)
            np.testing.assert_array_equal(back.X, dense)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(D.DatasetFormatError) as err:
            D.load_dense_csv(path)
        assert err.value.line_no == 2

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("0,1.0,oops\n")
        with pytest.raises(D.DatasetFormatError):
            D.load_dense_csv(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("-1,1.0\n")
        with pytest.raises(D.DatasetFormatError):
            D.load_dense_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text("0,1.0,2.0\n\n1,%s,3.0\n" % value)
        with pytest.raises(D.DatasetFormatError) as err:
            D.load_dense_csv(path)
        assert err.value.line_no == 3


class TestSparseFile:
    def test_single_row_parse(self, tmp_path):
        path = tmp_path / "toy.sparse"
        path.write_text("#d=4 #k=2\n1 0:1.5 3:2.0\n")
        ds = D.load_sparse(path)
        assert ds.n == 1 and ds.d == 4 and ds.num_classes == 2
        np.testing.assert_allclose(ds.X.toarray(), [[1.5, 0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(ds.y, [1])
        sv = ds.examples[0].features
        row = ds.X.toarray()[0]
        np.testing.assert_array_equal(sv.indices, np.flatnonzero(row))
        np.testing.assert_array_equal(sv.values, row[sv.indices])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_nonfinite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.sparse"
        path.write_text("#d=4 #k=2\n0 1:1.0\n1 0:2.0 2:%s\n" % value)
        with pytest.raises(D.DatasetFormatError) as err:
            D.load_sparse(path)
        assert err.value.line_no == 3

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.sparse"
        path.write_text("#d=4 #k=2\n1 0:1.5 0:2.0\n")
        with pytest.raises(D.DatasetFormatError):
            D.load_sparse(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.sparse"
        path.write_text("1 0:1.5\n")
        with pytest.raises(D.DatasetFormatError):
            D.load_sparse(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.sparse"
        for text in ("#d=4 #k=2\n", "#d=4 #k=2\n\n  \n"):
            path.write_text(text)
            with pytest.raises(D.DatasetFormatError,
                               match=r"empty\.sparse:1: empty dataset file"):
                D.load_sparse(path)

    def test_zero_dimension_header_names_line_one(self, tmp_path):
        path = tmp_path / "d0.sparse"
        path.write_text("#d=0 #k=2\n0\n1\n")
        with pytest.raises(D.DatasetFormatError,
                           match="d must be at least 1") as err:
            D.load_sparse(path)
        assert err.value.line_no == 1

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.sparse"
        path.write_text("#d=4 #k=2\n1 5:1.0\n")
        with pytest.raises(D.DatasetFormatError):
            D.load_sparse(path)

    def test_densified_matches_dense_ingestion(self, tmp_path):
        sparse_path = tmp_path / "a.sparse"
        sparse_path.write_text("#d=3 #k=2\n1 0:1.5 2:-2.0\n0 1:0.25\n")
        dense_path = tmp_path / "a.csv"
        dense_path.write_text("1,1.5,0,-2.0\n0,0,0.25,0\n")
        ds_sparse = D.load_sparse(sparse_path)
        ds_dense = D.load_dense_csv(dense_path)
        np.testing.assert_array_equal(ds_sparse.X.toarray(), ds_dense.X)
        np.testing.assert_array_equal(ds_sparse.y, ds_dense.y)
        for a, b, row in zip(ds_sparse.examples, ds_dense.examples,
                             ds_sparse.X.toarray()):
            np.testing.assert_array_equal(a.features.indices,
                                          np.flatnonzero(row))
            np.testing.assert_array_equal(a.features.values,
                                          row[a.features.indices])
            np.testing.assert_array_equal(b.features, row)
            assert a.label == b.label

    def test_format_error_survives_pickling(self):
        # a chunk's error crosses from the forked helper pickled
        err = pickle.loads(pickle.dumps(D.DatasetFormatError("p", 3, "bad")))
        assert type(err) is D.DatasetFormatError
        assert str(err) == "p:3: bad" and err.line_no == 3


def _csr_parts(ds):
    return [_bytes(a) for a in (ds.X.data, ds.X.indices, ds.X.indptr, ds.y)] \
        + [ds.num_classes, ds.X.shape]


def _sparse_lines(rng, count, d=6, k=3):
    """``count`` rows of a ``#d=6 #k=3`` file: blank ones, rows with no
    feature written ``label `` with a trailing space, and rows whose
    values are drawn from normals, zeros and negative zeros."""
    lines = []
    for _ in range(count):
        label = int(rng.integers(k))
        kind = int(rng.integers(6))
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append("%d " % label)
        else:
            idx = np.flatnonzero(rng.random(d) < 0.5)
            values = [format(v, ".17g") for v in rng.standard_normal(idx.size)]
            for j in np.flatnonzero(rng.random(idx.size) < 0.3):
                values[j] = ("0.0", "-0", "0")[j % 3]
            lines.append(" ".join(["%d" % label] + ["%d:%s" % pair for pair
                                                    in zip(idx, values)]))
    return lines


def _sparse_file(path, lines, end="\n", last_end=True):
    path.write_bytes(("#d=6 #k=3" + end + end.join(lines)
                      + (end if last_end else "")).encode())
    return path


def _chunks_of(monkeypatch, rows):
    monkeypatch.setattr(D, "_SPARSE_CHUNK_ROWS", rows)


def _split_parse(monkeypatch, log, delay, helper=None):
    """Log each _parse_sparse_rows call's process id and first line to
    ``log``; make this process sleep ``delay`` seconds before each of its
    chunks, so that the forked helper takes the front ones, and the helper
    call ``helper`` when given."""
    parent, parse = os.getpid(), D._parse_sparse_rows

    def logged(path, lines, first_line_no, d, k):
        with open(log, "a") as fh:
            fh.write("%d %d\n" % (os.getpid(), first_line_no))
        if os.getpid() == parent:
            time.sleep(delay)
        elif helper is not None:
            helper()
        return parse(path, lines, first_line_no, d, k)
    monkeypatch.setattr(D, "_parse_sparse_rows", logged)


def _parsed_by(log):
    """{first line of a chunk: True when this process parsed it}."""
    return {int(first): int(pid) == os.getpid() for pid, first
            in (line.split() for line in log.read_text().splitlines())}


class TestChunkedSparseParse:
    @pytest.mark.parametrize("end, last_end", [
        ("\n", True), ("\r\n", True), ("\n", False), ("\r\n", False)])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    def test_same_arrays_as_one_chunk(self, tmp_path, monkeypatch, end,
                                      last_end, rows):
        lines = _sparse_lines(np.random.default_rng(rows), 40)
        # blank lines on both sides of the 3-row chunk boundaries from row
        # 12, a chunk of blank lines at rows 24-26, and a featureless row
        for i in range(12, 30):
            if i % 3 != 1 or 24 <= i < 27:
                lines[i] = ""
        lines[31] = "2 "
        path = _sparse_file(tmp_path / "rows.sparse", lines, end, last_end)
        _chunks_of(monkeypatch, 10**6)
        whole = D.load_sparse(path)
        assert whole.n == sum(map(bool, lines))
        _chunks_of(monkeypatch, rows)
        assert _csr_parts(D.load_sparse(path)) == _csr_parts(whole)
        assert multiprocessing.active_children() == []

    def test_a_file_of_one_chunk_is_parsed_without_a_fork(self, tmp_path,
                                                          monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: (forks.append(1), fork())[1])
        path = _sparse_file(tmp_path / "rows.sparse",
                            _sparse_lines(np.random.default_rng(0), 6))
        _chunks_of(monkeypatch, 6)
        D.load_sparse(path)
        assert forks == []
        _chunks_of(monkeypatch, 5)
        D.load_sparse(path)
        assert forks == [1]

    @pytest.mark.parametrize("bad", [(4,), (8,), (4, 8)])
    def test_the_earliest_error_is_raised(self, tmp_path, monkeypatch, bad):
        # four chunks of two rows, lines 2-3, 4-5, 6-7 and 8-9: the helper
        # takes the front three while this process sleeps on the last
        lines = ["1 0:1.0"] * 8
        for line_no in bad:
            lines[line_no - 2] = "1 0:1.0 %d:2.0" % (10 + line_no)
        path = _sparse_file(tmp_path / "bad.sparse", lines)
        with pytest.raises(D.DatasetFormatError) as one_chunk:
            D.load_sparse(path)
        log = tmp_path / "log"
        _split_parse(monkeypatch, log, 0.2)
        _chunks_of(monkeypatch, 2)
        with pytest.raises(D.DatasetFormatError) as chunked:
            D.load_sparse(path)
        assert _parsed_by(log) == {2: False, 4: False, 6: False, 8: True}
        assert chunked.value.line_no == bad[0]
        assert str(chunked.value) == str(one_chunk.value) \
            == "%s:%d: index %d out of range" % (path, bad[0], 10 + bad[0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("row, message", [
        ("x 0:1.0", "non-numeric label"),
        ("3 0:1.0", "label out of range"),
        ("1 0:1.0 2-1.0", "malformed idx:val token '2-1.0'"),
        ("1 -1:1.0", "index -1 out of range"),
        ("1 2:1.0 2:3.0", "indices must be strictly increasing"),
        ("1 0:1.0 1:nan", "nonfinite value in token '1:nan'"),
    ])
    def test_a_later_chunk_names_its_own_line(self, tmp_path, monkeypatch,
                                              row, message):
        lines = _sparse_lines(np.random.default_rng(1), 20)
        lines[13] = row     # line 15, the second row of the fourth chunk
        path = _sparse_file(tmp_path / "bad.sparse", lines)
        _chunks_of(monkeypatch, 4)
        with pytest.raises(D.DatasetFormatError) as err:
            D.load_sparse(path)
        assert err.value.line_no == 15
        assert str(err.value) == "%s:15: %s" % (path, message)

    def test_a_helper_that_dies_mid_load_names_its_code(self, tmp_path,
                                                        monkeypatch, capsys):
        path = _sparse_file(tmp_path / "rows.sparse", ["1 0:1.0"] * 9)
        _split_parse(monkeypatch, tmp_path / "log", 0.05,
                     helper=lambda: os._exit(6))
        _chunks_of(monkeypatch, 3)
        with pytest.raises(SH.HelperExitError, match="exited with code 6"):
            D.load_sparse(path)
        assert multiprocessing.active_children() == []
        out = tmp_path / "out"
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "kind = multiclass-logistic\npath = %s\nsparse = true\n"
            "classes = 3\nT = 10\nmetric_tick = 5\nseeds = 0,1\n"
            "output_dir = %s\n[optimizer.sgd]\nbatch_size = 2\n"
            % (path, out))
        assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", "dasgrad: error: the forked helper "
                                       "exited with code 6 and sent no "
                                       "result\n")
        assert not out.exists()
        assert multiprocessing.active_children() == []


class TestExamples:
    def test_rows_are_records_viewing_the_packed_arrays(self, tmp_path):
        dense = D.Dataset(np.arange(6.0).reshape(3, 2),
                          np.array([1, 0, 1], dtype=np.int64), 2, "dense")
        features, label = dense.examples[1]
        assert np.shares_memory(features, dense.X)
        assert type(label) is int and label == 0
        path = tmp_path / "rows.sparse"
        path.write_text("#d=4 #k=2\n1 0:1.5 3:2.0\n0\n0 2:-1.0\n")
        ds = D.load_sparse(path)
        rows = ds.examples
        assert [len(f.indices) for f, _ in rows] == [2, 0, 1]
        (indices, values), label = rows[2]
        assert label == 0
        assert np.shares_memory(indices, ds.X.indices)
        assert np.shares_memory(values, ds.X.data)
        np.testing.assert_array_equal(indices, [2])
        np.testing.assert_array_equal(values, [-1.0])


class TestSynthCentroid:
    def test_sigma_zero_degenerate(self):
        ds = D.synth_centroid(10, 3, 0.0, seed=1)
        prob = D.make_problem(ds, P.CENTROID)
        assert np.all(prob.X == 0.0)
        gvar = np.var(S.scores_apsgd(prob, np.array([1.0, -2.0, 0.5])))
        assert gvar == pytest.approx(0.0, abs=1e-25)

    def test_empirical_variance(self):
        ds = D.synth_centroid(100_000, 1, 1.0, seed=2)
        values = ds.X[:, 0]
        assert 0.98 <= values.var() <= 1.02

    def test_deterministic(self):
        a = D.synth_centroid(50, 4, 2.0, seed=3)
        b = D.synth_centroid(50, 4, 2.0, seed=3)
        assert np.array_equal(a.X, b.X)

    def test_equality_is_identity(self):
        a = D.synth_centroid(3, 2, 1.0, 0)
        b = D.synth_centroid(3, 2, 1.0, 0)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_rejects_a_sigma_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError,
                           match="sigma must be finite and nonnegative"):
            D.synth_centroid(10, 3, sigma, seed=1)

    def test_box_muller_moments(self):
        rng = np.random.default_rng(4)
        z = D.box_muller(rng, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02


class TestSynthClassification:
    def test_separable_when_margin_huge(self):
        ds = D.synth_classification(60, 6, 3, margin=40.0, seed=5)
        prob = D.make_problem(ds, P.MULTICLASS_LOGISTIC, l2_lambda=1e-5)
        ref = M.solve_reference(prob, tol=1e-5, max_iters=400)
        assert M.accuracy(prob, ref.theta_star, ds.X, ds.y) >= 0.99

    def test_full_sparsity_collapses_to_majority_rate(self):
        ds = D.synth_classification(30, 5, 3, margin=2.0, sparsity=1.0,
                                    seed=6)
        prob = D.make_problem(ds, P.MULTICLASS_LOGISTIC)
        theta = np.random.default_rng(0).standard_normal(prob.param_dim)
        majority = np.mean(prob.y == 0)  # ties predict class 0
        assert M.accuracy(prob, theta, ds.X, ds.y) == pytest.approx(majority)

    def test_sparsity_rate(self):
        n, d, rate = 50, 10_000, 0.9
        ds = D.synth_classification(n, d, 2, margin=1.0, sparsity=rate,
                                    seed=7)
        nnz = np.mean(ds.X.getnnz(axis=1))
        sigma = np.sqrt(d * (1 - rate) * rate / n)
        assert abs(nnz - d * (1 - rate)) <= 4 * sigma

    @pytest.mark.parametrize("margin", [-1.0, np.nan, np.inf])
    def test_rejects_a_margin_not_finite_and_nonnegative(self, margin):
        # a NaN margin fails margin > 0 and so left the centers unscaled
        with pytest.raises(ValueError,
                           match="margin must be finite and nonnegative"):
            D.synth_classification(20, 4, 3, margin=margin, seed=8)

    @pytest.mark.parametrize("sparsity", [-0.5, 1.5, np.nan])
    def test_rejects_a_sparsity_outside_the_unit_interval(self, sparsity):
        with pytest.raises(ValueError, match=r"sparsity must lie in \[0, 1\]"):
            D.synth_classification(20, 4, 3, sparsity=sparsity, seed=8)

    def test_centers_respect_margin(self):
        ds = D.synth_classification(20, 4, 4, margin=6.0, seed=8)
        prob = D.make_problem(ds, P.MULTICLASS_LOGISTIC)
        # class means should sit near the spread-out centers
        means = np.array([prob.X[prob.y == k].mean(axis=0) for k in range(4)])
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(means[a] - means[b]) > 3.0



# The allocating generators the in-place ones replaced, kept as the bit
# reference: every output of the library's must equal theirs.
def _reference_box_muller(rng, size):
    n_pairs = (size + 1) // 2
    u1 = 1.0 - rng.random(n_pairs)
    u2 = rng.random(n_pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                        r * np.sin(2.0 * np.pi * u2)])
    return z[:size]


def _reference_synth_classification(n, d, num_classes, margin, sparsity,
                                    seed):
    rng = np.random.default_rng(seed)
    centers = _reference_box_muller(rng, num_classes * d).reshape(
        num_classes, d)
    if margin > 0:
        closest = min(np.linalg.norm(centers[a] - centers[b])
                      for a in range(num_classes)
                      for b in range(a + 1, num_classes))
        centers = centers * (margin / closest)
    y = np.arange(n, dtype=np.int64) % num_classes
    X = centers[y] + _reference_box_muller(rng, n * d).reshape(n, d)
    if sparsity > 0.0:
        X = sparse.csr_matrix(X * (rng.random((n, d)) >= sparsity))
    return X, y


def _bytes(a):
    return a.shape, a.dtype, a.tobytes()


class TestInPlaceSynthesis:
    @pytest.mark.parametrize("size", [0, 1, 2, 7, 1000, 200_001])
    def test_box_muller_bits(self, size):
        assert _bytes(D.box_muller(np.random.default_rng(size), size)) \
            == _bytes(_reference_box_muller(np.random.default_rng(size),
                                            size))

    @pytest.mark.parametrize("n, d, sigma", [(1, 1, 1.0), (201, 7, 2.5),
                                             (4, 3, 0.0)])
    def test_synth_centroid_bits(self, n, d, sigma):
        X = D.synth_centroid(n, d, sigma, seed=n).X
        ref = sigma * _reference_box_muller(np.random.default_rng(n), n * d)
        assert _bytes(X) == _bytes(ref.reshape(n, d))

    # the mask is drawn in chunks of 8192 uniforms: two chunks of whole
    # rows at (301, 40), one row per chunk at d = 9000
    @pytest.mark.parametrize("n, d", [(7, 3), (301, 40), (5, 9000)])
    @pytest.mark.parametrize("num_classes", [2, 3, 10])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 1.0])
    def test_synth_classification_bits(self, n, d, num_classes, sparsity):
        n = max(n, num_classes)
        ds = D.synth_classification(n, d, num_classes, margin=3.0,
                                    sparsity=sparsity, seed=d + num_classes)
        X, y = _reference_synth_classification(n, d, num_classes, 3.0,
                                               sparsity, d + num_classes)
        assert _bytes(ds.y) == _bytes(y)
        if sparsity == 0.0:
            assert _bytes(ds.X) == _bytes(X)
            return
        assert ds.X.shape == X.shape
        for part in ("data", "indices", "indptr"):
            assert _bytes(getattr(ds.X, part)) == _bytes(getattr(X, part))

    def test_synth_classification_peak_memory(self):
        n, d = 20_000, 100
        tracemalloc.start()
        try:
            D.synth_classification(n, d, 2, sparsity=0.9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * n * d * 8

    def test_box_muller_peak_memory(self):
        size = 1_000_000
        tracemalloc.start()
        try:
            D.box_muller(np.random.default_rng(0), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * size * 8

class TestUnbalance:
    def test_identity_when_keep_is_one(self):
        ds = D.synth_classification(40, 3, 4, margin=2.0, seed=9)
        out = D.unbalance(ds, {1}, 1.0, seed=0)
        assert out.n == ds.n
        np.testing.assert_array_equal(out.y, ds.y)
        np.testing.assert_array_equal(out.X, ds.X)

    def test_survivor_count_binomial(self):
        ds = D.synth_classification(2000, 3, 2, margin=2.0, seed=10)
        # 1000 examples of each label; drop label 1 at keep 0.1
        out = D.unbalance(ds, {1}, 0.1, seed=11)
        survivors = int(np.sum(out.y == 1))
        sigma = np.sqrt(1000 * 0.1 * 0.9)
        assert abs(survivors - 100) <= 4 * sigma

    def test_untouched_classes_exact(self):
        ds = D.synth_classification(300, 3, 3, margin=2.0, seed=12)
        before = ds.label_counts()
        out = D.unbalance(ds, {2}, 0.2, seed=13)
        after = out.label_counts()
        assert after[0] == before[0] and after[1] == before[1]
        assert after[2] < before[2]

    def test_order_preserved(self):
        ds = D.synth_classification(100, 3, 2, margin=2.0, seed=14)
        # row i carries the tag i in a column of its own
        tagged = D.Dataset(np.column_stack([ds.X, np.arange(ds.n)]), ds.y,
                           ds.num_classes, ds.provenance)
        out = D.unbalance(tagged, {0}, 0.5, seed=15)
        kept = out.X[:, -1]
        assert 0 < kept.size < ds.n
        assert np.all(np.diff(kept) > 0)
        np.testing.assert_array_equal(out.X, tagged.X[kept.astype(int)])
        np.testing.assert_array_equal(out.y, ds.y[kept.astype(int)])

    def test_same_survivors_as_one_draw_per_dropped_row(self):
        ds = D.synth_classification(90, 2, 3, margin=2.0, seed=18)
        out = D.unbalance(ds, {0, 2}, 0.4, seed=19)
        rng = np.random.default_rng(19)
        expected = [i for i, label in enumerate(ds.y)
                    if label == 1 or rng.random() < 0.4]
        np.testing.assert_array_equal(out.X, ds.X[expected])

    def test_rejects_empty_result(self):
        ds = D.synth_classification(4, 2, 2, margin=2.0, seed=16)
        with pytest.raises(ValueError):
            D.unbalance(ds, {0, 1}, 1e-12, seed=17)

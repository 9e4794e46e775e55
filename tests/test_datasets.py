import numpy as np
import pytest

from dasgrad import datasets as D
from dasgrad import metrics as M
from dasgrad import problems as P
from dasgrad import sampling as S


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

    def test_centers_respect_margin(self):
        ds = D.synth_classification(20, 4, 4, margin=6.0, seed=8)
        prob = D.make_problem(ds, P.MULTICLASS_LOGISTIC)
        # class means should sit near the spread-out centers
        means = np.array([prob.X[prob.y == k].mean(axis=0) for k in range(4)])
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.linalg.norm(means[a] - means[b]) > 3.0


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

import filecmp
import os

import numpy as np
import pytest

from dasgrad import cli as C
from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import optimizers as O
from dasgrad import problems as P

TINY_CONFIG = """
# small multiclass experiment
kind = multiclass-logistic
n = 40
d = 4
classes = 3
margin = 3
data_seed = 5
lambda = 1e-3
T = 30
seeds = 0,1,2
metric_tick = 5
output_dir = {out}

[optimizer.dasgrad]
method = dasgrad
alpha = 0.05
batch_size = 4
refresh_period = 5

[optimizer.amsgrad]
method = amsgrad
alpha = 0.05
batch_size = 4
"""

# the "wild" optimizer diverges on every seed, "tame" never does
DIVERGING_CONFIG = """
kind = centroid
n = 6
d = 2
sigma = 1
T = 20
seeds = 0,1
metric_tick = 5
output_dir = {out}
[optimizer.wild]
method = sgd
alpha = 1e200
batch_size = 1
box = -inf,inf
[optimizer.tame]
method = sgd
alpha = 0.1
batch_size = 1
"""


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        cfg = H.parse_config_text(TINY_CONFIG.format(out=tmp_path / "o"))
        assert cfg.T == 30
        assert cfg.seeds == (0, 1, 2)
        assert set(cfg.optimizers) == {"dasgrad", "amsgrad"}
        assert cfg.optimizers["dasgrad"].refresh_period == 5
        assert cfg.problem.kind == P.MULTICLASS_LOGISTIC
        assert cfg.problem.l2_lambda == pytest.approx(1e-3)

    def test_bad_section(self):
        with pytest.raises(ValueError):
            H.parse_config_text("[optimizers.x]\nmethod = sgd\n")

    def test_duplicate_optimizer(self):
        with pytest.raises(ValueError):
            H.parse_config_text(
                "[optimizer.a]\nmethod = sgd\n[optimizer.a]\nmethod = sgd\n")

    def test_requires_an_optimizer(self):
        with pytest.raises(ValueError):
            H.parse_config_text("T = 5\nseeds = 0,1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError):
            H.parse_config_text("just words\n[optimizer.a]\nmethod = sgd\n")


class TestPresets:
    def test_convex_preset_carries_footnote_hyperparameters(self):
        cfg = H.convex_preset("dasgrad")
        assert cfg.alpha == 0.01
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.99
        assert cfg.batch_size == 32
        assert cfg.refresh_period == 10


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = H.parse_config_text(TINY_CONFIG.format(out=tmp_path / "o"))
        _, problem = cfg.problem.build()
        opt = cfg.optimizers["amsgrad"]
        result = O.run(problem, opt, T=20, seed=0, metric_tick=5)
        path = tmp_path / "trace.csv"
        H.write_trace_csv(path, result, f_star=0.5)
        back = H.read_trace_csv(path)
        np.testing.assert_array_equal(back["step"], result.ticks)
        np.testing.assert_array_equal(back["loss"], result.loss)
        np.testing.assert_array_equal(back["accuracy"], result.accuracy)
        np.testing.assert_array_equal(back["inst_regret"], result.loss - 0.5)
        np.testing.assert_array_equal(back["cum_regret"],
                                      np.cumsum(result.loss - 0.5))

    def test_centroid_trace_has_blank_accuracy(self, tmp_path):
        from dasgrad import datasets as D
        ds = D.synth_centroid(10, 2, 1.0, seed=0)
        problem = D.make_problem(ds, P.CENTROID)
        result = O.run(problem, O.OptimizerConfig(method="sgd", batch_size=2),
                       T=10, seed=0, metric_tick=5)
        path = tmp_path / "trace.csv"
        H.write_trace_csv(path, result, f_star=0.0)
        text = path.read_text().splitlines()
        assert text[0] == H.TRACE_HEADER
        assert text[1].split(",")[2] == ""
        back = H.read_trace_csv(path)
        assert np.all(np.isnan(back["accuracy"]))


class TestRunExperiment:
    def test_row_count_contract(self, tmp_path):
        text = """
kind = centroid
n = 10
d = 2
sigma = 1
T = 10
seeds = 0
metric_tick = 1
output_dir = {out}
[optimizer.sgd]
method = sgd
batch_size = 2
""".format(out=tmp_path / "single")
        cfg = H.parse_config_text(text)
        H.run_experiment(cfg)
        trace = (tmp_path / "single" / "trace_sgd_0.csv").read_text()
        assert len(trace.splitlines()) == 11  # header + 10 ticks

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = H.parse_config_text(TINY_CONFIG.format(out=out))
            H.run_experiment(cfg)
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                name

    def test_outputs_exist_and_aggregate_matches_traces(self, tmp_path):
        out = tmp_path / "exp"
        cfg = H.parse_config_text(TINY_CONFIG.format(out=out))
        H.run_experiment(cfg)
        for name in ("trace_dasgrad_0.csv", "trace_amsgrad_2.csv",
                     "aggregate_dasgrad.csv", "aggregate_amsgrad.csv",
                     "comparison.csv", "metadata.txt"):
            assert (out / name).exists(), name
        # aggregate column equals aggregate_runs over the emitted traces
        losses = [H.read_trace_csv(out / ("trace_amsgrad_%d.csv" % s))["loss"]
                  for s in (0, 1, 2)]
        agg = M.aggregate_runs(losses)
        with open(out / "aggregate_amsgrad.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        col = header.index("loss_mean")
        emitted = np.array([float(r[col]) for r in rows])
        np.testing.assert_allclose(emitted, agg.mean, atol=1e-12)

    def test_comparison_recomputable_from_traces(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = H.parse_config_text(TINY_CONFIG.format(out=out))
        H.run_experiment(cfg)
        das = [H.read_trace_csv(out / ("trace_dasgrad_%d.csv" % s))
               for s in (0, 1, 2)]
        ams = [H.read_trace_csv(out / ("trace_amsgrad_%d.csv" % s))
               for s in (0, 1, 2)]
        loss_gain = (np.mean([t["loss"] for t in ams], axis=0)
                     - np.mean([t["loss"] for t in das], axis=0))
        acc_gain = (np.mean([t["accuracy"] for t in das], axis=0)
                    - np.mean([t["accuracy"] for t in ams], axis=0))
        with open(out / "comparison.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        li = header.index("loss_gain_mean")
        ai = header.index("acc_gain_mean")
        emitted_loss = np.array([float(r[li]) for r in rows])
        emitted_acc = np.array([float(r[ai]) for r in rows])
        np.testing.assert_allclose(emitted_loss, loss_gain, atol=1e-12)
        np.testing.assert_allclose(emitted_acc, acc_gain, atol=1e-12)

    def test_divergence_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "div"
        cfg = H.parse_config_text(DIVERGING_CONFIG.format(out=out))
        results = H.run_experiment(cfg)
        assert set(results) == {("tame", 0), ("tame", 1)}
        assert [run[:2] for run in results.failures] == [("wild", 0),
                                                         ("wild", 1)]
        assert (out / "failures.csv").exists()
        assert (out / "trace_tame_0.csv").exists()
        assert not (out / "trace_wild_0.csv").exists()


class TestSweepAndMatching:
    def test_sweep_emits_manifest(self, tmp_path):
        out = tmp_path / "sweep"
        H.sweep_variance([0.5, 1.0, 2.0], seeds=range(3), output_dir=str(out),
                         n=20, d=3, T=30)
        files = sorted(os.listdir(out))
        aggregates = [f for f in files if f.startswith("sweep_aggregate")]
        assert len(aggregates) == 3
        assert "sweep_summary.csv" in files
        with open(out / "sweep_summary.csv") as fh:
            header = fh.readline().strip()
            rows = fh.read().splitlines()
        assert header.startswith("sigma,dasgrad_final_mean")
        assert len(rows) == 3

    def test_matching_emits_summary(self, tmp_path):
        out = tmp_path / "match"
        _, (gap, lo, hi) = H.matching_experiment(
            seeds=range(2), output_dir=str(out), n_train=60, n_eval=40,
            d=5, T=40, metric_tick=10)
        assert lo <= gap <= hi
        assert (out / "matching_summary.csv").exists()
        assert (out / "matching_trace_dasgrad_target_0.csv").exists()


class TestSelfCheckAndCli:
    def test_self_check_passes(self, capsys):
        assert H.self_check(verbose=True)
        printed = capsys.readouterr().out
        assert "PASS" in printed and "FAIL" not in printed

    def test_cli_check_exit_zero(self, capsys):
        assert C.main(["check"]) == 0

    def test_cli_missing_config_usage_error(self):
        with pytest.raises(SystemExit) as err:
            C.main(["run"])
        assert err.value.code == 2

    def test_cli_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", "x.cfg", "--bogus"])
        assert err.value.code == 2

    def test_cli_nonexistent_config(self):
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", "/nonexistent/path.cfg"])
        assert err.value.code == 2

    def test_cli_run_exit_code_follows_this_calls_failures(self, tmp_path,
                                                           capsys):
        out = tmp_path / "cli_div"
        cfg_path = tmp_path / "div.cfg"
        cfg_path.write_text(DIVERGING_CONFIG.format(out=out))
        assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert "wild/0" in capsys.readouterr().err
        # a failures.csv left by an earlier run does not fail a clean one
        cfg_path.write_text(TINY_CONFIG.format(out=out))
        assert (out / "failures.csv").exists()
        assert C.main(["run", "--config", str(cfg_path)]) == 0

    def test_cli_run_and_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "cli_out"))
        assert C.main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cli_out" / "comparison.csv").exists()
        assert C.main(["sweep-variance", "--sigmas", "1", "--seeds", "2",
                       "--out", str(tmp_path / "cli_sweep"),
                       "--n", "10", "--d", "2", "--T", "20"]) == 0
        assert (tmp_path / "cli_sweep" / "sweep_summary.csv").exists()

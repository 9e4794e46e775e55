import dataclasses
import filecmp
import math
import multiprocessing
import os
import re
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dasgrad import cli as C
from dasgrad import datasets as D
from dasgrad import harness as H
from dasgrad import metrics as M
from dasgrad import optimizers as O
from dasgrad import problems as P
from dasgrad import sharing as SH

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

# ap_sgd at a huge step keeps theta finite until a refresh reads gradient
# norms that overflow (step 69 on both seeds)
SCORE_OVERFLOW_CONFIG = """
kind = centroid
n = 24
d = 4
T = 200
seeds = 0,1
metric_tick = 5
output_dir = {out}
[optimizer.ap]
method = ap_sgd
alpha = 1000
refresh_period = 3
batch_size = 2
box = -inf,inf
"""

# SCORE_OVERFLOW_CONFIG stopped at T = 60, before its refresh overflows,
# with a dasgrad arm: losses near 1e277 whose squares overflow in the CI
# bands of the aggregates and the comparison
BAND_OVERFLOW_CONFIG = SCORE_OVERFLOW_CONFIG.replace(
    "T = 200", "T = 60") + """[optimizer.dasgrad]
method = dasgrad
alpha = 1000
refresh_period = 3
batch_size = 2
box = -inf,inf
"""

# features near 1e200: the loss overflows at the first tick of every run,
# and in the reference solve
LOSS_OVERFLOW_CONFIG = """
kind = centroid
n = 24
d = 4
sigma = 1e200
T = 40
seeds = 0,1
metric_tick = 5
output_dir = {out}
[optimizer.sgd]
method = sgd
alpha = 0.1
batch_size = 2
[optimizer.amsgrad]
method = amsgrad
batch_size = 2
"""

# sgd at a step near 1e154: the sum in the batch gradients' mean overflows
# on the step that makes theta nonfinite, step 3 on seed 0 and step 2 on
# seeds 1 and 2
BATCH_MEAN_OVERFLOW_CONFIG = """
kind = centroid
n = 12
d = 3
T = 19
seeds = 0,1,2
metric_tick = 9
data_seed = 120
output_dir = {out}
[optimizer.sgd]
alpha = 2.0529417675298077e+154
refresh_period = 10
batch_size = 2
box = -inf,inf
"""

# one point near 7e154: every loss, near 7.6e307, is finite, but the sum
# in the mean of the three seeds' losses or regrets overflows
MEAN_OVERFLOW_CONFIG = """
kind = centroid
n = 1
d = 1
sigma = 7e154
T = 5
seeds = 0,1,2
metric_tick = 5
output_dir = {out}
[optimizer.sgd]
method = sgd
batch_size = 2
[optimizer.dasgrad]
method = dasgrad
batch_size = 2
"""

# one point near 6e154: each tick's regret, near 5.6e307, is finite, but
# their running sum overflows at step 20 on every run
REGRET_OVERFLOW_CONFIG = MEAN_OVERFLOW_CONFIG.replace(
    "sigma = 7e154", "sigma = 6e154").replace("T = 5", "T = 20").replace(
    "seeds = 0,1,2", "seeds = 0,1")

# a reference solve cut off after its first iteration, far from converged
UNCONVERGED_CONFIG = """
kind = binary-logistic
n = 40
d = 3
lambda = 0.01
T = 20
metric_tick = 10
seeds = 0,1
reference_max_iters = 1
output_dir = {out}
[optimizer.sgd]
batch_size = 2
"""

# a dense CSV of 23 one-dimensional rows at 0 and one at 1
PARTIAL_DIVERGENCE_DATA = "0,0\n" * 23 + "0,1\n"

# "[optimizer.dasgrad]" (plain sgd at a huge step) keeps theta = 0 on a
# seed that never draws the one nonzero row of PARTIAL_DIVERGENCE_DATA, and
# diverges on every seed that does; seeds 0, 1 and 3 never draw it, so its
# runs pair with only three of tame's eight
PARTIAL_DIVERGENCE_CONFIG = """
kind = centroid
path = {data}
T = 20
seeds = 0,1,2,3,4,5,6,7
metric_tick = 5
output_dir = {out}
[optimizer.dasgrad]
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

    def test_unknown_global_key_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: unknown key 'seed'$"):
            H.parse_config_text("T = 5\nseed = 3\n[optimizer.a]\n"
                                "method = sgd\n")

    @pytest.mark.parametrize("key", ["alpah", "weight_mode", "score_mode"])
    def test_unknown_optimizer_key_names_its_line(self, key):
        text = "T = 5\n\n[optimizer.a]\nmethod = sgd\n%s = 5\n" % key
        with pytest.raises(ValueError,
                           match="^line 5: unknown key '%s'$" % key):
            H.parse_config_text(text)

    def test_bad_value_names_its_line(self):
        with pytest.raises(ValueError, match="^line 3: "):
            H.parse_config_text("[optimizer.a]\nmethod = sgd\n"
                                "batch_size = four\n")
        with pytest.raises(ValueError, match="^line 2: "):
            H.parse_config_text("[optimizer.a]\nbox = 1\n")

    def test_every_key_reaches_its_field(self):
        rest = ("lambda = 0.125\nT = 9\nseeds = 3,1\nmetric_tick = 3\n"
                "output_dir = o\nreference_tol = 1e-4\n"
                "reference_max_iters = 50\n"
                "[optimizer.a]\nmethod = adam\nalpha = 0.5\nbeta1 = 0.5\n"
                "beta2 = 0.75\nepsilon_div = 1e-6\nepsilon_prob = 1e-4\n"
                "beta1_decay = 0.99\nrefresh_period = 3\nbatch_size = 2\n"
                "box = -2,2\n")
        synthetic = H.parse_config_text(
            "kind = binary-logistic\nn = 7\nd = 3\nclasses = 2\n"
            "margin = 2\nsparsity = 0.25\ndata_seed = 4\n"
            + rest, base_dir="b")
        from_file = H.parse_config_text(
            "kind = binary-logistic\npath = data.csv\nsparse = true\n" + rest,
            base_dir="b")
        assert synthetic.problem == H.ProblemSpec(
            kind=P.BINARY_LOGISTIC, n=7, d=3, num_classes=2,
            margin=2.0, sparsity=0.25, data_seed=4, l2_lambda=0.125)
        # sigma is read by the centroid draw only
        assert H.parse_config_text(
            "kind = centroid\nsigma = 0.5\n[optimizer.sgd]\n").problem == \
            H.ProblemSpec(kind=P.CENTROID, sigma=0.5)
        assert from_file.problem == H.ProblemSpec(
            kind=P.BINARY_LOGISTIC, path=os.path.join("b", "data.csv"),
            sparse=True, l2_lambda=0.125)
        for cfg in (synthetic, from_file):
            assert (cfg.T, cfg.seeds, cfg.metric_tick, cfg.output_dir,
                    cfg.reference_tol, cfg.reference_max_iters) == (
                9, (3, 1), 3, "o", 1e-4, 50)
            assert cfg.optimizers["a"] == O.OptimizerConfig(
                method="adam", alpha=0.5, beta1=0.5, beta2=0.75,
                epsilon_div=1e-6, epsilon_prob=1e-4, beta1_decay=0.99,
                refresh_period=3, batch_size=2, projection=(-2.0, 2.0))

    @pytest.mark.parametrize("line, message", [
        ("kind = foo", "kind must be one of centroid, "),
        ("classes = 1", "classes must be at least 2"),
        ("n = 0", "n must be at least 1"),
        ("d = 0", "d must be at least 1"),
        ("d = -2", "d must be at least 1"),
        ("lambda = nan", "lambda must be finite and nonnegative"),
        ("lambda = -1", "lambda must be finite and nonnegative"),
        ("data_seed = -3", "data_seed must be nonnegative"),
        ("sigma = -1", "sigma must be finite and nonnegative"),
        ("sigma = inf", "sigma must be finite and nonnegative"),
        ("margin = nan", "margin must be finite and nonnegative"),
        ("margin = -inf", "margin must be finite and nonnegative"),
        ("sparsity = 1.5", r"sparsity must lie in \[0, 1\]"),
        ("sparsity = nan", r"sparsity must lie in \[0, 1\]"),
    ])
    def test_bad_problem_key_names_its_line(self, line, message):
        with pytest.raises(ValueError, match="^line 2: " + message):
            H.parse_config_text("T = 5\n" + line + "\n[optimizer.a]\n")

    @pytest.mark.parametrize("text, message", [
        ("T = 20\nT = 30\n[optimizer.a]\n", "line 2: key 'T' repeats line 1"),
        ("[optimizer.a]\nalpha = 0.1\nbatch_size = 2\nalpha = 0.2\n",
         "line 4: key 'alpha' repeats line 2"),
        ("[optimizer.sgd]\nmethod = sgd\nmethod = adam\n",
         "line 3: key 'method' repeats line 2"),
    ])
    def test_repeated_key_names_its_second_line(self, text, message):
        with pytest.raises(ValueError, match="^" + message + "$"):
            H.parse_config_text(text)

    def test_a_key_may_appear_once_in_each_section(self):
        cfg = H.parse_config_text(
            "T = 20\n[optimizer.a]\nmethod = sgd\nalpha = 0.1\n"
            "[optimizer.b]\nmethod = sgd\nalpha = 0.2\n")
        assert cfg.T == 20
        assert [o.alpha for o in cfg.optimizers.values()] == [0.1, 0.2]

    @pytest.mark.parametrize("text, message", [
        # a tick above T names the tick's line, else T's
        ("T = 10\nmetric_tick = 20\n", r"line 2: metric_tick must lie in "
                                         r"\[1, T=10\], got 20"),
        ("metric_tick = 20\nT = 10\n", "line 1: metric_tick must lie in"),
        ("T = 5\n", r"line 1: metric_tick must lie in \[1, T=5\], got 10"),
        ("kind = binary-logistic\nclasses = 3\n",
         "line 2: classes must be 2 for a binary-logistic problem, got 3"),
        ("classes = 3\nkind = binary-logistic\n",
         "line 1: classes must be 2 for a binary-logistic problem, got 3"),
        # synthesis needs a row per class: the n line, else the classes line
        ("kind = multiclass-logistic\nclasses = 5\nn = 3\n",
         r"line 3: n must be at least classes \(5\) to synthesize a "
         "multiclass-logistic problem, got 3"),
        ("kind = multiclass-logistic\nclasses = 300\n",
         r"line 2: n must be at least classes \(300\) to synthesize"),
        ("kind = binary-logistic\nn = 1\n",
         r"line 2: n must be at least classes \(2\)"),
        # a data file decides what each synthesis key would set
        *(("kind = multiclass-logistic\npath = d.csv\n%s\n" % line,
           "line 3: %s applies only without a path, whose file decides it, "
           "got %s$" % tuple(line.split(" = ")))
          for line in ("n = 7", "d = 3", "classes = 5", "sigma = 0.5",
                       "margin = 2.5", "sparsity = 0.5", "data_seed = 4")),
        ("T = 20\nsparse = true\n", "line 2: sparse needs a path, got True$"),
    ])
    def test_settings_at_odds_name_a_line(self, text, message):
        with pytest.raises(ValueError, match="^" + message):
            H.parse_config_text(text + "[optimizer.sgd]\n")

    @pytest.mark.parametrize("spec, fields, message", [
        (dict(kind=P.BINARY_LOGISTIC, num_classes=3), ("num_classes",),
         "classes must be 2 for a binary-logistic problem, got 3"),
        (dict(kind=P.MULTICLASS_LOGISTIC, n=2, num_classes=5),
         ("n", "num_classes"), r"n must be at least classes \(5\) to "
         "synthesize a multiclass-logistic problem, got 2"),
        # no centroid loss reads lambda, yet metadata.txt would report it
        (dict(kind=P.CENTROID, l2_lambda=0.5), ("l2_lambda",),
         "lambda must be 0 for a centroid problem"),
        # one source of data: a file, else synthesis
        (dict(kind=P.MULTICLASS_LOGISTIC, path="d.csv", num_classes=5),
         ("num_classes",), "classes applies only without a path, whose file "
         "decides it, got 5"),
        (dict(kind=P.BINARY_LOGISTIC, path="d.csv", sparse=True,
              data_seed=1), ("data_seed",),
         "data_seed applies only without a path"),
        (dict(kind=P.CENTROID, sparse=True), ("sparse",),
         "sparse needs a path, got True"),
    ])
    def test_problem_spec_rejects_settings_at_odds(self, spec, fields,
                                                   message):
        with pytest.raises(O.SettingError, match="^" + message) as err:
            H.ProblemSpec(**spec)
        assert err.value.fields == fields

    @pytest.mark.parametrize("kind, field, key, value", [
        (P.CENTROID, "num_classes", "classes", 5),
        (P.CENTROID, "margin", "margin", 9.0),
        (P.CENTROID, "sparsity", "sparsity", 0.5),
        (P.BINARY_LOGISTIC, "sigma", "sigma", 2.0),
        (P.MULTICLASS_LOGISTIC, "sigma", "sigma", 2.0),
    ])
    def test_a_synthetic_draw_rejects_a_setting_it_does_not_read(
            self, kind, field, key, value):
        message = "%s does not apply to a synthetic %s problem, got %r" % (
            key, kind, value)
        with pytest.raises(O.SettingError, match="^%s$" % re.escape(message)
                           ) as err:
            H.ProblemSpec(kind=kind, **{field: value})
        assert err.value.fields == (field,)
        with pytest.raises(ValueError,
                           match="^line 3: %s$" % re.escape(message)):
            H.parse_config_text("kind = %s\nT = 20\n%s = %s\n"
                                "[optimizer.sgd]\n" % (kind, key, value))
        # at its default the setting changes nothing, so it is accepted
        default = H.ProblemSpec(kind=kind)
        assert H.parse_config_text(
            "kind = %s\n%s = %s\n[optimizer.sgd]\n"
            % (kind, key, getattr(default, field))).problem == default

    @pytest.mark.parametrize("field, key, value", [
        ("n", "n", 2.5), ("d", "d", True), ("num_classes", "classes", 3.5)])
    def test_problem_spec_rejects_a_count_that_is_not_whole(self, field,
                                                            key, value):
        with pytest.raises(O.SettingError,
                           match="^%s must be whole, got %r$" % (key, value)
                           ) as err:
            H.ProblemSpec(kind=P.MULTICLASS_LOGISTIC, **{field: value})
        assert err.value.fields == (field,)

    def test_problem_spec_keeps_a_whole_count_as_an_int(self):
        spec = H.ProblemSpec(kind=P.CENTROID, n=np.int64(6), d=3.0)
        assert (spec.n, spec.d) == (6, 3)
        assert type(spec.n) is int and type(spec.d) is int
        assert spec.build()[0].X.shape == (6, 3)

    def test_rows_per_class_beside_a_data_file_are_rejected(self):
        # the file decides both; the first field that differs is named
        for keys, line in (("n = 2\nclasses = 5\n", 3),
                           ("classes = 5\nn = 2\n", 4)):
            with pytest.raises(ValueError, match="^line %d: n applies only "
                               "without a path, whose file decides it, got 2$"
                               % line):
                H.parse_config_text("kind = multiclass-logistic\n"
                                    "path = data.svm\n" + keys
                                    + "[optimizer.sgd]\n")

    @pytest.mark.parametrize("name", ["a/b", "a,b", "a b", "x\udcff", ""])
    def test_a_section_name_outside_its_alphabet_names_its_header(self,
                                                                   name):
        message = ("line 3: [optimizer.%s]: optimizer names may hold only "
                   "letters, digits, _, - and ., got %r" % (name, name))
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            H.parse_config_text("T = 20\n[optimizer.sgd]\n[optimizer.%s]\n"
                                "method = sgd\n" % name)
        spec = H.ProblemSpec(kind=P.CENTROID)
        with pytest.raises(O.SettingError) as err:
            H.ExperimentConfig(spec, {name: H.convex_preset("sgd")})
        assert err.value.fields == ("optimizers", name)
        cfg = H.ExperimentConfig(spec, {"Az09_-.x": H.convex_preset("sgd")})
        assert list(cfg.optimizers) == ["Az09_-.x"]

    def test_method_defaults_to_the_section_name(self):
        cfg = H.parse_config_text("[optimizer.dasgrad]\nbatch_size = 2\n"
                                  "[optimizer.fast]\nmethod = sgd\n")
        assert cfg.optimizers["dasgrad"].method == "dasgrad"
        assert cfg.optimizers["fast"].method == "sgd"

    def test_section_named_for_no_method_needs_a_method_line(self):
        with pytest.raises(ValueError, match=r"^line 2: \[optimizer\.fast\]: "
                                             r"unknown method 'fast'$"):
            H.parse_config_text("T = 5\n[optimizer.fast]\nbatch_size = 2\n")

    @pytest.mark.parametrize("kind", ["", "kind = centroid\n"])
    def test_lambda_on_a_centroid_problem_names_its_line(self, kind):
        with pytest.raises(ValueError, match="^line 2: lambda must be 0 "
                                             "for a centroid problem"):
            H.parse_config_text("T = 10\nlambda = 0.5\n" + kind
                                + "[optimizer.sgd]\n")
        cfg = H.parse_config_text("T = 10\nlambda = 0\n" + kind
                                  + "[optimizer.sgd]\n")
        assert cfg.problem.l2_lambda == 0.0

    def test_a_byte_that_is_not_utf8_in_a_value_names_its_line(self,
                                                              tmp_path):
        path = tmp_path / "u.cfg"
        path.write_bytes(b"kind = centroid\nT = 2\xff0\n[optimizer.sgd]\n")
        with pytest.raises(ValueError, match=r"^line 2: invalid literal .*"
                           r"'2\\udcff0'$"):
            H.load_config(str(path))

    def test_a_comment_may_hold_a_latin1_byte(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"# caf\xe9 au lait\nT = 20\n[optimizer.sgd]\n")
        cfg = H.load_config(str(path))
        assert cfg.T == 20 and set(cfg.optimizers) == {"sgd"}

    def test_repo_configs_use_only_known_keys(self):
        root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
        for name in sorted(os.listdir(root)):
            if name.endswith(".cfg"):
                H.load_config(os.path.join(root, name))


class TestPresets:
    def test_convex_preset_carries_footnote_hyperparameters(self):
        cfg = H.convex_preset("dasgrad")
        assert cfg.alpha == 0.01
        assert cfg.beta1 == 0.9
        assert cfg.beta2 == 0.99
        assert cfg.batch_size == 32
        assert cfg.refresh_period == 10

    def test_experiment_config_solves_at_the_library_defaults(self):
        # a config's reference solve, the protocols' and a direct
        # solve_reference call share one pair of settings
        config = H.ExperimentConfig(problem=H.ProblemSpec(kind=P.CENTROID),
                                    optimizers={"sgd": H.convex_preset("sgd")})
        assert (config.reference_tol, config.reference_max_iters) == (
            M.REFERENCE_TOL, M.REFERENCE_MAX_ITERS)


def read_trace(path):
    """A trace CSV as a structured array of float columns (NaN for a blank
    accuracy)."""
    return np.genfromtxt(path, delimiter=",", names=True, ndmin=1)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        cfg = H.parse_config_text(TINY_CONFIG.format(out=tmp_path / "o"))
        _, problem = cfg.problem.build()
        opt = cfg.optimizers["amsgrad"]
        result = O.run(problem, opt, T=20, seed=0, metric_tick=5)
        path = tmp_path / "trace.csv"
        H.write_trace_csv(path, result, 0.5, np.cumsum(result.loss - 0.5))
        back = read_trace(path)
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
        H.write_trace_csv(path, result, 0.0, np.cumsum(result.loss))
        text = path.read_text().splitlines()
        assert text[0] == H.TRACE_HEADER
        assert text[1].split(",")[2] == ""
        back = read_trace(path)
        assert np.all(np.isnan(back["accuracy"]))


class TestWriteCsv:
    def test_every_cell_follows_one_rule(self, tmp_path):
        path = tmp_path / "cells.csv"
        H._write_csv(path, ["arm", "seed"], [
            ["tame", None],
            [np.int64(500), 2**63 - 1],   # .17g would write 9.22...58e+18
            [-0.0, 5e-324, 0.1, np.nan, np.inf, np.float64(1 / 3)]])
        assert path.read_text().splitlines() == [
            "arm,seed", "tame,", "500,9223372036854775807",
            "-0,4.9406564584124654e-324,0.10000000000000001,nan,inf,"
            "0.33333333333333331"]

    def test_sweep_summary_writes_an_int_sigma_as_a_float(self, tmp_path):
        out = tmp_path / "sweep"
        H.sweep_variance([10**20], range(2), str(out), **SMALL_SWEEP)
        assert read_rows(out / "sweep_summary.csv")[0][0] == "1e+20"


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
        losses = [read_trace(out / ("trace_amsgrad_%d.csv" % s))["loss"]
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
        das = [read_trace(out / ("trace_dasgrad_%d.csv" % s))
               for s in (0, 1, 2)]
        ams = [read_trace(out / ("trace_amsgrad_%d.csv" % s))
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

    def test_partial_divergence_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "partial"
        data = tmp_path / "partial.csv"
        data.write_text(PARTIAL_DIVERGENCE_DATA)
        cfg = H.parse_config_text(PARTIAL_DIVERGENCE_CONFIG.format(
            out=out, data=data))
        results = H.run_experiment(cfg)
        assert sorted(s for name, s in results if name == "dasgrad") == [
            0, 1, 3]
        assert [f[:2] for f in results.failures] == [
            ("dasgrad", s) for s in (2, 4, 5, 6, 7)]
        for seed in (0, 1, 3):
            trace = read_trace(out / ("trace_dasgrad_%d.csv" % seed))
            assert np.all(np.isfinite(trace["loss"]))
            assert np.all(np.isfinite(trace["grad_norm_var"]))
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            [str(t), "tame"] for t in (5, 10, 15, 20)]
        assert all(np.isfinite(float(v)) for r in rows
                   for v in r.split(",")[2:] if v)

    def test_diverging_runs_raise_no_numpy_warnings(self, tmp_path):
        data = tmp_path / "partial.csv"
        data.write_text(PARTIAL_DIVERGENCE_DATA)
        cfg = H.parse_config_text(PARTIAL_DIVERGENCE_CONFIG.format(
            out=tmp_path / "partial", data=data))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = H.run_experiment(cfg)
        assert len(results.failures) == 5

    def test_one_seed_skips_aggregates_and_comparison(self, tmp_path):
        out = tmp_path / "one"
        cfg = H.parse_config_text(TINY_CONFIG.format(out=out).replace(
            "seeds = 0,1,2", "seeds = 4"))
        results = H.run_experiment(cfg)
        assert results.skipped == ["aggregate_amsgrad.csv",
                                   "aggregate_dasgrad.csv", "comparison.csv"]
        assert sorted(os.listdir(out)) == [
            "metadata.txt", "trace_amsgrad_4.csv", "trace_dasgrad_4.csv"]

    def test_rerun_removes_the_outputs_it_leaves_unwritten(self, tmp_path,
                                                           monkeypatch):
        cfg = H.parse_config_text(TINY_CONFIG.format(out=tmp_path / "o"))
        H.run_experiment(cfg)
        diverge_on(monkeypatch, {("dasgrad", 0), ("dasgrad", 1),
                                 ("dasgrad", 2)})
        results = H.run_experiment(cfg)
        assert results.skipped == ["aggregate_dasgrad.csv", "comparison.csv"]
        assert sorted(os.listdir(tmp_path / "o")) == [
            "aggregate_amsgrad.csv", "failures.csv", "metadata.txt",
            "trace_amsgrad_0.csv", "trace_amsgrad_1.csv",
            "trace_amsgrad_2.csv"]

    def test_comparison_pairs_runs_by_seed(self, tmp_path, monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 0)})
        out = tmp_path / "paired"
        H.run_experiment(H.parse_config_text(TINY_CONFIG.format(out=out)))
        trace = {(name, s): read_trace(
            out / ("trace_%s_%d.csv" % (name, s)))
            for name in ("dasgrad", "amsgrad") for s in (0, 1, 2)
            if name == "amsgrad" or s > 0}
        with open(out / "comparison.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        col = {name: np.array([float(r[i]) for r in rows])
               for i, name in enumerate(header) if i >= 2}
        for metric, sign in (("loss", -1.0), ("acc", 1.0)):
            key = "loss" if metric == "loss" else "accuracy"
            # dasgrad minus amsgrad for accuracy, the reverse for loss
            diffs = sign * np.array([trace["dasgrad", s][key]
                                     - trace["amsgrad", s][key]
                                     for s in (1, 2)])
            mean = diffs.mean(axis=0)
            half = M.Z_95 * diffs.std(axis=0, ddof=1) / np.sqrt(2)
            np.testing.assert_allclose(col[metric + "_gain_mean"], mean,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(col[metric + "_gain_paired_lo"],
                                       mean - half, rtol=1e-12, atol=1e-15)
            das = np.array([trace["dasgrad", s][key] for s in (1, 2)])
            ams = np.array([trace["amsgrad", s][key] for s in (0, 1, 2)])
            a, b = (ams, das) if metric == "loss" else (das, ams)
            unpaired_lo = [M.unpaired_ci(a[:, j], b[:, j])[1]
                           for j in range(len(rows))]
            np.testing.assert_allclose(col[metric + "_gain_unpaired_lo"],
                                       unpaired_lo, rtol=1e-12, atol=1e-15)

    def test_comparison_skips_baseline_without_two_shared_seeds(
            self, tmp_path, monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 0), ("dasgrad", 1),
                                 ("amsgrad", 2), ("amsgrad", 3)})
        out = tmp_path / "disjoint"
        text = TINY_CONFIG.replace("seeds = 0,1,2", "seeds = 0,1,2,3")
        results = H.run_experiment(H.parse_config_text(text.format(out=out)))
        assert len(results) == 4
        assert (out / "aggregate_dasgrad.csv").exists()
        assert (out / "aggregate_amsgrad.csv").exists()
        assert len((out / "comparison.csv").read_text().splitlines()) == 1


# the dasgrad section's alpha line of TINY_CONFIG, with the lines after it
_DASGRAD_ALPHA = "alpha = 0.05\nbatch_size = 4\nrefresh_period = 5"


class TestRunSettingsRejected:
    @pytest.mark.parametrize("old, new, message", [
        ("metric_tick = 5", "metric_tick = 0", "line 12: metric_tick"),
        ("metric_tick = 5", "metric_tick = -5", "line 12: metric_tick"),
        ("metric_tick = 5", "metric_tick = 31", "line 12: metric_tick"),
        ("T = 30", "T = 3", "line 12: metric_tick must lie in [1, T=3]"),
        ("seeds = 0,1,2", "seeds = 1,1", "line 11: seeds must not repeat"),
        ("seeds = 0,1,2", "seeds = -1,0", "line 11: seeds must not repeat "
                                          "or be negative, got -1,0"),
        ("T = 30", "T = 0", "line 10: T must be at least 1"),
        ("T = 30", "T = 30\nreference_tol = 0", "line 11: reference_tol"),
        # an infinite tolerance would stop the solve at theta = 0 and take
        # every regret against F(0)
        ("T = 30", "T = 30\nreference_tol = inf",
         "line 11: reference_tol must be finite and positive"),
        ("T = 30", "T = 30\nreference_tol = nan",
         "line 11: reference_tol must be finite and positive"),
        ("T = 30", "T = 30\npath =", "line 11: path must not be empty"),
        ("T = 30", "T = 30\nreference_max_iters = 0",
         "line 11: reference_max_iters"),
        ("T = 30", "T = 30\nT = 40", "line 11: key 'T' repeats line 10"),
        ("kind = multiclass-logistic\nn = 40\nd = 4",
         "kind = centroid\nn = 40\nd = 0", "line 5: d must be at least 1"),
        ("kind = multiclass-logistic", "kind = binary-logistic",
         "line 6: classes must be 2"),
        ("n = 40", "n = 2", "line 4: n must be at least classes (3)"),
    ])
    def test_cli_run_exits_two_before_the_reference_solve(
            self, tmp_path, capsys, monkeypatch, old, new, message):
        monkeypatch.setattr(M, "solve_reference", None)
        out = tmp_path / "bad"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=out).replace(old, new))
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings, message", [
        (dict(seeds=[1, 1]), "seeds must not repeat"),
        (dict(seeds=[-1, 0]), "be negative"),
        (dict(T=5, metric_tick=6), "metric_tick"),
        (dict(metric_tick=0), "metric_tick"),
        (dict(T=50.5), "T"),
        (dict(metric_tick=True), "metric_tick"),
    ])
    @pytest.mark.parametrize("protocol", ["sweep", "matching"])
    def test_protocols_reject_bad_settings_before_any_run(
            self, tmp_path, monkeypatch, protocol, settings, message):
        monkeypatch.setattr(O, "run", None)
        monkeypatch.setattr(M, "solve_reference", None)
        out = str(tmp_path / "out")
        settings = dict(settings)
        seeds = settings.pop("seeds", range(2))
        with pytest.raises(ValueError, match=message):
            if protocol == "sweep":
                H.sweep_variance([1.0], seeds, out, **settings)
            else:
                H.matching_experiment(seeds, out, **settings)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("protocol", ["run", "matching"])
    def test_rejected_target_counts_cost_no_reference_solve(
            self, tmp_path, monkeypatch, protocol):
        solves, forks = [], []
        solve, fork = M.solve_reference, os.fork
        monkeypatch.setattr(M, "solve_reference", lambda *args, **kwargs: (
            solves.append(args), solve(*args, **kwargs))[1])
        # a solve in a forked helper would escape the spy above
        monkeypatch.setattr(os, "fork", lambda: (forks.append(1), fork())[1])
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="target label count"):
            if protocol == "run":
                config = H.parse_config_text(TINY_CONFIG.format(out=out))
                # two counts for the config's three classes
                H.run_experiment(dataclasses.replace(config, optimizers={
                    "dasgrad": H.convex_preset(
                        "dasgrad", target_label_counts=[1, 2])}))
            else:
                # keep_fraction 0.0005 leaves classes 1 and 3 no training
                # row, which the balanced target still weighs
                H.matching_experiment(range(2), str(out), n_train=200,
                                      n_eval=80, d=5, T=40, metric_tick=10,
                                      keep_fraction=0.0005)
        assert solves == [] and forks == []
        assert not out.exists()

    @pytest.mark.parametrize("protocol", ["run", "sweep", "matching"])
    def test_seeds_must_be_whole(self, tmp_path, protocol):
        def call(seeds, out):
            if protocol == "run":
                return H.run_experiment(dataclasses.replace(
                    H.parse_config_text(OWNED_CONFIG.format(out=out,
                                                            seeds="0,1")),
                    seeds=seeds))
            if protocol == "sweep":
                return H.sweep_variance([1.0], seeds, str(out), **SMALL_SWEEP)
            return H.matching_experiment(seeds, str(out), **SMALL_MATCHING)

        for bad in ([0.5, 2], [True, 2]):
            with pytest.raises(O.SettingError, match="seeds must be whole, "
                                                     "got " + str(bad[0])):
                call(bad, tmp_path / "bad")
            assert not (tmp_path / "bad").exists()
        # a whole float is its int
        call([1.0, 2], tmp_path / "float")
        call([1, 2], tmp_path / "int")
        match = filecmp.dircmp(tmp_path / "float", tmp_path / "int")
        assert match.left_only == match.right_only == []
        assert filecmp.cmpfiles(tmp_path / "float", tmp_path / "int",
                                match.common_files, shallow=False)[1:] \
            == ([], [])

    def test_experiment_config_keeps_a_one_shot_iterable_of_seeds(
            self, tmp_path):
        out = tmp_path / "gen"
        config = H.ExperimentConfig(
            problem=H.ProblemSpec(kind=P.CENTROID, n=10, d=2),
            optimizers={"sgd": H.convex_preset("sgd", batch_size=2)},
            T=10, seeds=(s for s in (0, 1)), metric_tick=5,
            output_dir=str(out))
        assert config.seeds == (0, 1)
        assert sorted(H.run_experiment(config)) == [("sgd", 0), ("sgd", 1)]
        assert "seeds = 0,1" in (out / "metadata.txt").read_text().split("\n")

    def test_cli_run_rejects_lambda_on_a_centroid_problem(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "bad"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(OWNED_CONFIG.format(out=out, seeds="0,1").replace(
            "T = 20", "T = 20\nlambda = 0.5"))
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        assert ("line 6: lambda must be 0 for a centroid problem"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_experiment_config_needs_a_finite_positive_reference_tol(
            self, tol):
        with pytest.raises(ValueError, match="reference_tol must be finite "
                                             "and positive"):
            H.ExperimentConfig(problem=H.ProblemSpec(kind=P.CENTROID),
                               optimizers={"sgd": H.convex_preset("sgd")},
                               reference_tol=tol)

    def test_experiment_config_rejects_a_tick_run_rejects(self):
        with pytest.raises(ValueError, match="metric_tick"):
            H.ExperimentConfig(problem=H.ProblemSpec(kind=P.CENTROID),
                               optimizers={"sgd": H.convex_preset("sgd")},
                               metric_tick=True)

    @pytest.mark.parametrize("sigmas, methods", [
        ([0.1, 0.1000001], ("amsgrad", "dasgrad")),
        ([1.0], ("amsgrad", "dasgrad", "amsgrad"))])
    def test_sweep_rejects_arms_that_share_a_name(self, tmp_path, monkeypatch,
                                                  sigmas, methods):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="must not repeat"):
            H.sweep_variance(sigmas, range(2), str(out), methods=methods)
        assert not out.exists()

    def test_matching_usage_error_leaves_no_output_dir(self, tmp_path,
                                                       capsys, monkeypatch):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "m"
        with pytest.raises(SystemExit) as err:
            C.main(["matching", "--seeds", "2", "--T", "40",
                    "--keep-fraction", "0", "--out", str(out)])
        assert err.value.code == 2
        assert "keep_fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings, field, message", [
        (dict(d=0), "d", "d must be at least 1, got 0"),
        (dict(data_seed=-1), "data_seed", "data_seed must be nonnegative"),
        (dict(n_eval=0), "n_eval", "n_eval must be at least 1"),
        (dict(n_train=0), "n_train", "n_train must be at least 1"),
    ])
    def test_matching_problem_settings_name_their_setting(
            self, tmp_path, monkeypatch, settings, field, message):
        monkeypatch.setattr(O, "run", None)
        monkeypatch.setattr(M, "solve_reference", None)
        out = tmp_path / "m"
        with pytest.raises(O.SettingError, match="^" + message) as err:
            H.matching_experiment(range(2), str(out), **settings)
        assert err.value.fields == (field,)
        assert not out.exists()

    def test_unknown_protocol_setting_is_named(self, tmp_path, monkeypatch):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "typo"
        with pytest.raises(ValueError, match="keep_fracton"):
            H.matching_experiment(range(2), str(out), keep_fracton=0.9)
        with pytest.raises(ValueError, match="batchsize"):
            H.sweep_variance([1.0], range(2), str(out), batchsize=4)
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [
        ("num_classes", 3), ("margin", 2.0), ("drop_labels", (1,)),
        ("l2_lambda", 0.0), ("alpha", 0.01), ("batch_size", 32)])
    def test_matching_design_is_not_a_setting(self, tmp_path, monkeypatch,
                                              name, value):
        monkeypatch.setattr(O, "run", None)
        monkeypatch.setattr(M, "solve_reference", None)
        out = tmp_path / "m"
        with pytest.raises(ValueError,
                           match=r"^unknown setting\(s\): %s$" % name):
            H.matching_experiment(range(2), str(out), **{name: value})
        assert not out.exists()
        assert len(H.MATCHING_DEFAULTS) == 7

    def test_sweep_rejects_no_sigma_before_any_fork(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(os, "fork", None)
        out = tmp_path / "sweep"
        with pytest.raises(O.SettingError,
                           match="^need at least one sigma$") as err:
            H.sweep_variance([], range(2), str(out), **SMALL_SWEEP)
        assert err.value.fields == ("sigmas",)
        assert not out.exists()

    def test_cli_passes_only_the_given_protocol_flags(self, tmp_path,
                                                      monkeypatch):
        seen = []

        def protocol(*args, **kwargs):
            seen.append(kwargs)
            raise ValueError("stop")
        monkeypatch.setattr(H, "sweep_variance", protocol)
        monkeypatch.setattr(H, "matching_experiment", protocol)
        for command, flag in (("sweep-variance", "--T"),
                              ("matching", "--keep-fraction")):
            with pytest.raises(SystemExit) as err:
                C.main([command, flag, "5", "--out", str(tmp_path / "o")])
            assert err.value.code == 2
        assert seen == [{"T": 5}, {"keep_fraction": 5.0}]


    @pytest.mark.parametrize("old, new, named", [
        ("refresh_period = 5", "refresh_period = 5\nbeta1_decay = 1.5",
         "beta1_decay = 1.5"),
        ("refresh_period = 5", "refresh_period = 5\nbeta1_decay = -0.5",
         "beta1_decay = -0.5"),
        ("refresh_period = 5", "refresh_period = 5\nbeta1_decay = nan",
         "beta1_decay = nan"),
        (_DASGRAD_ALPHA, _DASGRAD_ALPHA.replace("0.05", "nan"), "alpha = nan"),
        ("refresh_period = 5", "refresh_period = 5\nepsilon_div = nan",
         "epsilon_div = nan"),
        (_DASGRAD_ALPHA, _DASGRAD_ALPHA.replace("0.05", "-1"), "alpha = -1"),
        # a section that sets none of the rule's fields names its header
        ("[optimizer.amsgrad]\nmethod = amsgrad", "[optimizer.ams]",
         "[optimizer.ams]"),
    ])
    def test_bad_optimizer_value_names_its_key_line(
            self, tmp_path, capsys, monkeypatch, old, new, named):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "bad"
        cfg_path = tmp_path / "bad.cfg"
        text = TINY_CONFIG.format(out=out).replace(old, new)
        lines = text.splitlines()
        line = lines.index(named) + 1
        header = next(h for h in reversed(lines[:line]) if h.startswith("["))
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        assert "line %d: %s: " % (line, header) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["d", "n"])
    def test_sweep_problem_settings_follow_the_problem_spec(
            self, tmp_path, capsys, monkeypatch, field):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as err:
            C.main(["sweep-variance", "--sigmas", "1", "--seeds", "2",
                    "--out", str(out), "--" + field, "0"])
        assert err.value.code == 2
        assert ("%s must be at least 1, got 0" % field
                in capsys.readouterr().err)
        with pytest.raises(O.SettingError) as err:
            H.sweep_variance([1.0], range(2), str(out), **{field: 0})
        assert err.value.fields == (field,)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("lambda = 1e-3", "lambda = nan",
         "lambda must be finite and nonnegative"),
        # a NaN margin used to leave the class centers unscaled, exit 0
        ("margin = 3", "margin = nan",
         "margin must be finite and nonnegative"),
        ("data_seed = 5", "data_seed = -1", "data_seed must be nonnegative"),
    ])
    def test_bad_problem_value_is_a_usage_error_naming_its_line(
            self, tmp_path, capsys, monkeypatch, old, new, message):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "bad"
        cfg_path = tmp_path / "bad.cfg"
        text = TINY_CONFIG.format(out=out).replace(old, new)
        cfg_path.write_text(text)
        line = text.splitlines().index(new) + 1
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        assert ("line %d: %s" % (line, message)
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("setting, data, message", [
        ("path = data.csv", "0,1\n1,x\n", "data.csv:2: non-numeric field"),
        ("path = missing.csv", None, "missing.csv"),
        ("classes = 50", None, "line 4: n must be at least classes (50) "
                               "to synthesize a multiclass-logistic problem, "
                               "got 40"),
        # a data file of one class bypasses the config's classes >= 2 rule
        ("path = data.csv\nsparse = true",
         "#d=2 #k=1\n0 0:1.0\n0 1:2.0\n0 0:3.0 1:1.0\n",
         "multiclass-logistic problem needs at least 2 classes, got 1"),
        ("path = data.csv", "0,1.0,2.0\n0,2.0,1.0\n0,3.0,1.0\n",
         "multiclass-logistic problem needs at least 2 classes, got 1"),
    ])
    def test_bad_data_is_one_usage_error_line(self, tmp_path, capsys,
                                              monkeypatch, setting, data,
                                              message):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "bad"
        cfg_path = tmp_path / "bad.cfg"
        if data is not None:
            (tmp_path / "data.csv").write_text(data)
        lines = TINY_CONFIG.format(out=out).replace(
            "classes = 3", setting).splitlines()
        if "path" in setting:   # the file decides what synthesis keys set
            lines = [line for line in lines
                     if line.split(" = ")[0] not in ("n", "d", "margin",
                                                     "data_seed")]
        cfg_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("dasgrad: error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("lines, line, message", [
        # a key the data file decides
        ("kind = binary-logistic\npath = two.csv\nn = 7", 4,
         "n applies only without a path, whose file decides it, got 7"),
        # used to run and write classes = 2 to metadata.txt
        ("kind = multiclass-logistic\npath = two.csv\nclasses = 5", 4,
         "classes applies only without a path, whose file decides it, "
         "got 5"),
        ("kind = centroid\nsparse = true", 3, "sparse needs a path, got True"),
        # used to run, then fail writing out/trace_a/b_0.csv
        ("kind = centroid\n[optimizer.a/b]\nmethod = sgd", 3,
         "[optimizer.a/b]: optimizer names may hold only letters, digits, "
         "_, - and ., got 'a/b'"),
        # used to run and split its comparison.csv baseline cell
        ("kind = centroid\n[optimizer.a,b]\nmethod = sgd", 3,
         "[optimizer.a,b]: optimizer names may hold only"),
    ])
    def test_a_rejected_source_or_section_name_names_its_line(
            self, tmp_path, capsys, monkeypatch, lines, line, message):
        monkeypatch.setattr(O, "run", None)
        monkeypatch.setattr(M, "solve_reference", None)
        (tmp_path / "two.csv").write_text("0,1.0\n1,2.0\n0,3.0\n")
        out = tmp_path / "out"
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("output_dir = %s\n%s\n[optimizer.dasgrad]\n"
                            % (out, lines))
        with pytest.raises(SystemExit) as err:
            C.main(["run", "--config", str(cfg_path)])
        assert err.value.code == 2
        assert "line %d: %s" % (line, message) in capsys.readouterr().err
        assert not out.exists()


class TestResultsReaders:
    def test_runs_and_paired_follow_seed_ids(self):
        results = H.ExperimentResults()
        for name, seeds in (("a", (3, 1, 2)), ("b", (2, 4, 3))):
            for seed in seeds:
                results[name, seed] = SimpleNamespace(seed=seed)
        assert [r.seed for r in results.runs("a")] == [3, 1, 2]
        assert results.paired("a", "b", value=lambda r: r.seed) == [
            [3, 2], [3, 2]]
        assert results.paired("b", "a", value=lambda r: r.seed) == [
            [2, 3], [2, 3]]


def diverge_on(monkeypatch, failing):
    """Make the (method, seed) runs in ``failing`` diverge at step 1."""
    real_run = O.run

    def run(problem, config, T, seed, **kwargs):
        if (config.method, seed) in failing:
            raise O.DivergenceError(1)
        return real_run(problem, config, T, seed, **kwargs)
    monkeypatch.setattr(O, "run", run)


SMALL_SWEEP = dict(n=20, d=3, T=30)
SMALL_MATCHING = dict(n_train=60, n_eval=40, d=5, T=40, metric_tick=10)


def read_rows(path):
    """Rows after the header of a CSV, each split into its cells."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# the centroid config of the stale-output repro; a rerun changes its seeds
# or drops its sgd section
OWNED_CONFIG = """
kind = centroid
n = 20
d = 2
T = 20
metric_tick = 5
seeds = {seeds}
output_dir = {out}
[optimizer.sgd]
method = sgd
batch_size = 2
[optimizer.dasgrad]
method = dasgrad
batch_size = 2
"""
SGD_SECTION = "[optimizer.sgd]\nmethod = sgd\nbatch_size = 2\n"


def plant(out, *names):
    """Leave a file of each name in ``out``; returns the names."""
    for name in names:
        (out / name).write_text("kept\n")
    return list(names)


def assert_only(out, written, planted):
    """``out`` holds exactly the files ``written`` and ``planted``, and the
    planted ones are untouched."""
    assert sorted(os.listdir(out)) == sorted(written + planted)
    assert all((out / name).read_text() == "kept\n" for name in planted)


class TestOutputOwnership:
    """A rerun into the same directory removes every file whose name has
    the form of one of its protocol's outputs, whatever seeds, arms or
    sigmas the earlier call ran, and no other file."""

    def run(self, out, seeds, drop_sgd=False):
        text = OWNED_CONFIG.format(out=out, seeds=seeds)
        H.run_experiment(H.parse_config_text(
            text.replace(SGD_SECTION, "") if drop_sgd else text))

    def test_run_with_fewer_seeds(self, tmp_path):
        out = tmp_path / "o"
        self.run(out, "0,1,2")
        planted = plant(out, "notes.csv", "sweep_aggregate_sigma1.csv",
                        "matching_trace_amsgrad_uniform_2.csv")
        self.run(out, "0,1")
        assert_only(out, ["aggregate_dasgrad.csv", "aggregate_sgd.csv",
                          "comparison.csv", "metadata.txt"]
                    + ["trace_%s_%d.csv" % (name, s)
                       for name in ("dasgrad", "sgd") for s in (0, 1)],
                    planted)

    def test_run_without_an_optimizer_section(self, tmp_path):
        out = tmp_path / "o"
        self.run(out, "0,1,2")
        planted = plant(out, "notes.csv", "sweep_summary.csv",
                        "matching_summary.csv")
        self.run(out, "0,1,2", drop_sgd=True)
        assert_only(out, ["aggregate_dasgrad.csv", "metadata.txt"]
                    + ["trace_dasgrad_%d.csv" % s for s in (0, 1, 2)],
                    planted)

    def test_sweep_with_fewer_sigmas(self, tmp_path):
        out = tmp_path / "sweep"
        H.sweep_variance([0.5, 2.0], range(2), str(out), **SMALL_SWEEP)
        planted = plant(out, "notes.csv", "metadata.txt", "trace_sgd_2.csv",
                        "aggregate_sgd.csv", "comparison.csv",
                        "matching_trace_amsgrad_uniform_2.csv")
        H.sweep_variance([0.5], range(2), str(out), **SMALL_SWEEP)
        assert_only(out, ["sweep_aggregate_sigma0p5.csv",
                          "sweep_summary.csv"], planted)

    def test_matching_with_fewer_seeds(self, tmp_path):
        out = tmp_path / "match"
        H.matching_experiment(range(3), str(out), **SMALL_MATCHING)
        planted = plant(out, "notes.csv", "metadata.txt", "trace_sgd_2.csv",
                        "aggregate_sgd.csv", "sweep_aggregate_sigma1.csv")
        H.matching_experiment(range(2), str(out), **SMALL_MATCHING)
        assert_only(out, ["matching_summary.csv"]
                    + ["matching_trace_%s_%d.csv" % (arm, s)
                       for arm in ("amsgrad_uniform", "dasgrad_target")
                       for s in (0, 1)], planted)

    @pytest.mark.parametrize("argv, name", [
        (["run", "--config", "{cfg}"], "trace_sgd_1.csv"),
        (["run", "--config", "{cfg}"], "aggregate_dasgrad.csv"),
        (["run", "--config", "{cfg}"], "metadata.txt"),
        # names of the call's forms that it would not write
        (["run", "--config", "{cfg}"], "trace_sgd_7.csv"),
        (["run", "--config", "{cfg}"], "aggregate_gone.csv"),
        (["sweep-variance", "--sigmas", "0.5,2", "--seeds", "2", "--n", "20",
          "--out", "{out}"], "sweep_aggregate_sigma2.csv"),
        (["sweep-variance", "--sigmas", "0.5,2", "--seeds", "2", "--n", "20",
          "--out", "{out}"], "sweep_summary.csv"),
        (["matching", "--seeds", "2", "--out", "{out}"], "failures.csv"),
        (["matching", "--seeds", "2", "--out", "{out}"],
         "matching_trace_amsgrad_uniform_1.csv"),
        (["matching", "--seeds", "2", "--out", "{out}"],
         "matching_summary.csv"),
    ])
    def test_a_directory_at_an_output_name_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, argv, name):
        monkeypatch.setattr(O, "run", None)
        monkeypatch.setattr(M, "solve_reference", None)
        out, cfg = tmp_path / "o", tmp_path / "c.cfg"
        cfg.write_text(OWNED_CONFIG.format(out=out, seeds="0,1"))
        out.mkdir()
        (out / name).mkdir()
        # files the call would remove or overwrite
        planted = plant(out, *{"failures.csv", "trace_sgd_5.csv",
                               "sweep_summary.csv",
                               "matching_summary.csv"} - {name})
        with pytest.raises(SystemExit) as err:
            C.main([arg.format(cfg=cfg, out=out) for arg in argv])
        assert err.value.code == 2
        assert "output %s is a directory" % (out / name) \
            in capsys.readouterr().err
        assert_only(out, [name], planted)

    @pytest.mark.parametrize("protocol", ["run", "sweep", "matching"])
    def test_a_call_that_dies_leaves_no_earlier_output(self, tmp_path,
                                                       monkeypatch, protocol):
        out = tmp_path / "o"
        call_four_seeds(protocol, out)
        planted = plant(out, "notes.csv")

        def die(attempt, count):
            raise RuntimeError("died")
        monkeypatch.setattr(SH, "_share_runs", die)
        with pytest.raises(RuntimeError, match="died"):
            call_four_seeds(protocol, out)
        assert_only(out, [], planted)


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


    def test_sweep_survives_a_diverging_seed(self, tmp_path, monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 1)})
        out = tmp_path / "sweep"
        sigmas = (0.5, 2.0)
        results = H.sweep_variance(sigmas, range(3), str(out), **SMALL_SWEEP)
        failed = [("dasgrad_sigma0p5", 1), ("dasgrad_sigma2", 1)]
        assert [f[:2] for f in results.failures] == failed
        assert [(name, int(seed)) for name, seed, _, _ in
                read_rows(out / "failures.csv")] == failed
        assert results.skipped == []
        summary = read_rows(out / "sweep_summary.csv")
        for sigma, tag, row in zip(sigmas, ("0p5", "2"), summary):
            assert [r.seed for r in results[sigma]["amsgrad"]] == [0, 1, 2]
            assert [r.seed for r in results[sigma]["dasgrad"]] == [0, 2]
            problem = D.make_problem(D.synth_centroid(
                20, 3, sigma, H.SWEEP_DEFAULTS["data_seed"]), P.CENTROID)
            f_star = M.solve_reference(problem).f_star
            final = {m: [np.cumsum(r.loss - f_star)[-1]
                         for r in results[sigma][m] if r.seed in (0, 2)]
                     for m in ("amsgrad", "dasgrad")}
            gap = M.paired_ci(final["amsgrad"], final["dasgrad"])
            assert [float(v) for v in row[3:]] == list(gap)
            aggregate = read_rows(out / ("sweep_aggregate_sigma%s.csv" % tag))
            assert {r[-1] for r in aggregate} == {"2"}
        # a clean rerun into the same directory leaves no failures.csv
        monkeypatch.undo()
        assert not H.sweep_variance(sigmas, range(3), str(out),
                                    **SMALL_SWEEP).failures
        assert not (out / "failures.csv").exists()

    def test_sweep_reports_an_overflowing_regret_sum(self, tmp_path):
        # REGRET_OVERFLOW_CONFIG's point, in a sweep
        out = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = H.sweep_variance([6e154], range(2), str(out), n=1,
                                       d=1, T=20, metric_tick=5,
                                       batch_size=2, data_seed=0)
        assert results.failures == [
            ("%s_sigma6e+154" % m, s, 20, "nonfinite regret at step 20")
            for m in ("amsgrad", "dasgrad") for s in (0, 1)]
        assert results[6e154] == {"amsgrad": [], "dasgrad": []}
        assert results.skipped == ["sweep_aggregate_sigma6e+154.csv"]
        assert sorted(os.listdir(out)) == ["failures.csv",
                                           "sweep_summary.csv"]

    def test_matching_reports_an_overflowing_regret_sum(self, tmp_path,
                                                        monkeypatch):
        # f_star = -1e308 makes each tick's regret about 1e308, so the sum
        # of the first two ticks (steps 10 and 20) overflows; whichever
        # process solves does so with this patch
        solve = M.solve_reference
        monkeypatch.setattr(M, "solve_reference", lambda *args: (
            dataclasses.replace(solve(*args), f_star=-1e308)))
        out = tmp_path / "match"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results, gap = H.matching_experiment(range(2), str(out),
                                                 **SMALL_MATCHING)
        assert results.failures == [
            (arm, s, 20, "nonfinite regret at step 20")
            for arm in ("dasgrad_target", "amsgrad_uniform") for s in (0, 1)]
        assert gap is None
        assert sorted(os.listdir(out)) == ["failures.csv",
                                           "matching_summary.csv"]

    def test_sweep_rerun_removes_the_aggregates_it_skips(self, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "sweep"
        H.sweep_variance([0.5, 2.0], range(3), str(out), **SMALL_SWEEP)
        diverge_on(monkeypatch, {("dasgrad", 0), ("dasgrad", 1)})
        results = H.sweep_variance([0.5, 2.0], range(3), str(out),
                                   **SMALL_SWEEP)
        assert results.skipped == ["sweep_aggregate_sigma0p5.csv",
                                   "sweep_aggregate_sigma2.csv"]
        assert sorted(os.listdir(out)) == ["failures.csv",
                                           "sweep_summary.csv"]

    def test_sweep_skips_a_sigma_with_one_paired_seed(self, tmp_path,
                                                      monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 0), ("dasgrad", 1)})
        out = tmp_path / "sweep"
        results = H.sweep_variance([1.0], range(3), str(out), **SMALL_SWEEP)
        assert results.skipped == ["sweep_aggregate_sigma1.csv"]
        assert not (out / "sweep_aggregate_sigma1.csv").exists()
        assert read_rows(out / "sweep_summary.csv") == []
        assert len(results[1.0]["amsgrad"]) == 3

    def test_matching_survives_a_diverging_seed(self, tmp_path, monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 1)})
        out = tmp_path / "match"
        results, gap = H.matching_experiment(range(3), str(out),
                                             **SMALL_MATCHING)
        assert [f[:2] for f in results.failures] == [("dasgrad_target", 1)]
        assert [r[:2] for r in read_rows(out / "failures.csv")] == [
            ["dasgrad_target", "1"]]
        assert not (out / "matching_trace_dasgrad_target_1.csv").exists()
        assert (out / "matching_trace_amsgrad_uniform_1.csv").exists()
        assert [r.seed for r in results["dasgrad_target"]] == [0, 2]
        final = {(arm, s): read_trace(
            out / ("matching_trace_%s_%d.csv" % (arm, s)))["accuracy"][-1]
            for arm in ("dasgrad_target", "amsgrad_uniform") for s in (0, 2)}
        expected = M.paired_ci([final["dasgrad_target", s] for s in (0, 2)],
                               [final["amsgrad_uniform", s] for s in (0, 2)])
        assert gap == expected
        summary = dict(read_rows(out / "matching_summary.csv"))
        assert float(summary["accuracy_gap_mean"]) == expected[0]
        assert float(summary["accuracy_gap_paired_hi"]) == expected[2]

    def test_matching_rerun_removes_the_traces_it_leaves_unwritten(
            self, tmp_path, monkeypatch):
        out = tmp_path / "match"
        H.matching_experiment(range(3), str(out), **SMALL_MATCHING)
        diverge_on(monkeypatch, {("dasgrad", 1)})
        H.matching_experiment(range(3), str(out), **SMALL_MATCHING)
        traces = sorted(f for f in os.listdir(out)
                        if f.startswith("matching_trace_"))
        assert traces == [
            "matching_trace_amsgrad_uniform_%d.csv" % s for s in range(3)] \
            + ["matching_trace_dasgrad_target_%d.csv" % s for s in (0, 2)]

    def test_matching_with_one_paired_seed_skips_the_gap(self, tmp_path,
                                                         monkeypatch):
        diverge_on(monkeypatch, {("dasgrad", 0), ("dasgrad", 1)})
        out = tmp_path / "match"
        results, gap = H.matching_experiment(range(3), str(out),
                                             **SMALL_MATCHING)
        assert gap is None
        assert results.skipped == ["matching_summary.csv accuracy_gap rows"]
        assert [r[0] for r in read_rows(out / "matching_summary.csv")] == [
            "amsgrad_uniform", "dasgrad_target"]

    def test_sweep_rejects_one_seed_before_any_run(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match="two seeds"):
            H.sweep_variance([1.0], seeds=range(1), output_dir=str(out),
                             n=10, d=2, T=5)
        assert not out.exists()

    def test_matching_rejects_one_seed_before_any_run(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "match"
        with pytest.raises(ValueError, match="two seeds"):
            H.matching_experiment(seeds=[3], output_dir=str(out),
                                  n_train=60, n_eval=40, d=5, T=5)
        assert not out.exists()

    def test_matching_rejects_target_mass_on_a_class_with_no_row(
            self, tmp_path, monkeypatch):
        # keep_fraction 0.0005 drops every training row of classes 1 and 3,
        # which the balanced target still weighs
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "match"
        with pytest.raises(ValueError, match="no training row: 1, 3$"):
            H.matching_experiment(seeds=range(2), output_dir=str(out),
                                  n_train=200, n_eval=80, d=5, T=40,
                                  metric_tick=10, keep_fraction=0.0005)
        assert not out.exists()


def call_protocol(protocol, out):
    """One small run_experiment or matching_experiment call into ``out``."""
    if protocol == "run":
        return H.run_experiment(H.parse_config_text(TINY_CONFIG.format(
            out=out)))
    return H.matching_experiment(range(2), str(out), **SMALL_MATCHING)


def call_four_seeds(protocol, out):
    """One small run_experiment, sweep_variance or matching_experiment call
    into ``out`` over seeds 0-3; each method's seeds are the tasks of one
    arm, or of one arm per sigma."""
    if protocol == "run":
        return H.run_experiment(H.parse_config_text(TINY_CONFIG.replace(
            "seeds = 0,1,2", "seeds = 0,1,2,3").format(out=out)))
    if protocol == "sweep":
        return H.sweep_variance((0.5, 2.0), range(4), str(out), **SMALL_SWEEP)
    return H.matching_experiment(range(4), str(out), **SMALL_MATCHING)


# (arm, seed) tasks of one call_four_seeds call
FOUR_SEED_TASKS = {"run": 8, "sweep": 16, "matching": 8}


def serial_run_arms(arms, seeds, T, metric_tick, out, own, trace=None,
                    eval_set=None, tol=M.REFERENCE_TOL,
                    max_iters=M.REFERENCE_MAX_ITERS):
    """_run_arms in one process, into a fresh ``out``: one reference solve
    per distinct problem, every (arm, seed) through O.run in order, the
    regret check and the traces."""
    os.makedirs(out)
    solved = {}
    for problem, _ in arms.values():
        if id(problem) not in solved:
            solved[id(problem)] = M.solve_reference(problem, tol, max_iters)
    results = H.ExperimentResults()
    results.reference = {name: solved[id(problem)]
                         for name, (problem, _) in arms.items()}
    for name, (problem, config) in arms.items():
        for seed in seeds:
            try:
                results[name, seed] = O.run(problem, config, T, seed,
                                            metric_tick=metric_tick,
                                            eval_set=eval_set)
            except O.DivergenceError as exc:
                results.failures.append((name, seed, exc.step, str(exc)))
    for (name, seed), run in list(results.items()):
        f_star = results.reference[name].f_star
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.cumsum(run.loss - f_star)
        finite = np.isfinite(cum)
        if finite.all():
            results.cum_regret[name, seed] = cum
        else:
            step = int(run.ticks[finite.argmin()])
            del results[name, seed]
            results.failures.append(
                (name, seed, step, "nonfinite regret at step %d" % step))
    if results.failures:
        H._write_csv(os.path.join(out, "failures.csv"),
                     ["optimizer", "seed", "step", "message"],
                     results.failures)
    for (name, seed), run in results.items() if trace else ():
        H.write_trace_csv(os.path.join(out, trace % (name, seed)), run,
                          results.reference[name].f_star,
                          results.cum_regret[name, seed])
    return results


def result_order(results):
    """The keys and run seeds of a protocol's results, in their order, and
    its failures."""
    if isinstance(results, tuple):
        results = results[0]

    def seeds(value):
        if isinstance(value, O.RunResult):
            return value.seed
        if isinstance(value, dict):
            return [(key, seeds(v)) for key, v in value.items()]
        return [seeds(v) for v in value]
    return seeds(results), results.failures


def run_from_this_process_only(monkeypatch, helper_run, delay):
    """Make the forked helper call ``helper_run`` in place of each O.run,
    and the parent sleep ``delay`` seconds before each, so that the helper
    takes a task; returns the list of the parent's O.run calls' seeds."""
    parent, real_run, parent_seeds = os.getpid(), O.run, []

    def run(*args, **kwargs):
        if os.getpid() != parent:
            helper_run()
        parent_seeds.append(args[3])
        time.sleep(delay)
        return real_run(*args, **kwargs)
    monkeypatch.setattr(O, "run", run)
    return parent_seeds


def helper_makes_the_solves(monkeypatch, log, helper_solve=None):
    """Make each solve_reference call append its process id to ``log`` and
    then, in any process but this one, call ``helper_solve`` when given;
    and make each O.run of this process wait, for 30 s at most, until
    ``log`` exists. This process takes the solves only after every run, so
    the forked helper makes the first solve while this process waits."""
    parent, solve, real_run = os.getpid(), M.solve_reference, O.run

    def logged_solve(*args):
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        if helper_solve is not None and os.getpid() != parent:
            return helper_solve(*args)
        return solve(*args)

    def run(*args, **kwargs):
        deadline = time.monotonic() + 30
        while os.getpid() == parent and not log.exists() \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        return real_run(*args, **kwargs)
    monkeypatch.setattr(M, "solve_reference", logged_solve)
    monkeypatch.setattr(O, "run", run)


class TestReferenceHelper:
    @pytest.mark.parametrize("make", [
        lambda: D.make_problem(D.synth_classification(
            60, 5, 3, margin=2.0, seed=1), P.MULTICLASS_LOGISTIC, 1e-3),
        lambda: D.make_problem(D.synth_classification(
            80, 6, 2, margin=2.0, sparsity=0.5, seed=2),
            P.BINARY_LOGISTIC, 1e-3),
        lambda: D.make_problem(D.synth_centroid(30, 4, 1.0, 3), P.CENTROID),
    ], ids=["dense-multiclass", "csr-binary", "centroid"])
    def test_solution_bit_equals_an_in_process_solve(self, tmp_path,
                                                     monkeypatch, make):
        problem = make()
        want = M.solve_reference(problem, 1e-6, 300)
        log = tmp_path / "solves"
        helper_makes_the_solves(monkeypatch, log)
        results = H._run_arms({"sgd": (problem, H.convex_preset("sgd"))},
                              range(2), 1, 1, str(tmp_path / "out"), "none",
                              tol=1e-6, max_iters=300)
        solvers = log.read_text().split()
        assert len(solvers) == 1 and solvers[0] != str(os.getpid())
        got = results.reference["sgd"]
        assert got.theta_star.tobytes() == want.theta_star.tobytes()
        assert (got.f_star, got.grad_norm_at_star, got.solver_iterations,
                got.converged) == (want.f_star, want.grad_norm_at_star,
                                   want.solver_iterations, want.converged)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol", ["run", "sweep", "matching"])
    def test_shared_runs_give_a_serial_loops_bytes(self, tmp_path,
                                                   monkeypatch, protocol):
        # the first and the last (arm, seed) task diverge, and so does
        # every task of their (method, seed) in the other arms
        first, last = {"run": ("amsgrad", "dasgrad"),
                       "sweep": ("amsgrad", "dasgrad"),
                       "matching": ("dasgrad", "amsgrad")}[protocol]
        diverge_on(monkeypatch, {(first, 0), (last, 3)})
        pids = tmp_path / "pids"
        real_run = O.run

        def run(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write("%d\n" % os.getpid())
            time.sleep(0.1)     # so that both processes take tasks
            return real_run(*args, **kwargs)
        monkeypatch.setattr(O, "run", run)
        shared = call_four_seeds(protocol, tmp_path / "shared")
        ran = pids.read_text().split()
        assert len(ran) == FOUR_SEED_TASKS[protocol]
        assert set(ran) - {str(os.getpid())} != set()
        monkeypatch.setattr(O, "run", real_run)
        monkeypatch.setattr(H, "_run_arms", serial_run_arms)
        serial = call_four_seeds(protocol, tmp_path / "serial")

        assert result_order(shared) == result_order(serial)
        names = sorted(os.listdir(tmp_path / "serial"))
        assert sorted(os.listdir(tmp_path / "shared")) == names
        assert "failures.csv" in names
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "shared", tmp_path / "serial", names, shallow=False)
        assert (mismatch, errors) == ([], [])
        failed = [row[:2] for row in read_rows(tmp_path / "shared"
                                               / "failures.csv")]
        assert failed[0][1] == "0" and failed[-1][1] == "3"
        assert multiprocessing.active_children() == []

    def test_every_task_runs_once_across_both_processes(self, tmp_path,
                                                        monkeypatch):
        log = tmp_path / "log"
        solve = M.solve_reference

        def logged_solve(problem, tol, max_iters):
            with open(log, "a") as fh:
                fh.write("%d solve %d\n" % (os.getpid(), problem.n))
            return solve(problem, tol, max_iters)

        def run(problem, config, T, seed, **kwargs):
            with open(log, "a") as fh:
                fh.write("%d %s %d\n" % (os.getpid(), config.method, seed))
            time.sleep(0.001)
            return O.RunResult(ticks=np.array([1]), loss=np.array([1.0]),
                               accuracy=None, grad_norm_var=np.array([0.0]),
                               theta=np.zeros(2), seed=seed)
        monkeypatch.setattr(M, "solve_reference", logged_solve)
        monkeypatch.setattr(O, "run", run)
        # one problem of 4 rows for two arms, one of 5 rows for the third
        four, five = (D.make_problem(D.synth_centroid(n, 2, 1.0, 0),
                                     P.CENTROID) for n in (4, 5))
        arms = {m: (problem, O.OptimizerConfig(method=m)) for m, problem
                in (("sgd", four), ("adam", five), ("amsgrad", four))}
        results = H._run_arms(arms, range(200), 1, 1, str(tmp_path / "out"),
                              "none")
        tasks = [(m, s) for m in arms for s in range(200)]
        assert list(results) == tasks
        assert [run.seed for run in results.values()] == list(range(200)) * 3
        assert {m: ref.f_star for m, ref in results.reference.items()} == {
            m: solve(problem).f_star for m, (problem, _) in arms.items()}
        lines = [line.split() for line in log.read_text().splitlines()]
        assert sorted((m, int(s)) for _, m, s in lines) == sorted(
            tasks + [("solve", 4), ("solve", 5)])
        assert len({pid for pid, _, _ in lines}) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol", ["run", "sweep", "matching"])
    def test_helper_run_error_is_raised_and_stops_the_parent(
            self, tmp_path, monkeypatch, protocol):
        def helper_run():
            raise KeyError("not a divergence")
        parent_seeds = run_from_this_process_only(monkeypatch, helper_run,
                                                  0.3)
        with pytest.raises(KeyError, match="not a divergence"):
            call_four_seeds(protocol, tmp_path / "out")
        # the helper closed the range, so the parent stopped after the run
        # it was in, not after every task the helper did not take
        assert len(parent_seeds) < FOUR_SEED_TASKS[protocol] // 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol", ["run", "sweep", "matching"])
    def test_helper_exit_during_a_run_names_its_code(
            self, tmp_path, monkeypatch, protocol):
        parent_seeds = run_from_this_process_only(
            monkeypatch, lambda: os._exit(4), 0.05)
        with pytest.raises(SH.HelperExitError, match="exited with code 4"):
            call_four_seeds(protocol, tmp_path / "out")
        # the parent ran every task but the one the helper died in
        assert len(parent_seeds) == FOUR_SEED_TASKS[protocol] - 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol, solves", [
        ("run", 1), ("sweep", 2), ("matching", 1)])
    def test_a_call_solves_each_distinct_problem_once(
            self, tmp_path, monkeypatch, protocol, solves):
        log = tmp_path / "solves"
        helper_makes_the_solves(monkeypatch, log)
        call_four_seeds(protocol, tmp_path / "out")
        assert len(log.read_text().split()) == solves

    @pytest.mark.parametrize("protocol", ["run", "matching"])
    def test_run_error_propagates_and_stops_the_helper(
            self, tmp_path, monkeypatch, protocol):
        # the parent's first task is a run, so only the helper can sleep
        parent, solve = os.getpid(), M.solve_reference
        monkeypatch.setattr(M, "solve_reference", lambda *args: (
            os.getpid() != parent and time.sleep(60), solve(*args))[1])

        def run(*args, **kwargs):
            raise KeyError("not a divergence")
        monkeypatch.setattr(O, "run", run)
        start = time.perf_counter()
        with pytest.raises(KeyError, match="not a divergence"):
            call_protocol(protocol, tmp_path / "out")
        # the sleeping helper was terminated, not waited for
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol", ["run", "matching"])
    def test_helper_exit_without_a_result_names_its_code(
            self, tmp_path, monkeypatch, protocol):
        log = tmp_path / "solves"
        helper_makes_the_solves(monkeypatch, log,
                                helper_solve=lambda *args: os._exit(3))
        with pytest.raises(SH.HelperExitError, match="exited with code 3"):
            call_protocol(protocol, tmp_path / "out")
        assert str(os.getpid()) not in log.read_text().split()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("protocol", ["run", "matching"])
    def test_solve_error_is_raised_in_the_parent(self, tmp_path, monkeypatch,
                                                 protocol):
        def solve(*args):
            raise ValueError("no reference here")
        monkeypatch.setattr(M, "solve_reference", solve)
        with pytest.raises(ValueError, match="no reference here"):
            call_protocol(protocol, tmp_path / "out")
        assert multiprocessing.active_children() == []


class TestSelfCheckAndCli:
    def test_self_check_passes(self, capsys):
        assert H.self_check(verbose=True)
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in printed] == [
            "PASS gradient/centroid", "PASS gradient/binary-logistic",
            "PASS gradient/multiclass-logistic",
            "PASS sampler law", "PASS unbiasedness identity",
            "PASS weighted-second-moment minimum identity", "self-check OK"]

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
        # and failures.csv describes only the latest call
        assert not (out / "failures.csv").exists()

    def test_cli_run_reports_overflowing_scores_as_divergence(self,
                                                              tmp_path):
        out = tmp_path / "scores"
        cfg_path = tmp_path / "scores.cfg"
        cfg_path.write_text(SCORE_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert [(r[0], r[1], r[3]) for r in read_rows(out / "failures.csv")] \
            == [("ap", seed, "nonfinite scores at step 69")
                for seed in ("0", "1")]

    def test_cli_run_reports_an_overflowing_loss_as_divergence(self,
                                                              tmp_path):
        out = tmp_path / "loss"
        cfg_path = tmp_path / "loss.cfg"
        cfg_path.write_text(LOSS_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert [r[:4] for r in read_rows(out / "failures.csv")] == [
            [method, seed, "5", "nonfinite loss at step 5"]
            for method in ("amsgrad", "sgd") for seed in ("0", "1")]

    def test_cli_run_reports_an_overflowing_batch_mean_as_divergence(
            self, tmp_path):
        out = tmp_path / "mean"
        cfg_path = tmp_path / "mean.cfg"
        cfg_path.write_text(BATCH_MEAN_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert [r[:3] for r in read_rows(out / "failures.csv")] == [
            ["sgd", "0", "3"], ["sgd", "1", "2"], ["sgd", "2", "2"]]

    def test_cli_run_keeps_overflowing_bands_finite(self, tmp_path):
        out = tmp_path / "bands"
        cfg_path = tmp_path / "bands.cfg"
        cfg_path.write_text(BAND_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 0
        written = sorted(out.glob("*.csv"))
        assert {p.name for p in written} >= {
            "aggregate_ap.csv", "aggregate_dasgrad.csv", "comparison.csv"}
        for path in written:
            assert "inf" not in path.read_text(), path.name
        # the loss really is past the square's overflow point
        assert max(float(r[1]) for r in read_rows(
            out / "trace_ap_0.csv")) > 1e200

    def test_cli_run_keeps_overflowing_means_finite(self, tmp_path):
        out = tmp_path / "means"
        cfg_path = tmp_path / "means.cfg"
        cfg_path.write_text(MEAN_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 0
        written = sorted(out.glob("*.csv"))
        assert {p.name for p in written} >= {
            "aggregate_sgd.csv", "aggregate_dasgrad.csv", "comparison.csv"}
        for path in written:
            assert all(math.isfinite(float(v)) for row in read_rows(path)
                       for v in row if v and v[0] not in "sd"), path.name
        assert float(read_rows(out / "aggregate_sgd.csv")[0][1]) > 7e307

    def test_cli_run_reports_an_overflowing_regret_sum(self, tmp_path):
        out = tmp_path / "regret"
        cfg_path = tmp_path / "regret.cfg"
        cfg_path.write_text(REGRET_OVERFLOW_CONFIG.format(out=out))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert read_rows(out / "failures.csv") == [
            [m, s, "20", "nonfinite regret at step 20"]
            for m in ("dasgrad", "sgd") for s in ("0", "1")]
        assert not list(out.glob("trace_*.csv"))

    def test_cli_run_section_without_method_runs_its_named_method(
            self, tmp_path):
        out = tmp_path / "named"
        cfg_path = tmp_path / "named.cfg"
        cfg_path.write_text(OWNED_CONFIG.format(out=out, seeds="0,1").replace(
            "method = dasgrad\n", ""))
        assert C.main(["run", "--config", str(cfg_path)]) == 0
        assert ((out / "trace_dasgrad_0.csv").read_bytes()
                != (out / "trace_sgd_0.csv").read_bytes())
        gains = [float(r[2]) for r in read_rows(out / "comparison.csv")]
        assert any(g != 0.0 for g in gains)

    @pytest.mark.parametrize("command", [
        ["sweep-variance", "--sigmas", "1", "--n", "10", "--d", "2"],
        ["matching"]])
    def test_cli_protocol_with_one_seed_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(O, "run", None)
        out = tmp_path / "one"
        with pytest.raises(SystemExit) as err:
            C.main(command + ["--seeds", "1", "--T", "5", "--out", str(out)])
        assert err.value.code == 2
        assert "two seeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, failed", [
        (["sweep-variance", "--sigmas", "1", "--n", "10", "--d", "2",
          "--T", "20"], "dasgrad_sigma1/1"),
        (["matching", "--T", "20"], "dasgrad_target/1")])
    def test_cli_protocol_exits_one_naming_the_failed_run(
            self, tmp_path, capsys, monkeypatch, command, failed):
        diverge_on(monkeypatch, {("dasgrad", 1)})
        out = tmp_path / "div"
        assert C.main(command + ["--seeds", "3", "--out", str(out)]) == 1
        assert failed in capsys.readouterr().err
        assert (out / "failures.csv").exists()

    def test_cli_run_one_seed_names_skipped_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "one").replace(
            "seeds = 0,1,2", "seeds = 0"))
        assert C.main(["run", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        for name in ("aggregate_amsgrad.csv", "aggregate_dasgrad.csv",
                     "comparison.csv"):
            assert name in err
        assert (tmp_path / "one" / "trace_dasgrad_0.csv").exists()

    @pytest.mark.parametrize("command", ["run", "matching"])
    def test_cli_notes_an_unconverged_reference_solve(
            self, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "unc"
        if command == "run":
            cfg_path = tmp_path / "unc.cfg"
            cfg_path.write_text(UNCONVERGED_CONFIG.format(out=out))
            argv = ["run", "--config", str(cfg_path)]
            note = "after 1 iteration(s): ||grad F|| = 0.247 > tol 1e-06;"
        else:
            solve = M.solve_reference
            monkeypatch.setattr(M, "solve_reference", lambda *args: (
                dataclasses.replace(solve(*args), converged=False)))
            argv = ["matching", "--seeds", "2", "--T", "40", "--out", str(out)]
            note = "> tol 1e-06;"
        assert C.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("results written to %s\n" % out)
        [line] = captured.err.splitlines()
        assert line.startswith("reference solve unconverged ")
        assert note in line
        assert line.endswith("regret is taken against its f*")
        if command == "run":
            assert "reference_converged = false" in (
                out / "metadata.txt").read_text().splitlines()

    def test_cli_reports_a_dead_helper_in_one_line(self, tmp_path, capsys,
                                                   monkeypatch):
        run_from_this_process_only(monkeypatch, lambda: os._exit(9), 0.05)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "out"))
        assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == ("", "dasgrad: error: the forked helper "
                                       "exited with code 9 and sent no "
                                       "result\n")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k, name", [(1, "trace_dasgrad_0.csv"),
                                         (8, "metadata.txt")])
    def test_cli_reports_a_failed_output_write_in_one_line(
            self, tmp_path, capsys, monkeypatch, k, name):
        writes = []

        def failing_open(path, mode="r", **kwargs):
            if "w" in mode:
                writes.append(path)
                if len(writes) == k:
                    raise OSError("disk full")
            return open(path, mode, **kwargs)
        monkeypatch.setattr(H, "open", failing_open, raising=False)
        out, cfg_path = tmp_path / "o", tmp_path / "c.cfg"
        cfg_path.write_text(OWNED_CONFIG.format(out=out, seeds="0,1"))
        assert C.main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr() == (
            "", "dasgrad: error: cannot write %s: disk full\n" % (out / name))
        assert len(writes) == k

    def test_cli_run_and_sweep(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY_CONFIG.format(out=tmp_path / "cli_out"))
        assert C.main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cli_out" / "comparison.csv").exists()
        assert C.main(["sweep-variance", "--sigmas", "1", "--seeds", "2",
                       "--out", str(tmp_path / "cli_sweep"),
                       "--n", "10", "--d", "2", "--T", "20"]) == 0
        assert (tmp_path / "cli_sweep" / "sweep_summary.csv").exists()

"""Property tests over random experiment configs.

Run through ``cli.main``, every kind and method, steps from tame to far
past overflow, random refresh periods, batch sizes and boxes: a run either
completes with a finite trace or is reported in failures.csv, the exit
code says which, no numpy warning escapes, and a rerun writes the same
bytes. Parsed only, a config with one value out of range or unparsable is
rejected on that value's line.
"""

import filecmp
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dasgrad import cli as C
from dasgrad import config as CF
from dasgrad import problems as P

_box = st.one_of(
    st.just("-inf,inf"),
    st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2).map(
        lambda b: "%r,%r" % tuple(sorted(b))))


@st.composite
def configs(draw):
    """Config text with an ``{out}`` placeholder for the output dir."""
    kind = draw(st.sampled_from(P.KINDS))
    T = draw(st.integers(1, 60))
    classes = draw(st.integers(2, 4)) if kind == P.MULTICLASS_LOGISTIC else 2
    lines = ["kind = %s" % kind, "n = %d" % draw(st.integers(4, 30)),
             "d = %d" % draw(st.integers(1, 5)), "classes = %d" % classes,
             "data_seed = %d" % draw(st.integers(0, 1000)),
             # drawn for every kind, so the example stream stays the same;
             # a centroid config writes 0 (no centroid loss reads lambda)
             "lambda = %r" % (draw(st.sampled_from([0.0, 1e-3]))
                              * (kind != P.CENTROID)),
             "T = %d" % T, "metric_tick = %d" % draw(st.integers(1, T)),
             "seeds = %s" % draw(st.sampled_from(["0", "0,1", "2,0,1"])),
             "reference_max_iters = 20", "output_dir = {out}"]
    for method in draw(st.lists(st.sampled_from(CF.METHODS), min_size=1,
                                max_size=2, unique=True)):
        lines += ["[optimizer.%s]" % method, "method = %s" % method,
                  "alpha = %r" % 10.0 ** draw(st.floats(-3.0, 300.0)),
                  "refresh_period = %d" % draw(st.integers(1, 12)),
                  "batch_size = %d" % draw(st.integers(1, 6)),
                  "box = %s" % draw(_box)]
    return "\n".join(lines) + "\n"


def _run(text, root, name):
    out = os.path.join(root, name)
    cfg = os.path.join(root, name + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(text.format(out=out))
    return C.main(["run", "--config", cfg]), out


# sgd's L2 term multiplies theta by about -alpha * lambda a step, so the
# batch margins overflow in X @ W.T a step before theta does
_MARGIN_OVERFLOW = """kind = multiclass-logistic
n = 4
d = 1
classes = 3
data_seed = 1
lambda = 0.001
T = 15
metric_tick = 15
seeds = 0
reference_max_iters = 20
output_dir = {out}
[optimizer.sgd]
method = sgd
alpha = 1.154781984689458e+25
refresh_period = 1
batch_size = 1
box = -inf,inf
"""


@settings(max_examples=150, deadline=None, derandomize=True)
@given(configs())
@example(_MARGIN_OVERFLOW)
def test_every_config_exits_cleanly_and_reruns_identically(text):
    with tempfile.TemporaryDirectory() as root, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(text, root, "a")
        assert code in (0, 1)
        failures_path = os.path.join(out, "failures.csv")
        assert (code == 1) == os.path.exists(failures_path)
        failed = set()
        if code == 1:
            with open(failures_path) as fh:
                failed = {tuple(line.split(",")[:2])
                          for line in fh.read().splitlines()[1:]}
        for name, seed in failed:
            assert not os.path.exists(
                os.path.join(out, "trace_%s_%s.csv" % (name, seed)))
        for name in os.listdir(out):
            if name.startswith("trace_"):
                trace = np.genfromtxt(os.path.join(out, name),
                                      delimiter=",", names=True, ndmin=1)
                for column in trace.dtype.names:
                    if column != "accuracy" or "kind = centroid" not in text:
                        assert all(math.isfinite(v) for v in trace[column]), \
                            (name, column)

        _, again = _run(text, root, "b")
        names = sorted(os.listdir(out))
        assert sorted(os.listdir(again)) == names
        match, mismatch, errors = filecmp.cmpfiles(out, again, names,
                                                   shallow=False)
        assert not mismatch and not errors


# per config key, values that its converter or its dataclass rejects; every
# key but output_dir, whose every value names a directory
_BAD_VALUES = {
    "kind": ["foo", ""], "path": [""], "sparse": ["maybe"],
    "n": ["0", "-3"], "d": ["0"], "classes": ["1", "0"],
    "sigma": ["-1", "inf", "nan"], "margin": ["-0.5", "nan"],
    "sparsity": ["1.5", "-0.1", "nan"], "data_seed": ["-1"],
    "lambda": ["-1", "inf", "nan"], "T": ["0", "-5", "2.5"],
    "seeds": ["-1", "1,1", "0,x"], "metric_tick": ["0", "-1"],
    "reference_tol": ["0", "-1", "inf", "nan"],
    "reference_max_iters": ["0", "-1"],
    "method": ["adamw", ""], "alpha": ["0", "-1", "inf", "nan"],
    "beta1": ["1", "-0.1", "nan"], "beta2": ["1", "-0.5", "nan"],
    "epsilon_div": ["0", "inf"], "epsilon_prob": ["-1", "nan"],
    "beta1_decay": ["1.5", "-0.5", "nan"],
    "refresh_period": ["0", "-2"], "batch_size": ["0", "1.5"],
    "box": ["1,-1", "nan,0", "1"],
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(configs(), st.sampled_from(sorted(_BAD_VALUES)), st.data())
def test_an_out_of_range_value_names_its_line(text, key, data):
    assert set(_BAD_VALUES) == set(CF._PROBLEM_KEYS) \
        | set(CF._RUN_KEYS) - {"output_dir"} | set(CF._OPTIMIZER_KEYS)
    lines = text.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    if key not in CF._OPTIMIZER_KEYS:
        start, stop = 0, headers[0]
    else:
        start = data.draw(st.sampled_from(headers)) + 1
        stop = next((i for i in headers if i >= start), len(lines))
    # the key's line in its section, else a new first line there
    at = next((i for i in range(start, stop)
               if lines[i].split(" = ")[0] == key), None)
    if at is None:
        at = start
        lines.insert(at, "")
    lines[at] = "%s = %s" % (key, data.draw(st.sampled_from(_BAD_VALUES[key])))
    with pytest.raises(ValueError, match="^line %d: " % (at + 1)):
        CF.parse_config_text("\n".join(lines) + "\n")

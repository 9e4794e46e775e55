"""Property test over random experiment configs run through ``cli.main``.

Every kind and method, steps from tame to far past overflow, random
refresh periods, batch sizes and boxes: a run either completes with a
finite trace or is reported in failures.csv, the exit code says which, no
numpy warning escapes, and a rerun writes the same bytes.
"""

import filecmp
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dasgrad import cli as C
from dasgrad import optimizers as O
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
    for method in draw(st.lists(st.sampled_from(O.METHODS), min_size=1,
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

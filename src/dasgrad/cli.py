"""Command-line entry points.

Subcommands::

    dasgrad run --config experiment.cfg
    dasgrad sweep-variance --sigmas 0.1,1,10 --seeds 100 --out sweep_out
    dasgrad matching --seeds 20 --out matching_out
    dasgrad check

Exit codes: 0 success, 1 failed check or run (or a forked helper that
died), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness as _harness
from . import metrics as _metrics
from . import sharing as _sharing


def numbers(text):
    """A comma-separated list of floats (the name shows in usage errors)."""
    return [float(v) for v in text.split(",")]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dasgrad",
        description="Adaptive-sampling stochastic gradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("--config", required=True,
                       help="path to a key = value experiment config")

    # a protocol flag left unset keeps the protocol's default
    p_sweep = sub.add_parser(
        "sweep-variance", argument_default=argparse.SUPPRESS,
        help="centroid variance sweep across feature sigmas")
    p_sweep.add_argument("--sigmas", type=numbers, default="0.1,1,10",
                         help="comma-separated feature sigmas")
    p_sweep.add_argument("--seeds", type=int, default=100,
                         help="number of trajectory seeds")
    p_sweep.add_argument("--out", default="sweep_out")
    for flag, kind in (("--n", int), ("--d", int), ("--T", int),
                       ("--alpha", float), ("--batch-size", int)):
        p_sweep.add_argument(flag, type=kind)

    p_match = sub.add_parser(
        "matching", argument_default=argparse.SUPPRESS,
        help="distribution-matching run on an unbalanced synthetic problem")
    p_match.add_argument("--seeds", type=int, default=20)
    p_match.add_argument("--out", default="matching_out")
    p_match.add_argument("--T", type=int)
    p_match.add_argument("--keep-fraction", type=float)

    sub.add_parser("check", help="run the built-in self-verification suite")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        return 0 if _harness.self_check(verbose=True) else 1

    # bad input (a config, a data file, synthesis or protocol settings) is
    # rejected before any run writes, as a usage error: one line, exit 2
    settings = vars(args)
    command, gap, tol = settings.pop("command"), None, _metrics.REFERENCE_TOL
    try:
        if command == "run":
            config = _harness.load_config(settings["config"])
            results, out = _harness.run_experiment(config), config.output_dir
            tol = config.reference_tol
        else:
            seeds, out = range(settings.pop("seeds")), settings.pop("out")
            if command == "sweep-variance":
                results = _harness.sweep_variance(
                    settings.pop("sigmas"), seeds, out, **settings)
            else:
                results, gap = _harness.matching_experiment(
                    seeds, out, **settings)
    except _sharing.HelperExitError as exc:
        print("dasgrad: error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    if gap is not None:
        print("balanced-accuracy gap %.4f (95%% CI [%.4f, %.4f])" % gap)
    print("results written to %s" % out)
    # one solution per problem; the arms of a problem share it
    for ref in {id(r): r for r in results.reference.values()}.values():
        if not ref.converged:
            print("reference solve unconverged after %d iteration(s): "
                  "||grad F|| = %.3g > tol %g; regret is taken against its "
                  "f*" % (ref.solver_iterations, ref.grad_norm_at_star, tol),
                  file=sys.stderr)
    if results.skipped:
        print("fewer than two completed or paired seeds, not written: %s"
              % ", ".join(results.skipped), file=sys.stderr)
    failed = ["%s/%d" % failure[:2] for failure in results.failures]
    if failed:
        print("%d run(s) failed, see failures.csv: %s"
              % (len(failed), ", ".join(failed)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

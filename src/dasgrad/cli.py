"""Command-line entry points.

Subcommands::

    dasgrad run --config experiment.cfg
    dasgrad sweep-variance --sigmas 0.1,1,10 --seeds 100 --out sweep_out
    dasgrad matching --seeds 20 --out matching_out
    dasgrad check

Exit codes: 0 success, 1 failed check or run, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness as _harness


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dasgrad",
        description="Adaptive-sampling stochastic gradient benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config file")
    p_run.add_argument("--config", required=True,
                       help="path to a key = value experiment config")

    p_sweep = sub.add_parser(
        "sweep-variance",
        help="centroid variance sweep across feature sigmas")
    p_sweep.add_argument("--sigmas", default="0.1,1,10",
                         help="comma-separated feature sigmas")
    p_sweep.add_argument("--seeds", type=int, default=100,
                         help="number of trajectory seeds")
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--d", type=int, default=None)
    p_sweep.add_argument("--T", type=int, default=None)
    p_sweep.add_argument("--alpha", type=float, default=None)
    p_sweep.add_argument("--batch-size", type=int, default=None)

    p_match = sub.add_parser(
        "matching",
        help="distribution-matching run on an unbalanced synthetic problem")
    p_match.add_argument("--seeds", type=int, default=20)
    p_match.add_argument("--out", default="matching_out")
    p_match.add_argument("--T", type=int, default=None)
    p_match.add_argument("--keep-fraction", type=float, default=None)

    sub.add_parser("check", help="run the built-in self-verification suite")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            config = _harness.load_config(args.config)
        except FileNotFoundError:
            parser.error("config file not found: %s" % args.config)
        except ValueError as exc:
            parser.error("bad config: %s" % exc)
        results = _harness.run_experiment(config)
        print("experiment written to %s" % config.output_dir)
        if results.skipped:
            print("fewer than two completed seeds, not written: %s"
                  % ", ".join(results.skipped), file=sys.stderr)
        if results.failures:
            print("%d run(s) failed, see failures.csv: %s"
                  % (len(results.failures),
                     ", ".join("%s/%d" % (name, seed)
                               for name, seed, _, _ in results.failures)),
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "sweep-variance":
        try:
            sigmas = [float(s) for s in args.sigmas.split(",") if s]
        except ValueError:
            parser.error("--sigmas expects comma-separated numbers")
        if not sigmas:
            parser.error("--sigmas expects at least one value")
        try:
            _harness.sweep_variance(
                sigmas, seeds=range(args.seeds), output_dir=args.out,
                n=args.n, d=args.d, T=args.T, alpha=args.alpha,
                batch_size=args.batch_size)
        except ValueError as exc:
            parser.error(str(exc))
        print("sweep written to %s" % args.out)
        return 0

    if args.command == "matching":
        overrides = {}
        if args.T is not None:
            overrides["T"] = args.T
        if args.keep_fraction is not None:
            overrides["keep_fraction"] = args.keep_fraction
        try:
            _, (gap, gap_lo, gap_hi) = _harness.matching_experiment(
                seeds=range(args.seeds), output_dir=args.out, **overrides)
        except ValueError as exc:
            parser.error(str(exc))
        print("balanced-accuracy gap %.4f (95%% CI [%.4f, %.4f])"
              % (gap, gap_lo, gap_hi))
        print("matching results written to %s" % args.out)
        return 0

    if args.command == "check":
        return 0 if _harness.self_check(verbose=True) else 1

    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())

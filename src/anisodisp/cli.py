"""Command line entry point: anisodisp <experiment> --config FILE [--jobs K] [--out DIR].

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (a bad config or
--out among them), 3 numeric failure.
"""

import argparse
import os
import sys

from .harness import EXPERIMENTS, ConfigError, load_config, run
from .oscillatory import QuadratureBudgetError
from .semigroup import FitError
from .spectral import SpectralError
from .sqg import CFLError


def _jobs(text):
    """The --jobs value: a whole number of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anisodisp",
        description="Dispersive-semigroup experiments: linear decay, sharpness, "
        "kernel splitting, SQG and Boussinesq runs, parameter sweeps.",
    )
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--jobs", type=_jobs, help="sweep worker processes "
                    "(default: one per member, up to two per usable CPU where "
                    "that finishes the sweep sooner, at most one per CPU above N = 1024)")
    ap.add_argument("--out", default="out", help="report output directory")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        cfg = load_config(args.config)
        if cfg.experiment != args.experiment:
            raise ConfigError(f"config names experiment {cfg.experiment!r} but "
                              f"{args.experiment!r} was requested")
        # made before the run, so that an unusable --out costs no run
        os.makedirs(args.out, exist_ok=True)
        report = run(cfg, jobs=args.jobs)
        report.write(args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CFLError, FitError, QuadratureBudgetError, SpectralError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.summary_text())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())

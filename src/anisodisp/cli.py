"""Command line entry point: anisodisp <experiment> --config FILE [--jobs K] [--out DIR].

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error, 3 numeric failure.
"""

import argparse
import sys

from .fitting import FitError
from .harness import EXPERIMENTS, ConfigError, load_config, run
from .oscillatory import QuadratureBudgetError
from .spectral import SpectralError
from .sqg import BlowUpError, CFLError


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anisodisp",
        description="Dispersive-semigroup experiments: linear decay, sharpness, "
        "kernel splitting, SQG and Boussinesq runs, parameter sweeps.",
    )
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--jobs", type=int, default=1, help="parallel sweep members")
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
        report = run(cfg, jobs=args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CFLError, BlowUpError, FitError, QuadratureBudgetError, SpectralError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    report.write(args.out)
    sys.stdout.write(report.summary_text())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point: anisodisp <experiment> --config FILE [--jobs K] [--out DIR].

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error (a ConfigError,
an unusable --out), 3 numeric failure (any SpectralError; a dead sweep worker
too) or a run out of memory (a MemoryError, in this process or a sweep worker).
"""

import argparse
import os
import sys

from .harness import EXPERIMENTS, ConfigError, load_config, run
from .spectral import SpectralError


def build_parser():
    ap = argparse.ArgumentParser(
        prog="anisodisp",
        description="Dispersive-semigroup experiments: linear decay, sharpness, "
        "kernel splitting, SQG and Boussinesq runs, parameter sweeps.",
    )
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", required=True, help="INI config file")
    ap.add_argument("--jobs", type=int, help="sweep worker processes "
                    "(default: one per member, up to two per usable CPU where "
                    "that finishes the sweep sooner, at most one per CPU above N = 1024)")
    ap.add_argument("--out", default="out", help="report output directory")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.jobs is not None and args.jobs < 1:
            ap.error(f"argument --jobs: must be at least 1, got {args.jobs}")
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
    except SpectralError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.summary_text())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())

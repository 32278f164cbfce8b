"""Command-line front end.

Verbs:
  run       execute seeded replications, write traces and a summary
  validate  run topology/scheme/problem pre-flight checks only
  bounds    print the analytic gap reports for the config, no simulation
  compare   one run per compare.alphas[i] under <out>/alpha_<i>/, indexed
            by <out>/bounds.csv

Exit codes: 0 ok, 1 bound verification failed under --assert-bounds,
2 invalid configuration, 3 runtime abort (non-finite iterate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ExperimentConfig, load_config_file
from .errors import IncsubError, NonFiniteError, ConfigError
from .harness import (bound_reports, compare_bounds, run_experiment,
                      validate_only)


def _common(parser):
    parser.add_argument("--config", required=True, help="config file (key = value text)")
    parser.add_argument("--seed", type=int, default=None, help="override base seed")
    parser.add_argument("--reps", type=int, default=None,
                        help="override replication count")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--stride", type=int, default=None,
                        help="override trace thinning stride")


def _load(args):
    flat = load_config_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "reps", None) is not None:
        overrides["replications"] = args.reps
    if getattr(args, "stride", None) is not None:
        overrides["stride"] = args.stride
    out = args.out or os.environ.get("INCSUB_OUT")
    if out is not None:
        overrides["out"] = out
    return ExperimentConfig.from_flat(flat, overrides)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="incsub", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment")
    _common(p_run)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel replication workers")
    p_run.add_argument("--assert-bounds", action="store_true",
                       help="exit nonzero when bound verification fails")

    p_val = sub.add_parser("validate", help="pre-flight checks only")
    _common(p_val)

    p_bounds = sub.add_parser("bounds", help="analytic bounds, no simulation")
    _common(p_bounds)

    p_cmp = sub.add_parser("compare", help="a run per compare.alphas[i], and bounds.csv")
    _common(p_cmp)
    p_cmp.add_argument("--jobs", type=int, default=1, help="workers per run")

    args = parser.parse_args(argv)
    try:
        config = _load(args)
        if args.verb == "run":
            summary, _ = run_experiment(config, jobs=args.jobs)
            print(json.dumps({"out": config.out_dir,
                              "bounds_all_pass": summary["bounds_all_pass"]},
                             sort_keys=True))
            if args.assert_bounds and summary["bounds_all_pass"] is False:
                return 1
            return 0
        if args.verb == "validate":
            validate_only(config)
            print(f"ok: {config.problem.name} validates "
                  f"({config.algorithm}, horizon {config.horizon})")
            return 0
        if args.verb == "bounds":
            payload = [r.to_json_dict() for r in bound_reports(config)]
            text = json.dumps(payload, sort_keys=True, indent=1)
            print(text)
            if args.out or config.flat.get("out"):
                os.makedirs(config.out_dir, exist_ok=True)
                with open(os.path.join(config.out_dir, "bounds.json"), "w") as fh:
                    fh.write(text + "\n")
            return 0
        if args.verb == "compare":
            compare_bounds(config, jobs=args.jobs)
            print(os.path.join(config.out_dir, "bounds.csv"))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    except IncsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

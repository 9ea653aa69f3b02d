"""Batch command line: run experiment configs, validate them, list builtins.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
3 numeric or domain error, or any other error raised while running.
Only ``run`` loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .config import (ACTION_CATALOG, ACTION_PARAMS, ALGEBRA_CATALOG, ALGEBRA_PARAMS,
                     FIELD_CATALOG, FIELD_PARAMS, KERNEL_CATALOG, KERNEL_PARAMS, KINDS,
                     parse_config)
from .errors import ConfigError

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _cmd_run(args) -> int:
    # numpy and the runner load with the first run, never for validate or
    # list-builtins
    import numpy as np

    from .runner import run_experiment

    stem = os.path.splitext(os.path.basename(args.config))[0]
    try:
        # an error, not numpy's floating-point warnings, reports what went
        # wrong: the guards raise on the non-finite values that matter
        with np.errstate(all="ignore"):
            cfg = parse_config(args.config)
            report = run_experiment(cfg, csv_dir=args.csv_dir, csv_stem=stem)
        text = report.to_json(stable_output=args.stable_output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:    # exit 1 stays reserved for a failed check
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    print(text)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


def _cmd_validate(args) -> int:
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    print(f"ok: {cfg.kind} experiment, seed {cfg.seed}")
    return EXIT_PASS


def _cmd_list_builtins(args) -> int:
    print("experiment kinds:")
    for kind in KINDS:
        print(f"  {kind}")
    for title, catalog, tables in (("kernels", KERNEL_CATALOG, KERNEL_PARAMS),
                                   ("algebras", ALGEBRA_CATALOG, ALGEBRA_PARAMS),
                                   ("actions", ACTION_CATALOG, ACTION_PARAMS),
                                   ("vector fields", FIELD_CATALOG, FIELD_PARAMS)):
        print(f"\n{title}:")
        for name, desc in catalog.items():
            print(f"  {name:18s} {desc}")
            # each param with its default, or (optional) when its builder
            # derives what an absent one means
            params = [f"{key} (required)" if rule.required else f"{key} (optional)"
                      if rule.default is None else f"{key}={json.dumps(rule.default)}"
                      for key, rule in tables[name].items()]
            if params:
                print(f"  {'':18s} params: {', '.join(params)}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerflow",
        description="finite-rank verification lab for kernel spaces and "
                    "reflection-positive quotients")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--stable-output", action="store_true",
                       help="drop timings so repeated runs are byte-identical")
    run_p.add_argument("--csv-dir", default=None,
                       help="directory for CSV curve exports")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="validate a config without running")
    val_p.add_argument("config")
    val_p.set_defaults(func=_cmd_validate)

    list_p = sub.add_parser("list-builtins", help="print the builtin catalog")
    list_p.set_defaults(func=_cmd_list_builtins)
    return parser


# built once per process: a parse leaves the parser as it was
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

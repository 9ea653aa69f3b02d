"""Run every shipped experiment config and summarize pass/fail per check.

Run: python scripts/run_all_configs.py [--csv-dir DIR]
"""

import argparse
import os
import sys
import time

from kerflow.config import parse_config
from kerflow.runner import run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--csv-dir", default=None)
    args = parser.parse_args(argv)

    failures = 0
    for name in sorted(os.listdir(CONFIG_DIR)):
        if not name.endswith(".json"):
            continue
        cfg = parse_config(os.path.join(CONFIG_DIR, name))
        started = time.perf_counter()
        report = run_experiment(cfg, csv_dir=args.csv_dir,
                                csv_stem=os.path.splitext(name)[0])
        elapsed = time.perf_counter() - started
        status = "pass" if report.passed else "FAIL"
        print(f"{status}  {name:32s} ({elapsed:5.2f} s)")
        for check in report.checks:
            flag = {True: "+", False: "-", None: "."}[check.passed]
            tol = "" if check.tolerance is None else f" vs {check.tolerance:g}"
            value = "null" if check.value is None else f"{check.value:.6g}"
            print(f"      {flag} {check.name}: {value}{tol}")
        failures += 0 if report.passed else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

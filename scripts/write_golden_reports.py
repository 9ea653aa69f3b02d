"""Rewrite the golden reports: the ``kerflow run --stable-output`` report of
every shipped config under ``configs/``, written to ``tests/golden/`` under
the config's file name.  Golden files without a shipped config are removed.

Run: PYTHONPATH=src python scripts/write_golden_reports.py

A rewrite is deliberate.  The tier-1 test that reads these files fails on
any moved value; a change that rewrites them names every moved value in
CHANGES.md (the failing test lists each one with its JSON path and relative
move).  The bytes depend on the numpy and OpenBLAS builds, so the files are
also rewritten, with a CHANGES.md line, when that toolchain changes.
"""

import contextlib
import io
import os
import sys

from kerflow import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def main() -> int:
    names = sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".json"))
    reports = {}
    for name in names:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["run", os.path.join(CONFIG_DIR, name), "--stable-output"])
        if code != cli.EXIT_PASS:
            print(f"{name}: exit {code}; no golden file was written", file=sys.stderr)
            return 1
        reports[name] = out.getvalue()
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith(".json") and name not in reports:
            os.remove(os.path.join(GOLDEN_DIR, name))
            print(f"removed tests/golden/{name}")
    for name, text in reports.items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as handle:
            handle.write(text)
    print(f"wrote {len(reports)} reports to tests/golden/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

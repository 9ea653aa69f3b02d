"""Rewrite the golden reports: the ``kerflow run --stable-output`` report of
every shipped config under ``configs/``, written to ``tests/golden/`` under
the config's file name.  Golden files without a shipped config are removed.

It also rewrites ``tests/golden_workloads/``: for each benchmark workload in
``WORKLOADS``, the configs that ``perfbench/workloads.py`` generates at seed
``WORKLOAD_SEED`` go to ``<workload>/configs/`` and their reports to
``<workload>/reports/``, under the same file names.  The workload configs
run in a child process with ``OPENBLAS_NUM_THREADS=1``, a thread count
every machine can honour: their 289-point Gram spectra round differently
under another count.  ``pinned_runs`` is that child run, which the tier-1
test of the workload reports calls too.

Run: PYTHONPATH=src python scripts/write_golden_reports.py

A rewrite is deliberate.  The tier-1 tests that read these files fail on
any moved value; a change that rewrites them names every moved value in
CHANGES.md (the failing test lists each one with its JSON path and relative
move).  The bytes depend on the numpy and OpenBLAS builds, so the files are
also rewritten, with a CHANGES.md line, when that toolchain changes.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys

from kerflow import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
WORKLOAD_DIR = os.path.join(ROOT, "tests", "golden_workloads")
# the benchmark's workloads at their own sizes; shipped_batch is tests/golden
WORKLOADS = ("gram_ladder", "grid_quotient")
WORKLOAD_SEED = 4
# BLAS threads of the workload runs, read by OpenBLAS when numpy loads
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _runs(config_dir: str) -> dict:
    """File name -> (exit code, stdout) of ``kerflow run --stable-output`` on
    every config in ``config_dir``, in this process."""
    runs = {}
    for name in sorted(n for n in os.listdir(config_dir) if n.endswith(".json")):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["run", os.path.join(config_dir, name), "--stable-output"])
        runs[name] = (code, out.getvalue())
    return runs


def pinned_runs(config_dir: str) -> dict:
    """``_runs`` of ``config_dir`` in a child process under ``PINNED_ENV``."""
    src = os.path.join(ROOT, "src")
    env = {**os.environ, **PINNED_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, __file__, "--runs", config_dir], env=env,
                           capture_output=True, text=True, check=True)
    return {name: tuple(run) for name, run in json.loads(child.stdout).items()}


def _reports(runs: dict) -> dict:
    """File name -> report of each run; None when some config does not pass."""
    for name, (code, _) in runs.items():
        if code != cli.EXIT_PASS:
            print(f"{name}: exit {code}; no golden file was written", file=sys.stderr)
            return None
    return {name: text for name, (_, text) in runs.items()}


def _write(reports: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in reports.items():
        with open(os.path.join(out_dir, name), "w") as handle:
            handle.write(text)


def _workloads_module():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--runs"]:
        print(json.dumps(_runs(argv[1])))
        return 0
    reports = _reports(_runs(CONFIG_DIR))
    if reports is None:
        return 1
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith(".json") and name not in reports:
            os.remove(os.path.join(GOLDEN_DIR, name))
            print(f"removed tests/golden/{name}")
    _write(reports, GOLDEN_DIR)
    print(f"wrote {len(reports)} reports to tests/golden/")

    workloads = _workloads_module()
    shutil.rmtree(WORKLOAD_DIR, ignore_errors=True)
    for workload in WORKLOADS:
        configs = os.path.join(WORKLOAD_DIR, workload, "configs")
        workloads.write_workload(workload, WORKLOAD_SEED, CONFIG_DIR, configs)
        reports = _reports(pinned_runs(configs))
        if reports is None:
            return 1
        _write(reports, os.path.join(WORKLOAD_DIR, workload, "reports"))
        print(f"wrote {len(reports)} configs and reports to "
              f"tests/golden_workloads/{workload}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

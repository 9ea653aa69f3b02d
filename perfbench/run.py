"""Benchmark of the kerflow verification lab: the wall time to a pass/fail
verdict on a batch of configs.

Run from the root of a kerflow checkout:

    python3 perfbench/run.py --workload gram_ladder --seed 3 --seconds 35 --trace 0

The workload's configs are generated from ``configs/`` by ``workloads.py``.
One client runs them as a closed loop through the ``kerflow run
--stable-output`` entry point, called in-process: each config starts when the
previous one has finished, and passes over the batch repeat until
``--seconds`` is used up.  Every report is checked (exit 0, the kind's fixed
check list, byte-identical to the first pass), and a failure is counted
rather than aborting the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced reference pass, then paired passes that run each config untraced and
traced (``tracer.py``) back to back, and reports the per-layer metrics, each
per traced pass.  Human-readable lines
come first; the last line of standard output is one JSON object.  A results
file with the per-pass figures, the report digests and the machine
fingerprint, and the traced spans, go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# The lab runs at desk scale on one core (README), and one BLAS thread keeps
# passes steady on a shared machine; it never exceeds nproc.
BLAS_THREADS = "1"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
WORK_DIR = os.path.join(".bench_build", "perfbench")

# Every kind's fixed check list, in report order.  Informational checks
# (null pass flag) are not contracted.
CHECKS = {
    "flow_laws": ("flow_law_max_defect", "inverse_law_max_defect",
                  "matrix_exponential_max_defect"),
    "bracket_order": ("min_fitted_order", "max_fitted_order"),
    "compatibility": ("compatibility_max_defect", "homomorphism_defect",
                      "invariance_max_drift"),
    "froelich": ("relative_error", "monotone_max_ratio", "projection_residual"),
    "cdual_rep": ("skew_defect_max", "unitarity_defect_max",
                  "conjugation_max_ratio", "commutation_defect_final"),
    "luscher_mack": ("psd_min_ratio", "generator_error", "star_defect_max",
                     "commutation_defect"),
    "os_reconstruct": ("twisted_psd_min_ratio", "quotient_rank",
                       "rank_gap_ratio", "semigroup_eigenvalue_error",
                       "contraction_defect", "semigroup_law_defect",
                       "self_adjointness_defect"),
    "rp_axioms": ("rp1_max_defect", "rp2_max_defect",
                  "pairing_invariance_defect"),
}
INFORMATIONAL = {"projection_residual", "commutation_defect_final",
                 "commutation_defect"}

# The kind each workload was built to stress; its summed time per pass is
# gated as ``focus_kind_s``.  On grid_quotient that is the twisted-Gram
# whitening path (os_reconstruct); rp_axioms is three quarters of batch_s there.
FOCUS_KIND = {"shipped_batch": "flow_laws", "gram_ladder": "cdual_rep",
              "grid_quotient": "os_reconstruct"}

# Per-layer metrics of the traced run, by layer, with their units.
PER_LAYER = {
    "flows.integrate_curve.calls": "count",
    "flows.integrate_curve.busy_s": "s",
    "flows.rk4_steps": "count",
    "flows.us_per_step": "us",
    "flows.domain_exit_ratio": "1",
    "flows.lie_derivative_via_flow.calls": "count",
    "flows.lie_derivative_via_flow.busy_s": "s",
    "kernels.gram.calls": "count",
    "kernels.gram.self_s": "s",
    "kernels.gram.entries": "count",
    "kernels.kernel_evals": "count",
    "kernels.gram_from_matrix.calls": "count",
    "kernels.gram_from_matrix.busy_s": "s",
    "kernels.rank_ratio": "1",
    "kernels.embed_point.busy_s": "s",
    "operators.lie_derivative_form.calls": "count",
    "operators.lie_derivative_form.busy_s": "s",
    "operators.lie_derivative_form.entries": "count",
    "operators.form_reuse_ratio": "1",
    "operators.compress_operator.busy_s": "s",
    "operators.semigroup_matrix.busy_s": "s",
    "operators.flow_invariance_check.busy_s": "s",
    "representation.synthesize_cdual_rep.self_s": "s",
    "representation.max_unitarity_defect.calls": "count",
    "representation.max_unitarity_defect.busy_s": "s",
    "representation.commutation_defect.busy_s": "s",
    "representation.conjugation_check.busy_s": "s",
    "representation.luscher_mack_pipeline.self_s": "s",
    "distributions.pairing.calls": "count",
    "distributions.reflection_positivity_check.busy_s": "s",
    "distributions.os_quotient.busy_s": "s",
    "distributions.os_semigroup.calls": "count",
    "distributions.os_semigroup.busy_s": "s",
    "distributions.grid_shift_matrix.calls": "count",
    "distributions.grid_shift_matrix.busy_s": "s",
    "distributions.grid_shift_matrix.bytes_computed": "B",
    "distributions.from_distance_profile.busy_s": "s",
    "distributions.from_distance_profile.bytes_computed": "B",
    "distributions.rp_axioms_check.busy_s": "s",
    "algebra.c_dual.calls": "count",
    "algebra.c_dual.busy_s": "s",
    "config.parse_config.busy_s": "s",
    "runner.run_experiment.self_s": "s",
    "cli.main.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in (
        "flows", "algebra", "kernels", "operators", "representation",
        "distributions", "config", "runner", "cli")},
    **{f"kind_s.{kind}": "s" for kind in CHECKS},
    "trace.overhead_s": "s",
    "trace.accounted_ratio": "1",
}

# Ratios of two summary totals: (numerator, base, scale).  A ratio whose
# base is 0 reads 0.
_RATIOS = {
    "flows.us_per_step": ("flows.integrate_curve.busy_s", "flows.rk4_steps", 1e6),
    "flows.domain_exit_ratio": ("flows.domain_exits", "flows.curves", 1.0),
    "kernels.rank_ratio": ("kernels.rank_sum", "kernels.size_sum", 1.0),
    "operators.form_reuse_ratio": ("operators.distinct_forms",
                                   "operators.lie_derivative_form.calls", 1.0),
}


# -- machine -----------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


# -- set-up --------------------------------------------------------------------


def measure_setup(workload: str, seed: int, out_dir: str, repeats: int) -> list:
    """Wall times of fresh interpreters that import kerflow and generate and
    validate the workload; the last one leaves the files in ``out_dir``."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir]
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"workload set-up failed: {proc.stderr.strip()}")
    return times


# -- passes ------------------------------------------------------------------


def run_config(cli, path: str):
    """One ``kerflow run --stable-output``; returns (exit code or the raised
    exception, report text, seconds)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", path, "--stable-output"])
    except Exception as exc:  # a raising config is counted, not fatal
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - started


def _config_run(stem, kind, code, text, seconds) -> dict:
    return {"stem": stem, "kind": kind, "code": code, "text": text,
            "seconds": seconds}


def run_pass(cli, configs: list) -> dict:
    """Run every config once, in order; ``configs`` is (stem, kind, path)."""
    runs = []
    started = time.perf_counter()
    for stem, kind, path in configs:
        runs.append(_config_run(stem, kind, *run_config(cli, path)))
    return {"wall_s": time.perf_counter() - started, "traced": False,
            "configs": runs}


def run_paired_pass(cli, configs: list, recorder, label: str) -> list:
    """Run every config untraced and traced, back to back, and return the
    untraced and the traced pass.  Which of the two goes first alternates
    from config to config, so drift in the host's speed falls on both."""
    plain, traced = [], []
    for index, (stem, kind, path) in enumerate(configs):
        recorder.config_id = f"{label}:{stem}"
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                with recorder:
                    result = run_config(cli, path)
            else:
                result = run_config(cli, path)
            (traced if with_trace else plain).append(
                _config_run(stem, kind, *result))
    return [{"wall_s": sum(c["seconds"] for c in runs), "traced": flag,
             "configs": runs} for flag, runs in ((False, plain), (True, traced))]


def judge(kind: str, code, text: str, reference) -> tuple:
    """(contracted checks attempted, failed, problem or None) for one report.

    A non-zero exit, a raise, a wrong check list or a report that differs
    from the first pass's counts all of the kind's contracted checks as
    failed.
    """
    expected = CHECKS[kind]
    n_contracted = sum(name not in INFORMATIONAL for name in expected)
    if code != 0:
        return n_contracted, n_contracted, f"exit {code}"
    if reference is not None and text != reference:
        return n_contracted, n_contracted, "report differs from the first pass"
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        return n_contracted, n_contracted, "unreadable report"
    names = tuple(c["name"] for c in checks)
    if names != expected:
        return n_contracted, n_contracted, f"check list {names}"
    contracted = [c for c in checks if c["passed"] is not None]
    return len(contracted), sum(not c["passed"] for c in contracted), None


def judge_passes(passes: list) -> tuple:
    """Judge every report against the first pass's; returns (contracted
    checks attempted, failed, problem lines, first-pass report digests)."""
    attempted = failed = 0
    problems = []
    reference = {}
    for index, result in enumerate(passes):
        for run in result["configs"]:
            n, bad, why = judge(run["kind"], run["code"], run["text"],
                                reference.get(run["stem"]))
            reference.setdefault(run["stem"], run["text"])
            attempted += n
            failed += bad
            if why:
                problems.append(f"pass {index} {run['stem']}: {why}")
    digests = {stem: hashlib.sha256(text.encode()).hexdigest()
               for stem, text in reference.items()}
    return attempted, failed, problems, digests


def run_loop(step, started: float, seconds: float, min_steps: int):
    """Call ``step`` until the next call would end more than ``seconds``
    after ``started``, but at least ``min_steps`` times."""
    done = 0
    while True:
        step_started = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= min_steps and (now - started) + (now - step_started) > seconds:
            return


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _stat(values: list, unit: str) -> dict:
    lo, hi = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit,
            "p25": lo, "p75": hi, "n": len(values)}


def end_to_end(workload: str, passes: list, setup_times: list,
               attempted: int, failed: int) -> dict:
    timed = [p for p in passes if not p["traced"]]
    focus = FOCUS_KIND[workload]
    focus_s = [sum(c["seconds"] for c in p["configs"] if c["kind"] == focus)
               for p in timed]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "batch_s": _stat([p["wall_s"] for p in timed], "s"),
        "setup_s": _stat(setup_times, "s"),
        "focus_kind_s": _stat(focus_s, "s"),
        "check_pass_ratio": {"value": 1.0 - failed / attempted, "unit": "1",
                             "n": attempted},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
    }


def per_layer(passes: list, summary: dict) -> dict:
    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    out = {}
    for name, unit in PER_LAYER.items():
        if name in _RATIOS:
            num, den, scale = _RATIOS[name]
            base = summary.get(den, 0)
            value = scale * summary.get(num, 0) / base if base else 0.0
        elif name.startswith("kind_s."):
            kind = name.split(".", 1)[1]
            out[name] = _stat([sum(c["seconds"] for c in p["configs"]
                                   if c["kind"] == kind) for p in timed], unit)
            continue
        elif name.startswith("trace."):
            continue
        else:
            value = summary.get(name, 0) / n
        out[name] = {"value": value, "unit": unit, "n": n}
    # the paired passes follow the reference pass, untraced then traced
    pairs = zip(timed[1:], traced)
    out["trace.overhead_s"] = {
        "value": statistics.median([t["wall_s"] - u["wall_s"] for u, t in pairs]),
        "unit": "s", "n": n}
    # self times partition the root spans, so this is the share of the traced
    # wall time that the layers account for
    out["trace.accounted_ratio"] = {
        "value": summary.get("cli.main.busy_s", 0.0)
        / sum(p["wall_s"] for p in traced), "unit": "1", "n": n}
    return out


def _baseline_digests(workload: str, seed: int):
    with open(os.path.join(HERE, "baseline.json")) as handle:
        baseline = json.load(handle)
    return baseline.get("digests", {}).get(workload, {}).get(str(seed))


# -- main --------------------------------------------------------------------


def _checkout_problem(root: str):
    if not os.path.isfile(os.path.join(root, "src", "kerflow", "__init__.py")):
        return "no src/kerflow here"
    missing = [s for s in workloads.SHIPPED
               if not os.path.isfile(os.path.join(root, "configs", s + ".json"))]
    if missing:
        return f"missing shipped configs: {', '.join(missing)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kerflow batch benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    problem = _checkout_problem(root)
    if problem:
        print(f"perfbench: run from the root of a kerflow checkout ({problem})",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("KERFLOW_SEED", None)   # the generated seed must hold

    work = os.path.join(root, WORK_DIR)
    config_dir = os.path.join(work, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setup_times = measure_setup(args.workload, args.seed, config_dir,
                                    1 if args.trace else SETUP_REPEATS)
        sys.path.insert(0, os.path.join(root, "src"))
        from kerflow import cli

        configs = []
        for stem, data in workloads.generate(args.workload, args.seed,
                                             os.path.join(root, "configs")).items():
            configs.append((stem, data["kind"],
                            os.path.join(config_dir, stem + ".json")))
        machine = fingerprint()
        passes = []
        started = time.perf_counter()
        summary = None
        if args.trace:
            import tracer as tracing

            recorder = tracing.Tracer()
            passes.append(run_pass(cli, configs))
            run_loop(lambda: passes.extend(run_paired_pass(
                cli, configs, recorder, label=str(len(passes)))),
                started, args.seconds, 1)
            summary = recorder.summary()
            recorder.write_spans(os.path.join(
                work, f"{args.workload}-seed{args.seed}.spans.json"))
        else:
            run_loop(lambda: passes.append(run_pass(cli, configs)),
                     started, args.seconds, 2)
    finally:
        shutil.rmtree(config_dir, ignore_errors=True)

    attempted, failed, problems, digests = judge_passes(passes)
    if args.trace:
        metrics = per_layer(passes, summary)
    else:
        metrics = end_to_end(args.workload, passes, setup_times, attempted, failed)

    known = _baseline_digests(args.workload, args.seed)
    moved = sorted(s for s in digests if known and known.get(s) != digests[s])
    print(f"fingerprint {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(configs)} configs, "
          f"{len(passes)} passes, one client, closed loop")
    for name, m in metrics.items():
        spread = f"  p25 {m['p25']:.4g}  p75 {m['p75']:.4g}" if "p25" in m else ""
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}  n={m['n']}{spread}")
    for line in problems:
        print(f"  FAILED {line}")
    if known is None:
        print("  report digests: no baseline for this seed")
    else:
        print(f"  report digests: {len(digests) - len(moved)} of {len(digests)} "
              f"match the baseline" + (f"; moved: {', '.join(moved)}" if moved else ""))

    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "fingerprint": machine, "setup_s": setup_times,
                   "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                               "configs": {c["stem"]: c["seconds"]
                                           for c in p["configs"]}}
                              for p in passes],
                   "digests": digests, "moved": moved, "problems": problems,
                   "metrics": metrics}, handle, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from kerflow import cli, distributions, kernels, representation  # noqa: E402

CONFIG_DIR = os.path.join(ROOT, "configs")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7, 1234])
def test_generated_configs_validate(tmp_path, capsys, workload, seed):
    paths = workloads.write_workload(workload, seed, CONFIG_DIR, str(tmp_path))
    assert len(paths) == len(workloads.OVERRIDES[workload])
    for path in paths:
        assert cli.main(["validate", path]) == 0
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(os.path.join(CONFIG_DIR, stem + ".json")) as handle:
            shipped_seed = json.load(handle)["seed"]
        with open(path) as handle:
            assert json.load(handle)["seed"] == (
                shipped_seed if stem in workloads.KEEP_SHIPPED_SEED else seed)
    capsys.readouterr()


def test_seed_places_bumps_in_the_positive_slice():
    first = workloads.generate("grid_quotient", 1, CONFIG_DIR)
    again = workloads.generate("grid_quotient", 1, CONFIG_DIR)
    other = workloads.generate("grid_quotient", 2, CONFIG_DIR)
    assert first == again
    bumps = first["os_reconstruct_ou"]["bumps"]
    assert bumps != other["os_reconstruct_ou"]["bumps"]
    assert len(bumps) == 10
    assert all(b["center"][0] - b["width"] > 0.0 for b in bumps)


def _bindings():
    """Every attribute of every kerflow module and traced class."""
    out = {}
    for module in tracer._kerflow_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
    for owner in (kernels.Kernel, distributions.SmearedKernel,
                  representation.RepresentationTable):
        for name, value in vars(owner).items():
            out[(owner.__qualname__, name)] = value
    return out


def _run_small_configs(capsys):
    for stem in ("froelich_rank1", "compatibility", "luscher_mack_power"):
        assert cli.main(["run", os.path.join(CONFIG_DIR, stem + ".json"),
                         "--stable-output"]) == 0
    capsys.readouterr()


def test_tracer_restores_every_binding(capsys):
    before = _bindings()
    with tracer.Tracer() as recorder:
        _run_small_configs(capsys)
        assert _bindings() != before
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {span[0] for span in recorder.spans}
    parents = {(span[0], recorder.spans[span[3]][0])
               for span in recorder.spans if span[3] >= 0}
    # calls through names bound at import time are seen
    assert ("flows.integrate_curve", "operators.froelich_check") in parents
    assert ("kernels.gram", "representation.luscher_mack_pipeline") in parents
    assert ("operators.lie_derivative_form",
            "representation.synthesize_cdual_rep") in parents
    assert "cli.main" in names and "config.parse_config" in names


def test_paired_pass_traces_one_side_and_restores(capsys):
    configs = [(stem, stem.split("_")[0], os.path.join(CONFIG_DIR, stem + ".json"))
               for stem in ("froelich_rank1", "compatibility")]
    before = _bindings()
    recorder = tracer.Tracer()
    plain, traced = run.run_paired_pass(cli, configs, recorder, "0")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert (plain["traced"], traced["traced"]) == (False, True)
    assert [c["text"] for c in plain["configs"]] == \
        [c["text"] for c in traced["configs"]]
    assert traced["wall_s"] == sum(c["seconds"] for c in traced["configs"])
    # one cli.main span per traced config run, none for the untraced ones
    assert recorder.summary()["cli.main.calls"] == 2
    capsys.readouterr()


def test_tracer_restores_after_an_error(capsys):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_times_partition_the_root_spans(capsys):
    with tracer.Tracer() as recorder:
        _run_small_configs(capsys)
    summary = recorder.summary()
    layers = sum(summary.get(f"{layer}.self_s", 0.0) for layer in (
        "flows", "algebra", "kernels", "operators", "representation",
        "distributions", "config", "runner", "cli"))
    assert layers == pytest.approx(summary["cli.main.busy_s"], rel=1e-9)
    assert summary["cli.main.calls"] == 3
    assert summary["kernels.kernel_evals"] > 0
    # luscher_mack builds each derivative form twice
    assert summary["operators.distinct_forms"] < \
        summary["operators.lie_derivative_form.calls"]


def test_judge_counts_failures():
    checks = run.CHECKS["rp_axioms"]
    report = json.dumps({"checks": [{"name": n, "passed": True} for n in checks]})
    assert run.judge("rp_axioms", 0, report, None) == (3, 0, None)
    assert run.judge("rp_axioms", 0, report, report) == (3, 0, None)
    assert run.judge("rp_axioms", 0, report, report + " ")[:2] == (3, 3)
    assert run.judge("rp_axioms", 1, report, None)[:2] == (3, 3)
    assert run.judge("rp_axioms", "GridError: x", "", None)[:2] == (3, 3)
    short = json.dumps({"checks": [{"name": checks[0], "passed": True}]})
    assert run.judge("rp_axioms", 0, short, None)[:2] == (3, 3)


def test_declared_workloads_match_generator():
    assert _declared()[2] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "grid_quotient", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = _declared()[trace]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(NAME.fullmatch(name) for name in printed)
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

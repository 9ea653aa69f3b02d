import ast
import contextlib
import dataclasses
import importlib.util
import io
import itertools
import json
import os
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kerflow
from kerflow import cli, config, distributions, flows, runner
from kerflow.config import (CHECKS, SAMPLE_TYPES, ExperimentConfig, Rule, parse_config,
                            validate_config)
from kerflow.errors import ConfigError
from kerflow.runner import _sample_points, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_minimal_flow_laws(tmp_path):
    cfg = parse_config(_write(tmp_path, {
        "kind": "flow_laws", "seed": 1,
        "fields": [{"name": "rotation2d", "params": {}}],
    }))
    assert cfg.kind == "flow_laws"
    # defaults filled
    assert cfg.tol("flow_law") == 1e-8


def test_unknown_key_reports_path(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, {"kind": "flow_laws", "seed": 1,
                                       "kernell": {}}))
    assert err.value.json_path == "$.kernell"


def test_unknown_tolerance_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, {"kind": "flow_laws", "seed": 1,
                                       "fields": [],
                                       "tolerances": {"nope": 1.0}}))
    assert err.value.json_path == "$.tolerances.nope"


def test_non_increasing_ladder_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(_write(tmp_path, {
            "kind": "froelich", "seed": 1,
            "kernel": {"name": "laplace_gaussian", "params": {}},
            "field": {"name": "constant", "params": {"vector": [1.0]}},
            "samples": {"type": "chebyshev", "n": 5, "refinement": [21, 11]},
        }))
    assert err.value.json_path == "$.samples.refinement"


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        validate_config({"kind": "nope", "seed": 0})


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    # a report is reproducible from the config it echoes: the environment
    # sets no seed
    path = _write(tmp_path, {"kind": "flow_laws", "seed": 1,
                             "fields": [{"name": "rotation2d"}]})
    monkeypatch.setenv("KERFLOW_SEED", "42")
    assert parse_config(path).seed == 1
    bracket = os.path.join(CONFIG_DIR, "bracket_order.json")
    assert cli.main(["run", bracket, "--stable-output"]) == cli.EXIT_PASS
    with_variable = capsys.readouterr().out
    monkeypatch.delenv("KERFLOW_SEED")
    assert parse_config(path).seed == 1
    assert cli.main(["run", bracket, "--stable-output"]) == cli.EXIT_PASS
    assert capsys.readouterr().out == with_variable


def test_cli_validate_and_exit_codes(tmp_path):
    good = os.path.join(CONFIG_DIR, "compatibility.json")
    assert cli.main(["validate", good]) == 0
    bad = _write(tmp_path, {"kind": "flow_laws", "seed": 1, "oops": 3})
    assert cli.main(["validate", bad]) == cli.EXIT_CONFIG_ERROR


def test_flow_laws_without_fields_is_a_config_error(tmp_path, capsys):
    path = _write(tmp_path, {"kind": "flow_laws", "seed": 1})
    for command in ("validate", "run"):
        assert cli.main([command, path]) == cli.EXIT_CONFIG_ERROR
        assert "config error: $.fields: required" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, json_path", [
    ("fields", [], "$.fields"),
    ("fields", [3], "$.fields[0]"),
    ("fields", [{"params": {}}], "$.fields[0].name"),
    ("fields", [{"name": "nope"}], "$.fields[0].name"),
    ("step", 0, "$.step"),
    ("step", -1e-3, "$.step"),
    ("step", float("nan"), "$.step"),
    ("t_range", 0.0, "$.t_range"),
    ("n_points", 0, "$.n_points"),
    ("n_time_samples", 0, "$.n_time_samples"),
])
def test_flow_laws_schema_bounds(tmp_path, capsys, key, value, json_path):
    data = {"kind": "flow_laws", "seed": 1, "fields": [{"name": "rotation2d"}]}
    data[key] = value
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.json_path == json_path
    assert cli.main(["validate", _write(tmp_path, data)]) == cli.EXIT_CONFIG_ERROR
    capsys.readouterr()


def _run_checks(tmp_path, capsys, data):
    code = cli.main(["run", _write(tmp_path, data), "--stable-output"])
    return code, {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def _flow_laws_report(tmp_path, capsys, seed=3, **body):
    return _run_checks(tmp_path, capsys, {"kind": "flow_laws", "seed": seed, **body})


def test_flow_laws_without_affine_field_leaves_exponential_check_open(tmp_path, capsys):
    code, checks = _flow_laws_report(
        tmp_path, capsys, fields=[{"name": "quadratic1d"}], n_points=4,
        step=0.01, t_range=0.5)
    assert code == 0
    assert checks["flow_law_max_defect"]["passed"] is True
    assert checks["inverse_law_max_defect"]["passed"] is True
    expm = checks["matrix_exponential_max_defect"]
    assert expm["passed"] is None and expm["value"] is None


def test_flow_laws_checks_the_exponential_of_every_affine_field(tmp_path, capsys):
    # coordinate_shear is affine, so its curves meet the exact exponential
    code, checks = _flow_laws_report(tmp_path, capsys, seed=0,
                                     fields=[{"name": "coordinate_shear"}])
    assert code == 0
    expm = checks["matrix_exponential_max_defect"]
    assert expm["passed"] is True and 0.0 < expm["value"] <= 1e-12


def test_flow_laws_fails_when_every_curve_exits(tmp_path, capsys):
    # seed 4 draws the single start x0 = 0.886 and first leg s = 0.91; the
    # flow x0 / (1 - x0 s) leaves (-inf, 1) at s = 0.129, so no pair is compared
    code, checks = _flow_laws_report(
        tmp_path, capsys, seed=4, fields=[{"name": "quadratic1d"}], n_points=1,
        n_time_samples=1, step=0.01, t_range=40.0)
    flow, inverse = checks["flow_law_max_defect"], checks["inverse_law_max_defect"]
    assert code == cli.EXIT_CHECK_FAILURE
    assert flow["passed"] is False and flow["value"] is None
    assert inverse["passed"] is False and inverse["value"] is None


# One shipped config and one change per gated check of the flow kinds, at the
# shipped seed and tolerances, under which the run exits 1 with that check
# failed.  At step 0.1 RK4 misses a rotation by about h^4 / 120 = 8e-7 per
# unit time: Phi_t Phi_s and Phi_{s+t} split |s| + |t| <= 2 into different
# steps, and the exponential is exact.  Its stability function R has
# R(ih) R(-ih) = 1 - h^6 / 72 + ..., so each of up to 10 steps there and
# back leaves 1.4e-8 of |p|.  All three sit 20x or more above 1e-8.  At
# h = 1e-6 the quotient of two values O(1) apart by 2h carries rounding of
# about eps / h = 2e-10, far above its truncation h^2 |F^(3)| / 6, and it
# grows as h shrinks, so the fitted order falls below 0.  No single change
# makes max_fitted_order exceed 2.2: about a rotation each pair's error is
# a sum of c (1 - sin(w h) / (w h)) terms, whose order falls from 2 as h
# grows.
@pytest.mark.parametrize("stem, change, check", [
    ("flow_laws", {"step": 0.1}, "flow_law_max_defect"),
    ("flow_laws", {"step": 0.1}, "inverse_law_max_defect"),
    ("flow_laws", {"step": 0.1}, "matrix_exponential_max_defect"),
    ("bracket_order", {"h_ladder": [1e-6, 5e-7, 2.5e-7]}, "min_fitted_order"),
])
def test_flow_checks_fail_on_their_witness(tmp_path, capsys, stem, change, check):
    code, checks = _run_checks(tmp_path, capsys, {**_shipped(stem), **change})
    assert code == cli.EXIT_CHECK_FAILURE
    assert checks[check]["passed"] is False


def test_bracket_order_with_no_error_to_fit_fails_both_order_checks(tmp_path, capsys):
    # constant fields commute and their flows are exact, so every error of
    # the ladder is 0.0: an order fitted to floored errors read 2.9e-14 and
    # passed max_fitted_order
    constant = [{"name": "constant", "params": {"vector": v}} for v in ([1.0, 0.0],
                                                                        [0.0, 1.0])]
    data = {**_shipped("bracket_order"), "pairs": [dict(zip("xy", constant))]}
    code, checks = _run_checks(tmp_path, capsys, data)
    assert code == cli.EXIT_CHECK_FAILURE
    for name in ("min_fitted_order", "max_fitted_order"):
        assert checks[name]["value"] is None and checks[name]["passed"] is False, name


def _reference_order(hs, errs):
    """The bracket order fit that ``runner._ladder`` replaced, as it was."""
    hs = np.log(np.asarray(hs, dtype=float))
    errs = np.log(np.maximum(np.asarray(errs, dtype=float), 1e-300))
    return float(np.polyfit(hs, errs, 1)[0])


def _reference_ratio(values):
    """The ladder ratio that ``runner._ladder`` replaced, as it was."""
    return max((b / a for a, b in zip(values, values[1:]) if a > 0), default=None)


_LEVELS = st.one_of(st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=8, unique=True),
                    st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=8, unique=True))


@settings(max_examples=200, deadline=None)
@given(levels=_LEVELS, data=st.data())
def test_ladder_matches_the_old_fit_and_ratio_on_positive_values(levels, data):
    # above 1e-300 the old floor changed no value, so the fit agrees bit for bit
    values = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=len(levels),
                                max_size=len(levels)))
    curve, order, ratio = runner._ladder(levels, values)
    assert curve == [[level, value] for level, value in zip(levels, values)]
    assert [type(level) for level, _ in curve] == [type(level) for level in levels]
    assert order == _reference_order(levels, values)
    assert ratio == _reference_ratio(values)


def test_ladder_fits_only_the_levels_that_count():
    # a zero level is left out of the fit of an h^2 ladder, where the old
    # floor read it as 1e-300 and fitted an order above 100
    levels, values = [1.0, 0.5, 0.25, 0.125], [1.0, 0.25, 0.0, 0.015625]
    assert _reference_order(levels, values) > 100
    curve, order, ratio = runner._ladder(levels, values)
    assert curve == [[1.0, 1.0], [0.5, 0.25], [0.25, 0.0], [0.125, 0.015625]]
    assert order == pytest.approx(2.0) and ratio == 0.25
    # one level that counts fits no order, and a ladder of zeros gives no ratio
    assert runner._ladder([1, 2, 3], [0.0, 5.0, 0.0])[1:] == (None, 0.0)
    assert runner._ladder([1, 2], [0.0, 0.0])[1:] == (None, None)
    assert runner._ladder([4], [1.0]) == ([[4, 1.0]], None, None)


# One shipped config and one change per os_reconstruct check that no
# shipped config fails: the reflected pairing of an ou_mixture kernel is not
# reflection positive in the plane, so four generic bumps on a 2-D grid give a
# twisted Gram with a negative eigenvalue; and five bumps under a cutoff of
# 1e-17 keep a quotient of rank 3 for 2 masses, whose third eigenvalue is
# held to a target of 0.
_PLANE = {"grid": {"origin": [-2.0, -1.0], "spacing": 0.1, "shape": [41, 21]},
          "bumps": [{"center": c, "width": 0.3} for c in
                    ([0.64, -0.23], [0.37, -0.48], [0.72, 0.41], [0.62, 0.23])],
          "expected_rank": 3, "times_cells": [2, 4], "law_pairs_cells": [[2, 2]]}
_FIVE_BUMPS = {"bumps": [{"center": [c], "width": 0.3} for c in (0.5, 0.8, 1.1, 1.4, 1.7)],
               "rank_cutoff": 1e-17}


@pytest.mark.parametrize("change, check", [
    (_PLANE, "twisted_psd_min_ratio"),
    (_FIVE_BUMPS, "quotient_rank"),
], ids=["plane", "five-bumps"])
def test_os_reconstruct_checks_fail_on_their_witness(tmp_path, capsys, change, check):
    code, checks = _run_checks(tmp_path, capsys,
                               {**_shipped("os_reconstruct_mixture"), **change})
    assert code == cli.EXIT_CHECK_FAILURE
    assert checks[check]["passed"] is False


def test_cli_list_builtins(capsys):
    assert cli.main(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert "fock" in out
    assert "exp(<x, y>)" in out
    assert "euclidean_motion" in out
    assert out.strip()
    # each builtin's params, read from its key table, under its line
    lines = out.splitlines()
    for tables in (config.KERNEL_PARAMS, config.ALGEBRA_PARAMS, config.ACTION_PARAMS,
                   config.FIELD_PARAMS):
        for name, table in tables.items():
            line = next(i for i, text in enumerate(lines) if text.split()[:1] == [name])
            shown = lines[line + 1].split("params: ")[1] if table else ""
            assert shown == ", ".join(
                f"{key} (required)" if rule.required else f"{key} (optional)"
                if rule.default is None else f"{key}={json.dumps(rule.default)}"
                for key, rule in table.items()), name
    assert "sigma=1.0" in out and "n_atoms=32" in out and 'domain="plane"' in out
    assert "masses (required), weights (optional)" in out


def test_cli_parser_built_once_gives_each_call_its_own_arguments(tmp_path):
    # main builds its parser once per process; a call after others must see
    # only its own arguments: exit codes, output and CSV files are those of
    # a fresh parser's call
    bracket = os.path.join(CONFIG_DIR, "bracket_order.json")
    csv_dir = tmp_path / "csv"
    argvs = [["run", bracket, "--stable-output", "--csv-dir", str(csv_dir)],
             ["run", bracket], ["validate", bracket], ["list-builtins"],
             ["run", bracket, "--no-such-flag"]]

    def fresh(argv):
        args = cli.build_parser().parse_args(argv)
        return args.func(args)

    def sequence(main):
        seen = []
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = main(argv)
                except SystemExit as exc:      # argparse rejects the argv
                    code = exc.code
            text = out.getvalue()
            if argv == ["run", bracket]:
                # the only output that varies between runs: wall seconds
                report = json.loads(text)
                assert report.pop("timings")
                text = json.dumps(report)
            seen.append((code, text, err.getvalue()))
            if csv_dir.exists():
                seen.append(sorted(os.listdir(csv_dir)))
                for name in os.listdir(csv_dir):
                    os.remove(csv_dir / name)
                csv_dir.rmdir()
        return seen

    cached = sequence(cli.main)
    assert [entry[0] for entry in cached if isinstance(entry, tuple)] == [
        cli.EXIT_PASS] * 4 + [cli.EXIT_CONFIG_ERROR]
    # only the first run writes CSV files, and only it drops the timings
    assert [isinstance(entry, list) for entry in cached] == [False, True] + [False] * 4
    assert cached == sequence(fresh)


def test_cli_run_reports_failure_exit(tmp_path, capsys):
    # a tolerance so tight it must fail: exit code 1 and the check named
    cfg = _write(tmp_path, {
        "kind": "compatibility", "seed": 5,
        "kernel": {"name": "gaussian_rbf", "params": {}},
        "action": {"name": "translation", "params": {"dimension": 1}},
        "samples": {"type": "chebyshev", "n": 8},
    })
    code = cli.main(["run", cfg, "--stable-output"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_CHECK_FAILURE
    report = json.loads(out)
    assert report["passed"] is False
    failing = [c["name"] for c in report["checks"] if c["passed"] is False]
    assert "compatibility_max_defect" in failing


def test_cli_unknown_builtin_name(tmp_path):
    cfg = _write(tmp_path, {
        "kind": "froelich", "seed": 1,
        "kernel": {"name": "not_a_kernel", "params": {}},
        "field": {"name": "constant", "params": {"vector": [1.0]}},
        "samples": {"type": "explicit", "points": [[0.0]]},
    })
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG_ERROR


def test_cli_numeric_error_exit(tmp_path, capsys):
    # the flow of x^2 exits its chart before reaching the requested time
    cfg = _write(tmp_path, {
        "kind": "froelich", "seed": 1,
        "kernel": {"name": "laplace", "params": {"atoms": [[2.0]],
                                                 "weights": [1.0]}},
        "field": {"name": "quadratic1d", "params": {}},
        "samples": {"type": "explicit", "points": [[0.9]]},
        "start_point": [0.9],
        "time": 1.0,
    })
    code = cli.main(["run", cfg])
    capsys.readouterr()
    assert code == cli.EXIT_NUMERIC_ERROR


def test_declared_algebra_consistency(tmp_path):
    from kerflow.algebra import abelian
    alg = abelian(1)
    base = {
        "kind": "cdual_rep", "seed": 1,
        "kernel": {"name": "laplace", "params": {"atoms": [[-1.0], [1.0]],
                                                 "weights": [0.5, 0.5]}},
        "action": {"name": "translation", "params": {"dimension": 1}},
        "samples": {"type": "chebyshev", "n": 9},
        "algebra": {"structure_constants": alg.structure.tolist(),
                    "involution": np.diag(alg.involution).tolist(),
                    "labels": list(alg.labels)},
    }
    cfg = parse_config(_write(tmp_path, base))
    assert run_experiment(cfg).passed
    base["algebra"] = {"name": "abelian", "params": {"d": 2}}
    cfg = parse_config(_write(tmp_path, base))
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def _quiet(argv):
    """Exit code, stdout and stderr of one in-process ``kerflow`` command."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        return cli.main(argv), out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def shipped_replay(tmp_path_factory):
    """``kerflow run --stable-output`` on every shipped config, each run once
    per module, then ``validate`` on each and ``list-builtins``, then
    ``validate`` and, if it passes, ``run --stable-output`` on each config of
    ``_BUILTIN_RUNS``, all under a profiler.  Returns the shipped runs as
    (file name, exit code, report), the (file, first line) of the code of
    every function they all entered, and per catalog builtin the ``_quiet``
    results of its validate and of its run (None when it did not run)."""
    entered = set()
    catalog_dir, catalog = tmp_path_factory.mktemp("catalog"), {}
    for name in _BUILTIN_RUNS:
        (catalog_dir / f"{name}.json").write_text(json.dumps(_builtin_run_config(name)))

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    paths = [os.path.join(CONFIG_DIR, name) for name in sorted(os.listdir(CONFIG_DIR))]
    runs = []
    # the parser and each bump box are built once per process: build them
    # inside the replay, as a fresh process does, whatever ran before
    cli._parser.cache_clear()
    config._bump_box.cache_clear()
    sys.setprofile(record)
    try:
        for path in paths:
            code, out, _ = _quiet(["run", path, "--stable-output"])
            runs.append((os.path.basename(path), code, json.loads(out)))
        validated = [_quiet(["validate", path])[0] for path in paths]
        listed = _quiet(["list-builtins"])[0]
        for name in _BUILTIN_RUNS:
            path = str(catalog_dir / f"{name}.json")
            checked = _quiet(["validate", path])
            catalog[name] = checked, (_quiet(["run", path, "--stable-output"])
                                      if checked[0] == cli.EXIT_PASS else None)
    finally:
        sys.setprofile(None)
    assert validated == [cli.EXIT_PASS] * len(paths) and listed == cli.EXIT_PASS
    return runs, {(os.path.realpath(f), line) for f, line in entered}, catalog


def test_checks_appear_exactly_once(shipped_replay):
    # each report carries the checks of its kind's table, each once, in order
    for name, _, report in shipped_replay[0]:
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)), name
        assert names == list(CHECKS[report["kind"]]), name


def test_every_shipped_config_passes(shipped_replay):
    for name, code, report in shipped_replay[0]:
        assert report["passed"] and code == cli.EXIT_PASS, \
            f"{name}: {[c['name'] for c in report['checks'] if c['passed'] is False]}"


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
_ABSENT = "<absent>"


def _moved_values(old, new, path="$"):
    """One line per leaf where report ``new`` differs from ``old``: its JSON
    path, both values and, for numbers, the relative move.  A value that
    changes type (1 to 1.0) moves too."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _moved_values(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                     f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved_values(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or (old != new and not (old != old and new != new)):
        line = f"{path}: {old!r} -> {new!r}"
        if isinstance(old, float) and isinstance(new, float):
            line += (f" (relative move {abs(new - old) / abs(old):.3e})" if old
                     else " (from zero)")
        yield line


def test_shipped_reports_match_their_golden_files(shipped_replay):
    """Each shipped config's ``--stable-output`` report is byte-identical to
    its file under tests/golden/, so a refactor that moves a reported value
    fails here and names it.  The bytes depend on the numpy and OpenBLAS
    builds: on another build this test can fail at rounding level.  Rewrite
    the files with scripts/write_golden_reports.py only on purpose, and name
    every moved value in CHANGES.md."""
    runs = shipped_replay[0]
    assert sorted(os.listdir(GOLDEN_DIR)) == [name for name, _, _ in runs]
    moved = []
    for name, _, report in runs:
        # the CLI prints json.dumps(report, indent=2, sort_keys=True), and a
        # float survives the round trip through json.loads exactly
        moved += _golden_moves(name, json.dumps(report, indent=2, sort_keys=True) + "\n",
                               os.path.join(GOLDEN_DIR, name))
    if moved:
        pytest.fail("values moved from tests/golden:\n" + "\n".join(moved))


def _golden_moves(name, text, golden_path):
    """The ``_moved_values`` lines of report ``text`` against its golden file,
    none when the bytes agree."""
    with open(golden_path) as handle:
        golden = handle.read()
    if text == golden:
        return []
    lines = list(_moved_values(json.loads(golden), json.loads(text)))
    return [f"{name} {line}" for line in lines or ["$: other bytes, same values"]]


WORKLOAD_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_workloads")


@pytest.mark.parametrize("workload", ["gram_ladder", "grid_quotient"])
def test_workload_reports_match_their_golden_files(workload):
    """The benchmark workload's configs at seed 4, committed under
    tests/golden_workloads/<workload>/configs/, each give the report under
    .../reports/ byte for byte, and pass.  They run as the script that
    writes them runs them, in a child process with one BLAS thread, since
    their 289-point Gram spectra round differently under another thread
    count.  Same build caveat as the shipped golden files;
    scripts/write_golden_reports.py rewrites both."""
    configs = os.path.join(WORKLOAD_GOLDEN_DIR, workload, "configs")
    reports = os.path.join(WORKLOAD_GOLDEN_DIR, workload, "reports")
    names = sorted(os.listdir(configs))
    assert names and sorted(os.listdir(reports)) == names
    runs = _module_from_file("scripts", "write_golden_reports.py").pinned_runs(configs)
    assert sorted(runs) == names
    moved = []
    for name, (code, text) in runs.items():
        assert code == cli.EXIT_PASS, name
        moved += _golden_moves(name, text, os.path.join(reports, name))
    if moved:
        pytest.fail(f"values moved from tests/golden_workloads/{workload}:\n"
                    + "\n".join(moved))


def test_golden_mismatch_names_each_moved_value():
    old = {"checks": [{"name": "a", "value": 2.0}, {"name": "b", "value": 0.0}],
           "curves": {"x": [1.0, float("nan")]}, "passed": True}
    new = {"checks": [{"name": "a", "value": 2.5}, {"name": "b", "value": 1e-3}],
           "curves": {"x": [1.0, float("nan")], "y": []}, "passed": 1}
    assert list(_moved_values(old, new)) == [
        "$.checks[0].value: 2.0 -> 2.5 (relative move 2.500e-01)",
        "$.checks[1].value: 0.0 -> 0.001 (from zero)",
        "$.curves.y: '<absent>' -> []",
        "$.passed: True -> 1"]
    assert list(_moved_values(old, old)) == []


def _named_functions():
    """(file, first line) -> name of each function of src/kerflow defined at
    module level or in a class body; a decorated function's code starts at
    its first decorator.  Nested functions and lambdas run inside the call
    of the function that holds them."""
    names = {}
    package = os.path.dirname(kerflow.__file__)
    for file in sorted(os.listdir(package)):
        if not file.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(package, file))
        with open(path) as handle:
            scopes = [(node, file[:-3]) for node in ast.parse(handle.read()).body]
        for node, owner in scopes:
            if isinstance(node, ast.ClassDef):
                scopes += [(child, f"{owner}.{node.name}") for child in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                names[(path, first)] = f"{owner}.{node.name}"
    return names


_CLASS_2 = "Class 2 (the distribution kernel), awaiting promotion into a kind"
_TRACER = "perfbench/tracer.py names it"
_PAIRS = ("homomorphism_defect compares a compatibility action's element pairs with it, "
          "and no shipped or catalog config has an action of two or more elements")
_FAILURE = "reached when a flow leaves its chart"
# functions that no shipped or catalog config, ``validate`` or
# ``list-builtins`` reaches, each with the reason it stays
_UNREACHED = {
    "representation.h_group_rep": "Class 1 (the H-group part), awaiting promotion "
                                  "into cdual_rep",
    "distributions.distribution_froelich_check": _CLASS_2,
    "distributions.distribution_lie_derivative": _CLASS_2,
    "distributions.directional_derivative": _CLASS_2,
    "distributions.smeared_gram": _CLASS_2,
    "distributions.SmearedKernel.from_matrix": _CLASS_2,
    "distributions.SmearedKernel.hermiticity_defect": _CLASS_2,
    "distributions.TestFunction.integral": _CLASS_2,
    "kernels.embed_index": _CLASS_2,
    "operators.CompatibleAction.field": _PAIRS,
    "distributions.grid_shift_matrix": _TRACER,
    "distributions.SmearedKernel.pairing": _TRACER,
    "distributions.SmearedKernel.matrix": _TRACER,
    "kernels.Kernel.grad1": _TRACER,
    "kernels.entrywise_kernel": "the entry point of a user's scalar kernel",
    "runner._write_csv": "reached through --csv-dir",
    "config._shear_axis": "runs at import, building FIELD_PARAMS",
    "__init__.__getattr__": "runs when a submodule is first imported",
    "config._builtin": "runs at import, building SCHEMAS",
    "config._samples": "runs at import, building SCHEMAS",
    "config._curve_time": "runs at import, building SCHEMAS",
    "config._range": "runs at import, building SCHEMAS",
    "algebra.algebra_bracket": _PAIRS,
    "algebra.SymmetricPairReport.max_defect": "reached when c_dual rejects an algebra "
                                              "that is not a symmetric pair",
    "flows._stop": _FAILURE,
    "flows._label": _FAILURE,
}


def test_every_function_is_reached_or_allowed(shipped_replay):
    reached = shipped_replay[1]
    unreached = {name for key, name in _named_functions().items() if key not in reached}
    assert sorted(unreached - _UNREACHED.keys()) == []
    # an entry that something reaches again leaves the list
    assert sorted(_UNREACHED.keys() - unreached) == []


def _module_from_file(*parts):
    """A script of the repository outside the package, imported by path."""
    path = os.path.join(os.path.dirname(__file__), "..", *parts)
    spec = importlib.util.spec_from_file_location(os.path.splitext(parts[-1])[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_workload_file_validates():
    # the benchmark's set-up aborts the whole run when validate rejects one of
    # the files it generates, so a config rule made tighter must keep them all
    workloads = _module_from_file("perfbench", "workloads.py")
    rejected = []
    for workload, seed in itertools.product(workloads.WORKLOADS, range(21)):
        for stem, data in workloads.generate(workload, seed, CONFIG_DIR).items():
            try:
                validate_config(data)
            except ConfigError as exc:
                rejected.append((workload, seed, stem, str(exc)))
    assert rejected == []


def test_perfbench_check_lists_read_the_table():
    # the benchmark keeps its own copy of the check lists; a check renamed
    # here but not there would count every report of its kind as failed
    script = os.path.join(os.path.dirname(__file__), "..", "perfbench", "run.py")
    with open(script) as handle:
        tree = ast.parse(handle.read())
    found = {target.id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) for target in node.targets
             if isinstance(target, ast.Name) and target.id in ("CHECKS", "INFORMATIONAL")}
    assert found["CHECKS"] == {kind: tuple(checks) for kind, checks in CHECKS.items()}
    assert found["INFORMATIONAL"] == {name for checks in CHECKS.values()
                                      for name, entry in checks.items() if entry is None}


def test_traced_grid_runs_keep_what_the_benchmark_tracer_reads(capsys):
    # the benchmark's tracer patches SmearedKernel.from_distance_profile (a
    # classmethod) and .pairing, and reads .matrix of the result; a library
    # change that drops one of them breaks every traced grid run
    tracer = _module_from_file("perfbench", "tracer.py")
    for stem in ("rp_axioms", "os_reconstruct_ou"):
        with tracer.Tracer() as t:
            code = cli.main(["run", os.path.join(CONFIG_DIR, stem + ".json"),
                             "--stable-output"])
        capsys.readouterr()
        assert code == cli.EXIT_PASS, stem
        summary = t.summary()
        assert summary["distributions.from_distance_profile.calls"] >= 1, stem
        assert summary["distributions.from_distance_profile.bytes_computed"] > 0, stem


def _cfg(kind, body=None):
    """A config of ``kind`` at its default tolerances."""
    return ExperimentConfig(kind, 1, {entry[0]: entry[1] for entry in CHECKS[kind].values()
                                      if entry is not None and entry[1] is not None},
                            body or {}, {})


def _verdicts(cfg, values, failed=()):
    return {c.name: (c.value, c.tolerance, c.passed)
            for c in runner._checks(cfg, values, failed)}


def test_checks_at_the_boundary_of_le_and_lt():
    # froelich: relative_error <= 1e-3, monotone_max_ratio < 1.0
    got = _verdicts(_cfg("froelich"), {"relative_error": 1e-3, "monotone_max_ratio": 1.0})
    assert got["relative_error"] == (1e-3, 1e-3, True)
    assert got["monotone_max_ratio"] == (1.0, 1.0, False)
    got = _verdicts(_cfg("froelich"), {"relative_error": 2e-3, "monotone_max_ratio": 0.5})
    assert got["relative_error"][2] is False and got["monotone_max_ratio"][2] is True


def test_checks_at_the_boundary_of_ge():
    got = _verdicts(_cfg("bracket_order"), {"min_fitted_order": 1.8,
                                            "max_fitted_order": 2.2})
    assert got["min_fitted_order"] == (1.8, 1.8, True)
    assert got["max_fitted_order"] == (2.2, 2.2, True)
    got = _verdicts(_cfg("bracket_order"), {"min_fitted_order": 1.7,
                                            "max_fitted_order": 2.3})
    assert got["min_fitted_order"][2] is False and got["max_fitted_order"][2] is False


def test_checks_at_the_boundary_of_ge_minus_tol():
    cfg = _cfg("luscher_mack")
    assert _verdicts(cfg, {"psd_min_ratio": -1e-10})["psd_min_ratio"] == \
        (-1e-10, 1e-10, True)
    assert _verdicts(cfg, {"psd_min_ratio": -2e-10})["psd_min_ratio"][2] is False


def test_checks_hold_the_rank_to_the_expected_rank():
    cfg = _cfg("os_reconstruct", {"expected_rank": 3})
    assert _verdicts(cfg, {"quotient_rank": 3.0})["quotient_rank"] == (3.0, 3.0, True)
    assert _verdicts(cfg, {"quotient_rank": 2.0})["quotient_rank"] == (2.0, 3.0, False)


def test_checks_named_failed_fail_within_tolerance():
    cfg = _cfg("compatibility")
    got = _verdicts(cfg, {"invariance_max_drift": 0.0}, ["invariance_max_drift"])
    assert got["invariance_max_drift"] == (0.0, 1e-8, False)
    got = _verdicts(cfg, {}, ["invariance_max_drift"])
    assert got["invariance_max_drift"] == (None, 1e-8, False)


def test_checks_without_a_value_are_null():
    got = _verdicts(_cfg("cdual_rep"), {"skew_defect_max": None,
                                        "commutation_defect_final": 0.5})
    # a missing or None value is informational, as is a check without a test
    assert got["skew_defect_max"] == (None, 1e-8, None)
    assert got["conjugation_max_ratio"] == (None, 1.0, None)
    assert got["commutation_defect_final"] == (0.5, None, None)


def test_checks_reject_a_name_outside_the_table():
    with pytest.raises(KeyError):
        runner._checks(_cfg("froelich"), {"relative_eror": 0.0})
    with pytest.raises(KeyError):
        runner._checks(_cfg("froelich"), {}, ["monotone_ratio"])


def test_stable_output_is_byte_identical(tmp_path):
    path = os.path.join(CONFIG_DIR, "os_reconstruct_ou.json")
    cfg = parse_config(path)
    a = run_experiment(cfg).to_json(stable_output=True)
    b = run_experiment(cfg).to_json(stable_output=True)
    assert a == b
    with_timings = run_experiment(cfg).to_json(stable_output=False)
    assert "timings" in with_timings


def test_csv_side_files(tmp_path):
    path = os.path.join(CONFIG_DIR, "os_reconstruct_mixture.json")
    cfg = parse_config(path)
    run_experiment(cfg, csv_dir=str(tmp_path), csv_stem="mix")
    out = tmp_path / "mix__semigroup_eigenvalues.csv"
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "t,eigenvalue_index,value"


def test_gram_spectrum_export(tmp_path):
    cfg = parse_config(os.path.join(CONFIG_DIR, "cdual_abelian.json"))
    report = run_experiment(cfg, csv_dir=str(tmp_path), csv_stem="abelian")
    lines = (tmp_path / "abelian__gram_spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 1 + len(report.curves["gram_spectrum"]) == 1 + 15


def _shipped(stem):
    with open(os.path.join(CONFIG_DIR, stem + ".json")) as handle:
        return json.load(handle)


def _drop(*path):
    """Delete the key at the end of ``path``."""
    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return mutate


def _zero_size(key):
    def mutate(data):
        del data["samples"]["refinement"]
        data["samples"][key] = 0
    return mutate


# a grid with one axis more than a test-function grid has
_THREE_AXES = {"origin": [-3.0, -0.6, -0.6], "spacing": 0.2, "shape": [31, 7, 7], "margin": 2}


# each input used to escape the contract at run time: a KeyError, numpy or
# index error (exit 1) or an EmptyModelError (exit 3)
@pytest.mark.parametrize("stem, mutate, json_path", [
    ("cdual_euclidean", lambda d: d.pop("kernel"), "$.kernel"),
    ("cdual_euclidean", _zero_size("n_side"), "$.samples.n_side"),
    ("cdual_abelian", lambda d: d["samples"].update(n=0), "$.samples.n"),
    ("froelich_laplace", _zero_size("n"), "$.samples.n"),
    ("rp_axioms", lambda d: d.update(kernel={"name": "gaussian_rbf", "params": {}}),
     "$.kernel.name"),
    ("rp_axioms", lambda d: d.update(translations=[{"cells": [41, 0]}]),
     "$.translations[0].cells"),
    ("rp_axioms", lambda d: d.update(translations=[{"cells": [-45, 0]}]),
     "$.translations[0].cells"),
    ("rp_axioms", lambda d: d.update(parallel_translations=[{"cells": [0]}]),
     "$.parallel_translations[0].cells"),
    ("compatibility", lambda d: d.pop("action"), "$.action"),
    ("froelich_rank1", lambda d: d.pop("field"), "$.field"),
    ("cdual_abelian", lambda d: d.pop("samples"), "$.samples"),
    ("cdual_halfplane", lambda d: d["samples"].update(refinement=[0, 5]),
     "$.samples.refinement[0]"),
    ("cdual_halfplane", lambda d: d["samples"].update(refinement=[]),
     "$.samples.refinement"),
    ("cdual_abelian", lambda d: d["kernel"].pop("name"), "$.kernel.name"),
    ("os_reconstruct_ou", lambda d: d["kernel"].update(params={}),
     "$.kernel.params.masses"),
    ("os_reconstruct_ou", lambda d: d.pop("times_cells"), "$.times_cells"),
    ("os_reconstruct_ou", lambda d: d.update(times_cells=[-3]), "$.times_cells[0]"),
    ("os_reconstruct_ou", lambda d: d.update(bumps=[]), "$.bumps"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(times_cells=[]),
                 "$.times_cells", id="os_reconstruct_ou-no-times"),
    ("os_reconstruct_mixture", lambda d: d.update(law_pairs_cells=[[4, -6]]),
     "$.law_pairs_cells[0][1]"),
    pytest.param("os_reconstruct_mixture", lambda d: d.update(law_pairs_cells=[[4]]),
                 "$.law_pairs_cells[0]", id="os_reconstruct_mixture-short-pair"),
    pytest.param("os_reconstruct_mixture",
                 lambda d: d.update(law_pairs_cells=[[4, 6, 8]]),
                 "$.law_pairs_cells[0]", id="os_reconstruct_mixture-long-pair"),
    pytest.param("os_reconstruct_mixture", lambda d: d.update(law_pairs_cells=[4]),
                 "$.law_pairs_cells[0]", id="os_reconstruct_mixture-bare-pair"),
    ("bracket_order", lambda d: d.pop("pairs"), "$.pairs"),
    # a JSON boolean is no integer
    pytest.param("os_reconstruct_ou", lambda d: d.update(times_cells=[True]),
                 "$.times_cells[0]", id="bool-times-cells"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(seed=True), "$.seed",
                 id="bool-seed"),
    pytest.param("compatibility", lambda d: d["tolerances"].update(invariance=False),
                 "$.tolerances.invariance", id="bool-tolerance"),
    # keys a sample type reads
    pytest.param("cdual_abelian", _drop("samples", "n"), "$.samples.n",
                 id="chebyshev-without-n"),
    pytest.param("cdual_halfplane",
                 lambda d: [d["samples"].pop(k) for k in ("n_side", "refinement")],
                 "$.samples.n_side", id="grid2d-without-n-side"),
    pytest.param("compatibility",
                 lambda d: (d["samples"].pop("n"), d["samples"].update(refinement=[5, 9])),
                 "$.samples.n", id="compatibility-ladder-without-n"),
    pytest.param("compatibility", lambda d: d["samples"].update(type="circles"),
                 "$.samples.radii", id="circles-without-radii"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="circles", radii=[0.5]),
                 "$.samples.n_per_circle", id="circles-without-count"),
    pytest.param("compatibility", lambda d: d["samples"].update(type="explicit"),
                 "$.samples.points", id="explicit-without-points"),
    pytest.param("compatibility", lambda d: d["samples"].update(type="nope"),
                 "$.samples.type", id="unknown-sample-type"),
    # params a builtin reads without a default
    pytest.param("froelich_rank1", _drop("field", "params"), "$.field.params.vector",
                 id="constant-without-vector"),
    pytest.param("froelich_rank1", _drop("kernel", "params", "atoms"),
                 "$.kernel.params.atoms", id="laplace-without-atoms"),
    pytest.param("froelich_rank1",
                 lambda d: d.update(kernel={"name": "det", "params": {"power": 2}}),
                 "$.kernel.params.n", id="det-without-n"),
    pytest.param("flow_laws", _drop("fields", 1, "params", "matrix"),
                 "$.fields[1].params.matrix", id="affine-without-matrix"),
    pytest.param("bracket_order", _drop("pairs", 1, "y", "params", "vector"),
                 "$.pairs[1].y.params.vector", id="pair-field-without-vector"),
    pytest.param("cdual_abelian",
                 lambda d: d.update(action={"name": "matrix_right_multiplication"}),
                 "$.action.params.n", id="matrix-action-without-n"),
    pytest.param("cdual_abelian", lambda d: d.update(algebra={"name": "abelian"}),
                 "$.algebra.params.d", id="abelian-without-d"),
    pytest.param("cdual_abelian", _drop("algebra", "involution"),
                 "$.algebra.involution", id="custom-algebra-without-involution"),
    # keys the other blocks read
    pytest.param("compatibility", lambda d: d["invariance"][0].update(t_max=0.0),
                 "$.invariance[0].t_max", id="invariance-zero-t-max"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(step=-1e-3),
                 "$.invariance[0].step", id="invariance-negative-step"),
    pytest.param("compatibility", _drop("invariance", 0, "pair"),
                 "$.invariance[0].pair", id="invariance-without-pair"),
    pytest.param("cdual_euclidean", _drop("conjugation", "s"), "$.conjugation.s",
                 id="conjugation-without-s"),
    pytest.param("os_reconstruct_ou", _drop("bumps", 0, "width"), "$.bumps[0].width",
                 id="bump-without-width"),
    # pairs the runner unpacks
    pytest.param("luscher_mack_power", lambda d: d.update(interval=[0.2]),
                 "$.interval", id="short-interval"),
    pytest.param("luscher_mack_power", lambda d: d.update(interval=[0.2, 0.5, 0.9]),
                 "$.interval", id="long-interval"),
    pytest.param("luscher_mack_det", lambda d: d.update(spectral_range=[0.05]),
                 "$.spectral_range", id="short-spectral-range"),
    pytest.param("luscher_mack_det",
                 lambda d: d.update(spectral_range=[0.05, 0.4, 0.8]),
                 "$.spectral_range", id="long-spectral-range"),
    pytest.param("luscher_mack_det", lambda d: d.update(spectral_range=[0.05, "zz"]),
                 "$.spectral_range[1]", id="spectral-range-entry"),
    # entries of the lists the runners read
    pytest.param("cdual_euclidean", lambda d: d["samples"].update(x_range=["a", 1.0]),
                 "$.samples.x_range[0]", id="x-range-entry"),
    pytest.param("cdual_euclidean", lambda d: d["samples"].update(x_range=[1.0]),
                 "$.samples.x_range", id="short-x-range"),
    pytest.param("cdual_halfplane", lambda d: d["samples"].update(y_range=[0, 1, 2]),
                 "$.samples.y_range", id="long-y-range"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="circles", radii=[0.5, 0.0],
                                               n_per_circle=4),
                 "$.samples.radii[1]", id="zero-radius"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="circles", radii=[], n_per_circle=4),
                 "$.samples.radii", id="no-radii"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="explicit", points=[[0.1], ["a"]]),
                 "$.samples.points[1][0]", id="point-entry"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="explicit", points=[[0.1], [0.2, 0.3]]),
                 "$.samples.points[1]", id="ragged-points"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="explicit", points=[]),
                 "$.samples.points", id="no-points"),
    pytest.param("cdual_euclidean", lambda d: d.update(unitary_times=["a"]),
                 "$.unitary_times[0]", id="unitary-time-entry"),
    # no time would compare nothing and pass
    pytest.param("cdual_euclidean", lambda d: d.update(unitary_times=[]),
                 "$.unitary_times", id="no-unitary-times"),
    pytest.param("bracket_order", lambda d: d.update(h_ladder=["a", 0.1]),
                 "$.h_ladder[0]", id="h-ladder-entry"),
    pytest.param("bracket_order", lambda d: d.update(h_ladder=[0.0, 0.1]),
                 "$.h_ladder[0]", id="zero-h"),
    pytest.param("bracket_order", lambda d: d.update(h_ladder=[0.01]),
                 "$.h_ladder", id="one-h"),
    pytest.param("froelich_rank1", lambda d: d.update(start_point=["a"]),
                 "$.start_point[0]", id="start-point-entry"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(pair=[[0.0], ["a"]]),
                 "$.invariance[0].pair[1][0]", id="pair-point-entry"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(pair=[[0.0], 0.3]),
                 "$.invariance[0].pair[1]", id="pair-bare-point"),
    # RK4 steps per curve
    pytest.param("froelich_rank1", lambda d: d.update(step=0), "$.step", id="zero-step"),
    pytest.param("froelich_rank1", lambda d: d.update(step=-0.001), "$.step",
                 id="negative-step"),
    pytest.param("froelich_rank1", lambda d: d.update(time=1e300), "$.time",
                 id="huge-time"),
    pytest.param("froelich_rank1", lambda d: d.update(time=-1e300), "$.time",
                 id="huge-negative-time"),
    pytest.param("froelich_rank1", lambda d: d.update(time=10 ** 400), "$.time",
                 id="huge-integer-time"),
    pytest.param("froelich_rank1", lambda d: (d.pop("step"), d.update(time=101.0)),
                 "$.time", id="time-over-default-step"),
    pytest.param("froelich_rank1", lambda d: d.update(time=1.0, step=1e-6), "$.time",
                 id="tiny-step"),
    pytest.param("flow_laws", lambda d: d.update(t_range=1e300), "$.t_range",
                 id="huge-t-range"),
    # integer sizes: each is bounded, so a huge one asks for no unbounded work
    pytest.param("luscher_mack_det", lambda d: d.update(n_samples=10 ** 300),
                 "$.n_samples", id="huge-n-samples"),
    pytest.param("luscher_mack_power", lambda d: d.update(n_samples=0),
                 "$.n_samples", id="no-samples"),
    pytest.param("luscher_mack_det", lambda d: d.update(matrix_size=10 ** 300),
                 "$.matrix_size", id="huge-matrix-size"),
    pytest.param("cdual_abelian", lambda d: d["samples"].update(n=10 ** 300),
                 "$.samples.n", id="huge-sample-count"),
    pytest.param("froelich_laplace", lambda d: d["samples"].update(dimension=10 ** 300),
                 "$.samples.dimension", id="huge-sample-dimension"),
    pytest.param("cdual_halfplane", lambda d: d["samples"].update(refinement=[3, 5, 45]),
                 "$.samples.refinement[2]", id="grid2d-ladder-side"),
    # a sample box of no extent samples one point, whatever the count
    pytest.param("cdual_abelian", lambda d: d["samples"].update(halfwidth=0),
                 "$.samples.halfwidth", id="zero-halfwidth"),
    pytest.param("froelich_laplace", lambda d: d["samples"].update(halfwidth=-1.0),
                 "$.samples.halfwidth", id="negative-halfwidth"),
    # a ladder where no level would be read replays the same points
    pytest.param("froelich_rank1", lambda d: d["samples"].update(refinement=[1, 2]),
                 "$.samples.refinement", id="explicit-samples-ladder"),
    pytest.param("cdual_euclidean",
                 lambda d: d.update(samples={"type": "circles", "radii": [0.5],
                                             "n_per_circle": 4, "refinement": [4, 8]}),
                 "$.samples.refinement", id="circles-ladder"),
    pytest.param("compatibility", lambda d: d["samples"].update(refinement=[11, 21]),
                 "$.samples.refinement", id="compatibility-ladder"),
    pytest.param("compatibility",
                 lambda d: d["samples"].update(type="circles", radii=[0.5],
                                               n_per_circle=10 ** 300),
                 "$.samples.n_per_circle", id="huge-circle-count"),
    pytest.param("flow_laws", lambda d: d.update(n_time_samples=10 ** 300),
                 "$.n_time_samples", id="huge-time-samples"),
    pytest.param("bracket_order", lambda d: d.update(n_points=10 ** 300),
                 "$.n_points", id="huge-bracket-points"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(shape=[41, 10 ** 300]),
                 "$.grid.shape", id="huge-grid-extent"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(shape=[64, 33]),
                 "$.grid.shape", id="grid-cell-count"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(times_cells=[10 ** 300]),
                 "$.times_cells[0]", id="huge-times-cells"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(t_max=1e300),
                 "$.invariance[0].t_max", id="huge-t-max"),
    # builtin params, checked against the key table beside each builder
    pytest.param("cdual_euclidean", lambda d: d["kernel"]["params"].update(n_atoms=10 ** 300),
                 "$.kernel.params.n_atoms", id="huge-n-atoms"),
    pytest.param("cdual_euclidean",
                 lambda d: d["kernel"]["params"].update(nn_atoms=d["kernel"]["params"]
                                                        .pop("n_atoms")),
                 "$.kernel.params.nn_atoms", id="unknown-kernel-param"),
    pytest.param("compatibility", lambda d: d["action"]["params"].update(dimension=2.5),
                 "$.action.params.dimension", id="fractional-dimension"),
    pytest.param("compatibility", lambda d: d["action"]["params"].update(dimension=10 ** 300),
                 "$.action.params.dimension", id="huge-dimension"),
    pytest.param("cdual_halfplane", lambda d: d["action"]["params"].update(p="1"),
                 "$.action.params.p", id="string-euclidean-p"),
    pytest.param("cdual_halfplane", lambda d: d["kernel"]["params"].update(mass=0.0),
                 "$.kernel.params.mass", id="zero-bessel-mass"),
    pytest.param("froelich_rank1", lambda d: d["kernel"]["params"].update(weights=[-1.0]),
                 "$.kernel.params.weights[0]", id="negative-laplace-weight"),
    pytest.param("froelich_rank1",
                 lambda d: d.update(kernel={"name": "det",
                                            "params": {"n": 10 ** 300, "power": 2}}),
                 "$.kernel.params.n", id="huge-det-n"),
    pytest.param("os_reconstruct_ou", lambda d: d["kernel"]["params"].update(wieghts=[1.0]),
                 "$.kernel.params.wieghts", id="unknown-mixture-param"),
    pytest.param("flow_laws", lambda d: d["fields"][1]["params"].update(matrix=[[0.0, "a"]]),
                 "$.fields[1].params.matrix[0][1]", id="affine-matrix-entry"),
    pytest.param("bracket_order", lambda d: d["pairs"][0]["y"]["params"].update(
                     **{"from": 10 ** 300}),
                 "$.pairs[0].y.params.from", id="huge-shear-axis"),
    pytest.param("cdual_abelian",
                 lambda d: d.update(algebra={"name": "abelian", "params": {"d": 10 ** 300}}),
                 "$.algebra.params.d", id="huge-abelian-d"),
    # a string that names one of a few choices (Rule.agrees)
    pytest.param("cdual_halfplane", lambda d: d["action"]["params"].update(domain="halfplain"),
                 "$.action.params.domain", id="euclidean-domain-typo"),
    pytest.param("luscher_mack_det", lambda d: d.update(variant="determinnt"),
                 "$.variant", id="luscher-mack-variant-typo"),
    pytest.param("compatibility", lambda d: d["tolerances"].update(invarience=1e-8),
                 "$.tolerances.invarience", id="unknown-tolerance"),
    # lists that must agree in length (Rule.agrees)
    pytest.param("os_reconstruct_mixture", lambda d: d["kernel"]["params"].update(weights=[0.5]),
                 "$.kernel.params.weights", id="mixture-weights-shorter-than-masses"),
    pytest.param("froelich_rank1", lambda d: d["kernel"]["params"].update(weights=[0.5, 0.5]),
                 "$.kernel.params.weights", id="laplace-weights-against-atoms"),
    # params that must agree with each other (Rule.agrees), at their defaults
    # where absent: a shear axis below its dimension, p + q = 2
    pytest.param("bracket_order", lambda d: d["pairs"][0]["y"]["params"].update(
                     **{"from": 5}),
                 "$.pairs[0].y.params.from", id="shear-axis-above-dimension"),
    pytest.param("cdual_halfplane", lambda d: d["action"]["params"].update(q=2),
                 "$.action.params.q", id="euclidean-split-not-planar"),
    pytest.param("cdual_abelian", lambda d: d.update(algebra={
                     "name": "euclidean_motion", "params": {"d": 2, "p": 2, "q": 1}}),
                 "$.algebra.params.q", id="euclidean-motion-split"),
    # a luscher_mack key that only the other variant reads
    pytest.param("luscher_mack_det", lambda d: d.update(exponent=1.5),
                 "$.exponent", id="exponent-in-determinant"),
    pytest.param("luscher_mack_det", lambda d: d.update(interval=[0.2, 0.9]),
                 "$.interval", id="interval-in-determinant"),
    pytest.param("luscher_mack_power", lambda d: d.update(matrix_size=2),
                 "$.matrix_size", id="matrix-size-in-power"),
    pytest.param("luscher_mack_power", lambda d: d.update(power=2.0),
                 "$.power", id="power-in-power"),
    pytest.param("luscher_mack_power",
                 lambda d: (d.pop("variant"), d.update(spectral_range=[0.05, 0.8])),
                 "$.spectral_range", id="spectral-range-in-default-variant"),
    # a report must compare something: with no translation of either kind,
    # all three rp_axioms checks would be null and the report would pass
    pytest.param("rp_axioms", lambda d: [d.pop(k) for k in ("translations",
                                                            "parallel_translations", "kernel")],
                 "$.translations", id="rp-axioms-without-translations"),
    pytest.param("rp_axioms", lambda d: d.update(translations=[], parallel_translations=[]),
                 "$.translations", id="rp-axioms-with-empty-translations"),
    # a rank cutoff is a share of the largest Gram eigenvalue: at 0 or below
    # whitening divides by near-zero or negative eigenvalues
    pytest.param("cdual_euclidean", lambda d: d.update(rank_cutoff=0),
                 "$.rank_cutoff", id="rank-cutoff-zero"),
    pytest.param("froelich_laplace", lambda d: d.update(rank_cutoff=-1e-3),
                 "$.rank_cutoff", id="rank-cutoff-negative"),
    pytest.param("luscher_mack_det", lambda d: d.update(rank_cutoff=1),
                 "$.rank_cutoff", id="rank-cutoff-one"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(rank_cutoff=float("nan")),
                 "$.rank_cutoff", id="rank-cutoff-nan"),
    pytest.param("cdual_abelian", lambda d: d.update(rank_cutoff=float("inf")),
                 "$.rank_cutoff", id="rank-cutoff-infinite"),
    # both grid kinds reflect along the first axis, which must be symmetric
    # about 0, and the origin has one coordinate per grid axis
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=[-1.95, -1.0]),
                 "$.grid.origin", id="rp-grid-not-symmetric"),
    pytest.param("os_reconstruct_mixture", lambda d: d["grid"].update(origin=[-2.95]),
                 "$.grid.origin", id="os-grid-not-symmetric"),
    pytest.param("os_reconstruct_ou", lambda d: d["grid"].update(origin=-3.05),
                 "$.grid.origin", id="os-scalar-origin-not-symmetric"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=[-2.0]),
                 "$.grid.origin", id="grid-origin-dimension"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=["a", -1.0]),
                 "$.grid.origin[0]", id="grid-origin-entry"),
    pytest.param("os_reconstruct_ou", lambda d: d["grid"].update(spacing=0),
                 "$.grid.spacing", id="grid-spacing-zero"),
    # a grid needs a margin of at least 2 cells and more than 2 margin + 1
    # points along every axis: these passed validate, then the run raised
    # a bare GridError (exit 3)
    pytest.param("os_reconstruct_ou", lambda d: d["grid"].update(margin=1),
                 "$.grid.margin", id="os-grid-margin-one"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(margin=1),
                 "$.grid.margin", id="rp-grid-margin-one"),
    pytest.param("os_reconstruct_ou", lambda d: d["grid"].update(margin=60),
                 "$.grid.margin", id="grid-margin-fills-the-axis"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(margin=10),
                 "$.grid.margin", id="grid-margin-fills-the-second-axis"),
    pytest.param("rp_axioms", lambda d: (d["grid"].pop("margin"),
                                         d["grid"].update(shape=[41, 5])),
                 "$.grid.margin", id="grid-default-margin-fills-an-axis"),
    # a sample key its type does not read was ignored (exit 0)
    pytest.param("cdual_euclidean", lambda d: d["samples"].update(halfwidth=1.0),
                 "$.samples.halfwidth", id="grid2d-halfwidth"),
    pytest.param("cdual_abelian", lambda d: d["samples"].update(x_range=[-1.0, 1.0]),
                 "$.samples.x_range", id="chebyshev-x-range"),
    pytest.param("froelich_laplace", lambda d: d["samples"].update(n_side=5),
                 "$.samples.n_side", id="uniform-box-n-side"),
    pytest.param("froelich_rank1", lambda d: d["samples"].update(include_origin=True),
                 "$.samples.include_origin", id="explicit-include-origin"),
    pytest.param("compatibility",
                 lambda d: d.update(samples={"type": "circles", "radii": [0.5],
                                             "n_per_circle": 4, "n": 8}),
                 "$.samples.n", id="circles-n"),
    # JSON has no NaN or Infinity, but the parser reads them: these passed
    # validate, then the run exited 3, after all its work where the report
    # refused the echoed value
    pytest.param("flow_laws", lambda d: d.update(step=float("inf")),
                 "$.step", id="infinite-step"),
    pytest.param("flow_laws",
                 lambda d: d["fields"][1]["params"]["matrix"][0].__setitem__(1, float("nan")),
                 "$.fields[1].params.matrix[0][1]", id="nan-in-affine-matrix"),
    pytest.param("cdual_abelian", lambda d: d["samples"].update(halfwidth=float("inf")),
                 "$.samples.halfwidth", id="infinite-halfwidth"),
    # a box whose width 2 halfwidth overflows: the run exited 3 with a bare
    # OverflowError from the sampler
    pytest.param("froelich_laplace", lambda d: d["samples"].update(halfwidth=1e308),
                 "$.samples.halfwidth", id="halfwidth-whose-width-overflows"),
    pytest.param("compatibility", lambda d: d["tolerances"].update(invariance=float("inf")),
                 "$.tolerances.invariance", id="infinite-tolerance"),
    # an affine matrix is square and its offset as long as a row: these
    # passed validate, and the run exited 3, or broadcast a short offset
    pytest.param("flow_laws", lambda d: d["fields"][1]["params"].update(matrix=[[1.0, 2.0]]),
                 "$.fields[1].params.matrix", id="affine-matrix-not-square"),
    pytest.param("flow_laws",
                 lambda d: d["fields"][1]["params"].update(matrix=[[1.0, 2.0], [3.0]]),
                 "$.fields[1].params.matrix", id="affine-matrix-ragged"),
    pytest.param("flow_laws", lambda d: d["fields"][1]["params"].update(offset=[1.0]),
                 "$.fields[1].params.offset", id="affine-offset-short"),
    pytest.param("flow_laws", lambda d: (d["fields"].pop(0),
                                         d["fields"][0]["params"].update(offset=[1.0])),
                 "$.fields[0].params.offset", id="affine-offset-short-alone"),
    # a custom algebra's shapes and labels: these passed validate, and the
    # run exited 3 with a bare ValueError, or took an integer label that
    # reads like an index
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(structure_constants=[[1.0]]),
                 "$.algebra.structure_constants", id="algebra-structure-not-cubic"),
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(involution=[1.0, -1.0]),
                 "$.algebra.involution", id="algebra-involution-too-long"),
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(involution=[[-1.0, 0.0]]),
                 "$.algebra.involution", id="algebra-involution-not-square"),
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(involution=[0.5]),
                 "$.algebra.involution", id="algebra-involution-not-a-sign"),
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(labels=["v1", "v2"]),
                 "$.algebra.labels", id="algebra-two-labels-for-one-element"),
    pytest.param("cdual_abelian", lambda d: d["algebra"].update(labels=[3]),
                 "$.algebra.labels", id="algebra-integer-label"),
    # a bracket order fitted over no points, or over one step size, compared
    # nothing (exit 1) or raised a bare LinAlgError (exit 3)
    pytest.param("bracket_order", lambda d: d.update(n_points=0),
                 "$.n_points", id="bracket-no-points"),
    pytest.param("bracket_order", lambda d: d.update(h_ladder=[1.0, 1.0]),
                 "$.h_ladder", id="bracket-one-step-size"),
    # an epsilon other than -1 or 1 was read as skew (exit 1), and a reversed
    # spectral range raised numpy's ValueError (exit 3)
    pytest.param("compatibility", lambda d: d["invariance"][0].update(epsilon=5),
                 "$.invariance[0].epsilon", id="invariance-epsilon-not-a-sign"),
    pytest.param("luscher_mack_det", lambda d: d.update(spectral_range=[0.8, 0.05]),
                 "$.spectral_range", id="spectral-range-reversed"),
    # a bracket order over no pairs raised a bare ValueError from min() (exit 3)
    pytest.param("bracket_order", lambda d: d.update(pairs=[]), "$.pairs", id="no-pairs"),
    # element ranges outside the kernel's domain exited 3: a spectral radius
    # of 1 or more leaves the contractions where det(1 - x y^T)^(-s) is
    # defined, and a negative element has no real power
    pytest.param("luscher_mack_det", lambda d: d.update(spectral_range=[0.5, 1.5]),
                 "$.spectral_range[1]", id="spectral-range-past-one"),
    pytest.param("luscher_mack_power", lambda d: d.update(interval=[-0.5, 0.9]),
                 "$.interval[0]", id="negative-interval"),
    # the kinds that compress derivative forms take the kernel's gradient on
    # the sample diagonal, where ou has a kink: these exited 3
    pytest.param("compatibility", lambda d: d.update(kernel={"name": "ou"}),
                 "$.kernel.name", id="ou-in-compatibility"),
    pytest.param("froelich_rank1", lambda d: d.update(kernel={"name": "ou"}),
                 "$.kernel.name", id="ou-in-froelich"),
    pytest.param("cdual_abelian", lambda d: d.update(kernel={"name": "ou"}),
                 "$.kernel.name", id="ou-in-cdual-rep"),
    # the determinant variant's power is the det kernel's: 0 passed vacuously
    # on a constant kernel (exit 0), and -1 exited 3 with ClassificationError
    pytest.param("luscher_mack_det", lambda d: d.update(power=0), "$.power",
                 id="det-power-zero"),
    pytest.param("luscher_mack_det", lambda d: d.update(power=-1), "$.power",
                 id="det-power-negative"),
    # numpy's generator takes no negative seed (exit 3)
    pytest.param("froelich_rank1", lambda d: d.update(seed=-1), "$.seed", id="negative-seed"),
    # a bump center that is no number exited 3 from float(); a negative
    # width ran (exit 0), squared by the bump, and the report echoed it
    pytest.param("os_reconstruct_ou", lambda d: d["bumps"][0]["center"].__setitem__(0, "zz"),
                 "$.bumps[0].center[0]", id="bump-center-string"),
    pytest.param("os_reconstruct_ou", lambda d: d["bumps"][0].update(width=-0.3),
                 "$.bumps[0].width", id="bump-width-negative"),
    # an integer past 64 bits fits a float, yet numpy builds an object array
    # for it: exit 3 with UFuncTypeError
    pytest.param("luscher_mack_power", lambda d: d.update(interval=[0.2, 10 ** 300]),
                 "$.interval[1]", id="interval-int-past-64-bits"),
    # grid2d ranges need lo < hi: ends that meet exited 3 with
    # KernelDomainError, and a reversed range ran (exit 0)
    pytest.param("cdual_halfplane", lambda d: d["samples"].update(x_range=[-1, -1]),
                 "$.samples.x_range", id="x-range-ends-meet"),
    pytest.param("cdual_halfplane", lambda d: d["samples"].update(y_range=[1, -1]),
                 "$.samples.y_range", id="y-range-reversed"),
    # the pairing bumps of rp_axioms (width 0.3 at (-0.8, 0) and (0.6, 0.2))
    # reached the margin: validate passed, then the run raised GridError (exit 3)
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=[-2.0, 0]),
                 "$.grid", id="rp-pairing-bump-on-the-margin"),
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=[-2.0, 0.001]),
                 "$.grid", id="rp-pairing-bump-near-the-margin"),
    pytest.param("rp_axioms", lambda d: d.update(translations=[{"cells": [30, 0]}]),
                 "$.translations[0].cells", id="rp-translation-moves-a-bump-off-the-grid"),
    pytest.param("rp_axioms", lambda d: d.update(translations=[{"cells": [0, 5]}]),
                 "$.translations[0].cells", id="rp-translation-moves-a-bump-into-the-margin"),
    # no grid point lay within the width of the pairing bump at (-0.8, 0): zero
    # on every grid point, it compared nothing, and the run passed (exit 0)
    pytest.param("rp_axioms", lambda d: d.update(grid={
        "origin": [-14.0, -5.25], "spacing": 0.7, "shape": [41, 21], "margin": 2}),
                 "$.grid", id="rp-pairing-bump-zero-on-the-grid"),
    # an origin coordinate past 64 bits raised OverflowError in validate
    # (exit 1, with a traceback) and in run (exit 3)
    pytest.param("rp_axioms", lambda d: d["grid"].update(origin=[-2.0, 10 ** 400]),
                 "$.grid.origin[1]", id="rp-grid-origin-past-64-bits"),
    pytest.param("os_reconstruct_ou", lambda d: d["grid"].update(origin=[-10 ** 400]),
                 "$.grid.origin[0]", id="os-grid-origin-past-64-bits"),
    # an os_reconstruct bump must be a nonzero test function on the grid, off
    # its margin, and in the positive slice, and each transfer time must keep
    # every bump there: validate passed these, and the run exited 2
    pytest.param("os_reconstruct_mixture", lambda d: d["bumps"][2].update(center=[100.0]),
                 "$.bumps[2]", id="off-grid-bump"),
    pytest.param("os_reconstruct_mixture", lambda d: d["bumps"][2].update(center=[2.9]),
                 "$.bumps[2]", id="bump-on-the-margin"),
    pytest.param("os_reconstruct_mixture", lambda d: d["bumps"][2].update(center=[0.5, 0.5]),
                 "$.bumps[2].center", id="bump-center-dimension"),
    pytest.param("os_reconstruct_mixture", lambda d: d["bumps"][0].update(center=[0.1]),
                 "$.bumps[0]", id="bump-across-the-reflection"),
    pytest.param("os_reconstruct_ou", lambda d: d["bumps"][1].update(center=[-0.5]),
                 "$.bumps[1]", id="bump-in-the-negative-slice"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(times_cells=[6, 40]),
                 "$.times_cells[1]", id="transfer-time-off-the-grid"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(times_cells=[6, 34]),
                 "$.times_cells[1]", id="transfer-time-into-the-margin"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(law_pairs_cells=[[30, 20]]),
                 "$.law_pairs_cells[0]", id="law-pair-sum-off-the-grid"),
    # a test-function grid has one or two axes; the pairing bumps of
    # rp_axioms have two coordinates
    pytest.param("rp_axioms", lambda d: d.update(
        grid=_THREE_AXES, translations=[{"cells": [3, 0, 0]}],
        parallel_translations=[{"cells": [0, 1, 0]}]),
                 "$.grid.shape", id="rp-axioms-three-axis-grid"),
    pytest.param("os_reconstruct_ou", lambda d: d.update(
        grid=_THREE_AXES, bumps=[{"center": [1.0, 0.0, 0.0], "width": 0.3}]),
                 "$.grid.shape", id="os-reconstruct-three-axis-grid"),
    # one bump list sizes the twisted Gram and every transfer pairing
    pytest.param("os_reconstruct_ou", lambda d: d.update(bumps=d["bumps"][:1] * 2001),
                 "$.bumps", id="os-reconstruct-bumps-past-the-bound"),
    # rp_axioms pairs a bump with each of its translates in one matrix
    pytest.param("rp_axioms", lambda d: d.update(translations=d["translations"][:1] * 2001),
                 "$.translations", id="rp-axioms-translations-past-the-bound"),
    pytest.param("rp_axioms", lambda d: d.update(
        parallel_translations=d["parallel_translations"][:1] * 2001),
                 "$.parallel_translations", id="rp-axioms-parallel-translations-past-the-bound"),
    # a Lie bracket pairs two fields on one space (a 1-vector against the rotation)
    pytest.param("bracket_order", lambda d: d["pairs"][1]["y"]["params"].update(vector=[1.0]),
                 "$.pairs[1].y", id="bracket-pair-of-two-dimensions"),
])
def test_config_contract_exits_2_with_path(tmp_path, capsys, stem, mutate, json_path):
    data = _shipped(stem)
    mutate(data)
    with pytest.raises(ConfigError) as err:
        validate_config(data)
    assert err.value.json_path == json_path
    path = _write(tmp_path, data)
    for command in ("validate", "run"):
        assert cli.main([command, path]) == cli.EXIT_CONFIG_ERROR
        assert f"config error: {json_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["cdual_halfplane", "cdual_euclidean"])
def test_a_coarse_rank_cutoff_is_no_classification_error(tmp_path, capsys, stem):
    # at rank_cutoff 0.5 an element's compressed operator is rounding noise;
    # its symmetry defect against its own vanishing norm raised (exit 3)
    data = _shipped(stem)
    data["rank_cutoff"] = 0.5
    assert cli.main(["run", _write(tmp_path, data)]) in (cli.EXIT_PASS,
                                                         cli.EXIT_CHECK_FAILURE)
    assert "Error" not in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: (d["grid"].update(origin=[-2.0, 0]), d.pop("kernel")),
                 id="bump-on-the-margin-without-a-kernel"),
    pytest.param(lambda d: d.update(translations=[{"cells": [-8, 0]}]), id="largest-shift-down"),
    pytest.param(lambda d: d.update(translations=[{"cells": [10, 0]}]), id="largest-shift-up"),
])
def test_rp_axioms_pairing_bumps_that_fit(tmp_path, mutate):
    # the pairing bump rules reject no grid or translation that the run takes
    data = _shipped("rp_axioms")
    mutate(data)
    assert cli.main(["run", _write(tmp_path, data)]) == cli.EXIT_PASS


@st.composite
def _grid_and_bump(draw):
    """A 1-D or 2-D grid within the config bounds, symmetric along its first
    axis, and a bump on it; half the draws put the centre on a cell and make
    the width a whole number of cells."""
    exact = draw(st.booleans())
    spacing = draw(st.sampled_from([0.025, 0.05, 0.07, 0.1, 0.3]) if exact
                   else st.floats(1e-3, 10.0))
    shape = [draw(st.integers(6, 300))]
    if draw(st.booleans()):
        shape.append(draw(st.integers(6, config.MAX_GRID_CELLS // shape[0])))
    origin = [-0.5 * spacing * (shape[0] - 1)] + [draw(st.floats(-100.0, 100.0))
                                                  for _ in shape[1:]]
    cells = st.integers(-8, 128) if exact else st.floats(-8.0, 128.0)
    center = [o + spacing * draw(cells) for o in origin]
    width = spacing * draw(st.integers(1, 40) if exact else st.floats(0.05, 150.0))
    return {"origin": origin, "spacing": spacing, "shape": shape, "margin": 2}, center, width


@settings(max_examples=400, deadline=None)
@given(case=_grid_and_bump())
def test_bump_box_is_the_nonzero_box_of_the_bump(case):
    grid, center, width = case
    test_grid = distributions.TestFunctionGrid(grid["origin"], grid["spacing"],
                                               tuple(grid["shape"]))
    # the bump's values on every cell, the margin included
    with mock.patch.object(distributions, "moved_out", lambda *args: None):
        values = distributions.bump(test_grid, center, width).values
    box = tuple((int(k.min()), int(k.max())) for k in np.nonzero(values)) if values.any() else None
    assert config._bump_box(tuple(grid["origin"]), grid["spacing"], tuple(grid["shape"]),
                            tuple(center), width) == box


@pytest.mark.parametrize("algebra", [
    pytest.param({"structure_constants": [[[0.0]]], "involution": [[-1.0]]},
                 id="matrix-involution"),
    pytest.param({"structure_constants": [[[0]]], "involution": [-1], "labels": ["v"]},
                 id="integer-entries"),
])
def test_custom_algebra_shapes_that_pass(tmp_path, algebra):
    # the shape checks of a custom algebra reject no form the builder reads
    data = _shipped("cdual_abelian")
    data["algebra"] = algebra
    assert cli.main(["run", _write(tmp_path, data)]) == cli.EXIT_PASS


@pytest.mark.parametrize("write, json_path", [
    pytest.param(lambda path: path.mkdir(), "$", id="directory"),
    pytest.param(lambda path: path.write_bytes(
        json.dumps(_shipped("cdual_abelian")).replace('"seed"', '"s\u00e9ed"').encode("latin-1")),
        "$", id="not-utf-8"),
    pytest.param(lambda path: path.write_text(
        json.dumps(_shipped("flow_laws")).replace('"step": 0.001', '"step": 1e999')),
        "$.step", id="step-1e999"),
    pytest.param(lambda path: path.write_text(
        json.dumps(_shipped("cdual_abelian")).replace('"seed"', '"x": ' + "[" * 5000
                                                      + "]" * 5000 + ', "seed"')),
        "$", id="nested-too-deeply"),
])
def test_config_file_exits_2_with_path(tmp_path, capsys, write, json_path):
    # a directory, bytes that are not UTF-8 or JSON nested deeper than the
    # parser's recursion limit raised out of validate (exit 1, the
    # check-failure code) and exited 3 at run; 1e999 is read as an
    # infinity, which passed validate
    path = tmp_path / "cfg.json"
    write(path)
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.json_path == json_path
    for command in ("validate", "run"):
        assert cli.main([command, str(path)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"config error: {json_path}: ")


# values only the run can check against what the config builds: the
# action's algebra, the point dimensions of the chart and the kernel
@pytest.mark.parametrize("stem, mutate, json_path", [
    pytest.param("compatibility", lambda d: d["invariance"][0].update(element="zz"),
                 "$.invariance[0].element", id="unknown-element-label"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(element=7),
                 "$.invariance[0].element", id="element-index-too-large"),
    pytest.param("compatibility", lambda d: d["invariance"][0].update(element=-1),
                 "$.invariance[0].element", id="negative-element-index"),
    pytest.param("cdual_euclidean", lambda d: d["conjugation"].update(x="zz"),
                 "$.conjugation.x", id="unknown-conjugation-label"),
    pytest.param("cdual_euclidean", lambda d: d["conjugation"].update(x="t1"),
                 "$.conjugation.x", id="conjugation-outside-fixed-part"),
    pytest.param("cdual_euclidean", lambda d: d["conjugation"].update(y="zz"),
                 "$.conjugation.y", id="unknown-conjugation-target"),
    pytest.param("froelich_rank1", lambda d: d.update(start_point=[0.2, 0.3]),
                 "$.start_point", id="start-point-dimension"),
    pytest.param("compatibility",
                 lambda d: d["invariance"][0].update(pair=[[0.0], [0.1, 0.2]]),
                 "$.invariance[0].pair[1]", id="pair-point-dimension"),
    pytest.param("compatibility",
                 lambda d: d.update(samples={"type": "circles", "radii": [0.5],
                                             "n_per_circle": 4}),
                 "$.samples", id="circles-on-a-line"),
    pytest.param("compatibility",
                 lambda d: d.update(samples={"type": "explicit",
                                             "points": [[0.1, 0.2], [0.3, 0.4]]}),
                 "$.samples", id="explicit-point-dimension"),
    pytest.param("compatibility",
                 lambda d: (d["action"]["params"].update(dimension=2), d.pop("invariance"),
                            d.update(samples={"type": "uniform_box", "n": 5,
                                              "dimension": 2})),
                 "$.samples", id="sample-dimension-against-kernel"),
    pytest.param("cdual_abelian",
                 lambda d: d["samples"].update(type="uniform_box", dimension=2),
                 "$.samples", id="cdual-sample-dimension"),
    pytest.param("froelich_rank1",
                 lambda d: d.update(samples={"type": "explicit", "points": [[0.0, 0.1]]}),
                 "$.samples", id="froelich-sample-dimension"),
])
def test_run_checks_references_exits_2_with_path(tmp_path, capsys, stem, mutate,
                                                  json_path):
    data = _shipped(stem)
    mutate(data)
    path = _write(tmp_path, data)
    assert cli.main(["validate", path]) == cli.EXIT_PASS
    capsys.readouterr()
    assert cli.main(["run", path]) == cli.EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {json_path}: ")


# a kernel that overflows on far samples is a numeric error naming it: before,
# compatibility reported a NaN defect (exit 1) and the other two failed in
# the eigensolver without naming the kernel (exit 3)
@pytest.mark.parametrize("stem, kernel", [("compatibility", "laplace"),
                                          ("froelich_laplace", "circle_laplace"),
                                          ("cdual_abelian", "laplace")])
def test_overflowing_kernel_exits_3_naming_it(tmp_path, capsys, stem, kernel):
    data = _shipped(stem)
    data["samples"]["halfwidth"] = 1000
    path = _write(tmp_path, data)
    # the error line alone: numpy's overflow warnings stay off stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", path]) == cli.EXIT_NUMERIC_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and caught == []
    assert captured.err.startswith(f"error: KernelDomainError: kernel {kernel!r}: ")
    assert captured.err.count("\n") == 1


def test_unexpected_error_exits_3_in_one_line(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("not enough values to unpack")

    monkeypatch.setattr(runner, "_sample_points", fail)
    path = _write(tmp_path, _shipped("cdual_euclidean"))
    assert cli.main(["run", path]) == cli.EXIT_NUMERIC_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ValueError: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_report_value_exits_3_naming_its_path(tmp_path, capsys, monkeypatch,
                                                          value):
    # JSON has no NaN or Infinity, so no report may carry one
    monkeypatch.setattr(runner, "_ladder", lambda levels, values: ([], value, None))
    path = _write(tmp_path, _shipped("bracket_order"))
    assert cli.main(["run", path]) == cli.EXIT_NUMERIC_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: ValueError: report value $.checks[0].value is not "
                            "finite; JSON has no NaN or Infinity\n")
    report = runner.ExperimentReport("k", {"x": [1.0, {"y": value}]}, [], {}, {})
    with pytest.raises(ValueError, match=r"\$\.config\.x\[1\]\.y is not finite"):
        report.to_json()


def test_flow_laws_runs_one_loop_per_dimension(monkeypatch, tmp_path):
    # the fields of one chart dimension, chained legs included, run as one
    # RK4 loop, each field on its own rows: the shipped config's two planar
    # fields take 2,379 steps where one loop per field took 4,668
    from kerflow import flows

    calls, steps = [], []

    def advance(groups, p, t_ends, *args, **kwargs):
        calls.append(([field.name for field, _ in groups], p.shape[1], t_ends.shape))
        return loop(groups, p, t_ends, *args, **kwargs)

    def stage(*args):
        steps.append(args[4])
        return first_stage(*args)

    loop, first_stage = flows._advance, flows._stage
    monkeypatch.setattr(flows, "_advance", advance)
    monkeypatch.setattr(flows, "_stage", stage)
    cfg = parse_config(os.path.join(CONFIG_DIR, "flow_laws.json"))
    assert run_experiment(cfg).passed
    # 30 rows of three legs per field, and 30 more against the exponential
    assert calls == [(["rotation2d", "affine"], 2, (180, 3))]
    # four stages a step, none testing the whole-space chart
    assert len(steps) == 4 * 2379 and not any(steps)
    calls.clear()
    cfg = parse_config(_write(tmp_path, {
        "kind": "flow_laws", "seed": 1,
        "fields": [{"name": "quadratic1d"}, {"name": "rotation2d"},
                   {"name": "constant", "params": {"vector": [1.0]}},
                   {"name": "quad_swirl"}],
        "n_points": 2, "n_time_samples": 2, "t_range": 0.2, "step": 1e-2}))
    run_experiment(cfg)
    assert calls == [(["quadratic1d", "constant"], 1, (20, 3)),
                     (["rotation2d", "quad_swirl"], 2, (20, 3))]


# RK4 steps (four stages each) a shipped config may take; any config not
# named takes none.  A loop split into several fails here, where the
# benchmark's timings would hide it in their spread.  A bound may go down
# freely; raising one is a regression to argue.
_RK4_STEP_BUDGET = {"flow_laws": 2379, "bracket_order": 48, "compatibility": 500,
                    "froelich_laplace": 300, "froelich_rank1": 300}
# Of those, the steps that keep their guards: the rest run in countdowns
# that ``flows._guards_idle`` proved no guard can trip in.  A change that
# loses that fast path fails here; a bound may go down freely.
_GUARDED_STEP_BUDGET = {"flow_laws": 127, "bracket_order": 36, "compatibility": 4,
                        "froelich_laplace": 12, "froelich_rank1": 4}


def test_shipped_configs_keep_their_rk4_step_budget(monkeypatch):
    from kerflow import flows

    stages, first_stage = [], flows._stage
    monkeypatch.setattr(flows, "_stage", lambda *args: stages.append(args[5]) or first_stage(*args))
    steps, guarded = {}, {}
    for name in sorted(os.listdir(CONFIG_DIR)):
        stages.clear()
        with np.errstate(all="ignore"):
            assert run_experiment(parse_config(os.path.join(CONFIG_DIR, name))).passed
        assert len(stages) % 4 == 0
        stem = os.path.splitext(name)[0]
        steps[stem], guarded[stem] = len(stages) // 4, stages.count(True) // 4
    for counts, budget in ((steps, _RK4_STEP_BUDGET), (guarded, _GUARDED_STEP_BUDGET)):
        over = {stem: (n, budget.get(stem, 0)) for stem, n in counts.items()
                if n > budget.get(stem, 0)}
        assert over == {}
        assert budget.keys() <= counts.keys()


_SHIPPED_STEMS = sorted(os.path.splitext(f)[0] for f in os.listdir(CONFIG_DIR)
                        if f.endswith(".json") and f != "flow_laws.json")
_MUTATIONS = ("drop", True, -1, 2.5, [], "zz", {}, 1e300, 10 ** 300,
              "halfplain", "determinnt")


def _json_paths(node, prefix=()):
    """Every path below the root of a JSON value, parents first."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_shipped_configs_keep_the_exit_code_contract(tmp_path, capsys, data):
    # flow_laws is left out: its batches take about half a second a run
    config = _shipped(data.draw(st.sampled_from(_SHIPPED_STEMS)))
    *parents, key = data.draw(st.sampled_from(list(_json_paths(config))))
    mode = data.draw(st.sampled_from(_MUTATIONS))
    node = config
    for k in parents:
        node = node[k]
    if mode == "drop":
        del node[key]
    else:
        node[key] = mode
    code = cli.main(["run", _write(tmp_path, config), "--stable-output"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err
    if code == cli.EXIT_CHECK_FAILURE:
        assert json.loads(captured.out)["passed"] is False


@pytest.mark.parametrize("module, build, catalog, tables", [
    ("kernels", "builtin_kernel", "KERNEL_CATALOG", "KERNEL_PARAMS"),
    ("flows", "builtin_field", "FIELD_CATALOG", "FIELD_PARAMS"),
    ("algebra", "builtin_algebra", "ALGEBRA_CATALOG", "ALGEBRA_PARAMS"),
    ("operators", "builtin_action", "ACTION_CATALOG", "ACTION_PARAMS"),
])
def test_required_params_match_the_builders(module, build, catalog, tables):
    # every builtin has a key table of Rules in config, and is built without
    # params exactly when its table requires none: the builder reads its
    # params through that table, which names the first required one missing
    mod = importlib.import_module(f"kerflow.{module}")
    declared = getattr(config, tables)
    assert set(declared) == set(getattr(config, catalog))
    for name, table in declared.items():
        assert all(isinstance(rule, Rule) for rule in table.values()), name
        required = [key for key, rule in table.items() if rule.required]
        if required:
            with pytest.raises(ConfigError) as err:
                getattr(mod, build)(name, {})
            assert err.value.json_path == f"{name}.params.{required[0]}"
        else:
            getattr(mod, build)(name, {})
    with pytest.raises(KeyError):
        getattr(mod, build)("nope", {})


def test_field_dimensions_match_the_builders():
    # the dimension validate reads from a field's params is its chart's
    given = {"constant": {"vector": [1.0, 0.0, 2.0]}, "affine": {"matrix": [[1.0] * 4] * 4},
             "coordinate_shear": {"dimension": 5}}
    assert set(config._FIELD_DIMENSION) == set(config.FIELD_PARAMS)
    for name in config.FIELD_PARAMS:
        params = config.builtin_params(config.FIELD_PARAMS, name, given.get(name))
        field = flows.builtin_field(name, params)
        assert config._FIELD_DIMENSION[name](params) == field.chart.dimension, name


# one run per catalog builtin: the shipped config one of whose blocks it
# takes, and params with the keys its key table requires, valued to fit that
# config's samples and action; matrix_right_multiplication names its element
# by index, since its algebra gl(1) labels it d1
_BUILTIN_RUNS = {
    "fock": ("compatibility", "kernel", {}),
    "gaussian_rbf": ("compatibility", "kernel", {}),
    "ou": ("compatibility", "kernel", {}),
    "ou_mixture": ("compatibility", "kernel", {"masses": [1.0]}),
    "laplace": ("compatibility", "kernel", {"atoms": [[1.0]], "weights": [1.0]}),
    "laplace_gaussian": ("compatibility", "kernel", {}),
    "circle_laplace": ("cdual_euclidean", "kernel", {}),
    "halfplane_bessel": ("cdual_halfplane", "kernel", {}),
    "det": ("compatibility", "kernel", {"n": 1, "power": 1.0}),
    "translation": ("compatibility", "action", {}),
    "euclidean": ("cdual_euclidean", "action", {}),
    "matrix_right_multiplication": ("compatibility", "action", {"n": 1}),
    "rotation2d": ("flow_laws", "fields", {}),
    "constant": ("flow_laws", "fields", {"vector": [1.0]}),
    "affine": ("flow_laws", "fields", {"matrix": [[1.0]]}),
    "coordinate_shear": ("flow_laws", "fields", {}),
    "quad_swirl": ("flow_laws", "fields", {}),
    "quadratic1d": ("flow_laws", "fields", {}),
    "euclidean_motion": ("cdual_euclidean", "algebra", {"d": 2, "p": 2, "q": 0}),
    "abelian": ("cdual_abelian", "algebra", {"d": 1}),
    "matrix_involutive": ("compatibility", "algebra", {"n": 1}),
}
_BUILTIN_TABLES = {**config.KERNEL_PARAMS, **config.ACTION_PARAMS, **config.FIELD_PARAMS,
                   **config.ALGEBRA_PARAMS}


def test_builtin_runs_cover_every_catalog_name():
    catalogs = (config.KERNEL_CATALOG, config.ACTION_CATALOG, config.FIELD_CATALOG,
                config.ALGEBRA_CATALOG)
    assert sum(map(len, catalogs)) == len(_BUILTIN_TABLES) == len(_BUILTIN_RUNS)
    for name, (_, _, params) in _BUILTIN_RUNS.items():
        table = _BUILTIN_TABLES[name]
        assert set(params) == {key for key, rule in table.items() if rule.required}, name


def _builtin_run_config(name):
    """The config of builtin ``name``'s run in ``_BUILTIN_RUNS``."""
    stem, key, params = _BUILTIN_RUNS[name]
    data = _shipped(stem)
    block = {"name": name, "params": params}
    data[key] = [block] if key == "fields" else block
    if name == "matrix_right_multiplication":
        data["invariance"][0]["element"] = 0
    return data


@pytest.mark.parametrize("name", sorted(_BUILTIN_RUNS))
def test_every_catalog_builtin_runs_in_a_kind(shipped_replay, name):
    # the replay validates and runs each builtin's config once
    (validated, _, err), ran = shipped_replay[2][name]
    if name == "ou":
        # no kind runs it: the form kinds' catalogs leave it out
        assert validated == cli.EXIT_CONFIG_ERROR
        assert "config error: $.kernel.name: " in err
        return
    assert validated == cli.EXIT_PASS
    code, out, _ = ran
    assert code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
    assert json.loads(out)["passed"] is (code == cli.EXIT_PASS)


def test_sample_keys_match_the_sampler():
    # each type's key table: the keys it requires, and those it reads with a default
    SAMPLE_KEYS = {kind: tuple(key for key, rule in table.items() if rule.required)
                   for kind, table in SAMPLE_TYPES.items()}
    SAMPLE_OPTIONAL_KEYS = {kind: tuple(key for key, rule in table.items() if not rule.required)
                            for kind, table in SAMPLE_TYPES.items()}
    # the sampler reads a resolved spec: each key with a default holds it
    given = {"n": 3, "n_side": 2, "radii": [0.5], "n_per_circle": 3,
             "points": [[0.0]]}
    rng = np.random.default_rng(0)
    for kind, keys in SAMPLE_KEYS.items():
        defaults = {k: rule.default for k, rule in SAMPLE_TYPES[kind].items()
                    if not rule.required}
        assert len(_sample_points({"type": kind, **defaults,
                                   **{k: given[k] for k in keys}}, rng))
        for key in keys:
            spec = {"type": kind, **defaults, **{k: given[k] for k in keys if k != key}}
            with pytest.raises(KeyError):
                _sample_points(spec, rng)
    # an unvalidated spec with an unknown type is still a config error
    with pytest.raises(ConfigError):
        _sample_points({"type": "nope"}, rng)
    # each key of a type's optional table changes the points it samples
    other = {"halfwidth": 0.5, "dimension": 3, "include_origin": True,
             "x_range": [0.0, 2.0], "y_range": [0.0, 2.0]}
    assert SAMPLE_OPTIONAL_KEYS.keys() == SAMPLE_KEYS.keys()
    for kind, keys in SAMPLE_OPTIONAL_KEYS.items():
        spec = {"type": kind, **{k: SAMPLE_TYPES[kind][k].default for k in keys},
                **{k: given[k] for k in SAMPLE_KEYS[kind]}}
        plain = _sample_points(spec, np.random.default_rng(0))
        for key in keys:
            pts = _sample_points({**spec, key: other[key]}, np.random.default_rng(0))
            assert pts.shape != plain.shape or not np.array_equal(pts, plain), key


def _key_tables():
    """Every key table of the config schema, nested and selected ones
    included, and of the four builtin catalogs, each once, with the selecting
    key and value of a selected one."""
    tables, todo = [], [(table, {}) for table in (
        config.SCHEMA, *config.KERNEL_PARAMS.values(), *config.ACTION_PARAMS.values(),
        *config.FIELD_PARAMS.values(), *config.ALGEBRA_PARAMS.values())]
    todo += [(table, {"type": name}) for name, table in SAMPLE_TYPES.items()]
    while todo:
        table, selected = todo.pop()
        if any(table is seen for seen, _ in tables):
            continue
        tables.append((table, selected))
        for key, rule in table.items():
            for r in (rule, rule.each):
                if r is None or r.spec is None:
                    continue
                if r.types is str:
                    todo += [(keys, {} if value is None else {key: value})
                             for value, keys in r.spec.items()]
                else:
                    todo.append((r.spec, {}))
    return tables


def test_every_default_passes_its_own_rule():
    checked = 0
    for table, selected in _key_tables():
        for key, rule in table.items():
            if rule.required or rule.default is None:
                continue
            # an object default's own keys are checked with their table
            config._check_type(rule.default, rule.types, key)
            config._check_bounds(rule.default, dataclasses.replace(rule, spec=None), key)
            if rule.types is str and rule.spec is not None:
                assert rule.default in rule.spec, key
            checked += 1
        # a table resolves from its defaults alone, the cross-key checks
        # included, unless it lacks a key without a default
        try:
            config._check_block(selected, {**table, **dict.fromkeys(selected, Rule(str))}, "$")
        except ConfigError as err:
            assert str(err).endswith(": required"), err
    assert checked >= 50


# one config per kind, and per luscher_mack variant, that gives only the
# keys without a default (and a flow_laws with a bare coordinate_shear and
# rotation2d); each runs to a report
_DEFAULTS_ONLY = {
    "flow_laws": {"kind": "flow_laws", "seed": 0, "fields": [
        {"name": "coordinate_shear"}, {"name": "rotation2d"}]},
    "bracket_order": {"kind": "bracket_order", "seed": 0, "pairs": [
        {"x": {"name": "rotation2d"}, "y": {"name": "coordinate_shear"}}]},
    "compatibility": {"kind": "compatibility", "seed": 0, "kernel": {"name": "gaussian_rbf"},
                      "action": {"name": "translation"},
                      "samples": {"type": "chebyshev", "n": 8}},
    "froelich": {"kind": "froelich", "seed": 0, "kernel": {"name": "circle_laplace"},
                 "field": {"name": "constant", "params": {"vector": [1.0, 0.0]}},
                 "samples": {"type": "uniform_box", "n": 21}},
    "cdual_rep": {"kind": "cdual_rep", "seed": 0, "kernel": {"name": "circle_laplace"},
                  "action": {"name": "euclidean"}, "samples": {"type": "grid2d", "n_side": 5}},
    "luscher_mack": {"kind": "luscher_mack", "seed": 0},
    "luscher_mack_det": {"kind": "luscher_mack", "seed": 0, "variant": "determinant"},
    "os_reconstruct": {"kind": "os_reconstruct", "seed": 0,
                       "grid": {"origin": [-3.0], "spacing": 0.05, "shape": [121]},
                       "kernel": {"name": "ou_mixture", "params": {"masses": [1.0]}},
                       "bumps": [{"center": [0.5], "width": 0.3}],
                       "expected_rank": 1, "times_cells": [6]},
    "rp_axioms": {"kind": "rp_axioms", "seed": 0,
                  "grid": {"origin": [-2.0, -1.0], "spacing": 0.1, "shape": [41, 21]},
                  "translations": [{"cells": [3, 0]}]},
}


def test_defaults_only_configs_cover_every_kind():
    assert {data["kind"] for data in _DEFAULTS_ONLY.values()} == set(config.KINDS)


@pytest.mark.parametrize("stem", sorted(_DEFAULTS_ONLY))
def test_validation_resolves_a_copy_and_the_report_echoes_the_file(tmp_path, capsys, stem):
    data = _DEFAULTS_ONLY[stem]
    before = json.dumps(data)
    cfg = validate_config(data)
    # the input is left as it was, and kept as the echo
    assert json.dumps(data) == before and cfg.raw is data
    # every key of the kind's table with a default is resolved into the body
    table = {**config.SCHEMAS[cfg.kind]}
    if cfg.kind == "luscher_mack":
        table.update(table["variant"].spec[cfg.body["variant"]])
    assert {key for key, rule in table.items() if rule.default is not None} <= cfg.body.keys()
    path = _write(tmp_path, data)
    assert cli.main(["run", path, "--stable-output"]) in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE)
    with open(path) as handle:
        assert json.loads(capsys.readouterr().out)["config"] == json.load(handle)


# the keys whose absence means something other than a constant, which the
# runner reads with a fallback of its own: a froelich start point, which
# broadcasts [0.0] against points of any dimension
_DERIVED_GETS = {"start_point"}


@pytest.mark.parametrize("module", ["runner", "kernels", "operators", "flows"])
def test_no_default_is_written_outside_the_key_tables(module):
    # a default belongs to its key's rule in config; ``.get(key, default)``
    # would write a second copy of it
    with open(os.path.join(os.path.dirname(kerflow.__file__), f"{module}.py")) as handle:
        tree = ast.parse(handle.read())
    gets = [(node.lineno, node.args[0].value) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)]
    assert [(line, key) for line, key in gets if key not in _DERIVED_GETS] == []


# parameters with a default and dataclass fields with a default, over the
# public functions and classes of the package: the values a caller may set
SETTABLE_VALUES = 63


def _settable_values(node, owner="") -> list:
    """The settable values of a public function or class, by name."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
        return []
    name = owner + node.name
    if isinstance(node, ast.FunctionDef):
        args = node.args
        named = args.posonlyargs + args.args
        return [f"{name}({arg.arg})" for arg, default in
                [*zip(named[len(named) - len(args.defaults):], args.defaults),
                 *zip(args.kwonlyargs, args.kw_defaults)] if default is not None]
    fields = [f"{name}.{item.target.id}" for item in node.body
              if isinstance(item, ast.AnnAssign) and item.value is not None]
    return fields + [value for item in node.body
                     for value in _settable_values(item, name + ".")]


def test_settable_library_values_are_pinned():
    found = []
    package = os.path.dirname(kerflow.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read())
            found += [value for node in tree.body for value in _settable_values(node)]
    assert len(found) == SETTABLE_VALUES, (
        f"{len(found)} settable values, pinned at {SETTABLE_VALUES}: a new option "
        "must raise the pin in its own diff and be named in CHANGES.md, and a "
        f"removed one lowers it; found {found}")


def test_compatibility_without_invariance_compares_nothing(tmp_path, capsys):
    data = _shipped("compatibility")
    del data["invariance"]
    code = cli.main(["run", _write(tmp_path, data), "--stable-output"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 0
    drift = checks["invariance_max_drift"]
    assert drift["value"] is None and drift["passed"] is None
    assert checks["compatibility_max_defect"]["passed"] is True


def test_shipped_compatibility_has_no_basis_pair_for_the_homomorphism(capsys):
    # a translation action in one dimension has one basis field, so the
    # bracket law compares nothing and must not pass
    code = cli.main(["run", os.path.join(CONFIG_DIR, "compatibility.json"),
                     "--stable-output"])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == cli.EXIT_PASS
    hom = checks["homomorphism_defect"]
    assert hom["value"] is None and hom["passed"] is None
    assert checks["compatibility_max_defect"]["passed"] is True
    assert checks["invariance_max_drift"]["passed"] is True


# on the half-plane x1 > 0, t1 flows along (-1, 0): a curve from x1 = 1e-4
# leaves the chart within its first step, so its pair compares nothing
_STUCK_PAIR = {"pair": [[1e-4, 0.0], [1.0, 0.0]], "epsilon": 1, "element": "t1"}
_MOVING_PAIR = {"pair": [[1.0, 0.0], [1.5, 0.2]], "epsilon": 1, "element": "t1"}


@pytest.mark.parametrize("pairs, compared", [
    ([_STUCK_PAIR], False),
    ([_MOVING_PAIR, _STUCK_PAIR], True),
])
def test_invariance_pair_reaching_no_time_fails(tmp_path, capsys, pairs, compared):
    code, checks = _run_checks(tmp_path, capsys, {
        "kind": "compatibility", "seed": 1,
        "kernel": {"name": "halfplane_bessel", "params": {"mass": 1.0}},
        "action": {"name": "euclidean", "params": {"p": 1, "q": 1, "domain": "halfplane"}},
        "samples": {"type": "grid2d", "n_side": 3, "x_range": [0.2, 2.2],
                    "y_range": [-1.0, 1.0]},
        "invariance": [dict(p, t_max=0.2, step=1e-3) for p in pairs],
    })
    drift = checks["invariance_max_drift"]
    assert code == cli.EXIT_CHECK_FAILURE
    assert drift["passed"] is False
    assert (drift["value"] is not None) == compared
    assert checks["compatibility_max_defect"]["passed"] is True


@pytest.mark.parametrize("stem, drop, null_checks", [
    ("rp_axioms", ("translations",), ("rp1_max_defect", "pairing_invariance_defect")),
    ("rp_axioms", ("parallel_translations",), ("rp2_max_defect",)),
    ("rp_axioms", ("kernel",), ("pairing_invariance_defect",)),
    # the determinant has no closed-form generator
    ("luscher_mack_det", (), ("generator_error",)),
    ("os_reconstruct_mixture", ("law_pairs_cells",), ("semigroup_law_defect",)),
    # a ratio over the ladder needs two levels with a conjugation value, or
    # two levels at all
    ("cdual_euclidean", ("conjugation",), ("conjugation_max_ratio",)),
    ("cdual_abelian", (), ("conjugation_max_ratio",)),
    ("cdual_halfplane", (), ("conjugation_max_ratio",)),
    ("froelich_rank1", (), ("monotone_max_ratio",)),
])
def test_grid_checks_without_a_comparison_are_null(tmp_path, capsys, stem, drop,
                                                   null_checks):
    data = _shipped(stem)
    for key in drop:
        del data[key]
    code, checks = _run_checks(tmp_path, capsys, data)
    assert code == 0
    for name, check in checks.items():
        if name in null_checks:
            assert check["value"] is None and check["passed"] is None, name
        elif CHECKS[data["kind"]][name] is None:
            assert check["passed"] is None, name
        else:
            assert check["passed"] is True, name


def test_pairing_invariance_fails_on_a_kernel_that_is_not_translation_invariant(
        tmp_path, capsys, monkeypatch):
    # exp(-(x0 + y0)) scales a pair translated by c cells along axis 0 by
    # exp(-2 c h), so the small defect of the shipped kernel comes from its
    # invariance, not from comparing nothing
    def smeared(kspec, grid):
        x = grid.points()[:, 0]
        return [1.0], distributions.SmearedKernel.from_matrix(
            grid, np.exp(-(x[:, None] + x[None, :])))

    monkeypatch.setattr(runner, "_ou_mixture_smeared", smeared)
    code, checks = _run_checks(tmp_path, capsys, _shipped("rp_axioms"))
    assert code == cli.EXIT_CHECK_FAILURE
    assert [name for name, c in checks.items() if c["passed"] is not True] \
        == ["pairing_invariance_defect"]
    assert checks["pairing_invariance_defect"]["value"] > 1e-6


def test_run_all_configs_prints_null_values(tmp_path, monkeypatch, capsys):
    module = _module_from_file("scripts", "run_all_configs.py")
    (tmp_path / "quadratic.json").write_text(json.dumps({
        "kind": "flow_laws", "seed": 1, "fields": [{"name": "quadratic1d"}],
        "n_points": 3, "n_time_samples": 2, "t_range": 0.2, "step": 1e-2}))
    monkeypatch.setattr(module, "CONFIG_DIR", str(tmp_path))
    assert module.main([]) == 0
    out = capsys.readouterr().out
    assert "pass  quadratic.json" in out
    assert ". matrix_exponential_max_defect: null vs 1e-08" in out

"""Experiment configuration: strict JSON schema with defaults.

Unknown keys are fatal and reported with their JSON path; silent typos in
tolerance names would invalidate acceptance runs.  Every experiment kind has a
fixed set of allowed blocks and tolerance names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError

KINDS = ("flow_laws", "bracket_order", "compatibility", "froelich",
         "cdual_rep", "luscher_mack", "os_reconstruct", "rp_axioms")

# allowed tolerance names and defaults, per kind
TOLERANCES = {
    "flow_laws": {"flow_law": 1e-8, "inverse_law": 1e-8, "matrix_exponential": 1e-8},
    "bracket_order": {"order_low": 1.8, "order_high": 2.2},
    "compatibility": {"compatibility": 1e-8, "invariance": 1e-8, "homomorphism": 1e-8},
    "froelich": {"relative_error": 1e-3, "monotone_ratio": 1.0},
    "cdual_rep": {"skew_defect": 1e-8, "unitarity": 1e-10, "conjugation_ratio": 1.0},
    "luscher_mack": {"psd_ratio": 1e-10, "generator": 1e-10, "star_property": 1e-8},
    "os_reconstruct": {"twisted_psd": 1e-10, "rank_ratio": 1e-10,
                       "semigroup_value": 1e-8, "contraction": 1e-8,
                       "semigroup_law": 1e-8, "self_adjoint": 1e-8},
    "rp_axioms": {"rp1": 1e-12, "rp2": 1e-12, "pairing_invariance": 1e-10},
}


@dataclass(frozen=True)
class Rule:
    """A key's allowed types plus what is checked once the types hold: the
    key may be required, and a number, or a list's length, may be bounded
    below."""

    types: object
    required: bool = False
    above: Optional[float] = None       # value must be greater than this
    at_least: Optional[int] = None      # value or list length must reach this


_FIELD_SPEC = {"name": str, "params": dict}
_SAMPLES_SPEC = {"type": str, "n": int, "n_side": int, "halfwidth": (int, float),
                 "dimension": int, "points": list, "refinement": list,
                 "x_range": list, "y_range": list, "radii": list,
                 "n_per_circle": int, "include_origin": bool}

# allowed top-level keys per kind (beyond kind/seed/tolerances)
SCHEMAS = {
    "flow_laws": {
        "fields": Rule(list, required=True, at_least=1),
        "n_points": Rule(int, at_least=1),
        "step": Rule((int, float), above=0),
        "t_range": Rule((int, float), above=0),
        "n_time_samples": Rule(int, at_least=1),
    },
    "bracket_order": {
        "pairs": list, "n_points": int, "h_ladder": list,
    },
    "compatibility": {
        "kernel": dict, "action": dict, "algebra": dict, "samples": dict,
        "invariance": list,
    },
    "froelich": {
        "kernel": dict, "field": dict, "samples": dict,
        "start_point": list, "time": (int, float), "step": (int, float),
        "rank_cutoff": (int, float),
    },
    "cdual_rep": {
        "kernel": dict, "action": dict, "algebra": dict, "samples": dict,
        "unitary_times": list, "conjugation": dict, "rank_cutoff": (int, float),
    },
    "luscher_mack": {
        "variant": str, "exponent": (int, float), "power": (int, float),
        "n_samples": int, "interval": list, "matrix_size": int,
        "spectral_range": list, "rank_cutoff": (int, float),
    },
    "os_reconstruct": {
        "grid": dict, "kernel": dict, "bumps": list, "expected_rank": int,
        "times_cells": list, "law_pairs_cells": list, "rank_cutoff": (int, float),
    },
    "rp_axioms": {
        "grid": dict, "kernel": dict, "translations": list,
        "parallel_translations": list,
    },
}

_GRID_SPEC = {"origin": (list, int, float), "spacing": (int, float),
              "shape": (list, int), "margin": int}
_ALGEBRA_SPEC = {"name": str, "params": dict, "structure_constants": list,
                 "involution": list, "labels": list}
_CONJ_SPEC = {"x": str, "y": str, "s": (int, float)}
_INVARIANCE_SPEC = {"pair": list, "epsilon": int, "element": (int, str),
                    "t_max": (int, float), "step": (int, float)}
_BUMP_SPEC = {"center": (list, int, float), "width": (int, float)}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    tolerances: dict
    body: dict          # kind-specific validated keys
    raw: dict           # full echo for the report

    def tol(self, name: str) -> float:
        return float(self.tolerances[name])


def _check_keys(obj: dict, spec: dict, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    for key, val in obj.items():
        if key not in spec:
            raise ConfigError(f"{path}.{key}", "unknown key")
        expected = spec[key]
        if isinstance(expected, Rule):
            expected = expected.types
        if not isinstance(val, expected if isinstance(expected, tuple) else (expected,)):
            raise ConfigError(f"{path}.{key}",
                              f"expected {expected}, got {type(val).__name__}")


def _check_rules(obj: dict, spec: dict, path: str):
    """Required keys and lower bounds of the keys ``spec`` declares by Rule."""
    for key, rule in spec.items():
        if not isinstance(rule, Rule):
            continue
        if key not in obj:
            if rule.required:
                raise ConfigError(f"{path}.{key}", "required")
            continue
        val = obj[key]
        size = len(val) if isinstance(val, list) else val
        # written as ``not`` so that a NaN fails
        if rule.above is not None and not size > rule.above:
            raise ConfigError(f"{path}.{key}", f"must be > {rule.above}")
        if rule.at_least is not None and not size >= rule.at_least:
            what = "length" if isinstance(val, list) else "value"
            raise ConfigError(f"{path}.{key}", f"{what} must be >= {rule.at_least}")


def _validate_block(cfg: dict, key: str, spec: dict, path: str):
    if key in cfg and isinstance(cfg[key], dict):
        _check_keys(cfg[key], spec, f"{path}.{key}")


def _resolve_builtin_names(data: dict):
    """Every referenced builtin name must resolve in its catalog."""
    from .algebra import ALGEBRA_CATALOG
    from .flows import FIELD_CATALOG
    from .kernels import KERNEL_CATALOG
    from .operators import ACTION_CATALOG

    def check(block, catalog, path):
        if isinstance(block, dict) and "name" in block \
                and block["name"] not in catalog:
            raise ConfigError(f"{path}.name",
                              f"unknown builtin {block['name']!r}")

    check(data.get("kernel"), KERNEL_CATALOG, "$.kernel")
    check(data.get("action"), ACTION_CATALOG, "$.action")
    check(data.get("field"), FIELD_CATALOG, "$.field")
    check(data.get("algebra"), ALGEBRA_CATALOG, "$.algebra")
    for i, f in enumerate(data.get("fields", [])):
        check(f, FIELD_CATALOG, f"$.fields[{i}]")
    for i, pair in enumerate(data.get("pairs", [])):
        if isinstance(pair, dict):
            check(pair.get("x"), FIELD_CATALOG, f"$.pairs[{i}].x")
            check(pair.get("y"), FIELD_CATALOG, f"$.pairs[{i}].y")


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError("$.kind", f"must be one of {', '.join(KINDS)}")
    top_spec = {"kind": str, "seed": int, "tolerances": dict, **SCHEMAS[kind]}
    _check_keys(data, top_spec, "$")
    if "seed" not in data:
        raise ConfigError("$.seed", "required")

    tol_defaults = dict(TOLERANCES[kind])
    for name, value in data.get("tolerances", {}).items():
        if name not in tol_defaults:
            raise ConfigError(f"$.tolerances.{name}", "unknown tolerance")
        if not isinstance(value, (int, float)):
            raise ConfigError(f"$.tolerances.{name}", "must be a number")
        tol_defaults[name] = float(value)
    _check_rules(data, SCHEMAS[kind], "$")

    for block, spec in (("kernel", _FIELD_SPEC), ("action", _FIELD_SPEC),
                        ("field", _FIELD_SPEC), ("samples", _SAMPLES_SPEC),
                        ("grid", _GRID_SPEC), ("conjugation", _CONJ_SPEC),
                        ("algebra", _ALGEBRA_SPEC)):
        _validate_block(data, block, spec, "$")
    _resolve_builtin_names(data)
    if kind == "flow_laws":
        for i, f in enumerate(data["fields"]):
            _check_keys(f, _FIELD_SPEC, f"$.fields[{i}]")
            if "name" not in f:
                raise ConfigError(f"$.fields[{i}].name", "required")
    if kind == "bracket_order":
        for i, pair in enumerate(data.get("pairs", [])):
            _check_keys(pair, {"x": dict, "y": dict}, f"$.pairs[{i}]")
            _check_keys(pair["x"], _FIELD_SPEC, f"$.pairs[{i}].x")
            _check_keys(pair["y"], _FIELD_SPEC, f"$.pairs[{i}].y")
    if kind == "compatibility":
        for i, inv in enumerate(data.get("invariance", [])):
            _check_keys(inv, _INVARIANCE_SPEC, f"$.invariance[{i}]")
    if kind == "os_reconstruct":
        for i, b in enumerate(data.get("bumps", [])):
            _check_keys(b, _BUMP_SPEC, f"$.bumps[{i}]")
    if kind == "rp_axioms":
        for block in ("translations", "parallel_translations"):
            for i, t in enumerate(data.get(block, [])):
                _check_keys(t, {"cells": list}, f"$.{block}[{i}]")

    samples = data.get("samples")
    if samples and "refinement" in samples:
        ladder = samples["refinement"]
        if any(ladder[i + 1] <= ladder[i] for i in range(len(ladder) - 1)):
            raise ConfigError("$.samples.refinement", "must be strictly increasing")

    seed = int(data["seed"])
    if os.environ.get("KERFLOW_SEED"):
        try:
            seed = int(os.environ["KERFLOW_SEED"])
        except ValueError:
            raise ConfigError("$.seed", "KERFLOW_SEED must be an integer")

    body = {k: v for k, v in data.items()
            if k not in ("kind", "seed", "tolerances")}
    return ExperimentConfig(kind, seed, tol_defaults, body, data)


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration file."""
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("$", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}")
    return validate_config(data)

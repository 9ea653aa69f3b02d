"""Experiment configuration: strict JSON schema with defaults.

Unknown keys are fatal and reported with their JSON path; silent typos in
tolerance names would invalidate acceptance runs.  Every experiment kind has a
fixed set of allowed blocks, and a check table that names its tolerances.

Everything ``validate`` and ``list-builtins`` read lives here, the builtin
catalogs and the key tables of their params included, and this module
imports no numpy, so neither command loads it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .errors import ConfigError

# Each kind's check contract, in report order: a check name maps to
# (tolerance name, default, test), or to None for an informational check
# (value only, passed null).  The test compares the value with the
# tolerance; ``quotient_rank`` has no default, since it is held to the
# body's ``expected_rank``.  The tolerance names with a default are the ones
# a config may set under ``tolerances``.
CHECKS = {
    "flow_laws": {"flow_law_max_defect": ("flow_law", 1e-8, "<="),
                  "inverse_law_max_defect": ("inverse_law", 1e-8, "<="),
                  "matrix_exponential_max_defect": ("matrix_exponential", 1e-8, "<=")},
    "bracket_order": {"min_fitted_order": ("order_low", 1.8, ">="),
                      "max_fitted_order": ("order_high", 2.2, "<=")},
    "compatibility": {"compatibility_max_defect": ("compatibility", 1e-8, "<="),
                      "homomorphism_defect": ("homomorphism", 1e-8, "<="),
                      "invariance_max_drift": ("invariance", 1e-8, "<=")},
    "froelich": {"relative_error": ("relative_error", 1e-3, "<="),
                 "monotone_max_ratio": ("monotone_ratio", 1.0, "<"),
                 "projection_residual": None},
    "cdual_rep": {"skew_defect_max": ("skew_defect", 1e-8, "<="),
                  "unitarity_defect_max": ("unitarity", 1e-10, "<="),
                  "conjugation_max_ratio": ("conjugation_ratio", 1.0, "<"),
                  "commutation_defect_final": None},
    "luscher_mack": {"psd_min_ratio": ("psd_ratio", 1e-10, ">= -tol"),
                     "generator_error": ("generator", 1e-10, "<="),
                     "star_defect_max": ("star_property", 1e-8, "<="),
                     "commutation_defect": None},
    "os_reconstruct": {"twisted_psd_min_ratio": ("twisted_psd", 1e-10, ">= -tol"),
                       "quotient_rank": ("expected_rank", None, "=="),
                       "rank_gap_ratio": ("rank_ratio", 1e-10, "<="),
                       "semigroup_eigenvalue_error": ("semigroup_value", 1e-8, "<="),
                       "contraction_defect": ("contraction", 1e-8, "<="),
                       "semigroup_law_defect": ("semigroup_law", 1e-8, "<="),
                       "self_adjointness_defect": ("self_adjoint", 1e-8, "<=")},
    "rp_axioms": {"rp1_max_defect": ("rp1", 1e-12, "<="),
                  "rp2_max_defect": ("rp2", 1e-12, "<="),
                  "pairing_invariance_defect": ("pairing_invariance", 1e-10, "<=")},
}
KINDS = tuple(CHECKS)


@dataclass(frozen=True)
class Rule:
    """A key's allowed types plus what is checked once the types hold: the
    key may be required, a number, or a list's length, may be bounded, a
    list may have to be as long as a sibling key's list, a value may have to
    be one of a few choices, every entry of a list may have to satisfy a
    rule of its own, an object value is checked against a key table of its
    own, and a key may have to agree with its siblings."""

    types: object
    required: bool = False
    above: Optional[float] = None       # value must be greater than this
    below: Optional[float] = None       # value must be less than this
    at_least: Optional[int] = None      # value or list length must reach this
    at_most: Optional[int] = None       # value or list length must not exceed this
    each: Optional["Rule"] = None       # rule for every entry of a list value
    spec: Optional[dict] = None         # key table of an object value
    choices: Optional[tuple] = None     # the values allowed
    same_length: Optional[str] = None   # sibling key whose list this one matches
    # cross-key check, given the whole block once every key's bounds hold:
    # None, or why this key (present or at its default) disagrees with the rest
    agrees: Optional[Callable[[dict], Optional[str]]] = None


# Upper bounds on integer sizes, so that a huge JSON integer is a config
# error, never an allocation or a loop without end.  A config's largest
# arrays have about the square of its sizes as entries; each bound keeps
# them near those of a Gram on MAX_POINTS points (32 MB).
MAX_POINTS = 2000           # sample points, flow and bracket points, bumps
MAX_SIDE = 44               # grid2d points per side: 44^2 = 1936 points
MAX_DIMENSION = 8           # coordinates of a uniform_box point
MAX_TIME_SAMPLES = 100      # flow_laws time pairs per point
MAX_MATRIX_SIZE = 4         # luscher_mack matrix_size n
# luscher_mack n_samples N: its kernel stacks (N n)^2 products
MAX_SEMIGROUP_SAMPLES = MAX_POINTS // MAX_MATRIX_SIZE
MAX_GRID_CELLS = 2048       # cells of a test-function grid, all axes together

# rules shared by the schemas and the builtin param tables below
NUMBER = Rule((int, float))
POSITIVE = Rule((int, float), above=0)
# a share of the largest Gram eigenvalue, below which an eigenvalue is dropped
_RANK_CUTOFF = Rule((int, float), above=0, below=1)
_PAIR = Rule(list, at_least=2, at_most=2, each=NUMBER)
POINT = Rule(list, at_least=1, each=NUMBER)

# key tables of the nested objects
_FIELD_SPEC = {"name": Rule(str, required=True), "params": dict}
_FIELD = Rule(dict, required=True, spec=_FIELD_SPEC)
_SAMPLES = Rule(dict, required=True, spec={
    "type": Rule(str, required=True), "n": Rule(int, at_least=1, at_most=MAX_POINTS),
    "n_side": Rule(int, at_least=1, at_most=MAX_SIDE), "halfwidth": POSITIVE,
    "dimension": Rule(int, at_least=1, at_most=MAX_DIMENSION),
    "points": Rule(list, at_least=1, each=POINT),
    # a level is a point count, or a side for grid2d (checked with the type)
    "refinement": Rule(list, at_least=1, each=Rule(int, at_least=1, at_most=MAX_POINTS)),
    "x_range": _PAIR, "y_range": _PAIR,
    "radii": Rule(list, at_least=1, each=POSITIVE),
    "n_per_circle": Rule(int, at_least=1, at_most=MAX_POINTS), "include_origin": bool})


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_sign(x) -> bool:
    return _is_number(x) and x in (-1, 1)


def _square_of(rows, n: int, entry: Callable) -> bool:
    """Whether ``rows`` is a list of n lists of n entries, each passing ``entry``."""
    return isinstance(rows, list) and len(rows) == n and all(
        isinstance(row, list) and len(row) == n and all(map(entry, row)) for row in rows)


def _structure_shape(block) -> Optional[str]:
    """Why explicit structure constants are not an (n, n, n) nested list."""
    c = block.get("structure_constants")
    if c is None or all(_square_of(layer, len(c), _is_number) for layer in c):
        return None
    return f"must be an (n, n, n) nested list of numbers, here n = {len(c)}"


def _involution_shape(block) -> Optional[str]:
    """Why an explicit involution is not diagonal with entries +-1, given
    as its n diagonal entries or as the n x n matrix."""
    if "involution" not in block or "structure_constants" not in block:
        return None
    inv, n = block["involution"], len(block["structure_constants"])
    if len(inv) == n and all(map(_is_sign, inv)):
        return None
    if _square_of(inv, n, _is_number) and all(
            _is_sign(v) if i == j else v == 0 for i, row in enumerate(inv)
            for j, v in enumerate(row)):
        return None
    return (f"must be the {n} diagonal entries, each +-1, or the {n} x {n} matrix with "
            "+-1 on its diagonal and 0 elsewhere (a basis of involution eigenvectors)")


def _one_label_each(block) -> Optional[str]:
    """Why explicit labels are not one string per basis element."""
    if "labels" not in block or "structure_constants" not in block:
        return None
    n = len(block["structure_constants"])
    if len(block["labels"]) == n and all(isinstance(x, str) for x in block["labels"]):
        return None
    return f"needs one string label per basis element ({n})"


_ALGEBRA = Rule(dict, spec={
    "name": str, "params": dict,
    "structure_constants": Rule(list, at_least=1, agrees=_structure_shape),
    "involution": Rule(list, agrees=_involution_shape),
    "labels": Rule(list, agrees=_one_label_each)})


def _reflection_origin(grid: dict) -> Optional[str]:
    """Why a grid's origin does not fit its shape, or leaves the first axis,
    the one both grid kinds reflect along, unsymmetric about 0."""
    origin, shape = (v if isinstance(v, list) else [v] for v in (grid["origin"], grid["shape"]))
    if len(origin) != len(shape):
        return f"needs one coordinate per grid axis ({len(shape)})"
    if math.prod(shape) > MAX_GRID_CELLS:
        return None     # the cell bound below reports the shape
    lo, spacing = float(origin[0]), float(grid["spacing"])
    if not symmetric_axis(lo, spacing, shape[0]):
        return (f"the grid must be symmetric about 0 along its first axis, the "
                f"reflection axis: with spacing {spacing:g} and {shape[0]} points "
                f"the origin there must be {-0.5 * spacing * (shape[0] - 1):g}")
    return None


def symmetric_axis(lo: float, spacing: float, n: int) -> bool:
    """Whether the n coordinates lo + k spacing are symmetric about 0."""
    hi = lo + spacing * (n - 1)
    return abs(lo + hi) < 1e-12 * max(1.0, abs(hi))


def _margin_fits(grid: dict) -> Optional[str]:
    """Why the margin (2 cells when absent) leaves a grid axis too short for it."""
    margin, shape = grid.get("margin", 2), grid["shape"]
    if min(shape if isinstance(shape, list) else [shape]) <= 2 * margin + 1:
        return f"every grid axis needs more than 2 * margin + 1 = {2 * margin + 1} points"
    return None


_GRID = Rule(dict, required=True, spec={
    "origin": Rule((list, int, float), required=True, each=NUMBER,
                   agrees=_reflection_origin),
    "spacing": Rule((int, float), required=True, above=0),
    # the product of the extents is bounded once the types hold
    "shape": Rule((list, int), required=True, at_least=1, each=Rule(int, at_least=1)),
    "margin": Rule(int, at_least=2, at_most=MAX_GRID_CELLS, agrees=_margin_fits)})
_TRANSLATIONS = Rule(list, each=Rule(dict, spec={"cells": Rule(list, required=True,
                                                               each=Rule(int))}))
_CELLS = Rule(int, at_least=0, at_most=MAX_GRID_CELLS)


def _distinct_steps(block: dict) -> Optional[str]:
    """Why a ``bracket_order`` step ladder would fit an order to one step size."""
    if len(set(block.get("h_ladder", (1, 2)))) < 2:
        return "a fitted order needs two distinct step sizes"
    return None


def _spectral_order(block: dict) -> Optional[str]:
    """Why a ``luscher_mack`` spectral range [lo, hi] is not ordered."""
    lo, hi = block.get("spectral_range", (0, 0))
    return None if lo <= hi else f"needs lo <= hi, got [{lo}, {hi}]"


def _read_by(variant: str, key: str, rule: Rule) -> Rule:
    """``rule`` for a luscher_mack key that only ``variant`` reads: set in a
    config of the other variant, it disagrees."""
    def agrees(block: dict) -> Optional[str]:
        chosen = block.get("variant", "power_1x1")
        if key in block and chosen != variant:
            return f"the {chosen} variant does not read it; only {variant} does"
        return rule.agrees(block) if rule.agrees else None

    return replace(rule, agrees=agrees)


# allowed top-level keys per kind (beyond kind/seed/tolerances)
SCHEMAS = {
    "flow_laws": {
        "fields": Rule(list, required=True, at_least=1, each=_FIELD),
        "n_points": Rule(int, at_least=1, at_most=MAX_POINTS),
        "step": Rule((int, float), above=0),
        "t_range": Rule((int, float), above=0),
        "n_time_samples": Rule(int, at_least=1, at_most=MAX_TIME_SAMPLES),
    },
    "bracket_order": {
        "pairs": Rule(list, required=True,
                      each=Rule(dict, spec={"x": _FIELD, "y": _FIELD})),
        "n_points": Rule(int, at_least=1, at_most=MAX_POINTS),
        # a fitted order needs at least two distinct step sizes
        "h_ladder": Rule(list, at_least=2, each=POSITIVE, agrees=_distinct_steps),
    },
    "compatibility": {
        "kernel": _FIELD, "action": _FIELD, "algebra": _ALGEBRA, "samples": _SAMPLES,
        "invariance": Rule(list, each=Rule(dict, spec={
            "pair": Rule(list, required=True, at_least=2, at_most=2, each=POINT),
            "epsilon": Rule(int, required=True, choices=(-1, 1)),
            "element": Rule((int, str), required=True),
            "t_max": Rule((int, float), above=0),
            "step": Rule((int, float), above=0)})),
    },
    "froelich": {
        "kernel": _FIELD, "field": _FIELD, "samples": _SAMPLES,
        "start_point": POINT, "time": (int, float),
        "step": Rule((int, float), above=0), "rank_cutoff": _RANK_CUTOFF,
    },
    "cdual_rep": {
        "kernel": _FIELD, "action": _FIELD, "algebra": _ALGEBRA, "samples": _SAMPLES,
        "unitary_times": Rule(list, at_least=1, each=NUMBER),
        "rank_cutoff": _RANK_CUTOFF,
        "conjugation": Rule(dict, spec={"x": Rule(str, required=True),
                                        "y": Rule(str, required=True),
                                        "s": Rule((int, float), required=True)}),
    },
    "luscher_mack": {
        "variant": Rule(str, choices=("power_1x1", "determinant")),
        "exponent": _read_by("power_1x1", "exponent", NUMBER),
        "interval": _read_by("power_1x1", "interval", _PAIR),
        "power": _read_by("determinant", "power", NUMBER),
        "matrix_size": _read_by("determinant", "matrix_size",
                                Rule(int, at_least=1, at_most=MAX_MATRIX_SIZE)),
        "spectral_range": _read_by("determinant", "spectral_range",
                                   replace(_PAIR, agrees=_spectral_order)),
        "n_samples": Rule(int, at_least=1, at_most=MAX_SEMIGROUP_SAMPLES),
        "rank_cutoff": _RANK_CUTOFF,
    },
    "os_reconstruct": {
        "grid": _GRID, "kernel": _FIELD,
        "bumps": Rule(list, required=True, at_least=1, each=Rule(dict, spec={
            "center": Rule((list, int, float), required=True),
            "width": Rule((int, float), required=True)})),
        "expected_rank": Rule(int, required=True, at_most=MAX_POINTS),
        # transfer times are cell counts along the direction away from the
        # reflection hyperplane, so never negative
        "times_cells": Rule(list, required=True, at_least=1, each=_CELLS),
        "law_pairs_cells": Rule(list, each=Rule(list, at_least=2, at_most=2,
                                                each=_CELLS)),
        "rank_cutoff": _RANK_CUTOFF,
    },
    "rp_axioms": {
        "grid": _GRID, "kernel": Rule(dict, spec=_FIELD_SPEC),
        "translations": _TRANSLATIONS, "parallel_translations": _TRANSLATIONS,
    },
}

# the RK4 step of an integral curve when a config gives none
DEFAULT_STEP = 1e-3
# RK4 steps (|time| / step) one integral curve of a config may ask for
MAX_CURVE_STEPS = 10 ** 5
# the time key of each kind's integral curves, with the value the runner
# reads when a config gives none; validation bounds time / step by
# MAX_CURVE_STEPS
CURVE_TIMES = {"time": 0.1, "t_range": 1.0, "t_max": 0.5}

# keys each sample type reads without a default (``runner._sample_points``);
# validation requires them
SAMPLE_KEYS = {"chebyshev": ("n",), "uniform_box": ("n",), "grid2d": ("n_side",),
               "circles": ("radii", "n_per_circle"), "explicit": ("points",)}
# keys each sample type reads with a default; besides ``type`` and the
# ``refinement`` ladder, validation rejects any key neither table names
SAMPLE_OPTIONAL_KEYS = {"chebyshev": ("halfwidth",),
                        "uniform_box": ("dimension", "halfwidth", "include_origin"),
                        "grid2d": ("x_range", "y_range"), "circles": (), "explicit": ()}

# The builtins a config names: for each kernel, action, field and algebra, a
# line for ``list-builtins`` and the key table its ``params`` are checked
# against, which lists the params its builder (``kernels.builtin_kernel``,
# ``operators.builtin_action``, ``flows.builtin_field``,
# ``algebra.builtin_algebra``) reads.

KERNEL_CATALOG = {
    "fock": "exponential kernel exp(<x, y>)",
    "gaussian_rbf": "rotation-invariant exp(-|x-y|^2 / 2 sigma^2)",
    "ou": "exponential-decay kernel exp(-m |x-y|), kink on the diagonal",
    "ou_mixture": "positive mixture sum_j w_j exp(-m_j |x-y|)",
    "laplace": "transform of an atomic measure: sum_j w_j exp(-a_j.(x+y)/2)",
    "laplace_gaussian": "transform of a Gaussian weight: exp(s^2 |x+y|^2 / 8)",
    "circle_laplace": "transform of a uniform circle measure; rotation invariant",
    "halfplane_bessel": "2 K0(m |(x1+y1, x2-y2)|) on the half-plane x1 > 0",
    "det": "det(1 - x y^T)^(-s) on contractive matrices",
}
_POSITIVE_LIST = Rule(list, at_least=1, each=POSITIVE)
KERNEL_PARAMS = {
    "fock": {},
    "gaussian_rbf": {"sigma": POSITIVE},
    "ou": {"mass": POSITIVE},
    "ou_mixture": {"masses": replace(_POSITIVE_LIST, required=True),
                   "weights": replace(_POSITIVE_LIST, same_length="masses")},
    "laplace": {"atoms": Rule(list, required=True, at_least=1, each=POINT),
                "weights": replace(_POSITIVE_LIST, required=True, same_length="atoms")},
    "laplace_gaussian": {"scale": NUMBER},
    "circle_laplace": {"mass": NUMBER,
                       "n_atoms": Rule(int, at_least=1, at_most=MAX_POINTS)},
    "halfplane_bessel": {"mass": POSITIVE},
    "det": {"n": Rule(int, required=True, at_least=1, at_most=MAX_MATRIX_SIZE),
            "power": replace(POSITIVE, required=True)},
}

ACTION_CATALOG = {
    "translation": "R^d translating itself; all directions flipped by the involution",
    "euclidean": "planar motions on R^2; involution by conjugation with diag(-I_p, I_q)",
    "matrix_right_multiplication": "gl(n) acting on a matrix ball by g -> g x",
}
# the ``euclidean`` p and q when absent: a planar motion splits 2 = p + q
EUCLIDEAN_SPLIT = {"p": 2, "q": 0}


def _planar_split(params) -> Optional[str]:
    split = {**EUCLIDEAN_SPLIT, **params}
    p, q = split["p"], split["q"]
    return None if p + q == 2 else f"a planar motion needs p + q = 2, got {p} + {q}"


ACTION_PARAMS = {
    "translation": {"dimension": Rule(int, at_least=1, at_most=MAX_DIMENSION)},
    "euclidean": {"p": Rule(int, at_least=0, at_most=2),
                  "q": Rule(int, at_least=0, at_most=2, agrees=_planar_split),
                  "domain": Rule(str, choices=("plane", "halfplane"))},
    "matrix_right_multiplication": {
        "n": Rule(int, required=True, at_least=1, at_most=MAX_MATRIX_SIZE),
        "radius": POSITIVE},
}

FIELD_CATALOG = {
    "rotation2d": "planar rotation generator (-y, x)",
    "constant": "constant field v",
    "affine": "affine field A p + b",
    "coordinate_shear": "x_from d/dx_to",
    "quad_swirl": "quadratic planar field (y^2, x)",
    "quadratic1d": "x^2 on the chart (-inf, 1); blows up in finite time",
}
# the coordinate_shear params when absent
SHEAR_DEFAULTS = {"from": 0, "to": 1, "dimension": 2}


def _shear_axis(key: str) -> Rule:
    """A ``coordinate_shear`` axis, below the field's own dimension."""
    def agrees(params):
        shear = {**SHEAR_DEFAULTS, **params}
        if shear[key] >= shear["dimension"]:
            return f"must be < dimension ({shear['dimension']})"
        return None
    return Rule(int, at_least=0, at_most=MAX_DIMENSION - 1, agrees=agrees)


def _square(params) -> Optional[str]:
    """Why an ``affine`` matrix is not square."""
    d = len(params["matrix"])
    if any(len(row) != d for row in params["matrix"]):
        return f"must be square: as many numbers in each row as it has rows ({d})"
    return None


def _offset_fits(params) -> Optional[str]:
    """Why an ``affine`` offset is not as long as a row of its matrix."""
    d = len(params["matrix"])
    if "offset" in params and len(params["offset"]) != d:
        return f"needs one entry per matrix row ({d})"
    return None


FIELD_PARAMS = {
    "rotation2d": {},
    "constant": {"vector": replace(POINT, required=True)},
    "affine": {"matrix": Rule(list, required=True, at_least=1, each=POINT, agrees=_square),
               "offset": replace(POINT, agrees=_offset_fits)},
    "coordinate_shear": {"from": _shear_axis("from"), "to": _shear_axis("to"),
                         "dimension": Rule(int, at_least=1, at_most=MAX_DIMENSION)},
    "quad_swirl": {},
    "quadratic1d": {},
}

ALGEBRA_CATALOG = {
    "euclidean_motion": "R^d >| so(d) with involution by diag(-I_p, I_q)",
    "abelian": "R^d, zero bracket, involution -1",
    "matrix_involutive": "gl(n, R) with a -> -a^T; h = so(n), q = sym(n)",
}
_SIZE = Rule(int, required=True, at_least=1, at_most=MAX_DIMENSION)
_PART = Rule(int, required=True, at_least=0, at_most=MAX_DIMENSION)
ALGEBRA_PARAMS = {
    "euclidean_motion": {"d": _SIZE, "p": _PART, "q": Rule(
        int, required=True, at_least=0, at_most=MAX_DIMENSION,
        agrees=lambda b: None if b["p"] + b["q"] == b["d"] else "needs p + q = d")},
    "abelian": {"d": _SIZE},
    "matrix_involutive": {"n": Rule(int, required=True, at_least=1,
                                    at_most=MAX_MATRIX_SIZE)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    tolerances: dict
    body: dict          # kind-specific validated keys
    raw: dict           # full echo for the report

    def tol(self, name: str) -> float:
        """A tolerance, or the body key a check is held to (``expected_rank``)."""
        return float(self.tolerances[name] if name in self.tolerances else self.body[name])


def _check_type(val, expected, path: str):
    """A JSON boolean is an integer to Python; it passes only where ``bool``
    itself is expected."""
    types = expected if isinstance(expected, tuple) else (expected,)
    if not isinstance(val, types) or (isinstance(val, bool) and bool not in types):
        raise ConfigError(path, f"expected {expected}, got {type(val).__name__}")


def _check_keys(obj: dict, spec: dict, path: str):
    for key, val in obj.items():
        if key not in spec:
            raise ConfigError(f"{path}.{key}", "unknown key")
        expected = spec[key]
        _check_type(val, expected.types if isinstance(expected, Rule) else expected,
                    f"{path}.{key}")


def _check_rules(obj: dict, spec: dict, path: str):
    """Required keys, bounds and cross-key checks of the keys ``spec``
    declares by Rule."""
    for key, rule in spec.items():
        if not isinstance(rule, Rule):
            continue
        if key in obj:
            _check_bounds(obj[key], rule, f"{path}.{key}")
            other = obj.get(rule.same_length)
            if other is not None and len(obj[key]) != len(other):
                raise ConfigError(f"{path}.{key}",
                                  f"needs one entry per entry of {rule.same_length}")
        elif rule.required:
            raise ConfigError(f"{path}.{key}", "required")
    for key, rule in spec.items():
        problem = rule.agrees(obj) if isinstance(rule, Rule) and rule.agrees else None
        if problem is not None:
            raise ConfigError(f"{path}.{key}", problem)


def _check_block(obj: dict, spec: dict, path: str):
    _check_keys(obj, spec, path)
    _check_rules(obj, spec, path)


def _check_bounds(val, rule: Rule, path: str):
    size = len(val) if isinstance(val, list) else val
    # written as ``not`` so that a NaN fails
    if rule.above is not None and not size > rule.above:
        raise ConfigError(path, f"must be > {rule.above}")
    if rule.below is not None and not size < rule.below:
        raise ConfigError(path, f"must be < {rule.below}")
    if rule.at_least is not None and not size >= rule.at_least:
        what = "length" if isinstance(val, list) else "value"
        raise ConfigError(path, f"{what} must be >= {rule.at_least}")
    if rule.at_most is not None and not size <= rule.at_most:
        what = "length" if isinstance(val, list) else "value"
        raise ConfigError(path, f"{what} must be <= {rule.at_most}")
    if rule.choices is not None and val not in rule.choices:
        raise ConfigError(path, f"must be one of {', '.join(map(str, rule.choices))}")
    if rule.each is not None and isinstance(val, list):
        for i, item in enumerate(val):
            _check_type(item, rule.each.types, f"{path}[{i}]")
            _check_bounds(item, rule.each, f"{path}[{i}]")
    if rule.spec is not None and isinstance(val, dict):
        _check_block(val, rule.spec, path)


def _check_samples(samples: dict, kind: str):
    """The keys the sample type reads and no other, and a strictly increasing ladder."""
    if samples["type"] not in SAMPLE_KEYS:
        raise ConfigError("$.samples.type", f"unknown sample type {samples['type']!r}")
    # a ladder gives the sizes, but compatibility samples once and some types take none
    sized = {"n", "n_side"} & set(SAMPLE_KEYS[samples["type"]])
    by_ladder = "refinement" in samples and kind != "compatibility"
    for key in SAMPLE_KEYS[samples["type"]]:
        if key not in samples and not (by_ladder and key in sized):
            raise ConfigError(f"$.samples.{key}", "required")
    if "refinement" in samples and not (by_ladder and sized):
        why = "compatibility samples once" if sized else f"{samples['type']} samples take no size"
        raise ConfigError("$.samples.refinement", f"no level would be read: {why}")
    points = samples.get("points", [])
    for i, point in enumerate(points):
        if len(point) != len(points[0]):
            raise ConfigError(f"$.samples.points[{i}]",
                              f"needs {len(points[0])} coordinates, as the first point")
    ladder = samples.get("refinement", [])
    if any(ladder[i + 1] <= ladder[i] for i in range(len(ladder) - 1)):
        raise ConfigError("$.samples.refinement", "must be strictly increasing")
    if samples["type"] == "grid2d":
        for i, side in enumerate(ladder):
            if side > MAX_SIDE:
                raise ConfigError(f"$.samples.refinement[{i}]",
                                  f"a grid2d side must be <= {MAX_SIDE}")
    reads = {"type", "refinement", *SAMPLE_KEYS[samples["type"]],
             *SAMPLE_OPTIONAL_KEYS[samples["type"]]}
    for key in samples:
        if key not in reads:
            raise ConfigError(f"$.samples.{key}", f"a {samples['type']} sample does not read it")


def _check_curve_steps(data: dict, kind: str):
    """|time| / step of every integral curve the config asks for, read with
    the runner's defaults, is at most ``MAX_CURVE_STEPS``; a larger ratio
    asks for work without bound."""
    if kind == "compatibility":
        key, blocks = "t_max", [(f"$.invariance[{i}]", inv)
                                for i, inv in enumerate(data.get("invariance", []))]
    else:
        key, blocks = {"froelich": "time", "flow_laws": "t_range"}[kind], [("$", data)]
    for path, block in blocks:
        time, step = abs(block.get(key, CURVE_TIMES[key])), block.get("step", DEFAULT_STEP)
        # compared without dividing, so that a huge JSON integer cannot
        # overflow, and written as ``not`` so that a NaN fails
        if not time <= MAX_CURVE_STEPS * step:
            raise ConfigError(f"{path}.{key}", f"asks for more than {MAX_CURVE_STEPS} "
                                               f"RK4 steps of {step} per curve")


def _resolve_builtin_names(data: dict):
    """Every referenced builtin name must resolve in its catalog, and its
    params must satisfy the builtin's key table (``KERNEL_PARAMS`` and the
    rest)."""
    # the blocks are checked against their key tables by now
    def check(block, tables, path):
        if block is None or "name" not in block:
            return
        if block["name"] not in tables:
            raise ConfigError(f"{path}.name",
                              f"unknown builtin {block['name']!r}")
        _check_block(block.get("params", {}), tables[block["name"]], f"{path}.params")

    check(data.get("kernel"), KERNEL_PARAMS, "$.kernel")
    check(data.get("action"), ACTION_PARAMS, "$.action")
    check(data.get("field"), FIELD_PARAMS, "$.field")
    check(data.get("algebra"), ALGEBRA_PARAMS, "$.algebra")
    algebra = data.get("algebra")
    if algebra is not None and "name" not in algebra:
        for key in ("structure_constants", "involution"):
            if key not in algebra:
                raise ConfigError(f"$.algebra.{key}", "required")
    for i, f in enumerate(data.get("fields", [])):
        check(f, FIELD_PARAMS, f"$.fields[{i}]")
    for i, pair in enumerate(data.get("pairs", [])):
        check(pair["x"], FIELD_PARAMS, f"$.pairs[{i}].x")
        check(pair["y"], FIELD_PARAMS, f"$.pairs[{i}].y")


def first_non_finite(node, path: str = "$") -> Optional[str]:
    """The JSON path of the first non-finite number in ``node``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        children = ((f"{path}.{key}", child) for key, child in node.items())
    elif isinstance(node, (list, tuple)):
        children = ((f"{path}[{i}]", child) for i, child in enumerate(node))
    else:
        return None
    for at, child in children:
        found = first_non_finite(child, at)
        if found is not None:
            return found
    return None


def validate_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ConfigError("$.kind", f"must be one of {', '.join(KINDS)}")
    tolerances = {entry[0]: entry[1] for entry in CHECKS[kind].values()
                  if entry is not None and entry[1] is not None}
    _check_block(data, {"kind": str, "seed": Rule(int, required=True),
                        "tolerances": Rule(dict, spec=dict.fromkeys(tolerances, NUMBER)),
                        **SCHEMAS[kind]}, "$")
    tolerances.update({k: float(v) for k, v in data.get("tolerances", {}).items()})
    _resolve_builtin_names(data)
    if kind in ("os_reconstruct", "rp_axioms") and "kernel" in data:
        if data["kernel"]["name"] != "ou_mixture":
            raise ConfigError("$.kernel.name", f"{kind} runs on the ou_mixture family")
    if "grid" in data:
        shape = data["grid"]["shape"]
        shape = shape if isinstance(shape, list) else [shape]
        if math.prod(shape) > MAX_GRID_CELLS:
            raise ConfigError("$.grid.shape", f"more than {MAX_GRID_CELLS} cells")
    if kind == "rp_axioms":
        # the kernel's check compares the translated bumps, so without a
        # translation of either kind no check would compare anything
        if not data.get("translations") and not data.get("parallel_translations"):
            raise ConfigError("$.translations", "required unless "
                                                "parallel_translations is given")
        for block in ("translations", "parallel_translations"):
            for i, t in enumerate(data.get(block, [])):
                path = f"$.{block}[{i}].cells"
                if len(t["cells"]) != len(shape):
                    raise ConfigError(path, "need one cell shift per grid axis")
                if any(abs(c) >= extent for c, extent in zip(t["cells"], shape)):
                    raise ConfigError(path, "each shift must be smaller than "
                                            "the grid extent along its axis")

    if "samples" in data:
        _check_samples(data["samples"], kind)
    if kind in ("froelich", "flow_laws", "compatibility"):
        _check_curve_steps(data, kind)
    # JSON has no NaN or Infinity, yet the parser reads them, and 1e999 as an
    # infinity: no key takes one, and a report could not carry it back out
    where = first_non_finite(data)
    if where is not None:
        raise ConfigError(where, "must be a finite number")

    seed = int(data["seed"])
    if os.environ.get("KERFLOW_SEED"):
        try:
            seed = int(os.environ["KERFLOW_SEED"])
        except ValueError:
            raise ConfigError("$.seed", "KERFLOW_SEED must be an integer")

    body = {k: v for k, v in data.items()
            if k not in ("kind", "seed", "tolerances")}
    return ExperimentConfig(kind, seed, tolerances, body, data)


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate a JSON experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("$", f"no such file: {path}")
    # a directory, a file without read permission, bytes that are not UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("$", f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}")
    except RecursionError:
        raise ConfigError("$", "JSON nested too deeply to read")
    return validate_config(data)

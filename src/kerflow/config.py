"""Experiment configuration: strict JSON schema with defaults.

Unknown keys are fatal and reported with their JSON path; silent typos in
tolerance names would invalidate acceptance runs.  Every experiment kind has a
fixed set of allowed blocks, and a check table that names its tolerances.

Everything ``validate`` and ``list-builtins`` read lives here, the builtin
catalogs and the key tables of their params included, and this module
imports no numpy, so neither command loads it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
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


REQUIRED = object()     # the ``default`` of a key that its block must give


@dataclass(frozen=True)
class Rule:
    """A key's allowed types plus what is checked once the types hold: the
    key may be required or have a default, a number, or a list's length, may
    be bounded, every entry of a list may have to satisfy a rule of its own,
    an object value is checked against a key table of its own, a string
    value may select the keys its block reads, and a key may have to agree
    with its siblings."""

    types: object
    # REQUIRED, the value an absent key reads as, or None: an absent key
    # stays absent, and its reader says what that means
    default: object = None
    above: Optional[float] = None       # value must be greater than this
    below: Optional[float] = None       # value must be less than this
    at_least: Optional[int] = None      # value or list length must reach this
    at_most: Optional[int] = None       # value or list length must not exceed this
    each: Optional["Rule"] = None       # rule for every entry of a list value
    # key table of an object value; of a string key, the keys that each of
    # its values adds to the block, under None those it adds when absent
    spec: Optional[dict] = None
    # cross-key check, given the whole block once every key's bounds hold:
    # None, or why this key (present or at its default) disagrees with the
    # rest, as a message, as (path suffix, message) naming one of its entries,
    # or as (later key, path suffix, message) for a later key it decides too
    agrees: Optional[Callable[[dict], object]] = None

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


# Upper bounds on integer sizes, so that a huge JSON integer is a config
# error, never an allocation or a loop without end.  A config's largest
# arrays have about the square of its sizes as entries; each bound keeps
# them near those of a Gram on MAX_POINTS points (32 MB).
# sample points, flow and bracket points, bumps, rp_axioms translations
# and parallel_translations
MAX_POINTS = 2000
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
# strictly between 0 and 1: a rank cutoff, the share of the largest Gram
# eigenvalue below which an eigenvalue is dropped, and a contraction's norm
_UNIT = Rule((int, float), above=0, below=1)
POINT = Rule(list, at_least=1, each=NUMBER)
_COUNT = Rule(int, default=REQUIRED, at_least=1, at_most=MAX_POINTS)
# the rank cutoff of a plain Gram, and the looser one of the kinds that
# compress forms or whiten a reflected (twisted) Gram, whose rank decays steeply
DEFAULT_RANK_CUTOFF = 1e-12
LOOSE_RANK_CUTOFF = 1e-10
_RANK_CUTOFF = replace(_UNIT, default=LOOSE_RANK_CUTOFF)


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
    c = block["structure_constants"]
    if all(_square_of(layer, len(c), _is_number) for layer in c):
        return None
    return f"must be an (n, n, n) nested list of numbers, here n = {len(c)}"


def _involution_shape(block) -> Optional[str]:
    """Why an explicit involution is not diagonal with entries +-1, given
    as its n diagonal entries or as the n x n matrix."""
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
    if "labels" not in block:
        return None
    n = len(block["structure_constants"])
    if len(block["labels"]) == n and all(isinstance(x, str) for x in block["labels"]):
        return None
    return f"needs one string label per basis element ({n})"


def _axes(value) -> list:
    """A grid ``shape`` or ``origin`` as a list: a number stands for one axis."""
    return value if isinstance(value, list) else [value]


def _reflection_origin(grid: dict) -> Optional[str]:
    """Why a grid's origin does not fit its shape, or leaves the first axis,
    the one both grid kinds reflect along, unsymmetric about 0."""
    origin, shape = _axes(grid["origin"]), _axes(grid["shape"])
    if len(origin) != len(shape):
        return f"needs one coordinate per grid axis ({len(shape)})"
    if math.prod(shape) > MAX_GRID_CELLS or first_non_finite(grid):
        return None     # the cell bound of the shape, or the finite check, reports it
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
    """Why the margin leaves a grid axis too short for it."""
    margin = grid["margin"]
    if min(_axes(grid["shape"])) <= 2 * margin + 1:
        return f"every grid axis needs more than 2 * margin + 1 = {2 * margin + 1} points"
    return None


# zero cells at each end of a grid axis: a grid's default margin, and its least
MIN_MARGIN = 2
_GRID = Rule(dict, default=REQUIRED, spec={
    "origin": Rule((list, int, float), default=REQUIRED, each=NUMBER,
                   agrees=_reflection_origin),
    "spacing": Rule((int, float), default=REQUIRED, above=0),
    "shape": Rule((list, int), default=REQUIRED, at_least=1, each=Rule(int, at_least=1),
                  agrees=lambda grid: "a grid has 1 or 2 axes" if len(_axes(grid["shape"])) > 2
                  else None if math.prod(_axes(grid["shape"])) <= MAX_GRID_CELLS
                  else f"more than {MAX_GRID_CELLS} cells"),
    "margin": Rule(int, default=MIN_MARGIN, at_least=MIN_MARGIN, at_most=MAX_GRID_CELLS,
                   agrees=_margin_fits)})
_SHIFT = Rule(dict, spec={"cells": Rule(list, default=REQUIRED, each=Rule(int))})
_CELLS = Rule(int, at_least=0, at_most=MAX_GRID_CELLS)


# rp_axioms compares the pairing of two bumps of this width, centred at the
# first coordinates of these points, with the pairing of each translate
PAIRING_BUMPS = ((-0.8, 0.0), (0.6, 0.2))
PAIRING_WIDTH = 0.3


@functools.lru_cache(maxsize=256)     # each rp_axioms pairing bump serves every translation
def _bump_box(origin: tuple, spacing: float, shape: tuple, center: tuple,
              width: float) -> Optional[tuple]:
    """Per grid axis, the first and last cell where ``distributions.bump`` is
    not zero, by its floating-point steps, or None.  They are monotone in the
    cell k and in each squared offset ((o + spacing k - c) / width)^2, so
    bisection finds each axis's run, the other axes at their least offset."""
    def square(a, k):
        d = (origin[a] + spacing * k - center[a]) / width
        return d * d
    # per axis, the first cell at or past the centre: squares fall before it
    mids = [bisect.bisect_left(range(n), center[a], key=lambda k, a=a: origin[a] + spacing * k)
            for a, n in enumerate(shape)]
    least = [min(square(a, k) for k in (m - 1, m) if 0 <= k < n)
             for a, (m, n) in enumerate(zip(mids, shape))]
    box = []
    for a, (mid, n) in enumerate(zip(mids, shape)):
        def nonzero(k, a=a, rest=sum(q for b, q in enumerate(least) if b != a)):
            u2 = square(a, k) + rest
            return u2 < 1.0 and math.exp(-1.0 / (1.0 - u2)) != 0.0
        box.append((bisect.bisect_left(range(mid), True, key=nonzero), mid - 1 + bisect.bisect_left(
            range(mid, n), True, key=lambda k: not nonzero(k))))
    return tuple(box) if all(lo <= hi for lo, hi in box) else None


def moved_out(shape, margin: int, box, shift) -> Optional[str]:
    """Why the cells of ``box`` (per axis the first and last cell where a grid
    function is not zero, or None for the zero function) moved by ``shift``
    cells leave a grid of ``shape`` or reach its ``margin``; or None."""
    if box is None:
        return None
    gap = min(min(lo + s, n - 1 - hi - s) for (lo, hi), s, n in zip(box, shift, shape))
    return ("translation pushed support off the grid" if gap < 0 else
            "support touches the margin" if gap < margin else None)


def in_positive_slice(origin: float, spacing: float, box) -> bool:
    """Whether the cells of ``box`` lie where the first coordinate, ``origin``
    + ``spacing`` k at cell k of the first axis, is > 0."""
    return box is None or origin + spacing * box[0][0] > 0.0


def _bumps_leave_the_margin(block: dict, shift) -> bool:
    """Whether ``rp_axioms`` pairs its bumps (with a kernel and a translation)
    and one is zero on every grid point, so that the pairing would compare
    nothing, or, moved by ``shift`` cells, leaves the grid or touches its
    margin, which stops a run.  A number not finite is left to its own check."""
    grid = block["grid"]
    if block.get("kernel") is None or not block["translations"] or first_non_finite(grid):
        return False
    origin, shape = tuple(_axes(grid["origin"])), tuple(_axes(grid["shape"]))
    return any((box := _bump_box(origin, grid["spacing"], shape, c[:len(shape)], PAIRING_WIDTH))
               is None or moved_out(shape, grid["margin"], box, shift) for c in PAIRING_BUMPS)


def _shifts_fit(block: dict, key: str):
    """Why an ``rp_axioms`` translation of ``key`` is not one cell shift per
    grid axis, each smaller in size than the grid extent along its axis, or
    moves a pairing bump into the margin.
    The kernel's check compares translated bumps, so with no translation of
    either kind no check would compare anything: the first key reports it."""
    if not block["translations"] and not block["parallel_translations"]:
        return "required unless parallel_translations is given"
    shape = _axes(block["grid"]["shape"])
    for i, t in enumerate(block[key]):
        if len(t["cells"]) != len(shape) or any(
                abs(c) >= extent for c, extent in zip(t["cells"], shape)):
            return f"[{i}].cells", ("needs one cell shift per grid axis, each smaller in size "
                                    f"than the grid extent along it, {shape}")
        if key == "translations" and _bumps_leave_the_margin(block, t["cells"]):
            return f"[{i}].cells", "moves a pairing bump into the grid's margin or off the grid"
    return None


def _bumps_fit(block: dict):
    """Why an ``os_reconstruct`` bump is not a test function of the positive
    slice, or, at ``times_cells`` or ``law_pairs_cells``, why a shift (a
    ``times_cells`` entry, a ``law_pairs_cells`` pair's times and their sum)
    moves one off the grid or onto its margin: the three keys' checks in
    order, on one box per bump.  A number that is not finite is left to the
    check that names it."""
    grid, boxes = block["grid"], []
    if first_non_finite([grid, block["bumps"]]):
        return None
    origin, shape = tuple(_axes(grid["origin"])), tuple(_axes(grid["shape"]))
    for i, bump in enumerate(block["bumps"]):
        center = tuple(_axes(bump["center"]))
        if len(center) != len(shape):
            return f"[{i}].center", f"needs {len(shape)} coordinates, one per grid axis"
        box = _bump_box(origin, grid["spacing"], shape, center, bump["width"])
        if why := ("the bump is zero on every grid point" if box is None
                   else moved_out(shape, grid["margin"], box, [0] * len(shape))):
            return f"[{i}]", why
        if not in_positive_slice(origin[0], grid["spacing"], box):
            return f"[{i}]", ("the bump's support must lie in the positive slice, "
                              "where the first coordinate is > 0")
        boxes.append(box)
    for key in ("times_cells", "law_pairs_cells"):
        for i, entry in enumerate(block[key]):
            for c, box in itertools.product([entry] if key == "times_cells"
                                            else [*entry, sum(entry)], boxes):
                if why := moved_out(shape, grid["margin"], box, [c] + [0] * (len(shape) - 1)):
                    return key, f"[{i}]", f"a shift by {c} cells: {why}"
    return None


def _distinct_steps(block: dict) -> Optional[str]:
    """Why a ``bracket_order`` step ladder would fit an order to one step size."""
    if len(set(block["h_ladder"])) < 2:
        return "a fitted order needs two distinct step sizes"
    return None


def _range(key: str, default: list, each: Rule, strict: bool) -> Rule:
    """A range [lo, hi] of ``key`` with lo < hi, or lo <= hi when not ``strict``."""
    def agrees(block):
        lo, hi = block[key]
        if lo < hi or (lo == hi and not strict):
            return None
        return f"needs lo {'<' if strict else '<='} hi, got [{lo}, {hi}]"
    return Rule(list, default=default, at_least=2, at_most=2, each=each, agrees=agrees)


# the RK4 step of an integral curve when a config gives none
DEFAULT_STEP = 1e-3
# the central-difference step of a field's Jacobian or a kernel's gradient
# that has no closed form
DEFAULT_FD_STEP = 1e-5
_STEP = Rule((int, float), default=DEFAULT_STEP, above=0)
# RK4 steps (|time| / step) one integral curve of a config may ask for
MAX_CURVE_STEPS = 10 ** 5


def _curve_time(key: str, default: float, **bounds) -> Rule:
    """The time ``key`` of a block's integral curves, whose |time| / step is
    at most ``MAX_CURVE_STEPS`` RK4 steps: a larger ratio asks for work
    without bound."""
    def agrees(block):
        time, step = abs(block[key]), block["step"]
        # compared without dividing, so that a huge JSON integer cannot
        # overflow, and written as ``not`` so that a NaN fails
        if not time <= MAX_CURVE_STEPS * step:
            return f"asks for more than {MAX_CURVE_STEPS} RK4 steps of {step} per curve"
        return None
    return Rule((int, float), default=default, agrees=agrees, **bounds)


# The builtins a config names: for each kernel, action, field and algebra, a
# line for ``list-builtins`` and the key table of the params its builder
# (``kernels.builtin_kernel``, ``operators.builtin_action``,
# ``flows.builtin_field``, ``algebra.builtin_algebra``) reads through
# ``builtin_params``, each absent one at its default.

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
    "gaussian_rbf": {"sigma": replace(POSITIVE, default=1.0)},
    "ou": {"mass": replace(POSITIVE, default=1.0)},
    "ou_mixture": {"masses": replace(_POSITIVE_LIST, default=REQUIRED),
                   # absent: 1 for each mass (``kernels.ou_mixture_profile``)
                   "weights": replace(_POSITIVE_LIST, agrees=lambda p: None if len(
                       p.get("weights", p["masses"])) == len(p["masses"])
                       else "needs one entry per entry of masses")},
    "laplace": {"atoms": Rule(list, default=REQUIRED, at_least=1, each=POINT),
                "weights": replace(_POSITIVE_LIST, default=REQUIRED, agrees=lambda p: None
                                   if len(p["weights"]) == len(p["atoms"])
                                   else "needs one entry per entry of atoms")},
    "laplace_gaussian": {"scale": replace(NUMBER, default=1.0)},
    "circle_laplace": {"mass": replace(NUMBER, default=1.0),
                       "n_atoms": Rule(int, default=32, at_least=1, at_most=MAX_POINTS)},
    "halfplane_bessel": {"mass": replace(POSITIVE, default=1.0)},
    "det": {"n": Rule(int, default=REQUIRED, at_least=1, at_most=MAX_MATRIX_SIZE),
            "power": replace(POSITIVE, default=REQUIRED)},
}

ACTION_CATALOG = {
    "translation": "R^d translating itself; all directions flipped by the involution",
    "euclidean": "planar motions on R^2; involution by conjugation with diag(-I_p, I_q)",
    "matrix_right_multiplication": "gl(n) acting on a matrix ball by g -> g x",
}


def _planar_split(params) -> Optional[str]:
    p, q = params["p"], params["q"]
    return None if p + q == 2 else f"a planar motion needs p + q = 2, got {p} + {q}"


ACTION_PARAMS = {
    "translation": {"dimension": Rule(int, default=1, at_least=1, at_most=MAX_DIMENSION)},
    "euclidean": {"p": Rule(int, default=2, at_least=0, at_most=2),
                  "q": Rule(int, default=0, at_least=0, at_most=2, agrees=_planar_split),
                  "domain": Rule(str, default="plane", agrees=lambda p: None
                                 if p["domain"] in ("plane", "halfplane")
                                 else "must be one of plane, halfplane")},
    "matrix_right_multiplication": {
        "n": Rule(int, default=REQUIRED, at_least=1, at_most=MAX_MATRIX_SIZE),
        "radius": replace(POSITIVE, default=1.0)},
}

FIELD_CATALOG = {
    "rotation2d": "planar rotation generator (-y, x)",
    "constant": "constant field v",
    "affine": "affine field A p + b",
    "coordinate_shear": "x_from d/dx_to",
    "quad_swirl": "quadratic planar field (y^2, x)",
    "quadratic1d": "x^2 on the chart (-inf, 1); blows up in finite time",
}


def _shear_axis(key: str, default: int) -> Rule:
    """A ``coordinate_shear`` axis, below the field's own dimension."""
    def agrees(params):
        if params[key] >= params["dimension"]:
            return f"must be < dimension ({params['dimension']})"
        return None
    return Rule(int, default=default, at_least=0, at_most=MAX_DIMENSION - 1, agrees=agrees)


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
    "constant": {"vector": replace(POINT, default=REQUIRED)},
    "affine": {"matrix": Rule(list, default=REQUIRED, at_least=1, each=POINT, agrees=_square),
               # absent: the zero vector
               "offset": replace(POINT, agrees=_offset_fits)},
    "coordinate_shear": {"from": _shear_axis("from", 0), "to": _shear_axis("to", 1),
                         "dimension": Rule(int, default=2, at_least=1,
                                           at_most=MAX_DIMENSION)},
    "quad_swirl": {},
    "quadratic1d": {},
}

# the dimension of the space each builtin field acts on, from its resolved params
_FIELD_DIMENSION = {"rotation2d": lambda _: 2, "quad_swirl": lambda _: 2,
                    "quadratic1d": lambda _: 1, "constant": lambda p: len(p["vector"]),
                    "affine": lambda p: len(p["matrix"]),
                    "coordinate_shear": lambda p: p["dimension"]}


def _one_space(pair: dict) -> Optional[str]:
    """Why a ``bracket_order`` pair's two fields act on spaces of two dimensions."""
    x, y = (_FIELD_DIMENSION[pair[k]["name"]](pair[k]["params"]) for k in "xy")
    return None if x == y else f"acts on dimension {y}, but x acts on dimension {x}"


ALGEBRA_CATALOG = {
    "euclidean_motion": "R^d >| so(d) with involution by diag(-I_p, I_q)",
    "abelian": "R^d, zero bracket, involution -1",
    "matrix_involutive": "gl(n, R) with a -> -a^T; h = so(n), q = sym(n)",
}
_SIZE = Rule(int, default=REQUIRED, at_least=1, at_most=MAX_DIMENSION)
_PART = Rule(int, default=REQUIRED, at_least=0, at_most=MAX_DIMENSION)
ALGEBRA_PARAMS = {
    "euclidean_motion": {"d": _SIZE, "p": _PART, "q": Rule(
        int, default=REQUIRED, at_least=0, at_most=MAX_DIMENSION,
        agrees=lambda b: None if b["p"] + b["q"] == b["d"] else "needs p + q = d")},
    "abelian": {"d": _SIZE},
    "matrix_involutive": {"n": Rule(int, default=REQUIRED, at_least=1,
                                    at_most=MAX_MATRIX_SIZE)},
}


def _builtin(tables: dict, names=None, unnamed=None) -> Rule:
    """A required builtin block, whose ``name``, one of ``names`` (every name
    of ``tables`` when None), selects the key table of its ``params``; absent
    params read as none given.  ``unnamed`` is the key table of a block
    without a name."""
    named = {name: {"params": Rule(dict, default={}, spec=tables[name])}
             for name in names or tables}
    return Rule(dict, default=REQUIRED, spec={"name": Rule(str, spec={
        **({None: unnamed} if unnamed else {}), **named})})


_FIELD = _builtin(FIELD_PARAMS)
_ACTION = _builtin(ACTION_PARAMS)
# the kinds that compress derivative forms evaluate a kernel's gradient on
# the sample diagonal, where ``ou`` has a kink; the grid kinds smear the
# distance profile of an ``ou_mixture``
_FORM_KERNEL = _builtin(KERNEL_PARAMS, [name for name in KERNEL_PARAMS if name != "ou"])
_GRID_KERNEL = _builtin(KERNEL_PARAMS, ["ou_mixture"])
_ALGEBRA = replace(_builtin(ALGEBRA_PARAMS, unnamed={
    "structure_constants": Rule(list, default=REQUIRED, at_least=1, agrees=_structure_shape),
    "involution": Rule(list, default=REQUIRED, agrees=_involution_shape),
    "labels": Rule(list, agrees=_one_label_each)}), default=None)


def _one_dimension(samples: dict):
    """Why explicit sample points do not all have the first one's coordinates."""
    points = samples["points"]
    for i, point in enumerate(points):
        if len(point) != len(points[0]):
            return f"[{i}]", f"needs {len(points[0])} coordinates, as the first point"
    return None


# the key of each sample type that takes a size, which a ladder level stands in for
_SAMPLE_SIZES = {"chebyshev": "n", "uniform_box": "n", "grid2d": "n_side"}


def _sized(samples: dict) -> Optional[str]:
    """Why a sample gives neither its type's size nor a ladder of sizes."""
    if _SAMPLE_SIZES[samples["type"]] in samples or "refinement" in samples:
        return None
    return "required"


def _ascending(samples: dict) -> Optional[str]:
    """Why a ``refinement`` ladder does not strictly increase."""
    ladder = samples.get("refinement", [])
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        return "must be strictly increasing"
    return None


def _sampled_once(samples: dict) -> Optional[str]:
    """Why a ``compatibility`` sample, drawn once, gives a ladder."""
    if "refinement" in samples:
        return "no level would be read: compatibility samples once"
    return None


# the keys each sample type reads (``runner._sample_points``) in a kind that
# samples once
# a box [-halfwidth, halfwidth] has a finite width: below 2^1023 the double
# is at most the largest float, and 2^1023 doubles to infinity
_HALFWIDTH = replace(POSITIVE, default=1.0, below=2.0 ** 1023)
SAMPLE_TYPES = {
    "chebyshev": {"n": _COUNT, "halfwidth": _HALFWIDTH},
    "uniform_box": {"n": _COUNT,
                    "dimension": Rule(int, default=2, at_least=1, at_most=MAX_DIMENSION),
                    "halfwidth": _HALFWIDTH, "include_origin": Rule(bool, default=False)},
    "grid2d": {"n_side": Rule(int, default=REQUIRED, at_least=1, at_most=MAX_SIDE),
               "x_range": _range("x_range", [-1.0, 1.0], NUMBER, strict=True),
               "y_range": _range("y_range", [-1.0, 1.0], NUMBER, strict=True)},
    "circles": {"radii": Rule(list, default=REQUIRED, at_least=1, each=POSITIVE),
                "n_per_circle": _COUNT},
    "explicit": {"points": Rule(list, default=REQUIRED, at_least=1, each=POINT,
                                agrees=_one_dimension)},
}


def _samples(ladder: bool) -> Rule:
    """The ``samples`` block, whose ``type`` selects the keys it reads.  The
    levels of a ``refinement`` ladder stand in for a sized type's size, and
    increase; ``compatibility`` samples once, so there no level is read."""
    types = dict(SAMPLE_TYPES)
    for name, size in _SAMPLE_SIZES.items():
        level = types[name][size]
        types[name] = {**types[name],
                       size: replace(level, default=None if ladder else REQUIRED, agrees=_sized),
                       "refinement": Rule(list, at_least=1, each=level,
                                          agrees=_ascending if ladder else _sampled_once)}
    return Rule(dict, default=REQUIRED, spec={"type": Rule(str, default=REQUIRED, spec=types)})


_LADDER_SAMPLES = _samples(ladder=True)
_POINTS = Rule(int, default=10, at_least=1, at_most=MAX_POINTS)   # flow and bracket points
# luscher_mack n_samples, whose default each variant sets
_ELEMENTS = Rule(int, at_least=1, at_most=MAX_SEMIGROUP_SAMPLES)

# allowed top-level keys per kind (beyond kind/seed/tolerances)
SCHEMAS = {
    "flow_laws": {
        "fields": Rule(list, default=REQUIRED, at_least=1, each=_FIELD),
        "n_points": _POINTS,
        "step": _STEP,
        "t_range": _curve_time("t_range", 1.0, above=0),
        "n_time_samples": Rule(int, default=3, at_least=1, at_most=MAX_TIME_SAMPLES),
    },
    "bracket_order": {
        "pairs": Rule(list, default=REQUIRED, at_least=1,
                      each=Rule(dict, spec={"x": _FIELD,
                                            "y": replace(_FIELD, agrees=_one_space)})),
        "n_points": _POINTS,
        # a fitted order needs at least two distinct step sizes
        "h_ladder": Rule(list, default=[1e-2, 5e-3, 2.5e-3], at_least=2, each=POSITIVE,
                         agrees=_distinct_steps),
    },
    "compatibility": {
        "kernel": _FORM_KERNEL, "action": _ACTION, "algebra": _ALGEBRA,
        "samples": _samples(ladder=False),
        "invariance": Rule(list, default=[], each=Rule(dict, spec={
            "pair": Rule(list, default=REQUIRED, at_least=2, at_most=2, each=POINT),
            "epsilon": Rule(int, default=REQUIRED, agrees=lambda entry: None
                            if entry["epsilon"] in (-1, 1) else "must be one of -1, 1"),
            "element": Rule((int, str), default=REQUIRED),
            "t_max": _curve_time("t_max", 0.5, above=0),
            "step": _STEP})),
    },
    "froelich": {
        "kernel": _FORM_KERNEL, "field": _FIELD, "samples": _LADDER_SAMPLES,
        # absent: the origin, whatever the dimension of the samples
        "start_point": POINT,
        "time": _curve_time("time", 0.1),
        "step": _STEP, "rank_cutoff": _RANK_CUTOFF,
    },
    "cdual_rep": {
        "kernel": _FORM_KERNEL, "action": _ACTION, "algebra": _ALGEBRA,
        "samples": _LADDER_SAMPLES,
        "unitary_times": Rule(list, default=[0.5, 1.0], at_least=1, each=NUMBER),
        "rank_cutoff": _RANK_CUTOFF,
        "conjugation": Rule(dict, spec={"x": Rule(str, default=REQUIRED),
                                        "y": Rule(str, default=REQUIRED),
                                        "s": Rule((int, float), default=REQUIRED)}),
    },
    # power_1x1 raises positive elements to a power, determinant needs
    # contractions, and its power is that of the ``det`` kernel
    "luscher_mack": {
        "variant": Rule(str, default="power_1x1", spec={
            "power_1x1": {
                "exponent": replace(NUMBER, default=1.5),
                "interval": Rule(list, default=[0.2, 0.9], at_least=2, at_most=2,
                                 each=POSITIVE),
                "n_samples": replace(_ELEMENTS, default=6)},
            "determinant": {
                "power": replace(KERNEL_PARAMS["det"]["power"], default=2.0),
                "matrix_size": Rule(int, default=2, at_least=1, at_most=MAX_MATRIX_SIZE),
                "spectral_range": _range("spectral_range", [0.05, 0.8], _UNIT, strict=False),
                "n_samples": replace(_ELEMENTS, default=8)}}),
        "rank_cutoff": replace(_UNIT, default=DEFAULT_RANK_CUTOFF),
    },
    "os_reconstruct": {
        "grid": _GRID, "kernel": _GRID_KERNEL,
        "bumps": Rule(list, default=REQUIRED, at_least=1, at_most=MAX_POINTS, each=Rule(dict, spec={
            "center": Rule((list, int, float), default=REQUIRED, each=NUMBER),
            "width": replace(POSITIVE, default=REQUIRED)}),
            agrees=_bumps_fit),
        "expected_rank": Rule(int, default=REQUIRED, at_most=MAX_POINTS),
        # transfer times are cell counts along the direction away from the
        # reflection hyperplane, so never negative; the bumps' check covers both
        "times_cells": Rule(list, default=REQUIRED, at_least=1, each=_CELLS),
        "law_pairs_cells": Rule(list, default=[], each=Rule(list, at_least=2, at_most=2,
                                                            each=_CELLS)),
        "rank_cutoff": _RANK_CUTOFF,
    },
    "rp_axioms": {
        # absent: no pairing to compare
        "grid": replace(_GRID, agrees=lambda block: (
            f"the pairing bumps of width {PAIRING_WIDTH} centred at {PAIRING_BUMPS[0]} "
            f"and {PAIRING_BUMPS[1]} (their first coordinates on a 1D grid) must each be "
            "nonzero on the grid and keep clear of its margin")
            if _bumps_leave_the_margin(block, (0, 0)) else None),
        "kernel": replace(_GRID_KERNEL, default=None),
        "translations": Rule(list, default=[], at_most=MAX_POINTS, each=_SHIFT,
                             agrees=lambda block: _shifts_fit(block, "translations")),
        "parallel_translations": Rule(
            list, default=[], at_most=MAX_POINTS, each=_SHIFT,
            agrees=lambda block: _shifts_fit(block, "parallel_translations")),
    },
}

# the key table of a config, whose kind selects the keys it reads; each
# tolerance a kind's checks name with a default may be set
SCHEMA = {"kind": Rule(str, default=REQUIRED, spec={
    kind: {"seed": Rule(int, default=REQUIRED, at_least=0),
           "tolerances": Rule(dict, default={}, spec={
               entry[0]: replace(NUMBER, default=entry[1]) for entry in CHECKS[kind].values()
               if entry is not None and entry[1] is not None}),
           **keys}
    for kind, keys in SCHEMAS.items()})}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    tolerances: dict
    body: dict          # kind-specific keys, validated and resolved
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


def _check_block(obj: dict, spec: dict, path: str) -> dict:
    """``obj`` against its key table ``spec``, with the keys that the value of
    each selecting key (a string key whose rule has a ``spec``; its default
    when absent) adds: unknown keys and types first, then each key's bounds,
    nested blocks and presence, the cross-key checks, and last the keys only
    another value would add.  Returns ``obj`` resolved, a copy in which each
    absent key with a default holds it, nested blocks resolved alike; the
    cross-key checks read that copy."""
    table, unread, keys = dict(spec), {}, list(spec)
    for key in keys:        # grows by the keys each selection adds
        rule = table[key]
        if rule.types is not str or rule.spec is None:
            continue
        if key in obj:
            _check_type(obj[key], str, f"{path}.{key}")
        value = obj.get(key, rule.default)
        if value not in rule.spec:
            raise ConfigError(f"{path}.{key}", "required" if key not in obj else
                              f"must be one of {', '.join(filter(None, rule.spec))}")
        why = f"not read with {key} {value}" if key in obj else f"not read without {key}"
        unread.update((other, why) for added in rule.spec.values() for other in added)
        table.update(rule.spec[value])
        keys += rule.spec[value]
    for key, val in obj.items():
        if key in table:
            _check_type(val, table[key].types, f"{path}.{key}")
        elif key not in unread:
            raise ConfigError(f"{path}.{key}", "unknown key")
    resolved = {}
    for key, rule in table.items():
        if key in obj:
            resolved[key] = _check_bounds(obj[key], rule, f"{path}.{key}")
        elif rule.required:
            raise ConfigError(f"{path}.{key}", "required")
        elif rule.default is not None:
            resolved[key] = _check_bounds(rule.default, rule, f"{path}.{key}")
    for key, rule in table.items():
        problem = rule.agrees(resolved) if rule.agrees else None
        if problem is not None:
            *at, suffix, why = problem if isinstance(problem, tuple) else ("", problem)
            raise ConfigError(f"{path}.{at[0] if at else key}{suffix}", why)
    for key, why in unread.items():
        if key in obj and key not in table:
            raise ConfigError(f"{path}.{key}", why)
    return resolved


def _check_bounds(val, rule: Rule, path: str):
    """``val`` against the bounds of its rule, returned resolved (a copy, if a list or object)."""
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
    if rule.each is not None and isinstance(val, list):
        entries = []
        for i, item in enumerate(val):
            _check_type(item, rule.each.types, f"{path}[{i}]")
            entries.append(_check_bounds(item, rule.each, f"{path}[{i}]"))
        return entries
    if rule.spec is not None and isinstance(val, dict):
        return _check_block(val, rule.spec, path)
    return val


def builtin_params(tables: dict, name: str, params: Optional[dict]) -> dict:
    """The ``params`` of builtin ``name`` checked against its key table of
    ``tables`` (say ``KERNEL_PARAMS``), resolved: how its builder reads them."""
    if name not in tables:
        raise KeyError(f"unknown builtin {name!r}")
    return _check_block(params or {}, tables[name], f"{name}.params")


def first_non_finite(node, path: str = "$") -> Optional[str]:
    """The JSON path of the first number in ``node`` that is not finite, or
    is an integer outside the 64-bit range; None if there is none."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, int):   # numpy makes an object array of a larger one
        return None if -2 ** 63 <= node < 2 ** 63 else path
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
    """``data`` checked and resolved; ``data`` itself stays as it is, the report's echo."""
    if not isinstance(data, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    resolved = _check_block(data, SCHEMA, "$")
    # JSON has no NaN or Infinity, yet the parser reads them, and 1e999 as an
    # infinity: no key takes one, and a report could not carry it back out
    where = first_non_finite(data)
    if where is not None:
        raise ConfigError(where, "must be a finite number, within the 64-bit "
                                 "range if an integer")
    body = {k: v for k, v in resolved.items() if k not in ("kind", "seed", "tolerances")}
    tolerances = {k: float(v) for k, v in resolved["tolerances"].items()}
    return ExperimentConfig(resolved["kind"], resolved["seed"], tolerances, body, data)


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

"""Experiment dispatch: wires kernels, actions, algebras, and grids to the
verification operations and emits machine-readable reports.

Reports are deterministic given the seed; with the stable-output flag the
wall-clock block is dropped so repeated runs are byte-identical.  Every
experiment kind emits the checks of its ``config.CHECKS`` table (in its
order, each exactly once); checks with a null pass flag are informational
and never affect the exit code.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import distributions as dist
from . import flows as fl
from . import kernels as kr
from . import operators as op
from . import representation as rp
from .algebra import expm
from .config import (CHECKS, PAIRING_BUMPS, PAIRING_WIDTH, ExperimentConfig,
                     first_non_finite)
from .errors import ConfigError


@dataclass
class Check:
    name: str
    value: Optional[float]      # None when nothing was compared
    tolerance: Optional[float]
    passed: Optional[bool]


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    checks: list
    curves: dict
    timings: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_dict(self, stable_output: bool = False) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config,
            "checks": [
                {"name": c.name, "value": c.value, "tolerance": c.tolerance,
                 "passed": c.passed}
                for c in self.checks
            ],
            "curves": self.curves,
            "passed": self.passed,
        }
        if not stable_output:
            out["timings"] = self.timings
        return out

    def to_json(self, stable_output: bool = False) -> str:
        out = self.to_dict(stable_output)
        try:
            return json.dumps(out, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:      # the one value json refuses: NaN or an infinity
            raise ValueError(f"report value {first_non_finite(out)} is not finite; "
                             "JSON has no NaN or Infinity") from None


def _sample_points(spec: dict, rng: np.random.Generator, size: Optional[int] = None):
    """Realize a sample spec; ``size`` overrides the configured count so the
    same spec can be replayed along a refinement ladder.  A type reads the
    keys of its table in ``config.SAMPLE_TYPES``, resolved."""
    kind = spec["type"]
    if kind == "chebyshev":
        n = int(size or spec["n"])
        half = float(spec["halfwidth"])
        pts = half * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
        return pts[::-1, None]
    if kind == "uniform_box":
        n = int(size or spec["n"])
        d = int(spec["dimension"])
        half = float(spec["halfwidth"])
        pts = rng.uniform(-half, half, size=(n, d))
        if spec["include_origin"]:
            pts[0] = 0.0
        return pts
    if kind == "grid2d":
        n_side = int(size or spec["n_side"])
        x_lo, x_hi = spec["x_range"]
        y_lo, y_hi = spec["y_range"]
        gx = np.linspace(x_lo, x_hi, n_side)
        gy = np.linspace(y_lo, y_hi, n_side)
        return np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=-1).reshape(-1, 2)
    if kind == "circles":
        radii = spec["radii"]
        n_per = int(spec["n_per_circle"])
        ang = 2 * np.pi * np.arange(n_per) / n_per
        return np.array([[r * np.cos(a), r * np.sin(a)]
                         for r in radii for a in ang])
    if kind == "explicit":
        return np.asarray(spec["points"], dtype=float)
    raise ConfigError("$.samples.type", f"unknown sample type {kind!r}")


def _checked_samples(spec: dict, rng: np.random.Generator, kernel, dimension: int,
                     size: Optional[int] = None) -> np.ndarray:
    """``_sample_points``, whose points must have the ``dimension`` of the
    action's or field's chart and that of the kernel, if it declares one."""
    pts = _sample_points(spec, rng, size)
    for what, need in (("the chart", dimension), ("the kernel", kernel.dimension)):
        if need is not None and pts.shape[1] != need:
            raise ConfigError("$.samples", f"points have {pts.shape[1]} coordinates, "
                                           f"{what} needs {need}")
    return pts


def _gram_ladder(cfg: ExperimentConfig, kernel, cutoff: float, dimension: int):
    """Gram model of each level of the sample ladder: the ``refinement``
    sizes, else the one configured size.  Every level replays the seed, so
    ladder levels nest statistically.  Points have ``dimension`` coordinates."""
    spec = cfg.body["samples"]
    # without a ladder, size None has each sample type read its own size key
    for size in spec["refinement"] if "refinement" in spec else [None]:
        pts = _checked_samples(spec, np.random.default_rng(cfg.seed), kernel,
                               dimension, size)
        yield kr.gram(kernel, pts, rank_cutoff=cutoff)


def _ou_mixture_smeared(kspec: dict, grid) -> tuple:
    """Masses of an ``ou_mixture`` kernel spec and its smeared kernel on the grid."""
    masses = [float(m) for m in kspec["params"]["masses"]]
    return masses, dist.SmearedKernel.from_distance_profile(
        kr.ou_mixture_profile(masses, kspec["params"].get("weights")), grid)


# ---------------------------------------------------------------------------
# per-kind runners


def _homogeneous_generator(field: fl.VectorField) -> Optional[np.ndarray]:
    """Generator H of an affine field in homogeneous coordinates, so that
    expm(t H) is its exact time-t flow; None for a field that is not affine."""
    if field.affine is None:
        return None
    A, b = field.affine
    H = np.zeros((len(A) + 1, len(A) + 1))
    H[:-1, :-1], H[:-1, -1] = A, b
    return H


# how each test of the check table compares a value with its tolerance
_TESTS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
          ">= -tol": lambda value, tol: value >= -tol, "==": operator.eq}


def _checks(cfg: ExperimentConfig, values: dict, failed=()) -> list:
    """The kind's checks of ``config.CHECKS``, in its order, from the
    measured ``values`` by check name.  A check whose value is missing or
    None compared nothing and is informational (value and passed null),
    unless it is named in ``failed``: a comparison that was asked for but
    compared nothing fails."""
    if {*values, *failed} - CHECKS[cfg.kind].keys():   # a name outside the table is a slip
        raise KeyError(f"{cfg.kind} has only the checks {list(CHECKS[cfg.kind])}")
    checks = []
    for name, entry in CHECKS[cfg.kind].items():
        value = values.get(name)
        tol = None if entry is None else cfg.tol(entry[0])
        passed = False if name in failed else None if entry is None or value is None \
            else bool(_TESTS[entry[2]](value, tol))
        checks.append(Check(name, value, tol, passed))
    return checks


def _max_norm(gaps: list) -> Optional[float]:
    """Largest norm among the compared gaps (vectors or scalars, given as a
    list of blocks); None when nothing was compared."""
    return max((float(np.linalg.norm(g)) for block in gaps for g in block), default=None)


_LADDER_FLOOR = 0.0     # a ladder level counts when its value is above this


def _ladder(levels: list, values: list) -> tuple:
    """A ladder's curve ``[[level, value], ...]``, levels as given; the
    least-squares slope of log value on log level over the levels that count
    (value above ``_LADDER_FLOOR``), None without two distinct ones; and the
    largest ratio of a value to the one before, when that one counts, or None."""
    curve = [[level, value] for level, value in zip(levels, values)]
    counted = [pair for pair in curve if pair[1] > _LADDER_FLOOR]
    x, y = np.log(np.array(counted, dtype=float).reshape(-1, 2)).T
    order = float(np.polyfit(x, y, 1)[0]) if len({p[0] for p in counted}) > 1 else None
    ratio = max((b / a for a, b in zip(values, values[1:]) if a > _LADDER_FLOOR), default=None)
    return curve, order, ratio


def _run_flow_laws(cfg: ExperimentConfig) -> tuple:
    body, rng = cfg.body, np.random.default_rng(cfg.seed)
    step, t_range = float(body["step"]), float(body["t_range"])
    n_points, n_times = int(body["n_points"]), int(body["n_time_samples"])
    # per field, drawn in config order: one row per (point, time pair), all
    # rows as one batch of legs: mid = Phi_s p, ab = Phi_t mid and back =
    # Phi_{-t} ab chained, then direct = Phi_{s+t} p and, for an affine
    # field, Phi_t p against the exponential
    fields, starts, t_ends, samples = [], [], [], []
    for fspec in body["fields"]:
        field = fl.builtin_field(fspec["name"], fspec["params"])
        pts = rng.uniform(-1.0, 1.0, size=(n_points, field.chart.dimension))
        ts = rng.uniform(-t_range, t_range, size=n_times)
        ss = rng.uniform(-t_range, t_range, size=n_times)
        p = np.repeat(pts, n_times, axis=0)
        s, t = np.tile(ss, n_points), np.tile(ts, n_points)
        zero, H = np.zeros(len(p)), _homogeneous_generator(field)
        legs = [np.stack([s, t, -t], 1), np.stack([s + t, zero, zero], 1)]
        if H is not None:
            legs.append(np.stack([t, zero, zero], 1))
        fields.append(field)
        starts.append(np.tile(p, (len(legs), 1)))
        t_ends.append(np.concatenate(legs))
        samples.append((p, t, ts, H))
    # the fields of one dimension run as one RK4 loop, each on its own rows
    outcomes, dims = [None] * len(fields), [f.chart.dimension for f in fields]
    for d in dict.fromkeys(dims):
        group = [i for i, di in enumerate(dims) if di == d]
        flow = fl.integrate_groups([(fields[i], len(starts[i])) for i in group],
                                   np.concatenate([starts[i] for i in group]),
                                   np.concatenate([t_ends[i] for i in group]), step)
        edges = np.cumsum([0] + [len(starts[i]) for i in group])
        for i, lo, hi in zip(group, edges, edges[1:]):
            outcomes[i] = flow.endpoints[lo:hi], flow.completed[lo:hi]
    flow_gaps, inverse_gaps, expm_gaps = [], [], []
    for (p, t, ts, H), (ends, done) in zip(samples, outcomes):
        n = len(p)
        # a row that stops ends its later legs, so ab completed implies mid did
        pair = done[:n, 1] & done[n:2 * n, 0]
        flow_gaps.append(ends[:n, 1][pair] - ends[n:2 * n, 0][pair])
        back = pair & done[:n, 2]
        inverse_gaps.append(ends[:n, 2][back] - ends[:n, 0][back])
        # affine fields admit an exact exponential through homogeneous coordinates
        if H is not None:
            E = {tj: expm(tj * H) for tj in ts}
            exact = np.array([E[tj][:-1, :-1] @ pj + E[tj][:-1, -1]
                              for pj, tj in zip(p, t)])
            ok = done[2 * n:, 0]
            expm_gaps.append(ends[2 * n:, 0][ok] - exact[ok])
    # one block per field (per affine field for the exponential): a check
    # with blocks but no compared gap fails
    gaps = {"flow_law_max_defect": flow_gaps, "inverse_law_max_defect": inverse_gaps,
            "matrix_exponential_max_defect": expm_gaps}
    values = {name: _max_norm(blocks) for name, blocks in gaps.items()}
    return _checks(cfg, values, [n for n, blocks in gaps.items()
                                 if blocks and values[n] is None]), {}


def _run_bracket_order(cfg: ExperimentConfig) -> tuple:
    body, rng = cfg.body, np.random.default_rng(cfg.seed)
    hs, n_points = [float(h) for h in body["h_ladder"]], int(body["n_points"])
    orders, curves = [], {}
    for idx, pair in enumerate(body["pairs"]):
        X = fl.builtin_field(pair["x"]["name"], pair["x"]["params"])
        Y = fl.builtin_field(pair["y"]["name"], pair["y"]["params"])
        bracket = fl.lie_bracket(X, Y)
        pts = rng.uniform(-1.0, 1.0, size=(n_points, X.chart.dimension))
        exact = bracket.rows(pts)
        # the whole ladder in one batch: the points once per h
        est = fl.lie_derivative_via_flow(X, Y, np.tile(pts, (len(hs), 1)),
                                         np.repeat(hs, n_points))
        errs = [max([0.0] + [float(np.linalg.norm(e - b)) for e, b in zip(level, exact)])
                for level in np.split(est, len(hs))]
        curves[f"pair_{idx}_error_vs_h"], order, _ = _ladder(hs, errs)
        orders.append(order)
    # a pair without an order (no two steps with an error) fails both checks
    fitted = [order for order in orders if order is not None]
    return _checks(cfg, {"min_fitted_order": min(fitted, default=None),
                         "max_fitted_order": max(fitted, default=None)},
                   CHECKS[cfg.kind] if None in orders else ()), curves


def _check_declared_algebra(body: dict, action):
    """An explicit algebra block must validate and match the action's algebra."""
    if "algebra" not in body:
        return
    from .algebra import algebra_from_config, validate_symmetric_pair
    declared = algebra_from_config(body["algebra"])
    if not validate_symmetric_pair(declared).passed:
        raise ConfigError("$.algebra", "not a valid symmetric pair")
    if declared.dim != action.algebra.dim or not np.allclose(
            declared.structure, action.algebra.structure):
        raise ConfigError("$.algebra",
                          "declared algebra disagrees with the action's")


def _element_index(algebra, value, path: str, fixed_part: bool = False) -> int:
    """Index of the basis element of ``algebra`` that ``value`` names, by
    label or by index; ``fixed_part`` asks for an element of h."""
    k = algebra.index_of(value) if value in algebra.labels else value
    if not (isinstance(k, int) and 0 <= k < algebra.dim):
        raise ConfigError(path, f"no basis element {value!r}: expected a label of "
                                f"{list(algebra.labels)} or an index below {algebra.dim}")
    if fixed_part and k not in algebra.h_indices:
        raise ConfigError(path, f"{algebra.labels[k]!r} is outside the fixed part")
    return k


def _run_compatibility(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    kernel = kr.builtin_kernel(body["kernel"]["name"], body["kernel"]["params"])
    action = op.builtin_action(body["action"]["name"], body["action"]["params"])
    _check_declared_algebra(body, action)
    pts = _checked_samples(body["samples"], np.random.default_rng(cfg.seed), kernel,
                           action.dimension)
    report = op.compatibility_check(kernel, action, pts)
    hom = action.homomorphism_defect(pts[: min(len(pts), 8)])
    invariance = []
    for i, inv in enumerate(body["invariance"]):
        field = action.basis_fields[_element_index(
            action.algebra, inv["element"], f"$.invariance[{i}].element")]
        eps = int(inv["epsilon"])
        for j, q in enumerate(inv["pair"]):
            if len(q) != field.chart.dimension:
                raise ConfigError(f"$.invariance[{i}].pair[{j}]",
                                  f"needs {field.chart.dimension} coordinates, "
                                  "one per chart dimension")
        pair = [tuple(np.asarray(q, dtype=float) for q in inv["pair"])]
        invariance.append(op.flow_invariance_check(
            kernel, field, eps, pair, float(inv["t_max"]), float(inv["step"])))
    # informational (value and passed null) without an invariance pair; a
    # pair whose curves reach no time beyond 0 compares nothing and fails
    drifts = [res.max_drift for res in invariance if res.reached[0] != 0.0]
    return _checks(cfg, {"compatibility_max_defect": report.max_defect,
                         "homomorphism_defect": hom,
                         "invariance_max_drift": max(drifts, default=None)},
                   ["invariance_max_drift"] if len(drifts) < len(invariance) else []), {}


def _run_froelich(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    kernel = kr.builtin_kernel(body["kernel"]["name"], body["kernel"]["params"])
    field = fl.builtin_field(body["field"]["name"], body["field"]["params"])
    start = np.asarray(body.get("start_point", [0.0]), dtype=float)
    t, step, cutoff = float(body["time"]), float(body["step"]), float(body["rank_cutoff"])
    sizes, deltas, resids = [], [], []
    for model in _gram_ladder(cfg, kernel, cutoff, field.chart.dimension):
        if "start_point" in body and len(start) != model.points.shape[1]:
            raise ConfigError("$.start_point", f"needs {model.points.shape[1]} "
                                               "coordinates, one per sample dimension")
        m_idx = int(np.argmin(np.linalg.norm(model.points - start, axis=1)))
        res = op.froelich_check(kernel, field, model, m_idx, t, step)
        sizes.append(model.size)
        deltas.append(res.relative_error)
        resids.append(res.projection_residual)
    curve, _, ratio = _ladder(sizes, deltas)
    return _checks(cfg, {"relative_error": deltas[-1], "monotone_max_ratio": ratio,
                         "projection_residual": resids[-1]}), {
        "delta_vs_size": curve,
        "gram_spectrum": [[i, float(lam)] for i, lam in enumerate(model.eigenvalues.real)]}


def _run_cdual_rep(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    kernel = kr.builtin_kernel(body["kernel"]["name"], body["kernel"]["params"])
    action = op.builtin_action(body["action"]["name"], body["action"]["params"])
    _check_declared_algebra(body, action)
    cutoff = float(body["rank_cutoff"])
    times = [float(t) for t in body["unitary_times"]]
    conj_spec = body.get("conjugation")
    if conj_spec:
        x = _element_index(action.algebra, conj_spec["x"], "$.conjugation.x",
                           fixed_part=True)
        y = _element_index(action.algebra, conj_spec["y"], "$.conjugation.y")
    skew_defect = unit_defect = 0.0
    sizes, comms, conjs = [], [], []
    for model in _gram_ladder(cfg, kernel, cutoff, action.dimension):
        table = rp.synthesize_cdual_rep(kernel, action, model)
        skew_defect = max(skew_defect, table.max_skew_defect)
        unit_defect = max(unit_defect, table.max_unitarity_defect(times))
        comm = rp.commutation_defect(table)
        sizes.append(model.size)
        comms.append(comm.max_defect)
        if conj_spec:
            conjs.append(rp.conjugation_check(table, x, y, float(conj_spec["s"])))
    # without a conjugation block the curve is empty and the ratio None
    conj_curve, _, conj_ratio = _ladder(sizes, conjs)
    checks = _checks(cfg, {"skew_defect_max": skew_defect,
                           "unitarity_defect_max": unit_defect,
                           "conjugation_max_ratio": conj_ratio,
                           "commutation_defect_final": comms[-1]})
    labels = action.algebra.labels
    # the per-element symmetrization ledger and the flattened pair defects
    # at the finest sample, for the report consumers
    return checks, {
        "commutation_vs_size": _ladder(sizes, comms)[0],
        **({"conjugation_vs_size": conj_curve} if conj_curve else {}),
        "element_defect_by_index": [[k, table.entries[k].symmetrization_defect]
                                    for k in range(action.algebra.dim)],
        "commutation_pair_defects": [[labels.index(a), labels.index(b), d]
                                     for (a, b), d in sorted(comm.pair_defects.items())],
        "gram_spectrum": [[i, float(lam)] for i, lam in enumerate(model.eigenvalues.real)]}


def _run_luscher_mack(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    cutoff, n = float(body["rank_cutoff"]), int(body["n_samples"])
    values = {}
    if body["variant"] == "power_1x1":
        a = float(body["exponent"])
        lo, hi = body["interval"]
        elems = [np.array([[s]]) for s in np.linspace(lo, hi, n)]
        action = op.builtin_action("matrix_right_multiplication", {"n": 1})

        # phi and its gradient act on stacks (..., 1, 1) of products
        table, rep = rp.luscher_mack_pipeline(elems, lambda u: u[..., 0, 0] ** a,
                                              action,
                                              phi_grad=lambda u: a * u ** (a - 1.0),
                                              rank_cutoff=cutoff)
        gen = table.entries[0].compressed
        values["generator_error"] = float(np.max(np.abs(gen - a * np.eye(gen.shape[0]))))
    else:   # the determinant variant; its generator has no closed form here
        n_mat, power = int(body["matrix_size"]), float(body["power"])
        lo, hi = body["spectral_range"]
        elems, rng = [], np.random.default_rng(cfg.seed)
        for _ in range(n):
            raw = rng.normal(size=(n_mat, n_mat))
            norm = np.linalg.norm(raw, 2)
            target = rng.uniform(lo, hi)
            elems.append(raw * (target / norm))
        action = op.builtin_action("matrix_right_multiplication", {"n": n_mat})

        # phi acts on stacks (..., n_mat, n_mat) of products
        table, rep = rp.luscher_mack_pipeline(
            elems, lambda u: np.linalg.det(np.eye(n_mat) - u) ** (-power), action,
            rank_cutoff=cutoff)
    return _checks(cfg, {**values, "psd_min_ratio": rep.psd_min_ratio,
                         "star_defect_max": rep.max_star_defect,
                         "commutation_defect": rep.commutation_max_defect}), {}


def _run_os_reconstruct(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    grid = dist.TestFunctionGrid(**body["grid"])
    masses, sk = _ou_mixture_smeared(body["kernel"], grid)
    fns = [dist.bump(grid, b["center"], b["width"]) for b in body["bumps"]]
    times = [int(c) for c in body["times_cells"]]
    law_pairs = [(int(s), int(t)) for s, t in body["law_pairs_cells"]]
    # one transfer matrix per distinct cell count, from the twisted Gram's block
    needed = sorted({*times, *(c for s, t in law_pairs for c in (s, t, s + t))})
    space = dist.os_quotient(sk, fns, rank_cutoff=float(body["rank_cutoff"]), cells=needed)
    transfer = dict(zip(needed, dist.os_semigroup(space, needed)))

    eig_err = contraction = sa_defect = 0.0
    curve = []
    for cells in times:
        t = cells * grid.spacing
        sg = transfer[cells]
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (sg.matrix + sg.matrix.T)))[::-1]
        # one target per mass, and 0 for each eigenvalue of the rank beyond them
        targets = np.sort([np.exp(-m * t) for m in masses])[::-1][: len(eigs)]
        targets = np.pad(targets, (0, len(eigs) - len(targets)))
        eig_err = max(eig_err, float(np.max(np.abs(eigs - targets))))
        contraction = max(contraction, sg.contraction_defect)
        sa_defect = max(sa_defect, sg.self_adjointness_defect)
        curve += [[t, i, float(v)] for i, v in enumerate(eigs)]
    laws = [dist.semigroup_law_defect(transfer[s].matrix, transfer[t].matrix,
                                      transfer[s + t].matrix)
            for s, t in law_pairs]
    checks = _checks(cfg, {"twisted_psd_min_ratio": space.positivity.min_ratio,
                           "quotient_rank": float(space.model.rank),
                           "rank_gap_ratio": space.model.gap_ratio,
                           "semigroup_eigenvalue_error": eig_err,
                           "contraction_defect": contraction,
                           "semigroup_law_defect": max(laws, default=None),
                           "self_adjointness_defect": sa_defect})
    return checks, {"semigroup_eigenvalues": curve}


def _run_rp_axioms(cfg: ExperimentConfig) -> tuple:
    body = cfg.body
    grid = dist.TestFunctionGrid(**body["grid"])
    shifts = [tuple(int(c) for c in t["cells"]) for t in body["translations"]]
    drifts = []
    if "kernel" in body and shifts:
        _, sk = _ou_mixture_smeared(body["kernel"], grid)
        # invariance of the pairing under margin-respecting shifts: check on
        # a bump pair rather than the full (boundary-truncated) matrices
        b1, b2 = (dist.bump(grid, c[:grid.ndim], PAIRING_WIDTH) for c in PAIRING_BUMPS)
        moved = sk.pairings([b1] + [dist.translate(b1, c) for c in shifts],
                            [b2] + [dist.translate(b2, c) for c in shifts])
        drifts = np.abs(np.diag(moved)[1:] - moved[0, 0]).tolist()
    pairs = [(dist.grid_shift_map(grid, c),
              dist.grid_shift_map(grid, tuple(-k for k in c))) for c in shifts]
    h_maps = [dist.grid_shift_map(grid, tuple(int(c) for c in t["cells"]))
              for t in body["parallel_translations"]]
    report = dist.rp_axioms_check(pairs, dist.grid_reflection_map(grid),
                                  dist.slice_mask(grid), h_maps)
    # each check is informational (value and passed null) when its block
    # gives it nothing to compare
    return _checks(cfg, {"rp1_max_defect": report.rp1_max_defect,
                         "rp2_max_defect": report.rp2_max_defect,
                         "pairing_invariance_defect": max(drifts, default=None)}), {}


_RUNNERS = {
    "flow_laws": _run_flow_laws,
    "bracket_order": _run_bracket_order,
    "compatibility": _run_compatibility,
    "froelich": _run_froelich,
    "cdual_rep": _run_cdual_rep,
    "luscher_mack": _run_luscher_mack,
    "os_reconstruct": _run_os_reconstruct,
    "rp_axioms": _run_rp_axioms,
}


def run_experiment(cfg: ExperimentConfig,
                   csv_dir: Optional[str] = None,
                   csv_stem: str = "experiment") -> ExperimentReport:
    started = time.perf_counter()
    # each kind that draws seeds its own generator, so the grid kinds,
    # which draw nothing, never load numpy.random (about 6 MB and 50 ms)
    checks, curves = _RUNNERS[cfg.kind](cfg)
    report = ExperimentReport(cfg.kind, cfg.raw, checks, curves,
                              {"wall_seconds": time.perf_counter() - started})
    if csv_dir:
        _write_csv(report, csv_dir, csv_stem)
    return report


_CSV_HEADERS = {
    "semigroup_eigenvalues": ["t", "eigenvalue_index", "value"],
    "gram_spectrum": ["index", "eigenvalue"],
    "element_defect_by_index": ["element_index", "defect"],
    "commutation_pair_defects": ["element_i", "element_j", "defect"],
}


def _write_csv(report: ExperimentReport, csv_dir: str, stem: str):
    os.makedirs(csv_dir, exist_ok=True)
    for name, rows in report.curves.items():
        if not rows:
            continue
        header = _CSV_HEADERS.get(name)
        if header is None:
            header = ["size_or_h", "value"] if len(rows[0]) == 2 \
                else [f"col{k}" for k in range(len(rows[0]))]
        path = os.path.join(csv_dir, f"{stem}__{name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not configurable.  Derived targets (the transport
convergence ladder) were fixed by the study in
scripts/transport_convergence_study.py and are recorded in
configs/froelich_laplace.json.
"""

import json
import os

import numpy as np

from kerflow import algebra as la
from kerflow import cli
from kerflow import distributions as dist
from kerflow import flows as fl
from kerflow import kernels as kk
from kerflow import operators as op
from kerflow import representation as rp
from transport import pushforward

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def grid2d(n_side, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0)):
    gx = np.linspace(*x_range, n_side)
    gy = np.linspace(*y_range, n_side)
    return np.array([[a, b] for a in gx for b in gy])


def test_ac01_flow_laws():
    rng = np.random.default_rng(7)
    fields = [fl.rotation_field(),
              fl.affine_field([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.5])]
    worst = 0.0
    for field in fields:
        pts = rng.uniform(-1.0, 1.0, size=(10, 2))
        for p in pts:
            s, t = rng.uniform(-1.0, 1.0, size=2)
            mid = fl.integrate_curve(field, p, s, 1e-3)
            ab = fl.integrate_curve(field, mid.endpoint, t, 1e-3)
            direct = fl.integrate_curve(field, p, s + t, 1e-3)
            worst = max(worst, float(np.linalg.norm(ab.endpoint - direct.endpoint)))
    _report("AC1 flow composition law <= 1e-8", worst <= 1e-8, f"defect {worst:.3e}")


def test_ac02_bracket_convergence_order():
    rng = np.random.default_rng(3)
    pairs = [
        (fl.rotation_field(), fl.builtin_field("coordinate_shear")),
        (fl.rotation_field(), fl.constant_field([1.0, 0.0])),
        (fl.rotation_field(), fl.builtin_field("quad_swirl")),
    ]
    hs = (1e-2, 5e-3, 2.5e-3)
    ok = True
    detail = []
    for X, Y in pairs:
        bracket = fl.lie_bracket(X, Y)
        pts = rng.uniform(-1.0, 1.0, size=(10, 2))
        errs = []
        for h in hs:
            errs.append(max(float(np.linalg.norm(
                fl.lie_derivative_via_flow(X, Y, p, h) - bracket(p)))
                for p in pts))
        order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        detail.append(f"{order:.3f}")
        ok = ok and (1.8 <= order <= 2.2)
    _report("AC2 flow-vs-bracket order 2.0 +- 0.2", ok,
            "orders " + ", ".join(detail))


def test_ac03_adjoint_flow_transport():
    rng = np.random.default_rng(5)
    action = op.builtin_action("euclidean", {"p": 1, "q": 1})
    alg = action.algebra
    x = alg.index_of("r")
    t = 0.5
    E = la.exp_ad(alg.basis_element(x), t)
    worst = 0.0
    pts = rng.uniform(-1.0, 1.0, size=(10, 2))
    for y in range(alg.dim):
        transported = pushforward(action.basis_fields[x], -t,
                                  action.basis_fields[y], 1e-3)
        target = action.field(la.AlgebraElement(alg, E @ np.eye(alg.dim)[y]))
        for p in pts:
            worst = max(worst, float(np.linalg.norm(transported(p) - target(p))))
    _report("AC3 adjoint-flow transport identity <= 1e-6", worst <= 1e-6,
            f"defect {worst:.3e}")


COSH_KERNEL = {"atoms": [[-1.0], [1.0]], "weights": [0.5, 0.5]}


def test_ac04_compatibility_identity():
    kernel = kk.builtin_kernel("laplace", COSH_KERNEL)
    action = op.builtin_action("translation", {"dimension": 1})
    pts = np.cos(np.pi * (2 * np.arange(15) + 1) / 30)[::-1, None]
    report = op.compatibility_check(kernel, action, pts)
    _report("AC4 compatibility identity <= 1e-10", report.max_defect <= 1e-10,
            f"defect {report.max_defect:.3e}")


def test_ac05_flow_invariance():
    kernel = kk.builtin_kernel("laplace", COSH_KERNEL)
    sym = op.flow_invariance_check(kernel, fl.constant_field([1.0]),
                                   op.SYMMETRIC, [([0.0], [0.3])], 0.5, 1e-3)
    rbf = kk.builtin_kernel("gaussian_rbf")
    skw = op.flow_invariance_check(rbf, fl.rotation_field(), op.SKEW,
                                   [([1.0, 0.0], [0.3, 0.5])], 1.0, 1e-3)
    ok = sym.max_drift <= 1e-8 and skw.max_drift <= 1e-8
    _report("AC5 kernel flow invariance <= 1e-8", ok,
            f"symmetric {sym.max_drift:.3e}, skew {skw.max_drift:.3e}")


def test_ac06_semigroup_transport():
    # rank-one eigen case
    K1 = kk.builtin_kernel("laplace", {"atoms": [[2.0]], "weights": [1.0]})
    model1 = kk.gram(K1, [[0.2]])
    res1 = op.froelich_check(K1, fl.constant_field([1.0]), model1, 0, 0.3)
    # transform-kernel ladder; the 1D analytic-kernel ladder saturates at
    # numerical-rank level (see scripts/transport_convergence_study.py), so
    # the mandatory trend runs on the 2D transform kernel where the whitened
    # span keeps growing through {11, 21, 41}
    K2 = kk.builtin_kernel("circle_laplace", {"mass": 10.0, "n_atoms": 48})
    X2 = fl.constant_field([1.0, 0.0])
    deltas = []
    for n in (11, 21, 41):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts[0] = 0.0
        model = kk.gram(K2, pts, rank_cutoff=1e-10)
        deltas.append(op.froelich_check(K2, X2, model, 0, 0.1).relative_error)
    monotone = deltas[0] > deltas[1] > deltas[2]
    ok = res1.relative_error <= 1e-10 and deltas[1] <= 1e-3 and monotone
    _report("AC6 semigroup transport: rank-1 <= 1e-10, ladder monotone, "
            "mid error <= 1e-3", ok,
            f"rank-1 {res1.relative_error:.3e}; ladder "
            + ", ".join(f"{d:.3e}" for d in deltas))


def _shipped_tables():
    cosh = kk.builtin_kernel("laplace", COSH_KERNEL)
    translation = op.builtin_action("translation", {"dimension": 1})
    cheb = np.cos(np.pi * (2 * np.arange(15) + 1) / 30)[::-1, None]
    yield rp.synthesize_cdual_rep(cosh, translation,
                                  kk.gram(cosh, cheb, rank_cutoff=1e-10))

    circle = kk.builtin_kernel("circle_laplace", {"mass": 2.0, "n_atoms": 32})
    euclid = op.builtin_action("euclidean", {"p": 2, "q": 0})
    yield rp.synthesize_cdual_rep(circle, euclid,
                                  kk.gram(circle, grid2d(5), rank_cutoff=1e-10))

    bessel = kk.builtin_kernel("halfplane_bessel", {"mass": 1.0})
    halfplane = op.builtin_action("euclidean",
                                  {"p": 1, "q": 1, "domain": "halfplane"})
    pts = grid2d(5, x_range=(0.2, 2.2))
    yield rp.synthesize_cdual_rep(bessel, halfplane,
                                  kk.gram(bessel, pts, rank_cutoff=1e-10))


def test_ac07_operator_symmetry_ledger():
    worst_skew = worst_unit = 0.0
    for table in _shipped_tables():
        worst_skew = max(worst_skew, table.max_skew_defect)
        worst_unit = max(worst_unit, table.max_unitarity_defect([0.25, 0.5, 1.0]))
    ok = worst_skew <= 1e-8 and worst_unit <= 1e-10
    _report("AC7 table entries skew-hermitian <= 1e-8, exponentials unitary "
            "<= 1e-10", ok, f"skew {worst_skew:.3e}, unitary {worst_unit:.3e}")


def test_ac08_conjugation_refinement():
    kernel = kk.builtin_kernel("circle_laplace", {"mass": 2.0, "n_atoms": 32})
    action = op.builtin_action("euclidean", {"p": 2, "q": 0})
    x = action.algebra.index_of("r")
    y = action.algebra.index_of("t1")
    defects = []
    for n_side in (3, 5, 9):
        model = kk.gram(kernel, grid2d(n_side), rank_cutoff=1e-10)
        table = rp.synthesize_cdual_rep(kernel, action, model)
        defects.append(rp.conjugation_check(table, x, y, 0.2))
    ok = defects[0] > defects[1] > defects[2]
    _report("AC8 conjugation defect strictly decreasing over {9, 25, 81}", ok,
            ", ".join(f"{d:.3e}" for d in defects))


def test_ac09_semigroup_pipelines():
    elems = [np.array([[s]]) for s in np.linspace(0.2, 0.9, 6)]
    action1 = op.builtin_action("matrix_right_multiplication", {"n": 1})
    a = 1.5
    table, _ = rp.luscher_mack_pipeline(
        elems, lambda u: u[..., 0, 0] ** a, action1,
        phi_grad=lambda u: a * u ** (a - 1.0))
    gen_err = abs(table.entries[0].compressed[0, 0].real - a)
    rank_ok = table.model.rank == 1

    rng = np.random.default_rng(4)
    mats = []
    for _ in range(8):
        raw = rng.normal(size=(2, 2))
        mats.append(raw * rng.uniform(0.05, 0.8) / np.linalg.norm(raw, 2))
    action2 = op.builtin_action("matrix_right_multiplication", {"n": 2})
    _, rep2 = rp.luscher_mack_pipeline(
        mats, lambda u: np.linalg.det(np.eye(2) - u) ** -2.0, action2)
    ok = rank_ok and gen_err <= 1e-10 and rep2.psd_min_ratio >= -1e-10
    _report("AC9 semigroup pipeline: rank 1 with generator 1.5 +- 1e-10; "
            "determinant kernel positive", ok,
            f"generator err {gen_err:.3e}, det min ratio {rep2.psd_min_ratio:.3e}")


def test_ac10_os_reconstruction():
    grid = dist.TestFunctionGrid(origin=[-3.0], spacing=0.05, shape=(121,))
    sk1 = dist.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0], [1.0]), grid)
    fns = [dist.bump(grid, [0.5], 0.3), dist.bump(grid, [1.0], 0.3)]
    space1 = dist.os_quotient(sk1, fns, cells=[6])
    sg = dist.os_semigroup(space1, [6])[0]
    rank1_ok = (space1.model.rank == 1 and space1.model.gap_ratio <= 1e-10
                and abs(sg.matrix[0, 0] - np.exp(-0.3)) <= 1e-10)

    sk2 = dist.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5]), grid)
    fns2 = fns + [dist.bump(grid, [1.5], 0.3)]
    space2 = dist.os_quotient(sk2, fns2, cells=[4, 10, 14])
    eig_err = law = contraction = 0.0
    for cells in (4, 10):
        t = cells * grid.spacing
        res = dist.os_semigroup(space2, [cells])[0]
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (res.matrix + res.matrix.T)))[::-1]
        eig_err = max(eig_err, float(np.max(np.abs(
            eigs - [np.exp(-t), np.exp(-2 * t)]))))
        contraction = max(contraction, res.contraction_defect)
    law = dist.semigroup_law_defect(*(r.matrix for r in dist.os_semigroup(
        space2, [4, 10, 14])))
    ok = (rank1_ok and space2.model.rank == 2 and eig_err <= 1e-8
          and contraction <= 1e-8 and law <= 1e-8)
    _report("AC10 quotient reconstruction: rank 1 scalar e^{-0.3} +- 1e-10; "
            "mixture eigenvalues +- 1e-8; contraction/law <= 1e-8", ok,
            f"scalar err {abs(sg.matrix[0, 0] - np.exp(-0.3)):.2e}, "
            f"eig err {eig_err:.2e}, law {law:.2e}")


def test_ac11_rp_axioms():
    grid = dist.TestFunctionGrid(origin=[-2.0, -1.0], spacing=0.1,
                                 shape=(41, 21))
    theta = dist.grid_reflection_map(grid)
    mask = dist.slice_mask(grid)
    pairs = [(dist.grid_shift_map(grid, (k, 0)),
              dist.grid_shift_map(grid, (-k, 0))) for k in (3, 5)]
    h_maps = [dist.grid_shift_map(grid, (0, 2))]
    report = dist.rp_axioms_check(pairs, theta, mask, h_maps)
    _report("AC11 reflected-conjugation and slice invariance <= 1e-12",
            max(report.rp1_max_defect, report.rp2_max_defect) <= 1e-12,
            f"rp1 {report.rp1_max_defect:.2e}, rp2 {report.rp2_max_defect:.2e}")


def test_ac12_determinism(capsys):
    names = sorted(n for n in os.listdir(CONFIG_DIR) if n.endswith(".json"))
    identical = True
    for name in names:
        path = os.path.join(CONFIG_DIR, name)
        outputs = []
        for _ in range(2):
            code = cli.main(["run", path, "--stable-output"])
            outputs.append(capsys.readouterr().out)
            assert code == 0, f"{name} exited {code}"
        identical = identical and outputs[0] == outputs[1]
    with capsys.disabled():
        _report(f"AC12 byte-identical stable reports over {len(names)} configs",
                identical)

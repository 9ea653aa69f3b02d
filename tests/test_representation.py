import dataclasses

import numpy as np
import pytest

from kerflow import kernels as kk
from kerflow import operators as op
from kerflow import representation as rp
from kerflow.config import CHECKS
from kerflow.errors import CompatibilityError, PositivityError
from kerflow.runner import _TESTS


def chebyshev(n, half=1.0):
    return (half * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)))[::-1, None]


def grid2d(n_side, x_range=(-1.0, 1.0), y_range=(-1.0, 1.0)):
    gx = np.linspace(*x_range, n_side)
    gy = np.linspace(*y_range, n_side)
    return np.array([[a, b] for a in gx for b in gy])


@pytest.fixture
def abelian_setup():
    kernel = kk.builtin_kernel("laplace", {"atoms": [[-1.0], [1.0]],
                                           "weights": [0.5, 0.5]})
    action = op.builtin_action("translation", {"dimension": 1})
    model = kk.gram(kernel, chebyshev(15), rank_cutoff=1e-10)
    return kernel, action, model


@pytest.fixture
def euclidean_setup():
    kernel = kk.builtin_kernel("circle_laplace", {"mass": 2.0, "n_atoms": 32})
    action = op.builtin_action("euclidean", {"p": 2, "q": 0})
    return kernel, action


def test_abelian_table_single_hermitian_entry(abelian_setup):
    kernel, action, model = abelian_setup
    table = rp.synthesize_cdual_rep(kernel, action, model)
    assert len(table.entries) == 1
    assert table.entries[0].epsilon == op.SYMMETRIC
    assert table.entries[0].symmetrization_defect <= 1e-8
    T = table.dual_matrix(0)   # i * hermitian: skew-hermitian
    assert np.max(np.abs(T + T.conj().T)) <= 1e-12


def test_euclidean_table_split(euclidean_setup):
    kernel, action = euclidean_setup
    model = kk.gram(kernel, grid2d(5), rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(kernel, action, model)
    alg = action.algebra
    assert len(table.entries) == 3
    assert table.entries[alg.index_of("r")].epsilon == op.SKEW
    assert table.entries[alg.index_of("t1")].epsilon == op.SYMMETRIC
    assert table.entries[alg.index_of("t2")].epsilon == op.SYMMETRIC
    assert table.max_skew_defect <= 1e-8
    assert table.max_unitarity_defect([0.5, 1.0]) <= 1e-10


def test_trivial_kernel_gives_zero_operators():
    kernel = kk.entrywise_kernel("one", lambda x, y: 1.0,
                                 lambda x, y: np.zeros(1, complex))
    action = op.builtin_action("translation", {"dimension": 1})
    model = kk.gram(kernel, [[0.0]])
    table = rp.synthesize_cdual_rep(kernel, action, model)
    assert np.allclose(table.entries[0].compressed, 0.0)


def test_synthesis_rejects_wrong_split():
    # difference kernel: translations come out skew, contradicting their
    # flipped (symmetric) slot in the translation algebra
    kernel = kk.builtin_kernel("gaussian_rbf")
    action = op.builtin_action("translation", {"dimension": 1})
    model = kk.gram(kernel, chebyshev(9), rank_cutoff=1e-10)
    with pytest.raises(CompatibilityError):
        rp.synthesize_cdual_rep(kernel, action, model)


def test_commutation_defect_abelian(abelian_setup):
    kernel, action, model = abelian_setup
    table = rp.synthesize_cdual_rep(kernel, action, model)
    report = rp.commutation_defect(table)
    assert report.max_defect == 0.0   # one generator: no pairs at all


def test_commutation_defect_decreases_under_refinement():
    kernel = kk.builtin_kernel("halfplane_bessel", {"mass": 1.0})
    action = op.builtin_action("euclidean",
                               {"p": 1, "q": 1, "domain": "halfplane"})
    defects = []
    for n_side in (3, 5, 9):
        pts = grid2d(n_side, x_range=(0.2, 2.2))
        model = kk.gram(kernel, pts, rank_cutoff=1e-10)
        table = rp.synthesize_cdual_rep(kernel, action, model)
        defects.append(rp.commutation_defect(table).max_defect)
    assert defects[0] > defects[1] > defects[2]


def test_conjugation_zero_at_s_zero(euclidean_setup):
    kernel, action = euclidean_setup
    model = kk.gram(kernel, grid2d(5), rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(kernel, action, model)
    r = action.algebra.index_of("r")
    t1 = action.algebra.index_of("t1")
    assert rp.conjugation_check(table, r, t1, 0.0) <= 1e-13


def test_conjugation_commuting_pair(euclidean_setup):
    kernel, action = euclidean_setup
    model = kk.gram(kernel, grid2d(5), rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(kernel, action, model)
    r = action.algebra.index_of("r")
    assert rp.conjugation_check(table, r, r, 0.4) <= 1e-10


def test_conjugation_requires_fixed_part(euclidean_setup):
    kernel, action = euclidean_setup
    model = kk.gram(kernel, grid2d(3), rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(kernel, action, model)
    t1 = action.algebra.index_of("t1")
    with pytest.raises(ValueError):
        rp.conjugation_check(table, t1, t1, 0.2)


def test_conjugation_decreases_under_refinement(euclidean_setup):
    kernel, action = euclidean_setup
    r = action.algebra.index_of("r")
    t1 = action.algebra.index_of("t1")
    defects = []
    for n_side in (3, 5, 9):
        model = kk.gram(kernel, grid2d(n_side), rank_cutoff=1e-10)
        table = rp.synthesize_cdual_rep(kernel, action, model)
        defects.append(rp.conjugation_check(table, r, t1, 0.2))
    assert defects[0] > defects[1] > defects[2]


def rotation_closed_model(sigma=0.5):
    # two circles at the angular spacing of the tested subgroup element; the
    # short length scale keeps the Gram well conditioned
    K = kk.builtin_kernel("gaussian_rbf", {"sigma": sigma})
    pts = np.array([[r * np.cos(a), r * np.sin(a)]
                    for r in (0.5, 1.0)
                    for a in 2 * np.pi * np.arange(8) / 8])
    return K, kk.gram(K, pts, rank_cutoff=1e-10)


def test_h_group_identity_at_zero(euclidean_setup):
    _, action = euclidean_setup
    K, model = rotation_closed_model()
    res = rp.h_group_rep(K, action, model, action.algebra.index_of("r"), 0.0)
    assert np.max(np.abs(res.matrix - np.eye(model.rank))) <= 1e-12


def test_h_group_rotation_closed_sample():
    # sample closed under the 2 pi / 8 rotation: the group matrix is unitary
    # to kernel-evaluation roundoff
    action = op.builtin_action("euclidean", {"p": 2, "q": 0})
    K, model = rotation_closed_model()
    res = rp.h_group_rep(K, action, model, action.algebra.index_of("r"),
                         2 * np.pi / 8)
    assert res.unitarity_defect <= 1e-10


def test_h_group_generator_consistency():
    action = op.builtin_action("euclidean", {"p": 2, "q": 0})
    K, model = rotation_closed_model()
    r_idx = action.algebra.index_of("r")
    defects = [rp.h_group_rep(K, action, model, r_idx, t).generator_defect
               for t in (0.1, 0.05, 0.025)]
    order = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(defects), 1)[0]
    assert order >= 0.9


@pytest.mark.parametrize("kernel, params, action_params, x_range", [
    ("circle_laplace", {"mass": 2.0, "n_atoms": 32}, {"p": 2, "q": 0}, (-1.0, 1.0)),
    ("halfplane_bessel", {"mass": 1.0}, {"p": 1, "q": 1, "domain": "halfplane"},
     (0.2, 2.2)),
], ids=["cdual_euclidean", "cdual_halfplane"])
def test_moved_section_matrix_differentiates_to_each_generator(kernel, params,
                                                               action_params,
                                                               x_range):
    # P(t) = compress(K(sigma_t m, m)) moves the first slot, as the form does,
    # so (P(t) - P(-t)) / 2t tends to T_x at order 2 for h and q elements
    # alike; moving the second slot instead gave -T_x on q elements
    K = kk.builtin_kernel(kernel, params)
    action = op.builtin_action("euclidean", action_params)
    pts = grid2d(9, x_range)
    model = kk.gram(K, pts, rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(K, action, model)
    times = [0.1, 0.05, 0.025, 0.0125]
    for x, label in enumerate(action.algebra.labels):
        T = table.entries[x].compressed

        def P(t):
            return model.compress(K.matrix(action.sigma[x](t, pts), pts))

        errors = [np.linalg.norm((P(t) - P(-t)) / (2 * t) - T) / np.linalg.norm(T)
                  for t in times]
        order = np.polyfit(np.log(times), np.log(errors), 1)[0]
        assert order >= 1.8, (label, errors)


def test_pipeline_power_rank_one():
    elems = [np.array([[s]]) for s in np.linspace(0.2, 0.9, 6)]
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    a = 1.5
    table, report = rp.luscher_mack_pipeline(
        elems, lambda u: u[..., 0, 0] ** a, action,
        phi_grad=lambda u: a * u ** (a - 1.0))
    assert table.model.rank == 1
    gen = table.entries[0].compressed
    assert gen[0, 0].real == pytest.approx(a, abs=1e-10)
    assert report.max_star_defect <= 1e-10
    # right translation by s acts on the one-dimensional model as s^a
    for k, s in enumerate(np.linspace(0.2, 0.9, 6)):
        assert report.translation_matrices[k][0, 0].real == pytest.approx(
            s ** a, abs=1e-10)


def test_conjugation_first_order_matches_commutation(euclidean_setup):
    # defect(s) / s approaches the commutator mismatch of the pair as s -> 0
    kernel, action = euclidean_setup
    model = kk.gram(kernel, grid2d(5), rank_cutoff=1e-10)
    table = rp.synthesize_cdual_rep(kernel, action, model)
    alg = action.algebra
    r, t1 = alg.index_of("r"), alg.index_of("t1")
    from kerflow.algebra import c_dual
    dual = c_dual(alg)
    Tr, Tt = table.dual_matrix(r), table.dual_matrix(t1)
    target = table.dual_combination(dual.structure[r, t1])
    comm_norm = np.linalg.norm(Tr @ Tt - Tt @ Tr - target)
    slopes = [rp.conjugation_check(table, r, t1, s) / s
              for s in (0.05, 0.1, 0.2)]
    assert slopes[0] == pytest.approx(comm_norm, rel=0.2)


def test_pipeline_trivial_function():
    elems = [np.array([[s]]) for s in (0.3, 0.6)]
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    table, report = rp.luscher_mack_pipeline(
        elems, lambda u: np.ones(u.shape[:-2]), action,
        phi_grad=np.zeros_like)
    assert table.model.rank == 1
    assert np.max(np.abs(table.entries[0].compressed)) <= 1e-10
    for k in report.star_defects:
        assert report.star_defects[k] <= 1e-10


def test_pipeline_determinant_kernel():
    rng = np.random.default_rng(4)
    elems = []
    for _ in range(8):
        raw = rng.normal(size=(2, 2))
        elems.append(raw * rng.uniform(0.05, 0.8) / np.linalg.norm(raw, 2))
    action = op.builtin_action("matrix_right_multiplication", {"n": 2})
    table, report = rp.luscher_mack_pipeline(
        elems, lambda u: np.linalg.det(np.eye(2) - u) ** -2.0, action)
    assert report.psd_min_ratio >= -1e-10
    assert report.max_star_defect <= 1e-8
    assert np.isfinite(report.commutation_max_defect)
    assert table.max_skew_defect <= 1e-8


def test_pipeline_rejects_non_positive_function():
    elems = [np.array([[s]]) for s in (0.3, 0.6)]
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    with pytest.raises(PositivityError):
        rp.luscher_mack_pipeline(elems, lambda u: -np.ones(u.shape[:-2]), action,
                                 phi_grad=np.zeros_like)


def test_pipeline_reports_a_non_positive_phi():
    # cos(8 st) is no positive definite kernel on [0.2, 0.9]: the pipeline
    # reports its eigenvalue ratio, and the check table fails it
    elems = [np.array([[s]]) for s in np.linspace(0.2, 0.9, 6)]
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    _, report = rp.luscher_mack_pipeline(elems, lambda u: np.cos(8.0 * u[..., 0, 0]),
                                         action, phi_grad=lambda u: -8.0 * np.sin(8.0 * u))
    assert report.psd_min_ratio == pytest.approx(-0.954, abs=1e-3)
    _, tol, test = CHECKS["luscher_mack"]["psd_min_ratio"]
    assert not _TESTS[test](report.psd_min_ratio, tol)


def _contractions(count, n=2, seed=4):
    """``count`` random n x n matrices with operator norms in [0.05, 0.8]."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, n, n))
    return raw * (rng.uniform(0.05, 0.8, count)
                  / np.linalg.norm(raw, 2, axis=(1, 2)))[:, None, None]


def _det_grad(u):
    # d det(1 - u) / d u = -det(1 - u) (1 - u)^-T, on stacks of matrices
    m = np.eye(u.shape[-1]) - u
    return -np.linalg.det(m)[..., None, None] * np.swapaxes(np.linalg.inv(m), -1, -2)


def _per_product(fn, n, shape=()):
    """A function of one n x n product, lifted to stacks (..., n, n) by a
    loop over the products."""
    return lambda u: np.array([fn(p) for p in u.reshape(-1, n, n)]).reshape(
        u.shape[:-2] + shape)


def _both_forms(phi_stacked, phi, n, grad=None):
    """The semigroup kernel from a stacked phi and from an entry-wise one."""
    return (rp._semigroup_kernel(phi_stacked, grad, n),
            rp._semigroup_kernel(_per_product(phi, n),
                                 None if grad is None else _per_product(grad, n, (n, n)),
                                 n))


@pytest.mark.parametrize("case", ["product00", "product01", "product10", "product11",
                                  "det", "det_analytic_grad"])
def test_stacked_semigroup_kernel_equals_entrywise_bit_for_bit(case):
    # no power is taken, so stacking changes no rounding: values and
    # gradients (central differences or analytic) are identical
    P = _contractions(9).reshape(9, 4)
    if case.startswith("product"):
        i, j = int(case[-2]), int(case[-1])
        stacked, entrywise = _both_forms(lambda u: u[..., i, j], lambda u: u[i, j], 2)
    else:
        det = lambda u: np.linalg.det(np.eye(2) - u)
        grad = _det_grad if case == "det_analytic_grad" else None
        stacked, entrywise = _both_forms(det, lambda u: float(det(u)), 2, grad)
    assert np.array_equal(stacked.matrix(P, P[:5]), entrywise.matrix(P, P[:5]))
    assert np.array_equal(stacked.grad1_matrix(P, P[:5]),
                          entrywise.grad1_matrix(P, P[:5]))


def test_stacked_semigroup_powers_within_one_ulp():
    # numpy's array ** and Python's float ** may round differently by 1 ulp
    a, power = 1.5, 2.0
    s = np.linspace(0.2, 0.9, 24)[:, None]
    stacked, entrywise = _both_forms(lambda u: u[..., 0, 0] ** a,
                                     lambda u: float(u[0, 0]) ** a, 1)
    np.testing.assert_array_max_ulp(stacked.matrix(s, s), entrywise.matrix(s, s), 1)
    P = _contractions(8).reshape(8, 4)
    stacked, entrywise = _both_forms(
        lambda u: np.linalg.det(np.eye(2) - u) ** (-power),
        lambda u: float(np.linalg.det(np.eye(2) - u) ** (-power)), 2)
    np.testing.assert_array_max_ulp(stacked.matrix(P, P), entrywise.matrix(P, P), 1)


def test_stacked_phi_is_never_called_entry_by_entry():
    # every call of a stacked phi or phi_grad sees all N x N products at once
    a = 1.5
    shapes = []

    def record(value):
        def fn(u):
            shapes.append(u.shape)
            return value(u)
        return fn

    elems = [np.array([[s]]) for s in np.linspace(0.2, 0.9, 6)]
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    table, report = rp.luscher_mack_pipeline(
        elems, record(lambda u: u[..., 0, 0] ** a), action,
        phi_grad=record(lambda u: a * u ** (a - 1.0)))
    assert shapes and set(shapes) == {(6, 6, 1, 1)}
    assert table.entries[0].compressed[0, 0] == pytest.approx(a, abs=1e-10)

    shapes.clear()
    action = op.builtin_action("matrix_right_multiplication", {"n": 2})
    stacked, rep = rp.luscher_mack_pipeline(
        _contractions(8), record(lambda u: np.linalg.det(np.eye(2) - u) ** -2.0),
        action)
    assert shapes and set(shapes) == {(8, 8, 2, 2)}
    # the same report as the entry-wise phi, up to the rounding of **
    _, ref = rp.luscher_mack_pipeline(
        _contractions(8),
        _per_product(lambda u: float(np.linalg.det(np.eye(2) - u) ** -2.0), 2), action)
    assert rep.psd_min_ratio == pytest.approx(ref.psd_min_ratio, rel=1e-9)
    assert rep.commutation_max_defect == pytest.approx(ref.commutation_max_defect,
                                                       rel=1e-9)
    for k in ref.translation_matrices:
        np.testing.assert_allclose(rep.translation_matrices[k],
                                   ref.translation_matrices[k], rtol=1e-9, atol=1e-12)


def _recording_forms(monkeypatch):
    """Patch ``lie_derivative_form`` where the basis loops call it; returns
    the list of (field, form, passed a gradient) of every call."""
    original = op.lie_derivative_form
    calls = []

    def form(kernel, field, points, *grad):
        B = original(kernel, field, points, *grad)
        calls.append((field, B, bool(grad)))
        return B

    monkeypatch.setattr(op, "lie_derivative_form", form)
    monkeypatch.setattr(rp, "lie_derivative_form", form)
    return calls


def test_a_basis_loop_evaluates_the_kernel_gradient_once(monkeypatch):
    # every form of a basis contracts the same first-slot gradient, so each
    # loop evaluates it once and still builds one form per basis element
    base = kk.builtin_kernel("halfplane_bessel", {"mass": 1.0})
    grads = []

    def grad1(X, Y):
        grads.append((len(X), len(Y)))
        return base.grad1_matrix_fn(X, Y)

    kernel = dataclasses.replace(base, grad1_matrix_fn=grad1)
    action = op.builtin_action("euclidean", {"p": 1, "q": 1, "domain": "halfplane"})
    pts = grid2d(5, x_range=(0.2, 2.2))
    model = kk.gram(kernel, pts, rank_cutoff=1e-10)
    forms = _recording_forms(monkeypatch)
    assert grads == []
    assert op.compatibility_check(kernel, action, pts).max_defect <= 1e-8
    assert grads == [(25, 25)]
    assert [f for f, _, _ in forms] == list(action.basis_fields)
    grads.clear()
    forms.clear()
    rp.synthesize_cdual_rep(kernel, action, model)
    assert grads == [(25, 25)]
    assert [f for f, _, _ in forms] == list(action.basis_fields)


@pytest.mark.parametrize("kernel, action, pts", [
    # analytic gradients
    (kk.builtin_kernel("halfplane_bessel", {"mass": 1.0}),
     op.builtin_action("euclidean", {"p": 1, "q": 1, "domain": "halfplane"}),
     grid2d(5, x_range=(0.2, 2.2))),
    (kk.builtin_kernel("circle_laplace", {"mass": 2.0, "n_atoms": 32}),
     op.builtin_action("euclidean", {"p": 2, "q": 0}), grid2d(5)),
    # central differences of the values
    (kk.builtin_kernel("det", {"n": 2, "power": 2.0}),
     op.builtin_action("matrix_right_multiplication", {"n": 2}),
     _contractions(12).reshape(12, 4)),
], ids=["halfplane_bessel", "circle_laplace", "det"])
def test_forms_from_the_shared_gradient_equal_lone_forms_bit_for_bit(
        monkeypatch, kernel, action, pts):
    model = kk.gram(kernel, pts, rank_cutoff=1e-10)
    lone = [op.lie_derivative_form(kernel, field, pts) for field in action.basis_fields]
    forms = _recording_forms(monkeypatch)
    op.compatibility_check(kernel, action, pts)
    rp.synthesize_cdual_rep(kernel, action, model)
    assert [f for f, _, _ in forms] == 2 * list(action.basis_fields)
    for (_, B, shared), ref in zip(forms, 2 * lone):
        assert shared and np.array_equal(B, ref)

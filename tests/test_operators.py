import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerflow import flows as fl
from kerflow import kernels as kk
from kerflow import operators as op
from kerflow.algebra import expm
from kerflow.errors import ClassificationError


def chebyshev(n, half=1.0):
    return (half * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)))[::-1, None]


@pytest.fixture
def X1d():
    return fl.constant_field([1.0])


def test_form_of_constant_kernel_vanishes(X1d):
    K = kk.entrywise_kernel("const", lambda x, y: 1.0, lambda x, y: np.zeros(1, complex))
    B = op.lie_derivative_form(K, X1d, [[0.0], [0.7]])
    assert np.allclose(B, 0.0)


def test_form_exponential_product_kernel(X1d):
    # K = e^{xy}: d/dx K = y e^{xy}, so B[i, j] = m_j e^{m_i m_j}
    K = kk.entrywise_kernel("exy", lambda x, y: np.exp(x @ y),
                            lambda x, y: y * np.exp(x @ y))
    B = op.lie_derivative_form(K, X1d, [[0.0], [1.0]])
    assert np.allclose(B.real, [[0.0, 1.0], [0.0, np.e]], atol=1e-14)
    assert op.symmetry_classify(B) is None


def test_rbf_form_antisymmetric_on_symmetric_points(X1d):
    K = kk.builtin_kernel("gaussian_rbf")
    B = op.lie_derivative_form(K, X1d, chebyshev(9))
    assert np.max(np.abs(B + B.conj().T)) <= 1e-12
    assert op.symmetry_classify(B) == op.SKEW


def test_sum_kernel_form_symmetric(X1d):
    K = kk.builtin_kernel("laplace_gaussian")
    B = op.lie_derivative_form(K, X1d, chebyshev(9))
    assert op.symmetry_classify(B) == op.SYMMETRIC


def test_compatibility_cosh_translation(X1d):
    # both sides of the identity equal sinh((x+y)/2)/2 analytically
    K = kk.builtin_kernel("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]})
    action = op.builtin_action("translation", {"dimension": 1})
    report = op.compatibility_check(K, action, chebyshev(15))
    assert report.max_defect <= 1e-12


def test_compatibility_rotation_invariant_kernel():
    # rotation generator alone (whole algebra fixed by the involution): the
    # rotation-invariant kernel makes its field skew
    from kerflow.algebra import SymmetricLieAlgebra
    alg = SymmetricLieAlgebra(np.zeros((1, 1, 1)), np.eye(1), ("r",))
    action = op.CompatibleAction(alg, (fl.rotation_field(),))
    K = kk.builtin_kernel("gaussian_rbf")
    pts = np.random.default_rng(3).normal(size=(8, 2))
    assert op.compatibility_check(K, action, pts).max_defect <= 1e-10


def test_compatibility_mismatch_fails():
    # a difference kernel is skew for translations, so declaring the
    # translation direction flipped (symmetric) must fail
    K = kk.builtin_kernel("gaussian_rbf")
    action = op.builtin_action("translation", {"dimension": 1})
    report = op.compatibility_check(K, action, chebyshev(8))
    assert report.max_defect > 1e-8


def test_flow_invariance_rotation_rbf():
    K = kk.builtin_kernel("gaussian_rbf")
    field = fl.rotation_field()
    report = op.flow_invariance_check(K, field, op.SKEW,
                                      [([1.0, 0.0], [0.3, 0.5])], 1.0, 1e-3)
    assert report.max_drift <= 1e-8


def test_flow_invariance_symmetric_pair(X1d):
    K = kk.builtin_kernel("laplace_gaussian")
    report = op.flow_invariance_check(K, X1d, op.SYMMETRIC,
                                      [([0.0], [0.3])], 0.5, 1e-3)
    assert report.max_drift <= 1e-8


def test_flow_invariance_wrong_sign_detects_drift(X1d):
    K = kk.builtin_kernel("gaussian_rbf")
    report = op.flow_invariance_check(K, X1d, op.SYMMETRIC,
                                      [([0.0], [0.3])], 0.5, 1e-3)
    assert report.max_drift > 0.05


def _form_by_entries(kernel, field, pts):
    """The entry-by-entry definition B[i, j] = grad1 K(m_i, m_j) . X(m_i)."""
    return np.array([[kernel.grad1(p, q) @ field(p) for q in pts] for p in pts])


@pytest.mark.parametrize("kernel, field", [
    (kk.builtin_kernel("circle_laplace", {"mass": 2.0}), fl.rotation_field()),
    (kk.builtin_kernel("halfplane_bessel"), fl.constant_field([0.0, -1.0])),
    # a user field, and a kernel with no array form
    (kk.entrywise_kernel("user", lambda x, y: np.exp(x @ y)),
     fl.VectorField(fl.full_space(2),
                    lambda p: np.stack([p[..., 1] ** 2, -p[..., 0]], axis=-1))),
])
def test_form_matches_entry_definition_and_stays_real(kernel, field):
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.8, 0.8, size=(12, 2)) + np.array([1.0, 0.0])
    B = op.lie_derivative_form(kernel, field, pts)
    ref = _form_by_entries(kernel, field, pts)
    assert B.dtype == np.float64
    np.testing.assert_allclose(B, ref.real, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())
    model = kk.gram(kernel, pts, rank_cutoff=1e-10)
    assert model.compress(B).dtype == np.float64


def test_compress_zero_form():
    model = kk.gram_from_matrix(np.eye(2))
    comp = op.compress_operator(np.zeros((2, 2)), model, op.SYMMETRIC)
    assert np.allclose(comp.compressed, 0.0)


def test_compress_rank_one_eigen_case(X1d):
    # K = e^{-(x+y)}: the derivative operator acts as -1 on the section span
    K = kk.builtin_kernel("laplace", {"atoms": [[2.0]], "weights": [1.0]})
    model = kk.gram(K, [[0.2]])
    B = op.lie_derivative_form(K, X1d, model.points)
    comp = op.compress_operator(B, model, op.SYMMETRIC)
    assert comp.compressed.real == pytest.approx(np.array([[-1.0]]), abs=1e-12)


def test_compress_cosh_hermitian_defect(X1d):
    K = kk.builtin_kernel("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]})
    model = kk.gram(K, chebyshev(15), rank_cutoff=1e-10)
    B = op.lie_derivative_form(K, X1d, model.points)
    comp = op.compress_operator(B, model, op.SYMMETRIC)
    assert comp.symmetrization_defect <= 1e-10
    assert np.max(np.abs(comp.compressed - comp.compressed.conj().T)) == 0.0


def test_compress_inconsistent_class_raises(X1d):
    K = kk.builtin_kernel("gaussian_rbf")
    model = kk.gram(K, chebyshev(8))
    B = op.lie_derivative_form(K, X1d, model.points)
    with pytest.raises(ClassificationError):
        op.compress_operator(B, model, op.SYMMETRIC)
    # the rounding floor of the test moves with the form, so a tiny
    # asymmetric form raises too
    with pytest.raises(ClassificationError):
        op.compress_operator(1e-30 * B, model, op.SYMMETRIC)


def test_compress_takes_an_operator_below_its_rounding_scale():
    # the form's one entry on the kept span is 1e-18 of its size, below the
    # rounding of W B W*: the relative test would compare noise with noise
    model = kk.gram_from_matrix(np.diag([1.0, 1e-20]))
    assert model.rank == 1
    comp = op.compress_operator(np.diag([1e-18, 1.0]), model, op.SKEW)
    assert comp.symmetrization_defect == 2e-18
    assert comp.compressed.tolist() == [[0.0]]


@pytest.fixture
def cosh_operator(X1d):
    K = kk.builtin_kernel("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]})
    model = kk.gram(K, chebyshev(15), rank_cutoff=1e-10)
    B = op.lie_derivative_form(K, X1d, model.points)
    return op.compress_operator(B, model, op.SYMMETRIC), model


def test_semigroup_on_eigen_section(X1d):
    K = kk.builtin_kernel("laplace", {"atoms": [[2.0]], "weights": [1.0]})
    model = kk.gram(K, [[0.2]])
    B = op.lie_derivative_form(K, X1d, model.points)
    comp = op.compress_operator(B, model, op.SYMMETRIC)
    v = kk.embed_index(model, 0)
    out = op.semigroup_matrix(comp, 0.7) @ v
    assert np.allclose(out, np.exp(-0.7) * v, atol=1e-12)


def test_semigroup_law(cosh_operator):
    comp, _ = cosh_operator
    S = op.semigroup_matrix
    assert np.linalg.norm(S(comp, 0.3) @ S(comp, 0.2) - S(comp, 0.5)) <= 1e-10


def test_skew_unitary_mode(X1d):
    K = kk.builtin_kernel("gaussian_rbf")
    model = kk.gram(K, chebyshev(9), rank_cutoff=1e-10)
    B = op.lie_derivative_form(K, X1d, model.points)
    comp = op.compress_operator(B, model, op.SKEW)
    U = expm(0.6 * comp.compressed)
    assert np.max(np.abs(U.conj().T @ U - np.eye(comp.rank))) <= 1e-10
    with pytest.raises(ClassificationError):
        op.semigroup_matrix(comp, 0.3)


def test_adjoint_identity_for_builtin_pairs(X1d):
    # <L K_mj, K_mi> = eps <K_mj, L K_mi> sampled: B = eps B^dagger
    cases = [("laplace_gaussian", {}, op.SYMMETRIC),
             ("gaussian_rbf", {}, op.SKEW)]
    for name, params, eps in cases:
        K = kk.builtin_kernel(name, params)
        B = op.lie_derivative_form(K, X1d, chebyshev(11))
        assert op.symmetry_classify(B) == eps
        assert np.max(np.abs(B - eps * B.conj().T)) <= 1e-8 * np.linalg.norm(B)


def test_froelich_rank_one_exact(X1d):
    K = kk.builtin_kernel("laplace", {"atoms": [[2.0]], "weights": [1.0]})
    model = kk.gram(K, [[0.2]])
    res = op.froelich_check(K, X1d, model, 0, 0.3)
    assert res.relative_error <= 1e-10
    assert res.projection_residual <= 1e-10


def test_froelich_zero_time(X1d):
    K = kk.builtin_kernel("laplace_gaussian")
    model = kk.gram(K, chebyshev(11), rank_cutoff=1e-10)
    res = op.froelich_check(K, X1d, model, 5, 0.0)
    assert res.relative_error <= 1e-12


def test_section_curve_satisfies_operator_ode(X1d):
    # d/dt (section along the flow) = eps * compressed operator * section,
    # second order in the difference step on the exactly resolved span
    K = kk.builtin_kernel("laplace", {"atoms": [[2.0]], "weights": [1.0]})
    model = kk.gram(K, [[0.2]])
    B = op.lie_derivative_form(K, X1d, model.points)
    comp = op.compress_operator(B, model, op.SYMMETRIC)

    def coords(t):
        return kk.embed_point(model, [0.2 + t])

    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = (coords(h) - coords(-h)) / (2 * h)
        target = comp.compressed @ coords(0.0)
        errs.append(float(np.linalg.norm(fd - target)))
    order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
    assert 1.8 <= order <= 2.2


def test_action_linearity():
    action = op.builtin_action("euclidean", {"p": 2, "q": 0})
    alg = action.algebra
    a = alg.element([1.0, 2.0, 0.0])
    b = alg.element([0.0, -1.0, 1.0])
    combo = action.field(alg.element(a.coeffs + 2.0 * b.coeffs))
    p = np.array([0.3, -0.8])
    expected = action.field(a)(p) + 2.0 * action.field(b)(p)
    assert np.max(np.abs(combo(p) - expected)) <= 1e-12


def test_action_homomorphism_defect():
    rng = np.random.default_rng(8)
    for name, params in (("euclidean", {"p": 2, "q": 0}),
                         ("euclidean", {"p": 1, "q": 1}),
                         ("translation", {"dimension": 2})):
        action = op.builtin_action(name, params)
        pts = rng.uniform(0.2, 1.0, size=(5, 2))
        assert action.homomorphism_defect(pts) <= 1e-8
    # one basis field: no pair i < j, so nothing is compared
    one = op.builtin_action("translation", {"dimension": 1})
    assert one.homomorphism_defect(rng.uniform(size=(5, 1))) is None


def test_matrix_action_homomorphism():
    action = op.builtin_action("matrix_right_multiplication", {"n": 2})
    rng = np.random.default_rng(2)
    pts = [0.3 * rng.normal(size=4) for _ in range(4)]
    assert action.homomorphism_defect(pts) <= 1e-8


def test_matrix_action_acts_on_blocks_of_points():
    # the chart and the fields take (n, 4) blocks of flattened 2 x 2 matrices,
    # each row as on its own; a non-finite row is outside
    action = op.builtin_action("matrix_right_multiplication", {"n": 2, "radius": 1.0})
    rows = np.array([[0.5, 0.1, 0.0, 0.5], [2.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0]])
    assert list(action.basis_fields[0].chart.contains_rows(rows)) == [True, False, False]
    for field in action.basis_fields:
        assert np.array_equal(field.rows(rows[:2]), np.stack([field(p) for p in rows[:2]]))


def _per_curve_invariance(kernel, field, epsilon, m, n, t_max, step):
    """The drift and reached time with each curve integrated on its own and
    the two compared while both are inside the chart."""
    cm = fl.integrate_curve(field, m, t_max, step)
    cn = fl.integrate_curve(field, n, -t_max if epsilon == op.SYMMETRIC else t_max, step)
    k_steps = min(len(cm.times), len(cn.times))
    base = kernel(m, n)
    drift = 0.0
    for k in range(k_steps):
        drift = max(drift, abs(kernel(cm.points[k], cn.points[k]) - base))
    return float(drift), float(cm.times[k_steps - 1])


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["quadratic1d", "rotation2d", "quad_swirl"]),
       epsilon=st.sampled_from([op.SYMMETRIC, op.SKEW]),
       t_max=st.floats(0.05, 2.0), step=st.sampled_from([0.01, 0.03]),
       data=st.data())
def test_batched_invariance_equals_per_curve_bit_for_bit(name, epsilon, t_max, step,
                                                         data):
    # quadratic1d curves leave the chart early, one or both of a pair
    field = fl.builtin_field(name)
    point = st.lists(st.floats(-0.95, 0.95), min_size=field.chart.dimension,
                     max_size=field.chart.dimension).map(np.array)
    m, n = data.draw(point), data.draw(point)
    kernel = kk.builtin_kernel("gaussian_rbf", {"sigma": 0.8})
    rep = op.flow_invariance_check(kernel, field, epsilon, [(m, n)], t_max, step)
    assert (rep.drifts[0], rep.reached[0]) == _per_curve_invariance(
        kernel, field, epsilon, m, n, t_max, step)


def test_convergence_study_ladder_runs_on_a_user_kernel():
    # the study's inverse-power kernel is a user kernel; ladder_1d reports an
    # exception by its name in place of a rank
    import importlib.util
    import os
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "transport_convergence_study.py")
    spec = importlib.util.spec_from_file_location("transport_convergence_study", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = module.ladder_1d(module.inverse_power_kernel(), 1e-12)
    assert len(rows) == len(module.SIZES)
    for rank, err in rows:
        assert isinstance(rank, int) and rank > 0, err
        assert 0.0 <= err < 1e-5

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerflow import kernels as kk
from kerflow import operators as op
from kerflow import representation as rp
from kerflow.config import KERNEL_CATALOG
from kerflow.errors import EmptyModelError, KernelDomainError, NotHermitianError


@pytest.fixture
def fock():
    return kk.builtin_kernel("fock")


@pytest.fixture
def fock_two_point(fock):
    return kk.gram(fock, [[0.0, 0.0], [1.0, 0.0]])


def test_fock_two_point_gram(fock_two_point):
    G = fock_two_point.gram.real
    assert np.allclose(G, [[1.0, 1.0], [1.0, np.e]])
    # eigenvalues of [[1, 1], [1, e]]: (1+e)/2 +- sqrt((1+e)^2/4 - (e-1))
    tr, det = 1.0 + np.e, np.e - 1.0
    lam_min = tr / 2.0 - np.sqrt(tr * tr / 4.0 - det)
    assert fock_two_point.eigenvalues[-1] == pytest.approx(lam_min, abs=1e-12)
    assert fock_two_point.eigenvalues[-1] == pytest.approx(0.5408, abs=1e-4)


def test_single_point_gram(fock):
    m = kk.gram(fock, [[0.5, 0.5]])
    assert m.rank == 1
    assert m.gram.shape == (1, 1)


def test_duplicate_points_force_rank_deficiency(fock):
    m = kk.gram(fock, [[0.3, 0.0], [0.3, 0.0]])
    assert m.duplicate_points
    assert m.rank == 1
    assert abs(m.eigenvalues[-1]) <= 1e-14 * m.eigenvalues[0]


def test_non_hermitian_kernel_rejected():
    bad = kk.entrywise_kernel("bad", lambda x, y: float(x[0] - y[0]) + 1.0)
    with pytest.raises(NotHermitianError):
        kk.gram(bad, [[0.0], [1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_from_matrix_rejects_non_finite_entries(bad):
    # NaN > tol is False, so the hermiticity guard alone lets a NaN through
    with pytest.raises(KernelDomainError, match="non-finite"):
        kk.gram_from_matrix([[bad, 0.0], [0.0, 1.0]])


def test_psd_fock_random_ball(fock):
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(20, 3))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
    assert kk.gram(fock, pts).min_ratio >= -1e-10


def test_negative_constant_kernel_fails_psd():
    neg = kk.entrywise_kernel("neg", lambda x, y: -1.0)
    pts = np.linspace(0.0, 1.0, 4)[:, None]
    model = kk.gram_from_matrix(neg.matrix(pts, pts) + np.eye(4) * 1e-9)
    assert model.min_ratio < -1e-10
    assert model.eigenvalues[-1] < -3.0


def test_psd_ou_kernel():
    ou = kk.builtin_kernel("ou")
    pts = np.linspace(-2, 2, 10)[:, None]
    assert kk.gram(ou, pts).min_ratio >= -1e-10


def test_whiten_identity_gram():
    # orthonormal sections: the whitening is itself unitary (identity up to
    # the arbitrary basis of the degenerate eigenspace)
    model = kk.gram_from_matrix(np.eye(3))
    assert model.rank == 3
    W = model.whitening
    assert np.max(np.abs(W @ W.conj().T - np.eye(3))) <= 1e-14
    assert np.max(np.abs(W @ model.gram @ W.conj().T - np.eye(3))) <= 1e-14


def test_whiten_rank_one():
    u = np.array([1.0, 2.0, -1.0])
    model = kk.gram_from_matrix(np.outer(u, u))
    assert model.rank == 1
    W, G = model.whitening, model.gram
    assert np.max(np.abs(W @ G @ W.conj().T - np.eye(1))) <= 1e-14


def test_whitening_reproduces_gram(fock_two_point):
    m = fock_two_point
    W, G = m.whitening, m.gram
    assert np.max(np.abs(W @ G @ W.conj().T - np.eye(m.rank))) <= 1e-12
    for i in range(2):
        for j in range(2):
            vi, vj = kk.embed_index(m, i), kk.embed_index(m, j)
            # <K_mj, K_mi> = G[i, j] in the whitened coordinates
            assert np.vdot(vi, vj) == pytest.approx(complex(G[i, j]), abs=1e-12)


def test_whiten_recut(fock):
    m = kk.gram(fock, [[0.3, 0.0], [0.3, 0.0]])
    strict = kk.gram_from_matrix(m.gram, 1e-16)
    assert strict.rank >= m.rank
    with pytest.raises(EmptyModelError):
        kk.gram_from_matrix(np.zeros((2, 2)))


def test_embed_new_point_matches_sample(fock, fock_two_point):
    v_new = kk.embed_point(fock_two_point, [1.0, 0.0])
    v_idx = kk.embed_index(fock_two_point, 1)
    assert np.max(np.abs(v_new - v_idx)) <= 1e-12


def test_embedding_evaluates_kernel(fock_two_point):
    # f = section at point 1; f(m_0) = <f, section at 0> = G[0, 1] = 1
    f = kk.embed_index(fock_two_point, 1)
    k0 = kk.embed_index(fock_two_point, 0)
    assert np.vdot(k0, f) == pytest.approx(1.0, abs=1e-12)


def test_projection_residual_interior_point(fock):
    pts = np.linspace(-1, 1, 12)[:, None]
    model = kk.gram(fock, pts)
    assert kk.projection_residual(model, [0.05]) <= 1e-6


def test_fock_at_origin(fock):
    assert fock([0.0, 0.0], [2.0, -1.0]) == pytest.approx(1.0)


def test_laplace_single_atom_constant():
    K = kk.builtin_kernel("laplace", {"atoms": [[0.0]], "weights": [2.0]})
    assert K([0.3], [0.9]) == pytest.approx(2.0)
    m = kk.gram(K, np.linspace(-1, 1, 5)[:, None])
    assert m.rank == 1


def test_laplace_cosh_closed_form():
    K = kk.builtin_kernel("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]})
    assert K([0.3], [0.4]).real == pytest.approx(np.cosh(0.35), abs=1e-14)
    pts = np.linspace(-1, 1, 10)[:, None]
    assert kk.gram(K, pts).min_ratio >= -1e-10


def test_laplace_gaussian_quadrature_converges():
    # trapezoid lattice weights for a unit Gaussian; the transform closed form
    # is exp((x+y)^2 / 8).  The [-5, 5] window truncates at ~3e-5; [-6, 6]
    # reaches the 1e-6 target at the same node count.
    exact = kk.builtin_kernel("laplace_gaussian")
    errs = []
    for span, n in ((5.0, 41), (6.0, 41)):
        xs = np.linspace(-span, span, n)
        w = np.full(n, 2 * span / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        dens = np.exp(-xs ** 2 / 2) / np.sqrt(2 * np.pi)
        K = kk.laplace_kernel_from_measure(kk.MeasureSample(xs[:, None], w * dens))
        worst = max(abs(K([a], [b]) - exact([a], [b])) / abs(exact([a], [b]))
                    for a in np.linspace(-1, 1, 5) for b in np.linspace(-1, 1, 5))
        errs.append(worst)
    assert errs[1] <= 1e-6
    assert errs[1] < errs[0]


def test_measure_sample_validation():
    with pytest.raises(ValueError):
        kk.MeasureSample([[1.0]], [0.0])
    with pytest.raises(ValueError):
        kk.MeasureSample([[1.0]], [1.0, 2.0])


def test_det_kernel_at_zero():
    K = kk.builtin_kernel("det", {"n": 2, "power": 3.0})
    assert K(np.zeros(4), np.zeros(4)) == pytest.approx(1.0)


def test_det_kernel_domain_error():
    K = kk.builtin_kernel("det", {"n": 2, "power": 2.0})
    with pytest.raises(KernelDomainError):
        K(1.2 * np.eye(2).ravel(), np.zeros(4))


def test_det_kernel_psd_on_contractions():
    rng = np.random.default_rng(5)
    for power in (1.0, 2.0):
        K = kk.builtin_kernel("det", {"n": 2, "power": power})
        pts = []
        for _ in range(6):
            raw = rng.normal(size=(2, 2))
            pts.append((raw * rng.uniform(0.1, 0.8) / np.linalg.norm(raw, 2)).ravel())
        assert kk.gram(K, pts).min_ratio >= -1e-10


def test_array_forms_reject_non_finite_values():
    # an overflow is a domain error that names the kernel, whichever form
    # (value, analytic gradient or central differences) meets it
    analytic = kk.Kernel("big", lambda X, Y: np.exp(X @ Y.T),
                         lambda X, Y: Y[None] * np.exp(X @ Y.T)[..., None])
    differenced = kk.Kernel("big", analytic.matrix_fn)
    forms = (analytic.matrix, analytic.grad1_matrix, differenced.grad1_matrix)
    for form in forms:
        assert np.isfinite(form([[1.0]], [[1.0]])).all()
        with pytest.raises(KernelDomainError, match="kernel 'big'"), \
                np.errstate(over="ignore", invalid="ignore"):
            form([[1000.0]], [[1000.0]])


def test_ou_grad_kink_raises():
    K = kk.builtin_kernel("ou")
    with pytest.raises(KernelDomainError):
        K.grad1([0.5], [0.5])


def test_grad1_fd_matches_analytic():
    for name, params in (("fock", {}), ("gaussian_rbf", {"sigma": 1.3}),
                         ("laplace_gaussian", {})):
        K = kk.builtin_kernel(name, params)
        # central differences of the same values, one pair at a time
        fd = kk.entrywise_kernel(name, lambda x, y: K(x, y).real)
        x, y = np.array([0.3, -0.2]), np.array([0.1, 0.5])
        rel = np.abs(K.grad1(x, y) - fd.grad1(x, y)) / (np.abs(K.grad1(x, y)) + 1e-30)
        assert np.max(rel) <= 1e-6


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=7, unique=True))
def test_builtin_kernels_hermitian_and_psd(xs):
    pts = np.array(xs)[:, None]
    for name, params in (("gaussian_rbf", {}), ("ou", {"mass": 1.0}),
                         ("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]})):
        K = kk.builtin_kernel(name, params)
        model = kk.gram(K, pts)
        asym = np.max(np.abs(model.gram - model.gram.conj().T))
        assert asym <= 1e-12
        assert model.min_ratio >= -1e-10


def test_reproducing_property_across_builtins():
    # embedded sections reproduce the Gram entries on 20-point random samples
    rng = np.random.default_rng(77)
    pts = rng.uniform(-1.0, 1.0, size=(20, 1))
    for name, params in (("fock", {}), ("gaussian_rbf", {}),
                         ("ou", {"mass": 1.0}),
                         ("laplace", {"atoms": [[-1.0], [1.0]],
                                      "weights": [0.5, 0.5]}),
                         ("laplace_gaussian", {})):
        model = kk.gram(kk.builtin_kernel(name, params), pts)
        worst = 0.0
        for i in range(20):
            vi = kk.embed_index(model, i)
            for j in range(20):
                vj = kk.embed_index(model, j)
                worst = max(worst, abs(np.vdot(vi, vj) - model.gram[i, j]))
        assert worst <= 1e-10 * max(1.0, float(np.abs(model.gram).max())), name


def _scalar_semigroup_pipeline(phi, elements):
    """Right translations of the positive definite function ``phi`` on the
    multiplicative semigroup of reals, with the identity as involution: the
    GNS construction of ``luscher_mack_pipeline`` on 1 x 1 matrices."""
    action = op.builtin_action("matrix_right_multiplication", {"n": 1})
    return rp.luscher_mack_pipeline([np.array([[s]]) for s in elements],
                                    lambda u: phi(u[..., 0, 0]), action)


def test_gns_rank_one_scalar_action():
    # S = ((0, 1], *), star = id, phi(s) = s: sections span one dimension and
    # right translation by s acts as the scalar s
    table, report = _scalar_semigroup_pipeline(lambda u: u, (0.3, 0.5, 0.8))
    assert table.model.rank == 1
    for k, s in enumerate((0.3, 0.5, 0.8)):
        assert report.translation_matrices[k][0, 0] == pytest.approx(s, abs=1e-12)
    assert report.max_star_defect <= 1e-12


def test_gns_trivial_character():
    table, report = _scalar_semigroup_pipeline(np.ones_like, (0.4, 0.6))
    assert table.model.rank == 1
    for P in report.translation_matrices.values():
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gns_hardy_kernel():
    # phi(s) = 1/(1-s) on (-1, 1) gives the geometric kernel 1/(1 - s t)
    table, report = _scalar_semigroup_pipeline(lambda u: 1.0 / (1.0 - u),
                                               np.linspace(-0.85, 0.85, 8))
    assert table.model.min_ratio >= -1e-10
    assert report.max_star_defect <= 1e-9


# every catalog kernel with parameters, the dimension of its points, and a
# shift that puts points in its domain
BATCH_CASES = {
    "fock": ({}, 2, 0.0),
    "gaussian_rbf": ({"sigma": 1.3}, 2, 0.0),
    "ou": ({"mass": 1.5}, 2, 0.0),
    "ou_mixture": ({"masses": [1.0, 2.0], "weights": [0.5, 0.5]}, 2, 0.0),
    "laplace": ({"atoms": [[-1.0, 0.5], [1.0, 2.0], [0.0, -3.0]],
                 "weights": [0.5, 0.2, 0.3]}, 2, 0.0),
    "laplace_gaussian": ({"scale": 0.7}, 3, 0.0),
    "circle_laplace": ({"mass": 2.0, "n_atoms": 32}, 2, 0.0),
    "halfplane_bessel": ({"mass": 1.0}, 2, np.array([1.0, 0.0])),
    "det": ({"n": 2, "power": 2.0}, 4, 0.0),
}


def _laplace_value(atoms, weights):
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)
    return lambda x, y: np.sum(weights * np.exp(-(atoms @ (x + y)) / 2.0))


def _laplace_grad(atoms, weights):
    atoms, weights = np.asarray(atoms, dtype=float), np.asarray(weights, dtype=float)

    def grad(x, y):
        e = weights * np.exp(-(atoms @ (x + y)) / 2.0)
        return -(atoms * e[:, None]).sum(axis=0) / 2.0

    return grad


def _circle_atoms(mass, n_atoms):
    ang = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
    return mass * np.stack([np.cos(ang), np.sin(ang)], axis=1), np.full(n_atoms, 1.0 / n_atoms)


def _halfplane_value(x, y):
    from scipy.special import k0
    return 2.0 * k0(np.hypot(x[0] + y[0], x[1] - y[1]))


def _halfplane_grad(x, y):
    from scipy.special import k1
    a, b = x[0] + y[0], x[1] - y[1]
    r = np.hypot(a, b)
    return -2.0 * k1(r) / r * np.array([a, b])


def _det_value(x, y):
    return np.linalg.det(np.eye(2) - x.reshape(2, 2) @ y.reshape(2, 2).T) ** -2.0


# the per-pair formula of each BATCH_CASES kernel at its parameters (mass 1
# for halfplane_bessel): the value, and the first-slot gradient where the
# kernel has an analytic one
REFERENCE = {
    "fock": (lambda x, y: np.exp(x @ y), lambda x, y: y * np.exp(x @ y)),
    "gaussian_rbf": (lambda x, y: np.exp(-((x - y) @ (x - y)) / (2.0 * 1.3 ** 2)),
                     lambda x, y: -(x - y) / 1.3 ** 2
                     * np.exp(-((x - y) @ (x - y)) / (2.0 * 1.3 ** 2))),
    "ou": (lambda x, y: np.exp(-1.5 * np.linalg.norm(x - y)),
           lambda x, y: -1.5 * (x - y) / np.linalg.norm(x - y)
           * np.exp(-1.5 * np.linalg.norm(x - y))),
    "ou_mixture": (lambda x, y: 0.5 * np.exp(-np.linalg.norm(x - y))
                   + 0.5 * np.exp(-2.0 * np.linalg.norm(x - y)), None),
    "laplace": (_laplace_value(**BATCH_CASES["laplace"][0]),
                _laplace_grad(**BATCH_CASES["laplace"][0])),
    "laplace_gaussian": (lambda x, y: np.exp(0.7 ** 2 * ((x + y) @ (x + y)) / 8.0),
                         lambda x, y: 0.7 ** 2 * (x + y) / 4.0
                         * np.exp(0.7 ** 2 * ((x + y) @ (x + y)) / 8.0)),
    "circle_laplace": (_laplace_value(*_circle_atoms(2.0, 32)),
                       _laplace_grad(*_circle_atoms(2.0, 32))),
    "halfplane_bessel": (_halfplane_value, _halfplane_grad),
    "det": (_det_value, None),
}


def _pairwise(fn, X, Y):
    return np.array([[fn(x, y) for y in Y] for x in X])


def _central_differences(matrix, X, Y, h=kk.DEFAULT_FD_STEP):
    """First-slot gradient of an array form by central differences."""
    return np.stack([(matrix(X + e, Y) - matrix(X - e, Y)) / (2.0 * h)
                     for e in h * np.eye(X.shape[1])], axis=-1)


def _assert_close(batch, reference, rtol=1e-12):
    # relative per entry; the absolute floor only matters where a gradient
    # component cancels to nearly zero
    assert batch.dtype == np.float64
    assert batch.shape == reference.shape
    np.testing.assert_allclose(batch, reference, rtol=rtol,
                               atol=rtol * np.abs(reference).max())


def test_batch_cases_cover_the_catalog():
    assert set(BATCH_CASES) == set(REFERENCE) == set(KERNEL_CATALOG)


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_forms_match_scalar_entries(name):
    params, d, shift = BATCH_CASES[name]
    value, grad = REFERENCE[name]
    K = kk.builtin_kernel(name, params)
    rng = np.random.default_rng(sorted(BATCH_CASES).index(name))
    X = rng.uniform(-0.45, 0.45, size=(7, d)) + shift
    Y = rng.uniform(-0.45, 0.45, size=(5, d)) + shift
    values = _pairwise(value, X, Y)
    _assert_close(K.matrix(X, Y), values)
    G = K.grad1_matrix(X, Y)
    assert G.shape == (7, 5, d)
    if grad is not None:
        _assert_close(G, _pairwise(grad, X, Y))
    _assert_close(G, _central_differences(K.matrix, X, Y), rtol=1e-6)
    # the calls at one pair, the 1 x 1 cases of the array forms
    assert K(X[0], Y[0]) == pytest.approx(values[0, 0], rel=1e-12, abs=0.0)
    np.testing.assert_allclose(K.grad1(X[0], Y[0]), G[0, 0], rtol=1e-9,
                               atol=1e-9 * np.abs(G).max())


@pytest.mark.parametrize("name, x, y, which", [
    ("halfplane_bessel", [-0.5, 0.0], [0.2, 0.1], "value"),
    ("halfplane_bessel", [-0.5, 0.0], [0.2, 0.1], "grad"),
    ("ou", [0.3, -0.2], [0.3, -0.2], "grad"),
    ("det", 1.2 * np.eye(2).ravel(), np.zeros(4), "value"),
    ("det", np.zeros(4), 1.2 * np.eye(2).ravel(), "grad"),
])
def test_batch_forms_raise_where_scalar_does(name, x, y, which):
    K = kk.builtin_kernel(name, BATCH_CASES[name][0])
    good = np.full((1, len(x)), 0.1) + BATCH_CASES[name][2]
    X, Y = np.vstack([good, [x]]), np.vstack([[y], good])
    scalar, batch = (K, K.matrix) if which == "value" else (K.grad1, K.grad1_matrix)
    with pytest.raises(KernelDomainError):
        scalar(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    with pytest.raises(KernelDomainError):
        batch(X, Y)


def test_user_kernel_takes_the_loop_fallback():
    calls = []

    def ev(x, y):
        calls.append(1)
        return float(np.exp(-abs(x[0] - y[0])) + x[1] * y[1])

    K = kk.entrywise_kernel("user", ev)
    X = np.array([[0.1, 0.2], [0.5, -0.3], [0.9, 0.4]])
    Y = np.array([[0.2, 0.0], [0.7, 1.0]])
    values = _pairwise(ev, X, Y)
    calls.clear()
    M = K.matrix(X, Y)
    assert len(calls) == 6
    assert M.dtype == np.float64 and np.array_equal(M, values)
    # central differences of the user's function, pair by pair, bit for bit
    h = kk.DEFAULT_FD_STEP
    grads = np.stack([(_pairwise(ev, X + e, Y) - _pairwise(ev, X - e, Y)) / (2.0 * h)
                      for e in h * np.eye(2)], axis=-1)
    assert np.array_equal(K.grad1_matrix(X, Y), grads)
    with_grad = kk.entrywise_kernel("user", ev, lambda x, y: np.array([0.0, y[1]]))
    assert np.array_equal(with_grad.grad1_matrix(X, Y)[..., 1],
                          np.broadcast_to(Y[:, 1], (3, 2)))
    complex_valued = kk.entrywise_kernel("phase", lambda x, y: np.exp(1j * (x[0] - y[0])))
    assert complex_valued.matrix(X, Y).dtype == np.complex128
    assert kk.gram(complex_valued, X).gram.dtype == np.complex128


def test_kernel_rejects_array_forms_of_the_wrong_shape():
    # a function of one pair of points, given where the array form belongs:
    # on two rows each it broadcasts and returns one number
    K = kk.Kernel("pairwise", lambda x, y: np.exp(-np.sum((x - y) ** 2)))
    X, Y = np.array([[0.1], [0.4]]), np.array([[0.2], [0.3]])
    for call in (K.matrix, K.grad1_matrix, K, K.grad1):
        with pytest.raises(ValueError, match="shape"):
            call(X, Y)
    # and a gradient of one pair, where its array form belongs
    G = kk.Kernel("pairwise", lambda X, Y: np.exp(-(X - Y.T) ** 2),
                  lambda x, y: -2.0 * (x - y) * np.exp(-np.sum((x - y) ** 2)))
    with pytest.raises(ValueError, match="shape"):
        G.grad1_matrix(X, Y)


def test_gram_of_real_kernel_is_float64_and_flags_duplicates(fock):
    pts = np.array([[0.3, 0.0], [0.1, 0.7], [-0.2, 0.4], [0.1, 0.7], [0.0, -0.0]])
    model = kk.gram(fock, pts)
    assert model.gram.dtype == np.float64
    assert model.whitening.dtype == np.float64
    assert model.duplicate_points
    assert not kk.gram(fock, pts[:3]).duplicate_points
    # -0.0 equals 0.0, as for np.array_equal
    assert kk.gram(fock, [[0.0, 0.0], [1.0, 1.0], [-0.0, 0.0]]).duplicate_points
    assert not kk.gram(fock, [[0.0, 1.0], [1.0, 0.0]]).duplicate_points


def test_halfplane_array_forms_equal_the_plain_expressions_bit_for_bit():
    # the in-place forms reorder no operation of 2 K0(m r) and
    # -2 m K1(m r) / r (a, b)
    k0, k1 = (lambda x: kk.bessel_k(0, x)), (lambda x: kk.bessel_k(1, x))
    m = 1.3
    K = kk.builtin_kernel("halfplane_bessel", {"mass": m})
    rng = np.random.default_rng(0)
    X = rng.uniform([0.2, -1.0], [2.2, 1.0], size=(9, 2))
    Y = rng.uniform([0.2, -1.0], [2.2, 1.0], size=(7, 2))
    a = X[:, None, 0] + Y[None, :, 0]
    b = X[:, None, 1] - Y[None, :, 1]
    r = np.hypot(a, b)
    d = -2.0 * m * k1(m * r) / r
    assert np.array_equal(K.matrix(X, Y), 2.0 * k0(m * r))
    assert np.array_equal(K.grad1_matrix(X, Y), np.stack([d * a, d * b], axis=-1))


@pytest.mark.parametrize("n", [0, 1])
def test_bessel_k_matches_scipy(n):
    # scipy's Cephes k0 is itself up to 9 ulp (np.spacing) off the correctly
    # rounded value on these points, so the two are compared in units of
    # 2^-52 |scipy| rather than in np.spacing ulps
    from scipy import special
    x = np.geomspace(1e-6, 700.0, 10_000)
    ours, theirs = kk.bessel_k(n, x), (special.k0, special.k1)[n](x)
    assert np.all(np.abs(ours - theirs) <= 8 * 2.0 ** -52 * np.abs(theirs))


@pytest.mark.parametrize("n", [0, 1])
def test_bessel_k_is_within_4_ulp_of_the_30_digit_value(n):
    import mpmath as mp
    x = np.geomspace(1e-6, 700.0, 250)
    with mp.workdps(30):
        exact = np.array([float(mp.besselk(n, mp.mpf(v))) for v in x])
    ours = kk.bessel_k(n, x)
    assert np.all(np.abs(ours - exact) <= 4 * np.spacing(exact))


def test_bessel_k_in_place_and_at_the_edges():
    x = np.array([[0.5, 1.0, 1.5], [2.0, 4.0, 9.0]])
    for n in (0, 1):
        y = x.copy()
        assert kk.bessel_k(n, y, out=y) is y and np.array_equal(y, kk.bessel_k(n, x))
        # x = inf is 0; a NaN stays NaN
        assert np.array_equal(kk.bessel_k(n, [np.inf, np.nan]), [0.0, np.nan], equal_nan=True)


def test_laplace_factor_equals_the_plain_expression_bit_for_bit():
    # scaling the atoms by -1/2 before the product is exact, so the factored
    # form keeps the numbers of exp(-(X a^T) / 2)
    rng = np.random.default_rng(3)
    atoms, weights = rng.normal(size=(40, 2)) * 5.0, rng.uniform(0.1, 1.0, size=40)
    K = kk.laplace_kernel_from_measure(kk.MeasureSample(atoms, weights))
    X, Y = rng.normal(size=(9, 2)), rng.normal(size=(7, 2))
    FX, FY = np.exp(-(X @ atoms.T) / 2.0), np.exp(-(Y @ atoms.T) / 2.0)
    assert np.array_equal(K.matrix(X, Y), (FX * weights) @ FY.T)
    assert np.array_equal(K.grad1_matrix(X, Y),
                          np.stack([(FX * weights * (-a / 2.0)) @ FY.T for a in atoms.T],
                                   axis=-1))

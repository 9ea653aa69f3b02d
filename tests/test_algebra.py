import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerflow import algebra as la


@pytest.fixture
def iso2():
    return la.euclidean_motion(2, 1, 1)


def test_bracket_of_basis_with_itself_vanishes(iso2):
    r = iso2.basis_element(iso2.index_of("r"))
    assert np.allclose(la.algebra_bracket(r, r).coeffs, 0.0)


def test_iso2_defining_relations(iso2):
    r = iso2.basis_element(iso2.index_of("r"))
    t1 = iso2.basis_element(iso2.index_of("t1"))
    t2 = iso2.basis_element(iso2.index_of("t2"))
    e_t1 = np.eye(3)[iso2.index_of("t1")]
    e_t2 = np.eye(3)[iso2.index_of("t2")]
    assert np.allclose(la.algebra_bracket(r, t1).coeffs.real, e_t2)
    assert np.allclose(la.algebra_bracket(r, t2).coeffs.real, -e_t1)
    assert np.allclose(la.algebra_bracket(t1, t2).coeffs, 0.0)


def test_bracket_bilinearity(iso2):
    r = iso2.basis_element(iso2.index_of("r"))
    t1 = iso2.basis_element(iso2.index_of("t1"))
    lhs = la.algebra_bracket(iso2.element(2.0 * r.coeffs), iso2.element(3.0 * t1.coeffs))
    assert np.allclose(lhs.coeffs, 6.0 * la.algebra_bracket(r, t1).coeffs)


def test_validate_iso2_passes(iso2):
    report = la.validate_symmetric_pair(iso2)
    assert report.passed
    assert report.max_defect <= 1e-12


def test_validate_catches_antisymmetry_violation():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0   # missing the compensating c[1, 0, 0] = -1
    alg = la.SymmetricLieAlgebra(c, -np.eye(2), ("a", "b"))
    report = la.validate_symmetric_pair(alg)
    assert not report.passed
    assert report.antisymmetry_defect > 0.5


def test_validate_abelian_with_full_flip():
    alg = la.abelian(3)
    report = la.validate_symmetric_pair(alg)
    assert report.passed
    assert alg.h_indices == ()
    assert len(alg.q_indices) == 3


def test_mixed_basis_rejected():
    T = np.array([[0.0, 1.0], [1.0, 0.0]])   # involution not diagonal
    with pytest.raises(ValueError):
        la.SymmetricLieAlgebra(np.zeros((2, 2, 2)), T, ("a", "b"))


def test_dual_of_iso2_flips_only_qq_brackets(iso2):
    dual = la.c_dual(iso2)
    t1, r, t2 = (iso2.index_of("t1"), iso2.index_of("r"), iso2.index_of("t2"))
    # q x q brackets flip sign ([t1, r] has both factors in the flipped part)
    assert np.allclose(dual.structure[t1, r], -iso2.structure[t1, r])
    # h x q brackets keep their coefficients
    assert np.allclose(dual.structure[t2, r], iso2.structure[t2, r])
    assert la.validate_symmetric_pair(dual).passed


def test_dual_is_involutive(iso2):
    dd = la.c_dual(la.c_dual(iso2))
    assert np.max(np.abs(dd.structure - iso2.structure)) <= 1e-15
    assert dd.labels == iso2.labels


def test_dual_of_abelian_is_abelian():
    dual = la.c_dual(la.abelian(2))
    assert np.allclose(dual.structure, 0.0)


def test_exp_ad_at_zero_is_identity(iso2):
    r = iso2.basis_element(iso2.index_of("r"))
    assert np.allclose(la.exp_ad(r, 0.0), np.eye(3))


def test_exp_ad_rotates_translations(iso2):
    # ad(r) acts as the plane rotation generator on span{t1, t2}
    r = iso2.basis_element(iso2.index_of("r"))
    E = la.exp_ad(r, np.pi / 2)
    e_t1 = np.eye(3)[iso2.index_of("t1")]
    e_t2 = np.eye(3)[iso2.index_of("t2")]
    assert np.linalg.norm(E @ e_t1 - e_t2) <= 1e-12


def test_exp_ad_nilpotent_series_terminates():
    # Heisenberg-type relations: [a, b] = z central, so (ad a)^2 kills b
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    alg = la.SymmetricLieAlgebra(c, np.diag([1.0, -1.0, -1.0]), ("a", "b", "z"))
    a = alg.basis_element(0)
    ad = alg.ad_matrix(a.coeffs).real
    series = np.eye(3) + ad + 0.5 * ad @ ad
    assert np.max(np.abs(la.exp_ad(a, 1.0) - series)) <= 1e-14


@settings(max_examples=20, deadline=None)
@given(t=st.floats(-1.0, 1.0))
def test_exp_ad_is_automorphism(t):
    alg = la.euclidean_motion(2, 1, 1)
    E = la.exp_ad(alg.basis_element(alg.index_of("r")), t)
    a = alg.element([0.3, -0.5, 0.7])
    b = alg.element([1.1, 0.2, -0.4])
    lhs = E @ la.algebra_bracket(a, b).coeffs
    rhs = la.algebra_bracket(alg.element(E @ a.coeffs),
                             alg.element(E @ b.coeffs)).coeffs
    assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_exp_ad_one_parameter_law(iso2):
    r = iso2.basis_element(iso2.index_of("r"))
    lhs = la.exp_ad(r, 0.4) @ la.exp_ad(r, 0.3)
    assert np.max(np.abs(lhs - la.exp_ad(r, 0.7))) <= 1e-12


def test_ad_is_a_representation(iso2):
    for i in range(3):
        for j in range(3):
            a, b = iso2.basis_element(i), iso2.basis_element(j)
            lhs = iso2.ad_matrix(la.algebra_bracket(a, b).coeffs)
            Ai = iso2.ad_matrix(a.coeffs)
            Aj = iso2.ad_matrix(b.coeffs)
            assert np.max(np.abs(lhs - (Ai @ Aj - Aj @ Ai))) <= 1e-12


def _expm_inputs():
    """The kinds of matrix kerflow exponentiates: compressed skew operators
    (real, and i times symmetric), homogeneous affine generators, ad matrices
    and zero.  A 40 x 40 normal skew matrix has a one-norm near 54, so it
    also takes the squaring steps."""
    rng = np.random.default_rng(7)
    cases = {}
    for n in (2, 5, 13, 40):
        m = rng.normal(size=(n, n))
        cases[f"skew{n}"] = m - m.T
        cases[f"i_sym{n}"] = 1j * (m + m.T)
    cases["affine"] = np.array([[0.3, -1.2, 0.5], [1.2, 0.3, -0.7], [0.0, 0.0, 0.0]])
    for alg in (la.euclidean_motion(3, 1, 2), la.matrix_involutive(3)):
        cases[f"ad_{alg.name}"] = alg.ad_matrix(rng.normal(size=alg.dim))
    cases["zero"] = np.zeros((4, 4))
    return cases


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(_expm_inputs()))
def test_expm_matches_scipy(name):
    from scipy.linalg import expm
    a = _expm_inputs()[name]
    assert _relative(la.expm(a), expm(a)) <= 1e-13


@pytest.mark.parametrize("skew", [True, False])
def test_expm_at_norm_50_matches_the_40_digit_exponential(skew):
    # scipy.linalg.expm is itself up to 7.5e-13 off the 40-digit value on such
    # matrices, so the oracle here is mpmath
    import mpmath as mp
    m = np.random.default_rng(1).normal(size=(6, 6))
    a = m - m.T if skew else m
    a = 50.0 * a / np.linalg.norm(a, 1)
    with mp.workdps(40):
        exact = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
    assert _relative(la.expm(a), exact) <= 1e-14


def test_builtin_dimensions():
    assert la.euclidean_motion(2, 1, 1).dim == 3
    assert len(la.euclidean_motion(2, 1, 1).h_indices) == 1
    ab = la.abelian(1)
    assert ab.h_indices == () and len(ab.q_indices) == 1
    mi = la.matrix_involutive(2)
    assert mi.dim == 4
    assert len(mi.h_indices) == 1      # so(2)
    assert len(mi.q_indices) == 3      # symmetric 2x2


def test_every_builtin_validates():
    for alg in (la.euclidean_motion(2, 1, 1), la.euclidean_motion(2, 2, 0),
                la.euclidean_motion(3, 1, 2), la.abelian(2),
                la.matrix_involutive(2), la.matrix_involutive(3)):
        assert la.validate_symmetric_pair(alg).passed
        dd = la.c_dual(la.c_dual(alg))
        assert np.max(np.abs(dd.structure - alg.structure)) <= 1e-15


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        la.builtin_algebra("nope")


def test_algebra_from_config_roundtrip(iso2):
    spec = {"structure_constants": iso2.structure.tolist(),
            "involution": np.diag(iso2.involution).tolist(),
            "labels": list(iso2.labels)}
    alg = la.algebra_from_config(spec)
    assert np.allclose(alg.structure, iso2.structure)
    assert alg.h_indices == iso2.h_indices
    named = la.algebra_from_config({"name": "abelian", "params": {"d": 2}})
    assert named.dim == 2

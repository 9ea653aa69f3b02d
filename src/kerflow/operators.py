"""Lie-derivative bilinear forms on kernel spans and their finite-rank
compressions, with symmetry classification, spectral calculus, and the
semigroup-transport consistency check.

The derivative operator is always handled through its bilinear form
B[i, j] = (d/ds) K(m_i + s X(m_i), m_j): column j samples the derivative of the
kernel section at m_j against the section basis.  The whitened compression
W B W^* absorbs the Gram's ill-conditioning through the rank cutoff; the
operator is never obtained by solving against the Gram directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraElement, SymmetricLieAlgebra, algebra_bracket, expm
from .config import ACTION_PARAMS, DEFAULT_STEP, builtin_params
from .errors import ClassificationError, FlowDomainError
from .flows import VectorField, integrate_batch, integrate_curve, lie_bracket
from .kernels import GramModel, Kernel, embed_point, projection_residual

# the one tolerance of every symmetry test in the package
DEFAULT_SYMMETRY_TOL = 1e-8

SYMMETRIC = 1
SKEW = -1


@dataclass(frozen=True)
class CompatibleAction:
    """Lie algebra action by vector fields, linear over the basis fields.

    ``sigma`` optionally supplies closed-form flows (t, points) -> points,
    on stacks (n, d) as fields and charts take them, for basis elements
    whose one-parameter groups are known exactly.
    """

    algebra: SymmetricLieAlgebra
    basis_fields: tuple
    sigma: Optional[dict] = None
    name: str = ""

    def __post_init__(self):
        if len(self.basis_fields) != self.algebra.dim:
            raise ValueError("need one vector field per basis element")
        object.__setattr__(self, "basis_fields", tuple(self.basis_fields))

    @property
    def dimension(self) -> int:
        """Coordinates of a point of the chart the fields live on."""
        return self.basis_fields[0].chart.dimension

    def field(self, element) -> VectorField:
        """Real-linear combination of the basis fields."""
        if isinstance(element, AlgebraElement):
            coeffs = element.coeffs
        else:
            coeffs = np.asarray(element, dtype=complex)
        if np.max(np.abs(coeffs.imag)) > 1e-12:
            raise ValueError("vector fields combine real-linearly; "
                             "handle complex coefficients at the operator level")
        w = coeffs.real
        chart = self.basis_fields[0].chart
        fields = self.basis_fields

        def value(p):
            return sum(w[k] * fields[k](p) for k in range(len(fields)))

        def jac(p):
            return sum(w[k] * fields[k].jac(p) for k in range(len(fields)))

        return VectorField(chart, value, jac, name="beta-combination")

    def homomorphism_defect(self, points) -> Optional[float]:
        """Max defect of [beta(e_i), beta(e_j)] = beta([e_i, e_j]) at points;
        None on a one-element algebra, which has no pair i < j to compare."""
        alg = self.algebra
        if alg.dim < 2:
            return None
        pts = np.asarray(points, dtype=float)
        worst = 0.0
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                br_field = lie_bracket(self.basis_fields[i], self.basis_fields[j])
                target = self.field(algebra_bracket(alg.basis_element(i),
                                                    alg.basis_element(j)))
                gaps = np.linalg.norm(br_field.rows(pts) - target.rows(pts), axis=-1)
                worst = max(worst, float(np.max(gaps, initial=0.0)))
        return worst


def lie_derivative_form(kernel: Kernel, field: VectorField, points,
                        grad: Optional[np.ndarray] = None) -> np.ndarray:
    """B[i, j] = grad1 K(m_i, m_j) . X(m_i), the form of the derivative along X;
    float64 unless the kernel returns complex values.

    ``grad`` passes in ``kernel.grad1_matrix(points, points)``, which every
    form on one sample set contracts, so that a basis loop evaluates it once;
    without it the form evaluates the gradient itself."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = field.rows(pts)
    if grad is None:
        grad = kernel.grad1_matrix(pts, pts)
    return np.einsum("ijk,ik->ij", grad, values)


def symmetry_defects(B: np.ndarray):
    """Frobenius defects (||B - B*||, ||B + B*||, ||B||)."""
    sym = float(np.linalg.norm(B - B.conj().T))
    skew = float(np.linalg.norm(B + B.conj().T))
    return sym, skew, float(np.linalg.norm(B))


def symmetry_classify(B: np.ndarray) -> Optional[int]:
    """+1 if B = B*, -1 if B = -B*, None if neither holds within tolerance."""
    sym, skew, norm = symmetry_defects(B)
    threshold = DEFAULT_SYMMETRY_TOL * norm
    ok_sym = sym <= threshold
    ok_skew = skew <= threshold
    if ok_sym and ok_skew:
        return SYMMETRIC if sym <= skew else SKEW
    if ok_sym:
        return SYMMETRIC
    if ok_skew:
        return SKEW
    return None


@dataclass(frozen=True)
class CompatibilityReport:
    defects: dict          # basis label -> max pointwise defect

    @property
    def max_defect(self) -> float:
        return max(self.defects.values()) if self.defects else 0.0


def compatibility_check(kernel: Kernel, action: CompatibleAction,
                        points) -> CompatibilityReport:
    """Check the invariance identity: the first-slot derivative along beta(x)
    equals minus the second-slot derivative along beta(tau x).

    With a hermitian kernel the second-slot derivative is the conjugate
    transpose of a first-slot form, so on the involution eigenbasis the
    identity reduces to: fixed-part fields have skew forms, flipped-part
    fields have symmetric forms.
    """
    alg = action.algebra
    grad = kernel.grad1_matrix(points, points)
    defects = {}
    for label, sign, field in zip(alg.labels, alg.involution_signs,
                                  action.basis_fields):
        B = lie_derivative_form(kernel, field, points, grad)
        # L2_{beta(tau x)} K sampled on pairs is sign * conj(B).T
        defects[label] = float(np.max(np.abs(B + sign * B.conj().T)))
    return CompatibilityReport(defects)


@dataclass(frozen=True)
class FlowInvarianceReport:
    drifts: dict            # pair index -> max |K(t) - K(0)|
    reached: dict           # pair index -> largest t both curves reached

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values()) if self.drifts else 0.0


def flow_invariance_check(kernel: Kernel, field: VectorField, epsilon: int,
                          pairs: Sequence, t_max: float,
                          step: float = DEFAULT_STEP) -> FlowInvarianceReport:
    """Drift of K along the flow: K(Phi_t m, Phi_t n) for skew fields,
    K(Phi_t m, Phi_-t n) for symmetric ones.  Domain exits shorten the
    reported range instead of failing; a pair whose curves reach no time
    beyond 0 compares nothing and reports 0 reached."""
    drifts, reached = {}, {}
    t_ends = [t_max, -t_max if epsilon == SYMMETRIC else t_max]
    for idx, (m, n) in enumerate(pairs):
        m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
        # both curves as one batch; the path stops where either curve does
        path = []
        integrate_batch(field, [m, n], t_ends, step, path)
        base = kernel(m, n)
        drifts[idx] = max(abs(kernel(pm, pn) - base) for _, (pm, pn) in path)
        reached[idx] = float(path[-1][0][0])
    return FlowInvarianceReport(drifts, reached)


@dataclass(frozen=True)
class OperatorCompression:
    """Whitened compression of a derivative form, tagged with its symmetry.

    ``compressed`` is exactly hermitian (epsilon = +1) or skew-hermitian
    (epsilon = -1) after symmetrization; the pre-symmetrization defect is
    recorded.  It is real when the form and the whitening are.  This is a
    compression of the operator to the sample span, not a restriction: its
    fidelity is controlled only by sample refinement.
    """

    compressed: np.ndarray
    epsilon: int
    symmetrization_defect: float

    @property
    def rank(self) -> int:
        return self.compressed.shape[0]


def compress_operator(B: np.ndarray, model: GramModel, epsilon: int,
                      label: str = "") -> OperatorCompression:
    """A_tilde = W B W^*, then symmetrize according to the declared class.

    Classification must precede symmetrization (it has to see the raw defect);
    an inconsistent declaration raises, naming ``label``, rather than silently
    averaging it away.
    """
    A = model.compress(B)
    norm = float(np.linalg.norm(A))
    defect = float(np.linalg.norm(A - epsilon * A.conj().T))
    # the rounding of W B W* is of order eps ||W||^2 ||B||; an A no larger is
    # zero to working precision, and its relative defect compares noise with
    # noise.  The scale moves with B, so an asymmetric form of any size raises
    floor = np.finfo(float).eps * float(np.sum(np.abs(model.whitening) ** 2)) \
        * float(np.linalg.norm(B))
    if norm > floor and defect > DEFAULT_SYMMETRY_TOL * norm:
        raise ClassificationError(
            f"operator {label or '?'}: symmetry defect {defect:.3e} exceeds "
            f"{DEFAULT_SYMMETRY_TOL:.0e} * {norm:.3e} for epsilon={epsilon:+d}")
    A = 0.5 * (A + epsilon * A.conj().T)
    return OperatorCompression(A, epsilon, defect)


def semigroup_matrix(op: OperatorCompression, t: float) -> np.ndarray:
    """exp(t A) by spectral calculus; requires a symmetric (hermitian) operator."""
    if op.epsilon != SYMMETRIC:
        raise ClassificationError("semigroup mode needs a symmetric operator")
    vals, vecs = np.linalg.eigh(op.compressed)
    return (vecs * np.exp(t * vals)) @ vecs.conj().T


@dataclass(frozen=True)
class SemigroupTransportResult:
    relative_error: float
    projection_residual: float
    endpoint: np.ndarray


def froelich_check(kernel: Kernel, field: VectorField, model: GramModel,
                   m: int, t: float, step: float = DEFAULT_STEP) -> SemigroupTransportResult:
    """Semigroup-transport consistency: exp(tA) applied to the section at
    sample m should match the embedded section at the flow endpoint.

    Returns the relative error in the whitened norm together with the
    projection residual of the target section, so compression error can be
    separated from semigroup error.
    """
    B = lie_derivative_form(kernel, field, model.points)
    if symmetry_classify(B) != SYMMETRIC:
        raise ClassificationError("semigroup transport needs a symmetric field")
    op = compress_operator(B, model, SYMMETRIC, label="transport")

    curve = integrate_curve(field, model.points[m], t, step)
    if curve.terminated_early:
        raise FlowDomainError(f"flow exited the chart: {curve.exit_reason}")
    endpoint = curve.endpoint

    # embed both sides through the same g-vector path so the time-zero case
    # is exact and whitening noise cancels consistently
    lhs = semigroup_matrix(op, t) @ (model.whitening @ model.gram[:, m])
    target = embed_point(model, endpoint)
    denom = float(np.linalg.norm(target))
    err = float(np.linalg.norm(lhs - target)) / denom if denom > 0 else np.inf
    resid = projection_residual(model, endpoint)
    return SemigroupTransportResult(err, resid, endpoint)


# ---------------------------------------------------------------------------
# builtin actions


def builtin_action(name: str, params: Optional[dict] = None) -> CompatibleAction:
    """Catalog of named kernel-compatible actions for configs and tests; the
    params each reads, their defaults and bounds, are ``config.ACTION_PARAMS``."""
    from . import algebra as la
    from . import flows as fl

    params = builtin_params(ACTION_PARAMS, name, params)
    if name == "translation":
        d = int(params["dimension"])
        alg = la.abelian(d)
        chart = fl.full_space(d)
        fields = tuple(fl.constant_field(np.eye(d)[i], chart) for i in range(d))
        # q-directions have no closed-form group action in the fixed subgroup
        return CompatibleAction(alg, fields, sigma=None, name=f"translation({d})")
    if name == "euclidean":
        p, q, domain = int(params["p"]), int(params["q"]), params["domain"]
        alg = la.euclidean_motion(2, p, q)
        chart = fl.halfspace_chart(2) if domain == "halfplane" else fl.full_space(2)
        # right action m.g = g^{-1} m, so the basis fields carry a minus sign;
        # this is what makes beta a homomorphism rather than an anti-one
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        fields = []
        sigma = {}
        for k, lab in enumerate(alg.labels):
            if lab == "t1":
                fields.append(fl.constant_field([-1.0, 0.0], chart))
                sigma[k] = lambda t, pts: pts - np.array([t, 0.0])
            elif lab == "t2":
                fields.append(fl.constant_field([0.0, -1.0], chart))
                sigma[k] = lambda t, pts: pts - np.array([0.0, t])
            else:
                fields.append(fl.affine_field(rot, chart=chart))

                def rot_flow(t, pts):
                    # each row p goes to R p, R = [[c, s], [-s, c]]
                    c, s = np.cos(t), np.sin(t)
                    return pts @ np.array([[c, -s], [s, c]])

                sigma[k] = rot_flow
        return CompatibleAction(alg, tuple(fields), sigma=sigma,
                                name=f"euclidean(2,{p},{q})")
    if name == "matrix_right_multiplication":
        n = int(params["n"])
        radius = float(params["radius"])
        alg = la.matrix_involutive(n)
        chart = fl.ChartDomain(
            n * n,
            lambda g: np.linalg.norm(g.reshape(-1, n, n), 2, axis=(1, 2)) < radius)
        fields = []
        for m in alg.basis_matrices:
            def value(g, m=m):
                return (g.reshape(-1, n, n) @ m).reshape(g.shape)

            def jac(g, m=m):
                return np.kron(np.eye(n), m.T)

            fields.append(VectorField(chart, value, jac, name="right-mult"))
        sigma = {}
        for k in alg.h_indices:
            m = alg.basis_matrices[k]
            sigma[k] = (lambda t, g, m=m:
                        (g.reshape(-1, n, n) @ expm(t * m)).reshape(g.shape))
        return CompatibleAction(alg, tuple(fields), sigma=sigma,
                                name=f"matrix_right_multiplication({n})")

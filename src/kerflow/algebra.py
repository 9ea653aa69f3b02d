"""Finite-dimensional symmetric Lie algebras: structure constants, the h/q
eigenspace split of an involution, adjoint exponentials, and duality.

The basis is always chosen to diagonalize the involution (mixed bases are
rejected at construction), which makes the h/q index sets and the dual's sign
flips exact.  Structure constants are stored dense; every planned example has
dimension at most 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Optional, Sequence

import numpy as np

from .config import ALGEBRA_PARAMS, builtin_params

VALIDATION_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricLieAlgebra:
    """Lie algebra with involution, over a basis that diagonalizes it.

    ``structure[i, j, k]`` is the coefficient of e_k in [e_i, e_j].  The
    involution matrix must be diagonal with entries exactly +-1; indices with
    +1 form ``h_indices`` (fixed part), those with -1 the q part.
    """

    structure: np.ndarray
    involution: np.ndarray
    labels: tuple
    name: str = ""
    basis_matrices: Optional[tuple] = None   # faithful matrix basis, when one exists

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        T = np.asarray(self.involution, dtype=float)
        n = c.shape[0]
        if c.shape != (n, n, n):
            raise ValueError("structure constants must have shape (n, n, n)")
        if T.shape != (n, n):
            raise ValueError("involution must be n x n")
        if np.any(T != np.diag(np.diag(T))) or not np.all(np.isin(np.diag(T), (-1.0, 1.0))):
            raise ValueError("involution must be diagonal with entries +-1 "
                             "(choose a basis of involution eigenvectors)")
        if len(self.labels) != n:
            raise ValueError("need one label per basis element")
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "involution", T)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self) -> int:
        return self.structure.shape[0]

    @property
    def involution_signs(self) -> np.ndarray:
        return np.diag(self.involution)

    @property
    def h_indices(self) -> tuple:
        return tuple(int(i) for i in np.flatnonzero(self.involution_signs > 0))

    def basis_element(self, i: int) -> "AlgebraElement":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[i] = 1.0
        return AlgebraElement(self, coeffs)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def ad_matrix(self, coeffs) -> np.ndarray:
        """Matrix of ad(x) on the basis: ad[k, j] = sum_i x_i c[i, j, k]."""
        x = np.asarray(coeffs)
        return np.einsum("i,ijk->kj", x, self.structure)


@dataclass(frozen=True)
class AlgebraElement:
    """Coefficient vector over the parent basis; complex parts are only
    meaningful on q-indices (elements of the dual form h + iq)."""

    algebra: SymmetricLieAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.algebra.dim,):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "coeffs", c)


def algebra_bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants."""
    if b.algebra is not a.algebra:
        raise ValueError("elements belong to different algebras")
    coeffs = np.einsum("i,j,ijk->k", a.coeffs, b.coeffs, a.algebra.structure)
    return AlgebraElement(a.algebra, coeffs)


@dataclass(frozen=True)
class SymmetricPairReport:
    antisymmetry_defect: float
    jacobi_defect: float
    involution_defect: float
    split_defects: dict            # "hh->h", "qq->h", "hq->q"
    passed: bool

    @property
    def max_defect(self) -> float:
        return max(self.antisymmetry_defect, self.jacobi_defect,
                   self.involution_defect, *self.split_defects.values())


def validate_symmetric_pair(alg: SymmetricLieAlgebra) -> SymmetricPairReport:
    """Check antisymmetry, Jacobi, involution squaring, and the eigenspace
    bracket inclusions [h,h] in h, [q,q] in h, [h,q] in q."""
    c = alg.structure
    n = alg.dim
    anti = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))))) if n else 0.0

    ads = [alg.ad_matrix(np.eye(n)[i]) for i in range(n)]
    jac = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = alg.ad_matrix(c[i, j])
            rhs = ads[i] @ ads[j] - ads[j] @ ads[i]
            jac = max(jac, float(np.max(np.abs(lhs - rhs))))

    T = alg.involution
    inv = float(np.max(np.abs(T @ T - np.eye(n))))

    signs = alg.involution_signs
    split = {"hh->h": 0.0, "qq->h": 0.0, "hq->q": 0.0}
    for i in range(n):
        for j in range(n):
            # [e_i, e_j] must land in the tau-eigenspace of sign s_i * s_j
            target = signs[i] * signs[j]
            bad = np.flatnonzero(signs != target)
            leak = float(np.max(np.abs(c[i, j, bad]))) if bad.size else 0.0
            if signs[i] > 0 and signs[j] > 0:
                split["hh->h"] = max(split["hh->h"], leak)
            elif signs[i] < 0 and signs[j] < 0:
                split["qq->h"] = max(split["qq->h"], leak)
            else:
                split["hq->q"] = max(split["hq->q"], leak)

    passed = max(anti, jac, inv, *split.values()) <= VALIDATION_TOL
    return SymmetricPairReport(anti, jac, inv, split, passed)


def c_dual(alg: SymmetricLieAlgebra) -> SymmetricLieAlgebra:
    """The real form on basis {e_h} u {i e_q}.

    Only [q, q] brackets change sign; everything else, including the
    involution, is untouched, so applying the map twice restores the original
    structure constants exactly.
    """
    report = validate_symmetric_pair(alg)
    if not report.passed:
        raise ValueError(f"not a valid symmetric pair (max defect {report.max_defect:.3e})")
    signs = alg.involution_signs
    flip = np.ones((alg.dim, alg.dim))
    q = signs < 0
    flip[np.ix_(q, q)] = -1.0
    structure = alg.structure * flip[:, :, None]

    def toggle(label, is_q):
        if not is_q:
            return label
        return label[2:] if label.startswith("i*") else "i*" + label

    labels = tuple(toggle(lab, bool(q[i])) for i, lab in enumerate(alg.labels))
    return SymmetricLieAlgebra(structure, alg.involution.copy(), labels,
                               name=f"dual({alg.name})" if alg.name else "dual")


# Higham (2005): with ||A||_1 <= THETA_13 the [13/13] Pade approximant of e^A
# is exact to double precision; a larger A is scaled by 2^-s and squared s times
THETA_13 = 5.371920351148152
# coefficients of the [13/13] Pade numerator p(A) = sum b_k A^k, q(A) = p(-A)
_PADE_13 = tuple(factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k)
                                                     * factorial(13 - k)) for k in range(14))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, real or complex: the [13/13]
    Pade approximant by scaling and squaring (Higham 2005), in numpy alone.

    Every exponential kerflow takes comes here.  The one-norm fixes the
    number of squarings s; the approximant then costs six products and one
    solve, and the result s more products."""
    a = np.asarray(a)
    norm = np.linalg.norm(a, 1)
    s = int(np.ceil(np.log2(norm / THETA_13))) if norm > THETA_13 else 0
    a = a / 2.0 ** s
    b = _PADE_13
    ident = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def exp_ad(x: AlgebraElement, t: float) -> np.ndarray:
    """Matrix exponential of t ad(x), by ``expm``."""
    ad = x.algebra.ad_matrix(x.coeffs)
    if np.iscomplexobj(ad) and np.all(ad.imag == 0.0):
        ad = ad.real
    return expm(t * ad)


def _structure_from_matrices(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Structure constants from a pairwise Frobenius-orthogonal matrix basis."""
    n = len(mats)
    norms2 = np.array([np.sum(m * m) for m in mats])
    gram = np.array([[np.sum(a * b) for b in mats] for a in mats])
    if np.max(np.abs(gram - np.diag(norms2))) > 0:
        raise ValueError("matrix basis must be Frobenius-orthogonal")
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            c[i, j] = np.array([np.sum(comm * m) for m in mats]) / norms2
    return c


def euclidean_motion(d: int, p: int, q: int) -> SymmetricLieAlgebra:
    """R^d >| so(d), involution by conjugation with diag(-I_p, I_q).

    Basis: translations t1..td, then rotation generators r_ab (a < b) with
    r_ab e_a = e_b.  Translation t_a carries involution sign -1 for a <= p;
    r_ab carries the product of its two translation signs.
    """
    if p + q != d or p < 0 or q < 0 or d < 1:
        raise ValueError("need p + q = d with p, q >= 0")
    size = d + 1
    mats, labels, signs = [], [], []
    sgn = np.array([-1.0] * p + [1.0] * q)
    for a in range(d):
        m = np.zeros((size, size))
        m[a, d] = 1.0
        mats.append(m)
        labels.append(f"t{a + 1}")
        signs.append(sgn[a])
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((size, size))
            m[b, a] = 1.0
            m[a, b] = -1.0
            mats.append(m)
            labels.append("r" if d == 2 else f"r{a + 1}{b + 1}")
            signs.append(sgn[a] * sgn[b])
    c = _structure_from_matrices(mats)
    return SymmetricLieAlgebra(c, np.diag(signs), tuple(labels),
                               name=f"euclidean_motion({d},{p},{q})")


def abelian(d: int) -> SymmetricLieAlgebra:
    """R^d with all brackets zero and involution -1 (h = 0, q = everything)."""
    # the arrays first: numpy refuses a d too large to hold at once, where
    # the label loop would run without end
    structure, involution = np.zeros((d, d, d)), -np.eye(d)
    labels = tuple(f"v{i + 1}" for i in range(d))
    return SymmetricLieAlgebra(structure, involution, labels, name=f"abelian({d})")


def matrix_involutive(n: int) -> SymmetricLieAlgebra:
    """gl(n, R) with the involution a -> -a^T.

    The fixed part is the antisymmetric matrices, the -1 eigenspace the
    symmetric ones; the basis lists antisymmetric, off-diagonal symmetric,
    then diagonal elements.
    """
    mats, labels, signs = [], [], []
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n))
            m[a, b] = 1.0
            m[b, a] = -1.0
            mats.append(m)
            labels.append(f"a{a + 1}{b + 1}")
            signs.append(1.0)
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n))
            m[a, b] = 1.0
            m[b, a] = 1.0
            mats.append(m)
            labels.append(f"s{a + 1}{b + 1}")
            signs.append(-1.0)
    for a in range(n):
        m = np.zeros((n, n))
        m[a, a] = 1.0
        mats.append(m)
        labels.append(f"d{a + 1}")
        signs.append(-1.0)
    c = _structure_from_matrices(mats)
    return SymmetricLieAlgebra(c, np.diag(signs), tuple(labels),
                               name=f"matrix_involutive({n})",
                               basis_matrices=tuple(mats))


def builtin_algebra(name: str, params: Optional[dict] = None) -> SymmetricLieAlgebra:
    """Catalog of named algebras; the params each reads, and their bounds,
    are ``config.ALGEBRA_PARAMS``."""
    params = builtin_params(ALGEBRA_PARAMS, name, params)
    if name == "euclidean_motion":
        return euclidean_motion(params["d"], params["p"], params["q"])
    if name == "abelian":
        return abelian(params["d"])
    if name == "matrix_involutive":
        return matrix_involutive(params["n"])


def algebra_from_config(spec: dict) -> SymmetricLieAlgebra:
    """Deserialize an algebra: builtin name + params, or explicit data."""
    if "name" in spec:
        return builtin_algebra(spec["name"], spec.get("params"))
    structure = np.asarray(spec["structure_constants"], dtype=float)
    inv = spec["involution"]
    inv = np.diag(np.asarray(inv, dtype=float)) if np.ndim(inv) == 1 else np.asarray(inv, dtype=float)
    labels = tuple(spec.get("labels") or (f"e{i + 1}" for i in range(structure.shape[0])))
    return SymmetricLieAlgebra(structure, inv, labels, name="custom")

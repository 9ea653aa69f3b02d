"""Synthesis of the dual-form Lie algebra representation on a kernel span.

Given a compatible kernel/action pair, each basis element of the algebra is
compressed to a finite-rank operator: fixed-part (h) elements give skew
operators, flipped-part (q) elements give symmetric ones, and the table pairs
every q element with the imaginary unit so the whole h + iq basis acts
skew-hermitially.  The h/q classification is enforced from the algebra split;
a kernel whose empirical classification disagrees is rejected, never
reinterpreted.

No global group multiplication is synthesized: one-parameter exponentials and
their small-parameter conjugations carry all the testable content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import SymmetricLieAlgebra, c_dual, exp_ad, expm
from .config import DEFAULT_RANK_CUTOFF
from .errors import CompatibilityError, EmptyModelError, PositivityError
from .kernels import GramModel, Kernel, gram
from .operators import (DEFAULT_SYMMETRY_TOL, SKEW, SYMMETRIC, CompatibleAction,
                        compatibility_check, compress_operator,
                        lie_derivative_form, symmetry_defects)


@dataclass(frozen=True)
class RepresentationTable:
    """Operators for the full h + iq basis over a shared Gram model.

    ``entries[k]`` is the compression for the k-th algebra basis element with
    its own symmetry sign; ``dual_matrix`` multiplies q entries by 1j so every
    returned matrix is skew-hermitian.
    """

    algebra: SymmetricLieAlgebra
    model: GramModel
    entries: tuple

    def dual_matrix(self, k: int) -> np.ndarray:
        A = self.entries[k].compressed
        return A if self.entries[k].epsilon == SKEW else 1j * A

    def dual_combination(self, coeffs) -> np.ndarray:
        """Operator of a coefficient vector over the h + iq basis."""
        coeffs = np.asarray(coeffs, dtype=complex)
        out = np.zeros_like(self.entries[0].compressed)
        for k, c in enumerate(coeffs):
            if c != 0.0:
                out = out + c * self.dual_matrix(k)
        return out

    @property
    def max_skew_defect(self) -> float:
        """Relative skew-hermitian defect over the dual basis matrices."""
        worst = 0.0
        for k in range(self.algebra.dim):
            T = self.dual_matrix(k)
            worst = max(worst, float(np.linalg.norm(T + T.conj().T)
                                     / (np.linalg.norm(T) + 1.0)))
        return worst

    def max_unitarity_defect(self, times: Sequence[float]) -> float:
        worst = 0.0
        eye = np.eye(self.entries[0].rank)
        for k in range(self.algebra.dim):
            T = self.dual_matrix(k)
            for t in times:
                U = expm(t * T)
                worst = max(worst, float(np.linalg.norm(U.conj().T @ U - eye)))
        return worst


def synthesize_cdual_rep(kernel: Kernel, action: CompatibleAction,
                         model: GramModel) -> RepresentationTable:
    """Build the representation table, enforcing the h/q symmetry split.

    Every fixed-part element must classify skew and every flipped-part element
    symmetric; a contradiction raises a compatibility error naming the basis
    element rather than reinterpreting the split.
    """
    alg = action.algebra
    grad = kernel.grad1_matrix(model.points, model.points)
    entries = []
    for k, (label, field) in enumerate(zip(alg.labels, action.basis_fields)):
        expected = SKEW if k in alg.h_indices else SYMMETRIC
        B = lie_derivative_form(kernel, field, model.points, grad)
        sym, skew, norm = symmetry_defects(B)
        raw = skew if expected == SKEW else sym
        if raw > DEFAULT_SYMMETRY_TOL * max(norm, 1e-12):
            side = "fixed (skew)" if expected == SKEW else "flipped (symmetric)"
            raise CompatibilityError(
                f"basis element {label!r} violates its {side} class: "
                f"defect {raw:.3e} vs norm {norm:.3e}")
        entries.append(compress_operator(B, model, expected, label=label))
    return RepresentationTable(alg, model, tuple(entries))


@dataclass(frozen=True)
class CommutationReport:
    pair_defects: dict           # (label_a, label_b) -> normalized defect
    max_defect: float


def commutation_defect(rep: RepresentationTable) -> CommutationReport:
    """||[T_a, T_b] - T_[a,b]|| over the dual basis, normalized by operator
    sizes.  Reported, never pass/fail: the compression defect is expected and
    should shrink under sample refinement."""
    alg = rep.algebra
    dual = c_dual(alg)
    out = {}
    worst = 0.0
    for a in range(alg.dim):
        Ta = rep.dual_matrix(a)
        for b in range(a + 1, alg.dim):
            Tb = rep.dual_matrix(b)
            target = rep.dual_combination(dual.structure[a, b])
            defect = float(np.linalg.norm(Ta @ Tb - Tb @ Ta - target))
            scale = float(np.linalg.norm(Ta) * np.linalg.norm(Tb)) + 1.0
            val = defect / scale
            out[(alg.labels[a], alg.labels[b])] = val
            worst = max(worst, val)
    return CommutationReport(out, worst)


def conjugation_check(rep: RepresentationTable, x: int, y: int, s: float) -> float:
    """Defect of exp(-s T_x) T_y exp(s T_x) = T_{exp(-s ad x) y} for x in the
    fixed part, where the right side is the table operator of the transported
    basis element in the h + iq algebra."""
    alg = rep.algebra
    if x not in alg.h_indices:
        raise ValueError(f"conjugation needs x in the fixed part; "
                         f"{alg.labels[x]!r} is not")
    Tx = rep.dual_matrix(x)          # equals the skew entry for x in h
    Ty = rep.dual_matrix(y)
    U = expm(s * Tx)
    Uinv = expm(-s * Tx)
    target = rep.dual_combination(exp_ad(c_dual(alg).basis_element(x), -s)[:, y])
    return float(np.linalg.norm(Uinv @ Ty @ U - target))


@dataclass(frozen=True)
class HGroupResult:
    matrix: np.ndarray
    unitarity_defect: float
    generator_defect: float


def h_group_rep(kernel: Kernel, action: CompatibleAction, model: GramModel,
                x: int, t: float) -> HGroupResult:
    """Matrix of the group element exp(t x), x in the fixed part, from kernel
    evaluations at moved sample points.

    P = compress(K(sigma_t(m_i), m_j)), the moved-section matrix that the
    Lüscher–Mack right translations share; on an H-invariant kernel it
    equals compress(K(m_i, sigma_{-t}(m_j))).  Reports the unitarity defect
    and the consistency ||(P - I)/t - T_x|| with the compressed generator,
    which decays like O(t).
    """
    if action.sigma is None or x not in action.sigma:
        raise ValueError("no closed-form point map available for this element")
    if x not in action.algebra.h_indices:
        raise ValueError("group matrices exist only for fixed-part elements")
    pts = model.points
    P = model.compress(kernel.matrix(action.sigma[x](t, pts), pts))
    eye = np.eye(model.rank)
    unit = float(np.linalg.norm(P.conj().T @ P - eye))
    B = lie_derivative_form(kernel, action.basis_fields[x], pts)
    op = compress_operator(B, model, SKEW, label=action.algebra.labels[x])
    gen = float(np.linalg.norm((P - eye) / t - op.compressed)) if t != 0 else 0.0
    return HGroupResult(P, unit, gen)


# ---------------------------------------------------------------------------
# semigroup-to-dual-group pipeline


@dataclass(frozen=True)
class SemigroupPipelineReport:
    psd_min_ratio: float
    star_defects: dict
    commutation_max_defect: float
    translation_matrices: dict     # element index -> whitened matrix of pi(s)

    @property
    def max_star_defect(self) -> float:
        return max(self.star_defects.values()) if self.star_defects else 0.0


def _semigroup_kernel(phi, phi_grad, n: int) -> Kernel:
    """K(x, y) = phi(x y^T) on flattened n x n matrices.

    phi (and phi_grad) maps a stack (..., n, n) of products to (...) values
    (and (..., n, n) derivatives d phi / d u_ab)."""
    def stacks(X, Y):
        Ys = Y.reshape(-1, n, n)
        return X.reshape(-1, n, n)[:, None] @ np.swapaxes(Ys, 1, 2)[None], Ys

    def mat(X, Y):
        return phi(stacks(X, Y)[0])

    grad_mat = None
    if phi_grad is not None:
        def grad_mat(X, Y):
            products, Ys = stacks(X, Y)
            # d/dx_ij phi(x y^T) = sum_b D[i, b] y[b, j], pair by pair
            return (phi_grad(products) @ Ys[None]).reshape(len(X), len(Y), n * n)

    return Kernel("semigroup", mat, grad_mat)


def luscher_mack_pipeline(elements: Sequence[np.ndarray],
                          phi,
                          action: CompatibleAction,
                          phi_grad=None,
                          rank_cutoff: float = DEFAULT_RANK_CUTOFF):
    """From a function phi on an open semigroup of matrices to a dual
    representation table.

    Builds the kernel K(x, y) = phi(x y^#), with the transpose as ``#``,
    measures its positivity on the sample, verifies compatibility with the
    right-multiplication action, synthesizes the operator table, and
    measures the adjoint relation of the right-translation matrices
    P(s^#) = P(s)^dagger.  phi acts on stacks (..., n, n) of matrices;
    ``phi_grad``, when given, acts on them too and supplies an analytic
    kernel gradient.
    """
    mats = np.array([np.atleast_2d(np.asarray(e, dtype=float)) for e in elements])
    n = mats.shape[1]
    kernel = _semigroup_kernel(phi, phi_grad, n)
    points = mats.reshape(len(mats), n * n)
    try:
        model = gram(kernel, points, rank_cutoff)
    except EmptyModelError as exc:
        raise PositivityError(
            f"phi is not positive definite on the sample: {exc}") from exc

    compat = compatibility_check(kernel, action, points)
    if compat.max_defect > DEFAULT_SYMMETRY_TOL:
        raise CompatibilityError(
            f"kernel/action compatibility fails: {compat.defects}")

    table = synthesize_cdual_rep(kernel, action, model)

    def translation_matrix(s):
        return model.compress(kernel.matrix((mats @ s).reshape(len(mats), n * n), points))

    matrices = {k: translation_matrix(s) for k, s in enumerate(mats)}
    star_defects = {k: float(np.linalg.norm(translation_matrix(s.T) - P.conj().T))
                    for (k, P), s in zip(matrices.items(), mats)}
    return table, SemigroupPipelineReport(model.min_ratio, star_defects,
                                          commutation_defect(table).max_defect, matrices)

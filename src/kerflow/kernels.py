"""Positive definite kernels, Gram models, and whitening.

A finite sample m_1..m_N turns a kernel into a Gram matrix; eigenvalue
truncation at a relative cutoff followed by whitening gives orthonormal
coordinates for the span of the kernel sections K_m.  Everything downstream
(operator compressions, semigroups, quotients) lives in those coordinates.
Kernel Grams are notoriously ill-conditioned; the rank cutoff is the stabilizer
for the whole package, so it is configurable everywhere.

Inner-product convention: G[i, j] = K(m_i, m_j) and the product is linear in
its first slot, so <K_mj, K_mi> = G[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import factorial
from typing import Callable, Optional

import numpy as np

from . import bessel_tables
from .config import DEFAULT_FD_STEP, DEFAULT_RANK_CUTOFF, KERNEL_PARAMS, builtin_params
from .errors import EmptyModelError, KernelDomainError, NotHermitianError

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class Kernel:
    """Kernel K on points of R^d, given by its array forms.

    ``matrix`` evaluates K(x_i, y_j) for every pair of rows of X (n, d) and
    Y (m, d) through ``matrix_fn``; ``grad1_matrix`` evaluates the gradient
    in the first slot through ``grad1_matrix_fn``, or by central differences
    of ``matrix`` with step ``DEFAULT_FD_STEP`` when none is given; each raises
    ``ValueError`` when its function returns another shape, and
    ``KernelDomainError`` when some value is not finite.  The calls at
    one pair, ``kernel(x, y)`` and ``grad1(x, y)``, are their 1 x 1 cases.
    Both forms return float64 unless the kernel is complex-valued.  A scalar
    K(x, y) enters through ``entrywise_kernel``.  ``dimension``, when given,
    is the number of coordinates of a point.
    """

    name: str
    matrix_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad1_matrix_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    dimension: Optional[int] = None

    def __call__(self, x, y) -> complex:
        return complex(self.matrix(x, y)[0, 0])

    def grad1(self, x, y) -> np.ndarray:
        return self.grad1_matrix(x, y)[0, 0].astype(complex)

    def matrix(self, X, Y) -> np.ndarray:
        """Values K(x_i, y_j), shape (n, m)."""
        X, Y = _rows(X), _rows(Y)
        return self._shaped(self.matrix_fn(X, Y), (len(X), len(Y)))

    def grad1_matrix(self, X, Y) -> np.ndarray:
        """First-slot gradients grad1 K(x_i, y_j), shape (n, m, d)."""
        X, Y = _rows(X), _rows(Y)
        if self.grad1_matrix_fn is not None:
            out = self.grad1_matrix_fn(X, Y)
        else:
            steps = DEFAULT_FD_STEP * np.eye(X.shape[1])
            out = np.stack([(self.matrix(X + e, Y) - self.matrix(X - e, Y))
                            / (2.0 * DEFAULT_FD_STEP) for e in steps], axis=-1)
        return self._shaped(out, (len(X), len(Y), X.shape[1]))

    def _shaped(self, out, shape: tuple):
        # a function of one pair of points would run on the wrong entries
        if np.shape(out) != shape:
            raise ValueError(f"kernel {self.name!r}: an array form returned shape "
                             f"{np.shape(out)} where {shape} belongs")
        # an overflow would reach every later eigensolver and verdict
        if not np.all(np.isfinite(out)):
            raise KernelDomainError(f"kernel {self.name!r}: an array form returned "
                                    "non-finite values")
        return out


def entrywise_kernel(name: str, value, grad=None) -> Kernel:
    """Kernel of a scalar K(x, y) on two points, and of its first-slot
    gradient when given; its array forms call them once per pair, and are
    complex only if some value is."""
    def pairwise(fn, X, Y, *shape):
        out = np.array([[fn(x, y) for y in Y] for x in X]).reshape(len(X), len(Y), *shape)
        return out if np.iscomplexobj(out) else out.astype(float)

    return Kernel(name, lambda X, Y: pairwise(value, X, Y),
                  None if grad is None else lambda X, Y: pairwise(grad, X, Y, X.shape[1]))


def _rows(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


@dataclass(frozen=True)
class GramModel:
    """Gram matrix of a sample with its eigendecomposition and whitening map.

    ``whitening`` has shape (rank, N) and satisfies W G W^* = I_r.  Eigenvalues
    are sorted descending; ``rank`` counts eigenvalues above
    ``rank_cutoff * max(eigenvalues)``.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int
    rank_cutoff: float
    whitening: np.ndarray
    points: Optional[np.ndarray] = None
    kernel: Optional[Kernel] = None
    duplicate_points: bool = False

    @property
    def size(self) -> int:
        return self.gram.shape[0]

    @property
    def gap_ratio(self) -> float:
        """First discarded eigenvalue over the largest (0 if full rank)."""
        if self.rank >= len(self.eigenvalues):
            return 0.0
        return float(abs(self.eigenvalues[self.rank]) / self.eigenvalues[0])

    @property
    def min_ratio(self) -> float:
        """Smallest eigenvalue over the largest (negative if not PSD)."""
        return float(self.eigenvalues[-1]) / float(self.eigenvalues[0])

    def compress(self, M) -> np.ndarray:
        """W M W^* of an N x N matrix M on the sample: the one compression of
        forms, kernel blocks at moved points and transfer matrices alike."""
        W = self.whitening
        return W @ M @ W.conj().T


def _eig_and_whiten(G: np.ndarray, rank_cutoff: float):
    vals, vecs = np.linalg.eigh(G)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lam_max = float(vals[0]) if vals.size else 0.0
    if lam_max <= 0.0:
        raise EmptyModelError("Gram matrix has no positive eigenvalue")
    rank = int(np.sum(vals > rank_cutoff * lam_max))
    if rank == 0:
        raise EmptyModelError("all eigenvalues fall below the rank cutoff")
    W = (vecs[:, :rank].conj().T) / np.sqrt(vals[:rank])[:, None]
    return vals, vecs, rank, W


def gram_from_matrix(G, rank_cutoff: float = DEFAULT_RANK_CUTOFF,
                     points=None, kernel: Optional[Kernel] = None,
                     duplicate_points: bool = False) -> GramModel:
    """Build a model from an explicit Gram matrix (checked, then hermitized).

    A real matrix stays float64, with a real whitening; only a complex one is
    handled in complex arithmetic."""
    G = np.asarray(G)
    G = G.astype(complex if np.iscomplexobj(G) else float, copy=False)
    if not np.all(np.isfinite(G)):     # NaN > tol is False in the guard below
        raise KernelDomainError("Gram matrix has non-finite entries")
    asym = float(np.max(np.abs(G - G.conj().T))) if G.size else 0.0
    scale = max(1.0, float(np.max(np.abs(G)))) if G.size else 1.0
    if asym > HERMITICITY_TOL * scale:
        raise NotHermitianError(
            f"Gram asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.0e} * {scale:.3e}")
    G = 0.5 * (G + G.conj().T)
    vals, vecs, rank, W = _eig_and_whiten(G, rank_cutoff)
    return GramModel(G, vals, vecs, rank, rank_cutoff, W,
                     points=points, kernel=kernel, duplicate_points=duplicate_points)


def gram(kernel: Kernel, points, rank_cutoff: float = DEFAULT_RANK_CUTOFF) -> GramModel:
    """Gram model of a kernel on a point sample.

    Duplicated points are allowed but flagged; they force rank deficiency.
    """
    pts = _rows(points)
    # equal rows are neighbours once sorted
    ordered = pts[np.lexsort(pts.T)]
    dupes = bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))
    return gram_from_matrix(kernel.matrix(pts, pts), rank_cutoff, points=pts,
                            kernel=kernel, duplicate_points=dupes)


def embed_index(model: GramModel, i: int) -> np.ndarray:
    """Whitened coordinates of the kernel section at sample point i (exact);
    <u, v> is ``np.vdot(v, u)``, so <K_mj, K_mi> = G[i, j]."""
    r = model.rank
    return np.sqrt(model.eigenvalues[:r]) * model.eigenvectors[i, :r].conj()


def embed_point(model: GramModel, m) -> np.ndarray:
    """Whitened coordinates of a new point's section, with <u, v> =
    ``np.vdot(v, u)`` (``embed_index`` embeds a sample point exactly).

    The point is projected orthogonally onto the sample span -- an
    approximation whose residual shrinks only with sample refinement.
    """
    if model.points is None or model.kernel is None:
        raise ValueError("model carries no kernel/points; only index embedding works")
    p = np.asarray(m, dtype=float)
    return model.whitening @ model.kernel.matrix(model.points, p)[:, 0]


def projection_residual(model: GramModel, m) -> float:
    """Relative norm of the part of K_m orthogonal to the sample span."""
    p = np.asarray(m, dtype=float)
    full = float(np.real(model.kernel(p, p)))
    proj = float(np.linalg.norm(embed_point(model, p))) ** 2
    if full <= 0.0:
        return 0.0
    return float(np.sqrt(max(full - proj, 0.0) / full))


# ---------------------------------------------------------------------------
# builtin kernel catalog


@dataclass(frozen=True)
class MeasureSample:
    """Finite atomic approximation of a measure on the dual space."""

    atoms: np.ndarray     # (M, d)
    weights: np.ndarray   # (M,) positive

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size != atoms.shape[0]:
            raise ValueError("need one weight per atom")
        if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)


def _diff(X, Y) -> np.ndarray:
    """x_i - y_j for every pair of rows, shape (n, m, d)."""
    return X[:, None, :] - Y[None, :, :]


def _sq(D) -> np.ndarray:
    """Squared norms along the last axis of an (n, m, d) array."""
    return np.einsum("ijk,ijk->ij", D, D)


def laplace_kernel_from_measure(measure: MeasureSample) -> Kernel:
    """K(x, y) = sum_j w_j exp(-a_j . (x+y)/2): a nonnegative mixture of
    rank-one exponential kernels, hence positive definite by construction."""
    atoms, weights = measure.atoms, measure.weights

    # factored as F(X) diag(w) F(Y)^T, F[i, j] = exp(-a_j . x_i / 2), so no
    # (n, m, atoms) array is ever formed; scaling the atoms by the power of
    # two -1/2 first gives the same numbers in fewer array operations
    half = -atoms.T / 2.0

    def factor(X):
        return np.exp(X @ half)

    def mat(X, Y):
        return (factor(X) * weights) @ factor(Y).T

    def grad_mat(X, Y):
        fx, fy = factor(X) * weights, factor(Y).T
        return np.stack([(fx * (-a / 2.0)) @ fy for a in atoms.T], axis=-1)

    return Kernel("laplace", mat, grad_mat, dimension=atoms.shape[1])


def ou_mixture_profile(masses, weights) -> Callable[[np.ndarray], np.ndarray]:
    """Distance profile p(r) = sum_j w_j exp(-m_j r) of the ``ou_mixture``
    kernel, on an array of distances; ``weights`` None weighs each mass 1."""
    masses = np.asarray(masses, dtype=float)
    weights = np.ones_like(masses) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != masses.shape:
        raise ValueError("need one weight per mass")

    def profile(dist):
        out = np.zeros_like(dist)
        term = np.empty_like(dist)
        for m, w in zip(masses, weights):
            # w * exp(-m * dist), computed in place
            np.multiply(dist, -m, out=term)
            np.exp(term, out=term)
            term *= w
            out += term
        return out

    return profile


def _horner(coeffs, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k for each entry of t, in one work array."""
    p = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        p *= t
        p += c
    return p


# Power series in y = x^2 / 4 for x <= 1 (Abramowitz and Stegun 9.6.13, 9.6.11):
# K0 = A0(y) - log(x/2) B0(y) and K1 = (A1(y) + 2 y log(x/2) B1(y)) / x, where
# B_n(y) sums y^k / (k! (k+n)!) (so I_n = (x/2)^n B_n) and A_n weighs the same
# terms by digamma values psi(k+1) = H_k - gamma.  At y = 1/4 the first
# dropped term is below 2^-60 of the sum.
_PSI = tuple(sum(1.0 / j for j in range(1, k + 1)) - np.euler_gamma for k in range(12))
_B = [tuple(1.0 / (factorial(k) * factorial(k + n)) for k in range(11)) for n in (0, 1)]
_A = (tuple(_PSI[k] * b for k, b in enumerate(_B[0])),
      (1.0,) + tuple(-(_PSI[k] + _PSI[k + 1]) * b for k, b in enumerate(_B[1])))


def _bessel_k_series(n: int, x: np.ndarray) -> np.ndarray:
    """K_n(x) for 0 < x <= 1 from the power series above."""
    y = x * x
    y *= 0.25
    log = np.multiply(x, 0.5)
    np.log(log, out=log)
    log *= _horner(_B[n], y)
    value = _horner(_A[n], y)
    if n == 0:
        value -= log
        return value
    log *= y
    log *= 2.0
    value += log
    value /= x
    return value


def bessel_k(n: int, x, out=None) -> np.ndarray:
    """Modified Bessel function of the second kind K_n, n = 0 or 1, of each
    x > 0, into ``out`` when given (which may be x): the power series up to
    x = 1, then e^-x / sqrt(x) times a polynomial in t = a / x + b on each
    piece of ``bessel_tables.PIECES``.  On 10^4 log-spaced points of
    [1e-6, 700] it is within 3 ulp of the correctly rounded value."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x) if out is None else out
    coeffs = (bessel_tables.K0, bessel_tables.K1)[n]
    small = ~(x > 1.0)   # a NaN takes the series and stays NaN
    large = [((x > lo) & (x <= hi), a, b) for lo, hi, a, b in bessel_tables.PIECES]
    # gather every piece before the first write, as out may be x itself
    xs, xl = x[small], [x[m] for m, _, _ in large]
    out[small] = _bessel_k_series(n, xs)
    for (m, a, b), xp, c in zip(large, xl, coeffs):
        t = np.divide(a, xp)
        t += b
        value = _horner(c, t)
        value /= np.sqrt(xp, out=t)
        value *= np.exp(np.negative(xp, out=xp), out=xp)
        out[m] = value
    return out


def builtin_kernel(name: str, params: Optional[dict] = None) -> Kernel:
    """Catalog of named kernels used by experiment configs and tests; the
    params each reads, their defaults and bounds, are ``config.KERNEL_PARAMS``.

    Every entry has an array form of its values; ``ou_mixture`` and ``det``
    have no analytic gradient and take the central differences of it."""
    params = builtin_params(KERNEL_PARAMS, name, params)
    if name == "fock":
        def fock_mat(X, Y):
            return np.exp(X @ Y.T)

        return Kernel("fock", fock_mat,
                      lambda X, Y: Y[None] * fock_mat(X, Y)[..., None])
    if name == "gaussian_rbf":
        sigma = float(params["sigma"])

        def rbf_grad(X, Y):
            D = _diff(X, Y)
            return -D / sigma ** 2 * np.exp(-_sq(D) / (2.0 * sigma ** 2))[..., None]

        return Kernel("gaussian_rbf",
                      lambda X, Y: np.exp(-_sq(_diff(X, Y)) / (2.0 * sigma ** 2)),
                      rbf_grad)
    if name == "ou":
        m = float(params["mass"])

        def ou_grad(X, Y):
            D = _diff(X, Y)
            r = np.sqrt(_sq(D))
            if np.any(r == 0.0):
                raise KernelDomainError("ou kernel has a kink on the diagonal; "
                                        "grad1 is one-sided for x != y only")
            return (-m * np.exp(-m * r) / r)[..., None] * D

        return Kernel("ou", lambda X, Y: np.exp(-m * np.sqrt(_sq(_diff(X, Y)))),
                      ou_grad)
    if name == "ou_mixture":
        profile = ou_mixture_profile(params["masses"], params.get("weights"))
        return Kernel("ou_mixture", lambda X, Y: profile(np.sqrt(_sq(_diff(X, Y)))))
    if name == "laplace":
        measure = MeasureSample(np.asarray(params["atoms"], dtype=float),
                                np.asarray(params["weights"], dtype=float))
        return laplace_kernel_from_measure(measure)
    if name == "laplace_gaussian":
        # transform of a standard Gaussian weight: exp(s^2 |x+y|^2 / 8)
        s = float(params["scale"])

        def lg_grad(X, Y):
            U = X[:, None, :] + Y[None, :, :]
            return s ** 2 * U / 4.0 * np.exp(s ** 2 * _sq(U) / 8.0)[..., None]

        return Kernel("laplace_gaussian", lambda X, Y: np.exp(
            s ** 2 * _sq(X[:, None, :] + Y[None, :, :]) / 8.0), lg_grad)
    if name == "halfplane_bessel":
        # smooth reflected-argument kernel on the half-plane x[0] > 0:
        # 2 K0(m sqrt((x1+y1)^2 + (x2-y2)^2)); a continuum mixture of
        # rank-one decay factors times plane waves, hence positive definite
        # there, and invariant under the full planar motion compatibility
        m = float(params["mass"])

        # the array forms fill preallocated outputs in place: at 289 points
        # the gradient is the largest array of a cdual_rep run
        def reflected(X, Y):
            """(x1 + y1, x2 - y2) for every pair, shape (n, m, 2), and its norm."""
            ab = np.empty((len(X), len(Y), 2))
            np.add(X[:, None, 0], Y[None, :, 0], out=ab[..., 0])
            np.subtract(X[:, None, 1], Y[None, :, 1], out=ab[..., 1])
            r = np.hypot(ab[..., 0], ab[..., 1])
            if np.any(r <= 0.0) or np.any(ab[..., 0] < 0.0):
                raise KernelDomainError("halfplane_bessel needs x1 + y1 > 0")
            return ab, r

        def hp_mat(X, Y):
            r = reflected(X, Y)[1]
            r *= m
            bessel_k(0, r, out=r)
            r *= 2.0
            return r

        def hp_grad(X, Y):
            # -2 m K1(m r) / r times (a, b)
            ab, r = reflected(X, Y)
            d = m * r
            bessel_k(1, d, out=d)
            d *= -2.0 * m
            d /= r
            ab *= d[..., None]
            return ab

        return Kernel("halfplane_bessel", hp_mat, hp_grad, dimension=2)
    if name == "circle_laplace":
        # transform of a uniform measure on a radius-m circle: a smooth,
        # rotation-invariant positive definite kernel close to I0(m |x+y| / 2)
        m, n_atoms = float(params["mass"]), int(params["n_atoms"])
        ang = 2.0 * np.pi * np.arange(n_atoms) / n_atoms
        atoms = m * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        weights = np.full(n_atoms, 1.0 / n_atoms)
        return replace(laplace_kernel_from_measure(MeasureSample(atoms, weights)),
                       name="circle_laplace")
    if name == "det":
        n = int(params["n"])
        power = float(params["power"])

        def det_mat(X, Y):
            Xs, Ys = X.reshape(-1, n, n), Y.reshape(-1, n, n)
            if np.any(np.linalg.norm(np.concatenate([Xs, Ys]), 2, axis=(1, 2)) >= 1.0):
                raise KernelDomainError("det kernel needs contractive arguments")
            products = Xs[:, None] @ np.swapaxes(Ys, 1, 2)[None]
            return np.linalg.det(np.eye(n) - products) ** (-power)

        return Kernel("det", det_mat, dimension=n * n)

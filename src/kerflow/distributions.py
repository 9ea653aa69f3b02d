"""Distribution kernels smeared against compactly supported grid functions,
reflection-positivity checks, quotient spaces, and contraction semigroups.

Everything here is real-valued and exact-translation based: test functions
live on uniform grids with a mandatory zero margin, flows act on them only as
integer-cell shifts along axes, and the reflection across the time-zero
hyperplane is an index flip of the first axis, on grids symmetric there.  That
removes every resampling error from the semigroup and contraction claims,
which are the point of the module.  Kernels may have kink
singularities (exponential decay type) but nothing worse; quadrature is plain
trapezoid, which is all compact support requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .config import (DEFAULT_RANK_CUTOFF, LOOSE_RANK_CUTOFF, MIN_MARGIN, in_positive_slice,
                     moved_out, symmetric_axis)
from .errors import DegenerateQuotientError, EmptyModelError, GridError
from .kernels import GramModel, gram_from_matrix
from .operators import SYMMETRIC, compress_operator, semigroup_matrix


@dataclass(frozen=True, eq=False)
class TestFunctionGrid:
    """Uniform 1D or 2D grid with trapezoid weights and a support margin.

    ``shape`` gives points per axis; functions carried on the grid must vanish
    on the outer ``margin`` cells of every axis, so integer-cell translations
    within the margin stay exact.
    """

    origin: np.ndarray
    spacing: float
    shape: tuple
    margin: int = MIN_MARGIN

    def __post_init__(self):
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        shape = tuple(int(s) for s in np.atleast_1d(self.shape))
        if len(shape) not in (1, 2):
            raise GridError("only 1D and 2D grids are supported")
        if origin.shape != (len(shape),):
            raise GridError("origin dimension must match the grid shape")
        if self.spacing <= 0.0:
            raise GridError("spacing must be positive")
        if self.margin < MIN_MARGIN:
            raise GridError(f"support margin must be >= {MIN_MARGIN} cells")
        if any(s <= 2 * self.margin + 1 for s in shape):
            raise GridError("grid too small for its margin")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", float(self.spacing))
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing * np.arange(self.shape[axis])

    def points(self) -> np.ndarray:
        axes = [self.axis_coordinates(a) for a in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def weights(self) -> np.ndarray:
        """Trapezoid product weights; the margin makes the halved boundary
        weights irrelevant for margin-respecting functions."""
        out = np.ones(self.shape)
        for a in range(self.ndim):
            w = np.full(self.shape[a], self.spacing)
            w[0] *= 0.5
            w[-1] *= 0.5
            shape = [1] * self.ndim
            shape[a] = self.shape[a]
            out = out * w.reshape(shape)
        return out.ravel()

    def is_symmetric(self) -> bool:
        """Whether coordinate negation along the first axis maps the grid to itself."""
        return symmetric_axis(self.origin[0], self.spacing, self.shape[0])


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Samples of a compactly supported function on a grid, held in a
    read-only copy, so that its support box stays the values' own."""

    grid: TestFunctionGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridError("value array must match the grid shape")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if why := moved_out(self.grid.shape, self.grid.margin, self.box, (0,) * v.ndim):
            raise GridError(why)

    @cached_property
    def box(self) -> Optional[tuple]:
        """Per axis, the first and last cell where the function is not zero
        (a NaN is not zero), or None for the zero function."""
        nonzero, axes = self.values != 0.0, range(self.values.ndim)
        runs = [np.flatnonzero(nonzero.any(axis=tuple(b for b in axes if b != a))) for a in axes]
        return tuple((int(k[0]), int(k[-1])) for k in runs) if runs[0].size else None

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def integral(self) -> float:
        return float(self.grid.weights() @ self.flat)


def bump(grid: TestFunctionGrid, center, width) -> TestFunction:
    """Standard mollifier bump exp(-1 / (1 - u^2)) with support |u| < 1."""
    u2 = np.sum(((grid.points() - np.asarray(center, dtype=float)) / width) ** 2, axis=1)
    vals = np.where(u2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - u2, 1e-300)), 0.0)
    return TestFunction(grid, vals.reshape(grid.shape))


def translate(fn: TestFunction, cells) -> TestFunction:
    """Exact translation by integer cells per axis; errors if the shifted
    support would leave the grid or touch the margin.  The zero function
    translates to itself."""
    cells = tuple(int(c) for c in np.atleast_1d(cells))
    if len(cells) != fn.grid.ndim:
        raise GridError("need one cell shift per axis")
    if why := moved_out(fn.grid.shape, fn.grid.margin, fn.box, cells):
        raise GridError(why)
    if fn.box is None:
        return fn
    # every nonzero cell lies in the box, which the shift keeps on the grid
    out = np.zeros_like(fn.values)
    out[tuple(slice(lo + c, hi + 1 + c) for (lo, hi), c in zip(fn.box, cells))] = \
        fn.values[tuple(slice(lo, hi + 1) for lo, hi in fn.box)]
    return TestFunction(fn.grid, out)


def reflect(fn: TestFunction) -> TestFunction:
    """Coordinate sign flip along the first axis; the grid must be symmetric there."""
    if not fn.grid.is_symmetric():
        raise GridError("grid is not symmetric along its first axis, the reflected one")
    return TestFunction(fn.grid, np.flip(fn.values, axis=0))


@dataclass(frozen=True, eq=False)
class SmearedKernel:
    """Kernel paired against grid functions, evaluated block by block.

    ``block(rows, cols)`` gives the kernel on grid points ``rows`` x ``cols``
    (flat grid indices).  ``pairings_each(fs, gss)`` gives the matrix of
    double quadrature sums of f K g of ``fs`` against each list of ``gss``,
    ``pairings(fs, gs)`` against one list and ``pairing(f, g)`` one entry,
    each from the block between the supports alone, never a grid-sized one.
    Hermitian by construction for symmetric real kernels, and checked on
    demand.
    """

    grid: TestFunctionGrid
    block: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def from_matrix(cls, grid: TestFunctionGrid, matrix) -> "SmearedKernel":
        """An explicit kernel matrix over all grid points; blocks are read by
        indexing."""
        matrix = np.asarray(matrix, dtype=float)
        return cls(grid, lambda rows, cols: matrix[np.ix_(rows, cols)])

    @classmethod
    def from_distance_profile(cls, profile: Callable[[np.ndarray], np.ndarray],
                              grid: TestFunctionGrid) -> "SmearedKernel":
        """Translation-invariant kernel K(x, y) = p(|x-y|), evaluated on the
        points of each block only."""
        pts = grid.points()

        def block(rows, cols):
            # one coordinate at a time, so each entry is 0 + d_0^2 + d_1^2 whatever
            # block it is in; rows in parts of about 2^12 entries bound the temporaries
            out = np.empty((len(rows), len(cols)))
            for part in np.array_split(np.arange(len(rows)), max(1, out.size >> 12)):
                dist = np.zeros((len(part), len(cols)))
                for axis in range(pts.shape[1]):
                    diff = np.subtract.outer(pts[rows[part], axis], pts[cols, axis])
                    dist += np.square(diff, out=diff)
                out[part] = profile(np.sqrt(dist, out=dist))
            return out
        return cls(grid, block)

    @property
    def matrix(self) -> np.ndarray:
        """The kernel on every pair of grid points: the dense form of
        ``block``, which no pairing reads."""
        every = np.arange(self.grid.size)
        return self.block(every, every)

    def pairings_each(self, fs: Sequence[TestFunction],
                      gss: Sequence[Sequence[TestFunction]]) -> list:
        """One matrix ``P[i, j] = pairing(fs[i], gs[j])`` per list ``gs`` of
        ``gss``, that is ``(W F)^T K (W G)`` with the functions as columns of
        F and G and the quadrature weights on the diagonal of W.  Rows of K
        outside the support of ``fs``, and columns outside the sorted union
        of those of the lists, multiply zeros, so only that block is read."""
        for fn in (*fs, *(g for gs in gss for g in gs)):
            if not same_grid(fn.grid, self.grid):
                raise GridError("all functions must live on the smearing grid")
        w = self.grid.weights()
        F, *Gs = [np.array([f.flat for f in fns]).reshape(len(fns), self.grid.size) * w
                  for fns in (fs, *gss)]
        rows = np.flatnonzero(np.any(F != 0.0, axis=0))
        supports = [np.any(G != 0.0, axis=0) for G in Gs]
        union = np.flatnonzero(np.logical_or.reduce(supports, axis=0))
        K = self.block(rows, union)
        # take, unlike K[:, i], keeps the row-major layout of a block of cols alone
        return [F[:, rows] @ K.take(np.searchsorted(union, cols), axis=1) @ G[:, cols].T
                for G, cols in zip(Gs, map(np.flatnonzero, supports))]

    def pairings(self, fs: Sequence[TestFunction],
                 gs: Sequence[TestFunction]) -> np.ndarray:
        """``pairings_each`` for the one list ``gs``."""
        return self.pairings_each(fs, [gs])[0]

    def pairing(self, f: TestFunction, g: TestFunction) -> float:
        return float(self.pairings([f], [g])[0, 0])

    def hermiticity_defect(self, fns: Sequence[TestFunction]) -> float:
        P = self.pairings(fns, fns)
        return float(np.max(np.abs(P - P.T), initial=0.0))


def same_grid(a: TestFunctionGrid, b: TestFunctionGrid) -> bool:
    return (a is b) or (a.shape == b.shape and a.spacing == b.spacing
                        and bool(np.all(a.origin == b.origin)))


def smeared_gram(sk: SmearedKernel, fns: Sequence[TestFunction],
                 rank_cutoff: float = DEFAULT_RANK_CUTOFF) -> GramModel:
    """Gram of the pairing; reuses the whitening machinery on the matrix."""
    return gram_from_matrix(sk.pairings(fns, fns), rank_cutoff)


def directional_derivative(field_values: np.ndarray, fn: TestFunction) -> TestFunction:
    """Fourth-order central-difference derivative of fn along a field.

    ``field_values`` has shape grid.shape + (ndim,).  The stencil widens the
    support by two cells per axis, so the input must keep at least
    margin + 2 zero cells; the output then still satisfies the margin.
    """
    grid = fn.grid
    if moved_out(grid.shape, grid.margin + 2, fn.box, (0,) * grid.ndim):
        raise GridError("support too close to the margin for the derivative stencil")
    v = fn.values
    out = np.zeros_like(v)
    h = grid.spacing
    for a in range(grid.ndim):
        d = (-np.roll(v, -2, axis=a) + 8.0 * np.roll(v, -1, axis=a)
             - 8.0 * np.roll(v, 1, axis=a) + np.roll(v, 2, axis=a)) / (12.0 * h)
        out += field_values[..., a] * d
    return TestFunction(grid, out)


def distribution_lie_derivative(sk_or_grid, field, fn: TestFunction) -> TestFunction:
    """Derivative of a test function along a vector field on the grid.

    The returned function represents the action on the test side; pairing the
    kernel against it with a minus sign realizes the adjoint action on
    distributions.
    """
    grid = sk_or_grid.grid if isinstance(sk_or_grid, SmearedKernel) else sk_or_grid
    values = field.rows(grid.points())
    return directional_derivative(values.reshape(grid.shape + (grid.ndim,)), fn)


@dataclass(frozen=True)
class DistributionTransportResult:
    relative_error: float
    model: GramModel


def distribution_froelich_check(sk: SmearedKernel, field, base: TestFunction,
                                t_cells: int, axis: int = 0, n_basis: int = 8,
                                basis_spacing_cells: int = 1,
                                rank_cutoff: float = DEFAULT_RANK_CUTOFF
                                ) -> DistributionTransportResult:
    """Semigroup transport on a basis of exact translates of one function.

    The derivative form is B[i, j] = -pairing(phi_i, dphi_j); compressing and
    exponentiating it must reproduce the coordinates of the exact grid
    translate of the base function.  Only grid-multiple times are accepted --
    interpolation would contaminate precisely the claim under test.
    """
    if t_cells != int(t_cells):
        raise GridError("transport time must be an integer number of cells")
    grid = sk.grid
    fns = [translate(base, tuple(basis_spacing_cells * k if a == axis else 0
                                 for a in range(grid.ndim)))
           for k in range(n_basis)]
    model = smeared_gram(sk, fns, rank_cutoff)

    field_grid = field.rows(grid.points()).reshape(grid.shape + (grid.ndim,))
    derivs = [directional_derivative(field_grid, f) for f in fns]
    t = t_cells * grid.spacing
    # forward flow of a constant field moves the support with it
    shifted = translate(base, tuple(t_cells if a == axis else 0
                                    for a in range(grid.ndim)))
    P = sk.pairings(fns, derivs + [base, shifted])
    n = len(fns)
    op = compress_operator(-P[:, :n], model, SYMMETRIC, label="transport")
    g0, g1 = P[:, n], P[:, n + 1]
    u0 = model.whitening @ g0
    target = model.whitening @ g1
    lhs = semigroup_matrix(op, t) @ u0
    denom = float(np.linalg.norm(target))
    err = float(np.linalg.norm(lhs - target)) / denom if denom > 0 else np.inf
    return DistributionTransportResult(err, model)


# ---------------------------------------------------------------------------
# reflection positivity and the quotient space


@dataclass(frozen=True)
class ReflectionPositivityReport:
    pairings: dict      # cell count c: <theta f, K tau_c g>; count 0 is the twisted Gram
    min_ratio: float


def reflection_positivity_check(sk: SmearedKernel, fns_plus: Sequence[TestFunction],
                                cells: Sequence[int] = ()) -> ReflectionPositivityReport:
    """Positivity of the twisted Gram on the positive slice: its smallest
    eigenvalue over its largest (-inf when none is positive).  One kernel
    block gives it and the pairings with the translates by each count of
    ``cells``, along the first axis away from the hyperplane."""
    if not all(in_positive_slice(sk.grid.origin[0], sk.grid.spacing, f.box) for f in fns_plus):
        raise GridError("test functions must be supported in the positive slice")
    if any(c < 0 for c in cells):
        raise GridError("the transfer direction needs t >= 0")
    counts, rest = sorted({0, *map(int, cells)}), (0,) * (sk.grid.ndim - 1)
    pairings = dict(zip(counts, sk.pairings_each(
        [reflect(f) for f in fns_plus],
        [[translate(f, (c,) + rest) for f in fns_plus] if c else fns_plus for c in counts])))
    T = pairings[0]
    vals = np.linalg.eigvalsh(0.5 * (T + T.T))[::-1]
    lam_max = float(vals[0]) if vals.size else 0.0
    ratio = float(vals[-1] / lam_max) if lam_max > 0 else -np.inf
    return ReflectionPositivityReport(pairings, ratio)


@dataclass(frozen=True)
class OSSpace:
    """Quotient of the positive slice by the null space of the reflected form.

    ``model`` is the Gram model of the twisted Gram: its whitening is the
    quotient map, and the eigendirections it discards span the null space
    at the cutoff resolution.  ``positivity`` is the reflection-positivity
    report the quotient was built from, with the transfer pairings.
    """

    positivity: ReflectionPositivityReport
    model: GramModel


def os_quotient(sk: SmearedKernel, fns_plus: Sequence[TestFunction],
                rank_cutoff: float = LOOSE_RANK_CUTOFF, cells: Sequence[int] = ()) -> OSSpace:
    """Whiten the twisted Gram, with its report and the pairings of ``cells``.

    The cutoff is looser than the plain Gram default because reflected
    exponential-factor kernels produce steep rank decay by construction.
    It discards negative eigenvalues too, which the report's ratio measures.
    """
    report = reflection_positivity_check(sk, fns_plus, cells)
    try:
        model = gram_from_matrix(report.pairings[0], rank_cutoff)
    except EmptyModelError as exc:
        raise DegenerateQuotientError("twisted Gram has numerical rank zero") from exc
    return OSSpace(report, model)


@dataclass(frozen=True)
class OSSemigroupResult:
    matrix: np.ndarray
    contraction_defect: float
    self_adjointness_defect: float


def os_semigroup(space: OSSpace, cells: Sequence[int]) -> list:
    """Matrix of the positive-slice shift (along the first axis, away from
    the hyperplane) by each cell count of ``cells`` on the quotient, in
    order, compressed from the pairings the space was built with; a count
    it was not built with raises ValueError."""
    pairings = space.positivity.pairings
    if missing := sorted(set(cells) - pairings.keys()):
        raise ValueError(f"the OS space holds no transfer pairing for cell counts {missing}")
    return [OSSemigroupResult(S, max(float(np.linalg.norm(S, 2)) - 1.0, 0.0),
                              float(np.linalg.norm(S - S.T)))
            for S in (space.model.compress(pairings[c]) for c in cells)]


def semigroup_law_defect(S_s: np.ndarray, S_t: np.ndarray, S_st: np.ndarray) -> float:
    """Frobenius norm of S(s) S(t) - S(s + t), from the three matrices."""
    return float(np.linalg.norm(S_s @ S_t - S_st))


# ---------------------------------------------------------------------------
# grid operators and the reflection-representation axioms


def grid_shift_map(grid: TestFunctionGrid, cells) -> np.ndarray:
    """Exact translation on flattened grid vectors as an index map: grid
    index j moved by ``cells`` is grid index ``map[j]``, or -1 where the zero
    fill drops it."""
    cells = np.array([int(c) for c in np.atleast_1d(cells)])
    if len(cells) != grid.ndim:
        raise GridError("need one cell shift per axis")
    axes = (-1,) + (1,) * grid.ndim
    moved = np.indices(grid.shape) + cells.reshape(axes)
    kept = np.all((moved >= 0) & (moved < np.reshape(grid.shape, axes)), axis=0)
    out = np.full(grid.size, -1)
    out[kept.ravel()] = np.ravel_multi_index(tuple(moved[:, kept]), grid.shape)
    return out


def grid_shift_matrix(grid: TestFunctionGrid, cells) -> np.ndarray:
    """Dense matrix of ``grid_shift_map``: entry (k, j) is 1 when grid index
    j moved by ``cells`` is grid index k."""
    index = grid_shift_map(grid, cells)
    kept = index >= 0
    out = np.zeros((grid.size, grid.size))
    out[index[kept], np.flatnonzero(kept)] = 1.0
    return out


def grid_reflection_map(grid: TestFunctionGrid) -> np.ndarray:
    """Coordinate sign flip along the first axis as an index map (a permutation)."""
    if not grid.is_symmetric():
        raise GridError("reflection map needs a grid symmetric along its first axis")
    return np.flip(np.arange(grid.size).reshape(grid.shape), axis=0).ravel()


def slice_mask(grid: TestFunctionGrid) -> np.ndarray:
    """Grid points of the positive slice, where the first coordinate is > 0:
    the diagonal of its projector."""
    return grid.points()[:, 0] > 0.0


@dataclass(frozen=True)
class RPAxiomsReport:
    rp1_max_defect: Optional[float]     # None when no pair was compared
    rp2_max_defect: Optional[float]     # None without fixed-subgroup maps


def _index_map_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance of the 0/1 matrices of two index maps.  A column
    where the maps differ holds one unit entry per map that keeps it, so the
    squared distance is an exact count."""
    differ = a != b
    return float(np.sqrt(np.count_nonzero(a[differ] >= 0)
                         + np.count_nonzero(b[differ] >= 0)))


def _conjugated_map(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Index map of Theta P_g Theta: index j goes to theta[g[theta[j]]]."""
    moved = g[theta]
    return np.where(moved >= 0, theta[moved], -1)


def rp_axioms_check(pairs: Sequence, theta: np.ndarray, mask: np.ndarray,
                    h_maps: Sequence = ()) -> RPAxiomsReport:
    """Check the reflected-conjugation axiom and slice invariance.

    Operators are index maps on the flattened grid (``grid_shift_map``,
    ``grid_reflection_map``) and the slice projector Pi is the boolean
    ``mask`` of its diagonal.  ``pairs`` lists (P_g, P_{tau g}) maps; the
    first axiom is || P_{tau g} - Theta P_g Theta ||, the second
    || (I - Pi) P_h Pi || for the supplied fixed-subgroup maps, both
    Frobenius norms.  A defect is None when nothing was compared.  The
    domain-density axiom has no finite-rank content and is documented only.
    """
    rp1 = [_index_map_distance(tau_g, _conjugated_map(theta, g))
           for g, tau_g in pairs]
    # column j of (I - Pi) P_h Pi is a unit vector when j is in the slice and
    # h moves it to a kept index outside the slice, else zero
    rp2 = [float(np.sqrt(np.count_nonzero(mask & (h >= 0) & ~mask[h])))
           for h in h_maps]
    return RPAxiomsReport(max(rp1, default=None), max(rp2, default=None))

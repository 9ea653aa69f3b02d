import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerflow import distributions as ds
from kerflow import flows as fl
from kerflow import kernels as kk
from kerflow.config import parse_config
from kerflow.runner import run_experiment
from kerflow.errors import DegenerateQuotientError, GridError, PositivityError


@pytest.fixture
def line_grid():
    return ds.TestFunctionGrid(origin=[-3.0], spacing=0.05, shape=(121,))


@pytest.fixture
def ou_smeared(line_grid):
    profile = kk.ou_mixture_profile([1.0], [1.0])
    return ds.SmearedKernel.from_distance_profile(profile, line_grid)


def test_grid_weights_sum_to_length(line_grid):
    assert line_grid.weights().sum() == pytest.approx(6.0)


def test_grid_symmetry(line_grid):
    assert line_grid.is_symmetric()
    off = ds.TestFunctionGrid(origin=[-2.9], spacing=0.05, shape=(121,))
    assert not off.is_symmetric()
    # the reflection needs a grid symmetric along its first axis
    fn = ds.bump(off, [0.7], 0.3)
    sk = ds.SmearedKernel.from_distance_profile(kk.ou_mixture_profile([1.0], [1.0]), off)
    for reflecting in (lambda: ds.reflect(fn), lambda: ds.grid_reflection_map(off),
                       lambda: ds.os_quotient(sk, [fn])):
        with pytest.raises(GridError):
            reflecting()
    # the second axis is never reflected, so it need not be symmetric
    plane = ds.TestFunctionGrid(origin=[-2.0, -0.5], spacing=0.1, shape=(41, 21))
    fn = ds.bump(plane, [0.7, 0.5], 0.3)
    assert np.array_equal(ds.reflect(fn).values, fn.values[::-1])
    assert np.array_equal(ds.grid_reflection_map(plane).reshape(plane.shape)[::-1],
                          np.arange(plane.size).reshape(plane.shape))


def test_grid_rejects_small_margin():
    with pytest.raises(GridError):
        ds.TestFunctionGrid(origin=[0.0], spacing=0.1, shape=(50,), margin=1)


# The support rule by value scans: the reference that the library's support
# boxes (``TestFunction.box`` with ``config.moved_out`` and
# ``config.in_positive_slice``) must agree with.

def _margin_violation(values, margin) -> bool:
    """Whether a value in the outer ``margin`` cells of some axis is not zero."""
    for a in range(values.ndim):
        lo, hi = [slice(None)] * values.ndim, [slice(None)] * values.ndim
        lo[a], hi[a] = slice(0, margin), slice(values.shape[a] - margin, values.shape[a])
        if np.any(values[tuple(lo)] != 0.0) or np.any(values[tuple(hi)] != 0.0):
            return True
    return False


def _zero_fill_shift(values, cells):
    """Integer-cell shift with zero fill: what leaves the grid is dropped, so
    a shift past the extent leaves zeros, as one up to it does."""
    for a, c in enumerate(cells):
        c = max(-values.shape[a], min(c, values.shape[a]))
        rolled = np.zeros_like(values)
        src, dst = [slice(None)] * values.ndim, [slice(None)] * values.ndim
        src[a] = slice(max(0, -c), values.shape[a] - max(0, c))
        dst[a] = slice(max(0, c), values.shape[a] - max(0, -c))
        rolled[tuple(dst)] = values[tuple(src)]
        values = rolled
    return values


def _translate_error(values, cells, margin):
    """The GridError message of a translation by value counts, or None."""
    shifted = _zero_fill_shift(values, cells)
    if np.count_nonzero(shifted) != np.count_nonzero(values):
        return "translation pushed support off the grid"
    return "support touches the margin" if _margin_violation(shifted, margin) else None


def _grid_error(call):
    """The message of the GridError ``call`` raises, or None."""
    try:
        call()
    except GridError as exc:
        return str(exc)
    return None


@st.composite
def _grid_values(draw):
    """A 1-D or 2-D grid and a value array on it: zero, a lone entry on a
    corner, margin or slice edge, or scattered entries, each a number, a NaN
    or -0.0."""
    shape = tuple(draw(st.lists(st.integers(6, 14), min_size=1, max_size=2)))
    margin = draw(st.integers(2, (min(shape) - 2) // 2))
    spacing = draw(st.sampled_from([0.1, 0.25, 1.0]))
    # cell z of the first axis sits at coordinate 0, or just left of it
    z = draw(st.integers(0, shape[0] - 1))
    origin = [-spacing * z + draw(st.sampled_from([0.0, -0.03]))]
    grid = ds.TestFunctionGrid(origin=origin + [-1.0] * (len(shape) - 1), spacing=spacing,
                               shape=shape, margin=margin)
    values = np.zeros(shape)
    entry = st.sampled_from([1.0, -2.5, 1e-300, np.nan, -0.0])
    cell = st.tuples(*(st.integers(0, n - 1) for n in shape))
    edges = [[0, margin - 1, margin, n - 1 - margin, n - 1] for n in shape]
    edges[0] += [z, min(z + 1, shape[0] - 1)]
    corner = st.tuples(*map(st.sampled_from, edges))
    for index in draw(st.sampled_from([[], [corner], [cell, cell, cell]])):
        values[draw(index)] = draw(entry)
    return grid, values


@settings(max_examples=300, deadline=None)
@given(case=_grid_values(), data=st.data())
def test_support_boxes_decide_as_the_value_scans(case, data):
    grid, values = case
    margin = grid.margin
    made = _grid_error(lambda: ds.TestFunction(grid, values))
    assert made == ("support touches the margin" if _margin_violation(values, margin)
                    else None)
    if made is not None:
        return
    fn = ds.TestFunction(grid, values)
    cells = tuple(data.draw(st.integers(-2 * n, 2 * n)) for n in grid.shape)
    assert _grid_error(lambda: ds.translate(fn, cells)) == _translate_error(values, cells,
                                                                            margin)
    if _translate_error(values, cells, margin) is None:
        assert np.array_equal(ds.translate(fn, cells).values, _zero_fill_shift(values, cells),
                              equal_nan=True)
    # the derivative stencil needs two more zero cells than the margin
    flat_field = np.zeros(grid.shape + (grid.ndim,))
    assert _grid_error(lambda: ds.directional_derivative(flat_field, fn)) == (
        "support too close to the margin for the derivative stencil"
        if _margin_violation(values, margin + 2) else None)
    # a negative count is the next error, raised before any pairing
    sk = ds.SmearedKernel(grid, lambda rows, cols: np.zeros((len(rows), len(cols))))
    outside = ~ds.slice_mask(grid)
    assert _grid_error(lambda: ds.reflection_positivity_check(sk, [fn], cells=(-1,))) == (
        "test functions must be supported in the positive slice"
        if np.any(fn.flat[outside]) else "the transfer direction needs t >= 0")


def test_values_are_a_read_only_copy(line_grid):
    # the support box is computed once, so the values must not change under it
    values = np.zeros(line_grid.shape)
    fn = ds.TestFunction(line_grid, values)
    values[60] = 1.0
    assert fn.box is None
    with pytest.raises(ValueError):
        fn.values[60] = 1.0


def test_bump_respects_margin(line_grid):
    fn = ds.bump(line_grid, [0.0], 0.5)
    assert not _margin_violation(fn.values, line_grid.margin)
    with pytest.raises(GridError):
        ds.bump(line_grid, [-2.95], 0.5)


def test_translate_exact_and_guarded(line_grid):
    fn = ds.bump(line_grid, [0.0], 0.4)
    moved = ds.translate(fn, (10,))
    assert np.array_equal(moved.values[10:], fn.values[:-10])
    with pytest.raises(GridError):
        ds.translate(fn, (70,))
    for cells in ((121,), (200,), (-300,)):
        with pytest.raises(GridError):
            ds.translate(fn, cells)


def test_reflect_is_involutive(line_grid):
    fn = ds.bump(line_grid, [0.7], 0.4)
    assert np.array_equal(ds.reflect(ds.reflect(fn)).values, fn.values)


def test_constant_kernel_pairing_is_product_of_integrals(line_grid):
    sk = ds.SmearedKernel.from_matrix(line_grid,
                                      np.ones((line_grid.size, line_grid.size)))
    fn = ds.bump(line_grid, [0.0], 0.5)
    assert sk.pairing(fn, fn) == pytest.approx(fn.integral() ** 2, rel=1e-12)


def test_ou_pairing_distance_decay():
    grid = ds.TestFunctionGrid(origin=[-4.0], spacing=0.05, shape=(161,))
    sk = ds.SmearedKernel.from_distance_profile(kk.ou_mixture_profile([1.0], [1.0]), grid)
    f = ds.bump(grid, [-2.0], 0.4)
    g = ds.bump(grid, [2.0], 0.4)
    off = sk.pairing(f, g)
    approx = np.exp(-4.0) * f.integral() * g.integral()
    assert abs(off - approx) / off <= 0.1


def test_narrow_kernel_separated_bumps_orthogonal(line_grid):
    profile = lambda d: np.exp(-(d / 0.05) ** 2)
    sk = ds.SmearedKernel.from_distance_profile(profile, line_grid)
    f = ds.bump(line_grid, [-1.5], 0.3)
    g = ds.bump(line_grid, [1.5], 0.3)
    assert abs(sk.pairing(f, g)) <= 1e-12


def test_smeared_gram_psd(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [c], 0.3) for c in (-1.0, 0.0, 1.0)]
    model = ds.smeared_gram(ou_smeared, fns)
    assert model.rank == 3
    herm = ou_smeared.hermiticity_defect(fns)
    assert herm <= 1e-12


def test_derivative_integrates_to_zero(line_grid):
    fn = ds.bump(line_grid, [0.0], 0.6)
    X = fl.constant_field([1.0])
    d = ds.distribution_lie_derivative(line_grid, X, fn)
    assert abs(d.integral()) <= 1e-10


def test_derivative_of_zero_field_vanishes(line_grid):
    fn = ds.bump(line_grid, [0.0], 0.6)
    X = fl.constant_field([0.0])
    d = ds.distribution_lie_derivative(line_grid, X, fn)
    assert np.allclose(d.values, 0.0)


def test_derivative_fourth_order_accuracy():
    # halving the spacing cuts the stencil error by about 16x once the mesh
    # resolves the bump's steep edge derivatives
    X = fl.constant_field([1.0])
    width = 2.5
    errors = []
    for n in (481, 961):
        grid = ds.TestFunctionGrid(origin=[-3.0], spacing=6.0 / (n - 1), shape=(n,))
        fn = ds.bump(grid, [0.0], width)
        d = ds.distribution_lie_derivative(grid, X, fn)
        xs = grid.points()[:, 0]
        u = xs / width
        inside = np.abs(u) < 1.0
        exact = np.zeros_like(xs)
        exact[inside] = (np.exp(-1.0 / (1.0 - u[inside] ** 2))
                         * (-2.0 * u[inside] / width) / (1.0 - u[inside] ** 2) ** 2)
        errors.append(np.max(np.abs(d.values - exact)))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)


def test_derivative_margin_guard(line_grid):
    fn = ds.bump(line_grid, [2.75], 0.2)
    X = fl.constant_field([1.0])
    with pytest.raises(GridError):
        ds.distribution_lie_derivative(line_grid, X, fn)


def test_transport_zero_time():
    grid = ds.TestFunctionGrid(origin=[-3.0], spacing=0.025, shape=(241,))
    pts = grid.points()[:, 0]
    sk = ds.SmearedKernel.from_matrix(grid, np.exp(-(pts[:, None] + pts[None, :])))
    base = ds.bump(grid, [0.0], 0.4)
    X = fl.constant_field([1.0])
    res = ds.distribution_froelich_check(sk, X, base, t_cells=0, n_basis=4,
                                         basis_spacing_cells=8)
    assert res.relative_error <= 1e-12


def test_transport_rank_one_kernel():
    # smeared decay kernel e^{-(x+y)}: sections are collinear and the exact
    # translate relation holds to stencil accuracy
    grid = ds.TestFunctionGrid(origin=[-3.0], spacing=0.025, shape=(241,))
    pts = grid.points()[:, 0]
    sk = ds.SmearedKernel.from_matrix(grid, np.exp(-(pts[:, None] + pts[None, :])))
    base = ds.bump(grid, [0.0], 0.4)
    X = fl.constant_field([1.0])
    res = ds.distribution_froelich_check(sk, X, base, t_cells=2, n_basis=4,
                                         basis_spacing_cells=8)
    assert res.relative_error <= 1e-8


def test_transport_sum_kernel_refines():
    X = fl.constant_field([1.0])
    errs = []
    for n, cells in ((121, 8), (241, 16)):
        grid = ds.TestFunctionGrid(origin=[-3.0], spacing=6.0 / (n - 1), shape=(n,))
        pts = grid.points()[:, 0]
        sk = ds.SmearedKernel.from_matrix(grid, np.cosh((pts[:, None] + pts[None, :]) / 2))
        base = ds.bump(grid, [-1.0], 0.3)
        res = ds.distribution_froelich_check(sk, X, base, t_cells=cells,
                                             n_basis=15,
                                             basis_spacing_cells=2 * 240 // (n - 1))
        errs.append(res.relative_error)
    assert errs[0] <= 5e-3
    assert errs[1] < errs[0]


def test_transport_rejects_fractional_cells():
    grid = ds.TestFunctionGrid(origin=[-3.0], spacing=0.05, shape=(121,))
    pts = grid.points()[:, 0]
    sk = ds.SmearedKernel.from_matrix(grid, np.exp(-(pts[:, None] + pts[None, :])))
    base = ds.bump(grid, [0.0], 0.4)
    X = fl.constant_field([1.0])
    with pytest.raises(GridError):
        ds.distribution_froelich_check(sk, X, base, t_cells=2.5)


def test_reflection_positivity_ou(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [0.5], 0.3), ds.bump(line_grid, [1.0], 0.3)]
    report = ds.reflection_positivity_check(ou_smeared, fns)
    assert report.min_ratio >= -1e-12


def test_reflection_positivity_cosine_fails(line_grid):
    sk = ds.SmearedKernel.from_distance_profile(lambda d: np.cos(d), line_grid)
    fns = [ds.bump(line_grid, [0.8], 0.3), ds.bump(line_grid, [2.3], 0.3)]
    report = ds.reflection_positivity_check(sk, fns)
    assert report.min_ratio < -1e-10


def test_reflection_positivity_single_function(ou_smeared, line_grid):
    fn = ds.bump(line_grid, [0.7], 0.3)
    report = ds.reflection_positivity_check(ou_smeared, [fn])
    assert (report.min_ratio >= -1e-10) == (ou_smeared.pairing(ds.reflect(fn), fn) >= 0)


def test_positive_slice_enforced(ou_smeared, line_grid):
    with pytest.raises(GridError):
        ds.reflection_positivity_check(ou_smeared, [ds.bump(line_grid, [-0.5], 0.3)])


def test_quotient_rank_one_factors(ou_smeared, line_grid):
    # reflected pairing of the decay kernel is the exact product of decay
    # integrals: the factor vector is proportional to (e^{-0.5}, e^{-1})
    fns = [ds.bump(line_grid, [0.5], 0.1), ds.bump(line_grid, [1.0], 0.1)]
    space = ds.os_quotient(ou_smeared, fns)
    assert space.model.rank == 1
    assert space.model.gap_ratio <= 1e-10
    T = space.positivity.pairings[0]
    ratio = T[0, 0] / T[0, 1]
    assert ratio == pytest.approx(np.exp(-0.5) / np.exp(-1.0), rel=1e-6)
    assert np.exp(-0.5) == pytest.approx(0.60653, abs=1e-5)
    assert np.exp(-1.0) == pytest.approx(0.36788, abs=1e-5)


def test_quotient_rank_two_mixture(line_grid):
    sk = ds.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5]), line_grid)
    fns = [ds.bump(line_grid, [c], 0.3) for c in (0.5, 1.0, 1.5)]
    space = ds.os_quotient(sk, fns)
    assert space.model.rank == 2


def test_quotient_full_rank_for_invariant_kernel(line_grid):
    pts = line_grid.points()[:, 0]
    sk = ds.SmearedKernel.from_matrix(line_grid,
                                      np.exp(-(pts[:, None] + pts[None, :]) ** 2 / 2))
    fns = [ds.bump(line_grid, [c], 0.3) for c in (1.0, 2.0)]
    space = ds.os_quotient(sk, fns)
    assert space.model.rank == 2


def test_quotient_rank_stable_under_dependent_function(ou_smeared, line_grid):
    f1 = ds.bump(line_grid, [0.5], 0.3)
    f2 = ds.bump(line_grid, [1.0], 0.3)
    combo = ds.TestFunction(line_grid, 0.5 * f1.values + 0.25 * f2.values)
    r2 = ds.os_quotient(ou_smeared, [f1, f2]).model.rank
    r3 = ds.os_quotient(ou_smeared, [f1, f2, combo]).model.rank
    assert r2 == r3


def test_quotient_degenerate_raises(line_grid):
    sk = ds.SmearedKernel.from_matrix(line_grid,
                                      np.zeros((line_grid.size, line_grid.size)))
    with pytest.raises((PositivityError, Exception)):
        ds.os_quotient(sk, [ds.bump(line_grid, [0.5], 0.3)])


def test_transfer_scalar_matches_decay(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [0.5], 0.3), ds.bump(line_grid, [1.0], 0.3)]
    space = ds.os_quotient(ou_smeared, fns, cells=[6])
    sg = ds.os_semigroup(space, [6])[0]     # t = 0.3
    assert sg.matrix.shape == (1, 1)
    assert sg.matrix[0, 0] == pytest.approx(np.exp(-0.3), abs=1e-10)
    assert sg.contraction_defect <= 1e-10
    assert sg.self_adjointness_defect <= 1e-10


def test_transfer_identity_at_zero(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [0.5], 0.3), ds.bump(line_grid, [1.0], 0.3)]
    space = ds.os_quotient(ou_smeared, fns)
    sg = ds.os_semigroup(space, [0])[0]
    assert np.max(np.abs(sg.matrix - np.eye(space.model.rank))) <= 1e-12


def test_transfer_mixture_eigenvalues(line_grid):
    sk = ds.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5]), line_grid)
    fns = [ds.bump(line_grid, [c], 0.3) for c in (0.5, 1.0, 1.5)]
    space = ds.os_quotient(sk, fns, cells=[4, 10])
    for cells in (4, 10):
        t = cells * line_grid.spacing
        S = ds.os_semigroup(space, [cells])[0].matrix
        eigs = np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))[::-1]
        assert np.max(np.abs(eigs - [np.exp(-t), np.exp(-2 * t)])) <= 1e-8


def test_transfer_semigroup_law(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [0.5], 0.3), ds.bump(line_grid, [1.0], 0.3)]
    space = ds.os_quotient(ou_smeared, fns, cells=[4, 6, 10])
    S_s, S_t, S_st = (r.matrix for r in ds.os_semigroup(space, [4, 6, 10]))
    assert ds.semigroup_law_defect(S_s, S_t, S_st) <= 1e-8


def _dense(index_map):
    """0/1 matrix of an index map: column j holds a 1 in row index_map[j]."""
    out = np.zeros((len(index_map), len(index_map)))
    kept = index_map >= 0
    out[index_map[kept], np.flatnonzero(kept)] = 1.0
    return out


def test_grid_operators_are_exact_permutation_conjugates():
    grid = ds.TestFunctionGrid(origin=[-2.0, -1.0], spacing=0.1, shape=(41, 21))
    theta = _dense(ds.grid_reflection_map(grid))
    S = ds.grid_shift_matrix(grid, (3, 0))
    S_neg = ds.grid_shift_matrix(grid, (-3, 0))
    assert np.array_equal(theta @ S @ theta, S_neg)
    fn = ds.bump(grid, [0.7, 0.2], 0.4)
    assert np.array_equal(theta @ fn.flat, ds.reflect(fn).flat)


def _shift_matrix_by_columns(grid, cells):
    """Column j is the zero-fill shift of the j-th unit vector."""
    eye = np.eye(grid.size)
    return np.stack([_zero_fill_shift(eye[:, j].reshape(grid.shape), cells).ravel()
                     for j in range(grid.size)], axis=1)


@pytest.mark.parametrize("shape, cells", [
    ((17,), (3,)), ((17,), (-5,)), ((17,), (0,)), ((17,), (16,)),
    ((11, 8), (2, 0)), ((11, 8), (0, -3)), ((11, 8), (-4, 2)),
    ((11, 8), (3, 5)), ((11, 8), (-10, -7)),
])
def test_grid_shift_matrix_matches_column_construction(shape, cells):
    grid = ds.TestFunctionGrid(origin=[-1.0] * len(shape), spacing=0.1, shape=shape)
    assert np.array_equal(ds.grid_shift_matrix(grid, cells),
                          _shift_matrix_by_columns(grid, cells))


def test_grid_shift_matrix_needs_one_shift_per_axis():
    grid = ds.TestFunctionGrid(origin=[-1.0, -1.0], spacing=0.1, shape=(11, 8))
    with pytest.raises(GridError):
        ds.grid_shift_matrix(grid, (2,))


def test_grid_shift_map_matches_shift_matrix():
    grid = ds.TestFunctionGrid(origin=[-1.0, -1.0], spacing=0.1, shape=(11, 8))
    index = ds.grid_shift_map(grid, (-4, 2))
    assert index.dtype.kind == "i" and np.count_nonzero(index < 0) == 4 * 8 + 7 * 2
    assert np.array_equal(_dense(index), ds.grid_shift_matrix(grid, (-4, 2)))


def test_rp_axioms_identity_element():
    grid = ds.TestFunctionGrid(origin=[-2.0], spacing=0.1, shape=(41,))
    identity = np.arange(grid.size)
    report = ds.rp_axioms_check([(identity, identity)],
                                ds.grid_reflection_map(grid),
                                ds.slice_mask(grid))
    assert report.rp1_max_defect == 0.0
    assert report.rp2_max_defect is None


def test_rp_axioms_translations_2d():
    grid = ds.TestFunctionGrid(origin=[-2.0, -1.0], spacing=0.1, shape=(41, 21))
    pairs = [(ds.grid_shift_map(grid, (k, 0)), ds.grid_shift_map(grid, (-k, 0)))
             for k in (3, 5)]
    h_maps = [ds.grid_shift_map(grid, (0, 2))]
    report = ds.rp_axioms_check(pairs, ds.grid_reflection_map(grid),
                                ds.slice_mask(grid), h_maps)
    assert report.rp1_max_defect <= 1e-12
    assert report.rp2_max_defect <= 1e-12


def test_rp_axioms_compare_nothing_without_operators():
    grid = ds.TestFunctionGrid(origin=[-2.0], spacing=0.1, shape=(41,))
    report = ds.rp_axioms_check([], ds.grid_reflection_map(grid),
                                ds.slice_mask(grid))
    assert report.rp1_max_defect is None and report.rp2_max_defect is None


# shifts along the reflected axis 0 pair correctly only with their negatives,
# so every other pair is broken; a shift towards the hyperplane (negative
# along axis 0) carries slice points out of the slice
@pytest.mark.parametrize("shape, origin, shifts", [
    ((41,), [-2.0], [(3,), (-7,), (0,), (-2,), (40,), (-41,)]),
    ((15, 9), [-0.7, -0.4], [(3, 0), (2, -1), (-5, 0), (0, 5), (-14, 8)]),
])
def test_rp_axioms_maps_match_dense_norms(shape, origin, shifts):
    grid = ds.TestFunctionGrid(origin=origin, spacing=0.1, shape=shape)
    theta_map, mask = ds.grid_reflection_map(grid), ds.slice_mask(grid)
    theta, projector = _dense(theta_map), np.diag(mask.astype(float))
    eye = np.eye(grid.size)
    rp1_values, rp2_values = set(), set()
    for a in shifts:
        P_g = ds.grid_shift_matrix(grid, a)
        rp2_dense = np.linalg.norm((eye - projector) @ P_g @ projector)
        for b in shifts + [tuple(-c for c in a)]:
            report = ds.rp_axioms_check(
                [(ds.grid_shift_map(grid, a), ds.grid_shift_map(grid, b))],
                theta_map, mask, [ds.grid_shift_map(grid, a)])
            P_tau = ds.grid_shift_matrix(grid, b)
            rp1_dense = np.linalg.norm(P_tau - theta @ P_g @ theta)
            assert report.rp1_max_defect == rp1_dense, (a, b)
            assert report.rp2_max_defect == rp2_dense, a
            rp1_values.add(report.rp1_max_defect)
            rp2_values.add(report.rp2_max_defect)
    # the cases reach zero and several nonzero defects of each kind
    assert 0.0 in rp1_values and len(rp1_values) >= 4
    assert 0.0 in rp2_values and len(rp2_values) >= 3


def _double_quadrature(w, f, M, g):
    n = len(w)
    return math.fsum(w[a] * f[a] * M[a, b] * w[b] * g[b]
                     for a in range(n) for b in range(n))


@pytest.mark.parametrize("shape, origin, centers", [
    ((31,), [-1.5], ([-0.4], [0.1], [0.5])),
    ((13, 11), [-0.6, -0.5], ([-0.1, 0.0], [0.1, -0.05], [0.15, 0.05])),
])
def test_pairings_match_double_quadrature(shape, origin, centers):
    grid = ds.TestFunctionGrid(origin=origin, spacing=0.1, shape=shape)
    # a non-symmetric kernel matrix, so a transposed product fails
    M = np.random.default_rng(0).uniform(0.5, 1.5, size=(grid.size, grid.size))
    sk = ds.SmearedKernel.from_matrix(grid, M)
    fs = [ds.bump(grid, c, 0.2) for c in centers]
    gs = [ds.bump(grid, c, 0.15) for c in centers[1:]]
    P = sk.pairings(fs, gs)
    assert P.shape == (3, 2)
    w = grid.weights()
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            ref = _double_quadrature(w, f.flat, M, g.flat)
            assert P[i, j] == pytest.approx(ref, rel=1e-12)
            assert sk.pairing(f, g) == pytest.approx(ref, rel=1e-12)
    assert sk.pairings([], gs).shape == (0, 2)
    other = ds.TestFunctionGrid(origin=np.add(origin, 0.05), spacing=0.1,
                                shape=shape)
    with pytest.raises(GridError):
        sk.pairings(fs, [ds.bump(other, centers[1], 0.15)])


@st.composite
def _smeared_functions(draw, lists=st.just(1)):
    """A 1D or 2D grid symmetric about the origin, a list ``fs`` of test
    functions on it and ``lists`` more lists: bumps, their translates and
    reflections, and zeros."""
    shape = tuple(draw(st.lists(st.integers(13, 25), min_size=1, max_size=2)))
    h = 0.1
    grid = ds.TestFunctionGrid(origin=[-h * (n - 1) / 2 for n in shape],
                               spacing=h, shape=shape)
    hi = grid.origin + h * (np.array(shape) - 1)

    def function():
        width = draw(st.sampled_from([0.15, 0.25]))
        # the support |x - center| < width stays off the margin
        lo_c, hi_c = grid.origin + h * grid.margin + width, hi - h * grid.margin - width
        center = lo_c + (hi_c - lo_c) * np.array(
            draw(st.lists(st.floats(0.0, 1.0), min_size=grid.ndim, max_size=grid.ndim)))
        fn = ds.bump(grid, center, width)
        kind = draw(st.sampled_from(["bump", "translate", "reflect", "zero"]))
        if kind == "zero":
            return ds.TestFunction(grid, np.zeros(shape))
        if kind == "reflect":
            return ds.reflect(fn)
        if kind == "translate":
            cells = draw(st.lists(st.integers(-4, 4), min_size=grid.ndim,
                                  max_size=grid.ndim))
            try:
                return ds.translate(fn, cells)
            except GridError:
                pass
        return fn

    fs, *gss = [[function() for _ in range(draw(st.integers(0, 4)))]
                for _ in range(1 + draw(lists))]
    return grid, fs, gss


def _distance_kernel_matrix(profile, grid):
    """The profile on every pair of grid points, squared distances summed
    axis by axis from 0."""
    pts = grid.points()
    dist = np.zeros((grid.size, grid.size))
    for axis in range(grid.ndim):
        dist += np.subtract.outer(pts[:, axis], pts[:, axis]) ** 2
    return profile(np.sqrt(dist))


@settings(max_examples=40, deadline=None)
@given(case=_smeared_functions())
def test_pairings_evaluate_the_support_block_of_the_dense_kernel(case):
    grid, fs, (gs,) = case
    w = grid.weights()
    F = np.array([f.flat for f in fs]).reshape(len(fs), grid.size) * w
    G = np.array([g.flat for g in gs]).reshape(len(gs), grid.size) * w
    profile = kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5])
    # non-symmetric, so a transposed block or product fails
    M = np.random.default_rng(grid.size).uniform(0.5, 1.5, size=(grid.size, grid.size))
    for sk, reference in ((ds.SmearedKernel.from_distance_profile(profile, grid),
                           _distance_kernel_matrix(profile, grid)),
                          (ds.SmearedKernel.from_matrix(grid, M), M)):
        dense = sk.matrix
        assert np.array_equal(dense, reference)
        blocks = []

        def recorded(rows, cols, block=sk.block):
            blocks.append((rows, cols, block(rows, cols)))
            return blocks[-1][2]

        P = ds.SmearedKernel(grid, recorded).pairings(fs, gs)
        # one block, between the union supports, equal bit for bit to the
        # dense kernel's entries there
        (rows, cols, K), = blocks
        assert np.array_equal(rows, np.flatnonzero(np.any(F != 0.0, axis=0)))
        assert np.array_equal(cols, np.flatnonzero(np.any(G != 0.0, axis=0)))
        assert np.array_equal(K, dense[np.ix_(rows, cols)])
        assert P.shape == (len(fs), len(gs))
        np.testing.assert_allclose(P, F @ dense @ G.T, rtol=1e-12, atol=0.0)


def _recording(sk):
    """``sk`` with a block that records its rows and columns, and the list
    it records into."""
    blocks = []

    def block(rows, cols):
        blocks.append((rows, cols))
        return sk.block(rows, cols)
    return ds.SmearedKernel(sk.grid, block), blocks


@settings(max_examples=40, deadline=None)
@given(case=_smeared_functions(lists=st.integers(0, 3)))
def test_pairings_each_reads_every_list_from_one_union_block(case):
    grid, fs, gss = case
    profile = kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5])
    M = np.random.default_rng(grid.size).uniform(0.5, 1.5, size=(grid.size, grid.size))
    w = grid.weights()

    def weighted(fns):
        return np.array([f.flat for f in fns]).reshape(len(fns), grid.size) * w

    def support(fns):
        return np.flatnonzero(np.any(weighted(fns) != 0.0, axis=0))
    F = weighted(fs)
    for sk in (ds.SmearedKernel.from_distance_profile(profile, grid),
               ds.SmearedKernel.from_matrix(grid, M)):
        recorded, blocks = _recording(sk)
        Ps = recorded.pairings_each(fs, gss)
        (rows, union), = blocks
        assert np.array_equal(rows, support(fs))
        assert np.array_equal(union, np.unique(np.concatenate(
            [np.empty(0, int), *map(support, gss)])))
        assert len(Ps) == len(gss)
        for P, gs in zip(Ps, gss):
            # the same operands as a pairing of this list alone, and as the
            # product over the block of this list's own support
            cols = support(gs)
            lone = F[:, rows] @ sk.block(rows, cols) @ weighted(gs)[:, cols].T
            assert np.array_equal(P, sk.pairings(fs, gs))
            assert np.array_equal(P, lone)


@st.composite
def _os_inputs(draw):
    """A kernel on a 1D or 2D grid, from 1 to 4 bumps in the positive
    slice, and transfer cell counts that keep every translate off the
    margin, always with 0 and a repeat among them.  On the line the kernel
    is an ``ou_mixture``; in the plane, where exp(-m |x - y|) is not
    reflection positive, it is exp(-m |x_0 - y_0|) times a Gaussian in
    x_1 - y_1."""
    masses = draw(st.sampled_from([[1.0], [1.0, 2.0], [0.5, 1.5, 3.0]]))
    if draw(st.booleans()):
        grid = ds.TestFunctionGrid(origin=[-3.0], spacing=0.1, shape=(61,))
        lo, hi, most = [0.35], [1.2], 12
        sk = ds.SmearedKernel.from_distance_profile(
            kk.ou_mixture_profile(masses, [1.0 / len(masses)] * len(masses)), grid)
    else:
        grid = ds.TestFunctionGrid(origin=[-2.0, -1.0], spacing=0.1, shape=(41, 21))
        lo, hi, most = [0.35, -0.5], [0.8, 0.5], 6
        pts = grid.points()

        def block(rows, cols):
            d0, d1 = (np.subtract.outer(pts[rows, a], pts[cols, a]) for a in (0, 1))
            return np.exp(-masses[0] * np.abs(d0) - d1 ** 2)
        sk = ds.SmearedKernel(grid, block)
    centers = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=grid.ndim,
                                     max_size=grid.ndim), min_size=1, max_size=4))
    fns = [ds.bump(grid, np.add(lo, np.multiply(np.subtract(hi, lo), u)), 0.3)
           for u in centers]
    cells = draw(st.lists(st.integers(0, most), min_size=1, max_size=4))
    return sk, fns, [*cells, 0, cells[0]]


@settings(max_examples=30, deadline=None)
@given(case=_os_inputs())
def test_os_semigroup_of_many_counts_equals_one_count_calls(case):
    # one quotient over every count against one quotient per count
    sk, fns, cells = case
    recorded, blocks = _recording(sk)
    many = ds.os_semigroup(ds.os_quotient(recorded, fns, cells=cells), cells)
    assert len(blocks) == 1 and len(many) == len(cells)
    for c, got in zip(cells, many):
        (one,) = ds.os_semigroup(ds.os_quotient(sk, fns, cells=[c]), [c])
        assert np.array_equal(got.matrix, one.matrix)
        assert got.contraction_defect == one.contraction_defect
        assert got.self_adjointness_defect == one.self_adjointness_defect


@pytest.mark.parametrize("shape, origin, centers, shift", [
    ((121,), [-3.0], ([0.5], [1.0], [1.5]), (4,)),
    ((41, 21), [-2.0, -1.0], ([0.5, 0.0], [1.0, 0.2], [0.8, -0.3]), (3, 0)),
])
def test_twisted_gram_and_semigroup_match_entry_definitions(shape, origin,
                                                            centers, shift):
    grid = ds.TestFunctionGrid(origin=origin, spacing=0.05 if len(shape) == 1
                               else 0.1, shape=shape)
    sk = ds.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5]), grid)
    fns = [ds.bump(grid, c, 0.3) for c in centers]
    T = ds.reflection_positivity_check(sk, fns).pairings[0]
    T_ref = np.array([[sk.pairing(ds.reflect(f), g) for g in fns] for f in fns])
    assert np.allclose(T, T_ref, rtol=1e-12, atol=0.0)
    space = ds.os_quotient(sk, fns, cells=[shift[0]])
    assert space.positivity.min_ratio >= -1e-10
    A_ref = np.array([[sk.pairing(ds.reflect(f), ds.translate(g, shift))
                       for g in fns] for f in fns])
    W = space.model.whitening
    S_ref = W @ A_ref @ W.T
    S = ds.os_semigroup(space, [shift[0]])[0].matrix
    assert np.allclose(S, S_ref, rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(line=st.booleans(), data=st.data())
def test_count_zero_pairing_is_the_twisted_gram(line, data):
    # on the grids above, each pairing of the one block is bit for bit the
    # reflected pairing of its list alone; count 0 pairs the functions themselves
    shape, origin, spacing, most = (((121,), [-3.0], 0.05, 24) if line
                                    else ((41, 21), [-2.0, -1.0], 0.1, 6))
    grid = ds.TestFunctionGrid(origin=origin, spacing=spacing, shape=shape)
    sk = ds.SmearedKernel.from_distance_profile(
        kk.ou_mixture_profile([1.0, 2.0], [0.5, 0.5]), grid)
    lo, hi = ([0.35], [1.2]) if line else ([0.35, -0.5], [0.8, 0.5])
    centers = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=grid.ndim,
                                          max_size=grid.ndim), min_size=1, max_size=4))
    fns = [ds.bump(grid, np.add(lo, np.multiply(np.subtract(hi, lo), u)), 0.3)
           for u in centers]
    cells = data.draw(st.lists(st.integers(0, most), max_size=4))
    report = ds.reflection_positivity_check(sk, fns, cells)
    reflected, rest = [ds.reflect(f) for f in fns], (0,) * (grid.ndim - 1)
    assert sorted(report.pairings) == sorted({0, *cells})
    assert np.array_equal(report.pairings[0], sk.pairings(reflected, fns))
    for c, P in report.pairings.items():
        assert np.array_equal(P, sk.pairings(
            reflected, [ds.translate(f, (c,) + rest) for f in fns]))


def test_os_semigroup_needs_a_count_the_space_was_built_with(ou_smeared, line_grid):
    fns = [ds.bump(line_grid, [0.5], 0.3), ds.bump(line_grid, [1.0], 0.3)]
    space = ds.os_quotient(ou_smeared, fns, cells=[4, 6])
    assert len(ds.os_semigroup(space, [0, 4, 6])) == 3
    for cells in ([10], [4, 10], [-4]):
        with pytest.raises(ValueError):
            ds.os_semigroup(space, cells)
    with pytest.raises(GridError):
        ds.os_quotient(ou_smeared, fns, cells=[-4])


def test_os_reconstruct_checks_positivity_once(monkeypatch):
    calls = []
    check = ds.reflection_positivity_check

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(ds, "reflection_positivity_check", counted)
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                    "os_reconstruct_mixture.json"))
    assert run_experiment(cfg).passed
    assert len(calls) == 1


def test_os_reconstruct_computes_each_transfer_time_once(monkeypatch):
    # times 4 and 10 and the law pair (4, 10) need the cell counts 4, 10, 14,
    # all asked for in one call
    calls = []
    semigroup = ds.os_semigroup

    def counted(space, cells):
        calls.append(list(cells))
        return semigroup(space, cells)

    monkeypatch.setattr(ds, "os_semigroup", counted)
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                    "os_reconstruct_mixture.json"))
    assert run_experiment(cfg).passed
    assert calls == [[4, 10, 14]]


def test_os_reconstruct_evaluates_one_kernel_block(monkeypatch):
    # the twisted Gram and every transfer time read one block
    blocks = []
    build = ds.SmearedKernel.from_distance_profile

    def counted(profile, grid):
        recorded, seen = _recording(build(profile, grid))
        blocks.append(seen)
        return recorded

    monkeypatch.setattr(ds.SmearedKernel, "from_distance_profile",
                        staticmethod(counted))
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                    "os_reconstruct_mixture.json"))
    assert run_experiment(cfg).passed
    assert [len(seen) for seen in blocks] == [1]


def test_rank_zero_quotient_raises(ou_smeared, line_grid):
    # a relative cutoff of 1 keeps no eigenvalue of a positive twisted Gram
    with pytest.raises(DegenerateQuotientError):
        ds.os_quotient(ou_smeared, [ds.bump(line_grid, [0.5], 0.3)],
                       rank_cutoff=1.0)

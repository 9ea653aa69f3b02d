import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kerflow import flows as fl
from kerflow.config import FIELD_CATALOG
from kerflow.errors import FlowDomainError
from transport import pushforward


def test_constant_field_endpoint():
    f = fl.constant_field([1.0, 0.0])
    c = fl.integrate_curve(f, [0.0, 0.0], 1.0, 1e-2)
    assert np.allclose(c.endpoint, [1.0, 0.0], atol=1e-12)
    assert not c.terminated_early


def test_rotation_quarter_turn():
    f = fl.rotation_field()
    c = fl.integrate_curve(f, [1.0, 0.0], np.pi / 2, 1e-3)
    assert np.linalg.norm(c.endpoint - [0.0, 1.0]) <= 1e-8


def test_blowup_exits_chart_before_blowup_time():
    # closed form x(t) = x0 / (1 - x0 t) leaves (-inf, 1) at t = (1-x0)/x0
    f = fl.builtin_field("quadratic1d")
    c = fl.integrate_curve(f, [0.5], 2.0, 1e-3)
    assert c.terminated_early
    assert c.exit_reason == fl.EXIT_LEFT_CHART
    exit_time = (1.0 - 0.5) / 0.5
    assert c.times[-1] <= exit_time
    assert c.times[-1] >= exit_time - 5e-3


def test_start_outside_chart_raises():
    f = fl.builtin_field("quadratic1d")
    with pytest.raises(FlowDomainError):
        fl.integrate_curve(f, [1.5], 0.1, 1e-3)


def test_step_failure_on_nonfinite_field():
    chart = fl.full_space(1)
    f = fl.VectorField(chart, lambda p: np.array([np.nan]))
    c = fl.integrate_curve(f, [0.0], 1.0, 1e-2)
    assert c.terminated_early and c.exit_reason == fl.EXIT_STEP_FAILURE


def test_flow_map_identity_at_zero():
    f = fl.rotation_field()
    pts = np.array([[1.0, 2.0], [-0.5, 0.3]])
    out = fl.integrate_batch(f, pts, 0.0)
    assert np.array_equal(out.endpoints, pts)
    assert np.array_equal(out.reached_times, [0.0, 0.0])
    assert out.exit_reasons == (None, None) and out.completed.all()


def test_flow_map_half_turn():
    f = fl.rotation_field()
    out = fl.integrate_batch(f, [[1.0, 0.0]], [np.pi], 1e-3)
    assert np.linalg.norm(out.endpoints[0] - [-1.0, 0.0]) <= 1e-8


def test_flow_map_records_domain_exit():
    f = fl.builtin_field("quadratic1d")
    out = fl.integrate_batch(f, [[0.9], [0.1]], [1.0, 1.0], 1e-3)
    assert out.exit_reasons == (fl.EXIT_LEFT_CHART, None)
    assert list(out.completed) == [False, True]
    # the exiting row stops at its last point inside the chart, before t = 1
    assert f.chart.contains_rows(out.endpoints[:1])[0]
    assert 0.0 < out.reached_times[0] < 1.0 and out.reached_times[1] == 1.0


def _assert_rows_match_curves(field, starts, t_ends, step):
    out = fl.integrate_batch(field, starts, t_ends, step)
    for i, (p, t) in enumerate(zip(starts, t_ends)):
        curve = fl.integrate_curve(field, p, t, step)
        assert np.array_equal(out.endpoints[i], curve.endpoint)
        assert out.reached_times[i] == curve.times[-1]
        assert out.exit_reasons[i] == curve.exit_reason
        assert out.completed[i] == (not curve.terminated_early)


_times = st.floats(-1.5, 1.5) | st.just(0.0)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), _times),
                     min_size=1, max_size=6))
def test_batch_matches_curves_affine(rows):
    # a generic matrix too: a row's rounding must not depend on the batch size
    starts = np.array([[x, y] for x, y, _ in rows])
    t_ends = np.array([t for *_, t in rows])
    for field in (fl.rotation_field(),
                  fl.affine_field([[0.2, -1.1], [0.9, -0.3]], [0.1, 0.7])):
        _assert_rows_match_curves(field, starts, t_ends, 1e-2)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(-0.99, 0.99), st.floats(-4.0, 4.0) | st.just(0.0)),
                     min_size=1, max_size=6))
def test_batch_matches_curves_quadratic1d(rows):
    # x0 / (1 - x0 t) leaves (-inf, 1) for t > 0 and blows up to -inf for
    # t < 0 when x0 < 0, so rows exit, fail or finish in the same batch
    starts = np.array([[x] for x, _ in rows])
    _assert_rows_match_curves(fl.builtin_field("quadratic1d"), starts,
                              np.array([t for _, t in rows]), 1e-2)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-2.0, 2.0), _times),
                     min_size=1, max_size=6))
def test_batch_matches_curves_halfspace_chart(rows):
    # constant drift towards the wall x = 0 and a rotation that crosses it
    starts = np.array([[x, y] for x, y, _ in rows])
    t_ends = np.array([t for *_, t in rows])
    chart = fl.halfspace_chart(2)
    for field in (fl.constant_field([-1.0, 0.0], chart),
                  fl.affine_field([[0.0, 1.0], [-1.0, 0.0]], chart=chart)):
        _assert_rows_match_curves(field, starts, t_ends, 1e-2)


def test_batch_matches_curves_quadratic1d_blowup_and_exit():
    f = fl.builtin_field("quadratic1d")
    starts = np.array([[0.5], [-0.5], [-0.9], [0.0], [0.9]])
    t_ends = np.array([3.0, -50.0, 2.0, 1.0, 0.0])
    out = fl.integrate_batch(f, starts, t_ends, 1e-2)
    assert out.exit_reasons[:2] == (fl.EXIT_LEFT_CHART, fl.EXIT_STEP_FAILURE)
    assert out.completed[2:].all()
    _assert_rows_match_curves(f, starts, t_ends, 1e-2)


def test_batch_matches_curves_for_user_array_callables():
    # a user field and membership that act on (n, d) arrays
    def value(p):
        return np.stack([1.0 + p[..., 1] ** 2, p[..., 0]], axis=-1)

    f = fl.VectorField(fl.ChartDomain(2, lambda p: (p * p).sum(axis=-1) < 1.5), value)
    starts = np.array([[0.5, 0.0], [0.9, 0.3], [-0.2, 0.1], [0.0, 0.0]])
    t_ends = np.array([1.0, -2.0, 0.7, 0.0])
    out = fl.integrate_batch(f, starts, t_ends, 1e-2)
    assert out.exit_reasons[:2] == (fl.EXIT_LEFT_CHART, fl.EXIT_LEFT_CHART)
    assert out.completed[2:].all()
    _assert_rows_match_curves(f, starts, t_ends, 1e-2)


def test_point_callables_are_rejected_by_shape():
    # a map of one point, given a block of rows, runs on the wrong entries:
    # its value, or its one answer for the whole block, has the wrong shape
    block = np.array([[0.1, 0.2], [0.3, -0.4], [-0.5, 0.6]])
    field = fl.VectorField(fl.full_space(2), lambda p: np.array([p[1] ** 2, -p[0]]),
                           name="point_field")
    with pytest.raises(ValueError, match=r"field 'point_field'.*\(2, 2\) where \(3, 2\)"):
        field.rows(block)
    with pytest.raises(ValueError, match="field 'point_field'"):
        fl.integrate_batch(field, block, 0.1, 1e-2)
    chart = fl.ChartDomain(2, lambda p: np.linalg.norm(p) < 1)
    for test in (chart.contains_rows, chart.contains_all):
        with pytest.raises(ValueError, match=r"chart .*<lambda>.*\(\) where \(3,\) belongs"):
            test(block)
    with pytest.raises(ValueError, match="chart"):
        fl.integrate_batch(fl.constant_field([1.0, 0.0], chart), block, 0.1, 1e-2)


@pytest.mark.parametrize("failing_first", [False, True])
def test_batch_step_failure_leaves_other_rows_untouched(failing_first):
    # a field that is infinite on x > 0.5: the row from 0.4 stops there,
    # stays frozen without a warning, and the other runs on to its time,
    # whichever of the two comes first in the batch
    f = _inf_beyond(0.5)
    starts = np.array([[0.4, 0.0], [-2.0, 0.0]])
    reasons = (fl.EXIT_STEP_FAILURE, None)
    if not failing_first:
        starts, reasons = starts[::-1], reasons[::-1]
    t_ends = np.array([1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fl.integrate_batch(f, starts, t_ends, 1e-2)
    assert out.exit_reasons == reasons
    assert np.all(np.isfinite(out.endpoints))
    _assert_rows_match_curves(f, starts, t_ends, 1e-2)


def test_batch_start_outside_chart_raises():
    f = fl.builtin_field("quadratic1d")
    with pytest.raises(FlowDomainError):
        fl.integrate_batch(f, [[0.2], [1.5]], [0.1, 0.1], 1e-3)


def test_pushforward_at_zero_is_identity():
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    assert np.allclose(pushforward(X, 0.0, Y)([0.3, 0.4]), [1.0, 0.0])


def test_pushforward_translation_shifts_shear():
    # X = d/dx, Y = x d/dy: the time-1 transport has value (x - 1) d/dy
    X = fl.constant_field([1.0, 0.0])
    Y = fl.builtin_field("coordinate_shear")
    P = pushforward(X, 1.0, Y, 1e-2)
    for x, y in [(2.0, 5.0), (0.0, 1.0), (-1.5, 0.2)]:
        assert np.allclose(P([x, y]), [0.0, x - 1.0], atol=1e-9)


def test_pushforward_rotation_of_constant():
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    v = pushforward(X, np.pi / 2, Y, 1e-3)([0.2, 0.1])
    assert np.linalg.norm(v - [0.0, 1.0]) <= 1e-7


def test_pushforward_raises_when_either_leg_leaves_the_chart():
    # the backward leg of a drift towards the wall crosses it
    chart = fl.halfspace_chart(2)
    drift = fl.constant_field([-1.0, 0.0], chart)
    with pytest.raises(FlowDomainError, match=r"backward leg .*start point \[0\.05"):
        pushforward(drift, -0.1, fl.constant_field([1.0, 0.0], chart), 1e-2)([0.05, 0.0])
    # one coarse step of x^2 back up from below 0.9999 puts an RK4 stage
    # point past 1, in the flow Jacobian leg
    quad = fl.builtin_field("quadratic1d")
    with pytest.raises(FlowDomainError, match=r"Jacobian leg .*start point \[0\.9999\]"):
        pushforward(quad, 0.1, fl.constant_field([1.0], quad.chart), 0.1)([0.9999])
    # in a batch, the error names the start point of the row that stopped
    with pytest.raises(FlowDomainError, match=r"start point \[0\.95\]"):
        fl.lie_derivative_via_flow(quad, quad, [[0.1], [0.95], [-0.5]], 0.1, 1e-2)


def _flow_jacobians(field, starts, t_ends, step):
    """Flow Jacobians of the rows of ``starts`` from the variational system."""
    d = field.chart.dimension
    z0 = np.hstack([starts, np.tile(np.eye(d).ravel(), (len(starts), 1))])
    out = fl.integrate_batch(fl._variational(field), z0, t_ends, step)
    assert out.completed.all()
    return out.endpoints[:, d:].reshape(-1, d, d)


def test_batched_flow_jacobian_of_affine_field_is_the_exponential():
    from scipy.linalg import expm
    A = np.array([[0.2, -1.1, 0.4], [0.9, -0.3, 0.0], [0.1, 0.5, -0.6]])
    f = fl.affine_field(A, [0.3, -0.2, 0.1])
    starts = np.random.default_rng(2).uniform(-1, 1, size=(6, 3))
    t_ends = np.array([0.5, -0.7, 1.0, -1.0, 0.25, 0.0])
    for J, t in zip(_flow_jacobians(f, starts, t_ends, 1e-3), t_ends):
        assert np.max(np.abs(J - expm(t * A))) <= 1e-10


def test_batched_flow_jacobian_of_quad_swirl_matches_central_differences():
    f = fl.builtin_field("quad_swirl")
    starts = np.random.default_rng(3).uniform(-1, 1, size=(5, 2))
    t_ends, step, eps = np.array([0.6, -0.6, 0.3, 0.4, -0.2]), 1e-3, 1e-5
    J = _flow_jacobians(f, starts, t_ends, step)
    for k, e in enumerate(eps * np.eye(2)):
        plus = fl.integrate_batch(f, starts + e, t_ends, step).endpoints
        minus = fl.integrate_batch(f, starts - e, t_ends, step).endpoints
        assert np.max(np.abs(J[:, :, k] - (plus - minus) / (2 * eps))) <= 1e-6


_BRACKET_PAIRS = (
    (fl.rotation_field(), fl.constant_field([1.0, 0.0])),
    (fl.builtin_field("quad_swirl"), fl.builtin_field("coordinate_shear")),
    (fl.builtin_field("coordinate_shear"), fl.builtin_field("quad_swirl")),
)


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(_BRACKET_PAIRS), h=st.sampled_from([1e-2, 2.5e-3, 0.3]),
       points=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=5))
def test_lie_derivative_on_points_stacks_one_point_calls(pair, h, points):
    X, Y = pair
    points = np.array(points)
    one_by_one = np.stack([fl.lie_derivative_via_flow(X, Y, p, h) for p in points])
    assert np.array_equal(fl.lie_derivative_via_flow(X, Y, points, h), one_by_one)


# a rotation on the half-space x > 0: a long enough flow leaves it
_HALFSPACE_PAIR = (fl.affine_field([[0.0, 1.0], [-1.0, 0.0]], chart=fl.halfspace_chart(2)),
                   fl.constant_field([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(_BRACKET_PAIRS + (_HALFSPACE_PAIR,)),
       rows=st.lists(st.tuples(st.floats(0.02, 1.0), st.floats(-1.0, 1.0),
                               st.sampled_from([1e-2, 2.5e-3, 0.3, 1.5])),
                     min_size=1, max_size=5))
@example(pair=_HALFSPACE_PAIR, rows=[(0.5, 0.0, 1e-2), (0.05, 0.9, 1.5)])
def test_lie_derivative_with_one_h_per_point_stacks_one_h_calls(pair, rows):
    # one h per point gives each point its one-h call's quotient bit for
    # bit; a row that stops in a leg raises, naming its start point as its
    # own call does (the example: (0.05, 0.9) leaves x > 0 within h = 1.5)
    X, Y = pair
    points, hs = np.array([r[:2] for r in rows]), np.array([r[2] for r in rows])
    alone = []
    for point, h in zip(points, hs):
        try:
            alone.append(fl.lie_derivative_via_flow(X, Y, point, h))
        except FlowDomainError as exc:
            alone.append(str(exc))
    raised = [out for out in alone if isinstance(out, str)]
    if raised:
        with pytest.raises(FlowDomainError) as err:
            fl.lie_derivative_via_flow(X, Y, points, hs)
        assert str(err.value) in raised
    else:
        assert _same(fl.lie_derivative_via_flow(X, Y, points, hs), np.stack(alone))


def test_bracket_shear():
    X = fl.constant_field([1.0, 0.0])
    Y = fl.builtin_field("coordinate_shear")
    assert np.allclose(fl.lie_bracket(X, Y)([3.0, -2.0]), [0.0, 1.0])


def test_bracket_antisymmetry_diagonal():
    X = fl.rotation_field()
    assert np.allclose(fl.lie_bracket(X, X)([0.7, -0.4]), [0.0, 0.0], atol=1e-12)


def test_bracket_rotation_translation():
    # dY X = 0 and -dX e1 = -(0, 1): the bracket is the constant field (0, -1)
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    for p in ([2.0, 3.0], [0.0, 0.0], [-1.0, 5.0]):
        assert np.allclose(fl.lie_bracket(X, Y)(p), [0.0, -1.0], atol=1e-12)


def test_lie_derivative_flow_matches_bracket():
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    est = fl.lie_derivative_via_flow(X, Y, [2.0, 3.0], 1e-3)
    assert np.linalg.norm(est - [0.0, -1.0]) <= 1e-6


def test_lie_derivative_flow_zero_for_equal_constants():
    X = fl.constant_field([0.3, -0.2])
    est = fl.lie_derivative_via_flow(X, X, [0.0, 0.0], 1e-3)
    assert np.linalg.norm(est) <= 1e-10


def test_lie_derivative_flow_second_order():
    X = fl.rotation_field()
    Y = fl.builtin_field("coordinate_shear")
    bracket = fl.lie_bracket(X, Y)
    p = np.array([0.4, -0.7])
    errs = [np.linalg.norm(fl.lie_derivative_via_flow(X, Y, p, h) - bracket(p))
            for h in (1e-2, 5e-3, 2.5e-3)]
    order = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
    assert 1.8 <= order <= 2.2


@settings(max_examples=20, deadline=None)
@given(s=st.floats(-1.0, 1.0), t=st.floats(-1.0, 1.0),
       x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
def test_flow_law_rotation(s, t, x, y):
    f = fl.rotation_field()
    p = np.array([x, y])
    mid = fl.integrate_curve(f, p, s, 1e-3)
    ab = fl.integrate_curve(f, mid.endpoint, t, 1e-3)
    direct = fl.integrate_curve(f, p, s + t, 1e-3)
    assert np.linalg.norm(ab.endpoint - direct.endpoint) <= 1e-8


@settings(max_examples=15, deadline=None)
@given(t=st.floats(0.05, 1.0), x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0))
def test_inverse_law_rotation(t, x, y):
    f = fl.rotation_field()
    p = np.array([x, y])
    fwd = fl.integrate_curve(f, p, t, 1e-3)
    back = fl.integrate_curve(f, fwd.endpoint, -t, 1e-3)
    assert np.linalg.norm(back.endpoint - p) <= 1e-8


def test_jacobi_identity():
    rng = np.random.default_rng(42)
    X = fl.rotation_field()
    Y = fl.builtin_field("coordinate_shear")
    Z = fl.builtin_field("quad_swirl")
    xyz = fl.lie_bracket(X, fl.lie_bracket(Y, Z))
    yzx = fl.lie_bracket(Y, fl.lie_bracket(Z, X))
    zxy = fl.lie_bracket(Z, fl.lie_bracket(X, Y))
    for p in rng.uniform(-1, 1, size=(10, 2)):
        total = xyz(p) + yzx(p) + zxy(p)
        assert np.linalg.norm(total) <= 1e-6


def test_analytic_jacobian_matches_central_differences():
    rng = np.random.default_rng(6)
    for field in (fl.rotation_field(), fl.builtin_field("quad_swirl")):
        fd = fl.VectorField(field.chart, field.func)   # forces the fallback
        for p in rng.uniform(-1, 1, size=(5, 2)):
            rel = np.abs(field.jac(p) - fd.jac(p)) / (np.abs(field.jac(p)) + 1.0)
            assert np.max(rel) <= 1e-8


def test_linear_field_flow_matches_exponential():
    from scipy.linalg import expm
    D = np.array([[0.2, -1.1], [0.9, -0.3]])
    f = fl.affine_field(D)
    rng = np.random.default_rng(0)
    for p in rng.uniform(-1, 1, size=(5, 2)):
        for t in (0.5, 1.0, -0.7):
            c = fl.integrate_curve(f, p, t, 1e-3)
            assert np.linalg.norm(c.endpoint - expm(t * D) @ p) <= 1e-8


def test_batch_path_ends_with_the_first_row_to_stop():
    # quadratic1d leaves its chart (-inf, 1) at t = 1/x0 - 1 for x0 > 0
    field = fl.builtin_field("quadratic1d")
    starts = [[0.5], [-0.5], [0.8]]
    path = []
    flow = fl.integrate_batch(field, starts, 1.0, 0.01, path)
    curves = [fl.integrate_curve(field, s, 1.0, 0.01) for s in starts]
    k = min(len(c.times) for c in curves)
    assert len(path) == k < len(curves[1].times)
    times = np.array([t for t, _ in path])
    points = np.array([p for _, p in path])
    for i, curve in enumerate(curves):
        assert np.array_equal(times[:, i], curve.times[:k])
        assert np.array_equal(points[:, i], curve.points[:k])
        assert np.array_equal(flow.endpoints[i], curve.endpoint)


# Reference RK4 loop: every row takes every step, a finished or stopped row
# with h = 0, and every stage tests each row; ``step`` is one float or one
# per row.  The library loop, which advances only the rows still running and
# skips the stage chart tests that cannot stop a row, must match it bit for
# bit.
def _ref_stop(live, ok, reason, reasons):
    for i in (live & ~ok).nonzero()[0]:
        reasons[i] = reason
    live &= ok


def _ref_stage(field, q, live, reasons):
    inside = field.chart.contains_rows(q)
    v = field.rows(q)
    ok = inside & (np.einsum("ij,ij->i", v, v) <= fl.BLOWUP_NORM ** 2)
    if not ok.all():
        _ref_stop(live, inside, fl.EXIT_LEFT_CHART, reasons)
        _ref_stop(live, ok, fl.EXIT_STEP_FAILURE, reasons)
    return v


def _ref_advance(field, p, t_end, step, path=None):
    sign, total = np.where(t_end >= 0.0, 1.0, -1.0), np.abs(t_end)
    slack = 1e-15 * np.maximum(1.0, total)
    t, reasons = np.zeros(len(p)), [None] * len(p)
    live = total - t > slack
    while live.any():
        h = np.where(live, sign * np.minimum(step, total - t), 0.0)[:, None]
        k1 = _ref_stage(field, p, live, reasons)
        k2 = _ref_stage(field, p + 0.5 * h * k1, live, reasons)
        k3 = _ref_stage(field, p + 0.5 * h * k2, live, reasons)
        k4 = _ref_stage(field, p + h * k3, live, reasons)
        p_new = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _ref_stop(live, field.chart.contains_rows(p_new), fl.EXIT_LEFT_CHART, reasons)
        p = np.where(live[:, None], p_new, p)
        t = np.where(live, t + np.abs(h[:, 0]), t)
        if path is not None and live.all():
            path.append((sign * t, p))
        live &= total - t > slack
    return fl.BatchFlow(p, sign * t, tuple(reasons),
                        np.array([r is None for r in reasons], dtype=bool))


def _same(a, b):
    """Equal bit for bit: dtype, shape and every byte (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_flow(got, want, got_path, want_path):
    assert _same(got.endpoints, want.endpoints)
    assert _same(got.reached_times, want.reached_times)
    assert got.exit_reasons == want.exit_reasons
    assert _same(got.completed, want.completed)
    assert len(got_path) == len(want_path)
    for (ta, pa), (tb, pb) in zip(got_path, want_path):
        assert _same(ta, tb) and _same(pa, pb)


def _ball(dimension, radius):
    """The open ball: a chart whose boundary is curved."""
    return fl.ChartDomain(dimension, lambda p: (p * p).sum(axis=-1) < radius ** 2)


def _inf_beyond(x0):
    # infinite for x > x0: a step failure at a stage point
    def value(p):
        return np.stack([np.ones_like(p[..., 0]),
                         np.where(p[..., 0] > x0, np.inf, p[..., 0])], axis=-1)
    return fl.VectorField(fl.full_space(2), value)


_quad = fl.builtin_field("quadratic1d")
_halfspace = fl.halfspace_chart(2)
# (field, range of each start coordinate); coarse steps put stage points
# outside the chart before the new point leaves it
_ORACLE_CASES = {
    "rotation": (fl.rotation_field(), (-1.0, 1.0)),
    "affine": (fl.affine_field([[0.2, -1.1], [0.9, -0.3]], [0.1, 0.7]), (-1.0, 1.0)),
    "box-drift": (fl.constant_field([0.7, -0.4], fl.box_chart([-1.0, -1.0], [1.0, 1.0])),
                  (-0.95, 0.95)),
    "box-rotation": (fl.affine_field([[0.0, -1.0], [1.0, 0.0]],
                                     chart=fl.box_chart([-1.0, -np.inf], [1.0, np.inf])),
                     (-0.9, 0.9)),
    "halfspace-drift": (fl.constant_field([-1.0, 0.0], _halfspace), (0.05, 2.0)),
    "halfspace-rotation": (fl.affine_field([[0.0, 1.0], [-1.0, 0.0]], chart=_halfspace),
                           (0.05, 2.0)),
    "quadratic1d": (_quad, (-0.99, 0.99)),
    "ball": (fl.affine_field([[0.3, -1.0], [1.0, 0.1]], chart=_ball(2, 1.2)), (-0.8, 0.8)),
    "inf": (_inf_beyond(0.5), (-1.0, 0.45)),
    # whole-space affine fields, whose countdowns may drop their guards:
    # a generic bounded one, one whose values cross BLOWUP_NORM within a
    # leg and one whose values end near it
    "affine-3d": (fl.affine_field([[0.3, -1.2, 0.4], [0.8, 0.1, -0.5], [-0.6, 0.9, -0.2]],
                                  [0.2, -0.3, 0.5]), (-1.0, 1.0)),
    "blowup": (fl.affine_field(40.0 * np.eye(2)), (-1.0, 1.0)),
    "near-blowup": (fl.affine_field(27.0 * np.eye(2)), (-0.03, 0.03)),
}


def _ref_legs(field, p, t_ends, step):
    """Legs as one-leg reference runs chained, each from the endpoints of the
    one before; a row that stopped keeps its point and exit reason in its
    later legs, at time 0 of their sign."""
    legs = []
    for leg in t_ends.T:
        flow = _ref_advance(field, p.copy(), leg, step)
        if legs:
            ended = ~legs[-1].completed
            flow = fl.BatchFlow(
                np.where(ended[:, None], p, flow.endpoints),
                np.where(ended, np.where(leg >= 0.0, 0.0, -0.0), flow.reached_times),
                tuple(b if e else r for e, b, r in zip(ended, legs[-1].exit_reasons,
                                                       flow.exit_reasons)),
                flow.completed & ~ended)
        legs.append(flow)
        p = flow.endpoints
    return fl.BatchFlow(np.stack([f.endpoints for f in legs], 1),
                        np.stack([f.reached_times for f in legs], 1),
                        tuple(zip(*(f.exit_reasons for f in legs))),
                        np.stack([f.completed for f in legs], 1))


def _draw_steps(data, n, sizes):
    """One step for all n rows, as a float, or one per row, as (n,)."""
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(sizes))
    return np.array(data.draw(st.lists(st.sampled_from(sizes), min_size=n, max_size=n)))


def _draw_times(data, steps, n, legs, multiples):
    """(n, legs) signed times, each row's special times the given multiples
    of its own step."""
    rows = []
    for step in np.broadcast_to(steps, (n,)):
        times = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0] + [m * step for m in multiples])
        rows.append(data.draw(st.lists(times, min_size=legs, max_size=legs)))
    return np.array(rows).reshape(n, legs)


class _Replay:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the
    next of the given values, in a cycle."""

    def __init__(self, *values):
        self._values = itertools.cycle(values)

    def draw(self, strategy):
        return next(self._values)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(_ORACLE_CASES)),
       legs=st.integers(0, 3), record=st.booleans())
# draws: 3 rows, their starts, one step 1e-2 for all, and each row's time.
# The values 40 x of the first and last rows cross BLOWUP_NORM in
# mid-countdown, at t of about 0.6 and 0.7 of a leg of 1, and the middle
# row contracts: a countdown proof that forgot the growth of |x| would run
# the two past the bound
@example(data=_Replay(3, [[1.0, 0.0], [0.5, -0.5], [0.01, 0.0]], True, 1e-2,
                      [1.0], [-1.0], [1.0]),
         case="blowup", legs=0, record=True)
def test_rk4_loop_matches_the_reference_loop(data, case, legs, record):
    # legs 0 is a one-leg batch, times (n,), whose path may be recorded;
    # else each row runs that many legs, times (n, legs), chained; the step
    # is one for all rows or one per row
    field, (lo, hi) = _ORACLE_CASES[case]
    d = field.chart.dimension
    n = data.draw(st.integers(1, 6))
    starts = np.array(data.draw(st.lists(st.lists(st.floats(lo, hi), min_size=d, max_size=d),
                                         min_size=n, max_size=n)))
    step = _draw_steps(data, n, [1e-2, 0.07, 0.3])
    t_ends = _draw_times(data, step, n, max(legs, 1), [2.5, -1.0])
    record = record and not legs
    got_path, want_path = ([], []) if record else (None, None)
    with np.errstate(all="ignore"):
        if legs:
            got = fl._advance([(field, n)], starts.copy(), t_ends, step)
            want = _ref_legs(field, starts.copy(), t_ends, step)
        else:
            got = fl._advance([(field, n)], starts.copy(), t_ends[:, 0], step, got_path)
            want = _ref_advance(field, starts.copy(), t_ends[:, 0], step, want_path)
    _assert_same_flow(got, want, got_path or [], want_path or [])


def _guarded_steps(monkeypatch, run):
    """The result of ``run()``, and per RK4 step whether it kept its guards."""
    steps, stage = [], fl._stage

    def counted(*args):
        steps.append(args[5])
        return stage(*args)

    monkeypatch.setattr(fl, "_stage", counted)
    out = run()
    monkeypatch.undo()
    # the four stages of a step agree
    assert steps == [g for g in steps[::4] for _ in range(4)]
    return out, steps[::4]


@pytest.mark.parametrize("A, starts, reason", [
    # the value 40 x passes BLOWUP_NORM at t of about 0.6 to 0.7, inside the
    # first countdown
    (40.0, [[1.0, 0.0], [0.5, -0.5], [0.01, 0.0]], fl.EXIT_STEP_FAILURE),
    # the value 27 x ends at 0.43 BLOWUP_NORM or less
    (27.0, [[0.03, 0.0], [0.0, -0.03], [0.02, 0.02]], None),
])
def test_guards_that_can_trip_still_trip_at_the_same_step(monkeypatch, A, starts, reason):
    # the proof refuses these countdowns, so each row stops where, and for
    # the reason that, the reference loop says; a bound that forgot the
    # growth of |x| would let the first block run past BLOWUP_NORM
    field, starts, t_ends = fl.affine_field(A * np.eye(2)), np.array(starts), np.ones(3)
    got_path, want_path = [], []
    with np.errstate(all="ignore"):
        got, guarded = _guarded_steps(monkeypatch, lambda: fl._advance(
            [(field, 3)], starts.copy(), t_ends, 1e-2, got_path))
        want = _ref_advance(field, starts.copy(), t_ends, 1e-2, want_path)
    _assert_same_flow(got, want, got_path, want_path)
    assert got.exit_reasons == (reason,) * 3
    assert all(guarded)
    # a tenth of the leg, far from the bound, runs its countdown unguarded
    with np.errstate(all="ignore"):
        _, short = _guarded_steps(monkeypatch, lambda: fl._advance(
            [(field, 3)], starts.copy(), 0.1 * t_ends, 1e-2))
    assert short.count(True) == 4 and len(short) == 10


def test_a_membership_chart_keeps_every_guard(monkeypatch):
    # the same affine field on the whole space runs its countdowns unguarded
    ball = _ORACLE_CASES["ball"][0]
    starts, t_ends = np.array([[0.1, 0.2], [-0.3, 0.0]]), np.array([0.5, -0.5])
    for field, unguarded in ((ball, 0), (dataclasses.replace(ball, chart=fl.full_space(2)), 46)):
        _, guarded = _guarded_steps(monkeypatch, lambda: fl.integrate_batch(
            field, starts, t_ends, 1e-2))
        assert len(guarded) == 50 and guarded.count(False) == unguarded


def test_the_proof_refuses_a_bound_just_above_the_limit():
    # |A|_F 1, b 0 and a step too short to grow anything: 4 |x| against
    # BLOWUP_NORM, exact in floats
    limit = fl.BLOWUP_NORM / 4.0
    a = np.array([1e-300])
    assert fl._guards_idle((1.0, 0.0), np.array([[limit]]), a, 5)
    assert not fl._guards_idle((1.0, 0.0), np.array([[np.nextafter(limit, np.inf)]]), a, 5)
    # b alone meets the same limit, and an exponent past 600 refuses
    # before exp could overflow
    assert fl._guards_idle((0.0, limit), np.zeros((1, 1)), a, 5)
    assert not fl._guards_idle((0.0, np.nextafter(limit, np.inf)), np.zeros((1, 1)), a, 5)
    assert not fl._guards_idle((1.0, 0.0), np.ones((1, 1)), np.array([1.0]), 600)
    assert not fl._guards_idle(None, np.ones((1, 1)), a, 5)


def _assert_groups_match_own_batches(groups, starts, t_ends, step):
    """One loop over the groups gives each row its own field's batch flow;
    ``step`` is one float or one per row of the groups."""
    edges = np.cumsum([0] + [n for _, n in groups])
    steps = np.split(step, edges[1:-1]) if np.ndim(step) else [step] * len(groups)
    with np.errstate(all="ignore"):
        got = fl.integrate_groups(groups, np.concatenate(starts), np.concatenate(t_ends), step)
        wants = [fl.integrate_batch(field, p, t, own)
                 for (field, _), p, t, own in zip(groups, starts, t_ends, steps)]
    for want, lo, hi in zip(wants, edges, edges[1:]):
        _assert_same_flow(fl.BatchFlow(*(part[lo:hi] for part in got)), want, [], [])


# the 2-D cases by chart: full space (rotation, affine, inf), two boxes, one
# half-space and a ball; box-drift and halfspace-drift are constant fields
_GROUP_CASES = sorted(name for name, (field, _) in _ORACLE_CASES.items()
                      if field.chart.dimension == 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), legs=st.integers(0, 3))
def test_groups_in_one_loop_match_each_fields_own_batch(data, legs):
    # several fields in one RK4 loop, each on its own contiguous rows, give
    # each row the flow of its own field's batch; 300 steps let the
    # countdown run, a group may have no rows, and the step is one for all
    # rows or one per row
    names = data.draw(st.lists(st.sampled_from(_GROUP_CASES), min_size=2, max_size=4))
    groups, starts = [], []
    for name in names:
        field, (lo, hi) = _ORACLE_CASES[name]
        n = data.draw(st.integers(0, 4))
        starts.append(np.array(data.draw(st.lists(st.lists(st.floats(lo, hi), min_size=2,
                                                           max_size=2),
                                                  min_size=n, max_size=n))).reshape(n, 2))
        groups.append((field, n))
    edges = np.cumsum([0] + [n for _, n in groups])
    step = _draw_steps(data, int(edges[-1]), [1e-2, 0.07])
    t_ends = _draw_times(data, step, int(edges[-1]), max(legs, 1), [-1.0, 300.0])
    if not legs:
        t_ends = t_ends[:, 0]
    _assert_groups_match_own_batches(groups, starts, np.split(t_ends, edges[1:-1]), step)


def test_integrate_groups_checks_its_groups_and_starts():
    fields = [(fl.rotation_field(), 1), (_quad, 1)]
    with pytest.raises(ValueError, match="one dimension"):
        fl.integrate_groups(fields, [[0.1, 0.2], [0.3, 0.4]], 1.0)
    with pytest.raises(ValueError, match="every row"):
        fl.integrate_groups(fields[:1], [[0.1, 0.2], [0.3, 0.4]], 1.0)
    with pytest.raises(FlowDomainError, match="outside the chart"):
        fl.integrate_groups([(fl.rotation_field(), 1), (_ORACLE_CASES["ball"][0], 1)],
                            [[0.1, 0.2], [2.0, 0.0]], 1.0)
    # a step is one positive float or one per row
    for step in (0.0, [0.1], [0.1, -0.1], [0.1, np.nan], [[0.1, 0.1]]):
        with pytest.raises(ValueError, match="one positive float or"):
            fl.integrate_groups(fields[:1] * 2, [[0.1, 0.2], [0.3, 0.4]], 1.0, step)


def test_legs_after_a_stop_or_of_length_zero():
    # quadratic1d leaves (-inf, 1) from 0.5 at t = 1: the first row stops in
    # its second leg and ends the third there; the second row's zero legs,
    # the first one included, leave it where it is
    field = _quad
    starts = np.array([[0.5], [-0.5]])
    t_ends = np.array([[0.5, 2.0, -0.5], [0.0, -0.25, -0.0]])
    flow = fl.integrate_batch(field, starts, t_ends, 1e-2)
    want = _ref_legs(field, starts, t_ends, 1e-2)
    _assert_same_flow(flow, want, [], [])
    assert flow.exit_reasons == ((None, fl.EXIT_LEFT_CHART, fl.EXIT_LEFT_CHART),
                                 (None, None, None))
    assert flow.completed.tolist() == [[True, False, False], [True, True, True]]
    assert _same(flow.endpoints[0, 2], flow.endpoints[0, 1])
    assert _same(flow.endpoints[1, 0], starts[1]) and _same(flow.endpoints[1, 2],
                                                            flow.endpoints[1, 1])
    # each leg is a fresh batch from where the last one ended
    second = fl.integrate_batch(field, flow.endpoints[:, 0], t_ends[:, 1], 1e-2)
    assert _same(second.endpoints, flow.endpoints[:, 1])
    with pytest.raises(ValueError, match="path follows one leg"):
        fl.integrate_batch(field, starts, t_ends, 1e-2, [])
    # each leg's slack absorbs the rounding of its summed steps: nine steps
    # of 0.1 reach 0.8999999999999999, and no microstep follows
    field, starts = fl.rotation_field(), np.array([[0.5, 0.0], [0.0, -0.5]])
    t_ends = np.array([[0.9, 0.9], [-0.9, 0.9]])
    flow = fl.integrate_batch(field, starts, t_ends, 0.1)
    _assert_same_flow(flow, _ref_legs(field, starts, t_ends, 0.1), [], [])
    assert flow.reached_times[0].tolist() == [0.8999999999999999] * 2


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 5))
def test_affine_map_of_a_block_is_the_map_of_its_rows(data, d):
    # the RK4 loop and its legs evaluate a row inside blocks that change as
    # rows finish or stop: a row's value must not depend on the rows beside it
    entries = st.floats(-10.0, 10.0)
    matrix = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                min_size=d, max_size=d))
    field = fl.affine_field(matrix, data.draw(st.lists(entries, min_size=d, max_size=d)))
    n = data.draw(st.integers(1, 40))
    block = np.array(data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                                 max_size=d), min_size=n, max_size=n)))
    values = field.block(block)
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assert _same(field.block(block[rows]), values[rows])
    for point, value in zip(block, values):
        assert _same(field.block(point[None])[0], value) and _same(field(point), value)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 9), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       stacked=st.booleans())
def test_matvec_is_the_stacked_matmul_bit_for_bit(d, n, seed, stacked):
    # the affine value map np.matvec(A, p) + b rounds each row as the
    # product per point (A @ p[..., None])[..., 0] does, for one A or one
    # per row, and a row's bits do not depend on the rows beside it
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d, d) if stacked else (d, d)) * 10.0 ** rng.integers(-3, 4)
    p = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
    got = np.matvec(A, p)
    assert _same(got, (A @ p[..., None])[..., 0])
    rows = rng.random(n) < 0.5
    assert _same(np.matvec(A[rows] if stacked else A, p[rows]), got[rows])
    for i in range(n):
        assert _same(np.matvec(A[i] if stacked else A, p[i]), got[i])


def _first_block_value(groups):
    """The value map of the block of every row of the groups."""
    edges = np.cumsum([0] + [n for _, n in groups])
    return fl._block_maps([f for f, _ in groups], edges, np.arange(edges[-1])).value


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), step=st.sampled_from([1e-2, 0.07]),
       legs=st.integers(1, 3))
def test_affine_groups_share_one_product_bit_for_bit(data, d, step, legs):
    # a block of affine fields evaluates one stacked product; each row still
    # gets its own field's flow, through zero legs and stops at a half-space
    # or box chart or by a blow-up
    charts = {"full": fl.full_space(d), "halfspace": fl.halfspace_chart(d),
              "box": fl.box_chart([-1.5] * d, [1.5] * d)}
    entries = st.floats(-2.0, 2.0)
    times = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, -step, 300 * step])
    groups, starts, t_ends = [], [], []
    for _ in range(data.draw(st.integers(1, 3))):
        chart = data.draw(st.sampled_from(sorted(charts)))
        matrix = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                    min_size=d, max_size=d))
        field = fl.affine_field(matrix, data.draw(st.lists(entries, min_size=d, max_size=d)),
                                charts[chart])
        n = data.draw(st.integers(0, 4))
        lo = 0.05 if chart == "halfspace" else -1.0
        starts.append(np.array(data.draw(st.lists(st.lists(st.floats(lo, 1.0), min_size=d,
                                                           max_size=d),
                                                  min_size=n, max_size=n))).reshape(n, d))
        t_ends.append(np.array(data.draw(st.lists(st.lists(times, min_size=legs,
                                                           max_size=legs),
                                                  min_size=n, max_size=n))).reshape(n, legs))
        groups.append((field, n))
    _assert_groups_match_own_batches(groups, starts, t_ends, step)
    # the stacked A must be in C order, as each field's own: in another
    # layout the product may round a row differently
    held = [(field, n) for field, n in groups if n]
    if len(held) > 1:
        A, b = _first_block_value(held).args
        assert A.flags.c_contiguous and A.shape == (sum(n for _, n in held), d, d)
        assert b.shape == A.shape[:2]


@pytest.mark.parametrize("other", ["constant", "quad_swirl"])
def test_affine_beside_a_general_field_keeps_the_per_group_map(other):
    # a field without (A, b) keeps the per-group map, and each row its own flow
    general = fl.builtin_field(other, _FIELD_PARAMS.get(other))
    assert general.affine is None
    affine = fl.affine_field([[0.2, -1.1], [0.9, -0.3]], [0.1, 0.7])
    groups = [(affine, 3), (general, 2), (fl.rotation_field(), 2)]
    rng = np.random.default_rng(7)
    starts = [rng.uniform(-0.9, 0.9, size=(n, 2)) for _, n in groups]
    t_ends = [np.column_stack([rng.uniform(-1.0, 1.0, n), np.zeros(n), rng.uniform(-1.0, 1.0, n)])
              for _, n in groups]
    _assert_groups_match_own_batches(groups, starts, t_ends, 1e-2)
    assert not isinstance(_first_block_value(groups), functools.partial)
    assert isinstance(_first_block_value([groups[0], groups[2]]), functools.partial)


def test_affine_fields_carry_their_matrix_and_offset():
    # rotation2d and coordinate_shear inherit (A, b); == never compares it
    rotation, shear = fl.rotation_field(), fl.builtin_field("coordinate_shear")
    assert _same(rotation.affine[0], np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert _same(shear.affine[0], np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert _same(shear.affine[1], np.zeros(2))
    assert rotation == dataclasses.replace(rotation, affine=None)
    assert fl.builtin_field("constant", {"vector": [1.0, 0.0]}).affine is None


def test_reference_oracle_cases_reach_every_exit():
    # rows stop at a stage point, at a new point and by a blow-up while the
    # others finish, in one batch that starts with every row running
    biggest = np.finfo(float).max
    cases = [(_quad, [[0.95], [-0.9], [0.1]], [0.5, -30.0, 1.0], 0.3),
             (_ORACLE_CASES["halfspace-drift"][0], [[0.05, 0.0], [1.0, 0.0]], [1.0, 0.5], 1e-2),
             (_inf_beyond(0.5), [[0.4, 0.0], [-1.0, 0.0]], [1.0, 1.0], 1e-2),
             # a stage point that overflows to inf has left the full space
             (fl.constant_field([1.0]), [[biggest], [0.0]], [1e300, 1e300], 1e300),
             # so has one whose field value, 1e-300 x, is within bound: with
             # a step this long the whole-space stage chart test still runs
             (fl.affine_field([[1e-300]]), [[biggest], [0.0]], [1e300, 1e300], 1e300)]
    seen = set()
    for field, starts, t_ends, step in cases:
        got_path, want_path = [], []
        with np.errstate(all="ignore"):
            got = fl._advance([(field, len(starts))], np.array(starts), np.array(t_ends),
                             step, got_path)
            want = _ref_advance(field, np.array(starts), np.array(t_ends), step, want_path)
        _assert_same_flow(got, want, got_path, want_path)
        assert not got.completed.all()
        seen.update(got.exit_reasons)
    assert seen == {None, fl.EXIT_LEFT_CHART, fl.EXIT_STEP_FAILURE}


# Reference variational system: one Python call per row per stage.  The
# stacked system must match it bit for bit.
def _ref_variational(field):
    d, chart = field.chart.dimension, field.chart

    def one(z):
        p, J = z[:d], z[d:].reshape(d, d)
        return np.concatenate([field.rows(p[None])[0], (field.jac(p) @ J).ravel()])

    inside = None if chart.membership is None else lambda z: chart.membership(z[:, :d])
    return fl.VectorField(fl.ChartDomain(d + d * d, inside),
                          lambda z: np.array([one(zi) for zi in z]).reshape(z.shape))


def _ref_pushforward_rows(field_x, t, field_y, points, step):
    d = field_x.chart.dimension
    q = fl.integrate_batch(field_x, points, -t, step).endpoints
    z0 = np.hstack([q, np.tile(np.eye(d).ravel(), (len(q), 1))])
    J = fl.integrate_batch(_ref_variational(field_x), z0, t, step).endpoints[:, d:]
    return np.array([Ji @ field_y(qi) for Ji, qi in zip(J.reshape(-1, d, d), q)])


_swirl = fl.builtin_field("quad_swirl")
_VARIATIONAL_FIELDS = {
    "rotation": fl.rotation_field(),
    "affine": fl.affine_field([[0.2, -1.1], [0.9, -0.3]], [0.1, 0.7]),
    "constant": fl.constant_field([0.3, -0.2]),
    "shear": fl.builtin_field("coordinate_shear"),
    "quad_swirl": _swirl,
    # no analytic Jacobian: central differences on the stack
    "quad_swirl-differences": fl.VectorField(_swirl.chart, _swirl.func),
    "halfspace-rotation": _ORACLE_CASES["halfspace-rotation"][0],
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(_VARIATIONAL_FIELDS) + ["quadratic1d"]),
       step=st.sampled_from([1e-2, 0.1]))
def test_stacked_variational_system_matches_the_per_row_one(data, name, step):
    field = _ORACLE_CASES[name][0] if name == "quadratic1d" else _VARIATIONAL_FIELDS[name]
    d = field.chart.dimension
    lo = 0.1 if name.startswith("halfspace") else -0.9
    n = data.draw(st.integers(1, 5))
    coords = st.lists(st.floats(lo, 0.9), min_size=d + d * d, max_size=d + d * d)
    z0 = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    times = st.floats(-1.0, 1.0) | st.just(0.0)
    t_ends = np.array(data.draw(st.lists(times, min_size=n, max_size=n)))
    got_path, want_path = [], []
    with np.errstate(all="ignore"):
        got = fl.integrate_batch(fl._variational(field), z0, t_ends, step, got_path)
        want = fl.integrate_batch(_ref_variational(field), z0, t_ends, step, want_path)
    _assert_same_flow(got, want, got_path, want_path)


@settings(max_examples=25, deadline=None)
@given(x=st.sampled_from(sorted(set(_VARIATIONAL_FIELDS) - {"halfspace-rotation"})),
       y=st.sampled_from(sorted(_VARIATIONAL_FIELDS)),
       points=st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(-0.9, 0.9)),
                       min_size=1, max_size=4),
       t=st.sampled_from([0.3, -0.2, 0.05]))
def test_stacked_pushforward_matches_the_per_row_product(x, y, points, t):
    field_x, field_y = _VARIATIONAL_FIELDS[x], _VARIATIONAL_FIELDS[y]
    points = np.array(points)
    ts = np.full(len(points), t)
    got = fl._pushforward_rows(field_x, ts, field_y, points, 1e-2)
    assert _same(got, _ref_pushforward_rows(field_x, ts, field_y, points, 1e-2))


_FIELD_PARAMS = {"constant": {"vector": [0.3, -0.2]},
                 "affine": {"matrix": [[0.2, -1.1], [0.9, -0.3]], "offset": [0.1, 0.7]}}


@pytest.mark.parametrize("name", sorted(FIELD_CATALOG))
def test_builtin_jacobians_take_a_stack_of_points(name):
    # a field's Jacobian maps (n, d) to (n, d, d), or to one (d, d) for
    # every row, equal to its Jacobian at each point
    field = fl.builtin_field(name, _FIELD_PARAMS.get(name))
    points = np.random.default_rng(4).uniform(-1.0, 0.9, size=(5, field.chart.dimension))
    d = field.chart.dimension
    stacked = np.broadcast_to(field.jac(points), (5, d, d))
    assert _same(stacked, np.stack([field.jac(p) for p in points]))

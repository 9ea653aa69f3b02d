import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerflow import flows as fl
from kerflow.errors import FlowDomainError


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
    assert f.chart.contains(out.endpoints[0])
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


def test_batch_row_wise_fallback_for_user_callables():
    # neither the field nor the membership accepts more than one point
    def value(p):
        assert p.shape == (2,)
        return np.array([1.0 + p[1] ** 2, p[0]])

    def membership(p):
        assert p.shape == (2,)
        return bool(p @ p < 1.5)

    f = fl.VectorField(fl.ChartDomain(2, membership), value)
    starts = np.array([[0.5, 0.0], [0.9, 0.3], [-0.2, 0.1], [0.0, 0.0]])
    t_ends = np.array([1.0, -2.0, 0.7, 0.0])
    out = fl.integrate_batch(f, starts, t_ends, 1e-2)
    assert out.exit_reasons[:2] == (fl.EXIT_LEFT_CHART, fl.EXIT_LEFT_CHART)
    assert out.completed[2:].all()
    _assert_rows_match_curves(f, starts, t_ends, 1e-2)


@pytest.mark.parametrize("vectorized", [False, True])
def test_batch_step_failure_leaves_other_rows_untouched(vectorized):
    # a field that is infinite on x > 0.5: the first row stops there, stays
    # frozen without a warning, and the second runs on to its time
    def value(p):
        return np.stack([np.ones_like(p[..., 0]),
                         np.where(p[..., 0] > 0.5, np.inf, p[..., 0])], axis=-1)

    f = fl.VectorField(fl.full_space(2), value, vectorized=vectorized)
    starts = np.array([[0.4, 0.0], [-2.0, 0.0]])
    t_ends = np.array([1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fl.integrate_batch(f, starts, t_ends, 1e-2)
    assert out.exit_reasons == (fl.EXIT_STEP_FAILURE, None)
    assert np.all(np.isfinite(out.endpoints))
    _assert_rows_match_curves(f, starts, t_ends, 1e-2)


def test_batch_start_outside_chart_raises():
    f = fl.builtin_field("quadratic1d")
    with pytest.raises(FlowDomainError):
        fl.integrate_batch(f, [[0.2], [1.5]], [0.1, 0.1], 1e-3)


def test_pushforward_at_zero_is_identity():
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    assert np.allclose(fl.pushforward(X, 0.0, Y)([0.3, 0.4]), [1.0, 0.0])


def test_pushforward_translation_shifts_shear():
    # X = d/dx, Y = x d/dy: the time-1 transport has value (x - 1) d/dy
    X = fl.constant_field([1.0, 0.0])
    Y = fl.builtin_field("coordinate_shear")
    P = fl.pushforward(X, 1.0, Y, 1e-2)
    for x, y in [(2.0, 5.0), (0.0, 1.0), (-1.5, 0.2)]:
        assert np.allclose(P([x, y]), [0.0, x - 1.0], atol=1e-9)


def test_pushforward_rotation_of_constant():
    X = fl.rotation_field()
    Y = fl.constant_field([1.0, 0.0])
    v = fl.pushforward(X, np.pi / 2, Y, 1e-3)([0.2, 0.1])
    assert np.linalg.norm(v - [0.0, 1.0]) <= 1e-7


def test_pushforward_raises_when_either_leg_leaves_the_chart():
    # the backward leg of a drift towards the wall crosses it
    chart = fl.halfspace_chart(2)
    drift = fl.constant_field([-1.0, 0.0], chart)
    with pytest.raises(FlowDomainError, match=r"backward leg .*start point \[0\.05"):
        fl.pushforward(drift, -0.1, fl.constant_field([1.0, 0.0], chart), 1e-2)([0.05, 0.0])
    # one coarse step of x^2 back up from below 0.9999 puts an RK4 stage
    # point past 1, in the flow Jacobian leg
    quad = fl.builtin_field("quadratic1d")
    with pytest.raises(FlowDomainError, match=r"Jacobian leg .*start point \[0\.9999\]"):
        fl.pushforward(quad, 0.1, fl.constant_field([1.0], quad.chart), 0.1)([0.9999])
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

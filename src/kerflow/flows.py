"""Vector fields on finite-dimensional charts, integral curves, and local flows.

All integration uses the classical fixed-step fourth-order scheme: deterministic,
no adaptivity, so convergence-order tests stay clean.  A point that leaves its
chart during a step is recorded as a domain exit, never extrapolated; this keeps
the sampled flow domain honest.  Only finite-dimensional charts are supported --
pathologies of ODEs on function spaces (non-existence, non-uniqueness) cannot
occur here, but stiff blow-up can and is caught by a norm guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .config import DEFAULT_FD_STEP, DEFAULT_STEP, FIELD_PARAMS, builtin_params
from .errors import FlowDomainError

BLOWUP_NORM = 1e12

EXIT_LEFT_CHART = "left chart"
EXIT_STEP_FAILURE = "step failure"

_FLOAT = np.dtype(float)


def _label(fn) -> str:
    return getattr(fn, "__qualname__", repr(fn))


@dataclass(frozen=True)
class ChartDomain:
    """Open subset of R^d described by a membership predicate.

    ``membership`` maps an (n, d) array of finite points to n booleans, each
    row's decided by that row alone, since the set of rows a flow asks about
    changes as rows finish or stop; ``None`` means the whole space.
    """

    dimension: int
    membership: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("chart dimension must be >= 1")

    def contains_rows(self, points: np.ndarray) -> np.ndarray:
        """Row-wise membership; the predicate sees only the finite rows."""
        inside = np.isfinite(points).all(axis=1)
        if self.membership is not None:
            inside[inside] = self._members(points[inside])
        return inside

    def contains_all(self, points: np.ndarray) -> bool:
        """One test over a block: True only if every row is inside.  False
        decides nothing: a finite row too large to square leaves it to
        ``contains_rows``."""
        return math.isfinite(np.vdot(points, points)) and (
            self.membership is None or bool(self._members(points).all()))

    def _members(self, points: np.ndarray) -> np.ndarray:
        # a predicate of one point answers once for the whole block
        out = np.asarray(self.membership(points))
        if out.shape != (len(points),):
            raise ValueError(f"chart {_label(self.membership)}: membership returned "
                             f"shape {out.shape} where ({len(points)},) belongs")
        return out


def full_space(dimension: int) -> ChartDomain:
    return ChartDomain(dimension, None)


def box_chart(lo, hi) -> ChartDomain:
    """Open axis-aligned box; infinite bounds allowed."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return ChartDomain(lo.size, lambda p: np.all((p > lo) & (p < hi), axis=-1))


def halfspace_chart(dimension: int) -> ChartDomain:
    """Open half-space {x[0] > 0}."""
    return ChartDomain(dimension, lambda p: p[..., 0] > 0.0)


@dataclass(frozen=True)
class VectorField:
    """Smooth field on a chart: a value map plus an optional analytic Jacobian.

    When no Jacobian is given, central differences with step ``DEFAULT_FD_STEP`` are used.
    The value map takes a point (d,) or an (n, d) array of points, giving
    (n, d) values or, for a constant field, one (d,) value for every row;
    its Jacobian likewise gives (n, d, d) or one (d, d).  Each row's value
    and Jacobian are computed from that row alone, since the set of rows a
    flow passes changes as rows finish or stop.  ``affine`` is the (A, b)
    of an affine field X(p) = A p + b; ``==`` leaves it out.
    """

    chart: ChartDomain
    func: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    affine: Optional[tuple] = _field(default=None, compare=False)

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.func(np.asarray(point, dtype=float)), dtype=float)

    def rows(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of ``points`` (n, d), as (n, d)."""
        values = self.block(np.asarray(points, dtype=float))
        if values.shape != points.shape:
            values = np.repeat(values[None], len(points), 0)   # a constant field
        return values

    def block(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of the float block ``points`` (n, d): (n, d), or
        a constant field's one (d,) value, which broadcasts over the rows."""
        values = self.func(points)
        if values.__class__ is not np.ndarray or values.dtype is not _FLOAT:
            values = np.asarray(values, dtype=float)
        if values.shape != points.shape and values.shape != points.shape[1:]:
            # a map of one point would run on the wrong entries
            raise ValueError(f"field {self.name or _label(self.func)!r}: value map "
                             f"returned shape {values.shape} where {points.shape} "
                             f"or {points.shape[1:]} belongs")
        return values

    def jac(self, point) -> np.ndarray:
        """DX at a point (d,) as (d, d), or at each row of (n, d) as
        (n, d, d) or one (d, d) for every row."""
        p = np.asarray(point, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(p), dtype=float)
        steps = DEFAULT_FD_STEP * np.eye(self.chart.dimension)
        return np.stack([(self(p + e) - self(p - e)) / (2.0 * DEFAULT_FD_STEP)
                         for e in steps], axis=-1)


def constant_field(vector, chart: Optional[ChartDomain] = None) -> VectorField:
    v = np.asarray(vector, dtype=float)
    return VectorField(chart or full_space(v.size), lambda p: v,
                       lambda p: np.zeros((v.size, v.size)), name="constant")


def _affine_rows(A: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    # a matrix-vector product per point: a row's rounding ignores the batch size
    return np.matvec(A, p) + b


def affine_field(matrix, offset=None, chart: Optional[ChartDomain] = None) -> VectorField:
    """X(p) = A p + b with analytic Jacobian A."""
    A = np.ascontiguousarray(matrix, dtype=float)
    b = np.zeros(A.shape[0]) if offset is None else np.asarray(offset, dtype=float)
    return VectorField(chart or full_space(A.shape[0]), partial(_affine_rows, A, b),
                       lambda p: A, name="affine", affine=(A, b))


def rotation_field() -> VectorField:
    """Planar rotation generator X(x, y) = (-y, x)."""
    return replace(affine_field([[0.0, -1.0], [1.0, 0.0]]), name="rotation2d")


@dataclass(frozen=True)
class IntegralCurve:
    """Discrete integral curve: times start at 0, points stay inside the chart."""

    times: np.ndarray
    points: np.ndarray
    terminated_early: bool
    exit_reason: Optional[str]

    @property
    def endpoint(self) -> np.ndarray:
        return self.points[-1]


class BatchFlow(NamedTuple):
    """Per row: last accepted point, signed time reached, exit reason,
    finished; with a leg axis after the row axis for a batch of legs."""

    endpoints: np.ndarray
    reached_times: np.ndarray
    exit_reasons: tuple
    completed: np.ndarray


# The block's summed squared value norms bound each row's; the half absorbs
# the rounding of a sum taken in another order than a row's own.
_BLOCK_BOUND = 0.5 * BLOWUP_NORM ** 2


def _stop(live: np.ndarray, ok: np.ndarray, reason: str, stops: dict):
    """Stop the live rows of the block that are not ``ok``, recording why."""
    for i in (live & ~ok).nonzero()[0]:
        stops[i] = reason
    live &= ok


class _Maps(NamedTuple):
    """The value map and chart tests of a block: each answers for every row
    from that row's own field and chart; ``whole_space``: every chart is;
    ``norms``: when every field is affine, the largest |A|_F and |b|."""

    value: Callable[[np.ndarray], np.ndarray]
    contains_all: Callable[[np.ndarray], bool]
    contains_rows: Callable[[np.ndarray], np.ndarray]
    whole_space: bool
    norms: Optional[tuple]


def _block_maps(fields: list, edges: np.ndarray, ids: np.ndarray) -> _Maps:
    """The maps of a block whose rows, numbered ``ids`` in increasing order,
    fall in contiguous groups: original rows edges[i]:edges[i + 1] are run
    by fields[i].  One group's maps are its field's own; groups of affine
    fields share one product; the chart tests run once over the block when
    every group's chart is the same."""
    bounds = np.searchsorted(ids, edges).tolist()
    spans = [(f, slice(lo, hi)) for f, lo, hi in zip(fields, bounds, bounds[1:]) if lo < hi]
    first = spans[0][0]
    affine = all(f.affine is not None for f, _ in spans)
    # the largest |A|_F and |b| of the block's fields, for _guards_idle
    norms = tuple(math.sqrt(max(np.vdot(f.affine[i], f.affine[i]) for f, _ in spans))
                  for i in (0, 1)) if affine else None
    if len(spans) == 1:
        value = first.block
    elif affine:
        # per row its field's A (rows, d, d) and b (rows, d); A in C order,
        # as each field's own, so the product rounds a row as its field does
        counts = [rows.stop - rows.start for _, rows in spans]
        value = partial(_affine_rows, *(np.repeat(np.stack([f.affine[i] for f, _ in spans]),
                                                  counts, axis=0) for i in (0, 1)))
    else:
        def value(q):
            v = np.empty_like(q)
            for field, rows in spans:
                # a constant field's one (d,) value is written into its rows
                v[rows] = field.block(q[rows])
            return v
    if all(field.chart == first.chart for field, _ in spans):
        return _Maps(value, first.chart.contains_all, first.chart.contains_rows,
                     first.chart.membership is None, norms)
    return _Maps(value,
                 lambda q: all(f.chart.contains_all(q[rows]) for f, rows in spans),
                 lambda q: np.concatenate([f.chart.contains_rows(q[rows]) for f, rows in spans]),
                 False, norms)


def _stage(maps: _Maps, q: np.ndarray, live: np.ndarray, stops: dict,
           charted: bool, guarded: bool):
    """Field values at the block's stage points ``q``.  One test over the
    block passes when every stage point is in the chart and the summed
    squared norms are within bound; only when it trips is each live row
    checked, and stopped if its stage point left the chart or its value is
    non-finite or beyond BLOWUP_NORM.  ``charted`` False skips the chart
    test, for stage points known to be inside or whose test cannot stop a
    row; ``guarded`` False skips every test, in a step that ``_guards_idle``
    proved no guard can trip in."""
    if not guarded:
        return maps.value(q)
    value, contains_all, contains_rows = maps[:3]
    if not charted or contains_all(q):
        v = value(q)
        # a constant field's one value stands for each of the rows
        if (len(q) if v.ndim == 1 else 1) * np.vdot(v, v) <= _BLOCK_BOUND:
            return v
        inside = np.ones(len(q), dtype=bool)
    else:
        inside = contains_rows(q)
        v = value(q)
    rows = np.broadcast_to(v, q.shape)
    ok = inside & (np.einsum("ij,ij->i", rows, rows) <= BLOWUP_NORM ** 2)
    if not ok.all():
        _stop(live, inside, EXIT_LEFT_CHART, stops)
        _stop(live, ok, EXIT_STEP_FAILURE, stops)
    return v


# Steps a leg may take for the countdown to run: over at most this many
# additions of ``step`` the rounding of a row's time t < end stays below
# 2**26 * 2**-53 * end <= step / 2.
_COUNTDOWN_STEPS = 2 ** 26

# A finite float plus an addend below half an ulp of the largest float,
# 2**970, stays finite; the factor 2 under it absorbs the rounding of the
# bounds on a step's addends.
_FINITE_ADDEND = 2.0 ** 969

# the exponent up to which the bound of ``_guards_idle`` stays finite
_MAX_EXPONENT = 600.0


def _guards_idle(norms: Optional[tuple], x: np.ndarray, a: np.ndarray, quiet: int) -> bool:
    """Whether no guard can trip in the steps of a countdown of ``quiet``
    steps, each row of the block ``x`` taking steps of length ``a``, on the
    whole space with affine fields X(p) = A p + b only: ``norms`` is None or
    the block's largest |A|_F and |b|, L and B.  A step of length h takes a
    point of norm r to one of norm at most e^{hL} (r + h B), and its stage
    points to within e^{2hL} (r + h B).  So with M the block's largest row
    norm, H its longest step and n = quiet + 1, every point and stage point
    of the countdown has norm at most R = e^{nHL} (M + nHB), and every stage
    value at most L R + B.  Four times that within BLOWUP_NORM, and 4 R
    finite, means each value bound and new-point test passes.  The factor 4
    absorbs the rounding, a relative O(d eps) a step: over at most
    _COUNTDOWN_STEPS steps it compounds to about 1 + 1e-7 in the plane."""
    if norms is None:
        return False
    L, B = norms
    n, H = quiet + 1, float(a.max())
    if n * H * L > _MAX_EXPONENT:
        return False
    M = math.sqrt(float(np.einsum("ij,ij->i", x, x).max()))
    R = math.exp(n * H * L) * (M + n * H * B)
    return 4.0 * R < math.inf and 4.0 * (L * R + B) <= BLOWUP_NORM


def _advance(groups: list, p: np.ndarray, t_end: np.ndarray, step,
             path: Optional[list] = None):
    """The RK4 loop: advance each row of ``p`` (n, d) to its own signed time
    in ``t_end`` (n,), or through its row of legs in ``t_end`` (n, k), with
    ``step`` one positive float or one per row (n,).
    ``groups`` is a list of (field, rows): each field runs the next ``rows``
    rows of ``p``, in order.  A step advances the block of rows still
    running, each group's slice by its own field, and does the arithmetic
    and the bookkeeping once for all; a row that finishes a leg goes on with
    its next leg that takes a step, its clock at 0; a row that finishes its
    last leg or stops is written back once, with its last accepted point,
    and leaves the block.  Rows never mix, so whatever a row that stopped
    during a step computes after that is unused.  ``path``, when given,
    receives the signed times and points of every row after each step, for
    as long as every row is in the block: the steps that every row
    accepted."""
    one = t_end.ndim == 1
    t_end = t_end[:, None] if one else t_end
    (n, k), d = t_end.shape, p.shape[1]
    step = np.asarray(step, dtype=float)
    if step.shape not in ((), (n,)) or not (step > 0.0).all():
        raise ValueError(f"step must be one positive float or ({n},) of them, one per row")
    step = np.broadcast_to(step, (n,))
    fields, edges = [f for f, _ in groups], np.cumsum([0] + [rows for _, rows in groups])
    sign, total = np.where(t_end >= 0.0, 1.0, -1.0), np.abs(t_end)
    # tiny guard keeps ``total/step`` from emitting a spurious final microstep
    slack = 1e-15 * np.maximum(1.0, total)
    # the countdown below holds for legs of at most _COUNTDOWN_STEPS steps,
    # each step longer than the leg's slack
    steady = ((total <= _COUNTDOWN_STEPS * step[:, None]).all()
              and (step[:, None] > slack).all())
    # per row and leg: the first leg from there on that takes a step (k: none)
    legs = np.where(total > slack, np.arange(k), k)
    first = np.minimum.accumulate(legs[:, ::-1], axis=1)[:, ::-1]
    first = np.hstack([first, np.full((n, 1), k)])
    # per row and leg, filled as legs end: point, time reached, exit reason
    ends, t = np.empty((n, k, d)), np.zeros((n, k))
    reasons, ran = np.full((n, k), None, dtype=object), np.zeros((n, k), dtype=bool)
    ids = (first[:, 0] < k).nonzero()[0]
    # the block: row numbers and legs, then per row the point, time reached,
    # step, sign, total, slack and time left of its leg
    j = first[ids, 0]
    x, tx, st = p[ids], np.zeros(len(ids)), step[ids]
    s, end, tiny = sign[ids, j], total[ids, j], slack[ids, j]
    left, live, full, a, quiet = end, np.ones(len(ids), dtype=bool), len(ids) == n, None, 0
    while len(ids):
        if not quiet:
            # ``left`` is fresh here
            if a is None:
                maps = _block_maps(fields, edges, ids)
                # on the whole space a live row's stage points x + c h k are
                # finite, so inside, while |h| BLOWUP_NORM is a finite
                # addend: x passed a chart test, k a value bound
                charted = not maps.whole_space or st.max() * BLOWUP_NORM >= _FINITE_ADDEND
            # |h| moves only when the block does or a row takes a shorter last step
            if a is None or (left < st).any():
                a = np.minimum(st, left)
                # (rows, d), as every operand of the arithmetic below
                h = np.repeat((s * a)[:, None], d, axis=1)
                half, sixth = 0.5 * h, h / 6.0
            # a countdown of steps, all but the last of which no row can
            # finish or take short: each row keeps more than a step left
            # after int(low) - 4 full steps, low the fewest steps any row
            # has left, as the rounding of t stays below half a step
            # (_COUNTDOWN_STEPS) and that of left / step below one
            quiet = max(int((left / st).min()) - 3, 0) if steady else 0
            # every step of the countdown but its last, which does the
            # bookkeeping, may drop its guards
            idle = quiet > 1 and not charted and _guards_idle(maps.norms, x, a, quiet)
        stops, guarded = {}, quiet < 2 or not idle
        # every row of x passed the start check or its last step's chart test
        k1 = _stage(maps, x, live, stops, False, guarded)
        k2 = _stage(maps, x + half * k1, live, stops, charted, guarded)
        k3 = _stage(maps, x + half * k2, live, stops, charted, guarded)
        k4 = _stage(maps, x + h * k3, live, stops, charted, guarded)
        x_new = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if guarded and not maps.contains_all(x_new):
            _stop(live, maps.contains_rows(x_new), EXIT_LEFT_CHART, stops)
        t_new = tx + a
        if path is not None and full and not stops:
            path.append((s * t_new, x_new))
        if quiet > 1 and not stops:
            # no row finishes a leg or needs a shorter step yet
            quiet -= 1
            x, tx = x_new, t_new
            continue
        quiet = 0
        left = end - t_new
        running = left > tiny
        if stops or not running.all():
            for i, reason in stops.items():
                reasons[ids[i], j[i]] = reason
            gone = ~(live & running)
            ran[ids[gone], j[gone]] = True
            ends[ids[gone], j[gone]] = np.where(live[:, None], x_new, x)[gone]
            t[ids[gone], j[gone]] = np.where(live, t_new, tx)[gone]
            done = live & ~running
            j = np.where(done, first[ids, j + 1], j)
            keep = live & (j < k)
            ids, j, x_new, t_new, st, s, end, tiny, left, done = (
                arr[keep] for arr in (ids, j, x_new, t_new, st, s, end, tiny, left, done))
            if done.any():
                # the next leg starts from the point reached, as a fresh batch would
                r, jd = ids[done], j[done]
                t_new[done], s[done], end[done], tiny[done] = (
                    0.0, sign[r, jd], total[r, jd], slack[r, jd])
                left[done] = end[done]
            live, full, a = np.ones(len(ids), dtype=bool), False, None
        x, tx = x_new, t_new
    # a leg that took no step ends where the row's previous leg did, with
    # its outcome: a zero leg completes, a leg after a stop does not
    for leg in range(k):
        idle = ~ran[:, leg]
        ends[idle, leg] = (p if leg == 0 else ends[:, leg - 1])[idle]
        if leg:
            reasons[idle, leg] = reasons[idle, leg - 1]
    reached, completed = sign * t, np.equal(reasons, None)
    if one:
        return BatchFlow(ends[:, 0], reached[:, 0], tuple(reasons[:, 0]), completed[:, 0])
    return BatchFlow(ends, reached, tuple(map(tuple, reasons)), completed)


def integrate_curve(field: VectorField, start, t_end: float,
                    step: float = DEFAULT_STEP) -> IntegralCurve:
    """Integrate the field from ``start`` to time ``t_end`` (either sign): up
    to ``t_end`` or until the curve exits the chart or the field blows up;
    ``terminated_early`` and ``exit_reason`` record which; a start outside
    the chart raises ``FlowDomainError``."""
    p = np.asarray(start, dtype=float)
    path = []
    reason = integrate_batch(field, p[None], t_end, step, path).exit_reasons[0]
    times, points = map(np.concatenate, zip(*path))
    return IntegralCurve(times, points, reason is not None, reason)


def integrate_batch(field: VectorField, starts, t_ends, step=DEFAULT_STEP,
                    path: Optional[list] = None) -> BatchFlow:
    """Integrate each row of ``starts`` (n, d) to its own time in ``t_ends``,
    all rows together, each with the semantics and the endpoint of
    ``integrate_curve``; ``step`` is one float or one per row (n,), a row's
    own for all its legs.  With ``t_ends`` of shape (n, k), row i runs k legs
    back to back, each from the point where its previous leg ended, exactly
    as a fresh batch from that point would; the flow then carries each
    leg's endpoint, time, exit reason and completion.  A leg of length 0
    leaves the point where it is, and a row that stops ends its later legs
    there, with the same exit reason.  ``path``, for one leg only, receives
    the (times, points) of all rows at time 0 and after each step that
    every row accepted, so it ends where the first row stops or finishes;
    else no trajectory is kept.  It is the one-group case of
    ``integrate_groups``."""
    p = np.array(starts, dtype=float)
    return integrate_groups([(field, len(p) if p.ndim else 0)], p, t_ends, step, path)


def integrate_groups(groups: list, starts, t_ends, step=DEFAULT_STEP,
                     path: Optional[list] = None) -> BatchFlow:
    """``integrate_batch`` for rows of several fields in one RK4 loop:
    ``groups`` is a list of (field, rows), and each field runs the next
    ``rows`` rows of ``starts`` (n, d), in order, every field on R^d.  Each
    row's flow is the one ``integrate_batch`` gives for its own field."""
    p = np.array(starts, dtype=float)
    d = groups[0][0].chart.dimension
    if p.ndim != 2 or p.shape[1] != d:
        raise ValueError(f"starts must have shape (n, {d})")
    if any(f.chart.dimension != d for f, _ in groups) or sum(r for _, r in groups) != len(p):
        raise ValueError("the groups' fields must share one dimension and "
                         "own every row of starts")
    edges = np.cumsum([0] + [rows for _, rows in groups])
    inside = np.concatenate([field.chart.contains_rows(p[lo:hi])
                             for (field, _), lo, hi in zip(groups, edges, edges[1:])])
    if not inside.all():
        raise FlowDomainError(f"start point {p[~inside][0]} is outside the chart")
    t_ends = np.asarray(t_ends, dtype=float)
    t_ends = np.broadcast_to(t_ends, (len(p),) + t_ends.shape[1:])
    if path is not None:
        if t_ends.ndim != 1:
            raise ValueError("a path follows one leg; t_ends must have shape (n,)")
        path.append((np.zeros(len(p)), p))
    return _advance(groups, p, t_ends, step, path)


def _variational(field: VectorField) -> VectorField:
    """The variational system (p, J)' = (X(p), DX(p) J) on R^(d + d^2), with J
    row-major after p, as the stack DX(P) @ J of the block's rows.  Its
    chart is the field's, decided by p alone."""
    d, chart = field.chart.dimension, field.chart

    def value(z):
        p, J = z[:, :d], z[:, d:].reshape(len(z), d, d)
        return np.concatenate([field.rows(p), (field.jac(p) @ J).reshape(len(z), d * d)],
                              axis=1)

    inside = None if chart.membership is None else lambda z: chart.membership(z[:, :d])
    return VectorField(ChartDomain(d + d * d, inside), value, name=f"var[{field.name}]")


def _pushforward_rows(field_x: VectorField, t: np.ndarray, field_y: VectorField,
                      points: np.ndarray, step: float) -> np.ndarray:
    """Row i is the transport of ``field_y`` by the time-t[i] flow of
    ``field_x`` at points[i]: J(q) Y(q), with q the backward flow of the
    point and J the flow Jacobian at q.  Both legs run as one batch each;
    reading a row that stopped raises, naming its start point."""
    d = field_x.chart.dimension
    back = integrate_batch(field_x, points, -t, step)
    q = back.endpoints
    eye = np.tile(np.eye(d).ravel(), (len(q), 1))
    fwd = integrate_batch(_variational(field_x), np.hstack([q, eye]), t, step)
    for leg, flow in (("backward", back), ("flow Jacobian", fwd)):
        if not flow.completed.all():
            i = int(np.argmin(flow.completed))
            raise FlowDomainError(f"{leg} leg stopped ({flow.exit_reasons[i]}) "
                                  f"from start point {points[i]}")
    J = fwd.endpoints[:, d:].reshape(-1, d, d)
    return (J @ field_y.rows(q)[..., None])[..., 0]


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """Pointwise bracket dY X - dX Y, with analytic Jacobians when available."""

    def value(p):
        return (y.jac(p) @ x(p)[..., None] - x.jac(p) @ y(p)[..., None])[..., 0]

    return VectorField(x.chart, value, name=f"[{x.name},{y.name}]")


def lie_derivative_via_flow(x: VectorField, y: VectorField, point, h,
                            step: Optional[float] = None) -> np.ndarray:
    """Symmetric difference quotient of the flow transport of y along x, at a
    point (d,) or at each row of points (n, d), with one h or one per point
    (n,), both signs of h as one batch.

    Independent oracle for ``lie_bracket``; second-order accurate in h.  The
    internal ODE step defaults to each row's h/8 so integration error stays
    far below the quotient's own h^2 term.
    """
    p = np.asarray(point, dtype=float)
    rows = np.atleast_2d(p)
    n = len(rows)
    h = np.broadcast_to(np.asarray(h, dtype=float), (n,))
    if step is None:
        step = np.tile(h / 8.0, 2)
    both = _pushforward_rows(x, np.concatenate([-h, h]), y, np.vstack([rows, rows]), step)
    est = (both[:n] - both[n:]) / (2.0 * h[:, None])
    return est if p.ndim == 2 else est[0]


def _quad_swirl_jacobian(p: np.ndarray) -> np.ndarray:
    """[[0, 2 y], [1, 0]] at each point of p (..., 2)."""
    J = np.zeros(p.shape + (2,))
    J[..., 0, 1] = 2.0 * p[..., 1]
    J[..., 1, 0] = 1.0
    return J


def builtin_field(name: str, params: Optional[dict] = None) -> VectorField:
    """Catalog of named fields used by experiment configs and tests; the
    params each reads, their defaults and bounds, are ``config.FIELD_PARAMS``."""
    params = builtin_params(FIELD_PARAMS, name, params)
    if name == "rotation2d":
        return rotation_field()
    if name == "constant":
        return constant_field(params["vector"])
    if name == "affine":
        return affine_field(params["matrix"], params.get("offset"))
    if name == "coordinate_shear":
        # x[frm] * d/dx[to]
        frm, to, dim = params["from"], params["to"], params["dimension"]
        A = np.zeros((dim, dim))
        A[to, frm] = 1.0
        return replace(affine_field(A), name=f"shear{frm}{to}")
    if name == "quad_swirl":
        # (y^2, x): quadratic planar field with analytic Jacobian
        return VectorField(full_space(2),
                           lambda p: np.stack([p[..., 1] ** 2, p[..., 0]], axis=-1),
                           _quad_swirl_jacobian, name="quad_swirl")
    if name == "quadratic1d":
        # x^2 on the chart (-inf, 1): finite-time blow-up exits the chart
        return VectorField(box_chart([-np.inf], [1.0]), lambda p: p ** 2,
                           lambda p: 2.0 * p[..., None], name="quadratic1d")

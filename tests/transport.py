"""The one-point transport of a field by a flow, which AC3 and the
pushforward tests build fields with; the library keeps only the batch
``flows._pushforward_rows``, which ``lie_derivative_via_flow`` calls."""

import numpy as np

from kerflow import flows as fl
from kerflow.config import DEFAULT_STEP


def pushforward(field_x, t, field_y, step=DEFAULT_STEP):
    """Transport ``field_y`` by the time-t flow of ``field_x``, one point at a
    time: the value at p is J(q) Y(q), with q the backward flow of p and J
    the flow Jacobian at q, from ``flows._pushforward_rows``.  Evaluation
    raises on a domain exit during either leg."""
    if t == 0.0:
        return field_y

    def value(p):
        rows = np.atleast_2d(p)
        out = fl._pushforward_rows(field_x, np.full(len(rows), float(t)), field_y, rows, step)
        return out if p.ndim == 2 else out[0]

    return fl.VectorField(field_y.chart, value,
                          name=f"push[{field_x.name},{t}]{field_y.name}")

"""Outside-in tracer: wraps kerflow's public functions at each module boundary
for the length of a ``with Tracer():`` block and restores them afterwards.

A wrapped function records a span (name, start, end, parent span, config id)
in memory.  Functions that other modules imported by name (``operators``'
``integrate_curve``, ``representation``'s ``gram`` and so on) are patched
wherever the same object is bound, so no call path escapes.  Per-call work
counts (RK4 steps, Gram entries, computed bytes) are taken from the wrapped
call's arguments and result.  The hottest scalar entry points
(``Kernel.__call__``, ``Kernel.grad1``, ``SmearedKernel.pairing``) are only
counted, since a span per call would cost more than the call.

Self time is derived when the spans are summarised: a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from kerflow import (algebra, cli, config, distributions, flows, kernels,
                     operators, representation, runner)

# (owner, attribute) pairs wrapped with a span, by layer.
SPANNED = (
    (flows, "integrate_curve"),
    (flows, "lie_derivative_via_flow"),
    (algebra, "c_dual"),
    (kernels, "gram"),
    (kernels, "gram_from_matrix"),
    (kernels, "embed_point"),
    (operators, "lie_derivative_form"),
    (operators, "compress_operator"),
    (operators, "semigroup_matrix"),
    (operators, "flow_invariance_check"),
    (operators, "compatibility_check"),
    (operators, "froelich_check"),
    (representation, "synthesize_cdual_rep"),
    (representation.RepresentationTable, "max_unitarity_defect"),
    (representation, "commutation_defect"),
    (representation, "conjugation_check"),
    (representation, "luscher_mack_pipeline"),
    (distributions, "reflection_positivity_check"),
    (distributions, "os_quotient"),
    (distributions, "os_semigroup"),
    (distributions, "grid_shift_matrix"),
    (distributions.SmearedKernel, "from_distance_profile"),
    (distributions, "rp_axioms_check"),
    (config, "parse_config"),
    (runner, "run_experiment"),
    (cli, "main"),
)

# (owner, attribute, counter name) pairs that are counted but not spanned.
COUNTED = (
    (kernels.Kernel, "__call__", "kernels.kernel_evals"),
    (kernels.Kernel, "grad1", "kernels.kernel_evals"),
    (distributions.SmearedKernel, "pairing", "distributions.pairing.calls"),
)


def _layer(owner) -> str:
    module = owner.__name__ if isinstance(owner, type(sys)) else owner.__module__
    return module.rsplit(".", 1)[-1]


def _span_name(owner, attr: str) -> str:
    return f"{_layer(owner)}.{attr}"


def _kerflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kerflow" or name.startswith("kerflow."))]


class Tracer:
    """Span and counter recorder; install with ``with Tracer() as t:``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, config id]
        self.counts = Counter()
        self.config_id = None
        self._stack = []
        self._patches = []       # (owner, attribute, original descriptor)
        self._forms = set()
        self._form_refs = []     # keeps ids in ``_forms`` from being reused

    # -- installation ------------------------------------------------------

    def __enter__(self):
        try:
            for owner, attr in SPANNED:
                self._patch(owner, attr, self._spanned(_span_name(owner, attr)))
            for owner, attr, counter in COUNTED:
                self._patch(owner, attr, self._counted(counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every original function back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make_wrapper(original.__func__))
        else:
            wrapped = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # module-level function: rebind it wherever it was imported by name
        for module in _kerflow_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapped)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name):
        on_result = _RESULT_HOOKS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [name, 0.0, 0.0,
                          self._stack[-1] if self._stack else -1,
                          self.config_id]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    self._stack.pop()
                if on_result is not None:
                    on_result(self, args, result)
                return result
            return wrapper
        return make

    def _counted(self, counter):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all recorded spans: ``<name>.calls``, ``.busy_s``
        (time inside the function, outermost calls only), ``.self_s`` (busy
        time not covered by a wrapped callee), the work counters, and the
        self time of each layer as ``<layer>.self_s``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter(self.counts)
        layer_self = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            own = duration - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if not self._nested_in_same(i):
                out[f"{name}.busy_s"] += duration
            layer_self[name.split(".", 1)[0]] += own
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        return dict(out)

    def _nested_in_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: str):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "config"],
                       "spans": self.spans}, handle)


# -- result hooks: work counts taken at the boundary ---------------------------


def _curve(tracer, args, curve):
    tracer.counts["flows.curves"] += 1
    tracer.counts["flows.rk4_steps"] += len(curve.times) - 1
    tracer.counts["flows.domain_exits"] += int(curve.terminated_early)


def _gram(tracer, args, model):
    tracer.counts["kernels.gram.entries"] += model.size ** 2


def _gram_model(tracer, args, model):
    tracer.counts["kernels.rank_sum"] += model.rank
    tracer.counts["kernels.size_sum"] += model.size


def _form(tracer, args, form):
    kernel, field, points = args[:3]
    tracer.counts["operators.lie_derivative_form.entries"] += form.size
    digest = hashlib.sha1(np.ascontiguousarray(points, dtype=float)).hexdigest()
    tracer._form_refs.append((kernel, field))
    tracer._forms.add((tracer.config_id, id(kernel), id(field), digest))
    tracer.counts["operators.distinct_forms"] = len(tracer._forms)


def _matrix_bytes(counter):
    def hook(tracer, args, result):
        matrix = getattr(result, "matrix", result)
        tracer.counts[counter] += matrix.nbytes
    return hook


_RESULT_HOOKS = {
    "flows.integrate_curve": _curve,
    "kernels.gram": _gram,
    "kernels.gram_from_matrix": _gram_model,
    "operators.lie_derivative_form": _form,
    "distributions.grid_shift_matrix":
        _matrix_bytes("distributions.grid_shift_matrix.bytes_computed"),
    "distributions.from_distance_profile":
        _matrix_bytes("distributions.from_distance_profile.bytes_computed"),
}

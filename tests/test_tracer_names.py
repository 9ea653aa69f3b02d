"""The benchmark's tracer (``perfbench/tracer.py``) wraps kerflow functions
by owner and attribute name, so a library change that renames or moves one
of them would break a traced benchmark run.  The tracer module is loaded
from its file without writing bytecode, so nothing under ``perfbench/``
changes."""

import importlib.util
import os
import sys

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                      "tracer.py")


def test_every_traced_name_resolves_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [*tracer.SPANNED, *((owner, attr) for owner, attr, _ in tracer.COUNTED)]
    # how the tracer reads each one before wrapping it
    unresolved = [f"{owner.__name__}.{attr}" for owner, attr in pairs
                  if not (callable(value := vars(owner).get(attr))
                          or isinstance(value, classmethod))]
    assert pairs
    assert unresolved == []

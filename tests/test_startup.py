"""``import kerflow``, ``validate`` and ``list-builtins`` load no numpy and
none of the numpy-backed modules; scipy.linalg loads only when a run first
takes a matrix exponential, and numpy.random only when a run first draws from
a generator.

Each case runs in a fresh interpreter, since the test process itself has
long imported scipy.linalg by the time this module runs.
"""

import json
import os
import subprocess
import sys

import kerflow

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(kerflow.__file__)))
CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")

_CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, {src!r})
from kerflow import cli
configs = [os.path.join({configs!r}, f) for f in sorted(os.listdir({configs!r}))
           if f.endswith(".json")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", c]) for c in configs]
    codes += [cli.main(["run", os.path.join({configs!r}, s + ".json"), "--stable-output"])
              for s in {stems!r}]
print(json.dumps({{"codes": codes, "scipy_linalg": "scipy.linalg" in sys.modules,
                  "numpy_random": "numpy.random" in sys.modules}}))
"""


def _child(stems):
    code = _CHILD.format(src=SRC_DIR, configs=CONFIG_DIR, stems=list(stems))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_validate_and_the_grid_kinds_never_load_scipy_linalg():
    result = _child(("os_reconstruct_ou", "os_reconstruct_mixture", "rp_axioms"))
    shipped = [f for f in os.listdir(CONFIG_DIR) if f.endswith(".json")]
    assert len(result["codes"]) == len(shipped) + 3
    assert set(result["codes"]) == {0}
    assert result["scipy_linalg"] is False
    # the grid kinds draw nothing, so they do not load numpy.random either
    assert result["numpy_random"] is False


def test_a_kind_that_takes_an_exponential_loads_scipy_linalg():
    # the probe sees the import when it happens
    result = _child(("cdual_abelian",))
    assert result["codes"][-1] == 0
    assert result["scipy_linalg"] is True
    assert result["numpy_random"] is True


_BARE = """
import contextlib, io, json, os, sys
sys.path.insert(0, {src!r})
import kerflow
from kerflow import cli
configs = [os.path.join({configs!r}, f) for f in sorted(os.listdir({configs!r}))
           if f.endswith(".json")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["validate", c]) for c in configs] + [cli.main(["list-builtins"])]
    loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("kerflow."))
    codes.append(cli.main(["run", os.path.join({configs!r}, "rp_axioms.json")]))
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""


def test_import_validate_and_list_builtins_never_load_numpy():
    code = _BARE.format(src=SRC_DIR, configs=CONFIG_DIR)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    shipped = [f for f in os.listdir(CONFIG_DIR) if f.endswith(".json")]
    # every validate, list-builtins, and a run afterwards, pass
    assert result["codes"] == [0] * (len(shipped) + 2)
    assert result["loaded"] == ["kerflow.cli", "kerflow.config", "kerflow.errors"]

"""``import kerflow``, ``validate`` and ``list-builtins`` load no numpy and
none of the numpy-backed modules; no run of a shipped config loads scipy, and
numpy.random loads only when a run first draws from a generator.

Each case runs in a fresh interpreter, since the test process itself has
long imported scipy, the tests' oracle, by the time this module runs.
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
print(json.dumps({{"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "numpy_random": "numpy.random" in sys.modules}}))
"""


def _child(stems):
    code = _CHILD.format(src=SRC_DIR, configs=CONFIG_DIR, stems=list(stems))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _stems():
    return sorted(f[:-5] for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))


def test_validate_and_the_grid_kinds_never_load_scipy_linalg():
    result = _child(("os_reconstruct_ou", "os_reconstruct_mixture", "rp_axioms"))
    assert result["codes"] == [0] * (len(_stems()) + 3)
    assert result["scipy"] == []
    # the grid kinds draw nothing, so they do not load numpy.random either
    assert result["numpy_random"] is False


def test_no_shipped_run_loads_scipy():
    # every kind, the exponentials and the halfplane Bessel kernel included
    result = _child(_stems())
    assert result["codes"] == [0] * (2 * len(_stems()))
    assert result["scipy"] == []
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

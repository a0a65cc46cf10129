"""Importing jetstokes pins BLAS to one thread, or says why it cannot.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so the pin
set at import takes effect only if jetstokes comes first. Each import
order runs in a fresh interpreter without the variable set.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _import(first, second):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import os, warnings; warnings.simplefilter('always'); "
        "import %s; import %s; print(os.environ['OPENBLAS_NUM_THREADS'])" % (first, second)
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_import_before_numpy_pins_quietly():
    out = _import("jetstokes", "numpy")
    assert out.stdout.strip() == "1"
    assert "Warning" not in out.stderr


def test_import_after_numpy_warns_once_with_the_fix():
    out = _import("numpy", "jetstokes")
    assert out.stderr.count("RuntimeWarning") == 1
    assert "numpy was imported before jetstokes" in out.stderr
    assert "OPENBLAS_NUM_THREADS=1" in out.stderr
    assert "before starting Python" in out.stderr

"""Importing jetstokes pins BLAS to one thread, or says why it cannot, and
fixes glibc's malloc thresholds.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so the pin
set at import takes effect only if jetstokes comes first. Each import
order runs in a fresh interpreter without the variable set.
"""

import os
import pathlib
import platform
import subprocess
import sys

import pytest

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


# Six field temporaries per call, each a 132 KB field at n_r = 24,
# n_theta = 6, n_z = 4: just above glibc's default mmap threshold, so under
# the default thresholds every call faults its temporaries in as fresh pages.
_FAULTS = """
import resource, sys
if sys.argv[1] == "jetstokes":
    import jetstokes
import numpy as np

def call():
    return [np.ones((3, 9, 13, 24), dtype=complex) for _ in range(6)]

call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _faults_per_call(first):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS, first], env=env, capture_output=True, text=True, check=True
    )
    return float(out.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_import_keeps_field_temporaries_on_the_heap():
    assert _faults_per_call("numpy") > 50.0
    assert _faults_per_call("jetstokes") < 5.0

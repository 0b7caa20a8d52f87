"""The package runs every loaded OpenBLAS on one thread.

All of its dense kernels are below the size where OpenBLAS threading pays,
so importing the package sets each OpenBLAS pool to one thread.  These tests
check that the import does so, that the setter is a quiet no-op where no
OpenBLAS is found, and that verdicts do not depend on the thread count.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardy_perturb
from hardy_perturb import DEFAULT_TOL, extract_model, krylov_closure, suite

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

PROBE = r"""
import ctypes, json

def pools():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[path] = getter()
                break
    return found

import numpy
before = pools()
import hardy_perturb
print(json.dumps({"before": before, "after": pools()}))
"""


def _set_threads(count: int) -> None:
    for path in hardy_perturb._openblas_paths():
        lib = ctypes.CDLL(path)
        for name in hardy_perturb._SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(count)
                break


def test_import_pins_every_openblas_to_one_thread():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    package_root = Path(hardy_perturb.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    pools = json.loads(done.stdout.strip().splitlines()[-1])
    if not pools["after"]:
        pytest.skip("no OpenBLAS is loaded")
    assert set(pools["after"].values()) == {1}
    # Negative control: before the import numpy's pool runs one thread per core.
    if os.cpu_count() > 1 and len(os.sched_getaffinity(0)) > 1:
        assert pools["before"] and min(pools["before"].values()) > 1


@pytest.mark.parametrize("paths", [[], ["/nonexistent/libopenblas.so"], ["libc.so.6"]],
                         ids=["nothing-found", "unloadable", "no-setter"])
def test_no_openblas_is_a_quiet_no_op(monkeypatch, paths):
    monkeypatch.setattr(hardy_perturb, "_openblas_paths", lambda: paths)
    assert hardy_perturb._single_blas_thread() is None


def _numeric_models(count: int) -> list:
    """Models extracted from conditioned Krylov closures, the SVD-heavy path."""
    rng = np.random.default_rng(0)
    models = []
    for _ in range(count):
        _, shift, seed_vec = suite.sample_conditioned_trial(rng, 128, 40)
        space = krylov_closure(shift, seed_vec, 40)
        models.append(extract_model(space, shift).to_json())
    return models


def test_verdicts_do_not_depend_on_the_thread_count():
    if not hardy_perturb._openblas_paths():
        pytest.skip("no OpenBLAS is loaded")
    serial = suite.check_random_trials(128, DEFAULT_TOL, 0, trials=10)
    serial_models = _numeric_models(10)
    try:
        _set_threads(2)
        threaded = suite.check_random_trials(128, DEFAULT_TOL, 0, trials=10)
        threaded_models = _numeric_models(10)
    finally:
        _set_threads(1)
    assert threaded == serial
    assert threaded_models == serial_models

"""Importing the package stays light.

``scipy.signal`` alone adds about 0.3 s to the import on a 2-core VM, more
than the whole import of ``hardy_perturb``; nothing may pull it in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hardy_perturb

PROBE = ("import json, sys; import hardy_perturb; "
         "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))")


def _loaded_scipy_modules(probe: str) -> list:
    env = dict(os.environ)
    package_root = Path(hardy_perturb.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_does_not_load_scipy_signal():
    loaded = _loaded_scipy_modules(PROBE)
    # Positive control: the probe sees the scipy modules the package does use.
    assert "scipy.linalg" in loaded
    assert "scipy.signal" not in loaded


def test_the_probe_sees_scipy_signal_when_it_is_loaded():
    loaded = _loaded_scipy_modules(PROBE.replace("import hardy_perturb;",
                                                 "import hardy_perturb, scipy.signal;"))
    assert "scipy.signal" in loaded

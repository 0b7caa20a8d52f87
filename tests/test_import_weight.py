"""Importing the package stays light.

numpy is the package's only numeric runtime dependency: importing it loads
no ``scipy`` module (``scipy.linalg`` alone is about half a cold import).
The ``scipy.signal`` probe is the control that the check sees a loaded module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hardy_perturb

# Runs ``demo paper`` with every scipy import refused before the package loads.
NO_SCIPY_DEMO = r"""
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from hardy_perturb.cli import main
main(["demo", "paper", "--truncation", "64"])
"""

PROBE = ("import json, sys; import hardy_perturb; print(json.dumps(sorted("
         "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")


def _run(script: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    package_root = Path(hardy_perturb.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(package_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=check)


def _loaded_scipy_modules(probe: str) -> list:
    return json.loads(_run(probe).stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy_module():
    assert _loaded_scipy_modules(PROBE) == []


def test_the_probe_sees_scipy_signal_when_it_is_loaded():
    loaded = _loaded_scipy_modules(PROBE.replace("import hardy_perturb;",
                                                 "import hardy_perturb, scipy.signal;"))
    assert "scipy.signal" in loaded


def test_demo_paper_runs_with_scipy_refused():
    done = _run(NO_SCIPY_DEMO, check=False)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)["report"]
    assert report["all_passed"] is True and report["failed"] == []
    assert report["checks"] and all(row["passed"] for row in report["checks"])


def test_the_refusing_finder_refuses_scipy():
    # Control: the same finder stops a direct scipy import.
    done = _run(NO_SCIPY_DEMO.replace("from hardy_perturb.cli import main", "import scipy.linalg"),
                check=False)
    assert done.returncode != 0 and "ImportError: scipy is refused" in done.stderr

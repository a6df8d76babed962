"""The import footprint: each command loads only what it runs.

The kernel layer (weights, audits, the Caputo study) needs numpy alone, and
a march loads only ``scipy.linalg.lapack``, for ``dgtsv``, at its first
solve.  Every check runs in a fresh interpreter, since ``sys.modules`` of
this one already holds whatever other tests imported.  This file does not
import ``oracles``, which loads ``scipy.integrate``, so that it runs where
scipy is not installed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prelude of a child interpreter that fails any import of scipy.
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"refused to import {name}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _scipy_modules_after(code: str) -> list[str]:
    """The ``scipy*`` modules loaded once ``code`` has run."""
    done = _python(
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["subdiff", "subdiff.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--alpha", "1e-9", "--weights", "l1"],
        ["caputo", "--alpha", "0.5", "--m", "10,20,40"],
        ["study", "--table", "1"],
    ],
    ids=["audit", "caputo", "study-1"],
)
def test_kernel_commands_run_without_scipy(argv):
    done = _python(
        REFUSE_SCIPY + "from subdiff.cli import main\nsys.exit(main(sys.argv[1:]))", *argv
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_solve_loads_lapack_only():
    pytest.importorskip("scipy")
    loaded = _scipy_modules_after(
        "import contextlib, io\n"
        "from subdiff.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['solve', '--problem', 'varcoeff-2nd', '--alpha', '0.5',"
        " '--nx', '8', '--nt', '300']) == 0"
    )
    assert "scipy.linalg.lapack" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.fft", "scipy.special"))]

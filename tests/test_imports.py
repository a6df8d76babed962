"""The import footprint: each command loads only what it runs.

The kernel layer (weights, audits, the Caputo study) needs numpy alone, and
a march loads only scipy's LAPACK extension ``scipy.linalg._flapack``, for
``dgtsv``, at its first solve, without the ``scipy.linalg`` package.  Every
check runs in a fresh interpreter, since ``sys.modules`` of this one already
holds whatever other tests imported.  This file does not
import ``oracles``, which loads ``scipy.integrate``, so that it runs where
scipy is not installed.  It also holds the package to importing only names
it uses, with the standard library's ``ast`` in place of a linter."""

import ast
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
    assert "scipy.linalg._flapack" in loaded
    assert "scipy.linalg" not in loaded
    assert not [m for m in loaded if m.startswith(("scipy.fft", "scipy.special"))]


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads; a name in its ``__all__``
    counts as read, and ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    unused = {
        path.stem: names
        for path in sorted((SRC / "subdiff").glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _unread_parameters(path: Path) -> list[str]:
    """``function:parameter`` for each parameter of a function or lambda in
    ``path`` that its body never reads; ``self`` is exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {
            name.id
            for statement in body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        where = getattr(node, "name", f"lambda@{node.lineno}")
        unread += [
            f"{where}:{param.arg}"
            for param in params
            if param is not None and param.arg != "self" and param.arg not in reads
        ]
    return unread


def test_every_parameter_is_read():
    """A parameter that no line of its function reads, like an argument left
    behind by a refactor, is dead code that every caller still passes."""
    unread = {
        path.stem: names
        for path in sorted((SRC / "subdiff").glob("*.py"))
        if (names := _unread_parameters(path))
    }
    assert unread == {}


def _private_names_and_reads(path: Path) -> tuple[list[str], set[str]]:
    """The module-level functions, classes and assignments of ``path``
    whose names start with a single underscore, and every name the module
    reads: a name load, an attribute, or an imported name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [target.id for target in targets if isinstance(target, ast.Name)]
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    return private, reads


def test_every_private_helper_is_read():
    """A helper, class or constant private to the package must be read
    somewhere in it; one that nothing reads any more is dead code."""
    private, reads = {}, set()
    for path in sorted((SRC / "subdiff").glob("*.py")):
        private[path.stem], module_reads = _private_names_and_reads(path)
        reads |= module_reads
    unread = {
        module: unread_names
        for module, names in private.items()
        if (unread_names := [name for name in names if name not in reads])
    }
    assert sum(map(len, private.values())) > 0
    assert unread == {}


def test_sources_parse_under_the_oldest_supported_python():
    """``pyproject.toml`` declares ``requires-python = ">=3.10"``, so every
    module and test must parse with the Python 3.10 grammar."""
    paths = sorted((SRC / "subdiff").glob("*.py")) + sorted((SRC.parent / "tests").glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

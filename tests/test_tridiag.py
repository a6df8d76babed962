"""Unit tests for the symmetric tridiagonal solver: ``_solve_core`` followed
by ``_check_pivots``, as the marching loop calls them, and the binding of
``dptsv`` from scipy's LAPACK extension."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdiff import tridiag
from subdiff.tridiag import SingularSystemError, _check_pivots, _solve_core

SRC = Path(__file__).resolve().parents[1] / "src"


def _solve(off, diag, rhs):
    """Solve ``A x = rhs`` on copies of the coefficients and check the
    pivots; the arrays passed in are left unchanged."""
    off, diag, rhs = (np.array(part, dtype=float) for part in (off, diag, rhs))
    x = _solve_core(off, diag, rhs)
    _check_pivots(diag)
    return x


def _random_dominant_system(rng, n):
    """A symmetric system with a positive, strictly dominant diagonal, so
    positive definite, as the schemes assemble."""
    off = rng.uniform(-1.0, 1.0, n - 1)
    neighbours = np.concatenate(([0.0], np.abs(off))) + np.concatenate((np.abs(off), [0.0]))
    diag = neighbours + rng.uniform(0.5, 1.5, n)
    rhs = rng.standard_normal(n)
    return off, diag, rhs


def _dense(off, diag):
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def test_single_equation():
    x = _solve(np.zeros(0), np.array([4.0]), np.array([2.0]))
    np.testing.assert_allclose(x, [0.5])


def test_known_three_by_three():
    x = _solve(np.array([-1.0, -1.0]), np.array([2.0, 2.0, 2.0]), np.array([1.0, 0.0, 1.0]))
    np.testing.assert_allclose(x, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_dense_solver(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        off, diag, rhs = _random_dominant_system(rng, n)
        mine = _solve(off, diag, rhs)
        dense = np.linalg.solve(_dense(off, diag), rhs)
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(mine - dense).max() <= 1e-12 * scale


def test_residual_is_small():
    rng = np.random.default_rng(7)
    off, diag, rhs = _random_dominant_system(rng, 200)
    solution = _solve(off, diag, rhs)
    residual = _dense(off, diag) @ solution - rhs
    assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_solve_core_writes_into_strided_arrays():
    """LAPACK copies an array that is not contiguous; the solution and the
    pivots must still land in the arrays passed in."""
    rng = np.random.default_rng(3)
    system = _random_dominant_system(rng, 9)
    expected = _solve(*system)
    parts = [np.zeros((values.size, 2)) for values in system]
    for part, values in zip(parts, system):
        part[:, 0] = values
    off, diag, rhs = (part[:, 0] for part in parts)
    solution = _solve_core(off, diag, rhs)
    assert solution is rhs
    np.testing.assert_array_equal(rhs, expected)
    assert diag.min() > 0.0 and not np.array_equal(diag, system[1])


def test_zero_pivot_raises():
    with pytest.raises(SingularSystemError) as excinfo:
        _solve(np.zeros(1), np.array([0.0, 1.0]), np.ones(2))
    assert excinfo.value.row == 0


def test_denormal_pivot_raises():
    """A denormal pivot is treated as singular, like an exact zero."""
    with pytest.raises(SingularSystemError) as excinfo:
        _solve(np.zeros(1), np.array([1e-310, 1.0]), np.ones(2))
    assert excinfo.value.row == 0
    assert excinfo.value.pivot == 1e-310


def test_elimination_induced_singularity():
    """Rows are individually positive but elimination hits a zero pivot:
    the matrix is positive semidefinite, not definite."""
    with pytest.raises(SingularSystemError) as excinfo:
        _solve(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert excinfo.value.row == 1
    assert excinfo.value.pivot == 0.0


@pytest.mark.parametrize(
    "off, diag, row, pivot",
    [([2.0], [1.0, 1.0], 1, -3.0), ([0.5], [-2.0, 1.0], 0, -2.0), ([], [-4.0], 0, -4.0)],
    ids=["eliminated", "first-row", "one-row"],
)
def test_negative_pivot_raises(off, diag, row, pivot):
    """An indefinite system has a negative pivot: large in magnitude, it is
    rejected by its sign, where ``dptsv`` stops without solving."""
    with pytest.raises(SingularSystemError) as excinfo:
        _solve(off, diag, np.ones(len(diag)))
    assert (excinfo.value.row, excinfo.value.pivot) == (row, pivot)


def test_dptsv_is_scipy_lapack_dptsv_bitwise():
    """The bound routine returns bitwise the pivots and solution of
    ``scipy.linalg.lapack.dptsv``."""
    lapack = pytest.importorskip("scipy.linalg.lapack")
    rng = np.random.default_rng(11)
    off, diag, rhs = _random_dominant_system(rng, 50)
    args = (diag, off, rhs)
    mine_pivots, _, mine_x, mine_info = tridiag._dptsv(*(a.copy() for a in args))
    theirs_pivots, _, theirs_x, theirs_info = lapack.dptsv(*(a.copy() for a in args))
    assert mine_info == theirs_info == 0
    assert np.array_equal(mine_pivots, theirs_pivots)
    assert np.array_equal(mine_x, theirs_x)


@pytest.mark.parametrize("scipy_linalg_first", [False, True], ids=["solve-first", "import-first"])
def test_scipy_linalg_and_the_solver_share_one_routine(scipy_linalg_first):
    """A solve loads ``scipy.linalg._flapack`` alone, and ``scipy.linalg``
    imported after it reuses that module instead of loading a second; a
    solve after ``import scipy.linalg`` reuses scipy's.  Either way
    ``scipy.linalg.lapack.dptsv`` is the bound routine."""
    pytest.importorskip("scipy")
    solve = (
        "x = tridiag._solve_core(np.full(2, -1.0), np.full(3, 2.0), np.ones(3))\n"
        "assert np.allclose(x, [1.5, 2.0, 1.5]), x\n"
    )
    if scipy_linalg_first:
        steps = "import scipy.linalg\n" + solve
    else:
        steps = solve + "assert 'scipy.linalg' not in sys.modules\nimport scipy.linalg\n"
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from subdiff import tridiag\n"
        + steps
        + "assert scipy.linalg.lapack.dptsv is tridiag._dptsv\n"
        "assert scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack']\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_missing_lapack_extension_names_it(monkeypatch, tmp_path):
    scipy = pytest.importorskip("scipy")
    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack.*scipy>=1\.10"):
        tridiag._flapack()

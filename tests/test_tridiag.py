"""Unit tests for the tridiagonal solver."""

import numpy as np
import pytest

from subdiff.tridiag import (
    SingularSystemError,
    TridiagonalSystem,
    _solve_core,
    solve_tridiagonal,
)


def _random_dominant_system(rng, n):
    sub = rng.uniform(-1.0, 1.0, n)
    sup = rng.uniform(-1.0, 1.0, n)
    sub[0] = 0.0
    sup[-1] = 0.0
    signs = rng.choice([-1.0, 1.0], n)
    diag = signs * (np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 1.5, n))
    rhs = rng.standard_normal(n)
    return TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)


def _dense(system):
    n = system.size
    matrix = np.zeros((n, n))
    for i in range(n):
        matrix[i, i] = system.diag[i]
        if i > 0:
            matrix[i, i - 1] = system.sub[i]
        if i < n - 1:
            matrix[i, i + 1] = system.sup[i]
    return matrix


def test_single_equation():
    system = TridiagonalSystem(
        sub=np.zeros(1), diag=np.array([4.0]), sup=np.zeros(1), rhs=np.array([2.0])
    )
    np.testing.assert_allclose(solve_tridiagonal(system), [0.5])


def test_known_three_by_three():
    system = TridiagonalSystem(
        sub=np.array([0.0, -1.0, -1.0]),
        diag=np.array([2.0, 2.0, 2.0]),
        sup=np.array([-1.0, -1.0, 0.0]),
        rhs=np.array([1.0, 0.0, 1.0]),
    )
    np.testing.assert_allclose(solve_tridiagonal(system), [1.0, 1.0, 1.0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_dense_solver(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        system = _random_dominant_system(rng, n)
        mine = solve_tridiagonal(system)
        dense = np.linalg.solve(_dense(system), system.rhs)
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(mine - dense).max() <= 1e-12 * scale


def test_residual_is_small():
    rng = np.random.default_rng(7)
    system = _random_dominant_system(rng, 200)
    solution = solve_tridiagonal(system)
    residual = _dense(system) @ solution - system.rhs
    assert np.abs(residual).max() <= 1e-12 * max(1.0, np.abs(system.rhs).max())


def test_solve_core_writes_into_strided_arrays():
    """LAPACK copies an array that is not contiguous; the solution and the
    pivots must still land in the arrays passed in."""
    rng = np.random.default_rng(3)
    system = _random_dominant_system(rng, 9)
    expected = solve_tridiagonal(system)
    parts = [np.zeros((9, 2)) for _ in range(4)]
    for part, values in zip(parts, (system.sub, system.diag, system.sup, system.rhs)):
        part[:, 0] = values
    sub, diag, sup, rhs = (part[:, 0] for part in parts)
    solution = _solve_core(sub, diag, sup, rhs)
    assert solution is rhs
    np.testing.assert_array_equal(rhs, expected)
    assert np.abs(diag).min() > 0.0 and not np.array_equal(diag, system.diag)


def test_zero_pivot_raises():
    system = TridiagonalSystem(
        sub=np.zeros(2),
        diag=np.array([0.0, 1.0]),
        sup=np.zeros(2),
        rhs=np.ones(2),
    )
    with pytest.raises(SingularSystemError) as excinfo:
        solve_tridiagonal(system)
    assert excinfo.value.row == 0


def test_denormal_pivot_raises():
    """A denormal pivot is treated as singular, like an exact zero."""
    system = TridiagonalSystem(
        sub=np.zeros(2),
        diag=np.array([1e-310, 1.0]),
        sup=np.zeros(2),
        rhs=np.ones(2),
    )
    with pytest.raises(SingularSystemError) as excinfo:
        solve_tridiagonal(system)
    assert excinfo.value.row == 0
    assert excinfo.value.pivot == 1e-310


def test_elimination_induced_singularity():
    """Rows are individually nonzero but elimination hits a zero pivot."""
    system = TridiagonalSystem(
        sub=np.array([0.0, 1.0]),
        diag=np.array([1.0, 1.0]),
        sup=np.array([1.0, 0.0]),
        rhs=np.array([1.0, 1.0]),
    )
    with pytest.raises(SingularSystemError) as excinfo:
        solve_tridiagonal(system)
    assert excinfo.value.row == 1


def test_validation_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        TridiagonalSystem(
            sub=np.zeros(3), diag=np.zeros(2), sup=np.zeros(3), rhs=np.zeros(3)
        )


def test_validation_rejects_empty():
    with pytest.raises(ValueError):
        TridiagonalSystem(
            sub=np.zeros(0), diag=np.zeros(0), sup=np.zeros(0), rhs=np.zeros(0)
        )

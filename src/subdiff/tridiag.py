"""Tridiagonal linear solves for the implicit time steps.

Each system goes to LAPACK's ``dgtsv`` (through ``scipy.linalg.lapack``):
Gaussian elimination with partial pivoting.  Every system the schemes
assemble is symmetric and strictly diagonally dominant (the dominance is
asserted during assembly), so each pivot exceeds the next row's subdiagonal
entry, the pivoting never swaps rows, and the elimination is the Thomas
algorithm.  A zero or denormal pivot indicates a bug and is surfaced as an
error rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

__all__ = ["SingularSystemError", "TridiagonalSystem", "solve_tridiagonal"]

#: Pivots at or below this magnitude (zero or denormal) abort the elimination.
_PIVOT_FLOOR = float(np.finfo(float).tiny)


class SingularSystemError(ValueError):
    """Raised when elimination hits a zero or denormal pivot."""

    def __init__(self, row: int, pivot: float):
        self.row = row
        self.pivot = pivot
        super().__init__(f"singular system: pivot {pivot!r} at row {row}")


@dataclass(frozen=True)
class TridiagonalSystem:
    """Coefficients of ``A x = rhs`` with ``A`` tridiagonal of size ``n``.

    ``sub[i]``, ``diag[i]``, ``sup[i]`` are the row-``i`` coefficients;
    ``sub[0]`` and ``sup[n-1]`` are ignored.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        size = None
        for name in ("sub", "diag", "sup", "rhs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got {arr.shape}")
            if size is None:
                size = arr.size
            elif arr.size != size:
                raise ValueError(
                    f"{name} has {arr.size} entries, expected {size}"
                )
            arrays[name] = arr
        if size == 0:
            raise ValueError("system must have at least one row")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.diag.size


def _solve_core(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve one system with ``dgtsv`` and check its pivots (the diagonal of
    the ``U`` factor); ``sub[0]`` and ``sup[-1]`` are ignored."""
    if diag.size > 1:
        _, pivots, _, x, _ = dgtsv(sub[1:], diag, sup[:-1], rhs)
    else:
        pivots = diag
    if np.abs(pivots).min() <= _PIVOT_FLOOR:
        row = int(np.flatnonzero(np.abs(pivots) <= _PIVOT_FLOOR)[0])
        raise SingularSystemError(row, float(pivots[row]))
    return x if diag.size > 1 else rhs / diag


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve ``A x = rhs``; raises :class:`SingularSystemError` naming the
    pivot row if elimination breaks down."""
    return _solve_core(system.sub, system.diag, system.sup, system.rhs)

"""Tridiagonal linear solves for the implicit time steps.

Each system goes to LAPACK's ``dgtsv`` (through ``scipy.linalg.lapack``):
Gaussian elimination with partial pivoting.  Every system the schemes
assemble is symmetric and strictly diagonally dominant (it follows from
``k >= c1 > 0`` and ``q >= 0``, which assembly checks), so each pivot exceeds
the next row's subdiagonal entry, the pivoting never swaps rows, and the
elimination is the Thomas algorithm.  A zero or denormal pivot indicates a
bug and is surfaced as an error rather than repaired.

The marching loop solves in place: each step's right-hand side becomes its
solution and its diagonal the factored pivots, which the loop checks once
per block of steps with :func:`_check_pivots`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

__all__ = ["SingularSystemError"]

#: Pivots at or below this magnitude (zero or denormal) abort the elimination.
_PIVOT_FLOOR = float(np.finfo(float).tiny)


class SingularSystemError(ValueError):
    """Raised when elimination hits a zero or denormal pivot."""

    def __init__(self, row: int, pivot: float):
        self.row = row
        self.pivot = pivot
        super().__init__(f"singular system: pivot {pivot!r} at row {row}")


def _solve_core(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve one system in place with ``dgtsv`` and return ``rhs``, which
    now holds the solution; ``diag`` now holds the pivots (the diagonal of
    the ``U`` factor) and ``sub``, ``sup`` are overwritten.  ``sub[0]`` and
    ``sup[-1]`` are ignored.  The pivots are not checked here: pass them to
    :func:`_check_pivots`."""
    if diag.size == 1:
        if abs(diag[0]) > _PIVOT_FLOOR:
            rhs /= diag
        return rhs
    # The four flags (overwrite dl, d, du and b) go by position: keywords
    # cost f2py almost a microsecond per call.
    _, pivots, _, x, _ = dgtsv(sub[1:], diag, sup[:-1], rhs, 1, 1, 1, 1)
    # LAPACK works on a copy of an array that is not contiguous.
    if pivots is not diag:
        diag[...] = pivots
    if x is not rhs:
        rhs[...] = x
    return rhs


def _check_pivots(pivots: np.ndarray) -> None:
    """Raise :class:`SingularSystemError` for the first pivot at or below
    ``_PIVOT_FLOOR`` in the pivots of one system, or of a block of systems
    with one system per row."""
    magnitude = np.abs(pivots)
    if magnitude.min() <= _PIVOT_FLOOR:
        first = np.argwhere(magnitude <= _PIVOT_FLOOR)[0]
        raise SingularSystemError(int(first[-1]), float(pivots[tuple(first)]))

"""Tridiagonal linear solves for the implicit time steps.

Each system goes to LAPACK's ``dgtsv``: Gaussian elimination with partial
pivoting.  The routine comes from scipy's compiled f2py wrapper
``scipy.linalg._flapack``, loaded by itself at the first solve, not with the
module, so that the commands that never march (the weight audits and the
Caputo study) load no scipy, and the ones that march skip the
``scipy.linalg`` package, which would cost them about 28 MB of resident
memory and 0.24 s for this one routine.  Every system the schemes
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

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["SingularSystemError"]

#: Pivots at or below this magnitude (zero or denormal) abort the elimination.
_PIVOT_FLOOR = float(np.finfo(float).tiny)


class SingularSystemError(ValueError):
    """Raised when elimination hits a zero or denormal pivot."""

    def __init__(self, row: int, pivot: float):
        self.row = row
        self.pivot = pivot
        super().__init__(f"singular system: pivot {pivot!r} at row {row}")


def _flapack():
    """scipy's f2py LAPACK wrapper ``scipy.linalg._flapack``, loaded from
    scipy's ``linalg`` directory without running ``scipy.linalg/__init__``.
    The module goes into ``sys.modules`` under its own name, so a later
    ``import scipy.linalg`` uses this instance instead of loading a second."""
    import scipy

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.__path__[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} in {finder.path}: subdiff needs scipy>=1.10", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _dgtsv(*args):
    """LAPACK's ``dgtsv``, bound at the first call: this stand-in loads
    :func:`_flapack` and rebinds the module name to its ``dgtsv`` (the
    routine ``scipy.linalg.lapack.dgtsv`` is), so that every later solve
    calls the f2py routine directly.  Loading the one extension costs about
    4 MB and 0.02 s, against 28 MB and 0.24 s for importing
    ``scipy.linalg.lapack`` (medians of seven fresh interpreters on 2 vCPUs,
    scipy 1.17.1)."""
    global _dgtsv
    _dgtsv = _flapack().dgtsv
    return _dgtsv(*args)


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
    _, pivots, _, x, _ = _dgtsv(sub[1:], diag, sup[:-1], rhs, 1, 1, 1, 1)
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

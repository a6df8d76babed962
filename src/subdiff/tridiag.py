"""Tridiagonal linear solves for the implicit time steps.

Each system goes to LAPACK's ``dptsv``: the ``L D L^T`` factorization of a
symmetric positive definite tridiagonal matrix, without pivoting.  The
routine comes from scipy's compiled f2py wrapper ``scipy.linalg._flapack``,
loaded by itself at the first solve, not with the module, so that the
commands that never march (the weight audits and the Caputo study) load no
scipy, and the ones that march skip the ``scipy.linalg`` package, which
would cost them about 28 MB of resident memory and 0.24 s for this one
routine.  Every system the schemes assemble is symmetric bit for bit (one
off-diagonal serves both neighbours) and strictly diagonally dominant with
a positive diagonal (it follows from ``k >= c1 > 0`` and ``q >= 0``, which
assembly checks), so it is positive definite and every pivot of ``D`` is
positive.  A pivot at or below zero, or denormal, indicates a bug and is
surfaced as an error rather than repaired: ``dptsv`` stops at the first
pivot that is not positive and leaves that system unsolved, so the check is
signed.

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

#: Pivots at or below this value (zero, negative or denormal) abort the
#: elimination.
_PIVOT_FLOOR = float(np.finfo(float).tiny)


class SingularSystemError(ValueError):
    """Raised when elimination hits a pivot that is not positive, or is
    denormal."""

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


def _dptsv(*args):
    """LAPACK's ``dptsv``, bound at the first call: this stand-in loads
    :func:`_flapack` and rebinds the module name to its ``dptsv`` (the
    routine ``scipy.linalg.lapack.dptsv`` is), so that every later solve
    calls the f2py routine directly.  Loading the one extension costs about
    4 MB and 0.02 s, against 28 MB and 0.24 s for importing
    ``scipy.linalg.lapack`` (medians of seven fresh interpreters on 2 vCPUs,
    scipy 1.17.1)."""
    global _dptsv
    _dptsv = _flapack().dptsv
    return _dptsv(*args)


def _solve_core(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one symmetric system in place with ``dptsv`` and return
    ``rhs``, which now holds the solution; ``diag`` now holds the pivots
    (the diagonal of ``D``) and ``off``, the ``n - 1`` entries that couple
    unknowns ``k`` and ``k + 1``, is overwritten.  The pivots are not
    checked here: pass them to :func:`_check_pivots`."""
    if diag.size == 1:
        if diag[0] > _PIVOT_FLOOR:
            rhs /= diag
        return rhs
    # The three flags (overwrite d, e and b) go by position: keywords cost
    # f2py almost a microsecond per call.
    pivots, _, x, _ = _dptsv(diag, off, rhs, 1, 1, 1)
    # LAPACK works on a copy of an array that is not contiguous.
    if pivots is not diag:
        diag[...] = pivots
    if x is not rhs:
        rhs[...] = x
    return rhs


def _check_pivots(pivots: np.ndarray) -> None:
    """Raise :class:`SingularSystemError` for the first pivot at or below
    ``_PIVOT_FLOOR`` (zero, negative or denormal) in the pivots of one
    system, or of a block of systems with one system per row."""
    if pivots.min() <= _PIVOT_FLOOR:
        first = np.argwhere(pivots <= _PIVOT_FLOOR)[0]
        raise SingularSystemError(int(first[-1]), float(pivots[tuple(first)]))

"""Spatial meshes, grid-function containers, discrete norms, and observed
convergence orders."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "ErrorSummary",
    "SolutionHistory",
    "SpaceGrid",
    "convergence_order",
    "error_norms",
]


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform mesh of ``n`` subintervals on ``[0, length]``; node ``i`` sits
    at ``i*h`` with ``h = length/n``."""

    n: int
    length: float
    h: float = field(init=False)

    def __post_init__(self) -> None:
        if not _is_int(self.n):
            raise ValueError(f"n must be an int, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got {self.n}")
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {self.length}")
        object.__setattr__(self, "h", self.length / self.n)

    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=float) * self.h

    def midpoints(self) -> np.ndarray:
        """Half-integer nodes ``x_{i-1/2}`` for ``i = 1..n``."""
        return (np.arange(self.n, dtype=float) + 0.5) * self.h


@dataclass(frozen=True, eq=False)
class SolutionHistory:
    """All time layers of a finished run: ``values[j]`` holds the ``n+1``
    nodal values of layer ``j``, computed at ``times[j]``.

    ``source_norm_sq`` is ``max_j h ||phi^j||^2`` over the steps, with the
    source ``phi^j`` as the scheme assembled it at the collocation time (after
    the mass operator for the compact scheme), and ``scheme`` names the scheme
    (``"second"`` or ``"compact"``) that produced the run; the marching loop
    records both for the a priori bound, and a record built by hand may leave
    them ``None``.

    The record keeps read-only views of the arrays it is given and does not
    copy them.
    """

    grid: SpaceGrid
    values: np.ndarray
    times: np.ndarray
    source_norm_sq: Optional[float] = None
    scheme: Optional[str] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float).view()
        times = np.asarray(self.times, dtype=float).view()
        if values.ndim != 2 or values.shape[1] != self.grid.n + 1:
            raise ValueError(
                f"values must have shape (layers, {self.grid.n + 1}), got {values.shape}"
            )
        if times.shape != values.shape[:1]:
            raise ValueError(
                f"expected {values.shape[0]} layer times, got shape {times.shape}"
            )
        values.flags.writeable = False
        times.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ErrorSummary:
    """Error norms of a run against an exact solution: the largest per-layer
    L2 norm and the all-layer maximum-norm."""

    l2max: float
    sup: float


#: The error norms and the a priori bound read a history in blocks of layers
#: of about this many bytes, so that no copy of a whole history is made.
_BLOCK_BYTES = 1 << 20


def _layer_blocks(history: SolutionHistory) -> Iterator[slice]:
    """The history's layers in slices of about ``_BLOCK_BYTES``, two at least."""
    layers = max(2, _BLOCK_BYTES // (8 * (history.grid.n + 1)))
    return (slice(first, first + layers) for first in range(0, len(history), layers))


def error_norms(
    history: SolutionHistory,
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> ErrorSummary:
    """Measure ``max_n ||y^n - u(., t_n)||_L2`` and ``max |y - u|`` over the
    whole space-time mesh.  The exact solution is sampled on blocks of
    layers, as ``exact(x[None, :], times[:, None])`` with the block's times,
    so it must broadcast over ``t``; a ``ValueError`` naming ``exact`` is
    raised when it does not."""
    grid = history.grid
    x = grid.nodes()[None, :]
    l2_max, sup = [], []
    for block in _layer_blocks(history):
        values = history.values[block]
        try:
            exact_values = np.broadcast_to(exact(x, history.times[block, None]), values.shape)
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"exact(x, t) must broadcast over an array of times t: {error}"
            ) from error
        z = values - exact_values
        interior = z[:, 1:-1]
        l2_max.append(np.sqrt(grid.h * np.sum(interior * interior, axis=1)).max())
        sup.append(np.abs(z).max())
    return ErrorSummary(l2max=float(np.max(l2_max)), sup=float(np.max(sup)))


def convergence_order(levels: Sequence[tuple[float, float]]) -> list[float]:
    """Observed orders between consecutive refinement levels.

    ``levels`` holds ``(step_size, error)`` pairs with strictly decreasing
    positive step sizes and positive errors; each consecutive pair contributes
    ``log(e1/e2) / log(s1/s2)``.
    """
    if len(levels) < 2:
        raise ValueError(f"need at least two levels, got {len(levels)}")
    orders = []
    for (s1, e1), (s2, e2) in zip(levels, levels[1:]):
        if not (s1 > 0.0 and s2 > 0.0):
            raise ValueError(f"step sizes must be positive, got {s1}, {s2}")
        if s2 >= s1:
            raise ValueError(f"step sizes must strictly decrease, got {s1} -> {s2}")
        if not (e1 > 0.0 and e2 > 0.0):
            raise ValueError(f"errors must be positive, got {e1}, {e2}")
        orders.append(np.log(e1 / e2) / np.log(s1 / s2))
    return [float(order) for order in orders]

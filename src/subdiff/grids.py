"""Spatial meshes, grid-function containers, discrete norms, and observed
convergence orders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ErrorSummary",
    "SolutionHistory",
    "SpaceGrid",
    "convergence_order",
    "error_norms",
]


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform mesh of ``n`` subintervals on ``[0, length]``; node ``i`` sits
    at ``i*h`` with ``h = length/n``."""

    n: int
    length: float
    h: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 subintervals, got {self.n}")
        if not self.length > 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")
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

    The record keeps read-only views of the arrays it is given and does not
    copy them.
    """

    grid: SpaceGrid
    values: np.ndarray
    times: np.ndarray

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


def error_norms(
    history: SolutionHistory,
    exact: Callable[[np.ndarray, float], np.ndarray],
) -> ErrorSummary:
    """Measure ``max_n ||y^n - u(., t_n)||_L2`` and ``max |y - u|`` over the
    whole space-time mesh; the exact solution is sampled at the nodes."""
    grid = history.grid
    x = grid.nodes()
    values = history.values
    times = history.times
    exact_values = np.empty_like(values)
    for row, t in enumerate(times):
        exact_values[row] = exact(x, float(t))
    z = values - exact_values
    interior = z[:, 1:-1]
    l2_layers = np.sqrt(grid.h * np.sum(interior * interior, axis=1))
    return ErrorSummary(l2max=float(l2_layers.max()), sup=float(np.abs(z).max()))


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

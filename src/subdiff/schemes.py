"""Implicit finite-difference schemes for the time-fractional diffusion
equation

    D_t^alpha u = (k u_x)_x - q u + f   on (0, l) x (0, T],
    u(0, t) = u(l, t) = 0,              u(x, 0) = u0(x),

where ``D_t^alpha`` is the Caputo derivative of order ``alpha`` in (0, 1).

Two schemes are provided: a second-order scheme (``O(h^2 + tau^2)``) for
space-and-time-dependent coefficients, and a compact fourth-order scheme
(``O(h^4 + tau^2)``) for time-only coefficients.  Both collocate the time
operator at ``t_{j+sigma}`` and apply the spatial operator to the blend
``sigma*y^{j+1} + (1-sigma)*y^j``, so they share one marching loop and differ
only in the spatial assembler it calls each step.

The module also exposes the generic stability machinery: weight providers for
the discrete time operator, energy-inequality probes, and the a priori
solution bound.  The weight inequalities themselves are audited by
:func:`subdiff.kernels.audit_weight_family`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .grids import SolutionHistory, SpaceGrid
from .kernels import (
    FractionalOrder,
    _assemble_l21sigma,
    _derivative_scale,
    _l1_coefficients,
    coeff_a_array,
    coeff_b_array,
)
from .tridiag import _solve_core

__all__ = [
    "EnergyProbe",
    "L1Provider",
    "L21SigmaProvider",
    "ProblemSpec",
    "SchemeCompatibilityError",
    "WeightProvider",
    "a_priori_bound",
    "energy_inequality_probe",
    "run_compact",
    "run_second_order",
]

SpaceTimeFn = Callable[[np.ndarray, float], np.ndarray]
TimeFn = Callable[[float], float]
#: ``(sub, diag, sup, rhs)`` rows of one step's interior system, as plain lists
#: for the scalar Thomas loop.
TridiagonalRows = tuple[list[float], list[float], list[float], list[float]]


class SchemeCompatibilityError(ValueError):
    """Raised when a problem lacks what the requested scheme needs."""


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of one initial-boundary-value problem.

    ``k(x, t) >= c1 > 0`` is the diffusivity, ``q(x, t) >= 0`` the reaction
    coefficient, ``f`` the source, and ``u0`` the initial profile (vanishing at
    both endpoints).  ``c1`` is the declared lower bound of ``k`` used by the
    a priori estimate.  The compact scheme additionally needs the coefficients
    as functions of time only (``k_time``/``q_time``); leave them ``None`` for
    genuinely space-dependent coefficients.
    """

    k: SpaceTimeFn
    q: SpaceTimeFn
    f: SpaceTimeFn
    u0: Callable[[np.ndarray], np.ndarray]
    length: float
    horizon: float
    c1: float
    exact: Optional[SpaceTimeFn] = None
    k_time: Optional[TimeFn] = None
    q_time: Optional[TimeFn] = None

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if not self.horizon > 0.0:
            raise ValueError(f"time horizon must be positive, got {self.horizon}")
        if not self.c1 > 0.0:
            raise ValueError(f"diffusivity floor c1 must be positive, got {self.c1}")

    @property
    def has_time_only_coefficients(self) -> bool:
        return self.k_time is not None and self.q_time is not None


class WeightProvider(Protocol):
    """Supplier of the discrete time operator's weights for each step.

    ``weights_for(j)`` returns ``(g, sigma)`` where ``g[s]`` weights the
    difference ``v^{s+1} - v^s`` for ``s = 0..j`` (so ``g[-1]`` multiplies the
    newest difference) and ``sigma`` is the blend parameter of step ``j -> j+1``.
    """

    def weights_for(self, j: int) -> tuple[np.ndarray, float]: ...


class L21SigmaProvider:
    """Weights of the shifted-collocation operator: ``g[s] = scale * c_{j-s}``
    with the constant blend ``sigma = 1 - alpha/2``."""

    def __init__(self, order: FractionalOrder, tau: float):
        if not tau > 0.0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.order = order
        self.tau = tau
        self.scale = _derivative_scale(order, tau)
        self._a = coeff_a_array(order, 0)
        self._b = coeff_b_array(order, 0)

    def _ensure_tables(self, j: int) -> None:
        have = self._a.size - 1
        if j > have:
            grow = max(j, 2 * have)
            self._a = coeff_a_array(self.order, grow)
            self._b = coeff_b_array(self.order, grow)

    def weights_for(self, j: int) -> tuple[np.ndarray, float]:
        if j < 0:
            raise ValueError(f"target index must be nonnegative, got {j}")
        self._ensure_tables(j)
        c = _assemble_l21sigma(self._a, self._b, j)
        return self.scale * c[::-1], self.order.sigma


class L1Provider:
    """Weights of the piecewise-linear operator (collocation at ``t_{j+1}``,
    fully implicit blend ``sigma = 1``)."""

    def __init__(self, order: FractionalOrder, tau: float):
        if not tau > 0.0:
            raise ValueError(f"step size must be positive, got {tau}")
        self.order = order
        self.tau = tau
        self.scale = _derivative_scale(order, tau)

    def weights_for(self, j: int) -> tuple[np.ndarray, float]:
        if j < 0:
            raise ValueError(f"target index must be nonnegative, got {j}")
        return self.scale * _l1_coefficients(self.order, j)[::-1], 1.0


@dataclass(frozen=True)
class EnergyProbe:
    """Margins (left side minus right side) of the three energy inequalities
    at every target index, plus the magnitude of the terms involved for
    tolerance scaling.

    * ``newest``: pairing the operator with ``v^{j+1}`` against
      ``(1/2) D(v^2) + (D v)^2 / (2 g_j)``.
    * ``previous``: pairing with ``v^j`` against
      ``(1/2) D(v^2) - (D v)^2 / (2 (g_j - g_{j-1}))``.
    * ``blended``: pairing with ``sigma v^{j+1} + (1-sigma) v^j`` against
      ``(1/2) D(v^2)``.
    """

    newest: np.ndarray
    previous: np.ndarray
    blended: np.ndarray
    term_scale: np.ndarray


def energy_inequality_probe(
    provider: WeightProvider, series: Sequence[float]
) -> EnergyProbe:
    """Evaluate the energy-inequality margins on one time series.

    ``series`` holds ``v^0 .. v^{J+1}``; target indices ``0 .. J`` are probed.
    All margins are provably nonnegative whenever the provider satisfies the
    stability conditions, so negative margins beyond rounding indicate a
    broken weight family.
    """
    v = np.asarray(series, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"series must hold at least two samples, got {v.shape}")
    count = v.size - 1
    newest = np.empty(count)
    previous = np.empty(count)
    blended = np.empty(count)
    term_scale = np.empty(count)
    diffs = np.diff(v)
    diffs_sq = np.diff(v * v)
    for j in range(count):
        g, sigma = provider.weights_for(j)
        dv = float(np.dot(g, diffs[: j + 1]))
        dv_sq = float(np.dot(g, diffs_sq[: j + 1]))
        g_new = float(g[-1])
        gap = g_new - float(g[-2]) if j >= 1 else g_new
        newest[j] = v[j + 1] * dv - 0.5 * dv_sq - dv * dv / (2.0 * g_new)
        previous[j] = v[j] * dv - 0.5 * dv_sq + dv * dv / (2.0 * gap)
        blend_value = sigma * v[j + 1] + (1.0 - sigma) * v[j]
        blended[j] = blend_value * dv - 0.5 * dv_sq
        term_scale[j] = max(
            abs(v[j + 1] * dv), abs(v[j] * dv), abs(dv_sq), dv * dv / (2.0 * g_new)
        )
    return EnergyProbe(
        newest=newest, previous=previous, blended=blended, term_scale=term_scale
    )


def _dominance_guard(margin: float, context: str) -> None:
    if not margin > 0.0:
        raise ArithmeticError(
            f"diagonal dominance lost in {context}: margin {margin!r}"
        )


def _diffusivity_guard(problem: ProblemSpec, k_min: float, t: float) -> None:
    if not k_min >= problem.c1:
        raise ValueError(
            f"diffusivity sampled at t={t!r} has minimum {k_min!r}, "
            f"below the declared floor c1={problem.c1!r}"
        )


def _second_order_core(
    problem: ProblemSpec,
    grid: SpaceGrid,
    x: np.ndarray,
    t: float,
    sigma: float,
    scale: float,
    c0: float,
    y_full: np.ndarray,
    conv: np.ndarray,
) -> TridiagonalRows:
    """Assemble one step of the second-order scheme at ``t = t_{j+sigma}``.

    The diffusivity is sampled at the half-integer nodes ``x_{i-1/2}``;
    ``conv`` is the history term ``sum_{s<j} c_{j-s} (y^{s+1} - y^s)`` at the
    interior nodes.  Returns the ``(sub, diag, sup, rhs)`` rows of the
    interior system.
    """
    x_int = x[1:-1]
    a_half = np.asarray(problem.k(grid.midpoints(), t), dtype=float)
    d_int = np.asarray(problem.q(x_int, t), dtype=float)
    phi_int = np.asarray(problem.f(x_int, t), dtype=float)
    _diffusivity_guard(problem, float(a_half.min()), t)
    m = scale * c0
    y_int = y_full[1:-1]
    h_sq = grid.h * grid.h

    flux = a_half * np.diff(y_full)
    spatial = (flux[1:] - flux[:-1]) / h_sq - d_int * y_int
    rhs = scale * (c0 * y_int - conv) + (1.0 - sigma) * spatial + phi_int

    diag = m + sigma * (a_half[:-1] + a_half[1:]) / h_sq + sigma * d_int
    sub = -sigma * a_half[:-1] / h_sq
    sup = -sigma * a_half[1:] / h_sq
    _dominance_guard(float(m + sigma * d_int.min()), "second-order step")
    return sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()


def _mass_average(values: np.ndarray) -> np.ndarray:
    """The compact mass operator at interior nodes:
    ``(v_{i-1} + 10 v_i + v_{i+1}) / 12``."""
    return (values[..., :-2] + 10.0 * values[..., 1:-1] + values[..., 2:]) / 12.0


def _compact_core(
    problem: ProblemSpec,
    grid: SpaceGrid,
    x: np.ndarray,
    t: float,
    sigma: float,
    scale: float,
    c0: float,
    y_full: np.ndarray,
    conv: np.ndarray,
) -> TridiagonalRows:
    """Assemble one step of the compact scheme from the time-only
    coefficients ``k_time(t)``, ``q_time(t)``.  The source and the history
    term enter under the mass operator, which reads ``f`` at the boundary
    nodes as well."""
    a = float(problem.k_time(t))
    d = float(problem.q_time(t))
    phi_full = np.asarray(problem.f(x, t), dtype=float)
    _diffusivity_guard(problem, a, t)
    m = scale * c0
    n_interior = y_full.size - 2
    h_sq = grid.h * grid.h

    mass_phi = _mass_average(phi_full)
    mass_y = _mass_average(y_full)
    laplace_y = y_full[:-2] - 2.0 * y_full[1:-1] + y_full[2:]
    conv_full = np.zeros(y_full.size)
    conv_full[1:-1] = conv
    mass_conv = _mass_average(conv_full)

    spatial_old = a * laplace_y / h_sq - d * mass_y
    rhs = scale * (c0 * mass_y - mass_conv) + (1.0 - sigma) * spatial_old + mass_phi

    reaction = m + sigma * d
    diag_value = reaction * (10.0 / 12.0) + 2.0 * sigma * a / h_sq
    off_value = reaction / 12.0 - sigma * a / h_sq
    _dominance_guard(
        min(reaction, (2.0 / 3.0) * reaction + 4.0 * sigma * a / h_sq),
        "compact step",
    )
    off = [off_value] * n_interior
    return off, [diag_value] * n_interior, off, rhs.tolist()


def _validate_initial_layer(values: np.ndarray, problem: ProblemSpec) -> np.ndarray:
    tolerance = 1e-12 * max(1.0, float(np.abs(values).max()))
    if abs(values[0]) > tolerance or abs(values[-1]) > tolerance:
        raise ValueError(
            "initial profile must vanish at both endpoints, got "
            f"u0(0)={values[0]!r}, u0(l)={values[-1]!r}"
        )
    pinned = values.copy()
    pinned[0] = 0.0
    pinned[-1] = 0.0
    return pinned


def _march(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: int,
    nt: int,
    step: Callable[..., TridiagonalRows],
) -> SolutionHistory:
    """March the L2-1sigma scheme over ``nx`` space subintervals and ``nt``
    time steps covering ``[0, horizon]``; ``step`` is the spatial assembler.

    Step ``j -> j+1`` collocates at ``t_{j+sigma} = (j+sigma)*tau``.  Cost
    ``O(nt^2 * nx)`` because the history convolution is recomputed in full
    each step.
    """
    if nt < 1:
        raise ValueError(f"need at least one time step, got {nt}")
    grid = SpaceGrid(n=nx, length=problem.length)
    tau = problem.horizon / nt
    sigma = order.sigma
    scale = _derivative_scale(order, tau)
    a_table = coeff_a_array(order, nt - 1)
    b_table = coeff_b_array(order, nt - 1)

    x = grid.nodes()
    values = np.zeros((nt + 1, nx + 1))
    values[0] = _validate_initial_layer(
        np.asarray(problem.u0(x), dtype=float), problem
    )
    # diffs[s] = y^{s+1} - y^s at the interior nodes.
    diffs = np.empty((nt, nx - 1))

    for j in range(nt):
        c = _assemble_l21sigma(a_table, b_table, j)
        conv = np.dot(c[j:0:-1], diffs[:j])
        system = step(
            problem, grid, x, (j + sigma) * tau, sigma, scale, c[0], values[j], conv
        )
        interior = np.asarray(_solve_core(*system))
        values[j + 1, 1:-1] = interior
        diffs[j] = interior - values[j, 1:-1]

    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        raise ValueError(f"layer {bad} (t={bad * tau!r}) holds non-finite values")
    return SolutionHistory(grid, values, np.arange(nt + 1) * tau)


def run_second_order(
    problem: ProblemSpec, order: FractionalOrder, nx: int, nt: int
) -> SolutionHistory:
    """Run the second-order scheme on ``nx`` space subintervals and ``nt``
    time steps covering ``[0, horizon]``."""
    return _march(problem, order, nx, nt, _second_order_core)


def run_compact(
    problem: ProblemSpec, order: FractionalOrder, nx: int, nt: int
) -> SolutionHistory:
    """Run the compact scheme on ``nx`` space subintervals and ``nt`` time
    steps covering ``[0, horizon]``.  Requires time-only coefficients."""
    if not problem.has_time_only_coefficients:
        raise SchemeCompatibilityError(
            "compact scheme requires time-only coefficients (k_time and q_time)"
        )
    return _march(problem, order, nx, nt, _compact_core)


def a_priori_bound(
    problem: ProblemSpec,
    order: FractionalOrder,
    history: SolutionHistory,
    scheme: str = "second",
) -> tuple[float, float]:
    """Evaluate both sides of the a priori stability estimate for a finished
    run.

    Returns ``(lhs, rhs)`` where ``lhs`` is the largest squared solution norm
    over all layers and ``rhs = ||y^0||^2 + const * max_j ||phi^j||^2`` with
    the source sampled at the collocation times.  For the second-order scheme
    the norms are plain interior L2 norms and
    ``const = l^2 T^alpha Gamma(1-alpha) / (4 c1)``; for the compact scheme
    the norms are taken after the mass operator and
    ``const = l^2 T^alpha Gamma(1-alpha) / c1``.  Stability means
    ``lhs <= rhs``.
    """
    if scheme not in ("second", "compact"):
        raise ValueError(f"unknown scheme {scheme!r}")
    grid = history.grid
    steps = len(history) - 1
    if steps < 1:
        raise ValueError("history must contain at least one computed step")
    times = history.times
    tau = float(times[1] - times[0])
    t_final = float(times[-1])
    x = grid.nodes()
    h = grid.h
    alpha, sigma = order.alpha, order.sigma

    values = history.values
    if scheme == "compact":
        transformed = _mass_average(values)
        source_consts = problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / problem.c1
    else:
        transformed = values[:, 1:-1]
        source_consts = (
            problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / (4.0 * problem.c1)
        )
    layer_norms_sq = h * np.sum(transformed * transformed, axis=1)

    source_norm_sq = 0.0
    for j in range(steps):
        phi = np.asarray(problem.f(x, (j + sigma) * tau), dtype=float)
        phi_t = _mass_average(phi) if scheme == "compact" else phi[1:-1]
        source_norm_sq = max(source_norm_sq, h * float(np.dot(phi_t, phi_t)))

    lhs = float(layer_norms_sq.max())
    rhs = float(layer_norms_sq[0] + source_consts * source_norm_sq)
    return lhs, rhs

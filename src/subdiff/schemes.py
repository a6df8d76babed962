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
only in the spatial assembler it calls for each block of steps.

The module also evaluates the a priori solution bound of a finished run.  The
weight inequalities and the energy inequalities behind it are checked in
:mod:`subdiff.kernels`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.fft

from .grids import SolutionHistory, SpaceGrid
from .kernels import (
    FractionalOrder,
    _assemble_l21sigma,
    _derivative_scale,
    coeff_a_array,
    coeff_b_array,
)
from .tridiag import _check_pivots, _solve_core

__all__ = [
    "ProblemSpec",
    "SchemeCompatibilityError",
    "a_priori_bound",
    "run_compact",
    "run_second_order",
]

#: ``f(x, t)``: ``x`` and ``t`` are arrays that broadcast against each other.
SpaceTimeFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``g(t)`` over an array of times ``t``.
TimeFn = Callable[[np.ndarray], np.ndarray]
#: ``(sub, diag, sup)`` of the systems of a block of steps, one row per step.
TridiagonalRows = tuple[np.ndarray, np.ndarray, np.ndarray]
#: Writes the right-hand side of step ``i`` of a block, from ``y^j`` and the
#: history term at every node, into the rows: ``rhs(i, y, conv, out)``.
StepRhs = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]
#: A spatial assembler: for a block of collocation times it returns the rows
#: of every step, the source each step's right-hand side takes in, and the
#: per-step right-hand side.
Assembler = Callable[..., tuple[TridiagonalRows, np.ndarray, StepRhs]]


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
    genuinely space-dependent coefficients.  ``exact``, when given, is the
    exact solution.

    Every callback of ``t`` must broadcast over an array of times as numpy
    ufuncs do (write ``np.exp(t)``, not ``math.exp(t)``, and
    ``np.where(t > s, ...)``, not ``if t > s``).  The runners sample ``k``,
    ``q`` and ``f`` once per block of steps with ``x`` of shape ``(1, m)``
    and ``t`` of shape ``(steps, 1)``, and ``k_time``/``q_time`` with ``t`` of
    shape ``(steps,)``; :func:`subdiff.grids.error_norms` samples ``exact``
    once on the whole mesh with ``t`` of shape ``(layers, 1)``.  A result
    that only depends on some of the axes, or a constant, is broadcast to the
    full shape.
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


def _sample(fn: Callable, name: str, *args: np.ndarray) -> np.ndarray:
    """``fn(*args)`` broadcast to the common shape of ``args``, whose last
    member holds the times along its first axis; a callback that does not
    broadcast over an array of times raises a ``ValueError`` naming it.

    A block of one step is sampled at its time twice, because a size-one
    array passes ``if t > s``: a callback is rejected whatever the block
    length."""
    *space, times = args
    steps = times.shape[0]
    if steps == 1:
        times = np.concatenate((times, times))
    shape = np.broadcast_shapes(*(arg.shape for arg in space), times.shape)
    try:
        values = np.broadcast_to(np.asarray(fn(*space, times), dtype=float), shape)
    except (TypeError, ValueError) as error:
        signature = "(x, t)" if len(args) == 2 else "(t)"
        raise ValueError(
            f"{name}{signature} must broadcast over an array of times t: {error}"
        ) from error
    return values[:steps]


def _coefficient_guard(
    problem: ProblemSpec, times: np.ndarray, k_min: np.ndarray, q_min: np.ndarray
) -> None:
    """Reject the first step of a block whose diffusivity falls below ``c1``
    or whose reaction coefficient is negative (NaN included).  With
    ``k >= c1 > 0`` and ``q >= 0`` every system is strictly diagonally
    dominant."""
    k_bad = ~(k_min >= problem.c1)
    bad = k_bad | ~(q_min >= 0.0)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    t = float(times[i])
    if k_bad[i]:
        raise ValueError(
            f"diffusivity sampled at t={t!r} has minimum {float(k_min[i])!r}, "
            f"below the declared floor c1={problem.c1!r}"
        )
    raise ValueError(
        f"reaction coefficient sampled at t={t!r} has minimum {float(q_min[i])!r}, "
        "below zero"
    )


class _GridGroup:
    """Grids on one domain laid end to end, so that each step of a run
    serves all of them with one set of callbacks, one stencil pass and one
    tridiagonal solve.

    ``x`` concatenates each grid's ``n+1`` nodes and ``midpoints`` its ``n``
    half-integer nodes.  Every node but the first and the last is a row of
    one block-diagonal system, row ``r`` being node ``r+1``, so a three-point
    stencil over the node vector lands on the rows without a gather.  The
    boundary nodes inside the group are identity rows (``edges``): diagonal
    1, no couplings and a right-hand side of zero, so they keep their zero.
    The couplings into them, from each grid's first and last interior row
    (``firsts``, ``lasts``), are zeroed too, and ``dgtsv`` eliminates each
    grid's block exactly as it would alone.

    Once per block of steps the assemblers spread what they sample over the
    rows: ``live`` lists the rows of the grids' interior nodes ``x_int``, and
    ``intervals`` the grids' own intervals among the differences of the node
    vector (difference ``i`` joins nodes ``i`` and ``i+1``); those across two
    grids are left out.  ``h_sq`` holds each row's ``h*h`` (1 on an identity
    row).  With one grid there are no identity rows, and the rows are the
    interior nodes a one-grid code solves for.
    """

    def __init__(self, length: float, nxs: tuple[int, ...]):
        if not nxs:
            raise ValueError("need at least one grid")
        self.grids = tuple(SpaceGrid(n=nx, length=length) for nx in nxs)
        self.h = np.array([grid.h for grid in self.grids])
        ends = np.cumsum([grid.n + 1 for grid in self.grids])
        begins = np.concatenate(([0], ends[:-1]))
        self.spans = tuple(zip(begins.tolist(), ends.tolist()))
        self.x = np.concatenate([grid.nodes() for grid in self.grids])
        self.midpoints = np.concatenate([grid.midpoints() for grid in self.grids])
        #: Row ``begin`` is node ``begin+1``, the first interior node of a
        #: grid; row ``end-3`` is node ``end-2``, its last.
        self.firsts = begins
        self.lasts = ends - 3
        self.edges = np.concatenate((ends[:-1] - 2, ends[:-1] - 1))
        self.live = np.flatnonzero(~np.isin(np.arange(self.x.size - 2), self.edges))
        self.x_int = self.x[self.live + 1]
        self.intervals = np.flatnonzero(
            ~np.isin(np.arange(self.x.size - 1), ends[:-1] - 1)
        )
        self.h_sq = np.ones(self.x.size - 2)
        for grid, begin, end in zip(self.grids, begins, ends):
            self.h_sq[begin : end - 2] = grid.h * grid.h

    def decouple(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        """Make the identity rows of a block of steps' systems and zero the
        couplings into them."""
        diag[:, self.edges] = 1.0
        sub[:, self.edges] = 0.0
        sup[:, self.edges] = 0.0
        sub[:, self.firsts] = 0.0
        sup[:, self.lasts] = 0.0


def _second_order_block(
    problem: ProblemSpec,
    group: _GridGroup,
    times: np.ndarray,
    sigma: float,
    scale: float,
    c0: np.ndarray,
) -> tuple[TridiagonalRows, np.ndarray, StepRhs]:
    """Assemble a block of steps of the second-order scheme, step ``i`` at
    ``t = times[i]`` with weight ``c0[i]``.

    The diffusivity is sampled at the half-integer nodes ``x_{i-1/2}``.
    Returns the rows of every step, the source at every row (zero on the
    identity rows), and the right-hand side of step ``i``, where ``conv`` is
    the history term ``scale * sum_{s<j} c_{j-s} (y^{s+1} - y^s)`` at every
    node (zero on the boundary).
    """
    t = times[:, None]
    a_half = _sample(problem.k, "k", group.midpoints[None, :], t)
    d_int = _sample(problem.q, "q", group.x_int[None, :], t)
    phi_int = _sample(problem.f, "f", group.x_int[None, :], t)
    _coefficient_guard(problem, times, a_half.min(axis=1), d_int.min(axis=1))
    steps, rows = times.size, group.x.size - 2
    # The diffusivity on every difference of the node vector (zero across
    # two grids), and the reaction and the source on every row.
    a = np.zeros((steps, rows + 1))
    a[:, group.intervals] = a_half
    d = np.zeros((steps, rows))
    d[:, group.live] = d_int
    phi = np.zeros((steps, rows))
    phi[:, group.live] = phi_int
    h_sq = group.h_sq
    a_left, a_right = a[:, :-1], a[:, 1:]
    diag = (scale * c0)[:, None] + sigma * (a_left + a_right) / h_sq + sigma * d
    sub = -sigma * a_left / h_sq
    sup = -sigma * a_right / h_sq
    # Per-row weights of y^j and of the flux differences; the latter vanish
    # on the identity rows, where y^j, the history term and phi are zero.
    y_weight = (scale * c0)[:, None] - (1.0 - sigma) * d
    flux_weight = (1.0 - sigma) / h_sq
    flux_weight[group.edges] = 0.0
    flux = np.empty(rows + 1)
    scratch = np.empty(rows)

    # Outputs go by position: ``out=`` costs numpy a keyword lookup per call.
    def rhs(i: int, y: np.ndarray, conv: np.ndarray, out: np.ndarray) -> None:
        np.subtract(y[1:], y[:-1], flux)
        np.multiply(flux, a[i], flux)
        np.subtract(flux[1:], flux[:-1], out)
        np.multiply(out, flux_weight, out)
        np.multiply(y_weight[i], y[1:-1], scratch)
        np.add(out, scratch, out)
        np.subtract(out, conv[1:-1], out)
        np.add(out, phi[i], out)

    return (sub, diag, sup), phi, rhs


def _mass_average(values: np.ndarray) -> np.ndarray:
    """The compact mass operator at interior nodes:
    ``(v_{i-1} + 10 v_i + v_{i+1}) / 12``."""
    return (values[..., :-2] + 10.0 * values[..., 1:-1] + values[..., 2:]) / 12.0


def _compact_block(
    problem: ProblemSpec,
    group: _GridGroup,
    times: np.ndarray,
    sigma: float,
    scale: float,
    c0: np.ndarray,
) -> tuple[TridiagonalRows, np.ndarray, StepRhs]:
    """Assemble a block of steps of the compact scheme from the time-only
    coefficients ``k_time(t)``, ``q_time(t)``.  The source and the history
    term enter under the mass operator, which reads ``f`` at the boundary
    nodes as well; the mass-averaged source is returned with the rows."""
    a = _sample(problem.k_time, "k_time", times)
    d = _sample(problem.q_time, "q_time", times)
    phi_full = _sample(problem.f, "f", group.x[None, :], times[:, None])
    _coefficient_guard(problem, times, a, d)
    h_sq = group.h_sq
    mass_phi = _mass_average(phi_full)
    mass_phi[:, group.edges] = 0.0

    reaction = (scale * c0 + sigma * d)[:, None]
    diag = reaction * (10.0 / 12.0) + 2.0 * sigma * a[:, None] / h_sq
    sub = reaction / 12.0 - sigma * a[:, None] / h_sq
    # The right-hand side is M(w) + g L(y^j) + M(phi) with the mass operator
    # M, the second difference L and w = y_weight * y^j - conv.  The weights
    # are arrays, which numpy multiplies by faster than by a Python float;
    # those per row vanish on the identity rows.
    y_weight = np.repeat((scale * c0 - (1.0 - sigma) * d)[:, None], group.x.size, axis=1)
    laplace_weight = (1.0 - sigma) * a[:, None] / h_sq
    laplace_weight[:, group.edges] = 0.0
    mass_weight = np.full(h_sq.size, 1.0 / 12.0)
    mass_weight[group.edges] = 0.0
    ten = np.full(h_sq.size, 10.0)
    w = np.empty(group.x.size)
    laplace = np.empty(h_sq.size)

    # Outputs go by position: ``out=`` costs numpy a keyword lookup per call.
    def rhs(i: int, y: np.ndarray, conv: np.ndarray, out: np.ndarray) -> None:
        np.multiply(y, y_weight[i], w)
        np.subtract(w, conv, w)
        np.multiply(w[1:-1], ten, out)
        np.add(out, w[:-2], out)
        np.add(out, w[2:], out)
        np.multiply(out, mass_weight, out)
        np.add(y[:-2], y[2:], laplace)
        np.subtract(laplace, y[1:-1], laplace)
        np.subtract(laplace, y[1:-1], laplace)
        np.multiply(laplace, laplace_weight[i], laplace)
        np.add(out, laplace, out)
        np.add(out, mass_phi[i], out)

    return (sub, diag, sub.copy()), mass_phi, rhs


#: The spatial assembler of each scheme, by the name a run records in
#: ``SolutionHistory.scheme``.
_ASSEMBLERS: dict[str, Assembler] = {
    "second": _second_order_block,
    "compact": _compact_block,
}


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


#: Each step sums the sources of its own window of this many steps directly;
#: the older ones arrive in dyadic blocks of at least this many.
_WINDOW = 64
#: Blocks of up to this many sources go through one dense Toeplitz product;
#: larger ones through an FFT of twice their length.  A larger bound would
#: keep the Toeplitz matrices in memory (8 MB for a block of 1024) and hand
#: OpenBLAS products large enough to start its second thread, for no gain in
#: wall time on the study tables.
_DENSE_BLOCK_MAX = 64
#: Working-set budget in bytes: the padded block one FFT pass transforms
#: (the columns are taken in chunks that fit it), and one ``(steps, nodes)``
#: block of sampled data (the steps are taken in blocks that fit it).
_CHUNK_BYTES = 1 << 18


class _CausalConvolution:
    """The history sums ``acc[t] = tail[t] * src[0] + sum_{1 <= s < t}
    lags[t-s] * src[s]`` over the rows of ``src``, built while the rows are
    filled one by one (the dyadic scheme of Hairer, Lubich & Schlichte, SIAM
    J. Sci. Stat. Comput. 6, 1985).

    ``term(j)`` returns ``acc[j]`` once rows ``0 .. j-1`` are filled; it is
    called for ``j = 0, 1, 2, ...`` in turn.  Source 0 enters every target
    at once, when ``term(1)`` is called.  A pair ``1 <= s < t`` inside one
    window of ``_WINDOW`` steps is summed by target ``t`` itself, in one
    product with the lags of its window.  Any other pair is added exactly
    once, at the highest bit where ``s`` and ``t`` differ: at ``j = t`` with
    that bit and the ones below it cleared, ``term(j)`` adds the
    ``L = j & -j >= _WINDOW`` sources ``[j-L, j)`` into the targets
    ``[j, j+L)``.  A block of ``L <= _DENSE_BLOCK_MAX`` is one product with
    the Toeplitz matrix of lags ``1 .. 2L-1``; a larger one is a circular
    convolution of length ``2L`` through ``scipy.fft``, over column chunks of
    at most ``_CHUNK_BYTES``.  The matrices and lag spectra are cached per
    ``L``.  A block always computes its full ``L`` target rows and drops those
    past the last row only when adding them, so ``acc[t]`` does not depend on
    the number of rows.  ``lags`` must reach lag ``2L-1`` of the largest
    block, ``L <= len(src) - 1``, and ``tail`` must reach ``len(src) - 1``.
    Cost ``O(n log^2 n + n * _WINDOW)`` per column for ``n`` rows.
    """

    def __init__(self, lags: np.ndarray, tail: np.ndarray, src: np.ndarray):
        self.lags = lags
        self.tail = tail
        self.src = src
        self.acc = np.zeros_like(src)
        #: Lags ``_WINDOW-1 .. 1``: the last ``m`` of them weigh the ``m``
        #: sources before a target.
        self._near = lags[1:_WINDOW][::-1].copy()
        self._blocks: dict[int, np.ndarray] = {}

    def _block(self, size: int) -> np.ndarray:
        """The ``size x size`` Toeplitz matrix of lags, or its ``rfft`` over
        a period of ``2*size`` (lag 0 set to zero)."""
        block = self._blocks.get(size)
        if block is None:
            if size <= _DENSE_BLOCK_MAX:
                offsets = np.arange(size)
                block = self.lags[size + offsets[:, None] - offsets[None, :]]
            else:
                period = np.zeros(2 * size)
                period[1:] = self.lags[1 : 2 * size]
                block = scipy.fft.rfft(period)
            self._blocks[size] = block
        return block

    def term(self, j: int) -> np.ndarray:
        """``acc[j]``, complete once rows ``0 .. j-1`` of ``src`` are filled."""
        if j == 1:
            # Nothing has reached the accumulator yet.
            rows = self.src.shape[0]
            np.multiply.outer(self.tail[1:rows], self.src[0], out=self.acc[1:])
        elif j and not j % _WINDOW:
            self._add_block(j)
        target = self.acc[j]
        near = min(j % _WINDOW, j - 1)
        if near > 0:
            np.add(target, np.dot(self._near[-near:], self.src[j - near : j]), target)
        return target

    def _add_block(self, j: int) -> None:
        size = j & -j
        first = j - size
        kept = min(size, self.src.shape[0] - j)
        targets = self.acc[j : j + kept]
        if size <= _DENSE_BLOCK_MAX:
            skip = 1 if first == 0 else 0
            block = self._block(size)[:, skip:] @ self.src[first + skip : j]
            targets += block[:kept]
            return
        spectrum = self._block(size)[:, None]
        width = max(1, _CHUNK_BYTES // (16 * size))
        for begin in range(0, self.src.shape[1], width):
            columns = slice(begin, begin + width)
            padded = np.zeros((2 * size, min(width, self.src.shape[1] - begin)))
            padded[:size] = self.src[first:j, columns]
            if first == 0:
                padded[0] = 0.0
            transform = scipy.fft.rfft(padded, axis=0, overwrite_x=True)
            transform *= spectrum
            targets[:, columns] += scipy.fft.irfft(
                transform, 2 * size, axis=0, overwrite_x=True
            )[size : size + kept]


def _march(
    problem: ProblemSpec,
    order: FractionalOrder,
    nxs: tuple[int, ...],
    nt: int,
    scheme: str,
) -> tuple[SolutionHistory, ...]:
    """March the L2-1sigma scheme with ``nt`` time steps covering
    ``[0, horizon]`` on every grid of ``nxs`` space subintervals at once;
    ``scheme`` names the spatial assembler in ``_ASSEMBLERS``.  Returns one
    history per grid.

    Step ``j -> j+1`` collocates at ``t_{j+sigma} = (j+sigma)*tau``.  Its
    weights ``c_0 .. c_j`` share the lag weights ``c_1 .. c_{j-1}`` with
    every other step, so one lag table serves the run; only ``c_0`` and the
    tail ``c_j = a_j - b_j`` on ``y^1 - y^0`` change with ``j``.  The lag
    table and the tail carry the derivative's scale ``tau^-alpha /
    Gamma(2-alpha)``.  Cost ``O(nt log^2 nt * nx)``: the history term is
    built by :class:`_CausalConvolution`, which sums each step's own window
    of the last few differences directly and adds older ones in dyadic
    blocks.

    Nothing but the right-hand side depends on the solution, so the steps
    are taken in blocks of ``_CHUNK_BYTES // (8 * nodes)``: the assembler
    samples the callbacks once per block, on an array of the block's
    collocation times, checks ``k >= c1`` and ``q >= 0`` and builds the rows,
    the source and per-row weights for every step of the block.  Each step
    then writes its right-hand side from ``y^j`` and the history term into
    ``values[j+1]``, where ``dgtsv`` solves in place, and takes the
    difference to ``y^j`` for the history.  The factored pivots land in the
    block's diagonal and are checked once per block, so a zero or denormal
    pivot raises :class:`~subdiff.tridiag.SingularSystemError` at the end of
    its block.

    The grids share the time grid, the callbacks, the history contraction
    and the solve: every node but the first and the last of the group is a
    row of one block-diagonal system (see :class:`_GridGroup`), in which the
    grids' boundary nodes are identity rows.  Each history records the
    scheme and ``max_j h ||phi^j||^2`` of the source as its assembler formed
    it.
    """
    if nt < 1:
        raise ValueError(f"need at least one time step, got {nt}")
    assemble = _ASSEMBLERS[scheme]
    group = _GridGroup(problem.length, nxs)
    tau = problem.horizon / nt
    sigma = order.sigma
    scale = _derivative_scale(order, tau)
    # Lags up to 2L-1 of the largest block L <= nt-1, and the tail up to nt-1.
    n_table = 1 << (nt - 1).bit_length()
    a_table = coeff_a_array(order, n_table)
    b_table = coeff_b_array(order, n_table)
    lags = _assemble_l21sigma(a_table, b_table, n_table)

    values = np.zeros((nt + 1, group.x.size))
    initial = np.asarray(problem.u0(group.x), dtype=float)
    for begin, end in group.spans:
        values[0, begin:end] = _validate_initial_layer(initial[begin:end], problem)
    # diffs[s] = y^{s+1} - y^s at every node; the boundary columns stay zero,
    # and so do those of the history term.
    diffs = np.zeros((nt, group.x.size))
    history = _CausalConvolution(scale * lags, scale * (a_table - b_table), diffs)
    source_norm_sq = np.zeros(len(group.grids))
    block_steps = max(1, _CHUNK_BYTES // (8 * group.x.size))

    for first in range(0, nt, block_steps):
        steps = np.arange(first, min(first + block_steps, nt))
        c0 = np.where(steps == 0, a_table[0], lags[0])
        (sub, diag, sup), phi, rhs = assemble(
            problem, group, (steps + sigma) * tau, sigma, scale, c0
        )
        # Each grid's rows run from its first row to the next grid's; the
        # identity rows among them carry no source.
        np.maximum(
            source_norm_sq,
            (group.h * np.add.reduceat(phi * phi, group.firsts, axis=1)).max(axis=0),
            out=source_norm_sq,
        )
        group.decouple(sub, diag, sup)
        systems = zip(steps.tolist(), sub, diag, sup)
        for i, (j, sub_j, diag_j, sup_j) in enumerate(systems):
            y, new = values[j], values[j + 1]
            solution = new[1:-1]
            rhs(i, y, history.term(j), solution)
            _solve_core(sub_j, diag_j, sup_j, solution)
            np.subtract(new, y, diffs[j])
        _check_pivots(diag)

    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        raise ValueError(f"layer {bad} (t={bad * tau!r}) holds non-finite values")
    times = np.arange(nt + 1) * tau
    return tuple(
        SolutionHistory(grid, values[:, begin:end], times, float(norm_sq), scheme)
        for grid, (begin, end), norm_sq in zip(group.grids, group.spans, source_norm_sq)
    )


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _run(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: Union[int, tuple[int, ...]],
    nt: int,
    scheme: str,
) -> Union[SolutionHistory, tuple[SolutionHistory, ...]]:
    """One history for an integer ``nx``, one per grid for a tuple of
    integers; any other ``nx``, and an ``nt`` that is not an integer, is
    rejected."""
    sizes = nx if isinstance(nx, tuple) else (nx,)
    if not all(_is_int(n) for n in sizes):
        raise ValueError(f"nx must be an int or a tuple of ints, got {nx!r}")
    if not _is_int(nt):
        raise ValueError(f"nt must be an int, got {nt!r}")
    histories = _march(problem, order, sizes, nt, scheme)
    return histories if isinstance(nx, tuple) else histories[0]


def run_second_order(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: Union[int, tuple[int, ...]],
    nt: int,
) -> Union[SolutionHistory, tuple[SolutionHistory, ...]]:
    """Run the second-order scheme on ``nx`` space subintervals and ``nt``
    time steps covering ``[0, horizon]``.  A tuple ``nx`` marches those grids
    together and returns one history per grid."""
    return _run(problem, order, nx, nt, "second")


def run_compact(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: Union[int, tuple[int, ...]],
    nt: int,
) -> Union[SolutionHistory, tuple[SolutionHistory, ...]]:
    """Run the compact scheme on ``nx`` space subintervals and ``nt`` time
    steps covering ``[0, horizon]``.  Requires time-only coefficients.  A
    tuple ``nx`` marches those grids together and returns one history per
    grid."""
    if not problem.has_time_only_coefficients:
        raise SchemeCompatibilityError(
            "compact scheme requires time-only coefficients (k_time and q_time)"
        )
    return _run(problem, order, nx, nt, "compact")


def a_priori_bound(
    problem: ProblemSpec,
    order: FractionalOrder,
    history: SolutionHistory,
) -> tuple[float, float]:
    """Evaluate both sides of the a priori stability estimate for a finished
    run.

    Returns ``(lhs, rhs)`` where ``lhs`` is the largest squared solution norm
    over all layers and ``rhs = ||y^0||^2 + const * max_j ||phi^j||^2`` with
    the source at the collocation times, as the run recorded it in
    ``history.source_norm_sq``.  The norms and the constant are those of the
    scheme that produced the history, ``history.scheme``.  For the
    second-order scheme the norms are plain interior L2 norms and
    ``const = l^2 T^alpha Gamma(1-alpha) / (4 c1)``; for the compact scheme
    the norms are taken after the mass operator and
    ``const = l^2 T^alpha Gamma(1-alpha) / c1``.  Stability means
    ``lhs <= rhs``.
    """
    if len(history) < 2:
        raise ValueError("history must contain at least one computed step")
    if history.source_norm_sq is None:
        raise ValueError("history carries no recorded source norm")
    if history.scheme not in _ASSEMBLERS:
        raise ValueError(f"unknown scheme {history.scheme!r}")
    t_final = float(history.times[-1])
    alpha = order.alpha

    values = history.values
    if history.scheme == "compact":
        transformed = _mass_average(values)
        source_consts = problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / problem.c1
    else:
        transformed = values[:, 1:-1]
        source_consts = (
            problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / (4.0 * problem.c1)
        )
    layer_norms_sq = history.grid.h * np.sum(transformed * transformed, axis=1)

    lhs = float(layer_norms_sq.max())
    rhs = float(layer_norms_sq[0] + source_consts * history.source_norm_sq)
    return lhs, rhs

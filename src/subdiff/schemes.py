"""Implicit finite-difference schemes for the time-fractional diffusion
equation

    D_t^alpha u = (k u_x)_x - q u + f   on (0, l) x (0, T],
    u(0, t) = u(l, t) = 0,              u(x, 0) = u0(x),

where ``D_t^alpha`` is the Caputo derivative of order ``alpha`` in (0, 1).

Two schemes are provided: a second-order scheme (``O(h^2 + tau^2)``) for
space-and-time-dependent coefficients, and a compact fourth-order scheme
(``O(h^4 + tau^2)``) for time-only coefficients.  Both collocate the time
operator at ``t_{j+sigma}`` and apply the spatial operator to the blend
``sigma*y^{j+1} + (1-sigma)*y^j``, so they share one marching loop and one
step formula.  They differ only in how a block of steps samples the
diffusivity, the reaction and the source, and in the mass operator ``M`` on
the time term and the source: the identity for the second-order scheme,
``(1, 10, 1)/12`` for the compact one.

The module also evaluates the a priori solution bound of a finished run.  The
weight inequalities and the energy inequalities behind it are checked in
:mod:`subdiff.kernels`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .grids import _BLOCK_BYTES, SolutionHistory, SpaceGrid
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
    on blocks of layers with ``t`` of shape ``(layers, 1)``.  A result
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
        for name, value in (
            ("domain length", self.length),
            ("time horizon", self.horizon),
            ("diffusivity floor c1", self.c1),
        ):
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")

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
    """Every (order, grid) cell of a run laid end to end on one node vector,
    so that each step serves all of them with one stencil pass and one
    tridiagonal solve.

    A *slab* is the grids of ``nxs`` on one domain laid end to end, ``width``
    nodes in all, and the node vector is ``slabs`` slabs, one per fractional
    order.  ``x``, ``midpoints`` and ``x_int`` hold one slab's nodes,
    half-integer nodes and interior nodes, where each order samples its own
    callbacks.  ``grids``, ``h`` and ``spans`` list every cell of the node
    vector, slab by slab.

    Every node but the first and the last is a row of one block-diagonal
    system, row ``r`` being node ``r+1``, so a three-point stencil over the
    node vector lands on the rows without a gather.  The boundary nodes inside
    the vector are identity rows (``edges``): diagonal 1, no couplings and a
    right-hand side of zero, so they keep their zero.  The couplings into
    them, from each grid's first and last interior row (``firsts``,
    ``lasts``), are zeroed too, and ``dgtsv`` eliminates each cell's block
    exactly as it would alone.

    Once per block of steps the samplers spread what they sample over the
    rows: ``live[o]`` lists the rows of the interior nodes of slab ``o``
    (its ``x_int``), ``intervals[o]`` its grids' own intervals among the
    differences of the node vector (difference ``i`` joins nodes ``i`` and
    ``i+1``; those across two grids are left out), and :meth:`spread` puts a
    value per order on each row of its slab.  ``interior`` is 1 on the rows
    of interior nodes and 0 on the identity rows, and ``h_sq`` holds each
    row's ``h*h`` (1 on an identity row).  With one grid and one order there
    are no identity rows, and the rows are the interior nodes a one-grid
    code solves for.
    """

    def __init__(self, length: float, nxs: tuple[int, ...], slabs: int):
        slab = tuple(SpaceGrid(n=nx, length=length) for nx in nxs)
        self.x = np.concatenate([grid.nodes() for grid in slab])
        self.midpoints = np.concatenate([grid.midpoints() for grid in slab])
        self.x_int = np.concatenate([grid.nodes()[1:-1] for grid in slab])
        self.width = self.x.size
        self.grids = slab * slabs
        self.h = np.array([grid.h for grid in self.grids])
        ends = np.cumsum([grid.n + 1 for grid in self.grids])
        begins = np.concatenate(([0], ends[:-1]))
        self.spans = tuple(zip(begins.tolist(), ends.tolist()))
        nodes = int(ends[-1])
        #: Row ``begin`` is node ``begin+1``, the first interior node of a
        #: grid; row ``end-3`` is node ``end-2``, its last.
        self.firsts = begins
        self.lasts = ends - 3
        self.edges = np.concatenate((ends[:-1] - 2, ends[:-1] - 1))
        self.interior = np.isin(np.arange(nodes - 2), self.edges, invert=True) * 1.0
        self.live = np.flatnonzero(self.interior).reshape(slabs, -1)
        intervals = np.flatnonzero(~np.isin(np.arange(nodes - 1), ends[:-1] - 1))
        self.intervals = intervals.reshape(slabs, -1)
        self.h_sq = np.ones(nodes - 2)
        for grid, begin, end in zip(self.grids, begins, ends):
            self.h_sq[begin : end - 2] = grid.h * grid.h

    def spread(self, per_order: np.ndarray) -> np.ndarray:
        """The ``(steps, slabs)`` values of each order on every row of its
        slab, as a ``(steps, rows)`` array."""
        return np.repeat(per_order, self.width, axis=1)[:, 1:-1]

    def decouple(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> None:
        """Make the identity rows of a block of steps' systems and zero the
        couplings into them."""
        diag[:, self.edges] = 1.0
        sub[:, self.edges] = 0.0
        sup[:, self.edges] = 0.0
        sub[:, self.firsts] = 0.0
        sup[:, self.lasts] = 0.0


def _second_order_block(
    problems: Sequence[ProblemSpec], group: _GridGroup, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a block of steps of the second-order scheme: in the slab of
    order ``o``, step ``i`` collocates at ``t = times[i, o]``.

    Returns the diffusivity ``a`` on every difference of the node vector,
    sampled at the half-integer nodes ``x_{i-1/2}`` (zero across two grids),
    and the reaction ``d`` and the source ``phi`` on every row (zero on the
    identity rows), one row per step.
    """
    steps, rows = times.shape[0], group.h_sq.size
    a = np.zeros((steps, rows + 1))
    d = np.zeros((steps, rows))
    phi = np.zeros((steps, rows))
    for o, problem in enumerate(problems):
        t = times[:, o, None]
        k = _sample(problem.k, "k", group.midpoints[None, :], t)
        q = _sample(problem.q, "q", group.x_int[None, :], t)
        phi[:, group.live[o]] = _sample(problem.f, "f", group.x_int[None, :], t)
        _coefficient_guard(problem, times[:, o], k.min(axis=1), q.min(axis=1))
        a[:, group.intervals[o]] = k
        d[:, group.live[o]] = q
    return a, d, phi


def _mass_average(values: np.ndarray) -> np.ndarray:
    """The compact mass operator at interior nodes:
    ``(v_{i-1} + 10 v_i + v_{i+1}) / 12``."""
    return (values[..., :-2] + 10.0 * values[..., 1:-1] + values[..., 2:]) / 12.0


def _compact_block(
    problems: Sequence[ProblemSpec], group: _GridGroup, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a block of steps of the compact scheme, with the arguments and
    the result of :func:`_second_order_block`: each order's ``k_time(t)``
    and ``q_time(t)`` are spread over its slab, and ``phi`` is the
    mass-averaged source, which reads ``f`` at the boundary nodes as well."""
    steps, rows = times.shape[0], group.h_sq.size
    a = np.zeros((steps, rows + 1))
    d = np.zeros((steps, rows))
    phi = np.zeros((steps, rows))
    for o, problem in enumerate(problems):
        t = times[:, o]
        k = _sample(problem.k_time, "k_time", t)
        q = _sample(problem.q_time, "q_time", t)
        phi[:, o * group.width : (o + 1) * group.width - 2] = _mass_average(
            _sample(problem.f, "f", group.x[None, :], t[:, None])
        )
        _coefficient_guard(problem, t, k, q)
        a[:, group.intervals[o]] = k[:, None]
        d[:, group.live[o]] = q[:, None]
    phi[:, group.edges] = 0.0
    return a, d, phi


#: Each scheme by the name a run records in ``SolutionHistory.scheme``: its
#: sampler and its mass operator ``M``, ``(off-diagonal, diagonal)``.
_SCHEMES: dict[str, tuple[Callable, float, float]] = {
    "second": (_second_order_block, 0.0, 1.0),
    "compact": (_compact_block, 1.0 / 12.0, 10.0 / 12.0),
}


def _assemble(
    scheme: str,
    problems: Sequence[ProblemSpec],
    group: _GridGroup,
    times: np.ndarray,
    sigmas: np.ndarray,
    weights: np.ndarray,
) -> tuple[TridiagonalRows, np.ndarray, Callable]:
    """Assemble a block of steps of ``scheme``: in the slab of order ``o``,
    step ``i`` collocates at ``t = times[i, o]`` with the blend
    ``sigmas[o]`` and the scaled weight ``c_0 = weights[i, o]`` of
    ``y^{j+1} - y^j``.

    With the sampled ``a``, ``d`` and ``phi``, the mass operator ``M`` of
    the scheme and the flux-form stiffness ``K_a y = -(a_{i+1/2} (y_{i+1} -
    y_i) - a_{i-1/2} (y_i - y_{i-1})) / h^2``, a step solves

        ((c_0 + sigma d) M + sigma K_a) y^{j+1}
            = M (y_w y^j - conv) - (1 - sigma) K_a y^j + phi,

    with ``y_w = c_0 - (1 - sigma) d`` and the history term ``conv =
    sum_{s<j} c_{j-s} (y^{s+1} - y^s)`` (scaled).  Returns the rows of
    every step with the identity rows made, the source at every row, and
    the right-hand side ``rhs(i, y, out)`` of step ``i``, which reads
    ``y^j`` from ``y`` (every node) and ``conv`` from ``out`` (the rows) and
    writes over ``out``.
    """
    sample, mass_off, mass_diag = _SCHEMES[scheme]
    a, d, phi = sample(problems, group, times)
    h_sq = group.h_sq
    sigma = group.spread(sigmas[None, :])[0]
    c0 = group.spread(weights)
    y_weight = c0 - (1.0 - sigma) * d
    # The rows are formed in place: a block's memory goes back to the system
    # before the next block, and touching fresh pages costs more than the
    # arithmetic.
    reaction = np.add(c0, sigma * d, c0)
    a_left, a_right = a[:, :-1], a[:, 1:]
    diag = sigma * (a_left + a_right) / h_sq
    diag += reaction * mass_diag
    sub, sup = -sigma * a_left / h_sq, -sigma * a_right / h_sq
    reaction *= mass_off
    sub += reaction
    sup += reaction
    group.decouple(sub, diag, sup)
    # Per-row weights that vanish on the identity rows, where y^j, conv and
    # phi are zero.  They are arrays, which numpy multiplies by faster than
    # by a Python float.
    flux_weight = group.interior * (1.0 - sigma) / h_sq
    off_weight, diag_weight = group.interior * mass_off, group.interior * mass_diag
    # y_w y^j - conv at every node; the outer two stay zero.
    w = np.zeros(h_sq.size + 2)
    w_left, w_mid, w_right = w[:-2], w[1:-1], w[2:]
    flux = np.empty(h_sq.size + 1)
    flux_left, flux_right = flux[:-1], flux[1:]
    scratch = np.empty(h_sq.size)

    # Outputs go by position: ``out=`` costs numpy a keyword lookup per call.
    # ``out`` holds conv until the second call reads it.
    def rhs(i: int, y: np.ndarray, out: np.ndarray) -> None:
        np.multiply(y[1:-1], y_weight[i], w_mid)
        np.subtract(w_mid, out, w_mid)
        np.multiply(w_mid, diag_weight, out)
        np.add(w_left, w_right, scratch)
        np.multiply(scratch, off_weight, scratch)
        np.add(out, scratch, out)
        np.subtract(y[1:], y[:-1], flux)
        np.multiply(flux, a[i], flux)
        np.subtract(flux_right, flux_left, scratch)
        np.multiply(scratch, flux_weight, scratch)
        np.add(out, scratch, out)
        np.add(out, phi[i], out)

    return (sub, diag, sup), phi, rhs


def _validate_initial_layer(values: np.ndarray, length: float) -> np.ndarray:
    """The initial profile ``values`` on one grid of ``(0, length)``, checked
    to be finite and to vanish at both ends, with its ends pinned to zero."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"initial profile u0 must be finite, got {float(bad[0])!r}")
    tolerance = 1e-12 * max(1.0, float(np.abs(values).max()))
    if abs(values[0]) > tolerance or abs(values[-1]) > tolerance:
        raise ValueError(
            "initial profile must vanish at both endpoints, got "
            f"u0(0)={float(values[0])!r}, u0({length!r})={float(values[-1])!r}"
        )
    pinned = values.copy()
    pinned[0] = 0.0
    pinned[-1] = 0.0
    return pinned


#: Each step sums the sources of its own window of this many steps directly;
#: the older ones arrive in dyadic blocks of at least this many.  A block of
#: exactly this many is one dense Toeplitz product with the window's ring of
#: sources; a larger one goes through an FFT of twice its length.  Larger
#: dense blocks would keep the Toeplitz matrices in memory (8 MB for a block
#: of 1024) and hand OpenBLAS products large enough to start its second
#: thread, for no gain in wall time on the study tables.
_WINDOW = 64
#: Working-set budget in bytes: the padded block one FFT pass transforms
#: (the columns are taken in chunks that fit it), and one ``(steps, nodes)``
#: block of sampled data (the steps are taken in blocks that fit it).
_CHUNK_BYTES = 1 << 18


class _CausalConvolution:
    """The history sums ``acc[t] = tail[o, t] * src[0] + sum_{1 <= s < t}
    lags[o, t-s] * src[s]``, with ``src[s] = values[s+1] - values[s]``, over
    the columns of each order's slab ``o`` of the layer array ``values``,
    built while a march fills the layers one by one (the dyadic scheme of
    Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985).

    The sums live in the layer array itself: ``acc[t]`` is kept in row
    ``t+1``, which nothing else touches until step ``t`` solves into it.
    ``term(j)`` is called for ``j = 0, 1, 2, ...`` in turn, once rows ``0 ..
    j`` hold solved layers; it completes ``acc[j]`` in row ``j+1``.  It first
    takes the newest difference ``src[j-1]`` into a ring of the ``_WINDOW``
    latest, row ``s % _WINDOW``, so that the sources of the current window,
    ``[j - j % _WINDOW, j)``, are a prefix of the ring.  Source 0 enters
    every target at once, when ``term(1)`` is called.  A pair ``1 <= s < t``
    inside one window is summed by target ``t`` itself, in one batched
    product of each order's lags with its window.  Any other pair is added
    exactly once, at the highest bit where ``s`` and ``t`` differ: at ``j =
    t`` with that bit and the ones below it cleared, ``term(j)`` adds the
    ``L = j & -j >= _WINDOW`` sources ``[j-L, j)`` into the targets ``[j,
    j+L)``.  A block is taken one order's slab at a time.  A block of ``L
    = _WINDOW`` is the whole ring, the slab's product with that order's
    Toeplitz matrix of lags ``1 .. 2L-1`` in one BLAS call; a larger one is
    a circular convolution of length ``2L`` through ``numpy.fft`` (the
    pocketfft that ``scipy.fft`` wraps, bitwise the same sums, without
    importing scipy) with the order's lag spectrum, its sources subtracted
    from the layers straight into the padded block, over chunks of the
    slab's columns of at most ``_CHUNK_BYTES``.  Each chunk takes fresh
    arrays: reused per-size buffers through ``out=`` left a compact-history
    pass no faster.  The matrices and spectra are cached per ``L``.  A
    block always computes its full ``L`` target rows and drops those past
    the last row only when adding them, so ``acc[t]`` does not depend on the
    number of rows.  ``lags`` must reach lag ``2L-1`` of the largest block,
    ``L <= len(values) - 2``, and ``tail`` must reach ``len(values) - 2``.
    Cost ``O(n log^2 n + n * _WINDOW)`` per column for ``n`` rows, and memory
    beyond the layers of ``_WINDOW`` rows and one chunk.
    """

    def __init__(self, lags: np.ndarray, tail: np.ndarray, values: np.ndarray):
        self.lags = lags
        self.tail = tail
        self._values = values
        orders = lags.shape[0]
        self._steps = values.shape[0] - 1
        #: The layers as ``(layer, order, column)``.
        self._layers = values.reshape(values.shape[0], orders, -1)
        # A run of fewer steps than a window needs fewer rows.
        self._ring = np.zeros((min(_WINDOW, self._steps), values.shape[1]))
        #: The ring as ``(order, row, column)``.
        self._sources = self._ring.reshape(len(self._ring), orders, -1).transpose(1, 0, 2)
        #: Lags ``_WINDOW-1 .. 1`` of each order: the last ``m`` of them
        #: weigh the ``m`` sources before a target.
        self._near = lags[:, None, _WINDOW - 1 : 0 : -1].copy()
        self._product = np.empty((orders, 1, self._layers.shape[2]))
        self._flat_product = self._product.reshape(-1)
        self._blocks: dict[int, np.ndarray] = {}

    def _block(self, size: int) -> np.ndarray:
        """Each order's ``size x size`` Toeplitz matrix of lags, or its
        ``rfft`` over a period of ``2*size`` (lag 0 set to zero)."""
        block = self._blocks.get(size)
        if block is None:
            if size == _WINDOW:
                offsets = np.arange(size)
                block = self.lags[:, size + offsets[:, None] - offsets[None, :]]
            else:
                period = np.zeros((self.lags.shape[0], 2 * size))
                period[:, 1:] = self.lags[:, 1 : 2 * size]
                block = np.fft.rfft(period, axis=1)
            self._blocks[size] = block
        return block

    def term(self, j: int) -> None:
        """Complete ``acc[j]`` in layer ``j+1``; layers ``0 .. j`` must be
        solved."""
        values = self._values
        if j:
            np.subtract(values[j], values[j - 1], self._ring[(j - 1) % _WINDOW])
        if j == 1:
            # Nothing has reached the accumulator yet.
            np.multiply(
                self.tail[:, 1 : self._steps].T[:, :, None],
                self._sources[:, 0],
                self._layers[2:],
            )
        elif j and not j % _WINDOW:
            self._add_block(j)
        end = j % _WINDOW
        near = min(end, j - 1)
        if near > 0:
            np.matmul(
                self._near[:, :, -near:], self._sources[:, end - near : end], self._product
            )
            np.add(values[j + 1], self._flat_product, values[j + 1])

    def _chunks(self, size: int) -> Iterator[tuple[slice, slice]]:
        """The ``(order, columns)`` slices a block of ``size`` sources is
        taken in, one order's slab at a time: a dense block takes the whole
        slab, so that its product is one BLAS call, rounded alike whatever
        the budget, and an FFT block takes columns that fit
        ``_CHUNK_BYTES``."""
        orders, width = self._layers.shape[1:]
        columns = width if size == _WINDOW else max(1, _CHUNK_BYTES // (16 * size))
        for order in range(orders):
            for begin in range(0, width, columns):
                yield slice(order, order + 1), slice(begin, begin + columns)

    def _add_block(self, j: int) -> None:
        size = j & -j
        first = j - size
        kept = min(size, self._steps - j)
        targets = self._layers[j + 1 : j + 1 + kept]
        block = self._block(size)
        for slab, chunk in self._chunks(size):
            if size == _WINDOW:
                skip = 1 if first == 0 else 0
                sums = np.matmul(
                    block[slab, :, skip:], self._sources[slab, skip:, chunk]
                ).transpose(1, 0, 2)
            else:
                sources = self._layers[first : j + 1, slab, chunk]
                padded = np.zeros((2 * size,) + sources.shape[1:])
                np.subtract(sources[1:], sources[:-1], padded[:size])
                if first == 0:
                    padded[0] = 0.0
                transform = np.fft.rfft(padded, axis=0)
                transform *= block[slab].T[:, :, None]
                sums = np.fft.irfft(transform, 2 * size, axis=0)
                sums = sums[size:]
            targets[:, slab, chunk] += sums[:kept]


def _march(
    problems: Sequence[ProblemSpec],
    orders: Sequence[FractionalOrder],
    nxs: tuple[int, ...],
    nt: int,
    scheme: str,
) -> tuple[tuple[SolutionHistory, ...], ...]:
    """March the L2-1sigma scheme with ``nt`` time steps covering
    ``[0, horizon]``, for every order of ``orders`` with its problem of
    ``problems``, on every grid of ``nxs`` space subintervals at once;
    ``scheme`` names the sampler and the mass operator in ``_SCHEMES``.
    Returns one history per order and grid, ``histories[o][g]``.

    Step ``j -> j+1`` of order ``o`` collocates at ``t_{j+sigma} =
    (j+sigma)*tau`` with that order's ``sigma``.  Its weights ``c_0 .. c_j``
    share the lag weights ``c_1 .. c_{j-1}`` with every other step, so one
    lag table per order serves the run; only ``c_0`` (``a_0`` at ``j = 0``)
    and the tail ``c_j = a_j - b_j`` on ``y^1 - y^0`` change with ``j``.
    The lag tables and the tails carry each order's derivative scale
    ``tau^-alpha / Gamma(2-alpha)``.  Cost ``O(nt log^2 nt * nodes)``: the
    history term is built by :class:`_CausalConvolution`, which sums each
    step's own window of the last few differences directly and adds older
    ones in dyadic blocks, in the layer array itself.

    Nothing but the right-hand side depends on the solution, so the steps
    are taken in blocks of ``_CHUNK_BYTES // (8 * nodes)``: the scheme's
    sampler samples each order's callbacks once per block, on an array of
    that order's collocation times, and checks ``k >= c1`` and ``q >= 0``
    against that problem's ``c1``; :func:`_assemble` forms the rows of every
    step of the block and the right-hand side of the one step formula both
    schemes share.  Each step then completes the history term in
    ``values[j+1]``, writes its right-hand side from ``y^j`` and that term
    into the rows of ``values[j+1]``, and ``dgtsv`` solves there in place.
    The factored pivots land in the block's diagonal and are checked once
    per block, so a zero or denormal pivot raises
    :class:`~subdiff.tridiag.SingularSystemError` at the end of its block,
    and so does the first layer that holds a non-finite value.

    The cells share the time grid, the history contraction and the solve:
    the node vector is one slab of the grids of ``nxs`` per order, and every
    node but its first and last is a row of one block-diagonal system (see
    :class:`_GridGroup`), in which the grids' boundary nodes are identity
    rows.  The two outer boundary nodes are not rows; they carry the
    history term's zero boundary entries during the march and are reset to
    zero after it.  Each history records the scheme and ``max_j h
    ||phi^j||^2`` of the source as it enters the right-hand side.
    """
    if nt < 1:
        raise ValueError(f"need at least one time step, got {nt}")
    group = _GridGroup(problems[0].length, nxs, len(orders))
    tau = problems[0].horizon / nt
    sigmas = np.array([order.sigma for order in orders])
    scales = np.array([_derivative_scale(order, tau) for order in orders])
    # Lags up to 2L-1 of the largest block L <= nt-1, and the tail up to nt-1.
    n_table = 1 << (nt - 1).bit_length()
    a_tables = np.array([coeff_a_array(order, n_table) for order in orders])
    b_tables = np.array([coeff_b_array(order, n_table) for order in orders])
    lags = np.array(
        [_assemble_l21sigma(a, b, n_table) for a, b in zip(a_tables, b_tables)]
    )

    values = np.zeros((nt + 1, group.width * len(orders)))
    for o, problem in enumerate(problems):
        initial = np.asarray(problem.u0(group.x), dtype=float)
        for begin, end in group.spans[: len(nxs)]:
            values[0, o * group.width + begin : o * group.width + end] = (
                _validate_initial_layer(initial[begin:end], problem.length)
            )
    history = _CausalConvolution(
        scales[:, None] * lags, scales[:, None] * (a_tables - b_tables), values
    )
    rows = values[:, 1:-1]
    source_norm_sq = np.zeros(len(group.grids))
    block_steps = max(1, _CHUNK_BYTES // (8 * values.shape[1]))

    for first in range(0, nt, block_steps):
        steps = np.arange(first, min(first + block_steps, nt))
        c0 = np.where(steps[:, None] == 0, a_tables[:, 0], lags[:, 0])
        (sub, diag, sup), phi, rhs = _assemble(
            scheme, problems, group, (steps[:, None] + sigmas) * tau, sigmas, scales * c0
        )
        # Each grid's rows run from its first row to the next grid's; the
        # identity rows among them carry no source.
        np.maximum(
            source_norm_sq,
            (group.h * np.add.reduceat(phi * phi, group.firsts, axis=1)).max(axis=0),
            out=source_norm_sq,
        )
        for i, j in enumerate(steps.tolist()):
            history.term(j)
            solution = rows[j + 1]
            rhs(i, values[j], solution)
            _solve_core(sub[i], diag[i], sup[i], solution)
        _check_pivots(diag)
        finite = np.isfinite(values[first + 1 : first + 1 + steps.size]).all(axis=1)
        if not finite.all():
            bad = first + 1 + int(np.argmin(finite))
            raise ValueError(f"layer {bad} (t={bad * tau!r}) holds non-finite values")
        # Free the block's arrays before the next block is assembled.
        del sub, diag, sup, phi, rhs

    values[:, 0] = 0.0
    values[:, -1] = 0.0
    times = np.arange(nt + 1) * tau
    histories = [
        SolutionHistory(grid, values[:, begin:end], times, float(norm_sq), scheme)
        for grid, (begin, end), norm_sq in zip(group.grids, group.spans, source_norm_sq)
    ]
    return tuple(
        tuple(histories[begin : begin + len(nxs)])
        for begin in range(0, len(histories), len(nxs))
    )


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _run(
    problems: Sequence[ProblemSpec],
    orders: Sequence[FractionalOrder],
    nxs: tuple[int, ...],
    nt: int,
    scheme: str,
) -> tuple[tuple[SolutionHistory, ...], ...]:
    """Check the arguments of a run and march it.  The problems must share
    the domain and the horizon, and come one per order; ``nxs`` must be a
    nonempty tuple of integers and ``nt`` an integer.  The compact scheme
    needs time-only coefficients."""
    problems, orders = tuple(problems), tuple(orders)
    if len(problems) != len(orders) or not orders:
        raise ValueError(
            f"need one problem per order, got {len(problems)} problems "
            f"and {len(orders)} orders"
        )
    for name in ("length", "horizon"):
        if len({getattr(problem, name) for problem in problems}) > 1:
            raise ValueError(f"problems marched together must share the {name}")
    if not isinstance(nxs, tuple) or not all(_is_int(n) for n in nxs):
        raise ValueError(f"nxs must be a tuple of ints, got {nxs!r}")
    if not nxs:
        raise ValueError("nxs must name at least one grid")
    if not _is_int(nt):
        raise ValueError(f"nt must be an int, got {nt!r}")
    if scheme == "compact" and not all(p.has_time_only_coefficients for p in problems):
        raise SchemeCompatibilityError(
            "compact scheme requires time-only coefficients (k_time and q_time)"
        )
    return _march(problems, orders, nxs, nt, scheme)


def run_second_order(
    problems: Sequence[ProblemSpec],
    orders: Sequence[FractionalOrder],
    nxs: tuple[int, ...],
    nt: int,
) -> tuple[tuple[SolutionHistory, ...], ...]:
    """Run the second-order scheme with ``nt`` time steps covering ``[0,
    horizon]``, for each order of ``orders`` with its problem of
    ``problems``, on every grid of ``nxs`` (a tuple of space subinterval
    counts).  All the cells march together; ``histories[o][g]`` is the run
    of order ``o`` on grid ``g``."""
    return _run(problems, orders, nxs, nt, "second")


def run_compact(
    problems: Sequence[ProblemSpec],
    orders: Sequence[FractionalOrder],
    nxs: tuple[int, ...],
    nt: int,
) -> tuple[tuple[SolutionHistory, ...], ...]:
    """Run the compact scheme with the arguments and the result of
    :func:`run_second_order`.  Requires time-only coefficients."""
    return _run(problems, orders, nxs, nt, "compact")


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
    if history.scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {history.scheme!r}")
    t_final = float(history.times[-1])
    alpha = order.alpha

    values = history.values
    compact = history.scheme == "compact"
    if compact:
        source_consts = problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / problem.c1
    else:
        source_consts = (
            problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / (4.0 * problem.c1)
        )
    # Summed over blocks of layers, so that no copy of a whole history is made.
    layers = max(2, _BLOCK_BYTES // (8 * values.shape[1]))
    sums = np.empty(len(history))
    for first in range(0, len(history), layers):
        block = values[first : first + layers]
        transformed = _mass_average(block) if compact else block[:, 1:-1]
        sums[first : first + layers] = np.sum(transformed * transformed, axis=1)
    layer_norms_sq = history.grid.h * sums

    lhs = float(layer_norms_sq.max())
    rhs = float(layer_norms_sq[0] + source_consts * history.source_norm_sq)
    return lhs, rhs

"""Implicit finite-difference schemes for the time-fractional diffusion
equation

    D_t^alpha u = (k u_x)_x - q u + f   on (0, l) x (0, T],
    u(0, t) = u(l, t) = 0,              u(x, 0) = u0(x),

where ``D_t^alpha`` is the Caputo derivative of order ``alpha`` in (0, 1).

Two schemes are provided: a second-order scheme (``O(h^2 + tau^2)``) for
space-and-time-dependent coefficients, and a compact fourth-order scheme
(``O(h^4 + tau^2)``) for time-only coefficients.  Both collocate the time
operator at ``t_{j+sigma}`` and apply the spatial operator to the blend
``sigma*y^{j+1} + (1-sigma)*y^j``: a step of either solves ``A y^{j+1} = B
y^j - M conv + phi`` (``conv`` the history term) with tridiagonal ``A`` and
``B`` from one builder, in one marching loop with one sampler.  They differ
only in data (``_SCHEMES``): the mass operator ``M`` on the time term and
the source (the identity for the second-order scheme, ``(1, 10, 1)/12`` for
the compact one), whether the coefficients must depend on time only, and
the constant of the a priori bound.

The module also evaluates the a priori solution bound of a finished run.  The
weight inequalities and the energy inequalities behind it are checked in
:mod:`subdiff.kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .grids import SolutionHistory, SpaceGrid, _is_int, _layer_blocks
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


@dataclass(frozen=True, kw_only=True)
class ProblemSpec:
    """Coefficients and data of one initial-boundary-value problem.

    ``k >= c1 > 0`` is the diffusivity, ``q >= 0`` the reaction coefficient,
    ``f(x, t)`` the source, and ``u0`` the initial profile (vanishing at both
    endpoints).  ``c1`` is the declared lower bound of ``k`` used by the
    a priori estimate.  The coefficients come as the pair ``k(x, t)``,
    ``q(x, t)``, as the pair ``k_time(t)``, ``q_time(t)`` of time-only
    coefficients, or as both; the compact scheme needs the time-only pair,
    and the second-order scheme samples ``k``, ``q`` when they are given
    and spreads ``k_time``, ``q_time`` over the nodes otherwise.  ``exact``,
    when given, is the exact solution.  Every field is passed by keyword.

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

    k: Optional[SpaceTimeFn] = None
    q: Optional[SpaceTimeFn] = None
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
        for pair in (("k", "q"), ("k_time", "q_time")):
            missing = [name for name in pair if getattr(self, name) is None]
            if len(missing) == 1:
                raise ValueError(f"{missing[0]} is missing: give {pair[0]} and {pair[1]}")
        if self.k is None and self.k_time is None:
            raise ValueError("a problem needs k and q, or k_time and q_time")


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

    Once per block of steps :func:`_sample_block` spreads what it samples
    over the rows: ``live[o]`` lists the rows of the interior nodes of slab
    ``o`` (its ``x_int``), ``intervals[o]`` its grids' own intervals among
    the differences of the node vector (difference ``i`` joins nodes ``i``
    and ``i+1``; those across two grids are left out), and :meth:`spread`
    puts a value per order on each row of its slab.  ``interior`` is 1 on the rows
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

    def decouple(self, rows: TridiagonalRows, identity: float) -> None:
        """Make the identity rows of a block of steps' operator, with the
        diagonal value ``identity``, and zero the couplings into them."""
        sub, diag, sup = rows
        diag[:, self.edges] = identity
        sub[:, self.edges] = 0.0
        sup[:, self.edges] = 0.0
        sub[:, self.firsts] = 0.0
        sup[:, self.lasts] = 0.0


class _Scheme(NamedTuple):
    """A scheme as data: its mass operator ``M`` on the time term and the
    source, ``(mass_off, mass_diag)`` for ``(off-diagonal, diagonal)``, whether
    it needs time-only coefficients, the divisor of its a priori constant
    ``l^2 T^alpha Gamma(1-alpha) / (bound_divisor * c1)``, and its order in ``h``."""

    mass_off: float
    mass_diag: float
    time_only: bool
    bound_divisor: float
    space_order: float


#: Each scheme by the name a run records in ``SolutionHistory.scheme``.
_SCHEMES: dict[str, _Scheme] = {
    "second": _Scheme(0.0, 1.0, False, 4.0, 2.0),
    "compact": _Scheme(1.0 / 12.0, 10.0 / 12.0, True, 1.0, 4.0),
}


def _mass_average(kind: _Scheme, v: np.ndarray) -> np.ndarray:
    """The mass operator ``M`` of ``kind`` at the interior nodes of ``v``
    (its last axis); the identity returns the view ``v[..., 1:-1]``."""
    if not kind.mass_off:
        return v[..., 1:-1]
    return kind.mass_off * (v[..., :-2] + v[..., 2:]) + kind.mass_diag * v[..., 1:-1]


def _sample_block(
    kind: _Scheme,
    problems: Sequence[ProblemSpec],
    group: _GridGroup,
    times: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a block of steps of the scheme ``kind``: in the slab of order
    ``o``, step ``i`` collocates at ``t = times[i, o]``.

    Returns the diffusivity ``a`` on every difference of the node vector
    (zero across two grids), and the reaction ``d`` and the source ``phi``
    on every row (zero on the identity rows), one row per step.  Under a
    scheme that needs time-only coefficients, or for a problem that gives
    no ``k``, ``q``, each order's ``k_time(t)`` and ``q_time(t)`` are spread
    over its slab; otherwise ``k`` is sampled at the half-integer nodes
    ``x_{i-1/2}`` and ``q`` at the interior nodes.  Under both schemes
    ``f`` is sampled at every node of the slab, and ``phi`` is its
    :func:`_mass_average` (zeroed on the identity rows).
    """
    steps, rows = times.shape[0], group.h_sq.size
    a = np.zeros((steps, rows + 1))
    d = np.zeros((steps, rows))
    phi = np.zeros((steps, rows))
    for o, problem in enumerate(problems):
        t = times[:, o, None]
        if kind.time_only or problem.k is None:
            k = _sample(problem.k_time, "k_time", t[:, 0])[:, None]
            q = _sample(problem.q_time, "q_time", t[:, 0])[:, None]
        else:
            k = _sample(problem.k, "k", group.midpoints[None, :], t)
            q = _sample(problem.q, "q", group.x_int[None, :], t)
        slab = slice(o * group.width, (o + 1) * group.width - 2)
        phi[:, slab] = _mass_average(kind, _sample(problem.f, "f", group.x[None, :], t))
        _coefficient_guard(problem, times[:, o], k.min(axis=1), q.min(axis=1))
        a[:, group.intervals[o]] = k
        d[:, group.live[o]] = q
    phi[:, group.edges] = 0.0
    return a, d, phi


def _assemble(
    scheme: str,
    problems: Sequence[ProblemSpec],
    group: _GridGroup,
    times: np.ndarray,
    sigmas: np.ndarray,
    weights: np.ndarray,
) -> tuple[tuple[TridiagonalRows, TridiagonalRows], np.ndarray, Callable]:
    """Assemble a block of steps of ``scheme``: in the slab of order ``o``,
    step ``i`` collocates at ``t = times[i, o]`` with the blend
    ``sigmas[o]`` and the scaled weight ``c_0 = weights[i, o]`` of
    ``y^{j+1} - y^j``.

    With the sampled ``a``, ``d`` and ``phi``, the mass operator ``M`` of
    the scheme, the flux-form stiffness ``K_a y = -(a_{i+1/2} (y_{i+1} -
    y_i) - a_{i-1/2} (y_i - y_{i-1})) / h^2`` and the history term ``conv =
    sum_{s<j} c_{j-s} (y^{s+1} - y^s)`` (scaled), a step solves

        A y^{j+1} = B y^j - M conv + phi,
        A = c_0 M - sigma Lambda       = (c_0 + sigma d) M + sigma K_a,
        B = c_0 M + (1 - sigma) Lambda = (c_0 - (1 - sigma) d) M - (1 - sigma) K_a,

    with ``Lambda = -K_a - d M``.  One builder forms the rows of ``A`` and
    ``B`` of every step, with the identity rows ``(0, 1, 0)`` in ``A`` and
    zero in ``B``.  Returns ``(A, B)``, the source at every row, and the
    right-hand side ``rhs(i, y, out)`` of step ``i``, which reads ``y^j``
    from ``y`` and ``conv`` from ``out`` (every node, the outer two zero),
    writes over the rows of ``out`` and returns them.
    """
    kind = _SCHEMES[scheme]
    a, d, phi = _sample_block(kind, problems, group, times)
    sigma = group.spread(sigmas[None, :])[0]
    c0 = group.spread(weights)
    a_left, a_right = a[:, :-1], a[:, 1:]

    def operator(m: np.ndarray, s: np.ndarray, identity: float) -> TridiagonalRows:
        """The rows of ``diag(m) M + diag(s) K_a``; overwrites ``m``."""
        weight = s / group.h_sq
        diag = weight * (a_left + a_right)
        diag += m * kind.mass_diag
        sub, sup = -weight * a_left, -weight * a_right
        m *= kind.mass_off
        sub += m
        sup += m
        group.decouple((sub, diag, sup), identity)
        return sub, diag, sup

    b_sub, b_diag, b_sup = operator(c0 - (1.0 - sigma) * d, sigma - 1.0, 0.0)
    # A's mass weight is formed in place: touching fresh pages costs more
    # than the arithmetic.
    left = operator(np.add(c0, sigma * d, c0), sigma, 1.0)
    # Per-row weights of M that vanish on the identity rows.  They are
    # arrays, which numpy multiplies by faster than by a Python float.
    off_weight = group.interior * kind.mass_off
    diag_weight = group.interior * kind.mass_diag
    scratch = np.empty(group.h_sq.size)

    # Outputs go by position: ``out=`` costs numpy a keyword lookup per call.
    # The rows of ``out`` hold conv, then M conv, then the right-hand side.
    def rhs(i: int, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        rows = out[1:-1]
        np.add(out[:-2], out[2:], scratch)
        np.multiply(scratch, off_weight, scratch)
        np.multiply(rows, diag_weight, rows)
        np.add(rows, scratch, rows)
        np.multiply(b_diag[i], y[1:-1], scratch)
        np.subtract(scratch, rows, rows)
        np.multiply(b_sub[i], y[:-2], scratch)
        np.add(rows, scratch, rows)
        np.multiply(b_sup[i], y[2:], scratch)
        np.add(rows, scratch, rows)
        return np.add(rows, phi[i], rows)

    return (left, (b_sub, b_diag, b_sup)), phi, rhs


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


#: The largest dyadic block of the history that is a dense Toeplitz product;
#: a larger block goes through an FFT of twice its length.  Larger dense
#: blocks would keep the Toeplitz matrices in memory (8 MB for a block of
#: 1024) and hand OpenBLAS products large enough to start its second thread,
#: for no gain in wall time on the study tables.
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
    j`` hold solved layers; it completes ``acc[j]`` in row ``j+1``.  Source
    0 enters every target at once, when ``term(1)`` is called.  Every other
    pair ``1 <= s < t`` is added exactly once, at the highest bit where
    ``s`` and ``t`` differ: at ``j = t`` with the bits below that one
    cleared, ``term(j)`` adds the ``L = j & -j`` sources ``[max(j-L, 1),
    j)`` into the targets ``[j, j+L)``.  So each step ``j >= 2`` adds one
    block, short of source 0 when ``j = L``.

    Every block subtracts its sources from the layers.  A block of ``L <=
    _WINDOW`` is multiplied by each order's ``L x L`` Toeplitz matrix of
    lags ``1 .. 2L-1``, the top right corner of the one of the largest
    dense block, in one ``matmul`` batched over the orders.  A larger block
    is taken one order's slab at a time, as a circular convolution of length
    ``2L`` through ``numpy.fft`` (the pocketfft that ``scipy.fft`` wraps,
    bitwise the same sums, without importing scipy) with the order's lag
    spectrum, cached per ``L``, over chunks of the slab's columns of at most
    ``_CHUNK_BYTES``.  Each chunk takes fresh arrays: reused per-size
    buffers through ``out=`` left a compact-history pass no faster.  A block
    always computes its full ``L`` target rows and drops those past the last
    row only when adding them, so ``acc[t]`` does not depend on the number
    of rows.  ``lags`` must reach lag ``2L-1`` of the largest block, ``L <=
    len(values) - 2``, and ``tail`` must reach ``len(values) - 2``.

    Beyond the layers, the object holds only constants of the lags (the
    Toeplitz corner and the spectra), so one rebuilt over the same layers
    mid-run continues bit for bit.  Cost ``O(n log^2 n + n * _WINDOW)`` per
    column for ``n`` rows, and memory beyond the layers of one block's
    temporaries.
    """

    def __init__(self, lags: np.ndarray, tail: np.ndarray, values: np.ndarray):
        self.lags = lags
        self.tail = tail
        self._steps = values.shape[0] - 1
        #: The layers as ``(layer, order, column)``.
        self._layers = values.reshape(values.shape[0], lags.shape[0], -1)
        #: Each order's Toeplitz matrix of lags ``1 .. 2n-1`` for the
        #: largest dense block ``n`` the lags reach.
        size = min(_WINDOW, lags.shape[1] // 2)
        offsets = np.arange(size)
        self._toeplitz = lags[:, size + offsets[:, None] - offsets[None, :]]
        self._spectra: dict[int, np.ndarray] = {}

    def _spectrum(self, size: int) -> np.ndarray:
        """Each order's lags ``1 .. 2*size-1`` transformed by ``rfft`` over
        a period of ``2*size`` (lag 0 set to zero)."""
        spectrum = self._spectra.get(size)
        if spectrum is None:
            period = np.zeros((self.lags.shape[0], 2 * size))
            period[:, 1:] = self.lags[:, 1 : 2 * size]
            spectrum = self._spectra[size] = np.fft.rfft(period, axis=1)
        return spectrum

    def term(self, j: int) -> None:
        """Complete ``acc[j]`` in layer ``j+1``; layers ``0 .. j`` must be
        solved."""
        if not j:
            return
        layers = self._layers
        if j == 1:
            # Nothing has reached the accumulator yet.
            np.multiply(
                self.tail[:, 1 : self._steps].T[:, :, None],
                layers[1] - layers[0],
                layers[2:],
            )
            return
        size = j & -j
        # The layers of the sources ``[max(j-L, 1), j)``: source 0 came in
        # with the tail.
        sources = layers[max(j - size, 1) : j + 1]
        targets = layers[j + 1 : j + 1 + min(size, self._steps - j)]
        if size > _WINDOW:
            self._add_transformed(sources, size, targets)
            return
        sums = np.matmul(
            self._toeplitz[:, :size, 1 - len(sources) :],
            (sources[1:] - sources[:-1]).transpose(1, 0, 2),
        )
        np.add(targets, sums[:, : len(targets)].transpose(1, 0, 2), targets)

    def _add_transformed(self, sources: np.ndarray, size: int, targets: np.ndarray) -> None:
        """Add the differences of the layers ``sources``, the newest slots
        of a block of ``size > _WINDOW``, into ``targets`` through FFTs of
        length ``2*size``, one order's slab at a time, in chunks of columns
        that fit ``_CHUNK_BYTES``."""
        spectra = self._spectrum(size)
        orders, width = sources.shape[1:]
        columns = max(1, _CHUNK_BYTES // (16 * size))
        start = size + 1 - len(sources)
        for order in range(orders):
            for begin in range(0, width, columns):
                slab, chunk = slice(order, order + 1), slice(begin, begin + columns)
                rows = sources[:, slab, chunk]
                padded = np.zeros((2 * size,) + rows.shape[1:])
                np.subtract(rows[1:], rows[:-1], padded[start:size])
                transform = np.fft.rfft(padded, axis=0)
                transform *= spectra[slab].T[:, :, None]
                sums = np.fft.irfft(transform, 2 * size, axis=0)
                targets[:, slab, chunk] += sums[size : size + len(targets)]


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
    ``scheme`` names the scheme's data in ``_SCHEMES``.
    Returns one history per order and grid, ``histories[o][g]``.  It first
    checks its arguments: one problem per order, all on one domain and
    horizon, a nonempty tuple of int ``nxs``, an int ``nt >= 1``, and
    time-only coefficients for the compact scheme.

    Step ``j -> j+1`` of order ``o`` collocates at ``t_{j+sigma} =
    (j+sigma)*tau`` with that order's ``sigma``.  Its weights ``c_0 .. c_j``
    share the lag weights ``c_1 .. c_{j-1}`` with every other step, so one
    lag table per order serves the run; only ``c_0`` and the tail ``c_j`` on
    ``y^1 - y^0`` change with ``j``, and both come with the lags from
    :func:`~subdiff.kernels._l21sigma_layout` (``c_0`` of ``j = 0`` is its
    first tail).  The lag tables and the tails are scaled in place by each
    order's ``tau^-alpha / Gamma(2-alpha)``, so ``c_0`` is read scaled.
    Cost ``O(nt log^2 nt * nodes)``: the history term is built by
    :class:`_CausalConvolution`, where each step adds one dyadic block of
    past differences into the sums of the steps ahead, kept in the layer
    array itself.

    Nothing but the right-hand side depends on the solution, so the steps
    are taken in blocks of ``_CHUNK_BYTES // (8 * nodes)``:
    :func:`_sample_block` samples each order's callbacks once per block, on
    an array of that order's collocation times, and checks ``k >= c1`` and
    ``q >= 0`` against that problem's ``c1``; :func:`_assemble` forms the
    operators ``A`` and ``B`` of every step of the block, the one step
    formula both schemes share.  Each step then completes the history term
    ``conv`` in ``values[j+1]``, writes ``B y^j - M conv + phi`` over its
    rows, and ``dgtsv`` solves ``A y^{j+1}`` for it there in place.
    The factored pivots land in the block's diagonal and are checked once
    per block, so a zero or denormal pivot raises
    :class:`~subdiff.tridiag.SingularSystemError` at the end of its block,
    and so does the first layer that holds a non-finite value.

    The cells share the time grid, the history contraction and the solve:
    the node vector is one slab of the grids of ``nxs`` per order, and every
    node but its first and last is a row of one block-diagonal system (see
    :class:`_GridGroup`), in which the grids' boundary nodes are identity
    rows.  The two outer boundary nodes are not rows; they keep the zeros
    of the initial layer, which every history block subtracts and adds
    column by column.  Each history records the scheme and ``max_j h
    ||phi^j||^2`` of the source as it enters the right-hand side.
    """
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
    if nt < 1:
        raise ValueError(f"need at least one time step, got {nt}")
    if _SCHEMES[scheme].time_only and any(p.k_time is None for p in problems):
        raise SchemeCompatibilityError(
            f"{scheme} scheme requires time-only coefficients (k_time and q_time)"
        )
    group = _GridGroup(problems[0].length, nxs, len(orders))
    tau = problems[0].horizon / nt
    sigmas = np.array([order.sigma for order in orders])
    scales = np.array([_derivative_scale(order, tau) for order in orders])
    # Lags up to 2L-1 of the largest block L <= nt-1, and the tail up to nt-1.
    n_table = 1 << (nt - 1).bit_length()
    lags = np.empty((len(orders), n_table))
    tails = np.empty((len(orders), n_table + 1))
    for o, order in enumerate(orders):
        a, b = coeff_a_array(order, n_table), coeff_b_array(order, n_table)
        lags[o], tails[o] = _assemble_l21sigma(a, b, n_table)
    lags *= scales[:, None]
    tails *= scales[:, None]

    values = np.zeros((nt + 1, group.width * len(orders)))
    for o, problem in enumerate(problems):
        initial = np.asarray(problem.u0(group.x), dtype=float)
        for begin, end in group.spans[: len(nxs)]:
            values[0, o * group.width + begin : o * group.width + end] = (
                _validate_initial_layer(initial[begin:end], problem.length)
            )
    history = _CausalConvolution(lags, tails, values)
    source_norm_sq = np.zeros(len(group.grids))
    block_steps = max(1, _CHUNK_BYTES // (8 * values.shape[1]))

    for first in range(0, nt, block_steps):
        steps = np.arange(first, min(first + block_steps, nt))
        c0 = np.where(steps[:, None] == 0, tails[:, 0], lags[:, 0])
        ((sub, diag, sup), right), phi, rhs = _assemble(
            scheme, problems, group, (steps[:, None] + sigmas) * tau, sigmas, c0
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
            right_side = rhs(i, values[j], values[j + 1])
            _solve_core(sub[i], diag[i], sup[i], right_side)
        _check_pivots(diag)
        finite = np.isfinite(values[first + 1 : first + 1 + steps.size]).all(axis=1)
        if not finite.all():
            bad = first + 1 + int(np.argmin(finite))
            raise ValueError(f"layer {bad} (t={bad * tau!r}) holds non-finite values")
        # Free the block's arrays before the next block is assembled.
        del sub, diag, sup, right, phi, rhs

    times = np.arange(nt + 1) * tau
    histories = [
        SolutionHistory(grid, values[:, begin:end], times, float(norm_sq), scheme)
        for grid, (begin, end), norm_sq in zip(group.grids, group.spans, source_norm_sq)
    ]
    return tuple(
        tuple(histories[begin : begin + len(nxs)])
        for begin in range(0, len(histories), len(nxs))
    )


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
    return _march(problems, orders, nxs, nt, "second")


def run_compact(
    problems: Sequence[ProblemSpec],
    orders: Sequence[FractionalOrder],
    nxs: tuple[int, ...],
    nt: int,
) -> tuple[tuple[SolutionHistory, ...], ...]:
    """Run the compact scheme with the arguments and the result of
    :func:`run_second_order`.  Requires time-only coefficients."""
    return _march(problems, orders, nxs, nt, "compact")


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
    scheme that produced the history, ``history.scheme``: L2 norms after its
    mass operator ``M`` (the identity for the second-order scheme), and
    ``const = l^2 T^alpha Gamma(1-alpha) / (d c1)`` with ``d = 4`` for the
    second-order scheme and 1 for the compact one.  Stability means ``lhs <=
    rhs``.
    """
    if len(history) < 2:
        raise ValueError("history must contain at least one computed step")
    if history.source_norm_sq is None:
        raise ValueError("history carries no recorded source norm")
    kind = _SCHEMES.get(history.scheme)
    if kind is None:
        raise ValueError(f"unknown scheme {history.scheme!r}")
    t_final = float(history.times[-1])
    alpha = order.alpha

    source_consts = problem.length**2 * t_final**alpha * math.gamma(1.0 - alpha) / (
        kind.bound_divisor * problem.c1
    )
    # Summed over blocks of layers, so that no copy of a whole history is made.
    sums = np.empty(len(history))
    for block in _layer_blocks(history):
        transformed = _mass_average(kind, history.values[block])
        sums[block] = np.sum(transformed * transformed, axis=1)
    layer_norms_sq = history.grid.h * sums

    lhs = float(layer_norms_sq.max())
    rhs = float(layer_norms_sq[0] + source_consts * history.source_norm_sq)
    return lhs, rhs

"""Discrete Caputo-derivative kernels on uniform time meshes.

Two convolution-weight families are provided:

* ``l21sigma`` — quadratic-interpolation weights collocated at the shifted
  node ``t_{j+sigma}`` with ``sigma = 1 - alpha/2``; accuracy
  ``O(tau^(3-alpha))``.
* ``l1`` — piecewise-linear weights collocated at ``t_{j+1}``; accuracy
  ``O(tau^(2-alpha))``.

Both express the derivative approximation as

    sum_{s=0}^{j} g_{j-s} * (u^{s+1} - u^s),
    g_m = scale * c_m,  scale = tau^(-alpha) / Gamma(2 - alpha),

where the weights are stored lag-ordered: ``g[m]`` multiplies the backward
difference ``m`` intervals before the newest one, so the approximation is
``g[::-1] @ np.diff(u)``.  In both families ``c_0 .. c_{j-1}`` are shared by
every longer vector and only the tail ``c_j`` is index ``j``'s own:
:func:`weights`, the family audit and the energy probe all read the
``l21sigma`` weights from :func:`_l21sigma_layout`.

The stability of the schemes rests on two properties of these weights: the
coefficient inequalities, checked for a whole family by
:func:`audit_weight_family`, and the energy inequalities, evaluated on a
concrete series by :func:`energy_inequality_probe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "L1",
    "L21SIGMA",
    "AuditCheck",
    "EnergyProbe",
    "FractionalOrder",
    "WeightAudit",
    "audit_weight_family",
    "coeff_a_array",
    "coeff_b_array",
    "energy_inequality_probe",
    "weights",
]

L21SIGMA = "l21sigma"
L1 = "l1"


@dataclass(frozen=True)
class FractionalOrder:
    """Validated fractional order ``alpha`` with its collocation shift ``sigma``."""

    alpha: float
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        alpha = float(self.alpha)
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", 1.0 - alpha / 2.0)


def _derivative_scale(order: FractionalOrder, tau: float) -> float:
    return tau ** (-order.alpha) / math.gamma(2.0 - order.alpha)


# Below this value of ``lo = l - 1 + sigma`` the correction weight ``b_l`` is
# evaluated by quadrature of its integral form (:func:`_b_quadrature`); above
# it the series form takes over, which needs a few terms per index once ``u =
# 1/lo`` is small, where the quadrature takes 16 powers.
_B_SERIES_CUTOFF = 4.0
# Cap on the binomial-series length for the ``b_l`` tail.  The series
# variable satisfies ``u = 1/lo <= 1/4``, so 40 terms drive the truncation
# error far below one ulp of the leading ``u^2`` term; each call stops
# earlier, at the last term that can still change a bit of the 40-term sum
# (see :func:`_b_series_length`).
_B_SERIES_TERMS = 40
# Indices per block of the weight tables and the family audit.  A float64
# array of a block takes 64 KB, below glibc's 128 KB mmap threshold, so the
# temporaries of one block reuse the heap memory of the last; larger blocks
# take fresh pages instead.  One ``l21sigma`` audit at ``j_max = 3*10^6``
# (2 vCPUs) makes about 67,000 page faults and takes 1.6x the time with
# blocks of 2^15 (256 KB arrays), and about 41,000 page faults and 1.5x the
# time with blocks of 2^14 (128 KB, at the threshold), against at most 16
# page faults at 2^13.
_BLOCK = 1 << 13


def _power_difference(p: float, u: np.ndarray, lo_p: np.ndarray, out: np.ndarray):
    """``(lo + 1)**p - lo**p = lo**p * expm1(p * log1p(1/lo))`` for ``lo > 0``
    into ``out``, without subtractive cancellation, from ``u = 1/lo`` and
    ``lo_p = lo**p``."""
    t = np.log1p(u)
    t *= p
    np.expm1(t, out=t)
    return np.multiply(lo_p, t, out=out)


def _b_series_coefficients(alpha: float) -> np.ndarray:
    """Taylor coefficients of ``b_l / lo**p``, ``p = 1 - alpha``, in ``u =
    1/lo``.

    Expanding the closed form gives ``sum_{m>=2} binom(p, m) * (1-m) /
    (2*(m+1)) * u**m``; the ``m = 0, 1`` terms cancel identically, which is
    exactly the cancellation that plagues the closed form in floating point.
    Each factor ``p - m + 1`` of the binomials is formed from ``alpha`` as
    ``-alpha - (m - 2)``: formed from ``p``, the factor ``p - 1`` of every
    coefficient would keep only the digits of ``alpha`` that survive in ``1
    - alpha``, a relative error of about ``1e-16 / alpha``.
    """
    coeffs = np.zeros(_B_SERIES_TERMS + 1)
    binom = 1.0 - alpha  # binom(p, 1)
    for m in range(2, _B_SERIES_TERMS + 1):
        binom *= (-alpha - (m - 2.0)) / m
        coeffs[m] = binom * (1.0 - m) / (2.0 * (m + 1.0))
    return coeffs


def _b_series_length(coeffs: np.ndarray, u_max: float) -> int:
    """The last term ``M`` of the series that can change a bit of its
    ``_B_SERIES_TERMS``-term forward sum at any ``u <= u_max``.

    Let ``r_m = |c_m/c_2| u_max^(m-2)`` and ``R = sum_{m=3}^{40} r_m``.  Then
    ``M`` is the first index with ``sum_{m>M} r_m < 2^-56 (1 - R)``, or 40
    when there is none.  Why dropping the terms after ``M`` changes no bit:

    * The partial sum ``S = sum_{m<=M} c_m u^m`` is at least
      ``|c_2| u^2 (1 - R)`` in magnitude, because the later terms take at
      most ``R`` of the first.
    * Each dropped term ``c_m u^m`` is at most
      ``|c_2| u^2 sum_{m>M} r_m < 2^-56 (1 - R) |c_2| u^2 <= 2^-56 |S|``.
    * If ``2^e <= |S| < 2^(e+1)``, the doubles next to ``S`` are at least
      ``2^(e-53)`` away: that is the spacing just below the power of two
      ``2^e``, and the spacing above it is twice that.  Rounding to nearest
      therefore returns ``S`` for any added term below ``2^(e-54)``, which
      exceeds ``2^-55 |S|``.

    The factor two between ``2^-56`` and ``2^-55`` absorbs the relative
    rounding of the computed powers, of the computed partial sum and of this
    estimate: at most 40 roundings of ``2^-53`` each, scaled by
    ``(1 + R)/(1 - R) < 2`` because ``R < 1/3`` for ``lo >= 4``, so below
    ``2^-46``.  So every dropped term leaves the floating-point partial sum
    unchanged, one after the other, and the result is bitwise the 40-term
    sum.  ``r_m`` grows with ``u``, so the bound at ``u_max`` holds for every
    smaller ``u``.

    When ``alpha / 2`` underflows to zero (``alpha`` the smallest positive
    double), every coefficient is zero and so is the sum: the shortest
    length, 2, is returned without dividing by ``c_2``.
    """
    if coeffs[2] == 0.0:
        return 2
    exponents = np.arange(1.0, _B_SERIES_TERMS - 1)  # m - 2 for m = 3 .. 40
    ratios = np.abs(coeffs[3:] / coeffs[2]) * u_max**exponents
    dropped = np.cumsum(ratios[::-1])[::-1]  # dropped[i] = sum_{m >= i+3} r_m
    return 2 + int(np.count_nonzero(dropped >= 2.0**-56 * (1.0 - dropped[0])))


def _b_series(coeffs: np.ndarray, u: np.ndarray, lo_p: np.ndarray, out: np.ndarray):
    """Series form of ``b_l``, accurate for ``lo >= _B_SERIES_CUTOFF``, into
    ``out``, from the coefficients ``coeffs`` of :func:`_b_series_coefficients`
    and ``u = 1/lo``, ``lo_p = lo**(1-alpha)`` of a nonempty ascending ``lo``;
    the sum stops at the last term that can change a bit
    (:func:`_b_series_length` of ``u[0]``), so the result is bitwise that of
    all ``_B_SERIES_TERMS`` terms."""
    u_pow = u * u
    total = np.multiply(coeffs[2], u_pow, out=out)
    term = np.empty_like(u)
    for m in range(3, _b_series_length(coeffs, float(u[0])) + 1):
        u_pow *= u
        np.multiply(coeffs[m], u_pow, out=term)
        np.add(total, term, out=total)
    return np.multiply(lo_p, total, out=total)


# A 16-point Gauss-Legendre rule on [0, 1] for the integral form of ``b_l``
# (see :func:`_b_quadrature`): the nodes ``t_k`` and the weights ``w_k t_k (1 -
# t_k)``, from the roots of the Legendre polynomial refined by Newton's method
# in 50-digit arithmetic and rounded to the nearest double.
_B_NODES = np.array(
    [
        0.005299532504175033,
        0.02771248846338371,
        0.06718439880608412,
        0.12229779582249849,
        0.19106187779867811,
        0.2709916111713863,
        0.35919822461037054,
        0.4524937450811813,
        0.5475062549188188,
        0.6408017753896295,
        0.7290083888286137,
        0.8089381222013219,
        0.8777022041775016,
        0.9328156011939158,
        0.9722875115366163,
        0.994700467495825,
    ]
)
_B_WEIGHTS = np.array(
    [
        7.156638159144235e-05,
        0.0008386952385426932,
        0.002981823145261855,
        0.006688902003395565,
        0.01156057132276114,
        0.0167088714448902,
        0.021015357751046487,
        0.02346754604584395,
        0.02346754604584395,
        0.021015357751046487,
        0.0167088714448902,
        0.01156057132276114,
        0.006688902003395565,
        0.002981823145261855,
        0.0008386952385426932,
        7.156638159144235e-05,
    ]
)


def _b_quadrature(alpha: float, lo: np.ndarray) -> np.ndarray:
    """``b_l`` for ``lo < _B_SERIES_CUTOFF``, to about one ulp at every order.

    ``b_l`` is the error of the trapezoid rule for ``s^(1-alpha)`` on ``[lo,
    lo + 1]``, so by its Peano kernel

        b_l = alpha (1-alpha)/2 * integral_0^1 t (1-t) (lo + t)^(-1-alpha) dt,

    a sum of positive terms.  The closed form instead subtracts quantities
    of order 1 to get a ``b_l`` of order ``alpha (1-alpha)``, and loses all
    its digits as ``alpha`` nears 0 or 1.  Since ``lo >= sigma > 1/2``, the
    integrand is analytic beyond ``[0, 1]`` up to ``t = -lo``, so the
    16-point Gauss-Legendre rule leaves an error far below one ulp.  Each
    row is summed by numpy's reduction, not by a BLAS product, whose order
    of summation may depend on the number of rows, so an entry is the same
    double in every block and table."""
    powers = (lo[:, None] + _B_NODES) ** (-1.0 - alpha)
    powers *= _B_WEIGHTS
    return 0.5 * alpha * (1.0 - alpha) * powers.sum(axis=1)


class _Block:
    """Indices ``start .. stop-1`` of the ``a``/``b`` tables and what ``a_l``
    and ``b_l`` share there, computed once for both.

    ``lo = l - 1 + sigma`` of the indices ``l >= 1`` comes from one integer
    range, which is exact below ``2**53``, so a block's values are the
    doubles of the whole table's.  The range runs one index further:
    ``j_sigma[i] = j + sigma`` of the block's ``i``-th index ``j >= 1`` is the
    ``lo`` of index ``j + 1``, the same double.  ``u = 1/lo`` and ``lo_p =
    lo**(1-alpha)`` are the intermediates of both weights.
    """

    def __init__(self, order: FractionalOrder, start: int, stop: int) -> None:
        self.order = order
        self.first = 1 if start == 0 else 0  # index 0 has no ``lo``
        nodes = np.arange(start + self.first - 1, stop, dtype=float)
        nodes += order.sigma
        self.lo, self.j_sigma = nodes[:-1], nodes[1:]
        self.u = 1.0 / self.lo
        self.lo_p = self.lo ** (1.0 - order.alpha)

    def a(self) -> np.ndarray:
        """``a_start .. a_{stop-1}``: ``a_0 = sigma**(1-alpha)`` and ``a_l =
        (lo + 1)**(1-alpha) - lo**(1-alpha)``."""
        p = 1.0 - self.order.alpha
        a = np.empty(self.first + self.lo.size)
        a[: self.first] = self.order.sigma**p
        _power_difference(p, self.u, self.lo_p, out=a[self.first :])
        return a

    def b(self, coeffs: np.ndarray) -> np.ndarray:
        """``b_start .. b_{stop-1}`` (``b_0`` is NaN), with the series
        coefficients ``coeffs`` of :func:`_b_series_coefficients`."""
        b = np.empty(self.first + self.lo.size)
        b[: self.first] = np.nan
        rest = b[self.first :]
        # ``lo`` ascends, so the quadrature takes a prefix and the series the rest.
        split = int(np.searchsorted(self.lo, _B_SERIES_CUTOFF))
        if split:
            rest[:split] = _b_quadrature(self.order.alpha, self.lo[:split])
        if split < rest.size:
            _b_series(coeffs, self.u[split:], self.lo_p[split:], out=rest[split:])
        return b


def _coeff_table(block_values, n: int) -> np.ndarray:
    """Indices ``0 .. n`` of ``block_values(start, stop)``, built block by
    block so that the series of ``b_l`` stops early on every block after the
    first."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    out = np.empty(n + 1)
    for start in range(0, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        out[start:stop] = block_values(start, stop)
    return out


def coeff_a_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``a_0 .. a_n``."""
    return _coeff_table(lambda start, stop: _Block(order, start, stop).a(), n)


def coeff_b_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``b_1 .. b_n``; slot 0 is NaN because ``b_0`` is undefined."""
    coeffs = _b_series_coefficients(order.alpha)
    return _coeff_table(lambda start, stop: _Block(order, start, stop).b(coeffs), n)


def _l21sigma_layout(
    a: np.ndarray, b: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(lags, tails)`` of the entries ``start, start+1, ...`` of ``a``, ``b``.

    ``lags[i]`` is ``c_s``, ``s = start + i``, of every target index ``j > s``:
    ``c_0 = a_0 + b_1`` and ``c_s = a_s + b_{s+1} - b_s``.  ``tails[i]`` is
    ``c_j = a_j - b_j`` of index ``j = start + i``, and ``c_0 = a_0`` of index
    0.  A block ``c`` of ``l1`` weights is its own layout: ``lags = c[:-1]``
    and ``tails = c``."""
    lags = a[:-1] + b[1:]
    lags -= b[:-1]
    tails = a - b
    if start == 0:  # b_0 does not exist
        lags[:1] = a[0] + b[1:2]
        tails[0] = a[0]
    return lags, tails


def _assemble_l21sigma(
    a: np.ndarray, b: np.ndarray, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(lags, tails)`` of the entries ``0 .. j`` of the ``a``/``b`` tables:
    ``c_0 .. c_{j-1}`` shared by every target index past them, and the
    first-step ``c_0`` and the tails ``c_1 .. c_j`` of the indices ``0 ..
    j`` (see :func:`_l21sigma_layout`).  The weights of index ``j`` are the
    lags followed by ``tails[j]``."""
    return _l21sigma_layout(a[: j + 1], b[: j + 1], 0)


def _l1_block(order: FractionalOrder, start: int, stop: int) -> np.ndarray:
    """Lag-ordered piecewise-linear weights ``c_start .. c_{stop-1}``:
    ``c_0 = 1`` and ``c_m = (m+1)^(1-alpha) - m^(1-alpha)``, evaluated without
    cancellation."""
    p = 1.0 - order.alpha
    c = np.empty(stop - start)
    first = 1 if start == 0 else 0
    c[:first] = 1.0
    m = np.arange(start + first, stop, dtype=float)
    _power_difference(p, 1.0 / m, m**p, out=c[first:])
    return c


def _collocation_offset(order: FractionalOrder, kind: str) -> float:
    """Where a family collocates the derivative of target index ``j``, as
    ``t_{j + offset}``: ``sigma`` for ``l21sigma`` and 1 for ``l1``."""
    if kind == L21SIGMA:
        return order.sigma
    if kind == L1:
        return 1.0
    raise ValueError(f"unknown weight family {kind!r}")


def weights(
    order: FractionalOrder, j: int, tau: float, kind: str = L21SIGMA
) -> np.ndarray:
    """The read-only weights ``g_0 .. g_j = scale * (c_0 .. c_j)`` of family
    ``kind`` for target index ``j``, lag-ordered: ``g[0]`` multiplies ``u^{j+1}
    - u^j``.  From the samples ``u^0 .. u^{j+1}``, ``g[::-1] @ np.diff(u)`` is
    the derivative approximation: at ``t_{j+sigma}`` for ``l21sigma`` (the
    ``c_m`` are those of :func:`_l21sigma_layout`), at ``t_{j+1}`` for ``l1``
    (see :func:`_l1_block`)."""
    if j < 0:
        raise ValueError(f"target index must be nonnegative, got {j}")
    if not tau > 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    if kind == L21SIGMA:
        a, b = coeff_a_array(order, j), coeff_b_array(order, j)
        lags, tails = _assemble_l21sigma(a, b, j)
        c = np.append(lags, tails[-1])
    elif kind == L1:
        c = _l1_block(order, 0, j + 1)
    else:
        raise ValueError(f"unknown weight family {kind!r}")
    g = _derivative_scale(order, tau) * c
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class AuditCheck:
    """Result of one inequality check: its worst (most negative) margin."""

    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class WeightAudit:
    """The inequality checks on a whole weight family."""

    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str) -> AuditCheck:
        for item in self.checks:
            if item.name == name:
                return item
        raise KeyError(name)


#: Floating-point slack for strict inequalities.
AUDIT_TOLERANCE = 1e-12


def _finish_check(name: str, margins: np.ndarray | float) -> AuditCheck:
    margin = float(np.min(margins)) if np.size(margins) else math.inf
    return AuditCheck(name=name, passed=margin > -AUDIT_TOLERANCE, margin=margin)


class _RunningMinima:
    """The worst margin of each check over the blocks seen so far.
    ``np.minimum`` keeps a NaN, so each margin is the double a whole-array
    check would give."""

    def __init__(self, names: Sequence[str]) -> None:
        self.minima = dict.fromkeys(names, math.inf)

    def add(self, name: str, margins: np.ndarray) -> None:
        if margins.size:
            self.minima[name] = np.minimum(self.minima[name], margins.min())

    def audit(self) -> WeightAudit:
        checks = (_finish_check(name, m) for name, m in self.minima.items())
        return WeightAudit(checks=tuple(checks))


def audit_weight_family(
    order: FractionalOrder, j_max: int, kind: str = L21SIGMA
) -> WeightAudit:
    """Check the provable inequalities on every weight vector with target
    index ``j <= j_max`` at once, in ``O(j_max)`` time and ``O(_BLOCK)``
    memory.

    For both families: positivity and strict decrease.  For ``l21sigma``
    also the tail lower bound ``c_j > (1-alpha)/2 * (j+sigma)^(-alpha)``, the
    blend gate ``(2*sigma-1)*c_0 - sigma*c_1 > 0`` (``2*sigma - 1 = 1 - alpha``), and the correction-ratio
    bounds ``1/2 < b_s/a_s + 1/2 < 1/(2-alpha)``.  Each check reports its
    worst margin over the family.

    Of the vector for index ``j``, only the tail entry ``c_j`` depends on
    ``j``; the entries before it are shared by every longer vector (see
    :func:`_l21sigma_layout`), so the worst margins reduce to a handful of
    vectorized comparisons.  They are made on blocks of ``_BLOCK`` indices,
    each read with one more index on either side, and every margin is
    bitwise that of the same comparisons on whole arrays.
    """
    if j_max < 0:
        raise ValueError(f"family bound must be nonnegative, got {j_max}")
    alpha, sigma = order.alpha, order.sigma
    floor_scale = 0.5 * (1.0 - alpha)
    if kind == L1:
        worst = _RunningMinima(("positivity", "monotone_decrease"))
    elif kind == L21SIGMA:
        worst = _RunningMinima(
            (
                "positivity",
                "monotone_decrease",
                "tail_lower_bound",
                "blend_gate",
                "correction_ratio_lower",
                "correction_ratio_upper",
            )
        )
        # Built once: they depend on the order alone.
        coeffs = _b_series_coefficients(alpha)
        block = _Block(order, 0, min(3, j_max + 1))
        lags, tails = _l21sigma_layout(block.a(), block.b(coeffs), 0)
        # c_1 is the tail of index 1 and shared by every index j >= 2.
        c_1 = np.concatenate((tails[1:2], lags[1:2]))
        # 2*sigma - 1 is formed as 1 - alpha: at the largest double below 1,
        # sigma rounds to 1/2 and 2*sigma - 1 to 0.
        worst.add("blend_gate", (1.0 - alpha) * lags[:1] - sigma * c_1)
        # c_0 = a_0 of index 0
        worst.add("tail_lower_bound", tails[:1] - floor_scale * sigma ** (-alpha))
    else:
        raise ValueError(f"unknown weight family {kind!r}")

    for start in range(0, j_max + 1, _BLOCK):
        # c_{start-1} and the tail of index start + _BLOCK join the block.
        begin, end = max(start - 1, 0), min(start + _BLOCK + 1, j_max + 1)
        if kind == L1:
            c = _l1_block(order, begin, end)
            lags, tails = c[:-1], c
        else:
            block = _Block(order, begin, end)
            a, b = block.a(), block.b(coeffs)
            # index 0 is above; b_0 does not exist
            first, j_sigma = block.first, block.j_sigma
            del block  # frees ``u`` and ``lo_p``, which ``a`` and ``b`` were made from
            lags, tails = _l21sigma_layout(a, b, begin)
        worst.add("positivity", tails)
        worst.add("monotone_decrease", lags - tails[1:])
        if kind == L21SIGMA:
            # The lags of an l1 block, c[:-1], and their differences are
            # among the tails and differences checked above; these are not.
            worst.add("positivity", lags)
            worst.add("monotone_decrease", lags[:-1] - lags[1:])
            floor = j_sigma ** (-alpha)
            floor *= floor_scale
            worst.add("tail_lower_bound", np.subtract(tails[first:], floor, out=floor))
            # Rounding is monotone, so kappa = b/a + 1/2 is worst against each
            # bound at the smallest or the largest ratio: the margins are the
            # doubles of the same checks on every entry.
            ratio = b[first:] / a[first:]
            kappa_low = ratio.min(initial=math.inf) + 0.5
            kappa_high = ratio.max(initial=-math.inf) + 0.5
            worst.add("correction_ratio_lower", kappa_low - 0.5)
            worst.add("correction_ratio_upper", 1.0 / (2.0 - alpha) - kappa_high)
            # Free this block's arrays before the next block is built.
            del a, b, lags, tails, j_sigma, floor, ratio
    return worst.audit()


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

    Here ``g_j`` is the weight of the newest difference, ``scale * c_0``.
    """

    newest: np.ndarray
    previous: np.ndarray
    blended: np.ndarray
    term_scale: np.ndarray


def energy_inequality_probe(
    order: FractionalOrder, tau: float, series: Sequence[float]
) -> EnergyProbe:
    """Evaluate the energy-inequality margins of the ``l21sigma`` operator
    with step ``tau`` on one time series.

    ``series`` holds ``v^0 .. v^{J+1}``; target indices ``0 .. J`` are probed.
    All margins are provably nonnegative whenever the weights satisfy the
    inequalities :func:`audit_weight_family` checks, so negative margins
    beyond rounding indicate a broken weight family.
    """
    if not tau > 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    v = np.asarray(series, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"series must hold at least two samples, got {v.shape}")
    count = v.size - 1
    sigma = order.sigma
    scale = _derivative_scale(order, tau)
    lags, tails = _l21sigma_layout(
        coeff_a_array(order, count - 1), coeff_b_array(order, count - 1), 0
    )
    lags = scale * lags[::-1]  # lags[-1 - s] = scale * c_s
    tails = scale * tails
    newest = np.empty(count)
    previous = np.empty(count)
    blended = np.empty(count)
    term_scale = np.empty(count)
    diffs = np.diff(v)
    diffs_sq = np.diff(v * v)
    for j in range(count):
        # g[s] weights v^{s+1} - v^s: scale * (c_j of index j, c_{j-1}, ...,
        # c_0), so g[-1] multiplies the newest difference.
        g = np.append(tails[j], lags[count - 1 - j :])
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

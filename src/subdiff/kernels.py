"""Discrete Caputo-derivative kernels on uniform time meshes.

Two convolution-weight families are provided:

* ``l21sigma`` — quadratic-interpolation weights collocated at the shifted
  node ``t_{j+sigma}`` with ``sigma = 1 - alpha/2``; accuracy
  ``O(tau^(3-alpha))``.
* ``l1`` — piecewise-linear weights collocated at ``t_{j+1}``; accuracy
  ``O(tau^(2-alpha))``.

Both express the derivative approximation as

    scale * sum_{s=0}^{j} c_{j-s} * (u^{s+1} - u^s),
    scale = tau^(-alpha) / Gamma(2 - alpha),

where coefficients are stored lag-ordered: ``coefficients[m]`` multiplies the
backward difference ``m`` intervals before the newest one.

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
    "WeightVector",
    "apply",
    "audit_weight_family",
    "coeff_a_array",
    "coeff_b_array",
    "energy_inequality_probe",
    "weights",
    "weights_l1",
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


@dataclass(frozen=True)
class WeightVector:
    """Convolution weights for one target index ``j`` of a discrete Caputo
    operator.

    ``coefficients`` holds ``c_0 .. c_j``: ``coefficients[m]`` is the weight of
    the backward difference ``m`` intervals before the newest one, so
    ``coefficients[0]`` always multiplies ``u^{j+1} - u^j``.  ``scale``
    converts the weighted difference sum into the derivative approximation.
    """

    coefficients: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError(
                f"expected a nonempty 1-D coefficient array, got shape {coeffs.shape}"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)


def _derivative_scale(order: FractionalOrder, tau: float) -> float:
    return tau ** (-order.alpha) / math.gamma(2.0 - order.alpha)


# Below this value of ``lo = l - 1 + sigma`` the correction weight ``b_l`` is
# evaluated by its closed form; above it the series form takes over, because
# the closed form subtracts powers that grow like ``lo^(2-alpha)`` and the
# resulting cancellation noise would exceed the true (decaying) margins that
# the inequality audits measure at large indices.
_B_SERIES_CUTOFF = 4.0
# Cap on the binomial-series length for the ``b_l`` tail.  The series
# variable satisfies ``u = 1/lo <= 1/4``, so 40 terms drive the truncation
# error far below one ulp of the leading ``u^2`` term; each call stops
# earlier, at the last term that can still change a bit of the 40-term sum
# (see :func:`_b_series_length`).
_B_SERIES_TERMS = 40
# Indices per block of the weight tables and the family audit.  A float64
# array of a block takes 64 KB, below glibc's 128 KB mmap threshold, so the
# temporaries of one block reuse the heap memory of the last; blocks of 2^15
# (256 KB arrays) take fresh pages instead, about 67,000 page faults and
# 1.6x the time for one audit at ``j_max = 3*10^6``.
_BLOCK = 1 << 13


def _power_difference(p: float, lo):
    """``(lo + 1)**p - lo**p`` for ``lo > 0`` without subtractive cancellation
    (works on scalars and arrays)."""
    return lo**p * np.expm1(p * np.log1p(1.0 / lo))


def _b_series_coefficients(p: float) -> np.ndarray:
    """Taylor coefficients of ``b_l / lo**p`` in ``u = 1/lo``.

    Expanding the closed form gives ``sum_{m>=2} binom(p, m) * (1-m) /
    (2*(m+1)) * u**m``; the ``m = 0, 1`` terms cancel identically, which is
    exactly the cancellation that plagues the closed form in floating point.
    """
    coeffs = np.zeros(_B_SERIES_TERMS + 1)
    binom = p  # binom(p, 1)
    for m in range(2, _B_SERIES_TERMS + 1):
        binom *= (p - m + 1.0) / m
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
    """
    exponents = np.arange(1.0, _B_SERIES_TERMS - 1)  # m - 2 for m = 3 .. 40
    ratios = np.abs(coeffs[3:] / coeffs[2]) * u_max**exponents
    dropped = np.cumsum(ratios[::-1])[::-1]  # dropped[i] = sum_{m >= i+3} r_m
    return 2 + int(np.count_nonzero(dropped >= 2.0**-56 * (1.0 - dropped[0])))


def _b_series(alpha: float, lo: np.ndarray) -> np.ndarray:
    """Series form of ``b_l``, accurate for ``lo >= _B_SERIES_CUTOFF``, on a
    nonempty ascending array ``lo``; the sum stops at the last term that can
    change a bit (:func:`_b_series_length` of ``u = 1/lo[0]``), so the result
    is bitwise that of all ``_B_SERIES_TERMS`` terms."""
    coeffs = _b_series_coefficients(1.0 - alpha)
    u = 1.0 / lo
    u_pow = u * u
    total = coeffs[2] * u_pow
    term = np.empty_like(u)
    for m in range(3, _b_series_length(coeffs, float(u[0])) + 1):
        u_pow *= u
        np.multiply(coeffs[m], u_pow, out=term)
        np.add(total, term, out=total)
    return np.multiply(lo ** (1.0 - alpha), total, out=total)


def _b_direct(alpha: float, lo):
    """Closed form of ``b_l``; accurate only while ``lo`` is small."""
    hi = lo + 1.0
    return (hi ** (2.0 - alpha) - lo ** (2.0 - alpha)) / (2.0 - alpha) - (
        hi ** (1.0 - alpha) + lo ** (1.0 - alpha)
    ) / 2.0


def _lo(order: FractionalOrder, start: int, stop: int) -> np.ndarray:
    """``lo = l - 1 + sigma`` for ``1 <= start <= l < stop``.  It is built from
    an integer range, which is exact below ``2**53``, so a block's ``lo`` are
    the doubles of the whole table's."""
    return np.arange(start - 1, stop - 1, dtype=float) + order.sigma


def _a_block(order: FractionalOrder, start: int, stop: int) -> np.ndarray:
    """``a_start .. a_{stop-1}``, bitwise the same slice of
    :func:`coeff_a_array`."""
    p = 1.0 - order.alpha
    a = np.empty(stop - start)
    first = 1 if start == 0 else 0
    a[:first] = order.sigma**p
    a[first:] = _power_difference(p, _lo(order, start + first, stop))
    return a


def _b_block(order: FractionalOrder, start: int, stop: int) -> np.ndarray:
    """``b_start .. b_{stop-1}`` (``b_0`` is NaN), bitwise the same slice of
    :func:`coeff_b_array`."""
    alpha = order.alpha
    b = np.empty(stop - start)
    first = 1 if start == 0 else 0
    b[:first] = np.nan
    lo = _lo(order, start + first, stop)
    # ``lo`` ascends, so the closed form takes a prefix and the series the rest.
    split = int(np.searchsorted(lo, _B_SERIES_CUTOFF))
    if split:
        b[first : first + split] = _b_direct(alpha, lo[:split])
    if split < lo.size:
        b[first + split :] = _b_series(alpha, lo[split:])
    return b


def _coeff_table(block, order: FractionalOrder, n: int) -> np.ndarray:
    """Indices ``0 .. n`` of ``block`` (:func:`_a_block` or
    :func:`_b_block`), built block by block so that the series of ``b_l``
    stops early on every block after the first."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    out = np.empty(n + 1)
    for start in range(0, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        out[start:stop] = block(order, start, stop)
    return out


def coeff_a_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``a_0 .. a_n``."""
    return _coeff_table(_a_block, order, n)


def coeff_b_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``b_1 .. b_n``; slot 0 is NaN because ``b_0`` is undefined."""
    return _coeff_table(_b_block, order, n)


def _assemble_l21sigma(a: np.ndarray, b: np.ndarray, j: int) -> np.ndarray:
    """Build ``c_0 .. c_j`` from precomputed ``a``/``b`` tables.

    Shared by :func:`weights`, :func:`energy_inequality_probe` and the
    marching loop so all three produce bit-identical coefficients.
    """
    if j == 0:
        return a[:1].copy()
    c = np.empty(j + 1)
    c[0] = a[0] + b[1]
    c[1:j] = a[1:j] + b[2 : j + 1] - b[1:j]
    c[j] = a[j] - b[j]
    return c


def weights(order: FractionalOrder, j: int, tau: float) -> WeightVector:
    """Shifted-collocation weights for target index ``j`` (collocation at
    ``t_{j+sigma}``): ``c_0 = a_0`` when ``j = 0``; otherwise
    ``c_0 = a_0 + b_1``, ``c_s = a_s + b_{s+1} - b_s`` for ``1 <= s <= j-1``,
    and ``c_j = a_j - b_j``."""
    if j < 0:
        raise ValueError(f"target index must be nonnegative, got {j}")
    if not tau > 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    a = coeff_a_array(order, j)
    b = coeff_b_array(order, j)
    return WeightVector(
        coefficients=_assemble_l21sigma(a, b, j), scale=_derivative_scale(order, tau)
    )


def _l1_block(order: FractionalOrder, start: int, stop: int) -> np.ndarray:
    """Lag-ordered piecewise-linear weights ``c_start .. c_{stop-1}``:
    ``c_0 = 1`` and ``c_m = (m+1)^(1-alpha) - m^(1-alpha)``, evaluated without
    cancellation."""
    c = np.ones(stop - start)
    first = 1 if start == 0 else 0
    c[first:] = _power_difference(
        1.0 - order.alpha, np.arange(start + first, stop, dtype=float)
    )
    return c


def weights_l1(order: FractionalOrder, j: int, tau: float) -> WeightVector:
    """Piecewise-linear weights for target index ``j`` (collocation at
    ``t_{j+1}``): lag ``m`` carries ``(m+1)^(1-alpha) - m^(1-alpha)``."""
    if j < 0:
        raise ValueError(f"target index must be nonnegative, got {j}")
    if not tau > 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    return WeightVector(
        coefficients=_l1_block(order, 0, j + 1), scale=_derivative_scale(order, tau)
    )


def apply(weight_vector: WeightVector, series: Sequence[float]) -> float:
    """Apply the discrete operator to samples ``u^0 .. u^{j+1}``.

    Returns ``scale * sum_{s=0}^{j} c_{j-s} (u^{s+1} - u^s)``, the derivative
    approximation at ``t_{j+sigma}`` (``l21sigma``) or ``t_{j+1}`` (``l1``).
    """
    values = np.asarray(series, dtype=float)
    expected = weight_vector.coefficients.size + 1
    if values.ndim != 1 or values.size != expected:
        raise ValueError(
            f"series must hold {expected} samples for target index "
            f"{expected - 2}, got shape {values.shape}"
        )
    diffs = np.diff(values)
    return weight_vector.scale * float(np.dot(weight_vector.coefficients[::-1], diffs))


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
    """The worst margin of each check over the blocks seen so far.  The
    minimum of the block minima is the minimum of the whole family, NaN
    included, so each margin is the double a whole-array check would give."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        self.minima: dict[str, list[float]] = {name: [] for name in self.names}

    def add(self, name: str, margins: np.ndarray | float) -> None:
        if np.size(margins):
            self.minima[name].append(np.min(margins))

    def audit(self) -> WeightAudit:
        return WeightAudit(
            checks=tuple(
                _finish_check(name, np.array(self.minima[name]))
                for name in self.names
            )
        )


def audit_weight_family(
    order: FractionalOrder, j_max: int, kind: str = L21SIGMA
) -> WeightAudit:
    """Check the provable inequalities on every weight vector with target
    index ``j <= j_max`` at once, in ``O(j_max)`` time and ``O(_BLOCK)``
    memory.

    For ``l21sigma``: positivity, strict decrease, the tail lower bound
    ``c_j > (1-alpha)/2 * (j+sigma)^(-alpha)``, the blend gate
    ``(2*sigma-1)*c_0 - sigma*c_1 > 0``, and the correction-ratio bounds
    ``1/2 < b_s/a_s + 1/2 < 1/(2-alpha)``.  For ``l1``: positivity and strict
    decrease only.  Each check reports its worst margin over the family.

    Of the ``l21sigma`` vector for index ``j``, only the tail entry ``c_j``
    depends on ``j``; the entries before it are shared by every longer
    vector, so the worst margins reduce to a handful of vectorized
    comparisons.  They are made on blocks of ``_BLOCK`` indices, carrying
    one value across each block edge, and every margin is bitwise that of
    the same comparisons on whole arrays.
    """
    if j_max < 0:
        raise ValueError(f"family bound must be nonnegative, got {j_max}")
    if kind == L1:
        worst = _RunningMinima(("positivity", "monotone_decrease"))
        previous = None  # c_{start-1}
        for start in range(0, j_max + 1, _BLOCK):
            c = _l1_block(order, start, min(start + _BLOCK, j_max + 1))
            worst.add("positivity", c)
            if previous is not None:
                worst.add("monotone_decrease", previous - c[0])
            worst.add("monotone_decrease", c[:-1] - c[1:])
            previous = c[-1]
        return worst.audit()
    if kind != L21SIGMA:
        raise ValueError(f"unknown weight family {kind!r}")

    alpha, sigma = order.alpha, order.sigma
    floor_scale = 0.5 * (1.0 - alpha)
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
    previous = None  # shared[start-1]
    c_1 = []  # c_1 of index 1 (tail), then of every index >= 2 (shared)
    for start in range(0, j_max + 1, _BLOCK):
        end = min(start + _BLOCK, j_max + 1)
        # One index past the block: shared[s] takes b_{s+1}.
        stop = min(end + 1, j_max + 1)
        a, b = _a_block(order, start, stop), _b_block(order, start, stop)
        # shared[i] holds c_s, s = start + i, of every index j > s; tail[i]
        # holds c_j of index j = start + i.
        count = min(end, j_max) - start
        shared = a[:count] + b[1 : count + 1] - b[:count]
        tail = a - b
        first = 0
        if start == 0:
            first = 1
            worst.add("positivity", a[0])
            # j = 0: c_0 = a_0
            worst.add("tail_lower_bound", a[0] - floor_scale * sigma ** (-alpha))
            if count:
                shared[0] = c_0 = a[0] + b[1]
                c_1.append(tail[1])
        if start <= 1 < start + count:
            c_1.append(shared[1 - start])
        own = slice(first, end - start)
        worst.add("positivity", shared)
        worst.add("positivity", tail[own])
        worst.add("monotone_decrease", shared - tail[1 : count + 1])
        if previous is not None and count:
            worst.add("monotone_decrease", previous - shared[0])
        worst.add("monotone_decrease", shared[:-1] - shared[1:])
        j = np.arange(start + first, end, dtype=float)
        j += sigma
        worst.add("tail_lower_bound", tail[own] - floor_scale * j ** (-alpha))
        kappa = b[own] / a[own] + 0.5
        worst.add("correction_ratio_lower", kappa - 0.5)
        worst.add("correction_ratio_upper", 1.0 / (2.0 - alpha) - kappa)
        if count:
            previous = shared[-1]
        # Free this block's arrays before the next block is built.
        del a, b, shared, tail, j, kappa
    if c_1:
        worst.add("blend_gate", (2.0 * sigma - 1.0) * c_0 - sigma * np.array(c_1))
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
    a = coeff_a_array(order, count - 1)
    b = coeff_b_array(order, count - 1)
    newest = np.empty(count)
    previous = np.empty(count)
    blended = np.empty(count)
    term_scale = np.empty(count)
    diffs = np.diff(v)
    diffs_sq = np.diff(v * v)
    for j in range(count):
        # g[s] weights v^{s+1} - v^s, so g[-1] multiplies the newest difference.
        g = scale * _assemble_l21sigma(a, b, j)[::-1]
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

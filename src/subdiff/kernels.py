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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

__all__ = [
    "L1",
    "L21SIGMA",
    "AuditCheck",
    "FractionalOrder",
    "WeightAudit",
    "WeightVector",
    "apply",
    "audit_weight_family",
    "audit_weights",
    "caputo_power_rule",
    "caputo_reference",
    "coeff_a_array",
    "coeff_b_array",
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
    """Convolution weights for one target index of a discrete Caputo operator.

    ``coefficients[m]`` is the weight of the backward difference ``m`` intervals
    before the newest one; ``coefficients[0]`` always multiplies
    ``u^{j+1} - u^j``.  ``scale`` converts the weighted difference sum into the
    derivative approximation.
    """

    kind: str
    order: FractionalOrder
    target_index: int
    tau: float
    coefficients: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size != self.target_index + 1:
            raise ValueError(
                f"expected {self.target_index + 1} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
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
# Binomial-series length for the ``b_l`` tail.  The series variable satisfies
# ``u = 1/lo <= 1/4``, so 40 terms drive the truncation error far below one
# ulp of the leading ``u^2`` term.
_B_SERIES_TERMS = 40


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


def _b_series(alpha: float, lo):
    """Series form of ``b_l``, accurate for ``lo >= _B_SERIES_CUTOFF`` (works
    on scalars and arrays)."""
    coeffs = _b_series_coefficients(1.0 - alpha)
    u = 1.0 / lo
    total = 0.0
    u_pow = u * u
    for m in range(2, _B_SERIES_TERMS + 1):
        total = total + coeffs[m] * u_pow
        u_pow = u_pow * u
    return lo ** (1.0 - alpha) * total


def _b_direct(alpha: float, lo):
    """Closed form of ``b_l``; accurate only while ``lo`` is small."""
    hi = lo + 1.0
    return (hi ** (2.0 - alpha) - lo ** (2.0 - alpha)) / (2.0 - alpha) - (
        hi ** (1.0 - alpha) + lo ** (1.0 - alpha)
    ) / 2.0


def coeff_a_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``a_0 .. a_n``."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    alpha, sigma = order.alpha, order.sigma
    out = np.empty(n + 1)
    out[0] = sigma ** (1.0 - alpha)
    if n >= 1:
        lo = np.arange(0, n, dtype=float) + sigma
        out[1:] = _power_difference(1.0 - alpha, lo)
    return out


def coeff_b_array(order: FractionalOrder, n: int) -> np.ndarray:
    """Vectorized ``b_1 .. b_n``; slot 0 is NaN because ``b_0`` is undefined."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    alpha, sigma = order.alpha, order.sigma
    out = np.full(n + 1, np.nan)
    if n >= 1:
        lo = np.arange(0, n, dtype=float) + sigma
        values = np.empty(n)
        small = lo < _B_SERIES_CUTOFF
        if np.any(small):
            values[small] = _b_direct(alpha, lo[small])
        if not np.all(small):
            values[~small] = _b_series(alpha, lo[~small])
        out[1:] = values
    return out


def _assemble_l21sigma(a: np.ndarray, b: np.ndarray, j: int) -> np.ndarray:
    """Build ``c_0 .. c_j`` from precomputed ``a``/``b`` tables.

    Shared by :func:`weights` and the PDE steppers so both produce
    bit-identical coefficients.
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
    c = _assemble_l21sigma(a, b, j)
    return WeightVector(
        kind=L21SIGMA,
        order=order,
        target_index=j,
        tau=tau,
        coefficients=c,
        scale=_derivative_scale(order, tau),
    )


def _l1_coefficients(order: FractionalOrder, j: int) -> np.ndarray:
    """Lag-ordered piecewise-linear weights ``c_0 .. c_j``: ``c_0 = 1`` and
    ``c_m = (m+1)^(1-alpha) - m^(1-alpha)``, evaluated without cancellation."""
    c = np.ones(j + 1)
    c[1:] = _power_difference(1.0 - order.alpha, np.arange(1, j + 1, dtype=float))
    return c


def weights_l1(order: FractionalOrder, j: int, tau: float) -> WeightVector:
    """Piecewise-linear weights for target index ``j`` (collocation at
    ``t_{j+1}``): lag ``m`` carries ``(m+1)^(1-alpha) - m^(1-alpha)``."""
    if j < 0:
        raise ValueError(f"target index must be nonnegative, got {j}")
    if not tau > 0.0:
        raise ValueError(f"step size must be positive, got {tau}")
    return WeightVector(
        kind=L1,
        order=order,
        target_index=j,
        tau=tau,
        coefficients=_l1_coefficients(order, j),
        scale=_derivative_scale(order, tau),
    )


def apply(weight_vector: WeightVector, series: Sequence[float]) -> float:
    """Apply the discrete operator to samples ``u^0 .. u^{j+1}``.

    Returns ``scale * sum_{s=0}^{j} c_{j-s} (u^{s+1} - u^s)``, the derivative
    approximation at ``t_{j+sigma}`` (``l21sigma``) or ``t_{j+1}`` (``l1``).
    """
    values = np.asarray(series, dtype=float)
    expected = weight_vector.target_index + 2
    if values.ndim != 1 or values.size != expected:
        raise ValueError(
            f"series must hold {expected} samples for target index "
            f"{weight_vector.target_index}, got shape {values.shape}"
        )
    diffs = np.diff(values)
    return weight_vector.scale * float(np.dot(weight_vector.coefficients[::-1], diffs))


def caputo_power_rule(order: FractionalOrder, p: float, t_star: float) -> float:
    """Exact Caputo derivative of ``t**p`` (``p > 0``) at ``t_star``:
    ``Gamma(p+1)/Gamma(p+1-alpha) * t_star**(p-alpha)``."""
    if not p > 0.0:
        raise ValueError(f"exponent must be positive, got {p}")
    if t_star < 0.0:
        raise ValueError(f"evaluation time must be nonnegative, got {t_star}")
    if t_star == 0.0:
        return 0.0
    alpha = order.alpha
    return (
        math.gamma(p + 1.0)
        / math.gamma(p + 1.0 - alpha)
        * t_star ** (p - alpha)
    )


def caputo_reference(
    order: FractionalOrder,
    u_prime: Callable[[float], float],
    t_star: float,
) -> float:
    """High-accuracy quadrature oracle for the Caputo derivative.

    Evaluates ``(1/Gamma(1-alpha)) * integral_0^{t*} u'(eta) (t*-eta)^(-alpha)
    d(eta)`` after the substitution ``w = (t* - eta)^(1-alpha)``, which removes
    the endpoint singularity:

        (1/Gamma(2-alpha)) * integral_0^{t*^(1-alpha)} u'(t* - w^(1/(1-alpha))) dw.

    Raises ``ArithmeticError`` if the quadrature does not converge to roughly
    1e-12 relative accuracy.
    """
    if t_star < 0.0:
        raise ValueError(f"evaluation time must be nonnegative, got {t_star}")
    if t_star == 0.0:
        return 0.0
    alpha = order.alpha
    inv_exp = 1.0 / (1.0 - alpha)
    w_max = t_star ** (1.0 - alpha)

    def integrand(w: float) -> float:
        return u_prime(t_star - w ** inv_exp)

    value, abserr = quad(integrand, 0.0, w_max, epsabs=1e-14, epsrel=1e-12, limit=200)
    value /= math.gamma(2.0 - alpha)
    abserr /= math.gamma(2.0 - alpha)
    if abserr > max(1e-10 * abs(value), 1e-13):
        raise ArithmeticError(
            f"quadrature did not converge: value={value!r}, "
            f"estimated error={abserr!r}"
        )
    return value


@dataclass(frozen=True)
class AuditCheck:
    """Result of one inequality check: its worst (most negative) margin."""

    name: str
    passed: bool
    margin: float


@dataclass(frozen=True)
class WeightAudit:
    """Collection of inequality checks on one weight vector or a whole family."""

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


def _ratio_checks(
    order: FractionalOrder, a: np.ndarray, b: np.ndarray
) -> list[AuditCheck]:
    """Bounds on ``kappa_s = b_s/a_s + 1/2``: it must lie in
    ``(1/2, 1/(2-alpha))`` for every ``s >= 1``."""
    if a.size <= 1:
        return [
            _finish_check("correction_ratio_lower", np.empty(0)),
            _finish_check("correction_ratio_upper", np.empty(0)),
        ]
    kappa = b[1:] / a[1:] + 0.5
    upper = 1.0 / (2.0 - order.alpha)
    return [
        _finish_check("correction_ratio_lower", kappa - 0.5),
        _finish_check("correction_ratio_upper", upper - kappa),
    ]


def audit_weights(weight_vector: WeightVector) -> WeightAudit:
    """Check the provable inequalities on a single weight vector.

    For ``l21sigma``: positivity, strict decrease, the tail lower bound
    ``c_j > (1-alpha)/2 * (j+sigma)^(-alpha)``, the blend gate
    ``(2*sigma-1)*c_0 - sigma*c_1 > 0``, and the correction-ratio bounds
    ``1/2 < b_s/a_s + 1/2 < 1/(2-alpha)``.  For ``l1``: positivity and strict
    decrease only.
    """
    order = weight_vector.order
    c = weight_vector.coefficients
    j = weight_vector.target_index
    checks = [
        _finish_check("positivity", c),
        _finish_check("monotone_decrease", c[:-1] - c[1:]),
    ]
    if weight_vector.kind == L21SIGMA:
        alpha, sigma = order.alpha, order.sigma
        bound = 0.5 * (1.0 - alpha) * (j + sigma) ** (-alpha)
        checks.append(_finish_check("tail_lower_bound", c[-1] - bound))
        gate = (
            (2.0 * sigma - 1.0) * c[0] - sigma * c[1] if j >= 1 else np.empty(0)
        )
        checks.append(_finish_check("blend_gate", gate))
        a = coeff_a_array(order, j)
        b = coeff_b_array(order, j)
        checks.extend(_ratio_checks(order, a, b))
    return WeightAudit(checks=tuple(checks))


def audit_weight_family(
    order: FractionalOrder, j_max: int, kind: str = L21SIGMA
) -> WeightAudit:
    """Audit every target index ``j <= j_max`` at once in ``O(j_max)`` time.

    For the shifted-collocation family only the head (``c_0``) and tail
    (``c_j``) entries depend on ``j``; interior entries are shared.  Worst
    margins over the whole family therefore reduce to a handful of vectorized
    comparisons, and the reported margins equal the minima that per-``j``
    :func:`audit_weights` calls would produce.
    """
    if j_max < 0:
        raise ValueError(f"family bound must be nonnegative, got {j_max}")
    if kind == L1:
        c = _l1_coefficients(order, j_max)
        return WeightAudit(
            checks=(
                _finish_check("positivity", c),
                _finish_check("monotone_decrease", c[:-1] - c[1:]),
            )
        )
    if kind != L21SIGMA:
        raise ValueError(f"unknown weight family {kind!r}")

    alpha, sigma = order.alpha, order.sigma
    a = coeff_a_array(order, j_max)
    b = coeff_b_array(order, j_max)

    if j_max == 0:
        bound = 0.5 * (1.0 - alpha) * sigma ** (-alpha)
        checks = [
            _finish_check("positivity", a[:1]),
            _finish_check("monotone_decrease", np.empty(0)),
            _finish_check("tail_lower_bound", a[0] - bound),
            _finish_check("blend_gate", np.empty(0)),
        ]
        checks.extend(_ratio_checks(order, a, b))
        return WeightAudit(checks=tuple(checks))

    head = a[0] + b[1]
    # interior[s-1] holds c_s for 1 <= s <= j_max-1 (any j > s).
    interior = a[1:j_max] + b[2 : j_max + 1] - b[1:j_max]
    # tail[j-1] holds c_j for the vector with target index j, 1 <= j <= j_max.
    tail = a[1 : j_max + 1] - b[1 : j_max + 1]

    positivity = np.concatenate(([a[0], head], interior, tail))

    monotone_parts = [head - tail[0]]  # j = 1: c_0 > c_1
    if j_max >= 2:
        monotone_parts.append(head - interior[0])  # c_0 > c_1 for j >= 2
        monotone_parts.append(interior[: j_max - 1] - tail[1:])  # c_{j-1} > c_j
        if interior.size >= 2:
            monotone_parts.append(interior[:-1] - interior[1:])
    monotone = np.concatenate([np.atleast_1d(part) for part in monotone_parts])

    j = np.arange(1, j_max + 1, dtype=float)
    tail_bound = tail - 0.5 * (1.0 - alpha) * (j + sigma) ** (-alpha)
    bound0 = a[0] - 0.5 * (1.0 - alpha) * sigma ** (-alpha)
    tail_margins = np.concatenate(([bound0], tail_bound))

    gate_parts = [(2.0 * sigma - 1.0) * head - sigma * tail[0]]  # j = 1
    if j_max >= 2:
        gate_parts.append((2.0 * sigma - 1.0) * head - sigma * interior[0])
    gate = np.asarray(gate_parts)

    checks = [
        _finish_check("positivity", positivity),
        _finish_check("monotone_decrease", monotone),
        _finish_check("tail_lower_bound", tail_margins),
        _finish_check("blend_gate", gate),
    ]
    checks.extend(_ratio_checks(order, a, b))
    return WeightAudit(checks=tuple(checks))

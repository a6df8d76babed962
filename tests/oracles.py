"""Test oracles.

For the Caputo derivative: the closed form of a power of ``t`` and an
adaptive quadrature of the defining integral.  The tests check the discrete
operators and the manufactured problems against them.

For the weights: the full 40-term series of ``b_l``, the weight-family
audit on whole arrays, and the energy probe as one pair of dot products per
index.  The solver streams the audit in blocks, stops the series at the last
term that can change a bit and convolves the probe's sums; the tests check
that they give the same doubles as these, or the probe's to rounding.

For the schemes: the dense operators ``A`` and ``B`` of one step of either
scheme, written from the paper's formula; one step, solved with
``numpy.linalg.solve``; and a march of such steps whose weights are written
out from Alikhanov's closed forms, not taken from :mod:`subdiff.kernels`.
The tests check the solver's tridiagonal operators against the dense ones,
the first layers of a marched run against the one step, and every layer
against the dense march.

The solver does not use any of them."""

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from subdiff.kernels import (
    _B_SERIES_TERMS,
    L1,
    L21SIGMA,
    EnergyProbe,
    FractionalOrder,
    WeightAudit,
    _Block,
    _assemble_l21sigma,
    _b_series_coefficients,
    _finish_check,
    coeff_a_array,
    coeff_b_array,
    weights,
)
from subdiff.schemes import ProblemSpec


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


def b_series_all_terms(alpha: float, lo):
    """Series form of ``b_l`` summed over all ``_B_SERIES_TERMS`` terms
    (works on scalars and arrays)."""
    coeffs = _b_series_coefficients(alpha)
    u = 1.0 / lo
    total = 0.0
    u_pow = u * u
    for m in range(2, _B_SERIES_TERMS + 1):
        total = total + coeffs[m] * u_pow
        u_pow = u_pow * u
    return lo ** (1.0 - alpha) * total


def audit_weight_family_whole(
    order: FractionalOrder, j_max: int, kind: str = L21SIGMA
) -> WeightAudit:
    """The weight-family audit of :func:`subdiff.kernels.audit_weight_family`
    on whole arrays of ``j_max + 1`` weights."""
    if j_max < 0:
        raise ValueError(f"family bound must be nonnegative, got {j_max}")
    if kind == L1:
        c = _Block(order, 0, j_max + 1, 1.0).a()  # one block: the whole table
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
    # shared[s] holds c_s of every index j > s; tail[j-1] holds c_j of index j.
    shared = _assemble_l21sigma(a, b, j_max)[0]
    tail = a[1:] - b[1:]
    j = np.arange(1, j_max + 1, dtype=float)
    tail_margins = np.concatenate(
        (
            [a[0] - 0.5 * (1.0 - alpha) * sigma ** (-alpha)],  # j = 0: c_0 = a_0
            tail - 0.5 * (1.0 - alpha) * (j + sigma) ** (-alpha),
        )
    )
    # c_1 is tail[0] for j = 1 and shared[1] for every j >= 2; 2*sigma - 1
    # is formed as 1 - alpha, as in the streamed audit.
    gate = (1.0 - alpha) * shared[:1] - sigma * np.concatenate(
        (tail[:1], shared[1:2])
    )
    kappa = b[1:] / a[1:] + 0.5
    return WeightAudit(
        checks=(
            _finish_check("positivity", np.concatenate(([a[0]], shared, tail))),
            _finish_check(
                "monotone_decrease",
                np.concatenate((shared - tail, shared[:-1] - shared[1:])),
            ),
            _finish_check("tail_lower_bound", tail_margins),
            _finish_check("blend_gate", gate),
            _finish_check("correction_ratio_lower", kappa - 0.5),
            _finish_check("correction_ratio_upper", 1.0 / (2.0 - alpha) - kappa),
        )
    )


def energy_probe_per_index(order: FractionalOrder, tau: float, series) -> EnergyProbe:
    """The margins of :func:`subdiff.kernels.energy_inequality_probe`, with
    each index's discrete derivatives taken as dot products with its weights
    from :func:`subdiff.kernels.weights`."""
    v = np.asarray(series, dtype=float)
    diffs, diffs_sq = np.diff(v), np.diff(v * v)
    sigma = order.sigma
    margins = []
    for j in range(v.size - 1):
        g = weights(order, j, tau)
        dv = float(g[::-1] @ diffs[: j + 1])
        dv_sq = float(g[::-1] @ diffs_sq[: j + 1])
        gap = g[0] - g[1] if j >= 1 else g[0]
        quotient = dv * dv / (2.0 * g[0])
        margins.append(
            (
                v[j + 1] * dv - 0.5 * dv_sq - quotient,
                v[j] * dv - 0.5 * dv_sq + dv * dv / (2.0 * gap),
                (sigma * v[j + 1] + (1.0 - sigma) * v[j]) * dv - 0.5 * dv_sq,
                max(abs(v[j + 1] * dv), abs(v[j] * dv), abs(dv_sq), quotient),
            )
        )
    return EnergyProbe(*np.array(margins).T)


def closed_form_l21sigma_weights(order: FractionalOrder, nt: int) -> list[np.ndarray]:
    """Alikhanov's weights ``c_0^{(j+1)} .. c_j^{(j+1)}`` of every step ``j <
    nt``, unscaled, from the closed forms (JCP 280, 2015) with ``sigma = 1 -
    alpha/2``:

        a_0 = sigma^(1-alpha),
        a_l = (l+sigma)^(1-alpha) - (l-1+sigma)^(1-alpha),
        b_l = ((l+sigma)^(2-alpha) - (l-1+sigma)^(2-alpha)) / (2-alpha)
              - ((l+sigma)^(1-alpha) + (l-1+sigma)^(1-alpha)) / 2,

    ``c_0 = a_0`` at ``j = 0``; for ``j >= 1``, ``c_0 = a_0 + b_1``, ``c_s =
    a_s + b_{s+1} - b_s`` for ``1 <= s < j`` and ``c_j = a_j - b_j``.  ``b_l``
    cancels all but about ``l^-3`` of its terms, so every power and
    difference is taken in ``np.longdouble`` and only the weights are
    rounded to doubles."""
    alpha = np.longdouble(order.alpha)
    sigma = np.longdouble(order.sigma)
    upper = np.arange(1, nt + 1, dtype=np.longdouble) + sigma  # l + sigma
    lower = upper - 1
    a = np.empty(nt + 1, dtype=np.longdouble)
    a[0] = sigma ** (1 - alpha)
    a[1:] = upper ** (1 - alpha) - lower ** (1 - alpha)
    b = np.zeros(nt + 1, dtype=np.longdouble)  # b_0 does not exist
    b[1:] = (upper ** (2 - alpha) - lower ** (2 - alpha)) / (2 - alpha) - (
        upper ** (1 - alpha) + lower ** (1 - alpha)
    ) / 2
    # With b_0 = 0 and no b_{j+1} term at s = j, one formula gives every c_s.
    return [
        (a[: j + 1] + np.append(b[1 : j + 1], 0) - b[: j + 1]).astype(float)
        for j in range(nt)
    ]


def dense_l21sigma_march(
    problem: ProblemSpec, order: FractionalOrder, nx: int, nt: int, scheme: str
) -> np.ndarray:
    """Layers ``y^0 .. y^nt`` of ``nt`` steps of :func:`dense_l21sigma_step`
    on the grid of ``nx`` intervals, each step with the weights of
    :func:`closed_form_l21sigma_weights` scaled by ``tau^-alpha /
    Gamma(2-alpha)``."""
    tau = problem.horizon / nt
    scale = tau ** (-order.alpha) / math.gamma(2.0 - order.alpha)
    layers = np.zeros((nt + 1, nx + 1))
    layers[0, 1:-1] = problem.u0(np.linspace(0.0, problem.length, nx + 1))[1:-1]
    for j, c in enumerate(closed_form_l21sigma_weights(order, nt)):
        layers[j + 1] = dense_l21sigma_step(
            problem, order, nx, tau, layers[: j + 1], scheme, scale * c
        )
    return layers


def dense_l21sigma_operators(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: int,
    t: float,
    c0: float,
    scheme: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dense operators of one L2-1sigma step collocated at ``t`` with the
    scaled weight ``c0`` of ``y^{j+1} - y^j``, on the interior nodes of the
    grid of ``nx`` intervals: ``(A, B, M, M f(t))`` with

        A = c_0 M - sigma Lambda,    B = c_0 M + (1 - sigma) Lambda.

    ``scheme="second"``: ``M`` is the identity, ``Lambda y = (k_{i+1/2}
    (y_{i+1} - y_i) - k_{i-1/2} (y_i - y_{i-1})) / h^2 - q_i y_i`` with ``k``
    at the half-integer nodes, and ``q``, ``f`` at the interior nodes.
    ``scheme="compact"``: ``M v = (v_{i-1} + 10 v_i + v_{i+1}) / 12`` (``f``
    taken at every node), ``Lambda y = k(t) (y_{i+1} - 2 y_i + y_{i-1}) /
    h^2 - q(t) M y``.  ``A``, ``B`` and ``M`` act on the interior nodes,
    which is all of them for a layer that vanishes at both ends."""
    h = problem.length / nx
    x = np.linspace(0.0, problem.length, nx + 1)
    n = nx - 1
    # Every operator maps the nodes 0 .. nx onto the interior rows 1 .. nx-1.
    rows = np.arange(n)
    if scheme == "second":
        mass = np.zeros((n, nx + 1))
        mass[rows, rows + 1] = 1.0
        k = np.broadcast_to(np.asarray(problem.k(x[:-1] + 0.5 * h, t), float), (nx,))
        q = np.broadcast_to(np.asarray(problem.q(x[1:-1], t), float), (n,))
        stiffness = np.zeros((n, nx + 1))
        stiffness[rows, rows] = k[:-1] / h**2
        stiffness[rows, rows + 1] = -(k[:-1] + k[1:]) / h**2
        stiffness[rows, rows + 2] = k[1:] / h**2
        operator = stiffness - q[:, None] * mass
        source = np.broadcast_to(np.asarray(problem.f(x[1:-1], t), float), (n,))
    elif scheme == "compact":
        mass = np.zeros((n, nx + 1))
        mass[rows, rows] = 1.0 / 12.0
        mass[rows, rows + 1] = 10.0 / 12.0
        mass[rows, rows + 2] = 1.0 / 12.0
        laplace = np.zeros((n, nx + 1))
        laplace[rows, rows] = 1.0 / h**2
        laplace[rows, rows + 1] = -2.0 / h**2
        laplace[rows, rows + 2] = 1.0 / h**2
        operator = float(problem.k_time(t)) * laplace - float(problem.q_time(t)) * mass
        source = mass @ np.broadcast_to(np.asarray(problem.f(x, t), float), (nx + 1,))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    sigma = order.sigma
    mass, operator = mass[:, 1:-1], operator[:, 1:-1]
    left = c0 * mass - sigma * operator
    right = c0 * mass + (1.0 - sigma) * operator
    return left, right, mass, source


def dense_l21sigma_step(
    problem: ProblemSpec,
    order: FractionalOrder,
    nx: int,
    tau: float,
    layers: np.ndarray,
    scheme: str,
    c: np.ndarray | None = None,
) -> np.ndarray:
    """Layer ``j+1`` of one L2-1sigma step on the grid of ``nx`` intervals,
    from the layers ``y^0 .. y^j`` (rows of ``layers``, boundary nodes
    included, which vanish), assembled densely and solved with
    ``numpy.linalg.solve``.

    With ``c_0 .. c_j`` the scaled weights ``c`` (by default those of
    :func:`subdiff.kernels.weights`), ``t = (j + sigma) tau`` and the
    operators of :func:`dense_l21sigma_operators`, the step reads

        M [c_0 (y^{j+1} - y^j) + sum_{s<j} c_{j-s} (y^{s+1} - y^s)]
            = Lambda(sigma y^{j+1} + (1 - sigma) y^j) + M f(t),

    that is ``A y^{j+1} = B y^j - M sum_{s<j} c_{j-s} (y^{s+1} - y^s) + M
    f(t)``."""
    j = len(layers) - 1
    if c is None:
        c = weights(order, j, tau)
    left, right, mass, source = dense_l21sigma_operators(
        problem, order, nx, (j + order.sigma) * tau, c[0], scheme
    )
    # sum_{s<j} c_{j-s} (y^{s+1} - y^s)
    memory = c[j:0:-1] @ np.diff(layers, axis=0)
    inner = slice(1, -1)
    layer = np.zeros(nx + 1)
    rhs = right @ layers[-1, inner] - mass @ memory[inner] + source
    layer[inner] = np.linalg.solve(left, rhs)
    return layer

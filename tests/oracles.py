"""Test oracles for the Caputo derivative: the closed form of a power of
``t`` and an adaptive quadrature of the defining integral.  The solver does
not use them; the tests check the discrete operators and the manufactured
problems against them."""

import math
from typing import Callable

from scipy.integrate import quad

from subdiff.kernels import FractionalOrder


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

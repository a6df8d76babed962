"""Built-in test problems with known exact solutions.

Two problems are registered:

* ``varcoeff-2nd`` — a manufactured diffusion problem with space-and-time
  coefficients ``k = 2 - sin(xt)``, ``q = 1 - cos(xt)`` and exact solution
  ``sin(pi x)(t^3 + 3t^2 + 1)``; target of the second-order scheme.
* ``timecoeff-compact`` — a manufactured problem with time-only coefficients
  ``k = exp(t)``, ``q = 1 - sin(2t)`` and exact solution ``t^2 sin(pi x)``;
  target of the compact fourth-order scheme.

Sources are derived from the exact solutions through the defining identity
``f = D_t^alpha u - (k u_x)_x + q u``; the test suite verifies the residual
numerically, so the expressions here are self-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import FractionalOrder
from .schemes import ProblemSpec

__all__ = [
    "NamedProblem",
    "PROBLEM_IDS",
    "get_problem",
    "problem_timecoeff_compact",
    "problem_varcoeff_2nd",
]

PROBLEM_IDS = ("varcoeff-2nd", "timecoeff-compact")


@dataclass(frozen=True)
class NamedProblem:
    """A registered problem: its id and its PDE spec."""

    problem_id: str
    spec: ProblemSpec


def problem_varcoeff_2nd(order: FractionalOrder) -> ProblemSpec:
    """Manufactured problem with genuinely space-and-time coefficients."""
    alpha = order.alpha
    gamma_4a = math.gamma(4.0 - alpha)
    gamma_3a = math.gamma(3.0 - alpha)

    def exact(x, t):
        return np.sin(np.pi * x) * (t**3 + 3.0 * t**2 + 1.0)

    def k(x, t):
        return 2.0 - np.sin(x * t)

    def q(x, t):
        return 1.0 - np.cos(x * t)

    def f(x, t):
        x = np.asarray(x, dtype=float)
        g = t**3 + 3.0 * t**2 + 1.0
        caputo_part = (
            6.0 * t ** (3.0 - alpha) / gamma_4a + 6.0 * t ** (2.0 - alpha) / gamma_3a
        )
        sin_px = np.sin(np.pi * x)
        xt = x * t
        cos_xt = np.cos(xt)
        flux_part = g * (
            t * cos_xt * np.pi * np.cos(np.pi * x)
            + (2.0 - np.sin(xt)) * np.pi**2 * sin_px
        )
        reaction_part = (1.0 - cos_xt) * g * sin_px
        return caputo_part * sin_px + flux_part + reaction_part

    def u0(x):
        return np.sin(np.pi * np.asarray(x, dtype=float))

    return ProblemSpec(
        k=k,
        q=q,
        f=f,
        u0=u0,
        length=1.0,
        horizon=1.0,
        c1=2.0 - math.sin(1.0),
        exact=exact,
    )


def problem_timecoeff_compact(order: FractionalOrder) -> ProblemSpec:
    """Manufactured problem with time-only coefficients, stated once as
    ``k_time``/``q_time``; both schemes run it."""
    alpha = order.alpha
    gamma_3a = math.gamma(3.0 - alpha)

    def exact(x, t):
        return t**2 * np.sin(np.pi * x)

    def k_time(t):
        return np.exp(t)

    def q_time(t):
        return 1.0 - np.sin(2.0 * t)

    def f(x, t):
        x = np.asarray(x, dtype=float)
        bracket = (
            np.pi**2 * t**2 * np.exp(t)
            + t**2 * (1.0 - np.sin(2.0 * t))
            + 2.0 * t ** (2.0 - alpha) / gamma_3a
        )
        return bracket * np.sin(np.pi * x)

    def u0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemSpec(
        k_time=k_time,
        q_time=q_time,
        f=f,
        u0=u0,
        length=1.0,
        horizon=1.0,
        c1=1.0,
        exact=exact,
    )


def get_problem(problem_id: str, order: FractionalOrder) -> NamedProblem:
    """Build the named problem for a concrete fractional order."""
    if problem_id == "varcoeff-2nd":
        return NamedProblem(problem_id, spec=problem_varcoeff_2nd(order))
    if problem_id == "timecoeff-compact":
        return NamedProblem(problem_id, spec=problem_timecoeff_compact(order))
    raise KeyError(
        f"unknown problem id {problem_id!r}; registered ids: {', '.join(PROBLEM_IDS)}"
    )

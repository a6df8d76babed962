"""Unit tests for the registered problems.

The manufactured sources are verified against two independent oracles: the
spatial part is rebuilt symbolically with sympy, and the fractional time part
comes from adaptive quadrature of the defining integral.
"""

import math

import numpy as np
import pytest
import sympy as sp

from oracles import caputo_reference
from subdiff.kernels import FractionalOrder
from subdiff.problems import (
    PROBLEM_IDS,
    get_problem,
    problem_caputo_monomial,
    problem_timecoeff_compact,
    problem_varcoeff_2nd,
)

GAMMA_5P5_OVER_24 = 2.1809490743563967


def test_registry_ids():
    order = FractionalOrder(0.5)
    assert set(PROBLEM_IDS) == {
        "caputo-monomial",
        "varcoeff-2nd",
        "timecoeff-compact",
    }
    for problem_id in PROBLEM_IDS:
        named = get_problem(problem_id, order)
        assert named.problem_id == problem_id
        assert (named.spec is None) == (problem_id == "caputo-monomial")
    with pytest.raises(KeyError):
        get_problem("no-such-problem", order)


def test_monomial_case_exact_value():
    case = problem_caputo_monomial(FractionalOrder(0.5))
    assert case.exact_value == pytest.approx(GAMMA_5P5_OVER_24, rel=1e-15)
    assert case.exact_value == pytest.approx(math.gamma(5.5) / 24.0, rel=1e-15)
    assert case.u(0.0) == 0.0
    assert case.u(1.0) == 1.0


@pytest.mark.parametrize("problem_id", ["varcoeff-2nd", "timecoeff-compact"])
def test_boundary_and_initial_compatibility(problem_id):
    order = FractionalOrder(0.4)
    spec = get_problem(problem_id, order).spec
    edges = np.array([0.0, spec.length])
    np.testing.assert_allclose(spec.u0(edges), 0.0, atol=1e-15)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(spec.exact(edges, t), 0.0, atol=1e-15)
    interior = np.array([0.25, 0.5])
    np.testing.assert_allclose(spec.u0(interior), spec.exact(interior, 0.0), atol=1e-15)


def test_timecoeff_source_vanishes_at_t0():
    spec = problem_timecoeff_compact(FractionalOrder(0.5))
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(spec.f(x, 0.0), 0.0, atol=1e-15)


def test_timecoeff_exact_center_value():
    spec = problem_timecoeff_compact(FractionalOrder(0.5))
    assert spec.exact(np.array([0.5]), 1.0)[0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("problem_id", ["varcoeff-2nd", "timecoeff-compact"])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_manufactured_residual_vanishes(problem_id, alpha):
    """f must equal D_t^alpha u - (k u_x)_x + q u; the spatial part is
    reconstructed symbolically, the Caputo part by quadrature."""
    order = FractionalOrder(alpha)
    named = get_problem(problem_id, order)
    spec = named.spec

    x, t = sp.symbols("x t", positive=True)
    if problem_id == "varcoeff-2nd":
        u_sym = sp.sin(sp.pi * x) * (t**3 + 3 * t**2 + 1)
        k_sym = 2 - sp.sin(x * t)
        q_sym = 1 - sp.cos(x * t)
        time_profile_dt = lambda s: 3.0 * s**2 + 6.0 * s  # noqa: E731
    else:
        u_sym = t**2 * sp.sin(sp.pi * x)
        k_sym = sp.exp(t)
        q_sym = 1 - sp.sin(2 * t)
        time_profile_dt = lambda s: 2.0 * s  # noqa: E731
    spatial_sym = sp.diff(k_sym * sp.diff(u_sym, x), x) - q_sym * u_sym
    spatial = sp.lambdify((x, t), spatial_sym, "numpy")

    rng = np.random.default_rng(11)
    points_x = rng.uniform(0.05, 0.95, 40)
    points_t = rng.uniform(0.05, 1.0, 40)
    worst = 0.0
    for xv, tv in zip(points_x, points_t):
        caputo = math.sin(math.pi * xv) * caputo_reference(
            order, time_profile_dt, tv
        )
        residual = caputo - spatial(xv, tv) - spec.f(np.array([xv]), tv)[0]
        worst = max(worst, abs(residual))
    assert worst <= 1e-10


def test_varcoeff_declared_diffusivity_floor():
    spec = problem_varcoeff_2nd(FractionalOrder(0.5))
    assert spec.c1 == pytest.approx(2.0 - math.sin(1.0), rel=1e-15)
    xs = np.linspace(0.0, 1.0, 50)
    for t in np.linspace(0.0, 1.0, 20):
        assert np.all(spec.k(xs, t) >= spec.c1 - 1e-12)


def test_timecoeff_coefficients_positive():
    spec = problem_timecoeff_compact(FractionalOrder(0.5))
    for t in np.linspace(0.0, 1.0, 50):
        assert spec.k_time(t) >= spec.c1
        assert spec.q_time(t) >= 0.0

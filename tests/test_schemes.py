"""Unit tests for the difference schemes, stability machinery, and energy
probes."""

import dataclasses
import math

import numpy as np
import pytest

from subdiff.grids import SpaceGrid, error_norms
from subdiff.kernels import L1, L21SIGMA, FractionalOrder, audit_weight_family
from subdiff.problems import problem_timecoeff_compact, problem_varcoeff_2nd
from subdiff.schemes import (
    L1Provider,
    L21SigmaProvider,
    ProblemSpec,
    SchemeCompatibilityError,
    a_priori_bound,
    energy_inequality_probe,
    run_compact,
    run_second_order,
)


def _poly_problem(order: FractionalOrder) -> ProblemSpec:
    """u = x(1-x)(1+2t) with time-only coefficients: quadratic in space and
    linear in time, so both schemes must reproduce it to roundoff."""
    alpha = order.alpha
    gamma_2a = math.gamma(2.0 - alpha)

    def exact(x, t):
        return x * (1.0 - x) * (1.0 + 2.0 * t)

    def k(x, t):
        return (1.0 + 0.5 * t**2) * np.ones_like(np.asarray(x, dtype=float))

    def q(x, t):
        return t * np.ones_like(np.asarray(x, dtype=float))

    def f(x, t):
        x = np.asarray(x, dtype=float)
        shape = x * (1.0 - x)
        caputo = 2.0 * t ** (1.0 - alpha) / gamma_2a
        return shape * (caputo + t * (1.0 + 2.0 * t)) + 2.0 * (
            1.0 + 0.5 * t**2
        ) * (1.0 + 2.0 * t)

    return ProblemSpec(
        k=k,
        q=q,
        f=f,
        u0=lambda x: x * (1.0 - x),
        length=1.0,
        horizon=1.0,
        c1=1.0,
        exact=exact,
        k_time=lambda t: 1.0 + 0.5 * t**2,
        q_time=lambda t: t,
    )


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_second_order_exact_on_polynomial_data(alpha):
    order = FractionalOrder(alpha)
    problem = _poly_problem(order)
    for nx in (12, 2):  # nx = 2 leaves a single interior row
        history = run_second_order(problem, order, nx=nx, nt=9)
        summary = error_norms(history, problem.exact)
        assert summary.sup <= 1e-11


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_compact_exact_on_polynomial_data(alpha):
    order = FractionalOrder(alpha)
    problem = _poly_problem(order)
    for nx in (12, 2):  # nx = 2 leaves a single interior row
        history = run_compact(problem, order, nx=nx, nt=9)
        summary = error_norms(history, problem.exact)
        assert summary.sup <= 1e-11


# Final layers of two small runs, recorded from the four-stepper implementation
# that preceded the single marching loop; the loop must keep reproducing them.
SECOND_ORDER_FINAL = [
    0.0, 1.5519119598664242, 2.951308112096892, 4.061288135672118,
    4.7733230063163115, 5.017879456831634, 4.7712189178444655,
    4.0577051812478135, 2.947396517731049, 1.5491617529791513, 0.0,
]
COMPACT_FINAL = [
    0.0, 0.307727976105458, 0.5853333938428303, 0.8056423007333047,
    0.9470893259880281, 0.9958286492556934, 0.9470893259880282,
    0.8056423007333049, 0.5853333938428307, 0.30772797610545816, 0.0,
]


def test_runs_reproduce_recorded_final_layers():
    order = FractionalOrder(0.4)
    history = run_second_order(problem_varcoeff_2nd(order), order, 10, 7)
    np.testing.assert_allclose(history.values[-1], SECOND_ORDER_FINAL, rtol=1e-14)

    order = FractionalOrder(0.6)
    history = run_compact(problem_timecoeff_compact(order), order, 10, 7)
    np.testing.assert_allclose(history.values[-1], COMPACT_FINAL, rtol=1e-14)



def _replays_prefix_bitwise(runner, problem, order, nx, nt):
    """A run over half the horizon with half the steps keeps the step size,
    so the full run must replay its layers exactly: step ``j -> j+1`` reads
    only layers ``0..j`` (same assembly, same arithmetic)."""
    short = runner(
        dataclasses.replace(problem, horizon=0.5 * problem.horizon), order, nx, nt
    )
    longer = runner(problem, order, nx, 2 * nt)
    assert np.array_equal(longer.times[: nt + 1], short.times)
    assert np.array_equal(longer.values[: nt + 1], short.values)


def test_step_second_order_matches_run_bitwise():
    order = FractionalOrder(0.4)
    _replays_prefix_bitwise(run_second_order, problem_varcoeff_2nd(order), order, 10, 7)


def test_step_compact_matches_run_bitwise():
    order = FractionalOrder(0.6)
    _replays_prefix_bitwise(run_compact, problem_timecoeff_compact(order), order, 10, 7)

def _crank_nicolson_final_layer(problem, nx, nt):
    """Plain Crank-Nicolson comparator (dense solves, sigma = 1/2)."""
    grid = SpaceGrid(n=nx, length=problem.length)
    h = grid.h
    tau = problem.horizon / nt
    x = grid.nodes()
    x_int = x[1:-1]
    x_mid = grid.midpoints()
    n = nx - 1
    y = np.asarray(problem.u0(x), dtype=float)[1:-1]
    for j in range(nt):
        t = (j + 0.5) * tau
        a = np.asarray(problem.k(x_mid, t), dtype=float)
        d = np.asarray(problem.q(x_int, t), dtype=float)
        phi = np.asarray(problem.f(x_int, t), dtype=float)
        operator = np.zeros((n, n))
        for i in range(n):
            operator[i, i] = -(a[i] + a[i + 1]) / h**2 - d[i]
            if i > 0:
                operator[i, i - 1] = a[i] / h**2
            if i < n - 1:
                operator[i, i + 1] = a[i + 1] / h**2
        lhs = np.eye(n) / tau - 0.5 * operator
        rhs = (np.eye(n) / tau + 0.5 * operator) @ y + phi
        y = np.linalg.solve(lhs, rhs)
    full = np.zeros(nx + 1)
    full[1:-1] = y
    return full


def test_second_order_degenerates_to_crank_nicolson():
    """As alpha -> 1 the memory weights vanish and the scheme collapses to
    Crank-Nicolson with the midpoint blend."""
    order = FractionalOrder(1.0 - 1e-6)
    problem = problem_varcoeff_2nd(order)
    history = run_second_order(problem, order, nx=16, nt=8)
    mine = history.values[-1]
    reference = _crank_nicolson_final_layer(problem, 16, 8)
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.abs(mine - reference).max() <= 1e-4 * scale


def test_mass_average_improves_laplacian_to_fourth_order():
    """(v_{i-1} - 2 v_i + v_{i+1})/h^2 approximates the mass-averaged second
    derivative to O(h^4): halving h must shrink the defect ~16x."""
    defects = []
    for n in (8, 16):
        h = 1.0 / n
        x = np.linspace(0.0, 1.0, n + 1)
        v = np.sin(np.pi * x)
        second = -np.pi**2 * np.sin(np.pi * x)
        lap = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
        mass_second = (second[:-2] + 10.0 * second[1:-1] + second[2:]) / 12.0
        defects.append(np.abs(lap - mass_second).max())
    ratio = defects[0] / defects[1]
    assert 14.0 <= ratio <= 18.0


def test_zero_data_stays_exactly_zero():
    order = FractionalOrder(0.5)

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    problem = ProblemSpec(
        k=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=zero,
        f=zero,
        u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        length=1.0,
        horizon=1.0,
        c1=1.0,
        k_time=lambda t: 1.0,
        q_time=lambda t: 0.0,
    )
    for runner, scheme in ((run_second_order, "second"), (run_compact, "compact")):
        history = runner(problem, order, 8, 5)
        assert np.all(history.values == 0.0), scheme


def test_compact_rejects_space_dependent_coefficients():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    with pytest.raises(SchemeCompatibilityError):
        run_compact(problem, order, 8, 4)


def test_initial_layer_must_vanish_at_endpoints():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    bad = ProblemSpec(
        k=problem.k,
        q=problem.q,
        f=problem.f,
        u0=lambda x: np.cos(np.pi * np.asarray(x, dtype=float)),
        length=1.0,
        horizon=1.0,
        c1=problem.c1,
    )
    with pytest.raises(ValueError):
        run_second_order(bad, order, 8, 4)


def test_dominance_guard_trips_on_negative_reaction():
    """A large negative reaction coefficient destroys diagonal dominance; the
    assembly must refuse rather than silently produce garbage."""
    order = FractionalOrder(0.5)

    def ones(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    problem = ProblemSpec(
        k=ones,
        q=lambda x, t: -50.0 * np.ones_like(np.asarray(x, dtype=float)),
        f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        length=1.0,
        horizon=1.0,
        c1=1.0,
        k_time=lambda t: 1.0,
        q_time=lambda t: -50.0,
    )
    with pytest.raises(ArithmeticError):
        run_second_order(problem, order, 8, 4)
    with pytest.raises(ArithmeticError):
        run_compact(problem, order, 8, 4)


def _constant_problem(k_value, f=None):
    def ones(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    return ProblemSpec(
        k=lambda x, t: k_value * ones(x, t),
        q=lambda x, t: 0.0 * ones(x, t),
        f=f or (lambda x, t: 0.0 * ones(x, t)),
        u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        length=1.0,
        horizon=1.0,
        c1=1.0,
        k_time=lambda t: k_value,
        q_time=lambda t: 0.0,
    )


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_diffusivity_below_declared_floor_is_rejected(runner):
    """The stability estimate assumes k >= c1; a sampled k below it must be
    reported with the time and the offending minimum."""
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError, match=r"t=0\.1875.*minimum 0\.5.*c1=1\.0"):
        runner(_constant_problem(0.5), order, 8, 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_non_finite_layer_is_rejected(runner):
    """A source that turns NaN from t = 0.5 on poisons layer 3 (t = 0.75) of a
    four-step run first; the run must fail naming that layer."""
    order = FractionalOrder(0.5)

    def f(x, t):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, np.nan) if t > 0.5 else np.zeros_like(x)

    with pytest.raises(ValueError, match=r"layer 3 \(t=0\.75\)"):
        runner(_constant_problem(1.0, f), order, 8, 4)


def test_problem_spec_validation():
    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(ValueError):
        ProblemSpec(
            k=zero, q=zero, f=zero, u0=lambda x: x, length=0.0, horizon=1.0, c1=1.0
        )
    with pytest.raises(ValueError):
        ProblemSpec(
            k=zero, q=zero, f=zero, u0=lambda x: x, length=1.0, horizon=1.0, c1=0.0
        )


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_stability_conditions_hold_for_l21sigma(alpha):
    audit = audit_weight_family(FractionalOrder(alpha), 200, L21SIGMA)
    assert audit.passed
    assert audit.check("positivity").margin > 0.0
    assert audit.check("blend_gate").margin > 0.0


def test_stability_conditions_hold_for_l1():
    audit = audit_weight_family(FractionalOrder(0.5), 200, L1)
    assert audit.passed
    assert audit.check("positivity").margin > 0.0


def test_energy_probe_spike_hits_equality():
    """A series that is zero except at the newest sample makes the first
    energy pairing an exact equality; the margin must vanish to roundoff."""
    order = FractionalOrder(0.5)
    provider = L21SigmaProvider(order, tau=0.1)
    spike_value = 3.0
    series = np.zeros(7)
    series[-1] = spike_value
    probe = energy_inequality_probe(provider, series)
    j = series.size - 2
    g, sigma = provider.weights_for(j)
    energy_scale = float(g[-1]) * spike_value**2
    assert abs(probe.newest[j]) <= 1e-14 * energy_scale
    assert probe.previous[j] > 0.0
    assert probe.blended[j] == pytest.approx(
        (sigma - 0.5) * energy_scale, rel=1e-12
    )


def test_energy_probe_random_series_nonnegative():
    rng = np.random.default_rng(42)
    order = FractionalOrder(0.7)
    provider = L21SigmaProvider(order, tau=0.05)
    for _ in range(20):
        series = rng.standard_normal(16)
        probe = energy_inequality_probe(provider, series)
        tol = 1e-12 * np.maximum(1.0, probe.term_scale)
        assert np.all(probe.newest >= -tol)
        assert np.all(probe.previous >= -tol)
        assert np.all(probe.blended >= -tol)


def test_energy_probe_validation():
    provider = L21SigmaProvider(FractionalOrder(0.5), tau=0.1)
    with pytest.raises(ValueError):
        energy_inequality_probe(provider, [1.0])


def test_provider_validation():
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError):
        L21SigmaProvider(order, tau=0.0)
    provider = L21SigmaProvider(order, tau=0.1)
    with pytest.raises(ValueError):
        provider.weights_for(-1)
    with pytest.raises(ValueError):
        L1Provider(order, tau=-1.0)


@pytest.mark.parametrize(
    "scheme,runner", [("second", run_second_order), ("compact", run_compact)]
)
def test_a_priori_bound_holds_on_manufactured_runs(scheme, runner):
    order = FractionalOrder(0.5)
    problem = (
        problem_varcoeff_2nd(order)
        if scheme == "second"
        else problem_timecoeff_compact(order)
    )
    history = runner(problem, order, 16, 16)
    lhs, rhs = a_priori_bound(problem, order, history, scheme=scheme)
    assert lhs <= rhs


def test_a_priori_bound_rejects_unknown_scheme():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    history = run_second_order(problem, order, 8, 4)
    with pytest.raises(ValueError):
        a_priori_bound(problem, order, history, scheme="bogus")

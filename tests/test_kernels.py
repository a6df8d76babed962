"""Unit tests for the discrete Caputo kernels and their audits."""

import math

import numpy as np
import pytest

from subdiff.kernels import (
    L1,
    L21SIGMA,
    FractionalOrder,
    TimeGrid,
    WeightVector,
    apply,
    audit_weight_family,
    audit_weights,
    caputo_power_rule,
    caputo_reference,
    coeff_a,
    coeff_a_array,
    coeff_b,
    coeff_b_array,
    weights,
    weights_l1,
)

# Frozen oracle values for alpha = 0.5 (sigma = 0.75), computed once with
# 40-digit arithmetic and pinned here.
A0_HALF = 0.8660254037844386
A1_HALF = 0.4568502517478566
B1_HALF = 0.015891699903758217
C0_J1_HALF = 0.8819171036881969
C1_J1_HALF = 0.4409585518440984
GAMMA_5P5_OVER_24 = 2.1809490743563967
CAPUTO_CUBIC_AT_HALF = 1.4169231790135457  # order 0.3, u = t^3 + 3t^2, t* = 0.5


@pytest.mark.parametrize("alpha", [-0.2, 0.0, 1.0, 1.5])
def test_fractional_order_rejects_out_of_range(alpha):
    with pytest.raises(ValueError):
        FractionalOrder(alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_sigma_definition(alpha):
    order = FractionalOrder(alpha)
    assert order.sigma == 1.0 - alpha / 2.0


def test_time_grid_uniform_nodes():
    grid = TimeGrid.uniform(4, 2.0)
    assert grid.tau == 0.5
    np.testing.assert_allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_time_grid_shifted_unit_collocation():
    """The last shifted collocation node (m-1+sigma)*tau must land on 1."""
    order = FractionalOrder(0.5)
    grid = TimeGrid.shifted_unit(10, order)
    assert (10 - 1 + order.sigma) * grid.tau == pytest.approx(1.0, abs=1e-15)
    assert grid.nodes().size == 11


def test_coeff_values_against_frozen_oracle():
    order = FractionalOrder(0.5)
    assert coeff_a(order, 0) == pytest.approx(A0_HALF, abs=1e-15)
    assert coeff_a(order, 1) == pytest.approx(A1_HALF, abs=1e-15)
    assert coeff_b(order, 1) == pytest.approx(B1_HALF, abs=1e-15)


def test_coeff_arrays_match_scalars():
    order = FractionalOrder(0.3)
    a = coeff_a_array(order, 6)
    b = coeff_b_array(order, 6)
    for l in range(7):
        assert a[l] == pytest.approx(coeff_a(order, l), rel=1e-15)
    assert np.isnan(b[0])
    for l in range(1, 7):
        assert b[l] == pytest.approx(coeff_b(order, l), rel=1e-15)


def test_weights_first_two_target_indices():
    order = FractionalOrder(0.5)
    w0 = weights(order, 0, 0.1)
    np.testing.assert_allclose(w0.coefficients, [A0_HALF], atol=1e-15)
    w1 = weights(order, 1, 0.1)
    np.testing.assert_allclose(
        w1.coefficients, [C0_J1_HALF, C1_J1_HALF], atol=1e-15
    )


def test_weights_scale():
    order = FractionalOrder(0.4)
    tau = 0.05
    vector = weights(order, 3, tau)
    assert vector.scale == pytest.approx(
        tau ** (-0.4) / math.gamma(1.6), rel=1e-15
    )
    assert vector.kind == L21SIGMA
    assert vector.target_index == 3


def test_weight_vector_is_read_only():
    vector = weights(FractionalOrder(0.5), 2, 0.1)
    with pytest.raises(ValueError):
        vector.coefficients[0] = 0.0


def test_weight_vector_length_validation():
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError):
        WeightVector(
            kind=L21SIGMA,
            order=order,
            target_index=2,
            tau=0.1,
            coefficients=np.ones(2),
            scale=1.0,
        )


def test_apply_validates_series_length():
    vector = weights(FractionalOrder(0.5), 3, 0.1)
    with pytest.raises(ValueError):
        apply(vector, np.ones(3))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_quadratic_exactness_spot(alpha):
    """The shifted-collocation operator reproduces the derivative of t**2
    exactly (its interpolation is quadratic)."""
    order = FractionalOrder(alpha)
    tau = 0.07
    j = 7
    nodes = np.arange(j + 2) * tau
    approx = apply(weights(order, j, tau), nodes**2)
    t_target = (j + order.sigma) * tau
    exact = 2.0 * t_target ** (2.0 - alpha) / math.gamma(3.0 - alpha)
    assert approx == pytest.approx(exact, rel=1e-13)


def test_l1_weights_exact_on_linear():
    """Piecewise-linear interpolation is exact on u = t, so the L1 operator
    must reproduce the derivative of t to machine precision."""
    order = FractionalOrder(0.6)
    tau = 0.05
    j = 9
    nodes = np.arange(j + 2) * tau
    approx = apply(weights_l1(order, j, tau), nodes)
    t_target = (j + 1) * tau
    exact = t_target ** (1.0 - 0.6) / math.gamma(2.0 - 0.6)
    assert approx == pytest.approx(exact, rel=1e-13)
    assert weights_l1(order, j, tau).kind == L1


def test_caputo_power_rule_values():
    order = FractionalOrder(0.5)
    assert caputo_power_rule(order, 4.5, 1.0) == pytest.approx(
        GAMMA_5P5_OVER_24 * 24.0 / math.gamma(5.0), rel=1e-14
    )
    assert caputo_power_rule(order, 1.0, 0.25) == pytest.approx(
        0.25**0.5 / math.gamma(1.5), rel=1e-14
    )
    assert caputo_power_rule(order, 2.0, 0.0) == 0.0


def test_caputo_reference_matches_frozen_oracle():
    order = FractionalOrder(0.3)

    def u_prime(t):
        return 3.0 * t**2 + 6.0 * t

    value = caputo_reference(order, u_prime, 0.5)
    assert value == pytest.approx(CAPUTO_CUBIC_AT_HALF, abs=1e-12)


def test_caputo_reference_consistent_with_power_rule():
    """Quadrature of the defining integral and the gamma-function closed form
    are independent routes to the same derivative."""
    order = FractionalOrder(0.7)

    def u_prime(t):
        return 2.5 * t**1.5

    via_quad = caputo_reference(order, u_prime, 0.8)
    via_gamma = caputo_power_rule(order, 2.5, 0.8)
    assert via_quad == pytest.approx(via_gamma, rel=1e-11)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("j", [0, 1, 2, 17])
def test_audit_weights_passes(alpha, j):
    vector = weights(FractionalOrder(alpha), j, 0.02)
    audit = audit_weights(vector)
    assert audit.passed, [(c.name, c.margin) for c in audit.checks if not c.passed]


def test_audit_weights_names():
    audit = audit_weights(weights(FractionalOrder(0.5), 5, 0.1))
    names = {check.name for check in audit.checks}
    assert {
        "positivity",
        "monotone_decrease",
        "tail_lower_bound",
        "blend_gate",
        "correction_ratio_lower",
        "correction_ratio_upper",
    } <= names


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_audit_weight_family_matches_per_index_audits(alpha):
    """The vectorized family audit must agree with the worst per-index audit
    margins check by check."""
    order = FractionalOrder(alpha)
    j_max = 24
    family = audit_weight_family(order, j_max)
    worst: dict[str, float] = {}
    for j in range(j_max + 1):
        for check in audit_weights(weights(order, j, 1.0)).checks:
            worst[check.name] = min(worst.get(check.name, math.inf), check.margin)
    for check in family.checks:
        assert check.margin == pytest.approx(worst[check.name], rel=1e-12, abs=1e-15)


def test_audit_weight_family_l1():
    """The L1 weights stay monotone at the extreme orders too, where the
    difference of powers cancels almost completely."""
    for alpha in (1e-9, 0.5, 1.0 - 1e-12):
        audit = audit_weight_family(FractionalOrder(alpha), 10_000, kind=L1)
        assert audit.passed, (alpha, audit.checks)
        names = {check.name for check in audit.checks}
        assert "positivity" in names and "monotone_decrease" in names


def test_audit_weight_family_j0():
    audit = audit_weight_family(FractionalOrder(0.4), 0)
    assert audit.passed


def test_weights_rejects_negative_index():
    with pytest.raises(ValueError):
        weights(FractionalOrder(0.5), -1, 0.1)

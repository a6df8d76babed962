"""Unit tests for the discrete Caputo kernels and their audits."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import (
    audit_weight_family_whole,
    b_series_all_terms,
    caputo_power_rule,
    caputo_reference,
)
from subdiff import kernels
from subdiff.kernels import (
    L1,
    L21SIGMA,
    FractionalOrder,
    WeightVector,
    apply,
    audit_weight_family,
    coeff_a_array,
    coeff_b_array,
    weights,
)
from subdiff.harness import monomial_error
from subdiff.problems import problem_caputo_monomial

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
    """The L1 check samples u on the uniform nodes 0, tau, ..., 1 with tau = 1/m."""
    order = FractionalOrder(0.5)
    error, tau = monomial_error(order, 4, formula=L1)
    assert tau == 0.25
    case = problem_caputo_monomial(order)
    nodes = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    approx = apply(weights(order, 3, 0.25, L1), case.u(nodes))
    assert error == abs(approx - case.exact_value)


def test_time_grid_shifted_unit_collocation():
    """The last shifted collocation node (m-1+sigma)*tau must land on 1."""
    order = FractionalOrder(0.5)
    error, tau = monomial_error(order, 10)
    assert (10 - 1 + order.sigma) * tau == pytest.approx(1.0, abs=1e-15)
    case = problem_caputo_monomial(order)
    nodes = np.linspace(0.0, 10 * tau, 11)
    approx = apply(weights(order, 9, tau), case.u(nodes))
    assert error == pytest.approx(abs(approx - case.exact_value), rel=1e-12)


def test_coeff_values_against_frozen_oracle():
    order = FractionalOrder(0.5)
    a = coeff_a_array(order, 1)
    b = coeff_b_array(order, 1)
    assert a[0] == pytest.approx(A0_HALF, abs=1e-15)
    assert a[1] == pytest.approx(A1_HALF, abs=1e-15)
    assert b[1] == pytest.approx(B1_HALF, abs=1e-15)


def _coeff_scalars(order, n):
    """``a_0 .. a_n`` and ``b_1 .. b_n`` (``b_0`` is None) from their closed
    forms, one index at a time in 40-digit arithmetic."""
    with mpmath.workdps(40):
        alpha, sigma = mpmath.mpf(order.alpha), mpmath.mpf(order.sigma)
        a, b = [float(sigma ** (1 - alpha))], [None]
        for l in range(1, n + 1):
            lo, hi = l - 1 + sigma, l + sigma
            a.append(float(hi ** (1 - alpha) - lo ** (1 - alpha)))
            b.append(float(
                (hi ** (2 - alpha) - lo ** (2 - alpha)) / (2 - alpha)
                - (hi ** (1 - alpha) + lo ** (1 - alpha)) / 2
            ))
    return a, b


def test_coeff_arrays_match_scalars():
    """The vectorized tables agree with the per-index closed forms, on both
    sides of the series cutoff for ``b_l`` (``l - 1 + sigma = 4``)."""
    order = FractionalOrder(0.3)
    a = coeff_a_array(order, 6)
    b = coeff_b_array(order, 6)
    a_ref, b_ref = _coeff_scalars(order, 6)
    for l in range(7):
        assert a[l] == pytest.approx(a_ref[l], rel=1e-15)
    assert np.isnan(b[0])
    for l in range(1, 7):
        assert b[l] == pytest.approx(b_ref[l], rel=1e-15)


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


def test_weight_vector_is_read_only():
    vector = weights(FractionalOrder(0.5), 2, 0.1)
    with pytest.raises(ValueError):
        vector.coefficients[0] = 0.0


def test_weight_vector_length_validation():
    for coefficients in (np.ones(0), np.ones((2, 2))):
        with pytest.raises(ValueError):
            WeightVector(coefficients=coefficients, scale=1.0)


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
    approx = apply(weights(order, j, tau, L1), nodes)
    t_target = (j + 1) * tau
    exact = t_target ** (1.0 - 0.6) / math.gamma(2.0 - 0.6)
    assert approx == pytest.approx(exact, rel=1e-13)


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
    """The family audit up to ``j`` covers index ``j`` and every index below."""
    audit = audit_weight_family(FractionalOrder(alpha), j)
    assert audit.passed, [(c.name, c.margin) for c in audit.checks if not c.passed]


_L21SIGMA_CHECKS = (
    "positivity",
    "monotone_decrease",
    "tail_lower_bound",
    "blend_gate",
    "correction_ratio_lower",
    "correction_ratio_upper",
)


def test_audit_weights_names():
    audit = audit_weight_family(FractionalOrder(0.5), 5)
    assert tuple(check.name for check in audit.checks) == _L21SIGMA_CHECKS


def _per_index_margins(order, j):
    """The worst margin of each inequality on the one weight vector of
    target index ``j``, checked entry by entry: the oracle of the family
    audit."""
    alpha, sigma = order.alpha, order.sigma
    c = weights(order, j, 1.0).coefficients
    kappa = coeff_b_array(order, j)[1:] / coeff_a_array(order, j)[1:] + 0.5
    margins = {
        "positivity": c,
        "monotone_decrease": c[:-1] - c[1:],
        "tail_lower_bound": c[-1] - 0.5 * (1.0 - alpha) * (j + sigma) ** (-alpha),
        "blend_gate": (2.0 * sigma - 1.0) * c[0] - sigma * c[1:2],
        "correction_ratio_lower": kappa - 0.5,
        "correction_ratio_upper": 1.0 / (2.0 - alpha) - kappa,
    }
    return {
        name: float(np.min(values)) if np.size(values) else math.inf
        for name, values in margins.items()
    }


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1e-9, 1.0 - 1e-12])
def test_audit_weight_family_matches_per_index_audits(alpha):
    """The vectorized family audit must agree with the worst per-index audit
    margins check by check, for every family bound up to 24."""
    order = FractionalOrder(alpha)
    worst = {name: math.inf for name in _L21SIGMA_CHECKS}
    for j_max in range(25):
        for name, margin in _per_index_margins(order, j_max).items():
            worst[name] = min(worst[name], margin)
        family = audit_weight_family(order, j_max)
        assert tuple(check.name for check in family.checks) == _L21SIGMA_CHECKS
        for check in family.checks:
            assert check.margin == pytest.approx(
                worst[check.name], rel=1e-12, abs=1e-15
            ), (j_max, check.name)


def test_audit_weight_family_l1():
    """The L1 weights stay monotone at the extreme orders too, where the
    difference of powers cancels almost completely."""
    for alpha in (1e-9, 0.5, 1.0 - 1e-12):
        audit = audit_weight_family(FractionalOrder(alpha), 10_000, kind=L1)
        assert audit.passed, (alpha, audit.checks)
        names = {check.name for check in audit.checks}
        assert "positivity" in names and "monotone_decrease" in names


_BLOCK = kernels._BLOCK
_EXTREME_ALPHAS = [1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-12]


def _assert_same_audit(mine, expected):
    """Same checks, verdicts and margins, as doubles (NaN equal to NaN)."""
    assert [(c.name, c.passed) for c in mine.checks] == [
        (c.name, c.passed) for c in expected.checks
    ]
    assert np.array_equal(
        [c.margin for c in mine.checks],
        [c.margin for c in expected.checks],
        equal_nan=True,
    )


@pytest.mark.parametrize("kind", [L21SIGMA, L1])
@pytest.mark.parametrize("alpha", _EXTREME_ALPHAS)
def test_streamed_audit_matches_whole_array_audit(kind, alpha):
    """The audit streamed in blocks gives every margin of the whole-array
    audit bitwise, on both sides of each block edge."""
    order = FractionalOrder(alpha)
    for j_max in (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 300_000):
        _assert_same_audit(
            audit_weight_family(order, j_max, kind),
            audit_weight_family_whole(order, j_max, kind),
        )


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_streamed_audit_carries_values_across_block_edges(monkeypatch, block):
    """Blocks shorter than the blend gate's ``c_0, c_1`` and the shared
    differences: every value carried across an edge lands where the
    whole-array audit has it."""
    expected = {
        (alpha, j_max, kind): audit_weight_family_whole(
            FractionalOrder(alpha), j_max, kind
        )
        for alpha in (0.1, 0.5, 0.9)
        for j_max in range(24)
        for kind in (L21SIGMA, L1)
    }
    monkeypatch.setattr(kernels, "_BLOCK", block)
    for (alpha, j_max, kind), whole in expected.items():
        _assert_same_audit(
            audit_weight_family(FractionalOrder(alpha), j_max, kind), whole
        )


def test_blocks_are_slices_of_the_tables():
    order = FractionalOrder(0.3)
    n = _BLOCK + 2
    a_table, b_table = coeff_a_array(order, n), coeff_b_array(order, n)
    for start, stop in ((0, 1), (0, 5), (1, 4), (3, 40), (_BLOCK - 1, n + 1)):
        a_block = kernels._a_block(order, start, stop)
        b_block = kernels._b_block(order, start, stop)
        assert np.array_equal(a_block, a_table[start:stop])
        assert np.array_equal(b_block, b_table[start:stop], equal_nan=True)


@pytest.mark.parametrize("alpha", [1e-9, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12])
def test_coeff_b_array_matches_the_all_term_series(alpha):
    """The series stops at the last term that can change a bit, so the
    table is bitwise the one summed over all terms.  Built block by block,
    ``a`` is bitwise the whole-array formula too."""
    order = FractionalOrder(alpha)
    n = 2**20
    lo = np.arange(0, n, dtype=float) + order.sigma
    assert np.array_equal(
        coeff_a_array(order, n)[1:], kernels._power_difference(1.0 - alpha, lo)
    )
    series = lo >= kernels._B_SERIES_CUTOFF
    b = coeff_b_array(order, n)[1:]
    assert np.array_equal(b[series], b_series_all_terms(alpha, lo[series]))
    assert np.array_equal(b[~series], kernels._b_direct(alpha, lo[~series]))


@pytest.mark.parametrize("alpha", [1e-9, 0.5, 1.0 - 1e-12])
def test_b_series_stops_early_at_large_lo(alpha):
    coeffs = kernels._b_series_coefficients(1.0 - alpha)
    assert kernels._b_series_length(coeffs, 1.0 / kernels._B_SERIES_CUTOFF) < 40
    # From the second block on, lo >= _BLOCK - 1 + sigma.
    assert kernels._b_series_length(coeffs, 1.0 / (_BLOCK - 1)) <= 6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e-16, 1e-300])
def test_b_series_of_an_order_whose_complement_rounds_to_one(alpha):
    """``1 - alpha`` rounds to 1: every series coefficient is zero, the
    shortest length comes back without a 0/0, and the table and the audit
    stay quiet and equal to the all-term series and the whole-array audit."""
    order = FractionalOrder(alpha)
    coeffs = kernels._b_series_coefficients(1.0 - alpha)
    assert not coeffs.any()
    assert kernels._b_series_length(coeffs, 1.0 / kernels._B_SERIES_CUTOFF) == 2
    n = 2 * _BLOCK
    lo = np.arange(0, n, dtype=float) + order.sigma
    series = lo >= kernels._B_SERIES_CUTOFF
    b = coeff_b_array(order, n)[1:]
    assert np.array_equal(b[series], b_series_all_terms(alpha, lo[series]))
    for kind in (L21SIGMA, L1):
        assert audit_weight_family(order, 3 * _BLOCK, kind) == audit_weight_family_whole(
            order, 3 * _BLOCK, kind
        )


@pytest.mark.parametrize("kind", [L21SIGMA, L1])
def test_audit_memory_is_one_block(kind):
    """The streamed audit holds a few blocks, not arrays of ``j_max``
    weights (the whole-array audit peaks near 90 MB here)."""
    tracemalloc.start()
    try:
        audit_weight_family(FractionalOrder(0.5), 10**6, kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_audit_weight_family_j0():
    audit = audit_weight_family(FractionalOrder(0.4), 0)
    assert audit.passed


def test_weights_rejects_negative_index():
    with pytest.raises(ValueError):
        weights(FractionalOrder(0.5), -1, 0.1)


def test_weights_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown weight family"):
        weights(FractionalOrder(0.5), 3, 0.1, kind="nope")


@pytest.mark.parametrize("start", [0, 1, _BLOCK - 1, _BLOCK])
def test_layout_blocks_are_slices_of_the_whole_table(start):
    """A block's lags are the doubles of the same lags in the whole-table
    assembly, and its tails are ``c_j = a_j - b_j`` (``a_0`` at ``j = 0``),
    the last weight of each index's vector."""
    order = FractionalOrder(0.3)
    n = 2 * _BLOCK + 2
    a, b = coeff_a_array(order, n), coeff_b_array(order, n)
    stop = start + _BLOCK
    lags, tails = kernels._l21sigma_layout(a[start:stop], b[start:stop], start)
    assert np.array_equal(lags, kernels._assemble_l21sigma(a, b, n)[start : stop - 1])
    expected_tails = a[start:stop] - b[start:stop]
    if start == 0:
        expected_tails[0] = a[0]
    assert np.array_equal(tails, expected_tails)
    for j in (start, start + 1, stop - 1):
        assert tails[j - start] == kernels._assemble_l21sigma(a, b, j)[-1]

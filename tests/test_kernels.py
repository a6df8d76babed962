"""Unit tests for the discrete Caputo kernels and their audits."""

import math
import tracemalloc

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
    audit_weight_family,
    coeff_a_array,
    coeff_b_array,
    weights,
)
from subdiff.harness import monomial_error

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
    nodes = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    approx = weights(order, 3, 0.25, L1)[::-1] @ np.diff(nodes**4.5)
    assert error == abs(approx - GAMMA_5P5_OVER_24)


def test_time_grid_shifted_unit_collocation():
    """The last shifted collocation node (m-1+sigma)*tau must land on 1."""
    order = FractionalOrder(0.5)
    error, tau = monomial_error(order, 10)
    assert (10 - 1 + order.sigma) * tau == pytest.approx(1.0, abs=1e-15)
    nodes = np.linspace(0.0, 10 * tau, 11)
    approx = weights(order, 9, tau)[::-1] @ np.diff(nodes**4.5)
    assert error == pytest.approx(abs(approx - GAMMA_5P5_OVER_24), rel=1e-12)


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
    mpmath = pytest.importorskip("mpmath")
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
        assert a[l] == pytest.approx(a_ref[l], rel=1e-15, abs=0)
    assert np.isnan(b[0])
    for l in range(1, 7):
        assert b[l] == pytest.approx(b_ref[l], rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "alpha", [1e-9, 0.5, 1.0 - 1e-12, 1.0 - 1e-15, 0.9999999999999999]
)
def test_b_below_the_series_cutoff_keeps_its_digits(alpha):
    """``b_1 .. b_4`` (``lo < 4``) are of order ``alpha (1-alpha)``; they keep
    their digits at orders next to 0 and 1, where the closed form in doubles
    loses up to all of them (40 digits leave at least 20 here)."""
    order = FractionalOrder(alpha)
    assert 3.0 + order.sigma < kernels._B_SERIES_CUTOFF
    _, b_ref = _coeff_scalars(order, 4)
    np.testing.assert_allclose(
        coeff_b_array(order, 4)[1:], b_ref[1:], rtol=1e-14, atol=0
    )


def _unscaled_l21sigma(order, j):
    """``c_0 .. c_j`` of target index ``j``: the lags of the layout followed
    by the tail of index ``j``."""
    lags, tails = kernels._assemble_l21sigma(
        coeff_a_array(order, j), coeff_b_array(order, j), j
    )
    return np.append(lags, tails[-1])


def test_weights_first_two_target_indices():
    order = FractionalOrder(0.5)
    tau = 0.1
    scale = tau**-0.5 / math.gamma(1.5)
    np.testing.assert_allclose(weights(order, 0, tau) / scale, [A0_HALF], atol=1e-15)
    np.testing.assert_allclose(
        weights(order, 1, tau) / scale, [C0_J1_HALF, C1_J1_HALF], atol=1e-15
    )


def test_weights_scale():
    """The weights are ``tau^(-alpha) / Gamma(2 - alpha)`` times the
    unscaled ``c_m``."""
    order = FractionalOrder(0.4)
    tau = 0.05
    np.testing.assert_allclose(
        weights(order, 3, tau),
        tau ** (-0.4) / math.gamma(1.6) * _unscaled_l21sigma(order, 3),
        rtol=1e-15,
        atol=0,
    )


def test_weight_vector_is_read_only():
    vector = weights(FractionalOrder(0.5), 2, 0.1)
    with pytest.raises(ValueError):
        vector[0] = 0.0


def test_weights_hold_one_entry_per_lag():
    """Target index ``j`` has the nonempty 1-D vector ``g_0 .. g_j``."""
    for kind in (L21SIGMA, L1):
        for j in (0, 1, 5):
            assert weights(FractionalOrder(0.5), j, 0.1, kind).shape == (j + 1,)


def test_derivative_rejects_a_series_of_the_wrong_length():
    """``g[::-1] @ np.diff(u)`` needs the ``j + 2`` samples ``u^0 ..
    u^{j+1}``: a shorter series raises instead of giving a number."""
    g = weights(FractionalOrder(0.5), 3, 0.1)
    with pytest.raises(ValueError):
        g[::-1] @ np.diff(np.ones(3))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_quadratic_exactness_spot(alpha):
    """The shifted-collocation operator reproduces the derivative of t**2
    exactly (its interpolation is quadratic)."""
    order = FractionalOrder(alpha)
    tau = 0.07
    j = 7
    nodes = np.arange(j + 2) * tau
    approx = weights(order, j, tau)[::-1] @ np.diff(nodes**2)
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
    approx = weights(order, j, tau, L1)[::-1] @ np.diff(nodes)
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
    c = _unscaled_l21sigma(order, j)
    kappa = coeff_b_array(order, j)[1:] / coeff_a_array(order, j)[1:] + 0.5
    margins = {
        "positivity": c,
        "monotone_decrease": c[:-1] - c[1:],
        "tail_lower_bound": c[-1] - 0.5 * (1.0 - alpha) * (j + sigma) ** (-alpha),
        "blend_gate": (1.0 - alpha) * c[0] - sigma * c[1:2],
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
_EXTREME_ALPHAS = [
    1e-9,
    0.1,
    0.5,
    0.9,
    1.0 - 1e-12,
    1.0 - 1e-13,
    1.0 - 1e-15,
    float(np.nextafter(1.0, 0.0)),
]


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


@pytest.mark.parametrize("kind", [L21SIGMA, L1])
@pytest.mark.parametrize("alpha", _EXTREME_ALPHAS[-3:])
def test_audit_passes_at_orders_next_to_one(kind, alpha):
    """``1 - alpha`` down to one ulp: every inequality holds, the correction
    ratio bound included, which needs ``b_l`` to its last digits."""
    audit = audit_weight_family(FractionalOrder(alpha), 300_000, kind)
    assert audit.passed, [(c.name, c.margin) for c in audit.checks if not c.passed]


def test_blend_gate_holds_at_the_largest_order_below_one():
    """There ``sigma = 1 - alpha/2`` rounds to 1/2: the gate's ``2*sigma - 1``
    formed from ``sigma`` would read 0 and the margin ``-c_1/2``; formed as
    ``1 - alpha`` it keeps its positive sign."""
    order = FractionalOrder(float(np.nextafter(1.0, 0.0)))
    assert order.sigma == 0.5
    for j_max in (1, 2, 100):
        assert audit_weight_family(order, j_max).check("blend_gate").margin > 0.0


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
    coeffs = kernels._b_series_coefficients(order.alpha)
    for start, stop in ((0, 1), (0, 5), (1, 4), (3, 40), (_BLOCK - 1, n + 1)):
        block = kernels._Block(order, start, stop)
        assert np.array_equal(block.a(), a_table[start:stop])
        assert np.array_equal(block.b(coeffs), b_table[start:stop], equal_nan=True)
        # j + sigma of the block's indices j >= 1, for the tail bound
        j = np.arange(max(start, 1), stop, dtype=float) + order.sigma
        assert np.array_equal(block.j_sigma, j)


@pytest.mark.parametrize("kind", ["table", L21SIGMA])
def test_b_series_coefficients_are_built_once(monkeypatch, kind):
    """The series coefficients depend on the order alone: one table or one
    audit over many blocks builds them once."""
    calls = []
    build = kernels._b_series_coefficients

    def counted(alpha):
        calls.append(alpha)
        return build(alpha)

    monkeypatch.setattr(kernels, "_b_series_coefficients", counted)
    order = FractionalOrder(0.5)
    if kind == "table":
        coeff_b_array(order, 3 * _BLOCK)
    else:
        audit_weight_family(order, 3 * _BLOCK, kind)
    assert calls == [0.5]


@pytest.mark.parametrize("alpha", [1e-9, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-12])
def test_coeff_b_array_matches_the_all_term_series(alpha):
    """The series stops at the last term that can change a bit, so the
    table is bitwise the one summed over all terms.  Built block by block,
    ``a`` is bitwise the whole-array formula too."""
    order = FractionalOrder(alpha)
    n = 2**20
    lo = np.arange(0, n, dtype=float) + order.sigma
    p = 1.0 - alpha
    assert np.array_equal(
        coeff_a_array(order, n)[1:], lo**p * np.expm1(p * np.log1p(1.0 / lo))
    )
    series = lo >= kernels._B_SERIES_CUTOFF
    b = coeff_b_array(order, n)[1:]
    assert np.array_equal(b[series], b_series_all_terms(alpha, lo[series]))
    assert np.array_equal(b[~series], kernels._b_quadrature(alpha, lo[~series]))


@pytest.mark.parametrize("alpha", [1e-9, 0.5, 1.0 - 1e-12])
def test_b_series_stops_early_at_large_lo(alpha):
    coeffs = kernels._b_series_coefficients(alpha)
    assert kernels._b_series_length(coeffs, 1.0 / kernels._B_SERIES_CUTOFF) < 40
    # From the second block on, lo >= _BLOCK - 1 + sigma.
    assert kernels._b_series_length(coeffs, 1.0 / (_BLOCK - 1)) <= 6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e-16, 1e-300, 5e-324])
def test_b_series_of_an_order_whose_complement_rounds_to_one(alpha):
    """``1 - alpha`` rounds to 1, but the series coefficients are formed
    from ``alpha`` and keep it: ``c_2 = alpha (1-alpha) / 12``.  The table
    and the audit stay quiet and equal to the all-term series and the
    whole-array audit."""
    order = FractionalOrder(alpha)
    coeffs = kernels._b_series_coefficients(alpha)
    assert coeffs[2] == pytest.approx(alpha / 12.0, rel=1e-15, abs=0)
    n = 2 * _BLOCK
    lo = np.arange(0, n, dtype=float) + order.sigma
    series = lo >= kernels._B_SERIES_CUTOFF
    b = coeff_b_array(order, n)[1:]
    assert np.array_equal(b[series], b_series_all_terms(alpha, lo[series]))
    for kind in (L21SIGMA, L1):
        assert audit_weight_family(order, 3 * _BLOCK, kind) == audit_weight_family_whole(
            order, 3 * _BLOCK, kind
        )


@pytest.mark.filterwarnings("error")
def test_b_series_of_the_smallest_order_is_zero():
    """At the smallest positive double ``alpha / 2`` underflows: every
    series coefficient is zero, and the shortest length comes back without a
    0/0."""
    coeffs = kernels._b_series_coefficients(5e-324)
    assert not coeffs.any()
    assert kernels._b_series_length(coeffs, 1.0 / kernels._B_SERIES_CUTOFF) == 2


@pytest.mark.parametrize("alpha", [1e-9, 1e-6, 1e-3, 0.1])
def test_b_above_the_series_cutoff_keeps_its_digits(alpha):
    """``b_l`` for ``lo >= 4`` (the series) against its closed form in
    60-digit arithmetic, at the doubles ``lo`` the table uses.  The closed
    form cancels about ``lo^3`` of its terms; 60 digits leave more than 30
    here."""
    mpmath = pytest.importorskip("mpmath")
    order = FractionalOrder(alpha)
    indices = np.array([5, 6, 10, 100, 1000, _BLOCK + 1, 10**5, 10**6, 3 * 10**6])
    lo = indices - 1.0 + order.sigma
    assert lo.min() >= kernels._B_SERIES_CUTOFF
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        expected = []
        for value in lo:
            low = mpmath.mpf(float(value))
            high = low + 1
            expected.append(float(
                (high ** (2 - a) - low ** (2 - a)) / (2 - a)
                - (high ** (1 - a) + low ** (1 - a)) / 2
            ))
    np.testing.assert_allclose(
        coeff_b_array(order, int(indices[-1]))[indices], expected, rtol=1e-14, atol=0
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
    assert np.array_equal(lags, kernels._assemble_l21sigma(a, b, n)[0][start : stop - 1])
    expected_tails = a[start:stop] - b[start:stop]
    if start == 0:
        expected_tails[0] = a[0]
    assert np.array_equal(tails, expected_tails)
    for j in (start, start + 1, stop - 1):
        assert tails[j - start] == kernels._assemble_l21sigma(a, b, j)[1][-1]

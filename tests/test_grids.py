"""Unit tests for grids, histories, error norms and convergence orders."""

import math

import numpy as np
import pytest

from subdiff import grids
from subdiff.grids import (
    ErrorSummary,
    SolutionHistory,
    SpaceGrid,
    convergence_order,
    error_norms,
)


def test_space_grid_nodes_and_midpoints():
    grid = SpaceGrid(n=4, length=2.0)
    assert grid.h == 0.5
    np.testing.assert_allclose(grid.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(grid.midpoints(), [0.25, 0.75, 1.25, 1.75])


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_space_grid_rejects_too_few_intervals(n):
    with pytest.raises(ValueError):
        SpaceGrid(n=n, length=1.0)


@pytest.mark.parametrize("n", [4.5, 4.0, True, "4"])
def test_space_grid_rejects_a_non_integer_count(n):
    """``n = 4.5`` would place the last of six nodes at 1.111 on a domain
    of length 1."""
    with pytest.raises(ValueError, match="n must be an int"):
        SpaceGrid(n=n, length=1.0)


@pytest.mark.parametrize("length", [math.inf, math.nan, 0.0, -1.0])
def test_space_grid_rejects_a_length_that_is_not_positive_and_finite(length):
    """``length = inf`` would give the nodes ``[nan, inf, ...]``."""
    with pytest.raises(ValueError, match="domain length"):
        SpaceGrid(n=4, length=length)


def test_space_grid_accepts_numpy_integers():
    assert SpaceGrid(n=np.int64(4), length=1.0).h == 0.25


def test_l2_norm_hand_value():
    """h = 1/4, interior values (1, 2, 1): norm = sqrt(0.25 * 6).  The
    boundary values are left out of the L2 norm but not of the sup norm."""
    grid = SpaceGrid(n=4, length=1.0)
    values = np.array([[7.0, 1.0, 2.0, 1.0, 0.0]])
    history = SolutionHistory(grid, values, np.zeros(1))
    summary = error_norms(history, lambda xs, t: np.zeros_like(xs))
    assert summary.l2max == pytest.approx(np.sqrt(1.5), rel=1e-15)
    assert summary.sup == 7.0


def test_history_views():
    grid = SpaceGrid(n=4, length=1.0)
    values = np.array(
        [[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 1.0, 0.0], [0.0, 2.0, 3.0, 2.0, 0.0]]
    )
    history = SolutionHistory(grid, values, np.array([0.0, 0.1, 0.2]))
    assert len(history) == 3
    np.testing.assert_allclose(history.times, [0.0, 0.1, 0.2])
    assert history.values.shape == (3, 5)
    np.testing.assert_array_equal(history.values[2], values[2])
    with pytest.raises(ValueError):
        history.values[1, 1] = 5.0
    with pytest.raises(ValueError):
        history.times[0] = 1.0


def test_history_rejects_wrong_size_layer():
    grid = SpaceGrid(n=4, length=1.0)
    with pytest.raises(ValueError):
        SolutionHistory(grid, np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        SolutionHistory(grid, np.zeros(5), np.zeros(1))
    with pytest.raises(ValueError):
        SolutionHistory(grid, np.zeros((2, 5)), np.zeros(3))


def test_error_norms_zero_for_exact_fit():
    grid = SpaceGrid(n=8, length=1.0)
    x = grid.nodes()

    def exact(xs, t):
        return np.sin(np.pi * xs) * (1.0 + t)

    history = SolutionHistory(
        grid, np.array([exact(x, 0.0), exact(x, 0.5)]), np.array([0.0, 0.5])
    )
    summary = error_norms(history, exact)
    assert isinstance(summary, ErrorSummary)
    assert summary.l2max == 0.0
    assert summary.sup == 0.0


def test_error_norms_detects_perturbation():
    grid = SpaceGrid(n=4, length=1.0)
    x = grid.nodes()

    def exact(xs, t):
        return np.zeros_like(xs)

    values = np.zeros(5)
    values[2] = 0.01
    history = SolutionHistory(grid, values[np.newaxis], np.zeros(1))
    summary = error_norms(history, exact)
    assert summary.sup == pytest.approx(0.01)
    assert summary.l2max == pytest.approx(0.5 * 0.01, rel=1e-12)  # sqrt(h)*|v|


def test_error_norms_rejects_an_exact_solution_that_does_not_broadcast():
    """The exact solution is sampled on blocks of layers; one written for a
    scalar ``t`` must fail with an error naming ``exact``."""
    grid = SpaceGrid(n=4, length=1.0)
    history = SolutionHistory(grid, np.zeros((3, 5)), np.array([0.0, 0.5, 1.0]))

    def scalar_time(xs, t):
        return np.sin(np.pi * xs) * math.exp(t)

    def wrong_shape(xs, t):
        return np.zeros(3)

    for exact in (scalar_time, wrong_shape):
        with pytest.raises(ValueError, match=r"exact\(x, t\) must broadcast"):
            error_norms(history, exact)


def test_error_norms_do_not_depend_on_the_block_of_layers(monkeypatch):
    """Blocks of two and of three layers give the one-block norms bitwise."""
    grid = SpaceGrid(n=6, length=1.0)
    times = np.linspace(0.0, 1.0, 11)
    values = np.random.default_rng(3).standard_normal((11, 7))

    def exact(xs, t):
        return np.sin(np.pi * xs) * np.exp(t)

    history = SolutionHistory(grid, values, times)
    whole = error_norms(history, exact)
    for layers in (2, 3):
        monkeypatch.setattr(grids, "_BLOCK_BYTES", 8 * 7 * layers)
        assert error_norms(history, exact) == whole


def test_convergence_order_recovers_exact_power():
    levels = [(0.1, 2.0 * 0.1**3), (0.05, 2.0 * 0.05**3), (0.025, 2.0 * 0.025**3)]
    orders = convergence_order(levels)
    assert orders == pytest.approx([3.0, 3.0], rel=1e-12)


def test_convergence_order_handles_uneven_ratios():
    orders = convergence_order([(0.3, 0.09), (0.1, 0.01)])
    assert orders == pytest.approx([2.0], rel=1e-12)


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1.0)])
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1.0), (0.2, 0.5)])  # steps must decrease
    with pytest.raises(ValueError):
        convergence_order([(0.1, 1.0), (0.05, 0.0)])  # errors must be positive
    for step in (0.0, -0.05):
        with pytest.raises(ValueError, match="step sizes must be positive"):
            convergence_order([(0.1, 1.0), (step, 0.5)])

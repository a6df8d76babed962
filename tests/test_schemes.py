"""Unit tests for the difference schemes, stability machinery, and energy
probes."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from oracles import dense_l21sigma_march, dense_l21sigma_step

from subdiff import schemes, tridiag
from subdiff.grids import SolutionHistory, SpaceGrid, convergence_order, error_norms
from subdiff.kernels import (
    L1,
    L21SIGMA,
    FractionalOrder,
    audit_weight_family,
    energy_inequality_probe,
    weights,
)
from subdiff.problems import problem_timecoeff_compact, problem_varcoeff_2nd
from subdiff.schemes import (
    ProblemSpec,
    SchemeCompatibilityError,
    _CausalConvolution,
    a_priori_bound,
    run_compact,
    run_second_order,
)
from subdiff.tridiag import SingularSystemError


def _one(runner, problem, order, nx, nt):
    """The history of one order on one grid."""
    return runner((problem,), (order,), (nx,), nt)[0][0]


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
        history = _one(run_second_order, problem, order, nx, 9)
        summary = error_norms(history, problem.exact)
        assert summary.sup <= 1e-11


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_compact_exact_on_polynomial_data(alpha):
    order = FractionalOrder(alpha)
    problem = _poly_problem(order)
    for nx in (12, 2):  # nx = 2 leaves a single interior row
        history = _one(run_compact, problem, order, nx, 9)
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
    history = _one(run_second_order, problem_varcoeff_2nd(order), order, 10, 7)
    np.testing.assert_allclose(history.values[-1], SECOND_ORDER_FINAL, rtol=1e-14)

    order = FractionalOrder(0.6)
    history = _one(run_compact, problem_timecoeff_compact(order), order, 10, 7)
    np.testing.assert_allclose(history.values[-1], COMPACT_FINAL, rtol=1e-14)


def _compact_problem_with_profile(order):
    """The compact problem started from a nonzero profile, so that the first
    step's terms in ``y^0`` count."""
    return dataclasses.replace(
        problem_timecoeff_compact(order), u0=lambda x: x * (1.0 - x) * (2.0 + x)
    )


@pytest.mark.parametrize(
    "runner, make_problem, scheme",
    [
        (run_second_order, problem_varcoeff_2nd, "second"),
        (run_compact, _compact_problem_with_profile, "compact"),
    ],
)
def test_first_steps_match_the_dense_step_formula(runner, make_problem, scheme):
    """Layers 1 and 2 of a run of two orders on two grids marched together
    are the paper's step solved densely: ``j = 0`` with ``c_0 = a_0`` and no
    history, ``j = 1`` with the history ``c_1 (y^1 - y^0)``."""
    orders = (FractionalOrder(0.3), FractionalOrder(0.8))
    problems = tuple(make_problem(order) for order in orders)
    nxs, nt = (5, 8), 4
    for problem, order, row in zip(problems, orders, runner(problems, orders, nxs, nt)):
        for nx, history in zip(nxs, row):
            for j in (0, 1):
                dense = dense_l21sigma_step(
                    problem, order, nx, problem.horizon / nt, history.values[: j + 1], scheme
                )
                np.testing.assert_allclose(history.values[j + 1], dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "runner, make_problem, scheme",
    [
        (run_second_order, problem_varcoeff_2nd, "second"),
        (run_compact, _compact_problem_with_profile, "compact"),
    ],
)
def test_every_layer_matches_the_dense_march(runner, make_problem, scheme):
    """Every layer of a run of two orders marched together is the paper's
    scheme marched densely with Alikhanov's closed-form weights.  At nt =
    300 the history takes the dense block of 64 and the FFT blocks of 128
    and 256, the last of them clipped at the final step."""
    orders = (FractionalOrder(0.3), FractionalOrder(0.8))
    problems = tuple(make_problem(order) for order in orders)
    nx, nt = 8, 300
    for problem, order, row in zip(problems, orders, runner(problems, orders, (nx,), nt)):
        dense = dense_l21sigma_march(problem, order, nx, nt, scheme)
        np.testing.assert_allclose(row[0].values, dense, rtol=1e-12, atol=0.0)


def _replays_prefix_bitwise(runner, problem, order, nx, nt):
    """A run over half the horizon with half the steps keeps the step size,
    so the full run must replay its layers exactly: step ``j -> j+1`` reads
    only layers ``0..j`` (same assembly, same arithmetic)."""
    short = _one(
        runner, dataclasses.replace(problem, horizon=0.5 * problem.horizon), order, nx, nt
    )
    longer = _one(runner, problem, order, nx, 2 * nt)
    assert np.array_equal(longer.times[: nt + 1], short.times)
    assert np.array_equal(longer.values[: nt + 1], short.values)


def test_step_second_order_matches_run_bitwise():
    order = FractionalOrder(0.4)
    _replays_prefix_bitwise(run_second_order, problem_varcoeff_2nd(order), order, 10, 7)


def test_step_compact_matches_run_bitwise():
    order = FractionalOrder(0.6)
    _replays_prefix_bitwise(run_compact, problem_timecoeff_compact(order), order, 10, 7)


@pytest.mark.parametrize(
    "runner, make_problem",
    [(run_second_order, problem_varcoeff_2nd), (run_compact, problem_timecoeff_compact)],
)
def test_fft_blocks_replay_prefix_bitwise(runner, make_problem):
    """At nt = 200 the block of L = 128 differences takes the FFT path and is
    clipped at the last step; the full run must still replay the half run."""
    order = FractionalOrder(0.5)
    _replays_prefix_bitwise(runner, make_problem(order), order, 10, 200)


class _DirectHistory:
    """Test oracle with the interface of ``_CausalConvolution``: the direct
    contraction ``tail[o, j] * src[0] + sum_{1 <= s < j} lags[o, j-s] *
    src[s]`` over the slab of each order ``o``, with ``src[s] = values[s+1] -
    values[s]``, recomputed in full at each step and written into
    ``values[j+1]``."""

    def __init__(self, lags, tail, values):
        self.lags = lags
        self.tail = tail
        self.values = values
        self.layers = values.reshape(values.shape[0], lags.shape[0], -1)

    def term(self, j):
        if j == 0:
            self.values[1] = 0.0
            return
        src = self.layers[1 : j + 1] - self.layers[:j]
        for o, (lags, tail) in enumerate(zip(self.lags, self.tail)):
            history = np.dot(lags[j - 1 : 0 : -1], src[1:j, o])
            self.layers[j + 1, o] = tail[j] * src[0, o] + history


def _direct_run(monkeypatch, runner, *args):
    """The same run with the history term taken by the direct contraction."""
    with monkeypatch.context() as patch:
        patch.setattr(schemes, "_CausalConvolution", _DirectHistory)
        return runner(*args)


def _history_terms(history_class, lags, tail, layers):
    """``acc[j]`` for every ``j`` as a march sees it: the history completes
    the term in layer ``j+1``, which is then read and overwritten with the
    next layer of ``layers``."""
    values = np.zeros_like(layers)
    values[0] = layers[0]
    history = history_class(lags, tail, values)
    terms = []
    for j in range(len(layers) - 1):
        history.term(j)
        terms.append(values[j + 1].copy())
        values[j + 1] = layers[j + 1]
    return np.array(terms)


def _random_history(orders, nt, columns, seed):
    """``(lags, tail, layers)`` with positive differences and positive lags,
    as the L2-1sigma lags are, so each sum is compared entry by entry."""
    rng = np.random.default_rng(seed)
    lags = rng.uniform(0.1, 1.0, size=(orders, (1 << (nt - 1).bit_length()) + 1))
    tail = rng.uniform(0.1, 1.0, size=(orders, nt))
    layers = np.cumsum(rng.uniform(0.1, 1.0, size=(nt + 1, orders * columns)), axis=0)
    return lags, tail, layers


def _assert_history_matches_direct_sum(orders, nt, columns, seed):
    data = _random_history(orders, nt, columns, seed)
    ours = _history_terms(_CausalConvolution, *data)
    theirs = _history_terms(_DirectHistory, *data)
    np.testing.assert_allclose(ours, theirs, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nt", [1, 2, 3, 64, 65, 129, 300, 1000])
@pytest.mark.parametrize("columns", [1, 7, 40])
def test_causal_convolution_matches_direct_sum(nt, columns):
    """Window sums, dense and FFT blocks, clipped at ``nt``, add every pair
    once; with 40 columns the block of L = 512 is transformed in two column
    chunks."""
    _assert_history_matches_direct_sum(1, nt, columns, nt * 10 + columns)


@pytest.mark.parametrize("nt", [300, 1000])
@pytest.mark.parametrize("columns", [7, 40])
def test_causal_convolution_of_several_orders_matches_direct_sum(nt, columns):
    """Each order's slab takes its own lags and tail.  From nt = 300 on the
    run holds dense blocks (L = 64) and FFT blocks (L = 128, 256); with 40
    columns per slab the block of L = 512 takes each slab in two column
    chunks."""
    _assert_history_matches_direct_sum(3, nt, columns, nt * 10 + columns + 1)


@pytest.mark.parametrize("nt", [300, 1000])
@pytest.mark.parametrize("columns", [7, 40])
def test_chunk_budget_does_not_change_the_history_sums(nt, columns, monkeypatch):
    """Every column of a slab is summed alike whatever chunk it falls in:
    a budget of one column per FFT chunk gives the sums of the default
    budget bit for bit."""
    data = _random_history(3, nt, columns, nt * 10 + columns + 1)
    default = _history_terms(_CausalConvolution, *data)
    monkeypatch.setattr(schemes, "_CHUNK_BYTES", 1)
    np.testing.assert_array_equal(_history_terms(_CausalConvolution, *data), default)


def test_compact_group_matches_direct_history(monkeypatch):
    orders = (FractionalOrder(0.6), FractionalOrder(0.2))
    problems = tuple(problem_timecoeff_compact(order) for order in orders)
    fast = run_compact(problems, orders, (4, 8, 16), 300)
    direct = _direct_run(monkeypatch, run_compact, problems, orders, (4, 8, 16), 300)
    for ours, theirs in zip(sum(fast, ()), sum(direct, ())):
        np.testing.assert_allclose(ours.values, theirs.values, rtol=1e-13, atol=0.0)


def test_second_order_matches_direct_history(monkeypatch):
    order = FractionalOrder(0.4)
    problem = problem_varcoeff_2nd(order)
    fast = _one(run_second_order, problem, order, 16, 300)
    direct = _direct_run(monkeypatch, _one, run_second_order, problem, order, 16, 300)
    np.testing.assert_allclose(fast.values, direct.values, rtol=1e-13, atol=0.0)


def _assert_merged_runs_match_single_runs(runner, make_problem, alphas, nxs, nt):
    """The cells of several orders and grids marched together reproduce
    their one-order, one-grid runs; the wider history contraction may round
    differently in the last bit."""
    orders = tuple(FractionalOrder(alpha) for alpha in alphas)
    problems = tuple(make_problem(order) for order in orders)
    merged = runner(problems, orders, nxs, nt)
    assert [len(row) for row in merged] == [len(nxs)] * len(orders)
    for problem, order, row in zip(problems, orders, merged):
        for nx, history in zip(nxs, row):
            single = _one(runner, problem, order, nx, nt)
            assert history.grid == single.grid
            assert np.array_equal(history.times, single.times)
            np.testing.assert_allclose(history.values, single.values, rtol=1e-14, atol=0.0)
            assert history.source_norm_sq == pytest.approx(single.source_norm_sq, rel=1e-14)
            # The boundary nodes inside the node vector are identity rows of
            # the solve; the outer two carry the history term's zeros.
            boundary = history.values[:, [0, -1]]
            assert np.all(boundary == 0.0) and not np.signbit(boundary).any()


def test_grouped_compact_matches_single_runs():
    _assert_merged_runs_match_single_runs(
        run_compact, problem_timecoeff_compact, (0.6, 0.1, 0.9), (4, 8, 16, 32), 300
    )


def test_grouped_second_order_matches_single_runs():
    _assert_merged_runs_match_single_runs(
        run_second_order, problem_varcoeff_2nd, (0.4, 0.99, 0.1, 0.5), (6, 10), 300
    )


@pytest.mark.parametrize(
    ("runner", "make_problem"),
    [(run_second_order, problem_varcoeff_2nd), (run_compact, problem_timecoeff_compact)],
)
def test_marches_converge_at_the_extreme_orders(runner, make_problem):
    """Orders next to 0 and 1, down to the largest double below 1, march
    under ``h = tau`` refinement: the a priori bound holds on every run and
    ``err_l2max`` falls at order 2 (4 for the compact scheme next to 0, where
    the time error of its problem vanishes)."""
    alphas = (1e-9, 1e-6, 1.0 - 1e-12, 1.0 - 1e-15, float(np.nextafter(1.0, 0.0)))
    orders = [FractionalOrder(alpha) for alpha in alphas]
    problems = [make_problem(order) for order in orders]
    levels = {alpha: [] for alpha in alphas}
    for n in (40, 80, 160):
        for problem, order, (history,) in zip(
            problems, orders, runner(problems, orders, (n,), n)
        ):
            lhs, rhs = a_priori_bound(problem, order, history)
            assert lhs <= rhs, (order.alpha, n, lhs, rhs)
            levels[order.alpha].append((1.0 / n, error_norms(history, problem.exact).l2max))
    for alpha, pairs in levels.items():
        observed = convergence_order(pairs)
        assert min(observed) >= 1.95, (alpha, observed)


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
    history = _one(run_second_order, problem, order, 16, 8)
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
        history = _one(runner, problem, order, 8, 5)
        assert np.all(history.values == 0.0), scheme


def test_compact_rejects_space_dependent_coefficients():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    with pytest.raises(SchemeCompatibilityError):
        run_compact((problem,), (order,), (8,), 4)


def test_time_only_problem_runs_under_both_schemes():
    """``timecoeff-compact`` states its coefficients once, as ``k_time`` and
    ``q_time``; the second-order scheme spreads them over the nodes."""
    order = FractionalOrder(0.4)
    problem = problem_timecoeff_compact(order)
    assert problem.k is None and problem.q is None
    # Measured sup errors at nx = 16, nt = 32: 2.89e-3 and 1.47e-4.
    for runner, bound in ((run_second_order, 4e-3), (run_compact, 2e-4)):
        history = _one(runner, problem, order, 16, 32)
        assert error_norms(history, problem.exact).sup < bound


def _with_space_time_copies(problem):
    """``problem`` that also gives ``k(x, t) = k_time(t) * 1`` and ``q`` in
    the same way."""

    def spread(g):
        return lambda x, t: g(t) * np.ones_like(np.asarray(x, dtype=float))

    return dataclasses.replace(problem, k=spread(problem.k_time), q=spread(problem.q_time))


def test_second_order_spreads_time_only_coefficients_bitwise():
    """A problem that gives only ``k_time``/``q_time`` marches bit for bit
    as the same problem that also gives them as ``k(x, t)``, ``q(x, t)``,
    on every slab of a merged run."""
    orders = (FractionalOrder(0.3), FractionalOrder(0.8))
    time_only = tuple(
        dataclasses.replace(problem_timecoeff_compact(order), k=None, q=None)
        for order in orders
    )
    both = tuple(_with_space_time_copies(problem) for problem in time_only)
    ours = run_second_order(time_only, orders, (6, 9), 40)
    theirs = run_second_order(both, orders, (6, 9), 40)
    for mine, reference in zip(sum(ours, ()), sum(theirs, ())):
        assert np.array_equal(mine.values, reference.values)
        assert mine.source_norm_sq == reference.source_norm_sq


def _zero(x, t):
    return np.zeros_like(np.asarray(x, dtype=float))


@pytest.mark.parametrize(
    "given, message",
    [
        ({}, "needs k and q, or k_time and q_time"),
        ({"k": _zero}, "q is missing"),
        ({"q": _zero}, "k is missing"),
        ({"k_time": lambda t: 1.0}, "q_time is missing"),
        ({"q_time": lambda t: 0.0}, "k_time is missing"),
        ({"k": _zero, "q": _zero, "k_time": lambda t: 1.0}, "q_time is missing"),
    ],
    ids=["none", "k", "q", "k_time", "q_time", "k-q-k_time"],
)
def test_problem_spec_needs_a_complete_pair_of_coefficients(given, message):
    with pytest.raises(ValueError, match=message):
        ProblemSpec(f=_zero, u0=lambda x: x, length=1.0, horizon=1.0, c1=1.0, **given)


def test_problem_spec_takes_keywords_only():
    with pytest.raises(TypeError):
        ProblemSpec(_zero, _zero, _zero, lambda x: x, 1.0, 1.0, 1.0)


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
    message = r"must vanish at both endpoints, got u0\(0\)=1\.0, u0\(1\.0\)=-1\.0$"
    with pytest.raises(ValueError, match=message):
        _one(run_second_order, bad, order, 8, 4)


def test_dominance_guard_trips_on_negative_reaction():
    """A negative reaction coefficient breaks the stability assumption
    ``q >= 0`` (and, large enough, diagonal dominance); the assembly must
    refuse with the time and the minimum rather than produce garbage."""
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
    message = r"reaction coefficient sampled at t=0\.1875 has minimum -50\.0, below zero"
    with pytest.raises(ValueError, match=message):
        _one(run_second_order, problem, order, 8, 4)
    with pytest.raises(ValueError, match=message):
        _one(run_compact, problem, order, 8, 4)


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
        _one(runner, _constant_problem(0.5), order, 8, 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_grouped_runs_keep_the_guards(runner):
    """A diffusivity below c1 or a negative reaction coefficient raises on a
    group of grids as it does on one grid."""
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError, match=r"t=0\.1875.*minimum 0\.5.*c1=1\.0"):
        runner((_constant_problem(0.5),), (order,), (8, 4, 16), 4)
    problem = dataclasses.replace(
        _constant_problem(1.0),
        q=lambda x, t: -50.0 * np.ones_like(np.asarray(x, dtype=float)),
        q_time=lambda t: -50.0,
    )
    with pytest.raises(ValueError, match=r"t=0\.1875 has minimum -50\.0, below zero"):
        runner((problem,), (order,), (8, 4, 16), 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_merged_runs_keep_each_orders_guard(runner):
    """Each order samples its own callbacks at its own collocation times
    and checks them against its own ``c1``: at nt = 4 the first step of
    alpha = 0.5 is at t = 0.1875 and that of alpha = 0.25 at t = 0.21875."""
    orders = (FractionalOrder(0.5), FractionalOrder(0.25))
    fine = _constant_problem(1.0)
    with pytest.raises(ValueError, match=r"^diffusivity sampled at t=0\.21875 has minimum 0\.5, "
                       r"below the declared floor c1=1\.0$"):
        runner((fine, _constant_problem(0.5)), orders, (8, 4), 4)
    high_floor = dataclasses.replace(_constant_problem(1.5), c1=2.0)
    with pytest.raises(ValueError, match=r"t=0\.21875 has minimum 1\.5, .* c1=2\.0$"):
        runner((fine, high_floor), orders, (8, 4), 4)
    negative = dataclasses.replace(
        _constant_problem(1.0),
        q=lambda x, t: -50.0 * np.ones_like(np.asarray(x, dtype=float)),
        q_time=lambda t: -50.0,
    )
    with pytest.raises(ValueError, match=r"^reaction coefficient sampled at t=0\.21875 "
                       r"has minimum -50\.0, below zero$"):
        runner((fine, negative), orders, (8, 4), 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_merged_runs_check_their_inputs(runner):
    order = FractionalOrder(0.5)
    problem = _constant_problem(1.0)
    for name in ("length", "horizon"):
        other = dataclasses.replace(problem, **{name: 2.0})
        with pytest.raises(ValueError, match=f"must share the {name}"):
            runner((problem, other), (order, order), (8,), 4)
    with pytest.raises(ValueError, match="one problem per order, got 2 problems and 1 orders"):
        runner((problem, problem), (order,), (8,), 4)
    with pytest.raises(ValueError, match="one problem per order, got 0 problems and 0 orders"):
        runner((), (), (8,), 4)


def test_history_lives_in_the_layer_array():
    """The history sums and the window's differences live in the layers
    and a ring of 64 rows, so a march at nt = 4096 (FFT blocks up to
    L = 2048) peaks at well under twice its layer array; full ``(nt,
    nodes)`` arrays for the sums and the differences would triple it."""
    orders = tuple(FractionalOrder(alpha) for alpha in (0.1, 0.5, 0.9))
    problems = tuple(problem_timecoeff_compact(order) for order in orders)
    tracemalloc.start()
    try:
        histories = run_compact(problems, orders, (8, 16, 32, 64), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layers = histories[0][0].values.base
    assert layers.shape == (4097, 3 * (9 + 17 + 33 + 65))
    assert peak < 1.6 * layers.nbytes


def _late_switch(early, late):
    """A value that jumps from ``early`` to ``late`` once ``t > 0.6``; at
    alpha = 0.5 and nt = 8 the first step past it is j = 5, t = 0.71875."""
    return lambda t: np.where(t > 0.6, late, early)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_reaction_turning_negative_late_is_rejected(runner):
    order = FractionalOrder(0.5)
    q_time = _late_switch(0.0, -1.0)
    problem = dataclasses.replace(
        _constant_problem(1.0), q=lambda x, t: q_time(t), q_time=q_time
    )
    message = r"^reaction coefficient sampled at t=0\.71875 has minimum -1\.0, below zero"
    with pytest.raises(ValueError, match=message):
        _one(runner, problem, order, 8, 8)


def _as_tuple(nx):
    return nx if isinstance(nx, tuple) else (nx,)


def _nodes(nx):
    return sum(n + 1 for n in _as_tuple(nx))


def _block_length(patch, nx, steps, orders=1):
    """Make a march of ``orders`` orders over the grids ``nx`` take its
    steps in blocks of ``steps``."""
    patch.setattr(schemes, "_CHUNK_BYTES", 8 * orders * _nodes(nx) * steps)


@pytest.mark.parametrize(
    "runner, make_problem, nx",
    [
        (run_second_order, problem_varcoeff_2nd, 10),
        (run_compact, problem_timecoeff_compact, 10),
        (run_compact, problem_timecoeff_compact, (4, 8, 16)),
    ],
)
@pytest.mark.parametrize("steps", [1, 3])
def test_block_boundaries_do_not_change_the_numbers(
    runner, make_problem, nx, steps, monkeypatch
):
    """The callbacks are sampled once per block of steps.  By default the
    200 steps fit one block; blocks of 1 and 3 steps must give every layer
    and the recorded source norm bitwise."""
    _assert_blocks_do_not_change_the_numbers(
        runner, make_problem, (0.5,), _as_tuple(nx), steps, monkeypatch
    )


def _assert_blocks_do_not_change_the_numbers(
    runner, make_problem, alphas, nxs, steps, monkeypatch
):
    orders = tuple(FractionalOrder(alpha) for alpha in alphas)
    problems = tuple(make_problem(order) for order in orders)
    assert schemes._CHUNK_BYTES // (8 * len(orders) * _nodes(nxs)) >= 200
    default = runner(problems, orders, nxs, 200)
    with monkeypatch.context() as patch:
        _block_length(patch, nxs, steps, len(orders))
        blocked = runner(problems, orders, nxs, 200)
    for ours, theirs in zip(sum(blocked, ()), sum(default, ())):
        assert np.array_equal(ours.values, theirs.values)
        assert ours.source_norm_sq == theirs.source_norm_sq


@pytest.mark.parametrize(
    "runner, make_problem",
    [(run_second_order, problem_varcoeff_2nd), (run_compact, problem_timecoeff_compact)],
)
@pytest.mark.parametrize("steps", [1, 3])
def test_block_boundaries_do_not_change_merged_runs(runner, make_problem, steps, monkeypatch):
    """The same with three orders on two grids: each order samples its own
    callbacks once per block."""
    _assert_blocks_do_not_change_the_numbers(
        runner, make_problem, (0.5, 0.2, 0.9), (4, 8), steps, monkeypatch
    )


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_diffusivity_guard_names_the_step_in_a_later_block(runner, monkeypatch):
    """In blocks of 3 steps the first diffusivity below c1 (step 5) lies in
    the second block; it is reported with that step's time."""
    order = FractionalOrder(0.5)
    k_time = _late_switch(1.0, 0.5)
    problem = dataclasses.replace(
        _constant_problem(1.0),
        k=lambda x, t: k_time(t) * np.ones_like(np.asarray(x, dtype=float)),
        k_time=k_time,
    )
    _block_length(monkeypatch, 8, 3)
    with pytest.raises(
        ValueError,
        match=r"^diffusivity sampled at t=0\.71875 has minimum 0\.5, "
        r"below the declared floor c1=1\.0$",
    ):
        _one(runner, problem, order, 8, 8)


def _wide_cell_problem():
    """Unit diffusivity on a domain of length 20 over a horizon of 100:
    every diagonal entry of the systems stays below one."""
    return ProblemSpec(
        k=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        q=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        u0=lambda x: np.sin(np.pi * np.asarray(x, dtype=float) / 20.0),
        length=20.0,
        horizon=100.0,
        c1=1.0,
        k_time=lambda t: 1.0,
        q_time=lambda t: 0.0,
    )


def _smallest_pivot_and_diagonal(monkeypatch, runner, *args):
    """The smallest factored pivot and the smallest diagonal entry, in
    magnitude, over every system a run solves."""
    smallest = {"pivot": np.inf, "diag": np.inf}
    solve = schemes._solve_core

    def spy(sub, diag, sup, rhs):
        smallest["diag"] = min(smallest["diag"], float(np.abs(diag).min()))
        solution = solve(sub, diag, sup, rhs)
        smallest["pivot"] = min(smallest["pivot"], float(np.abs(diag).min()))
        return solution

    with monkeypatch.context() as patch:
        patch.setattr(schemes, "_solve_core", spy)
        runner(*args)
    return smallest["pivot"], smallest["diag"]


@pytest.mark.parametrize(
    "runner, nx, steps",
    [
        (run_second_order, 8, None),
        (run_compact, (4, 8, 16), None),
        (run_compact, (4, 8, 16), 1),
    ],
)
def test_pivot_check_reads_the_factored_pivots_of_a_run(runner, nx, steps, monkeypatch):
    """A pivot floor above the smallest pivot of the U factor but below
    every diagonal entry (the identity rows' 1 included) trips only a check
    of the factored pivots, which the march runs once per block."""
    args = ((_wide_cell_problem(),), (FractionalOrder(0.5),), _as_tuple(nx), 6)
    if steps is not None:
        _block_length(monkeypatch, nx, steps)
    pivot, diag = _smallest_pivot_and_diagonal(monkeypatch, runner, *args)
    floor = 0.5 * (pivot + diag)
    assert pivot < floor < diag <= 1.0
    monkeypatch.setattr(tridiag, "_PIVOT_FLOOR", floor)
    with pytest.raises(SingularSystemError) as excinfo:
        runner(*args)
    assert 0.0 < excinfo.value.pivot <= floor


#: Functions written for a scalar ``t``, all >= 1: a ``math`` call and a
#: branch.
_SCALAR_ONLY = {
    "math": lambda t: math.exp(t),
    "branch": lambda t: 1.0 if t > 0.5 else 2.0,
}


@pytest.mark.parametrize(
    "runner, name",
    [(run_second_order, name) for name in ("k", "q", "f")]
    + [(run_compact, name) for name in ("k_time", "q_time", "f")],
)
@pytest.mark.parametrize("style", sorted(_SCALAR_ONLY))
def test_callbacks_that_do_not_broadcast_are_rejected(runner, name, style):
    order = FractionalOrder(0.5)
    g = _SCALAR_ONLY[style]
    if name.endswith("_time"):
        callback, signature = g, "(t)"
    else:
        callback, signature = (lambda x, t: g(t) + 0.0 * x), "(x, t)"
    problem = dataclasses.replace(_constant_problem(1.0), **{name: callback})
    message = f"{name}{signature} must broadcast over an array of times t"
    # nt = 1 samples a block of one step, where a size-one t passes a branch.
    for nt in (4, 1):
        with pytest.raises(ValueError, match=re.escape(message)):
            _one(runner, problem, order, 8, nt)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_constant_callbacks_are_broadcast(runner):
    """A callback that returns a plain number serves every node and time."""
    order = FractionalOrder(0.5)
    constant = dataclasses.replace(
        _constant_problem(1.0),
        k=lambda x, t: 1.0,
        q=lambda x, t: 0.0,
        f=lambda x, t: 0.0,
        k_time=lambda t: 1.0,
        q_time=lambda t: 0.0,
    )
    ours = _one(runner, constant, order, 8, 6)
    theirs = _one(runner, _constant_problem(1.0), order, 8, 6)
    assert np.array_equal(ours.values, theirs.values)
    assert ours.source_norm_sq == theirs.source_norm_sq == 0.0


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
@pytest.mark.parametrize("nx", [[4, 8], 8.0, (4, 8.0), True])
def test_runs_reject_sizes_that_are_neither_int_nor_tuple(runner, nx):
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError, match="nxs must be a tuple of ints"):
        runner((_constant_problem(1.0),), (order,), nx, 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_runs_take_the_grids_as_a_nonempty_tuple(runner):
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError, match="nxs must be a tuple of ints, got 8"):
        runner((_constant_problem(1.0),), (order,), 8, 4)
    with pytest.raises(ValueError, match="nxs must name at least one grid"):
        runner((_constant_problem(1.0),), (order,), (), 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
@pytest.mark.parametrize("nt", [4.0, 4.5, True, "4"])
def test_runs_reject_step_counts_that_are_not_int(runner, nt):
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError, match="nt must be an int"):
        _one(runner, _constant_problem(1.0), order, 8, nt)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_non_finite_layer_is_rejected(runner):
    """A source that turns NaN from t = 0.5 on poisons layer 3 (t = 0.75) of a
    four-step run first; the run must fail naming that layer."""
    order = FractionalOrder(0.5)

    def f(x, t):
        return np.where(t > 0.5, np.nan, 0.0)

    with pytest.raises(ValueError, match=r"layer 3 \(t=0\.75\)"):
        _one(runner, _constant_problem(1.0, f), order, 8, 4)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
def test_non_finite_layer_is_rejected_past_fft_blocks(runner, monkeypatch):
    """At nt = 512 the NaN source from t = 0.5 on enters FFT blocks; the run
    must name the same first bad layer (257) as the direct contraction."""
    order = FractionalOrder(0.5)

    def f(x, t):
        return np.where(t > 0.5, np.nan, 0.0)

    problem = _constant_problem(1.0, f)
    with pytest.raises(ValueError, match=r"layer 257 ") as fast:
        _one(runner, problem, order, 8, 512)
    with pytest.raises(ValueError) as direct:
        _direct_run(monkeypatch, _one, runner, problem, order, 8, 512)
    assert str(fast.value) == str(direct.value)


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


@pytest.mark.parametrize(
    "field, name",
    [("length", "domain length"), ("horizon", "time horizon"), ("c1", "c1")],
)
def test_problem_spec_rejects_infinite_data_by_name(field, name):
    """An infinite length, horizon or floor would otherwise surface later as
    a NaN diffusivity minimum."""
    data = {"length": 1.0, "horizon": 1.0, "c1": 1.0, field: math.inf}

    def zero(x, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
        ProblemSpec(k=zero, q=zero, f=zero, u0=lambda x: x, **data)


@pytest.mark.parametrize("runner", [run_second_order, run_compact])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_initial_profile_is_rejected_by_name(runner, value):
    """A NaN or inf inside ``u0`` would otherwise pass the endpoint check and
    surface as a non-finite layer 1."""
    order = FractionalOrder(0.5)
    problem = dataclasses.replace(
        _constant_problem(1.0),
        u0=lambda x: np.where(np.isclose(x, 0.5), value, np.sin(np.pi * x)),
    )
    with pytest.raises(ValueError, match=r"initial profile u0 must be finite"):
        _one(runner, problem, order, 8, 4)


@pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-12])
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
    spike_value = 3.0
    series = np.zeros(7)
    series[-1] = spike_value
    probe = energy_inequality_probe(order, 0.1, series)
    j = series.size - 2
    g_new = float(weights(order, j, 0.1)[0])
    energy_scale = g_new * spike_value**2
    assert abs(probe.newest[j]) <= 1e-14 * energy_scale
    assert probe.previous[j] > 0.0
    assert probe.blended[j] == pytest.approx(
        (order.sigma - 0.5) * energy_scale, rel=1e-12
    )


def test_energy_probe_random_series_nonnegative():
    """Random series at a mid-range order and at both extreme orders."""
    rng = np.random.default_rng(42)
    for alpha in (0.7, 1e-9, 1.0 - 1e-12):
        order = FractionalOrder(alpha)
        for _ in range(20):
            series = rng.standard_normal(16)
            probe = energy_inequality_probe(order, 0.05, series)
            tol = 1e-12 * np.maximum(1.0, probe.term_scale)
            assert np.all(probe.newest >= -tol)
            assert np.all(probe.previous >= -tol)
            assert np.all(probe.blended >= -tol)


def test_energy_probe_validation():
    with pytest.raises(ValueError):
        energy_inequality_probe(FractionalOrder(0.5), 0.1, [1.0])


def test_provider_validation():
    """The probe's step size must be positive."""
    order = FractionalOrder(0.5)
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="step size"):
            energy_inequality_probe(order, tau, [0.0, 1.0])


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
    history = _one(runner, problem, order, 16, 16)
    lhs, rhs = a_priori_bound(problem, order, history)
    assert lhs <= rhs


def _resampled_a_priori_bound(problem, order, history, scheme):
    """The a priori estimate with the source sampled afresh at every
    collocation time, as the scheme's assembler forms it."""
    grid = history.grid
    x = grid.nodes()
    tau = float(history.times[1] - history.times[0])
    alpha = order.alpha
    values = history.values
    if scheme == "compact":
        transformed = (values[:, :-2] + 10.0 * values[:, 1:-1] + values[:, 2:]) / 12.0
        const = problem.length**2 * math.gamma(1.0 - alpha) / problem.c1
    else:
        transformed = values[:, 1:-1]
        const = problem.length**2 * math.gamma(1.0 - alpha) / (4.0 * problem.c1)
    const *= float(history.times[-1]) ** alpha
    norms_sq = grid.h * np.sum(transformed * transformed, axis=1)
    source_sq = 0.0
    for j in range(len(history) - 1):
        phi = problem.f(x, (j + order.sigma) * tau)
        phi_t = (phi[:-2] + 10.0 * phi[1:-1] + phi[2:]) / 12.0 if scheme == "compact" else phi[1:-1]
        source_sq = max(source_sq, grid.h * float(np.dot(phi_t, phi_t)))
    return float(norms_sq.max()), float(norms_sq[0] + const * source_sq)


@pytest.mark.parametrize(
    "scheme,runner", [("second", run_second_order), ("compact", run_compact)]
)
def test_a_priori_bound_reuses_the_recorded_source(scheme, runner):
    """The bound reads the source norm the run recorded: it equals the
    estimate with the source resampled, and it never calls ``f``."""
    order = FractionalOrder(0.3)
    base = (
        problem_varcoeff_2nd(order)
        if scheme == "second"
        else problem_timecoeff_compact(order)
    )
    calls = []

    def counting_f(x, t):
        calls.append(t)
        return base.f(x, t)

    problem = dataclasses.replace(base, f=counting_f)
    histories = (_one(runner, problem, order, 12, 20),)
    histories += runner((problem,), (order,), (6, 9), 20)[0]
    for history in histories:
        expected = _resampled_a_priori_bound(base, order, history, scheme)
        calls.clear()
        lhs, rhs = a_priori_bound(problem, order, history)
        assert calls == []
        assert lhs == pytest.approx(expected[0], rel=1e-12)
        assert rhs == pytest.approx(expected[1], rel=1e-12)


def _whole_history_bound(problem, order, history):
    """The a priori bound with the layer norms summed over the whole history
    at once."""
    alpha = order.alpha
    values = history.values
    if history.scheme == "compact":
        transformed = schemes._mass_average(values)
        const = problem.length**2 * float(history.times[-1]) ** alpha * math.gamma(1.0 - alpha) / problem.c1
    else:
        transformed = values[:, 1:-1]
        const = (
            problem.length**2 * float(history.times[-1]) ** alpha * math.gamma(1.0 - alpha) / (4.0 * problem.c1)
        )
    norms_sq = history.grid.h * np.sum(transformed * transformed, axis=1)
    return float(norms_sq.max()), float(norms_sq[0] + const * history.source_norm_sq)


@pytest.mark.parametrize(
    "scheme,runner", [("second", run_second_order), ("compact", run_compact)]
)
@pytest.mark.parametrize("block_bytes", [None, 8 * 10 * 7])
def test_a_priori_bound_does_not_depend_on_the_block_of_layers(
    monkeypatch, scheme, runner, block_bytes
):
    """Summing the layer norms over blocks of layers gives the bitwise
    bound of whole-history sums, on one-order runs and on the slabs of a
    merged run."""
    orders = (FractionalOrder(0.3), FractionalOrder(0.8))
    make = problem_varcoeff_2nd if scheme == "second" else problem_timecoeff_compact
    problems = tuple(make(order) for order in orders)
    runs = [(problems[0], orders[0], _one(runner, problems[0], orders[0], 9, 40))]
    merged = runner(problems, orders, (6, 9), 40)
    runs += [
        (problem, order, history)
        for problem, order, row in zip(problems, orders, merged)
        for history in row
    ]
    if block_bytes is not None:
        monkeypatch.setattr(schemes, "_BLOCK_BYTES", block_bytes)
    for problem, order, history in runs:
        assert a_priori_bound(problem, order, history) == _whole_history_bound(
            problem, order, history
        )


@pytest.mark.parametrize("scheme", ["second", "compact"])
def test_a_priori_bound_stays_near_its_layer_array(scheme):
    """The bound sums blocks of layers; it makes no copy of the history."""
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    grid = SpaceGrid(511, 1.0)
    values = np.random.default_rng(11).standard_normal((4000, 512))
    history = SolutionHistory(
        grid, values, np.linspace(0.0, 1.0, 4000), source_norm_sq=1.0, scheme=scheme
    )
    tracemalloc.start()
    try:
        a_priori_bound(problem, order, history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes


def test_a_priori_bound_needs_a_recorded_source_norm():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    run = _one(run_second_order, problem, order, 8, 4)
    hand_built = SolutionHistory(run.grid, run.values, run.times)
    with pytest.raises(ValueError, match="source norm"):
        a_priori_bound(problem, order, hand_built)


def test_a_priori_bound_rejects_unknown_scheme():
    order = FractionalOrder(0.5)
    problem = problem_varcoeff_2nd(order)
    run = _one(run_second_order, problem, order, 8, 4)
    hand_built = SolutionHistory(
        run.grid, run.values, run.times, source_norm_sq=1.0, scheme="bogus"
    )
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        a_priori_bound(problem, order, hand_built)

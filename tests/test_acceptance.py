"""Acceptance gate: one test per required capability.

Each test prints a single ``[C..] PASS/FAIL`` line (visible with ``-s`` or on
failure) and asserts the criterion at its stated tolerance.  Expensive table
runs are shared through a module-scoped cache.
"""

import math
import time

import numpy as np
import pytest

from oracles import caputo_reference
from reference_tables import (
    TABLE1,
    TABLE2,
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    TABLE7,
)
from subdiff.harness import monomial_error, run_study, study_plan
from subdiff.kernels import (
    L1,
    FractionalOrder,
    audit_weight_family,
    energy_inequality_probe,
    weights,
)
from subdiff.problems import get_problem
from subdiff.schemes import (
    ProblemSpec,
    a_priori_bound,
    run_compact,
    run_second_order,
)
from subdiff.tridiag import _check_pivots, _solve_core

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def table_runs():
    """Lazy shared cache: table number -> (report, wall seconds)."""
    cache = {}

    def get(table: int):
        if table not in cache:
            start = time.perf_counter()
            report = run_study(study_plan(table))
            cache[table] = (report, time.perf_counter() - start)
        return cache[table]

    return get


def _finish(label: str, violations: list, detail: str = "") -> None:
    status = "PASS" if not violations else f"FAIL ({len(violations)} violations)"
    print(f"[{label}] {status}{' — ' + detail if detail else ''}")
    if violations:
        head = "; ".join(violations[:8])
        tail = f" … and {len(violations) - 8} more" if len(violations) > 8 else ""
        pytest.fail(f"{label}: {head}{tail}")


def _check_rows(report, reference, alphas, err_tol, co_tol, check_l2=True):
    """Compare report rows against a reference table block by block."""
    violations = []
    per_alpha = len(report.rows) // len(alphas)
    for a_index, alpha in enumerate(alphas):
        rows = report.rows[a_index * per_alpha : (a_index + 1) * per_alpha]
        for row, ref in zip(rows, reference[alpha]):
            if check_l2:
                level_param, ref_l2, ref_co_l2, ref_sup, ref_co_sup = ref
                pairs = [
                    ("l2max", row.err_l2max, ref_l2, row.co_l2max, ref_co_l2),
                    ("sup", row.err_sup, ref_sup, row.co_sup, ref_co_sup),
                ]
            else:
                level_param, ref_sup, ref_co_sup = ref
                pairs = [("sup", row.err_sup, ref_sup, row.co_sup, ref_co_sup)]
            where = f"alpha={alpha:g} level=1/{level_param}"
            for norm, mine_err, ref_err, mine_co, ref_co in pairs:
                rel = abs(mine_err - ref_err) / ref_err
                if rel > err_tol:
                    violations.append(
                        f"{where} {norm}: {mine_err:.4e} vs {ref_err:.4e} "
                        f"({rel * 100:.2f}% > {err_tol * 100:g}%)"
                    )
                if ref_co is not None and abs(mine_co - ref_co) > co_tol:
                    violations.append(
                        f"{where} co_{norm}: {mine_co:.4f} vs {ref_co:.4f} "
                        f"(|diff| > {co_tol:g})"
                    )
    return violations


def test_criterion_01_monomial_derivative_regression(table_runs):
    """Errors match the reference column to 0.1% (1% below 1e-9 where
    cancellation dominates); orders within 0.01; under 5 s."""
    report, seconds = table_runs(1)
    plan = study_plan(1)
    violations = []
    for a_index, alpha in enumerate(plan.alphas):
        rows = report.rows[a_index * 10 : (a_index + 1) * 10]
        for row, (m, ref_err, ref_co) in zip(rows, TABLE1[alpha]):
            assert row.nt == m
            tol = 1e-3 if ref_err >= 1e-9 else 1e-2
            rel = abs(row.err_sup - ref_err) / ref_err
            if rel > tol:
                violations.append(
                    f"alpha={alpha:g} m={m}: {row.err_sup:.6e} vs {ref_err:.6e}"
                )
            if ref_co is not None and abs(row.co_sup - ref_co) > 0.01:
                violations.append(
                    f"alpha={alpha:g} m={m} co: {row.co_sup:.4f} vs {ref_co:.2f}"
                )
    if seconds >= 5.0:
        violations.append(f"runtime {seconds:.2f}s >= 5s")
    _finish("C01 monomial-derivative-regression", violations, f"{seconds:.2f}s")


def test_criterion_02_quadratic_exactness():
    """The shifted-collocation operator is exact on {1, t, t^2} at every
    collocation point up to index 200 across the alpha sweep."""
    tau = 1.0 / 200.0
    violations = []
    for step_index in range(1, 20):
        alpha = round(0.05 * step_index, 2)
        order = FractionalOrder(alpha)
        nodes = np.arange(202, dtype=float) * tau
        cases = {
            "const": (np.ones_like(nodes), lambda t: 0.0),
            "linear": (
                nodes.copy(),
                lambda t: t ** (1.0 - alpha) / math.gamma(2.0 - alpha),
            ),
            "quadratic": (
                nodes**2,
                lambda t: 2.0 * t ** (2.0 - alpha) / math.gamma(3.0 - alpha),
            ),
        }
        worst = {name: 0.0 for name in cases}
        magnitude = {name: 0.0 for name in cases}
        for j in range(201):
            g = weights(order, j, tau)[::-1]
            t_target = (j + order.sigma) * tau
            for name, (series, exact_fn) in cases.items():
                exact = exact_fn(t_target)
                approx = g @ np.diff(series[: j + 2])
                worst[name] = max(worst[name], abs(approx - exact))
                magnitude[name] = max(magnitude[name], abs(exact))
        for name in cases:
            denom = max(magnitude[name], 1e-12)
            if worst[name] / denom > 1e-11:
                violations.append(
                    f"alpha={alpha:g} {name}: rel {worst[name] / denom:.2e}"
                )
    _finish("C02 quadratic-exactness", violations)


def test_criterion_03_weight_inequality_sweep():
    """Every provable weight inequality holds with margin > -1e-12 for
    alpha in {0.01..0.99} and indices up to 10^4, in under 10 s."""
    start = time.perf_counter()
    violations = []
    for hundredths in range(1, 100):
        order = FractionalOrder(hundredths / 100.0)
        audit = audit_weight_family(order, 10_000)
        for check in audit.checks:
            if not check.passed:
                violations.append(
                    f"alpha={order.alpha:g} {check.name}: margin {check.margin:.3e}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        violations.append(f"runtime {elapsed:.2f}s >= 10s")
    _finish("C03 weight-inequality-sweep", violations, f"{elapsed:.2f}s")


def test_criterion_04_energy_inequalities_random_series():
    """All three summation-by-parts energy inequalities stay nonnegative on
    a thousand random series."""
    rng = np.random.default_rng(2024)
    violations = []
    for index in range(1000):
        alpha = float(rng.uniform(0.02, 0.98))
        series = rng.standard_normal(52)
        probe = energy_inequality_probe(FractionalOrder(alpha), 0.02, series)
        tol = 1e-12 * np.maximum(1.0, probe.term_scale)
        for name, margins in (
            ("newest", probe.newest),
            ("previous", probe.previous),
            ("blended", probe.blended),
        ):
            deficit = margins + tol
            if np.any(deficit < 0.0):
                j_bad = int(np.argmin(deficit))
                violations.append(
                    f"series {index} alpha={alpha:.3f} {name} j={j_bad}: "
                    f"margin {margins[j_bad]:.3e}"
                )
    _finish("C04 energy-inequalities", violations)


def test_criterion_05_table2_regression(table_runs):
    report, seconds = table_runs(2)
    violations = _check_rows(
        report, TABLE2, study_plan(2).alphas, err_tol=5e-3, co_tol=5e-3
    )
    _finish("C05 table2-regression", violations, f"{seconds:.1f}s")


def test_criterion_06_table3_regression(table_runs):
    report, seconds = table_runs(3)
    violations = _check_rows(
        report, TABLE3, study_plan(3).alphas, err_tol=5e-3, co_tol=0.03
    )
    _finish("C06 table3-regression", violations, f"{seconds:.1f}s")


def test_criterion_07_table4_regression(table_runs):
    report, seconds = table_runs(4)
    violations = _check_rows(
        report, TABLE4, study_plan(4).alphas, err_tol=5e-3, co_tol=5e-3
    )
    _finish("C07 table4-regression", violations, f"{seconds:.1f}s")


def test_criterion_08_table5_regression(table_runs):
    report, seconds = table_runs(5)
    violations = _check_rows(
        report, TABLE5, study_plan(5).alphas, err_tol=1e-2, co_tol=0.01
    )
    _finish("C08 table5-regression", violations, f"{seconds:.1f}s")


def test_criterion_09_table6_regression(table_runs):
    report, seconds = table_runs(6)
    violations = _check_rows(
        report, TABLE6, study_plan(6).alphas, err_tol=1e-2, co_tol=0.01
    )
    _finish("C09 table6-regression", violations, f"{seconds:.1f}s")


def test_criterion_10_table7_regression(table_runs):
    report, seconds = table_runs(7)
    violations = _check_rows(
        report,
        TABLE7,
        study_plan(7).alphas,
        err_tol=1e-2,
        co_tol=0.05,
        check_l2=False,
    )
    _finish("C10 table7-regression", violations, f"{seconds:.1f}s")


def _random_smooth_problem(rng):
    k0 = float(rng.uniform(0.5, 3.0))
    q0 = float(rng.uniform(0.0, 2.0))
    amps = rng.standard_normal(3)
    f_amps = rng.standard_normal(2)

    def u0(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for mode, amp in enumerate(amps, start=1):
            total += amp * np.sin(mode * np.pi * x)
        return total

    def f(x, t):
        x = np.asarray(x, dtype=float)
        return f_amps[0] * np.sin(np.pi * x) * (1.0 + t) + f_amps[1] * np.sin(
            2.0 * np.pi * x
        ) * np.exp(-t)

    return ProblemSpec(
        k=lambda x, t: k0 * np.ones_like(np.asarray(x, dtype=float)),
        q=lambda x, t: q0 * np.ones_like(np.asarray(x, dtype=float)),
        f=f,
        u0=u0,
        length=1.0,
        horizon=1.0,
        c1=k0,
        k_time=lambda t: k0,
        q_time=lambda t: q0,
    )


def test_criterion_11_a_priori_stability(table_runs):
    """The a priori solution bound holds on 100 randomized smooth-data runs
    and on every table run."""
    rng = np.random.default_rng(7)
    violations = []
    for index in range(100):
        alpha = float(rng.uniform(0.05, 0.95))
        order = FractionalOrder(alpha)
        problem = _random_smooth_problem(rng)
        scheme = "second" if index % 2 == 0 else "compact"
        runner = run_second_order if scheme == "second" else run_compact
        history = runner((problem,), (order,), (64,), 64)[0][0]
        lhs, rhs = a_priori_bound(problem, order, history)
        if not lhs <= rhs:
            violations.append(
                f"random run {index} ({scheme}, alpha={alpha:.3f}): "
                f"{lhs:.6e} > {rhs:.6e}"
            )
    for table in range(1, 8):
        report, _ = table_runs(table)
        for row in report.rows:
            if row.apriori_ok is False:
                violations.append(
                    f"table {table} alpha={row.alpha:g} level={row.level}"
                )
    _finish("C11 a-priori-stability", violations)


def test_criterion_12_oracle_cross_checks():
    violations = []

    # (a) tridiagonal solutions vs dense elimination on 10^3 dominant systems
    rng = np.random.default_rng(3)
    for index in range(1000):
        n = int(rng.integers(1, 60))
        sub = rng.uniform(-1.0, 1.0, n)
        sup = rng.uniform(-1.0, 1.0, n)
        sub[0] = 0.0
        sup[-1] = 0.0
        signs = rng.choice([-1.0, 1.0], n)
        diag = signs * (np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 1.5, n))
        rhs = rng.standard_normal(n)
        dense = np.zeros((n, n))
        for i in range(n):
            dense[i, i] = diag[i]
            if i > 0:
                dense[i, i - 1] = sub[i]
            if i < n - 1:
                dense[i, i + 1] = sup[i]
        expected = np.linalg.solve(dense, rhs)
        pivots = diag.copy()
        solution = _solve_core(sub.copy(), pivots, sup.copy(), rhs.copy())
        _check_pivots(pivots)
        gap = np.abs(solution - expected).max()
        if gap > 1e-10 * max(1.0, np.abs(expected).max()):
            violations.append(f"tridiag system {index} (n={n}): gap {gap:.2e}")

    # (b) manufactured residuals at 10^3 random points per problem
    import sympy as sp

    x_sym, t_sym = sp.symbols("x t", positive=True)
    setups = {
        "varcoeff-2nd": (
            sp.sin(sp.pi * x_sym) * (t_sym**3 + 3 * t_sym**2 + 1),
            2 - sp.sin(x_sym * t_sym),
            1 - sp.cos(x_sym * t_sym),
            lambda s: 3.0 * s**2 + 6.0 * s,
        ),
        "timecoeff-compact": (
            t_sym**2 * sp.sin(sp.pi * x_sym),
            sp.exp(t_sym),
            1 - sp.sin(2 * t_sym),
            lambda s: 2.0 * s,
        ),
    }
    order = FractionalOrder(0.5)
    for problem_id, (u_sym, k_sym, q_sym, profile_dt) in setups.items():
        spec = get_problem(problem_id, order).spec
        spatial = sp.lambdify(
            (x_sym, t_sym),
            sp.diff(k_sym * sp.diff(u_sym, x_sym), x_sym) - q_sym * u_sym,
            "numpy",
        )
        points = np.random.default_rng(5).uniform(
            [0.02, 0.02], [0.98, 1.0], size=(1000, 2)
        )
        worst = 0.0
        for xv, tv in points:
            caputo = math.sin(math.pi * xv) * caputo_reference(order, profile_dt, tv)
            residual = abs(caputo - spatial(xv, tv) - spec.f(np.array([xv]), tv)[0])
            worst = max(worst, residual)
        if worst > 1e-10:
            violations.append(f"{problem_id} residual {worst:.2e}")

    # (c) the piecewise-linear baseline shows its 2-alpha order
    for alpha in (0.3, 0.5, 0.8):
        order = FractionalOrder(alpha)
        e1, t1 = monomial_error(order, 256, formula=L1)
        e2, t2 = monomial_error(order, 512, formula=L1)
        observed = math.log(e1 / e2) / math.log(t1 / t2)
        if abs(observed - (2.0 - alpha)) > 0.1:
            violations.append(
                f"l1 order alpha={alpha:g}: {observed:.3f} vs {2.0 - alpha:g}"
            )

    _finish("C12 oracle-cross-checks", violations)

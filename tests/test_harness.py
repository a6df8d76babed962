"""Unit tests for study plans, the study runner, and report emission."""

import math

import numpy as np
import pytest

from subdiff.grids import convergence_order, error_norms
from subdiff.harness import (
    CSV_HEADER,
    ConvergenceReport,
    LevelSpec,
    StudyPlan,
    emit,
    monomial_error,
    run_study,
    study_plan,
)
from subdiff.kernels import L1, L21SIGMA, FractionalOrder, weights
from subdiff.problems import get_problem
from subdiff.schemes import run_compact


def test_study_plan_schedules():
    t1 = study_plan(1)
    assert [level.nt for level in t1.levels] == [10 * 2**k for k in range(10)]
    assert all(level.nx is None for level in t1.levels)

    t2 = study_plan(2)
    assert [(level.nx, level.nt) for level in t2.levels] == [
        (160, 160),
        (320, 320),
        (640, 640),
    ]

    t6 = study_plan(6)
    assert all(level.nt == level.nx**2 for level in t6.levels)

    t7 = study_plan(7)
    assert [level.nt for level in t7.levels] == [10, 30, 90, 270, 810, 2430]
    assert all(level.nx == math.ceil(math.sqrt(level.nt)) for level in t7.levels)
    assert t7.norms == ("sup",)


def test_study_plan_fast_only_affects_table5():
    assert study_plan(5).levels[0].nt == 20000
    assert study_plan(5, fast=True).levels[0].nt == 5000
    assert study_plan(5, fast=True).fast
    assert study_plan(3, fast=True).levels == study_plan(3).levels


@pytest.mark.parametrize("table", [0, 8, -3])
def test_study_plan_rejects_unknown_table(table):
    with pytest.raises(ValueError):
        study_plan(table)


def test_monomial_error_shifted_grid_convention():
    order = FractionalOrder(0.5)
    error, tau = monomial_error(order, 10)
    assert tau == pytest.approx(1.0 / (10 - 1 + order.sigma), rel=1e-15)
    assert error == pytest.approx(3.756950e-3, rel=1e-6)


GAMMA_5P5_OVER_24 = 2.1809490743563967


def test_monomial_error_against_the_closed_form():
    """The monomial is ``t^(4+alpha)`` and its Caputo derivative at ``t = 1``
    is ``Gamma(5+alpha)/24``, frozen here for ``alpha = 0.5``."""
    order = FractionalOrder(0.5)
    for formula in (L21SIGMA, L1):
        error, tau = monomial_error(order, 10, formula)
        u = (np.arange(11) * tau) ** 4.5
        approx = weights(order, 9, tau, formula)[::-1] @ np.diff(u)
        assert error == pytest.approx(abs(approx - GAMMA_5P5_OVER_24), rel=1e-15)


def test_monomial_error_l1_grid_convention():
    order = FractionalOrder(0.5)
    _, tau = monomial_error(order, 10, formula=L1)
    assert tau == pytest.approx(0.1, rel=1e-15)


def test_monomial_error_validation():
    order = FractionalOrder(0.5)
    with pytest.raises(ValueError):
        monomial_error(order, 1)
    with pytest.raises(ValueError):
        monomial_error(order, 10, formula="nope")


def _tiny_pde_plan() -> StudyPlan:
    return StudyPlan(
        table_id="T3",
        problem_id="varcoeff-2nd",
        scheme="second",
        alphas=(0.5,),
        levels=(LevelSpec(nx=12, nt=4), LevelSpec(nx=12, nt=8)),
        norms=("l2max", "sup"),
        co_step="tau",
    )


def test_run_study_fills_orders_and_apriori():
    report = run_study(_tiny_pde_plan())
    assert len(report.rows) == 2
    first, second = report.rows
    assert first.co_l2max is None and first.co_sup is None
    assert second.co_l2max is not None and 1.0 <= second.co_l2max <= 3.0
    assert all(row.apriori_ok for row in report.rows)
    assert all(row.seconds >= 0.0 for row in report.rows)
    assert first.h == pytest.approx(1.0 / 12.0)
    assert first.tau == pytest.approx(0.25)


def _strip_seconds(csv_text: str) -> str:
    return "\n".join(
        ",".join(line.split(",")[:-1]) for line in csv_text.strip().splitlines()
    )


def test_run_study_is_deterministic():
    plan = _tiny_pde_plan()
    first = emit(run_study(plan), "csv")
    second = emit(run_study(plan), "csv")
    assert _strip_seconds(first) == _strip_seconds(second)


def test_levels_sharing_nt_march_together_in_plan_order():
    """Levels 1 and 3 share nt and form one group with both alphas; the
    report keeps plan order and matches one-grid runs."""
    plan = StudyPlan(
        table_id="T5",
        problem_id="timecoeff-compact",
        scheme="compact",
        alphas=(0.3, 0.7),
        levels=(
            LevelSpec(nx=4, nt=40),
            LevelSpec(nx=8, nt=20),
            LevelSpec(nx=16, nt=40),
        ),
        norms=("l2max", "sup"),
        co_step="h",
    )
    report = run_study(plan)
    assert [(row.alpha, row.level, row.nx, row.nt) for row in report.rows] == [
        (alpha, index + 1, level.nx, level.nt)
        for alpha in plan.alphas
        for index, level in enumerate(plan.levels)
    ]
    for row in report.rows:
        order = FractionalOrder(row.alpha)
        problem = get_problem(plan.problem_id, order).spec
        single = run_compact((problem,), (order,), (row.nx,), row.nt)[0][0]
        single = error_norms(single, problem.exact)
        assert row.err_l2max == pytest.approx(single.l2max, rel=1e-13)
        assert row.err_sup == pytest.approx(single.sup, rel=1e-13)
        assert row.apriori_ok


def test_kernel_plan_rows_fill_both_error_columns():
    plan = StudyPlan(
        table_id="T1",
        problem_id="caputo-monomial",
        scheme="kernel",
        alphas=(0.5,),
        levels=(LevelSpec(nx=None, nt=10), LevelSpec(nx=None, nt=20)),
        norms=("l2max", "sup"),
        co_step="tau",
    )
    report = run_study(plan)
    for row in report.rows:
        assert row.h is None
        assert row.err_l2max == row.err_sup
        assert row.apriori_ok is None
    assert report.rows[1].co_sup == pytest.approx(2.33, abs=0.01)


def test_emit_csv_layout():
    report = run_study(_tiny_pde_plan())
    text = emit(report, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first_row = lines[1].split(",")
    assert len(first_row) == 9
    assert first_row[0] == "0.5"
    assert first_row[5] == ""  # first-level CO cell is empty
    float(first_row[4])  # error cells parse as floats


def test_emit_empty_report_is_header_only():
    assert emit(ConvergenceReport("T2", []), "csv") == CSV_HEADER + "\n"


def test_emit_markdown_layout():
    report = run_study(_tiny_pde_plan())
    text = emit(report, "markdown")
    lines = text.strip().splitlines()
    assert lines[0].startswith("### Study")
    assert lines[2].startswith("| alpha |")
    assert len(lines) == 6
    # alpha shown only on the first row of the block
    assert lines[4].split("|")[1].strip() == "0.5"
    assert lines[5].split("|")[1].strip() == ""


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(ConvergenceReport("T1", []), "yaml")


def test_order_from_rounded_errors_matches_full_precision():
    """Guards the CSV rounding policy: recomputing the observed order from
    the emitted 6-significant-digit errors must agree to 1e-3."""
    plan = _tiny_pde_plan()
    report = run_study(plan)
    text = emit(report, "csv")
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    rounded = [(float(r[3]), float(r[4])) for r in rows]
    rounded_orders = convergence_order(rounded)
    full_orders = [row.co_l2max for row in report.rows[1:]]
    for rounded_co, full_co in zip(rounded_orders, full_orders):
        assert rounded_co == pytest.approx(full_co, abs=1e-3)


def test_single_level_plan_leaves_orders_empty():
    plan = StudyPlan(
        table_id="T3",
        problem_id="varcoeff-2nd",
        scheme="second",
        alphas=(0.5,),
        levels=(LevelSpec(nx=8, nt=4),),
        norms=("l2max", "sup"),
        co_step="tau",
    )
    report = run_study(plan)
    assert len(report.rows) == 1
    assert report.rows[0].co_l2max is None


def test_study_leaves_the_order_of_a_zero_error_empty():
    """At alpha = 1e-17 the monomial's error is exactly zero on every
    level, which has no logarithm: its order cells stay empty, and the
    other alpha's orders are filled as before."""
    levels = tuple(LevelSpec(nx=None, nt=nt) for nt in (10, 20, 40))
    plan = StudyPlan(
        table_id="T1",
        problem_id="caputo-monomial",
        scheme="kernel",
        alphas=(1e-17, 0.5),
        levels=levels,
        norms=("l2max", "sup"),
        co_step="tau",
    )
    report = run_study(plan)
    rows = report.rows
    assert [row.err_sup for row in rows[:3]] == [0.0, 0.0, 0.0]
    assert all(row.co_l2max is None and row.co_sup is None for row in rows[:3])
    errors = [(row.tau, row.err_sup) for row in rows[3:]]
    assert [row.co_sup for row in rows[4:]] == convergence_order(errors)
    assert ",,0.00000e+00,," in emit(report, "csv")

"""End-to-end tests of the command-line interface (in-process)."""

import pytest

from subdiff.cli import main
from subdiff.grids import convergence_order
from subdiff.harness import CSV_HEADER, ConvergenceReport, ReportRow, monomial_error
from subdiff.kernels import L1, L21SIGMA, FractionalOrder


def test_caputo_single_m(capsys):
    assert main(["caputo", "--alpha", "0.5", "--m", "10"]) == 0
    out = capsys.readouterr().out
    assert "m=10" in out
    expected, _ = monomial_error(FractionalOrder(0.5), 10)
    printed = float(out.split("error=")[1].split()[0])
    assert printed == pytest.approx(expected, rel=1e-6)
    assert "co=" not in out


def _assert_caputo_prints_the_library_numbers(lines, formula):
    """Each line of ``caputo --alpha 0.5 --m 10,20,40`` holds the error of
    :func:`monomial_error` and the observed order of it and the line before."""
    order = FractionalOrder(0.5)
    results = [monomial_error(order, m, formula) for m in (10, 20, 40)]
    assert len(lines) == len(results)
    for index, (line, (error, tau)) in enumerate(zip(lines, results)):
        fields = dict(field.split("=") for field in line.split())
        assert float(fields["error"]) == pytest.approx(error, rel=1e-6)
        if index:
            coarse_error, coarse_tau = results[index - 1]
            (co,) = convergence_order([(coarse_tau, coarse_error), (tau, error)])
            assert fields["co"] == f"{co:.4f}"
        else:
            assert "co" not in fields


def test_caputo_multiple_m_reports_orders(capsys):
    assert main(["caputo", "--alpha", "0.5", "--m", "10,20,40"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert "co=" not in lines[0]
    assert "co=2.33" in lines[1]
    assert "co=2.38" in lines[2]
    _assert_caputo_prints_the_library_numbers(lines, L21SIGMA)


def test_caputo_reports_undefined_order_for_zero_error(capsys):
    """At alpha = 1e-17 the discrete derivative is exact and every error is
    0.0: the order has no logarithm and is reported in words."""
    assert main(["caputo", "--alpha", "1e-17", "--m", "10,20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "error=0.000000e+00" in lines[0] and "co=" not in lines[0]
    assert lines[1].endswith("error=0.000000e+00 co=undefined (zero error)")


def test_caputo_l1_formula(capsys):
    argv = ["caputo", "--alpha", "0.5", "--m", "10,20,40", "--formula", "l1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    _assert_caputo_prints_the_library_numbers(lines, L1)


@pytest.mark.parametrize(
    "argv",
    [
        ["caputo", "--alpha", "1.5", "--m", "10"],
        ["caputo", "--alpha", "0.5", "--m", "1"],
        ["caputo", "--alpha", "0.5", "--m", "abc"],
        ["caputo", "--alpha", "0.5", "--m", "10", "--formula", "nope"],
        ["caputo", "--alpha", "0.5", "--m", "10", "--function", "monomial"],
    ],
)
def test_caputo_usage_errors(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("m", ["20,10", "10,10", "10,40,20"])
def test_caputo_rejects_step_counts_that_do_not_increase(m, capsys):
    assert main(["caputo", "--alpha", "0.5", "--m", m]) == 2
    assert "--m expects strictly increasing step counts" in capsys.readouterr().err


def test_solve_prints_error_norms(capsys):
    code = main(
        [
            "solve",
            "--problem",
            "varcoeff-2nd",
            "--alpha",
            "0.5",
            "--nx",
            "8",
            "--nt",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "err_l2max=" in out and "err_sup=" in out


def test_solve_writes_final_layer(tmp_path, capsys):
    out_path = tmp_path / "layer.csv"
    code = main(
        [
            "solve",
            "--problem",
            "timecoeff-compact",
            "--alpha",
            "0.5",
            "--nx",
            "8",
            "--nt",
            "4",
            "--scheme",
            "compact",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 10  # header + nx+1 nodes
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "varcoeff-2nd", "--alpha", "0.5", "--nx", "8", "--nt", "4"],
        ["study", "--table", "1"],
    ],
    ids=["solve", "study"],
)
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    """A report that cannot be written exits 2 and names the path; exit 1
    stays reserved for failed assertions and audits."""
    out_path = tmp_path / "missing" / "report.csv"
    assert main([*argv, "--out", str(out_path)]) == 2
    assert f"cannot write --out {str(out_path)!r}" in capsys.readouterr().err
    assert not out_path.exists()


def test_solve_scheme_mismatch_is_usage_error(capsys):
    code = main(
        [
            "solve",
            "--problem",
            "varcoeff-2nd",
            "--alpha",
            "0.5",
            "--nx",
            "8",
            "--nt",
            "4",
            "--scheme",
            "compact",
        ]
    )
    assert code == 2
    assert "time-only" in capsys.readouterr().err


def test_solve_rejects_unknown_problem(capsys):
    code = main(
        ["solve", "--problem", "nope", "--alpha", "0.5", "--nx", "8", "--nt", "4"]
    )
    assert code == 2
    capsys.readouterr()


def test_solve_rejects_kernel_case(capsys):
    """The Caputo study's monomial is not a registered problem: ``solve``
    rejects its id as unknown (exit 2); ``caputo`` runs it."""
    code = main(
        [
            "solve",
            "--problem",
            "caputo-monomial",
            "--alpha",
            "0.5",
            "--nx",
            "8",
            "--nt",
            "4",
        ]
    )
    assert code == 2
    assert "unknown problem id 'caputo-monomial'" in capsys.readouterr().err


@pytest.mark.parametrize("nx", ["1", "0"])
def test_solve_rejects_too_few_intervals(nx, capsys):
    code = main(
        ["solve", "--problem", "varcoeff-2nd", "--alpha", "0.5", "--nx", nx, "--nt", "4"]
    )
    assert code == 2
    assert f"need --nx >= 2 and --nt >= 1, got nx={nx} nt=4" in capsys.readouterr().err


def test_study5_fast_fails_an_order_outside_the_window(monkeypatch, capsys):
    """``study --table 5 --fast`` checks the fourth order in space: an
    observed order outside [3.9, 4.1] fails the command (exit 1) after the
    report is printed, and an order inside passes."""

    def run_study(plan):
        cell = dict(alpha=0.5, nx=8, nt=5000, h=0.125, tau=2e-4, err_l2max=1e-5,
                    err_sup=1e-5, apriori_ok=True)
        rows = [
            ReportRow(level=1, co_l2max=None, co_sup=None, **cell),
            ReportRow(level=2, co_l2max=4.0, co_sup=3.5, **cell),
        ]
        return ConvergenceReport(plan.table_id, rows)

    monkeypatch.setattr("subdiff.cli.run_study", run_study)
    assert main(["study", "--table", "5", "--fast"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(CSV_HEADER)
    assert captured.err.splitlines() == [
        "assertion failed: observed order 3.5000 outside [3.9, 4.1] at alpha=0.5 level=2"
    ]


def test_study_table1_emits_csv(capsys):
    assert main(["study", "--table", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 10  # three alphas, ten levels each


def test_study_threads_accepts_only_one(capsys):
    """Studies run on one thread: ``--threads 1`` prints the report of no
    flag, and any other count is a usage error."""
    assert main(["study", "--table", "1", "--threads", "2"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    reports = []
    for extra in ([], ["--threads", "1"]):
        assert main(["study", "--table", "1", *extra]) == 0
        out = capsys.readouterr().out
        reports.append(out)
    assert reports[0] == reports[1]


def test_study_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main(
        ["study", "--table", "3", "--out", str(out_path)]
    )
    assert code == 0
    assert "report written" in capsys.readouterr().out
    assert out_path.read_text().startswith("alpha,level,")


def test_study_markdown_format(capsys):
    code = main(["study", "--table", "1", "--format", "markdown"])
    assert code == 0
    assert capsys.readouterr().out.startswith("### Study T1")


def test_study_rejects_bad_table(capsys):
    assert main(["study", "--table", "9"]) == 2
    capsys.readouterr()


def test_audit_passes(capsys):
    assert main(["audit", "--alpha", "0.5", "--jmax", "1000"]) == 0
    out = capsys.readouterr().out
    assert "positivity: PASS" in out
    assert "overall: PASS" in out
    assert "FAIL" not in out


def test_audit_l1_weights(capsys):
    assert main(["audit", "--alpha", "0.5", "--weights", "l1", "--jmax", "100"]) == 0
    out = capsys.readouterr().out
    assert "monotone_decrease: PASS" in out


def test_audit_prints_the_order_unrounded(capsys):
    """An order just below 1 is printed as given, not rounded to 1."""
    assert main(["audit", "--alpha", "0.999999999999", "--jmax", "10"]) == 0
    assert "alpha=0.999999999999," in capsys.readouterr().out


def test_audit_trivial_jmax_zero(capsys):
    assert main(["audit", "--alpha", "0.5", "--jmax", "0"]) == 0
    capsys.readouterr()


def test_audit_usage_errors(capsys):
    assert main(["audit", "--alpha", "1.2"]) == 2
    assert main(["audit", "--alpha", "0.5", "--jmax", "-1"]) == 2
    capsys.readouterr()


def test_help_and_unknown_subcommand(capsys):
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()

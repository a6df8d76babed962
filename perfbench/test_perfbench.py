"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    OutputLedger,
    count_failures,
    run_command,
    run_pass,
    single_threaded,
    study_deviations,
)

REFERENCES = run._load_references()


def _reference_csv(table: int) -> str:
    """A study report, in the CSV layout of ``subdiff study``, whose error
    cells are exactly the reference values."""
    lines = ["alpha,level,h,tau,err_l2max,co_l2max,err_sup,co_sup,seconds"]
    for alpha, block in REFERENCES[table].items():
        for level, ref in enumerate(block, start=1):
            l2, sup = (ref[1], ref[3]) if len(ref) == 5 else (ref[1], ref[1])
            lines.append(f"{alpha:g},{level},,,{l2!r},,{sup!r},,0.001")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("table", [1, 2, 3, 5, 7])
def test_ref_dev_is_zero_on_reference_rows(table):
    argv = ("study", "--table", str(table))
    deviations = study_deviations(argv, _reference_csv(table), REFERENCES)
    assert deviations and max(dev for _, dev in deviations) == 0.0


def test_missing_reference_cell_is_an_error():
    text = _reference_csv(2)
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    with pytest.raises(ValueError):
        study_deviations(("study", "--table", "2"), truncated, REFERENCES)


def _fake_main(behaviour):
    def main(argv):
        if behaviour == "raise":
            raise RuntimeError("boom")
        if behaviour == "nan":
            print("positivity: PASS (worst margin nan)")
            print("overall: PASS (alpha=0.5, jmax=1, weights=l1)")
            return 0
        verdict = "PASS" if behaviour == "ok" else "FAIL"
        print(f"overall: {verdict} (alpha=0.5, jmax=1, weights=l1)")
        return 0 if behaviour == "ok" else 1

    return main


@pytest.mark.parametrize("behaviour", ["raise", "exit1", "nan"])
def test_failing_command_raises_fail_frac(behaviour):
    argv = ("audit", "--alpha", "0.5")
    ok = [run_command(_fake_main("ok"), argv) for _ in range(3)]
    bad = run_command(_fake_main(behaviour), argv)
    assert count_failures(ok) == (3, 0)
    assert count_failures(ok + [bad]) == (4, 1)
    ledger = OutputLedger(REFERENCES)
    ledger.add([bad])
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_known_audit_defect_counts_as_failure_not_wrong_output():
    """``audit --alpha 1e-9 --weights l1`` reports FAIL at large jmax because
    the L1 weights lose precision to cancellation; the benchmark counts it."""
    import subdiff.cli

    argv = ("audit", "--alpha", "1e-9", "--jmax", "20000", "--weights", "l1")
    ledger = OutputLedger(REFERENCES)
    ledger.add([run_command(subdiff.cli.main, argv)])
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert ledger.correct


def test_output_change_between_passes_is_incorrect():
    argv = ("audit", "--alpha", "0.5")
    ledger = OutputLedger(REFERENCES)
    ledger.add([run_command(_fake_main("ok"), argv)])
    ledger.add([run_command(_fake_main("exit1"), argv)])
    assert not ledger.correct


def test_hooks_restore_original_functions():
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.HOOKS
    }
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.hooked(tracer):
            for (module, attr), original in originals.items():
                assert getattr(importlib.import_module(module), attr) is not original
            raise RuntimeError("leave the block early")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    assert tracer.unhooked == []


def test_missing_name_is_reported_unhooked(monkeypatch):
    renamed = ("subdiff.schemes", "no_such_name", "tridiag.solve", None)
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (renamed,))
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        pass
    assert tracer.unhooked == ["subdiff.schemes.no_such_name"]
    assert tracing.layer_metrics(tracer)["trace.unhooked"] == 1


def test_self_times_add_up_to_traced_wall_time():
    import subdiff.cli

    commands = [
        single_threaded(("study", "--table", str(table))) for table in (1, 3, 4)
    ] + [("audit", "--alpha", "0.5", "--jmax", "1000")]
    tracer = tracing.Tracer()
    with tracing.hooked(tracer):
        wall, outcomes = run_pass(tracer.wrap(tracing.ROOT, subdiff.cli.main), commands)
    assert count_failures(outcomes) == (len(commands), 0)
    own = tracer.self_times()
    roots = [end - start for _, start, end, parent, _ in tracer.spans if parent < 0]
    assert len(roots) == len(commands)
    assert min(own) >= 0
    assert sum(own) == sum(roots)
    assert sum(own) * 1e-9 == pytest.approx(wall, rel=0.02)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["tridiag.calls"] == metrics["schemes.steps"] > 0
    assert metrics["problems.calls"] > 0 and metrics["kernels.table_entries"] > 0


def test_scipy_import_time_parses_outermost_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |       scipy.special._x",
        "import time:         7 |         12 |     scipy.special",
        "import time:         3 |         15 |   scipy.integrate",
        "import time:       100 |        200 | subdiff.kernels",
    ])
    assert run.scipy_import_seconds(log) == pytest.approx(45e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((run.REPO / "BENCHMARK.json").read_text())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout


def test_result_line_shape():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "second-varcoef", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=run.REPO, capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}


def _benchmark_json() -> dict:
    return json.loads((run.REPO / "BENCHMARK.json").read_text())

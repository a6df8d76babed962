"""Benchmark of the subdiff command line, end to end and layer by layer.

Run from the root of a subdiff checkout:

    python3 perfbench/run.py --workload second-varcoef --seed 1 --seconds 20 --trace 0

``--trace 0`` times warm passes of the workload's commands through
``subdiff.cli.main`` (CLI defaults, so ``study`` uses its thread pool), times
fresh-interpreter imports of ``subdiff.cli``, and prints the end-to-end
metrics.  ``--trace 1`` runs rounds of three passes with ``--threads 1``
(untraced, traced, and again untraced with the default pool) and prints the
per-layer metrics.  Each command's output is checked against the reference
tables in ``tests/reference_tables.py`` and against its output on the first
pass.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT as ROOT_SPAN
from tracing import Tracer, hooked, layer_metrics
from workloads import WORKLOADS, OutputLedger, pass_order, run_pass, single_threaded

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
REFERENCES = REPO / "tests" / "reference_tables.py"

#: Fresh interpreters timed for ``setup_s``, after one untimed import that
#: leaves the byte-code cache warm.
SETUP_SAMPLES = 7
#: Interpreters run under ``-X importtime`` for ``setup.scipy_s``.
IMPORTTIME_SAMPLES = 3


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ns" if name.endswith("ns_per_row") else "count"


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=REPO, env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)


def fresh_import_seconds() -> list[float]:
    """Seconds a fresh interpreter spends in ``import subdiff.cli``."""
    code = ("import time; start = time.perf_counter(); import subdiff.cli; "
            "print(time.perf_counter() - start)")
    _python("-c", code)
    return [float(_python("-c", code).stdout) for _ in range(SETUP_SAMPLES)]


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the outermost ``scipy`` modules in a
    ``python -X importtime`` log (children are listed before parents)."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us * 1e-6


def machine_details() -> dict[str, str]:
    import numpy
    import scipy

    revision = "unknown (not a git checkout)"
    if (REPO / ".git").exists():
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "subdiff").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": str(os.cpu_count()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
    }


def _load_references() -> dict:
    spec = importlib.util.spec_from_file_location("reference_tables", REFERENCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {n: getattr(module, f"TABLE{n}") for n in range(1, 8)}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f} / {q2:.4f} / {q3:.4f}"


def end_to_end(main, commands, rng, seconds, ledger) -> dict[str, tuple[float, str]]:
    setup = fresh_import_seconds()
    ledger.add(run_pass(main, pass_order(commands, rng))[1])  # warm-up pass
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(main, pass_order(commands, rng))
        ledger.add(outcomes)
        walls.append(wall)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst_cell, ref_dev = ledger.ref_dev_max
    fail_frac = ledger.failed / ledger.attempted
    print(f"wall_s       {statistics.median(walls):.4f} s   median of {len(walls)} warm passes "
          f"(quartiles {_quartiles(walls)})")
    print(f"setup_s      {statistics.median(setup):.4f} s   median of {len(setup)} fresh "
          f"`import subdiff.cli` (quartiles {_quartiles(setup)})")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    print(f"fail_frac    {fail_frac:.6f}   {ledger.failed} of {ledger.attempted} commands failed")
    print(f"ref_dev_max  {ref_dev:.6g}   worst cell {worst_cell}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_frac": (1.0 - fail_frac, "ratio"),
        "ref_dev_max": (ref_dev, "ratio"),
    }


def per_layer(main, commands, rng, seconds, ledger) -> dict[str, tuple[float, str]]:
    scipy_s = statistics.median(
        scipy_import_seconds(_python("-X", "importtime", "-c", "import subdiff.cli").stderr)
        for _ in range(IMPORTTIME_SAMPLES)
    )
    ledger.add(run_pass(main, pass_order(commands, rng))[1])  # warm-up pass
    single, traced, pooled, layers = [], [], [], []
    unhooked: list[str] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        order = pass_order(commands, rng)
        wall, outcomes = run_pass(main, [single_threaded(c) for c in order])
        ledger.add(outcomes)
        single.append(wall)
        tracer = Tracer()
        with hooked(tracer):
            wall, outcomes = run_pass(tracer.wrap(ROOT_SPAN, main),
                                      [single_threaded(c) for c in order])
        ledger.add(outcomes)
        traced.append(wall)
        layers.append(layer_metrics(tracer))
        unhooked = tracer.unhooked
        wall, outcomes = run_pass(main, order)
        ledger.add(outcomes)
        pooled.append(wall)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["harness.pool_delta_s"] = statistics.median(pooled) - statistics.median(single)
    metrics["setup.scipy_s"] = scipy_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(single)
    print(f"rounds: {len(traced)} (untraced --threads 1 {statistics.median(single):.4f} s, "
          f"traced {statistics.median(traced):.4f} s, default threads "
          f"{statistics.median(pooled):.4f} s)")
    print(f"unhooked: {', '.join(unhooked) if unhooked else 'none'}")
    for name, value in metrics.items():
        print(f"{name:26s} {value:.6g}")
    return {name: (value, _layer_unit(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for required in (SRC / "subdiff" / "cli.py", REFERENCES):
        if not required.is_file():
            print(f"perfbench: {required} not found; run from a subdiff checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    import subdiff.cli

    if Path(subdiff.cli.__file__).resolve().parent != SRC / "subdiff":
        print(f"perfbench: imported {subdiff.cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    details = machine_details()
    print("machine: " + " ".join(f"{key}={value}" for key, value in details.items()))
    commands = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed}: "
          + "; ".join(" ".join(c) for c in commands))
    rng = random.Random(args.seed)
    ledger = OutputLedger(_load_references())
    measure = per_layer if args.trace else end_to_end
    metrics = measure(subdiff.cli.main, commands, rng, args.seconds, ledger)
    for problem in ledger.problems[:10]:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

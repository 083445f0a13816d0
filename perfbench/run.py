"""CLGP reproduction benchmark: one entry point for four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload full-sweep --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
report (machine metadata, per-workload details, and the reason for each
per-layer metric marked unavailable).  Scratch files go under
``.perfbench/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import catalog
import suite
import traced
from harness import machine_metadata

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(suite.MEASURE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def untraced_run(ctx, workload: str):
    setup_s, store, setup_reps = suite.run_setup(ctx, workload)
    measurement = suite.MEASURE[workload](ctx, store)
    measurement.details["setup_reps_s"] = setup_reps
    metrics = measurement.end_to_end(workload, setup_s)
    result = {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed + measurement.wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, {"details": measurement.details}


def traced_run(ctx, workload: str):
    _setup_s, store, _reps = suite.run_setup(ctx, workload, reps=1)
    layers = traced.TRACED[workload](ctx, store)
    metrics, unavailable = {}, dict(layers.unavailable)
    for name, unit, _better, _moves in catalog.PER_LAYER:
        value = layers.metrics.get(name)
        if value is None or name in unavailable:
            unavailable.setdefault(name, "not measured on this workload")
            value = catalog.UNAVAILABLE
        metrics[name] = {"value": float(value), "unit": unit}
    result = {
        "correct": layers.wrong == 0 and all(layers.checks.values()),
        "attempted": layers.attempted,
        "failed": layers.wrong,
        "metrics": metrics,
    }
    return result, {"unavailable": unavailable, "checks": layers.checks}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        refs = json.loads((HERE / "references.json").read_text())
        ctx = suite.Context(ROOT, run_dir, args.seed, args.seconds, refs)
        run = traced_run if args.trace else untraced_run
        result, report = run(ctx, args.workload)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  machine=machine_metadata(str(ROOT)))
    print(json.dumps({"perfbench_report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

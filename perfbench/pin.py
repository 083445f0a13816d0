"""Regenerate ``references.json``: the pinned outputs the benchmark checks.

Usage: ``PYTHONPATH=src python3 perfbench/pin.py`` from the repository
root.  Re-pinning is a change to the benchmark itself, never part of a
change that claims a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import grid

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def pin_sweeps(store: str) -> dict:
    from repro.api import ExecutionOptions, Session

    with Session(jobs=2, cache_dir=store) as session:
        full = session.run(grid.sweep_spec(grid.FULL_BUDGET),
                           ExecutionOptions(result_cache=False))
        reference = session.run(
            grid.sweep_spec(grid.SAMPLED_BUDGET),
            ExecutionOptions(result_cache=False))
        sampled = session.run(
            grid.sweep_spec(grid.SAMPLED_BUDGET),
            ExecutionOptions(sampled=True, jobs=1, interval_jobs=1))
    assert not full.failed_tasks and not reference.failed_tasks \
        and not sampled.failed_tasks
    full_ipc = {grid.task_key(task): result.ipc for task, result
                in zip(reference.tasks, reference.results)}
    estimates = {grid.task_key(task): result.ipc for task, result
                 in zip(sampled.tasks, sampled.results)}
    return {
        "full_sweep": {grid.task_key(task): grid.result_digest(result)
                       for task, result in zip(full.tasks, full.results)},
        "sampled_full_ipc": full_ipc,
        "sampled_ipc_err": grid.ipc_error(estimates, full_ipc),
    }


def pin_service(store: str) -> dict:
    """Canonical bodies exactly as the server encodes them."""
    from repro.api import Session
    from repro.service import codec

    bodies = {}
    with Session(jobs=1, cache_dir=store) as session:
        for point in grid.service_points():
            for sampled in (False, True):
                key, spec, options = grid.service_request(point, sampled)
                result = session.run(spec, options)
                assert not result.failed_tasks, key
                body = codec.canonical_json(
                    codec.encode_run_result(spec.name, result))
                bodies[key] = grid.body_digest(body)
    return bodies


def pin_cli(store: str) -> dict:
    """Stdout digest and instructions covered by each replayed command."""
    from repro import cli
    from repro.api import RunHandle

    covered = []
    original = RunHandle.result

    def counting_result(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if id(self) not in seen:
            seen.add(id(self))
            covered.append(sum(r.committed_instructions
                               for r in result.successes))
        return result

    pinned = {}
    RunHandle.result = counting_result
    try:
        for argv in grid.CLI_COMMANDS:
            seen: set = set()
            covered.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv) + grid.cli_cache_args(argv, store))
            assert code == 0, argv
            pinned[grid.command_name(argv)] = {
                "stdout": grid.body_digest(out.getvalue().encode("utf-8")),
                "instructions": sum(covered),
            }
    finally:
        RunHandle.result = original
    return pinned


def main() -> None:
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=work))
    try:
        references = pin_sweeps(str(scratch / "sweeps"))
        references["service_bodies"] = pin_service(str(scratch / "service"))
        references["cli"] = pin_cli(str(scratch / "cli"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n")
    print(f"wrote {REFERENCES}", file=sys.stderr)


if __name__ == "__main__":
    main()

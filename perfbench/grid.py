"""What the workloads run: the shared grid, the service request space and
the replayed CLI commands, plus the digests that pin their outputs."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Sequence, Tuple

#: The paper's three front ends on four SPECint-like benchmarks at two
#: L1 sizes (0.045um): the grid both sweeps run, so a sampled estimate
#: can be compared with the full run of the same point.
SCHEMES = ("base-pipelined", "FDP+L0", "CLGP+L0")
BENCHMARKS = ("gzip", "gcc", "eon", "mcf")
L1_SIZES = (1024, 4096)
TECHNOLOGY = "0.045um"

#: Full-sweep budget: long enough that the timed loop dominates a task.
FULL_BUDGET = 20_000
#: Sampled-sweep budget: large enough that sampling pays.
SAMPLED_BUDGET = 100_000

#: Service request space: the grid's schemes and L1 sizes at both
#: technology nodes, on the two cheapest benchmarks so the set-up can
#: store every full result.  The request sizes are assumptions, kept
#: short: full requests use the CLI replays' 2k budget, and a fresh
#: sampled one holds the server's interpreter lock for its whole run,
#: stalling every request behind it, so long ones would make the tail
#: one unlucky stall.
SERVICE_BENCHMARKS = ("gzip", "mcf")
SERVICE_TECHNOLOGIES = ("0.09um", "0.045um")
SERVICE_FULL_BUDGET = 2_000
SERVICE_SAMPLED_BUDGET = 10_000

#: Warm replays, one subprocess each (``tables`` simulates nothing).
CLI_BENCHMARKS = "mcf"
CLI_BUDGET = "2000"
CLI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("run", "CLGP+L0", "--benchmarks", CLI_BENCHMARKS,
     "--instructions", CLI_BUDGET),
    ("figure", "5", "--benchmarks", CLI_BENCHMARKS,
     "--instructions", CLI_BUDGET),
    ("figure", "5", "--sampled", "--benchmarks", CLI_BENCHMARKS,
     "--instructions", CLI_BUDGET),
    ("speedups", "--benchmarks", CLI_BENCHMARKS,
     "--instructions", CLI_BUDGET),
    ("tables",),
)


def cli_cache_args(argv: Sequence[str], store: str) -> List[str]:
    """``--cache-dir`` for commands that take it (``tables`` does not)."""
    return [] if argv[0] == "tables" else ["--cache-dir", store]


def command_name(argv: Sequence[str]) -> str:
    """``run``, ``figure 5``, ``figure 5 --sampled``, ``speedups``, ..."""
    words = list(argv[:2] if argv[0] == "figure" else argv[:1])
    return " ".join(words + (["--sampled"] if "--sampled" in argv else []))


def point_key(scheme: str, benchmark: str, l1_size: int,
              technology: str) -> str:
    return f"{scheme}|{benchmark}|{l1_size}|{technology}"


def sweep_spec(budget: int):
    """The grid, in the façade's own task order.

    The sweeps take nothing from the seed: the runner packs each
    benchmark's tasks into one chunk, so a shuffled order would change
    which benchmarks share a worker and move the wall time by more than
    the bounds, without being a different input.
    """
    from repro.api import ExperimentSpec

    return ExperimentSpec(SCHEMES, BENCHMARKS, max_instructions=budget,
                          technology=TECHNOLOGY, l1_sizes=L1_SIZES,
                          name="perfbench-sweep")


def sweep_points(budget: int):
    """The grid one point per spec, in the order of :func:`sweep_spec`'s
    tasks; each point's task keeps the grid's ``(scheme, l1_size)`` key."""
    from repro.api import ExperimentSpec

    return [ExperimentSpec(scheme, benchmark, max_instructions=budget,
                           technology=TECHNOLOGY, l1_sizes=(l1_size,),
                           name="perfbench-sweep")
            for scheme in SCHEMES for l1_size in L1_SIZES
            for benchmark in BENCHMARKS]


def sweep_tasks() -> int:
    return len(SCHEMES) * len(BENCHMARKS) * len(L1_SIZES)


def task_key(task) -> str:
    scheme, l1_size = task.key
    return point_key(scheme, task.benchmark, l1_size, TECHNOLOGY)


def result_digest(result) -> str:
    """Digest of every simulated statistic of one result."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def body_digest(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def service_points() -> List[Tuple[str, str, int, str]]:
    return [(scheme, benchmark, l1_size, technology)
            for scheme in SCHEMES for benchmark in SERVICE_BENCHMARKS
            for l1_size in L1_SIZES for technology in SERVICE_TECHNOLOGIES]


def service_request(point, sampled: bool):
    """``(key, spec, options)`` of one service request."""
    from repro.api import ExecutionOptions, ExperimentSpec

    scheme, benchmark, l1_size, technology = point
    key = point_key(*point) + ("|sampled" if sampled else "|full")
    spec = ExperimentSpec(
        scheme, benchmark,
        max_instructions=(SERVICE_SAMPLED_BUDGET if sampled
                          else SERVICE_FULL_BUDGET),
        technology=technology, l1_size_bytes=l1_size, name=key)
    return key, spec, (ExecutionOptions(sampled=True) if sampled else None)


def ipc_error(estimates: Dict[str, float],
              references: Dict[str, float]) -> float:
    """Worst absolute relative IPC error of estimates against references."""
    return max(abs(value - references[key]) / references[key]
               for key, value in estimates.items())

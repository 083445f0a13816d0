"""The four workloads: set-up and the untraced measurement of each.

Every workload is driven from this one process with at most two
workers, threads or connections (the benchmark host has two cores).
End-to-end metrics come from these untraced runs only; ``traced.py``
holds the per-layer runs.  Every host time an end-to-end metric reports
is scaled to the reference host speed by the probes of
:class:`harness.HostSpeed`, taken between operations.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import grid
from harness import (TAIL_SAMPLES, HostSpeed, LoadGenerator, peak_rss_mb,
                     pool_peak_rss_kib, run_child, tail)

now = time.perf_counter

#: Set-up repetitions per run; ``setup_s`` is the median of their
#: scaled times.
SETUP_REPS = 3

#: Typical scaled length of one full sweep, one sampled sweep and one
#: round of the CLI commands, from which :func:`repetitions` sets how
#: many a run makes.
FULL_SWEEP_S = 7.5
SAMPLED_SWEEP_S = 17.3
CLI_ROUND_S = 2.9
#: Fewest repetitions a run makes, so that every operation is timed at
#: least twice and a tail is not one sample of each sweep point.
MIN_REPETITIONS = 2

#: Latency limit per workload for ``slo_frac``.  On ``service-mixed`` it
#: is the service-level objective applied at the peak rate: 0.25 s, the
#: ROADMAP's target for a warm ``repro-clgp run``, so a replayed result
#: should come back from the service no slower than from the CLI.  On
#: the other workloads it is a sanity limit several times the normal
#: latency.
SLO_LIMIT_S = {
    "full-sweep": 10.0,
    "sampled-sweep": 60.0,
    "service-mixed": 0.25,
    "cli-replay": 2.0,
}

#: Open-loop service traffic.  The rates are set against the service's
#: warm capacity: 864.1 req/s, the dedup-hit throughput that
#: ``benchmarks/bench_service.py`` records in ``BENCH_throughput.json``.
#: ``nominal`` is an eighth of it and ``peak`` a quarter; both fractions
#: are assumptions.  Each phase simulates every grid point fresh once
#: (30-200 ms each in the server on a 2-core host) and replays the rest
#: (about 1.2 ms each), so the server is about a fifth busy at the
#: nominal rate and about half at the peak rate.
WARM_CAPACITY_RPS = 864.1
NOMINAL_RPS = WARM_CAPACITY_RPS / 8
PEAK_RPS = WARM_CAPACITY_RPS / 4
#: ``nominal`` gets this share of the run and at least
#: ``MIN_NOMINAL_REQUESTS``, so that its 24 fresh sampled runs hold the
#: server for under a tenth of the phase and its median request is a
#: replay, not one queued behind a fresh run (with half as many, the
#: median sits where those queues begin); ``peak`` gets the rest.
NOMINAL_SHARE = 0.7
MIN_NOMINAL_REQUESTS = 2000
#: At most two connections: the benchmark host has two cores.
SERVICE_CONNECTIONS = 2
#: Assumptions: more client identities than connections, so the fair
#: scheduler rotates among several clients, and a Zipf popularity
#: skew over the grid points.
SERVICE_CLIENTS = 16
ZIPF_EXPONENT = 1.1
#: The nominal schedule comes in chunks, each opened by one sampled
#: request, with a pause of ``PROBE_PAUSE_S`` after each when no request
#: is due; a host-speed probe runs ``PROBE_SETTLE_S`` into the pause,
#: once the chunk's last requests have had time to finish.  A request's
#: latency is scaled by the probes interpolated at its middle.
#: A sampled request opens its chunk so that it never runs into a probe:
#: it holds the server for 30-200 ms, and a probe it overlaps reads the
#: host as slow.  The peak phase is not paused, so that it keeps its
#: rate; it is one chunk, between the probes before and after it.
PROBE_PAUSE_S = 0.1
PROBE_SETTLE_S = 0.03


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    refs: dict

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.work)

    def env(self) -> dict:
        import os
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env


@dataclass
class Measurement:
    """What one untraced run observed."""

    latencies: List[float] = field(default_factory=list)
    slo_outcomes: List[Tuple[bool, float]] = field(default_factory=list)
    #: Instructions covered by correct results, and the timed seconds.
    instructions: int = 0
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: Largest peak RSS (KiB) of a child process the timed work ran.
    child_rss_kib: int = 0
    details: dict = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)

    @property
    def correct(self) -> bool:
        """No operation failed, was refused or returned a wrong output."""
        return self.failed == 0 and self.wrong == 0

    def note_child(self, rss_kib: int) -> None:
        self.child_rss_kib = max(self.child_rss_kib, rss_kib)

    def end_to_end(self, workload: str,
                   setup_s: float) -> Dict[str, Tuple[float, str]]:
        percentile, tail_s = tail(self.latencies)
        limit = SLO_LIMIT_S[workload]
        met = sum(1 for ok, latency in self.slo_outcomes
                  if ok and latency <= limit)
        self.details["tail_percentile"] = percentile
        self.details["latency_samples"] = len(self.latencies)
        self.details["host_speed_factor"] = self.speed.summary()
        return {
            "setup_s": (setup_s, "s"),
            "instr_per_s": (self.instructions / self.busy, "instr/s"),
            "op_p50_ms": (statistics.median(self.latencies) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "slo_frac": (met / len(self.slo_outcomes), "frac"),
            "peak_rss_mb": (peak_rss_mb(self.child_rss_kib), "MB"),
            "ok_frac": (1.0 - (self.failed + self.wrong) / self.attempted,
                        "frac"),
        }


def repetitions(seconds: float, typical_s: float, operations: int) -> int:
    """How many repetitions of a step fill ``seconds``, from the
    step's typical scaled length ``typical_s``; at least
    :data:`MIN_REPETITIONS`, and enough for a tail: each repetition adds
    ``operations`` latencies.

    The count does not follow the host's speed, so every run of a
    workload times the same operations and reports the same
    percentile as its tail.
    """
    return max(round(seconds / typical_s), MIN_REPETITIONS,
               -(-(TAIL_SAMPLES + 1) // operations))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_step(ctx: Context, workload: str, store: str) -> float:
    """Wall seconds of one set-up step in a fresh interpreter."""
    start = now()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("prewarm.py")),
         workload, store],
        env=ctx.env(), cwd=ctx.root, check=True, timeout=120)
    return now() - start


def run_setup(ctx: Context, workload: str,
              reps: int = SETUP_REPS) -> Tuple[float, str, List[float]]:
    """Run the set-up step ``reps`` times, each in a fresh interpreter
    and a fresh store, and keep the last store.  Returns the median
    scaled time, the store and every scaled time."""
    speed = HostSpeed()
    times = []
    store = ""
    for _ in range(reps):
        if store:
            shutil.rmtree(store, ignore_errors=True)
        store = ctx.fresh_dir("store")
        seconds, factor = speed.run(
            lambda: setup_step(ctx, workload, store))
        times.append(seconds * factor)
    return statistics.median(times), store, times


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
@dataclass
class Sweep:
    """Tasks and outcomes of one or more submissions, with the host
    seconds of each task as reported with its result and the wall time.
    A sweep's operations are its tasks."""

    tasks: list = field(default_factory=list)
    results: list = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    wall: float = 0.0

    @property
    def successes(self) -> list:
        return [outcome for outcome in self.results
                if hasattr(outcome, "committed_instructions")]

    def add(self, part: "Sweep", factor: float) -> None:
        """Append ``part``, its times multiplied by ``factor``."""
        self.tasks.extend(part.tasks)
        self.results.extend(part.results)
        self.seconds.extend(seconds * factor for seconds in part.seconds)
        self.wall += part.wall * factor


def timed_sweep(session, plan, options) -> Sweep:
    """Submit one plan and wait for it; times are raw host seconds."""
    submitted = now()
    handle = session.submit(plan, options)
    seconds = [event.seconds for event in handle.events()
               if event.kind == "task"]
    result = handle.result()
    wall = now() - submitted
    return Sweep(list(result.tasks), list(result.results), seconds, wall)


def point_sweep(speed: HostSpeed, session, budget: int, options) -> Sweep:
    """The grid at ``budget``, each point its own submission in the
    grid's task order, as one inline plan would run them, so that a
    host-speed probe sits between points; times are scaled to the
    reference host speed."""
    sweep = Sweep()
    for point in grid.sweep_points(budget):
        part, factor = speed.run(
            lambda: timed_sweep(session, point, options))
        sweep.add(part, factor)
    return sweep


def _check_sweep(measurement: Measurement, sweep: Sweep,
                 check: Callable) -> None:
    from repro.api import TaskFailure

    instructions = 0
    for task, outcome in zip(sweep.tasks, sweep.results):
        measurement.attempted += 1
        if isinstance(outcome, TaskFailure):
            measurement.failed += 1
            continue
        instructions += outcome.committed_instructions
        if not check(task, outcome):
            measurement.wrong += 1
    measurement.instructions += instructions
    measurement.busy += sweep.wall
    measurement.latencies.extend(sweep.seconds)
    measurement.slo_outcomes.extend((True, s) for s in sweep.seconds)
    measurement.slo_outcomes.extend(
        (False, 0.0) for outcome in sweep.results
        if isinstance(outcome, TaskFailure))


def measure_full_sweep(ctx: Context, store: str) -> Measurement:
    from repro.api import ExecutionOptions, Session

    options = ExecutionOptions(result_cache=False)
    digests = ctx.refs["full_sweep"]
    spec = grid.sweep_spec(grid.FULL_BUDGET)
    measurement = Measurement()

    def check(task, result) -> bool:
        return grid.result_digest(result) == digests[grid.task_key(task)]

    with Session(jobs=1, cache_dir=store) as session:
        # Fill this process's in-memory caches first.
        session.run(spec, options)
        for _ in range(repetitions(ctx.seconds, FULL_SWEEP_S,
                                   grid.sweep_tasks())):
            sweep = point_sweep(measurement.speed, session,
                                grid.FULL_BUDGET, options)
            _check_sweep(measurement, sweep, check)
    return measurement


def sampled_check(ctx: Context, result) -> Tuple[float, Callable]:
    """Worst IPC error of a sampled sweep, and the per-task check: a
    task is wrong when its error exceeds the pinned worst error."""
    references = ctx.refs["sampled_full_ipc"]
    pinned = ctx.refs["sampled_ipc_err"]
    estimates = {grid.task_key(task): outcome.ipc
                 for task, outcome in zip(result.tasks, result.results)
                 if hasattr(outcome, "ipc")}

    def check(task, outcome) -> bool:
        key = grid.task_key(task)
        error = abs(outcome.ipc - references[key]) / references[key]
        return error <= pinned + 1e-12

    return grid.ipc_error(estimates, references), check


def sampled_sweep(ctx: Context, speed: HostSpeed) -> Sweep:
    """The sampled grid, point by point, in one session over an empty
    store, after clearing this process's caches."""
    from repro.api import ExecutionOptions, Session
    from repro.simulator.runner import clear_process_caches

    options = ExecutionOptions(sampled=True, jobs=1, interval_jobs=1)
    store = ctx.fresh_dir("sampled")
    clear_process_caches()
    try:
        with Session(jobs=1, cache_dir=store) as session:
            sweep = point_sweep(speed, session, grid.SAMPLED_BUDGET, options)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return sweep


def measure_sampled_sweep(ctx: Context, store: str) -> Measurement:
    measurement = Measurement()
    errors = []
    for _ in range(repetitions(ctx.seconds, SAMPLED_SWEEP_S,
                               grid.sweep_tasks())):
        sweep = sampled_sweep(ctx, measurement.speed)
        error, check = sampled_check(ctx, sweep)
        errors.append(error)
        _check_sweep(measurement, sweep, check)
    measurement.details["sampled_ipc_err"] = max(errors)
    return measurement


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@dataclass
class Phase:
    name: str
    due: List[float]
    requests: List[Tuple[tuple, bool, str]]
    #: When to probe, in seconds from the start of the phase.
    probes: List[float]
    #: Requests per chunk between probes.
    chunk: int


def service_phases(seed: int, seconds: float) -> List[Phase]:
    """Seeded open-loop schedules for the ``nominal`` and ``peak`` rates:
    Zipf-popular full requests with client ids, due at jittered slots
    of the phase's rate, and in each phase one sampled request per grid
    point.

    The sampled requests are evenly spaced, each opening a chunk in the
    nominal phase and from a seeded offset in the peak phase.  Each
    phase starts from the set-up store, so every one of them simulates
    fresh, and they are the nominal phase's slowest requests: its tail.
    A fresh run reuses in-memory sampling state of the fresh runs
    before it, so its cost depends on the order; they visit the grid in
    its fixed order, so every phase and every seed does the same fresh
    work and the tail does not hinge on the seed's draws.
    """
    rng = random.Random(seed)
    order = grid.service_points()
    points = list(order)
    rng.shuffle(points)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(points))]
    phases = []
    for name, rate, share, minimum, paused in (
            ("nominal", NOMINAL_RPS, NOMINAL_SHARE, MIN_NOMINAL_REQUESTS,
             True),
            ("peak", PEAK_RPS, 1.0 - NOMINAL_SHARE, len(points), False)):
        count = max(minimum, round(rate * seconds * share))
        every = count // len(points)
        chunk = every if paused else count
        offset = 0 if paused else rng.randrange(every)
        chunk_s = chunk / rate + PROBE_PAUSE_S
        due, requests = [], []
        for index in range(count):
            due.append((index % chunk + rng.random()) / rate
                       + index // chunk * chunk_s)
            slot, rest = divmod(index - offset, every)
            if rest == 0 and 0 <= slot < len(points):
                point, sampled = order[slot], True
            else:
                point, sampled = rng.choices(points, weights)[0], False
            requests.append((point, sampled,
                             f"user-{rng.randrange(SERVICE_CLIENTS)}"))
        probes = [(n + 1) * chunk_s - PROBE_PAUSE_S + PROBE_SETTLE_S
                  for n in range(-(-count // chunk) - 1)]
        phases.append(Phase(name, due, requests, probes, chunk))
    return phases


def _warm_service(session) -> None:
    """Compute this process's per-geometry sampling profiles (where the
    sampled requests will run) with a sampled spec no request uses."""
    from repro.api import ExecutionOptions, ExperimentSpec, SamplingSpec

    session.run(
        ExperimentSpec(grid.SCHEMES[-1], grid.SERVICE_BENCHMARKS,
                       max_instructions=grid.SERVICE_SAMPLED_BUDGET,
                       l1_sizes=grid.L1_SIZES, name="perfbench-warm"),
        ExecutionOptions(sampled=True, jobs=1, interval_jobs=1,
                         sampling=SamplingSpec(max_intervals=4)))


def run_phase(ctx: Context, port: int, phase: Phase,
              covered: Dict[str, int], speed: HostSpeed,
              ) -> Tuple[LoadGenerator, int, int]:
    """Drive one phase, probing the host before, between and after its
    chunks; returns the generator, wrong bodies and the instructions
    covered by correct bodies."""
    import json

    from repro.service import ServiceClient

    digests = ctx.refs["service_bodies"]
    tally = {"wrong": 0, "instructions": 0}

    def send(index: int) -> bool:
        point, sampled, client_id = phase.requests[index]
        key, spec, options = grid.service_request(point, sampled)
        client = ServiceClient(port=port, client_id=client_id)
        job = client.submit(spec, options)
        body = client.result_bytes(job["job"])
        if grid.body_digest(body) != digests[key]:
            tally["wrong"] += 1
            return False
        if key not in covered:
            covered[key] = sum(item["committed_instructions"]
                               for item in json.loads(body)["results"])
        tally["instructions"] += covered[key]
        return True

    generator = LoadGenerator(phase.due, send,
                              connections=SERVICE_CONNECTIONS)
    speed.probe()
    generator.run(phase.probes, speed.probe)
    speed.probe()
    return generator, tally["wrong"], tally["instructions"]


@dataclass
class PhaseRun:
    phase: Phase
    generator: LoadGenerator
    wrong: int
    instructions: int
    wall: float
    stats: dict
    #: Largest peak RSS (KiB) of the session's pool workers so far.
    child_rss_kib: int


def serve_phases(ctx: Context, store: str, phases: Sequence[Phase],
                 speed: HostSpeed) -> Tuple[List[PhaseRun], dict]:
    """Run each phase from the same state: a copy of the set-up store,
    this process's in-memory caches dropped and rewarmed, and a fresh
    session and server, with host-speed probes right before and after
    it.  Also returns the cache counters from before the first phase."""
    from repro.api import Session
    from repro.service import ServerThread, ServiceClient
    from repro.simulator.runner import clear_process_caches

    covered: Dict[str, int] = {}
    runs = []
    baseline = None
    for phase in phases:
        phase_store = ctx.fresh_dir("phase")
        shutil.copytree(store, phase_store, dirs_exist_ok=True)
        clear_process_caches()
        with Session(jobs=2, cache_dir=phase_store) as session:
            _warm_service(session)
            if baseline is None:
                baseline = session.cache_counters()
            with ServerThread(session, parallel=2) as server:
                start = now()
                generator, wrong, instructions = run_phase(
                    ctx, server.port, phase, covered, speed)
                wall = now() - start
                stats = ServiceClient(port=server.port).stats()
            runs.append(PhaseRun(phase, generator, wrong, instructions,
                                 wall, stats, pool_peak_rss_kib()))
        shutil.rmtree(phase_store, ignore_errors=True)
    return runs, baseline


def measure_service_mixed(ctx: Context, store: str) -> Measurement:
    measurement = Measurement()
    runs, _baseline = serve_phases(ctx, store,
                                   service_phases(ctx.seed, ctx.seconds),
                                   measurement.speed)
    speed = measurement.speed

    def scaled(outcome) -> float:
        return outcome.latency * speed.factor_at(
            (outcome.due + outcome.done) / 2)

    for run in runs:
        outcomes = run.generator.outcomes
        measurement.attempted += len(outcomes)
        measurement.failed += sum(1 for o in outcomes if not o.ok) - run.wrong
        measurement.wrong += run.wrong
        measurement.note_child(run.child_rss_kib)
        if run.phase.name == "nominal":
            measurement.latencies = [scaled(o) for o in outcomes]
        else:
            measurement.slo_outcomes = [(o.ok, scaled(o)) for o in outcomes]
        measurement.details[run.phase.name] = {
            "requests": len(outcomes),
            "lag_p99_ms": (tail([o.lag for o in outcomes])[1] or 0) * 1e3,
            "max_inflight": run.generator.max_inflight,
        }
    measurement.instructions = sum(run.instructions for run in runs)
    # The schedule sets how long a phase lasts, not the host, so its
    # wall time is not scaled.
    measurement.busy = sum(run.wall for run in runs)
    return measurement


# ----------------------------------------------------------------------
# CLI replay
# ----------------------------------------------------------------------
def cli_invocation(ctx: Context, argv: Sequence[str],
                   store: str) -> Tuple[float, bool, int]:
    """Wall seconds, whether the output matched, and peak RSS (KiB)."""
    start = now()
    code, stdout, rss_kib = run_child(
        [sys.executable, "-m", "repro.cli", *argv,
         *grid.cli_cache_args(argv, store)],
        timeout=120, env=ctx.env(), cwd=ctx.root)
    wall = now() - start
    expected = ctx.refs["cli"][grid.command_name(argv)]["stdout"]
    return wall, code == 0 and grid.body_digest(stdout) == expected, rss_kib


def measure_cli_replay(ctx: Context, store: str) -> Measurement:
    rng = random.Random(ctx.seed)
    measurement = Measurement()
    for _ in range(repetitions(ctx.seconds, CLI_ROUND_S,
                               len(grid.CLI_COMMANDS))):
        commands = list(grid.CLI_COMMANDS)
        rng.shuffle(commands)
        for argv in commands:
            (wall, ok, rss_kib), factor = measurement.speed.run(
                lambda: cli_invocation(ctx, argv, store))
            wall *= factor
            measurement.note_child(rss_kib)
            measurement.attempted += 1
            measurement.wrong += not ok
            measurement.latencies.append(wall)
            measurement.slo_outcomes.append((ok, wall))
            measurement.busy += wall
            if ok:
                measurement.instructions += ctx.refs["cli"][
                    grid.command_name(argv)]["instructions"]
    return measurement


MEASURE = {
    "full-sweep": measure_full_sweep,
    "sampled-sweep": measure_sampled_sweep,
    "service-mixed": measure_service_mixed,
    "cli-replay": measure_cli_replay,
}

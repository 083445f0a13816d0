"""Traced runs: per-layer metrics of each workload.

Span wrappers are installed around the public functions of each layer
(and a cProfile pass over inline tasks measures the timed loop), all
from the benchmark's own files.  End-to-end metrics never come from
these runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import shutil
import subprocess
import sys
from statistics import median
from typing import Dict, List, Sequence

import grid
import prewarm
from harness import HostSpeed, tail
from spans import (LOOP_PACKAGES, Recorder, Wrappers, coverage,
                   profile_shares, profiled_calls, self_times, union_length)
from suite import (Context, cli_invocation, now, point_sweep, sampled_check,
                   sampled_sweep, serve_phases, service_phases)

TERMINAL = ("done", "failed", "cancelled")


class Layers:
    """Span wrappers for one traced run, plus the derived metrics."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.wrappers = Wrappers(self.recorder)
        self.runs: List[dict] = []
        self.metrics: Dict[str, float] = {}
        self.unavailable: Dict[str, str] = {}
        #: Named yes/no checks that the workload loads its layer.
        self.checks: Dict[str, bool] = {}
        #: Outputs checked against the pinned references, and how many
        #: failed or were wrong.
        self.attempted = 0
        self.wrong = 0

    def verify(self, outcomes: Sequence[bool]) -> None:
        self.attempted += len(outcomes)
        self.wrong += sum(1 for ok in outcomes if not ok)

    def __enter__(self) -> "Layers":
        return self

    def __exit__(self, *exc) -> None:
        self.wrappers.remove()

    # -- installation ---------------------------------------------------
    def install_api(self) -> None:
        """``Session.submit`` plus a listener on every returned handle;
        every span a run's execution thread records carries the run id."""
        from repro.api import Session

        original_submit = Session.submit
        original_execute = Session._execute
        recorder, runs = self.recorder, self.runs

        def submit(session, *args, **kwargs):
            submitted = now()
            handle = original_submit(session, *args, **kwargs)
            run = {"submit_s": now() - submitted, "submitted": submitted,
                   "started": None, "end": None, "busy": 0.0, "tasks": 0,
                   "jobs": handle._jobs}
            runs.append(run)

            def listen(event) -> None:
                if event.kind == "started":
                    run["started"] = now()
                elif event.kind in ("task", "task-failed"):
                    run["tasks"] += 1
                    run["busy"] += event.seconds or 0.0
                elif event.kind in TERMINAL:
                    run["end"] = now()
                    run["status"] = event.kind
                    recorder.record("api.run", submitted, run["end"],
                                    run=f"run-{id(handle)}")

            handle.add_listener(listen)
            return handle

        def execute(session, handle):
            with recorder.run(f"run-{id(handle)}"):
                return original_execute(session, handle)

        Session.submit = submit
        Session._execute = execute
        self.wrappers.hook(lambda: setattr(Session, "submit", original_submit))
        self.wrappers.hook(
            lambda: setattr(Session, "_execute", original_execute))

    def install_client(self) -> None:
        """Client-side spans of each service request, sharing a request
        id (the benchmark makes one client object per request)."""
        from repro.service import ServiceClient

        recorder = self.recorder
        ids = itertools.count(1)
        original_submit = ServiceClient.submit
        original_result = ServiceClient.result_bytes

        def submit(client, *args, **kwargs):
            client.perfbench_request = f"request-{next(ids)}"
            with recorder.run(client.perfbench_request), \
                    recorder.span("service.submit"):
                return original_submit(client, *args, **kwargs)

        def result_bytes(client, *args, **kwargs):
            with recorder.run(getattr(client, "perfbench_request", None)), \
                    recorder.span("service.result"):
                return original_result(client, *args, **kwargs)

        ServiceClient.submit = submit
        ServiceClient.result_bytes = result_bytes
        self.wrappers.hook(
            lambda: setattr(ServiceClient, "submit", original_submit))
        self.wrappers.hook(
            lambda: setattr(ServiceClient, "result_bytes", original_result))

    def install_setup(self) -> None:
        import repro.cache.traces as traces
        import repro.workloads.trace as workload_trace
        from repro.simulator.simulator import Simulator

        self.wrappers.function(workload_trace, "build_workload",
                               "workloads.build")
        self.wrappers.function(traces, "ensure_compiled_trace",
                               "cache.trace_compile")
        self.wrappers.method(Simulator, "warm_up", "sim.warmup")

    def install_simulator(self) -> None:
        from repro.simulator.simulator import Simulator

        self.wrappers.method(Simulator, "run", "sim.run")

    def install_sampling(self) -> None:
        import repro.sampling.bbv as bbv
        import repro.sampling.proxy as proxy
        import repro.sampling.simpoint as simpoint
        from repro.simulator.simulator import Simulator

        self.wrappers.function(bbv, "profile_workload", "sampling.bbv")
        self.wrappers.function(proxy, "functional_profile", "sampling.proxy")
        self.wrappers.function(proxy, "proxy_cycles", "sampling.proxy")
        self.wrappers.function(simpoint, "select_stratified",
                               "sampling.select")
        self.wrappers.function(simpoint, "select_intervals",
                               "sampling.select")
        self.wrappers.method(Simulator, "skip_to", "sampling.skip",
                             lambda args, skipped: {"skipped": skipped})
        self.wrappers.method(Simulator, "snapshot", "sampling.snapshot")
        self.wrappers.method(Simulator, "restore", "sampling.restore")

    def install_store(self) -> None:
        from repro.cache.store import ArtifactStore

        self.wrappers.method(
            ArtifactStore, "get_bytes", "cache.get",
            lambda args, data: {"bytes_read": len(data) if data else 0,
                                "get_hits": data is not None})
        self.wrappers.method(
            ArtifactStore, "put_bytes", "cache.put",
            lambda args, _result: {"bytes_written": len(args[3])})

    # -- metrics --------------------------------------------------------
    def ms(self, name: str) -> float:
        return self.recorder.total(name) * 1e3

    def self_seconds(self, name: str) -> float:
        own = self_times(self.recorder.spans)
        return sum(own[span.id] for span in self.recorder.named(name))

    def mark(self, names: Sequence[str], reason: str) -> None:
        for name in names:
            self.unavailable[name] = reason

    def api_metrics(self) -> None:
        runs = [run for run in self.runs if run["end"] is not None]
        if not runs:
            return
        self.metrics["api.submit_ms"] = median(
            [run["submit_s"] for run in runs]) * 1e3
        self.metrics["api.start_wait_ms"] = median(
            [run["started"] - run["submitted"] for run in runs
             if run["started"] is not None]) * 1e3
        self.metrics["api.overhead_ms"] = median(
            [(run["end"] - run["submitted"])
             - run["busy"] / max(1, min(run["jobs"], run["tasks"]))
             for run in runs]) * 1e3

    def runner_metrics(self, before, after) -> None:
        runs = [run for run in self.runs if run["end"] is not None]
        busy = sum(run["busy"] for run in runs)
        capacity = sum((run["end"] - run["submitted"])
                       * max(1, min(run["jobs"], run["tasks"]))
                       for run in runs)
        self.metrics.update({
            "runner.tasks": sum(run["tasks"] for run in runs),
            "runner.task_busy_s": busy,
            "runner.parallel_eff": busy / capacity if capacity else 0.0,
            "runner.retries": after.retries - before.retries,
            "runner.worker_losses": after.worker_losses
            - before.worker_losses,
            "runner.pool_respawns": after.pool_respawns
            - before.pool_respawns,
        })

    def setup_metrics(self) -> None:
        self.metrics["workloads.build_ms"] = self.ms("workloads.build")
        self.metrics["cache.trace_compile_ms"] = self.ms(
            "cache.trace_compile")

    def store_metrics(self) -> None:
        gets = self.recorder.count("cache.get")
        amounts = self.wrappers.amounts
        self.metrics.update({
            "cache.get_count": gets,
            "cache.get_ms": self.ms("cache.get"),
            "cache.put_count": self.recorder.count("cache.put"),
            "cache.put_ms": self.ms("cache.put"),
            "cache.bytes_read": amounts.get("bytes_read", 0),
            "cache.bytes_written": amounts.get("bytes_written", 0),
        })
        if gets:
            self.metrics["cache.hit_frac"] = amounts.get("get_hits", 0) / gets

    def simulator_metrics(self, results) -> None:
        run_s = self.self_seconds("sim.run")
        cycles = sum(r.cycles for r in results if hasattr(r, "cycles"))
        committed = sum(r.committed_instructions for r in results
                        if hasattr(r, "cycles"))
        self.metrics.update({
            "sim.run_s": run_s,
            "sim.cycles": cycles,
            "sim.committed": committed,
            "sim.run_ips": committed / run_s if run_s else 0.0,
            "sim.ns_per_cycle": run_s * 1e9 / cycles if cycles else 0.0,
            "sim.warmup_ms": self.ms("sim.warmup"),
        })

    def top_level_coverage(self, start: float, end: float,
                           names: Sequence[str]) -> None:
        spans = [span for span in self.recorder.spans
                 if span.parent is None and span.name in names]
        self.metrics["trace.coverage_frac"] = coverage(spans, start, end)


def _traced_setup(ctx: Context, layers: Layers, budgets,
                  benchmarks: Sequence[str]) -> None:
    """Cold in-process set-up under the set-up wrappers: workload build,
    trace compile and functional warm-up, into a throwaway store."""
    from repro.api import configure_cache, get_workload
    from repro.cache.store import snapshot_configuration, restore_configuration
    from repro.simulator.runner import clear_process_caches

    store = ctx.fresh_dir("traced-setup")
    snapshot = snapshot_configuration()
    clear_process_caches()
    layers.install_setup()
    if budgets:
        prewarm.prewarm_simulations(store, budgets, benchmarks)
    else:
        configure_cache(cache_dir=store, enabled=True)
        for benchmark in benchmarks:
            get_workload(benchmark)
    layers.setup_metrics()
    layers.wrappers.remove()
    layers.recorder.spans.clear()
    restore_configuration(snapshot)
    shutil.rmtree(store, ignore_errors=True)


SAMPLING_METRICS = ("sampling.bbv_ms", "sampling.proxy_ms",
                    "sampling.select_ms", "sampling.skip_ms",
                    "sampling.skip_ips", "sampling.intervals",
                    "sampling.snapshot_ms", "sampling.restore_ms",
                    "sampling.positioned_hit_frac", "sampling.ipc_err")
STORE_METRICS = ("cache.get_count", "cache.get_ms", "cache.put_count",
                 "cache.put_ms", "cache.bytes_read", "cache.bytes_written",
                 "cache.hit_frac", "cache.result_replays")
SIM_METRICS = ("sim.run_s", "sim.run_ips", "sim.ns_per_cycle", "sim.cycles",
               "sim.committed")
LOOP_METRICS = tuple(f"loop.{package}_frac" for package in LOOP_PACKAGES)
SERVICE_METRICS = ("service.submit_p50_ms", "service.submit_p99_ms",
                   "service.result_p50_ms", "service.result_p99_ms",
                   "service.queue_wait_ms", "service.dedup_frac",
                   "service.runs_started", "service.rejected")
LOADGEN_METRICS = ("loadgen.lag_p99_ms", "loadgen.sent",
                   "loadgen.max_inflight")
CLI_METRICS = ("cli.import_ms", "cli.numpy_import_ms", "cli.self_ms")


def traced_full_sweep(ctx: Context, store: str) -> Layers:
    import repro.simulator.runner as runner
    from repro.api import ExecutionOptions, Session, TaskFailure

    options = ExecutionOptions(result_cache=False)
    spec = grid.sweep_spec(grid.FULL_BUDGET)
    with Layers() as layers:
        _traced_setup(ctx, layers, (grid.FULL_BUDGET,), grid.BENCHMARKS)
        with Session(jobs=1, cache_dir=store) as session:
            session.run(spec, options)
            untraced = point_sweep(HostSpeed(), session, grid.FULL_BUDGET,
                                   options).wall
            layers.install_api()
            layers.install_setup()
            layers.install_simulator()
            layers.install_store()
            before = dataclasses.replace(runner.supervisor_stats())
            start = now()
            sweep = point_sweep(HostSpeed(), session, grid.FULL_BUDGET,
                                options)
            end = now()
            digests = ctx.refs["full_sweep"]
            layers.verify([
                not isinstance(outcome, TaskFailure)
                and grid.result_digest(outcome)
                == digests[grid.task_key(task)]
                for task, outcome in zip(sweep.tasks, sweep.results)])
            layers.runner_metrics(before, runner.supervisor_stats())
            layers.api_metrics()
            layers.simulator_metrics(sweep.successes)
            layers.store_metrics()
            layers.top_level_coverage(start, end, ("api.run",))
            layers.metrics["trace.overhead_frac"] = sweep.wall / untraced \
                - 1.0
            layers.wrappers.remove()
            with profiled_calls(runner, "_timed_task") as profiler:
                session.run(spec, options)
        shares = profile_shares(profiler)
        for package, share in shares.items():
            layers.metrics[f"loop.{package}_frac"] = share
        sim_share = layers.metrics["sim.run_s"] / (end - start)
        layers.metrics["check.sim_share"] = sim_share
        layers.metrics["check.loop_share"] = sum(shares.values())
        layers.checks = {
            "sim.run_s is most of the inline sweep wall": sim_share > 0.5,
            "loop.* shares are most of the profiled time":
                sum(shares.values()) > 0.5,
        }
        layers.mark(SAMPLING_METRICS, "full-sweep runs no sampled tasks")
        layers.mark(SERVICE_METRICS + LOADGEN_METRICS,
                    "full-sweep sends no service requests")
        layers.mark(CLI_METRICS, "full-sweep runs no CLI")
    return layers


def traced_sampled_sweep(ctx: Context, store: str) -> Layers:
    from repro.api import TaskFailure
    from repro.cache.results import RESULT_CACHE_STATS
    from repro.sampling.checkpoint import DEFAULT_STORE
    from repro.simulator.runner import supervisor_stats

    with Layers() as layers:
        _traced_setup(ctx, layers, (), grid.BENCHMARKS)
        untraced = sampled_sweep(ctx, HostSpeed()).wall
        layers.install_api()
        layers.install_setup()
        layers.install_simulator()
        layers.install_sampling()
        layers.install_store()
        before = dataclasses.replace(supervisor_stats())
        replays_before = RESULT_CACHE_STATS.hits
        start = now()
        result = sampled_sweep(ctx, HostSpeed())
        wall = result.wall
        end = now()
        error, check = sampled_check(ctx, result)
        layers.verify([not isinstance(outcome, TaskFailure)
                       and check(task, outcome)
                       for task, outcome in zip(result.tasks,
                                                result.results)])
        layers.runner_metrics(before, supervisor_stats())
        layers.api_metrics()
        layers.store_metrics()
        layers.metrics["cache.result_replays"] = \
            RESULT_CACHE_STATS.hits - replays_before
        layers.metrics["cache.trace_compile_ms"] = layers.ms(
            "cache.trace_compile")
        layers.simulator_metrics(result.successes)
        skip_s = layers.recorder.total("sampling.skip")
        positioned = DEFAULT_STORE.positioned_hits \
            + DEFAULT_STORE.positioned_misses
        layers.metrics.update({
            "sampling.bbv_ms": layers.ms("sampling.bbv"),
            "sampling.proxy_ms": layers.ms("sampling.proxy"),
            "sampling.select_ms": layers.ms("sampling.select"),
            "sampling.skip_ms": skip_s * 1e3,
            "sampling.skip_ips": (layers.wrappers.amounts.get("skipped", 0)
                                  / skip_s if skip_s else 0.0),
            "sampling.intervals": sum(
                r.extras.get("sampling_intervals", 0)
                for r in result.successes),
            "sampling.snapshot_ms": layers.ms("sampling.snapshot"),
            "sampling.restore_ms": layers.ms("sampling.restore"),
            "sampling.ipc_err": error,
            "trace.overhead_frac": wall / untraced - 1.0,
        })
        if positioned:
            layers.metrics["sampling.positioned_hit_frac"] = \
                DEFAULT_STORE.positioned_hits / positioned
        else:
            layers.mark(("sampling.positioned_hit_frac",),
                        "no positioned-checkpoint lookups happened")
        layers.top_level_coverage(start, end, ("api.run",))
        layers.mark(("sim.run_ips", "sim.ns_per_cycle", "sim.cycles",
                     "sim.committed"),
                    "sampled results estimate the full budget; the timed "
                    "loop only ran the selected intervals")
        layers.mark(LOOP_METRICS, "the timed loop is profiled on full-sweep")
        layers.mark(SERVICE_METRICS + LOADGEN_METRICS,
                    "sampled-sweep sends no service requests")
        layers.mark(CLI_METRICS, "sampled-sweep runs no CLI")
    return layers


def traced_service_mixed(ctx: Context, store: str) -> Layers:
    import repro.simulator.runner as runner
    from repro.service.server import ExperimentServer, Job

    phases = service_phases(ctx.seed, ctx.seconds)
    untraced_store = ctx.fresh_dir("untraced")
    prewarm.main("service-mixed", untraced_store)
    untraced = serve_phases(ctx, untraced_store, phases[:1],
                            HostSpeed())[0][0]
    shutil.rmtree(untraced_store, ignore_errors=True)
    with Layers() as layers:
        _traced_setup(ctx, layers, (grid.SERVICE_FULL_BUDGET,
                                    grid.SERVICE_SAMPLED_BUDGET),
                      grid.SERVICE_BENCHMARKS)
        layers.install_api()
        layers.install_client()
        layers.install_store()
        waits: List[float] = []
        created: Dict[int, float] = {}
        original_init = Job.__init__
        original_start = ExperimentServer._start_job

        def init(job, *args, **kwargs):
            original_init(job, *args, **kwargs)
            created[id(job)] = now()

        def start_job(server, job):
            waits.append(now() - created.pop(id(job), now()))
            return original_start(server, job)

        Job.__init__ = init
        ExperimentServer._start_job = start_job
        layers.wrappers.hook(lambda: setattr(Job, "__init__", original_init))
        layers.wrappers.hook(
            lambda: setattr(ExperimentServer, "_start_job", original_start))

        layers.wrappers.function(runner, "_shared_pool", "runner.pool")
        before = dataclasses.replace(runner.supervisor_stats())
        runs, baseline = serve_phases(ctx, store, phases, HostSpeed())
        layers.verify([o.ok for run in runs for o in run.generator.outcomes])
        layers.runner_metrics(before, runner.supervisor_stats())
        layers.api_metrics()
        outcomes = [o for run in runs for o in run.generator.outcomes]
        service = [run.stats["service"] for run in runs]
        replays = (runs[-1].stats["cache"]["result_cache"]["hits"]
                   - baseline["result_cache"]["hits"])
        submits = [s.seconds for s in layers.recorder.named("service.submit")]
        results = [s.seconds for s in layers.recorder.named("service.result")]
        submitted = sum(stats["submitted"] for stats in service)
        layers.metrics.update({
            "service.submit_p50_ms": median(submits) * 1e3,
            "service.submit_p99_ms": tail(submits)[1] * 1e3,
            "service.result_p50_ms": median(results) * 1e3,
            "service.result_p99_ms": tail(results)[1] * 1e3,
            "service.queue_wait_ms": median(waits) * 1e3,
            "service.dedup_frac": sum(stats["deduplicated"]
                                      for stats in service) / submitted,
            "service.runs_started": sum(stats["runs_started"]
                                        for stats in service),
            "service.rejected": sum(stats["rejected_quota"]
                                    + stats["rejected_backpressure"]
                                    for stats in service),
            "cache.result_replays": replays,
            "loadgen.lag_p99_ms": tail([o.lag for o in outcomes])[1] * 1e3,
            "loadgen.sent": len(outcomes),
            "loadgen.max_inflight": max(run.generator.max_inflight
                                        for run in runs),
            "trace.overhead_frac": median(
                [o.latency for o in runs[0].generator.outcomes])
            / median([o.latency for o in untraced.generator.outcomes]) - 1.0,
        })
        # Share of the time requests were in flight that the service
        # spans cover (the generator idles between arrivals).
        spans = [(span.start, span.end) for span in layers.recorder.spans
                 if span.name in ("service.submit", "service.result")]
        layers.metrics["trace.coverage_frac"] = union_length(spans) \
            / union_length([(o.sent, o.done) for o in outcomes])
        # The server runs in this process, so the store wrappers see its
        # traffic -- unless a run handed work to pool workers.  The
        # store counters in /v1/stats restart whenever the session
        # re-applies its cache scope, so they are not used.
        if not layers.recorder.count("runner.pool"):
            layers.store_metrics()
        else:
            layers.mark(STORE_METRICS[:-1], "some requests ran in pool "
                        "workers, whose store traffic is not visible")
        layers.mark(SIM_METRICS, "the requests mix 2k full runs and "
                    "sampled intervals; the timed loop is measured on "
                    "full-sweep")
        layers.mark(SAMPLING_METRICS, "sampling is measured on "
                    "sampled-sweep, where it runs alone")
        layers.mark(LOOP_METRICS, "the timed loop is profiled on full-sweep")
        layers.mark(CLI_METRICS, "service-mixed runs no CLI")
    return layers


def _import_ms(ctx: Context, module: str, repeats: int = 5) -> float:
    code = ("import time; t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=ctx.env(),
                             cwd=ctx.root, capture_output=True, text=True,
                             check=True, timeout=60).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return median(times) * 1e3


def traced_cli_replay(ctx: Context, store: str) -> Layers:
    from repro import cli
    from repro.cache.results import RESULT_CACHE_STATS

    with Layers() as layers:
        _traced_setup(ctx, layers, (int(grid.CLI_BUDGET),),
                      grid.CLI_BENCHMARKS.split(","))
        layers.metrics["cli.import_ms"] = _import_ms(ctx, "repro.cli")
        layers.metrics["cli.numpy_import_ms"] = _import_ms(ctx, "numpy")
        invocations = [cli_invocation(ctx, argv, store)
                       for _ in range(2) for argv in grid.CLI_COMMANDS]
        layers.verify([ok for _wall, ok, _rss in invocations])
        walls = [wall for wall, _ok, _rss in invocations]
        command_p50_ms = median(walls) * 1e3

        def in_process(argv) -> float:
            start = now()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv) + grid.cli_cache_args(argv, store))
            return now() - start

        for argv in grid.CLI_COMMANDS:      # first calls import lazily
            in_process(argv)
        untraced = sum(in_process(argv) for argv in grid.CLI_COMMANDS)
        layers.install_api()
        layers.install_store()
        replays_before = RESULT_CACHE_STATS.hits
        own = []
        start = now()
        for argv in grid.CLI_COMMANDS:
            api_before = layers.recorder.total("api.run")
            with layers.recorder.span("cli.main"):
                wall = in_process(argv)
            own.append(wall - (layers.recorder.total("api.run")
                               - api_before))
        end = now()
        layers.api_metrics()
        layers.store_metrics()
        layers.metrics.update({
            "cli.self_ms": median(own) * 1e3,
            "cache.result_replays": RESULT_CACHE_STATS.hits - replays_before,
            "trace.overhead_frac": (end - start) / untraced - 1.0,
            "check.cli_import_share": layers.metrics["cli.import_ms"]
            / command_p50_ms,
        })
        layers.top_level_coverage(start, end, ("cli.main",))
        layers.checks = {
            "cli.import_ms is most of the median CLI invocation":
                layers.metrics["check.cli_import_share"] > 0.5,
        }
        layers.mark(SIM_METRICS + ("sim.warmup_ms",),
                    "warm replays simulate nothing")
        layers.mark(SAMPLING_METRICS, "warm replays run no sampling passes")
        layers.mark(LOOP_METRICS, "the timed loop is profiled on full-sweep")
        layers.mark(SERVICE_METRICS + LOADGEN_METRICS,
                    "cli-replay sends no service requests")
        layers.mark(("runner.tasks", "runner.task_busy_s",
                     "runner.parallel_eff", "runner.retries",
                     "runner.worker_losses", "runner.pool_respawns"),
                    "the CLI subprocesses' runners are not visible; the "
                    "in-process replays are counted under api.*")
    return layers


TRACED = {
    "full-sweep": traced_full_sweep,
    "sampled-sweep": traced_sampled_sweep,
    "service-mixed": traced_service_mixed,
    "cli-replay": traced_cli_replay,
}

"""Every per-layer metric the traced runs report, with its unit,
direction and the end-to-end metric and workload it should move.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the
two in step.  The end-to-end metrics are defined in ``BENCHMARK.json``
alone.
"""

from __future__ import annotations

from typing import Tuple

_CLI = "op_p50_ms on cli-replay"
_SERVICE = "op_p50_ms and op_tail_ms on service-mixed"
_SERVICE_TAIL = "op_tail_ms and slo_frac on service-mixed"
_FULL = "instr_per_s on full-sweep"
_SAMPLED = "instr_per_s on sampled-sweep (no effect on full-sweep)"
_SETUP = "setup_s on every workload"
_HEALTH = "none: harness health"

#: ``(name, unit, better, moves)``.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("cli.import_ms", "ms", "lower", _CLI),
    ("cli.numpy_import_ms", "ms", "lower", _CLI),
    ("cli.self_ms", "ms", "lower", _CLI),
    ("api.submit_ms", "ms", "lower", _SERVICE),
    ("api.start_wait_ms", "ms", "lower", _SERVICE),
    ("api.overhead_ms", "ms", "lower", _SERVICE),
    ("service.submit_p50_ms", "ms", "lower", _SERVICE_TAIL),
    ("service.submit_p99_ms", "ms", "lower", _SERVICE_TAIL),
    ("service.result_p50_ms", "ms", "lower", _SERVICE_TAIL),
    ("service.result_p99_ms", "ms", "lower", _SERVICE_TAIL),
    ("service.queue_wait_ms", "ms", "lower", _SERVICE_TAIL),
    ("service.dedup_frac", "frac", "higher", _SERVICE_TAIL),
    ("service.runs_started", "count", "lower", _SERVICE_TAIL),
    ("service.rejected", "count", "lower", _SERVICE_TAIL),
    ("runner.tasks", "count", "higher", _FULL),
    ("runner.task_busy_s", "s", "lower", _FULL),
    ("runner.parallel_eff", "frac", "higher", _FULL),
    ("runner.retries", "count", "lower", _FULL),
    ("runner.worker_losses", "count", "lower", _FULL),
    ("runner.pool_respawns", "count", "lower", _FULL),
    ("sim.run_s", "s", "lower", _FULL),
    ("sim.run_ips", "instr/s", "higher", _FULL),
    ("sim.ns_per_cycle", "ns", "lower", _FULL),
    ("sim.cycles", "count", "lower", _FULL),
    ("sim.committed", "count", "higher", _FULL),
    ("sim.warmup_ms", "ms", "lower", _FULL),
    ("loop.core_frac", "frac", "lower", _FULL),
    ("loop.frontend_frac", "frac", "lower", _FULL),
    ("loop.memory_frac", "frac", "lower", _FULL),
    ("loop.backend_frac", "frac", "lower", _FULL),
    ("loop.simulator_frac", "frac", "lower", _FULL),
    ("loop.workloads_frac", "frac", "lower", _FULL),
    ("sampling.bbv_ms", "ms", "lower", _SAMPLED),
    ("sampling.proxy_ms", "ms", "lower", _SAMPLED),
    ("sampling.select_ms", "ms", "lower", _SAMPLED),
    ("sampling.skip_ms", "ms", "lower", _SAMPLED),
    ("sampling.skip_ips", "instr/s", "higher", _SAMPLED),
    ("sampling.intervals", "count", "lower", _SAMPLED),
    ("sampling.snapshot_ms", "ms", "lower", _SAMPLED),
    ("sampling.restore_ms", "ms", "lower", _SAMPLED),
    ("sampling.positioned_hit_frac", "frac", "higher", _SAMPLED),
    ("sampling.ipc_err", "frac", "lower",
     "guards instr_per_s on sampled-sweep: a sampling speed-up may not "
     "cost accuracy"),
    ("cache.get_count", "count", "lower",
     "op_p50_ms on cli-replay and service-mixed"),
    ("cache.get_ms", "ms", "lower",
     "op_p50_ms on cli-replay and service-mixed"),
    ("cache.put_count", "count", "lower", _SAMPLED),
    ("cache.put_ms", "ms", "lower", _SAMPLED),
    ("cache.bytes_read", "bytes", "lower",
     "op_p50_ms on cli-replay and service-mixed"),
    ("cache.bytes_written", "bytes", "lower", _SAMPLED),
    ("cache.hit_frac", "frac", "higher",
     "op_p50_ms on cli-replay and service-mixed"),
    ("cache.result_replays", "count", "higher",
     "op_p50_ms on cli-replay and service-mixed"),
    ("cache.trace_compile_ms", "ms", "lower", _SETUP),
    ("workloads.build_ms", "ms", "lower", _SETUP),
    ("loadgen.lag_p99_ms", "ms", "lower", _HEALTH),
    ("loadgen.sent", "count", "higher", _HEALTH),
    ("loadgen.max_inflight", "count", "lower", _HEALTH),
    ("trace.overhead_frac", "frac", "lower", _HEALTH),
    ("trace.coverage_frac", "frac", "higher", _HEALTH),
    ("check.sim_share", "frac", "higher",
     "none: full-sweep loads the timed loop (> 0.5)"),
    ("check.loop_share", "frac", "higher",
     "none: full-sweep loads the timed loop (> 0.5)"),
    ("check.cli_import_share", "frac", "higher",
     "none: cli-replay is mostly import (> 0.5)"),
)

#: Value reported for a per-layer metric the run cannot attribute; the
#: reason is printed in the run report.
UNAVAILABLE = -1.0

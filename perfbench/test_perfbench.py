"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
The smoke tests shrink the grid and pin their own references, so they
check the whole measure-and-verify path of every workload in about a
minute without touching ``references.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import catalog
import grid
import harness
import pin
import suite
import traced
from spans import Recorder, Span, Wrappers, coverage, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 1001)]
    percentile, value = harness.tail(values)
    assert percentile == 99.0
    assert value == 990.0
    assert sum(1 for v in values if v > value) == 10


def test_tail_needs_more_than_ten_samples():
    assert harness.tail([1.0] * 10) == (None, None)
    percentile, value = harness.tail([float(i) for i in range(11)])
    assert value == 0.0
    assert percentile == pytest.approx(100 / 11)


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_host_speed_scales_by_the_probes_around_an_operation(monkeypatch):
    readings = iter([2.0, 4.0, 1.0])
    speed = harness.HostSpeed()
    monkeypatch.setattr(speed, "probe",
                        lambda: speed.probes.append(next(readings))
                        or speed.probes[-1])
    value, factor = speed.run(lambda: "done")
    assert value == "done"
    assert factor == pytest.approx(harness.PROBE_REFERENCE_S / 3.0)
    # The probe after one operation is the probe before the next.
    _value, factor = speed.run(lambda: None)
    assert factor == pytest.approx(harness.PROBE_REFERENCE_S / 2.5)
    assert speed.summary()["count"] == 2


def test_host_speed_interpolates_between_probes_in_time():
    reference = harness.PROBE_REFERENCE_S
    speed = harness.HostSpeed(probes=[1.0, 3.0], times=[10.0, 20.0])
    assert speed.factor_at(15.0) == pytest.approx(reference / 2.0)
    assert speed.factor_at(12.5) == pytest.approx(reference / 1.5)
    # Outside the probes, the nearest one.
    assert speed.factor_at(5.0) == pytest.approx(reference / 1.0)
    assert speed.factor_at(25.0) == pytest.approx(reference / 3.0)


def test_sweep_parts_are_scaled_when_added():
    sweep = suite.Sweep()
    sweep.add(suite.Sweep(["t"], ["r"], [2.0], 3.0), 0.5)
    sweep.add(suite.Sweep(["u"], ["s"], [4.0], 5.0), 2.0)
    assert (sweep.tasks, sweep.results) == (["t", "u"], ["r", "s"])
    assert sweep.seconds == [1.0, 8.0]
    assert sweep.wall == 11.5


def test_repetitions_do_not_follow_the_host():
    assert suite.repetitions(30, 7.5, 24) == 4
    # At least two, so that every operation is timed twice ...
    assert suite.repetitions(15, 17.3, 24) == 2
    # ... and enough operations for a tail, however short the run.
    assert suite.repetitions(0.5, 7.5, 4) == 3


# ----------------------------------------------------------------------
# open-loop accounting
# ----------------------------------------------------------------------
def test_stalled_request_delays_everything_behind_it():
    stall = 0.3

    def send(index: int) -> bool:
        if index == 0:
            time.sleep(stall)
        return True

    generator = harness.LoadGenerator([0.0, 0.01, 0.02, 0.03], send,
                                      connections=1)
    outcomes = generator.run()
    # Each later request was due long before the stall ended; its
    # latency runs from its due time, so it carries the stall.
    for outcome in outcomes[1:]:
        assert outcome.latency >= stall - outcome.index * 0.01 - 0.01
        assert outcome.lag > 0.2
    assert generator.max_inflight == 1


def test_two_connections_overlap_a_stall():
    def send(index: int) -> bool:
        if index == 0:
            time.sleep(0.3)
        return True

    generator = harness.LoadGenerator([0.0, 0.01, 0.02], send,
                                      connections=2)
    outcomes = generator.run()
    assert outcomes[1].latency < 0.2
    assert generator.max_inflight == 2


def test_failed_and_refused_requests_are_counted_as_misses():
    def send(index: int) -> bool:
        if index == 1:
            raise RuntimeError("HTTP 429")
        return index != 2

    outcomes = harness.LoadGenerator([0.0] * 4, send).run()
    assert [o.ok for o in outcomes] == [True, False, False, True]

    measurement = suite.Measurement(
        latencies=[o.latency for o in outcomes] * 3,
        slo_outcomes=[(o.ok, o.latency) for o in outcomes],
        instructions=1, busy=1.0, attempted=4, failed=1, wrong=1)
    metrics = measurement.end_to_end("service-mixed", 1.0)
    assert metrics["ok_frac"][0] == 0.5
    assert metrics["slo_frac"][0] == 0.5


def test_one_failed_request_makes_the_run_incorrect(monkeypatch):
    import run

    def measure(ctx, store):
        return suite.Measurement(
            latencies=[0.001] * 20,
            slo_outcomes=[(True, 0.001)] * 19 + [(False, 0.001)],
            instructions=1, busy=1.0, attempted=20, failed=1)

    monkeypatch.setattr(suite, "run_setup",
                        lambda ctx, workload: (1.0, "", [1.0]))
    monkeypatch.setitem(suite.MEASURE, "service-mixed", measure)
    result, _report = run.untraced_run(None, "service-mixed")
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 20


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def test_peak_rss_counts_timed_children_only():
    allocate = "b = b'x' * (96 << 20); print(len(b) >> 20)"
    before = harness.peak_rss_mb(0)
    # An untimed child, like a set-up step, leaves the figure alone.
    subprocess.run([sys.executable, "-c", allocate], check=True,
                   capture_output=True, timeout=60)
    assert harness.peak_rss_mb(0) < before + 32
    code, out, rss_kib = harness.run_child([sys.executable, "-c", allocate],
                                           timeout=60)
    assert (code, out) == (0, b"96\n")
    assert rss_kib > 96 << 10
    assert harness.peak_rss_mb(rss_kib) > before + 96


def test_service_schedule_is_seeded_and_samples_each_point_once():
    phases = suite.service_phases(seed=5, seconds=15)
    assert [p.name for p in phases] == ["nominal", "peak"]
    assert len(phases[0].requests) >= suite.MIN_NOMINAL_REQUESTS
    for phase in phases:
        sampled = [point for point, is_sampled, _client in phase.requests
                   if is_sampled]
        assert sampled == grid.service_points()
        assert phase.due == sorted(phase.due)
        # No request is due in the pause around each probe.
        for probe in phase.probes:
            pause = (probe - suite.PROBE_SETTLE_S,
                     probe - suite.PROBE_SETTLE_S + suite.PROBE_PAUSE_S)
            assert not [due for due in phase.due
                        if pause[0] <= due < pause[1]]
        chunks = -(-len(phase.due) // phase.chunk)
        assert len(phase.probes) == chunks - 1
    # Each nominal sampled request opens a chunk, so it never runs into
    # a probe; the peak phase keeps its rate, unpaused.
    nominal, peak = phases
    assert [index % nominal.chunk for index, (_p, is_sampled, _c)
            in enumerate(nominal.requests) if is_sampled] == [0] * len(
        grid.service_points())
    assert peak.probes == []
    again = suite.service_phases(seed=5, seconds=15)
    assert [(p.due, p.requests) for p in again] == [
        (p.due, p.requests) for p in phases]
    other = suite.service_phases(seed=6, seconds=15)
    assert other[0].requests != phases[0].requests


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "parent", 0.0, 10.0, "r"),
        Span(2, 1, "child", 2.0, 4.0, "r"),
        Span(3, 1, "child", 3.0, 6.0, "r"),      # overlaps the first
        Span(4, 1, "child", 9.0, 12.0, "r"),     # clipped at the parent
        Span(5, 2, "grandchild", 2.5, 3.0, "r"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(1.5)
    assert own[5] == pytest.approx(0.5)
    assert coverage(spans[:1], 0.0, 20.0) == pytest.approx(0.5)


def test_spans_nest_per_thread_and_carry_the_run_id():
    recorder = Recorder()
    with recorder.run("req-1"):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass

    def other() -> None:
        with recorder.span("elsewhere"):
            pass

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["elsewhere"].parent is None
    assert by_name["inner"].run == by_name["outer"].run == "req-1"
    assert by_name["elsewhere"].run is None


def test_wrappers_record_and_restore():
    class Layer:
        def work(self, size):
            return b"x" * size

    original = Layer.work
    wrappers = Wrappers(Recorder())
    wrappers.method(Layer, "work", "layer.work",
                    lambda args, data: {"bytes": len(data)})
    assert Layer().work(3) == b"xxx"
    Layer().work(4)
    assert wrappers.recorder.count("layer.work") == 2
    assert wrappers.amounts["bytes"] == 7
    wrappers.remove()
    assert Layer.work is original


# ----------------------------------------------------------------------
# BENCHMARK.json documents the catalog
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalog():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == [
        entry[:3] for entry in catalog.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.MEASURE)


# ----------------------------------------------------------------------
# tiny-budget smoke runs of every workload
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke():
    """Shrunken grid, service schedule and CLI commands, with references
    pinned at those sizes."""
    patch = pytest.MonkeyPatch()
    patch.setattr(grid, "SCHEMES", ("base-pipelined", "CLGP+L0"))
    patch.setattr(grid, "BENCHMARKS", ("gzip", "mcf"))
    patch.setattr(grid, "SERVICE_BENCHMARKS", ("mcf",))
    patch.setattr(grid, "L1_SIZES", (1024,))
    patch.setattr(grid, "SERVICE_TECHNOLOGIES", ("0.045um",))
    patch.setattr(grid, "FULL_BUDGET", 1000)
    patch.setattr(grid, "SAMPLED_BUDGET", 4000)
    patch.setattr(grid, "SERVICE_FULL_BUDGET", 500)
    patch.setattr(grid, "SERVICE_SAMPLED_BUDGET", 4000)
    patch.setattr(grid, "CLI_COMMANDS", (
        ("run", "CLGP+L0", "--benchmarks", "mcf", "--instructions", "500"),
        ("tables",),
    ))
    patch.setattr(suite, "MIN_NOMINAL_REQUESTS", 40)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        refs = pin.pin_sweeps(str(work / "sweeps"))
        refs["service_bodies"] = pin.pin_service(str(work / "service"))
        refs["cli"] = pin.pin_cli(str(work / "cli"))
        yield suite.Context(ROOT, work, seed=3, seconds=0.5, refs=refs)
    finally:
        patch.undo()
        shutil.rmtree(work, ignore_errors=True)


def _store(ctx, workload: str) -> str:
    import prewarm

    store = ctx.fresh_dir("store")
    prewarm.main(workload, store)
    return store


@pytest.mark.parametrize("workload", list(suite.MEASURE))
def test_smoke_untraced(smoke, workload):
    measurement = suite.MEASURE[workload](smoke, _store(smoke, workload))
    metrics = measurement.end_to_end(workload, 1.0)
    assert measurement.attempted > 0
    assert measurement.failed == 0 and measurement.wrong == 0
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, (_value, unit) in metrics.items()]
    assert metrics["ok_frac"][0] == 1.0
    assert all(value > 0 for value, _unit in metrics.values())


#: Per-layer metrics each traced workload exists to measure.
LOADED_LAYERS = {
    "full-sweep": ("sim.run_s", "loop.core_frac", "runner.parallel_eff"),
    "sampled-sweep": ("sampling.skip_ms", "sampling.ipc_err",
                      "cache.put_ms"),
    "service-mixed": ("service.dedup_frac", "loadgen.sent",
                      "api.start_wait_ms"),
    "cli-replay": ("cli.import_ms", "cli.self_ms", "cache.get_ms"),
}


@pytest.mark.parametrize("workload", list(traced.TRACED))
def test_smoke_traced(smoke, workload):
    layers = traced.TRACED[workload](smoke, _store(smoke, workload))
    names = {name for name, *_ in catalog.PER_LAYER}
    assert set(layers.metrics) | set(layers.unavailable) <= names
    for name in LOADED_LAYERS[workload]:
        assert name in layers.metrics and name not in layers.unavailable
    assert layers.metrics["workloads.build_ms"] > 0
    assert layers.metrics["trace.coverage_frac"] > 0
    assert layers.attempted > 0 and layers.wrong == 0

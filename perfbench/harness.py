"""Measurement helpers shared by the workloads: the host-speed probe,
percentiles, the open-loop load generator, memory and machine metadata."""

from __future__ import annotations

import bisect
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10

T = TypeVar("T")

#: Host-speed probe: a fixed piece of interpreter-bound work (dict
#: stores, small-int arithmetic, a loop) that shares no code with the
#: program.  ``PROBE_WORK`` iterations take about 11 ms on the reference
#: host (a 2-core Intel Xeon VM, Python 3.11); a probe is the median of
#: ``PROBE_REPEATS`` runs, and ``PROBE_REFERENCE_S`` is the median of 583
#: probes there.
PROBE_WORK = 60_000
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.01145


def _probe_kernel(iterations: int) -> int:
    table = {}
    total = 0
    for i in range(iterations):
        table[i & 1023] = total
        total = (total + i * 7) & 0xFFFFFF
    return total


@dataclass
class HostSpeed:
    """Scales host timings to the reference host speed.

    A shared host changes speed by 10-40 % over seconds to minutes, and
    every timing of interpreter-bound work follows it, so raw timings of
    one program spread from run to run by more than a regression worth
    catching.  :meth:`run` times an operation between two probes taken
    right before and right after it, and returns the factor
    ``PROBE_REFERENCE_S / mean(before, after)``: an operation's host
    time multiplied by it is the time it would have taken with the host
    at the reference speed.  The probe shares no code with the program,
    so a change that makes the program faster lowers the scaled time by
    the same share.  The probe after one operation is the probe before
    the next.  Where operations overlap, :meth:`factor_at` interpolates
    between the probes around a moment instead.
    """

    probes: List[float] = field(default_factory=list)
    #: ``time.perf_counter()`` when each probe ended.
    times: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)

    def probe(self) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _probe_kernel(PROBE_WORK)
            times.append(time.perf_counter() - start)
        self.probes.append(statistics.median(times))
        self.times.append(time.perf_counter())
        return self.probes[-1]

    def factor(self, before: float, after: float) -> float:
        """The factor for host time spent between two probes."""
        factor = 2.0 * PROBE_REFERENCE_S / (before + after)
        self.factors.append(factor)
        return factor

    def factor_at(self, moment: float) -> float:
        """The factor for host time spent at ``moment``: the probe is
        interpolated linearly between the probes on either side of it,
        or is the nearest probe outside them."""
        index = bisect.bisect(self.times, moment)
        if index in (0, len(self.times)):
            probe = self.probes[min(index, len(self.probes) - 1)]
        else:
            (t0, t1), (p0, p1) = (self.times[index - 1:index + 1],
                                  self.probes[index - 1:index + 1])
            probe = p0 + (p1 - p0) * (moment - t0) / (t1 - t0)
        self.factors.append(PROBE_REFERENCE_S / probe)
        return self.factors[-1]

    def run(self, operation: Callable[[], T]) -> Tuple[T, float]:
        """``operation()``'s value and the factor for its host time."""
        before = self.probes[-1] if self.probes else self.probe()
        value = operation()
        return value, self.factor(before, self.probe())

    def summary(self) -> dict:
        """Median, lowest and highest factor, for the run report."""
        if not self.factors:
            return {}
        return {"median": statistics.median(self.factors),
                "min": min(self.factors), "max": max(self.factors),
                "count": len(self.factors)}


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float]]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``(None, None)`` when there
    are too few samples for any."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < 1:
        return None, None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Outcome:
    """One open-loop request: when it was due, sent and completed."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete response."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


class LoadGenerator:
    """Open-loop arrivals served over a fixed number of connections.

    Request ``i`` is due at ``start + due[i]`` whatever happened to the
    requests before it.  ``connections`` threads take requests in due
    order; a request whose connection is still busy waits, and that wait
    counts in its latency because latency runs from the due time.  So a
    stalled request delays every request queued behind it, as a user
    sending on a schedule would see.  ``send(i)`` returns whether the
    request succeeded with a correct response; an exception counts as a
    failure.
    """

    def __init__(self, due: Sequence[float], send: Callable[[int], bool],
                 connections: int = 2) -> None:
        self.due = list(due)
        self.send = send
        self.connections = connections
        self.outcomes: List[Outcome] = []
        self.max_inflight = 0
        self._inflight = 0
        self._next = 0
        self._lock = threading.Lock()

    def _worker(self, start: float) -> None:
        while True:
            with self._lock:
                index = self._next
                if index >= len(self.due):
                    return
                self._next += 1
            due = start + self.due[index]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with self._lock:
                self._inflight += 1
                self.max_inflight = max(self.max_inflight, self._inflight)
            sent = time.perf_counter()
            try:
                ok = bool(self.send(index))
            except Exception:
                ok = False
            done = time.perf_counter()
            with self._lock:
                self._inflight -= 1
                self.outcomes.append(Outcome(index, due, sent, done, ok))

    def run(self, pauses: Sequence[float] = (),
            call: Optional[Callable[[], object]] = None) -> List[Outcome]:
        """Send every request; meanwhile, this thread runs ``call()`` at
        each time in ``pauses`` (seconds from the start), which the
        schedule should leave free of requests."""
        start = time.perf_counter()
        threads = [threading.Thread(target=self._worker, args=(start,),
                                    name=f"loadgen-{n}", daemon=True)
                   for n in range(self.connections)]
        for thread in threads:
            thread.start()
        for pause in pauses:
            wait = start + pause - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            call()
        for thread in threads:
            thread.join()
        self.outcomes.sort(key=lambda outcome: outcome.index)
        return self.outcomes


def peak_rss_mb(child_kib: int) -> float:
    """Peak resident memory of this process plus ``child_kib``, the
    largest peak of a child the timed work ran (Linux reports KiB).

    ``RUSAGE_CHILDREN`` is not used: it also holds the set-up
    subprocesses, whose peak the timed work cannot move.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_kib) / 1024.0


def pool_peak_rss_kib() -> int:
    """Largest peak RSS (``VmHWM``, KiB) among this process's live
    ``multiprocessing`` children, such as a session's pool workers.

    Call it while the pool is still up: a worker that already exited
    (replaced after a crash) is not seen.
    """
    import multiprocessing

    peak = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak


def run_child(argv: Sequence[str], timeout: float,
              **kwargs) -> Tuple[int, bytes, int]:
    """Run one subprocess to completion; return its exit code, its
    standard output and its peak RSS in KiB.

    The child is reaped with ``wait4``, which reports the usage of that
    child alone.  It is killed if it runs longer than ``timeout``.
    """
    process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, **kwargs)
    timer = threading.Timer(timeout, process.kill)
    timer.start()
    try:
        with process.stdout:
            out = process.stdout.read()
        _pid, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, out, usage.ru_maxrss


def machine_metadata(root: str) -> dict:
    """Cores, Python, numpy, commit and the simulator's loop default."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    from repro.simulator.config import SimulationConfig
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loop_default": SimulationConfig.__dataclass_fields__[
            "sim_loop"].default,
        "platform": platform.platform(),
    }

"""Golden values for the serial sampled walk.

The serial walk runs the same per-segment code the parallel path fans
out, so "serial == parallel" alone cannot catch a change to what that
code computes or to how it reuses checkpoints.  This module pins the
walk's output for the selection shapes of ``test_interval_parallel.py``
-- mixed segments, all-jumped singletons, one contiguous segment and
k=1 -- with a persistent artifact store and with a memory-only store:

* a SHA-256 over the per-interval results and weights,
* the total instructions functionally skipped through
  :meth:`Simulator.skip_to`,
* the positioned-checkpoint counters.

Each shape also runs twice on one checkpoint store, so the pinned
counters cover a walk that reuses the positioned checkpoints and the
warm jump base its first pass left behind.

Every expected value was captured by running this test against the
revision before the serial walk was rebuilt on the per-segment code;
a mismatch means the walk now computes, skips or reuses something
different.
"""

import hashlib

import pytest

from repro.cache.keys import stable_repr
from repro.cache.store import ArtifactStore
from repro.sampling import SamplingSpec, get_selection
from repro.sampling.checkpoint import CheckpointStore
from repro.sampling.sampled import _measure_intervals, ensure_compiled_trace
from repro.simulator.runner import get_workload
from repro.simulator.simulator import Simulator
from repro.simulator.testing import make_sim_config

TOTAL = 40_000

SHAPES = {
    "mixed": ("gcc", SamplingSpec(max_intervals=4)),
    "all-jumped": ("gcc", SamplingSpec(max_intervals=3, method="kmeans")),
    "one-segment": ("gzip", SamplingSpec(max_intervals=4)),
    "k1": ("gcc", SamplingSpec(max_intervals=1)),
}

#: (shape, store on, walks) -> (results digest, instructions skipped,
#: (positioned hits, misses, publishes)).
GOLDEN = {
    ("all-jumped", True, 1): (
        "b551d2b65375186f20d7b4a62cbca84230dea67c154926495c4520c20d72fec5",
        35500, (0, 3, 3)),
    ("all-jumped", True, 2): (
        "73116fa00b5b8f5c5d6208c7b5746e847d84485219f077f19f5b052594c292b6",
        35500, (3, 3, 6)),
    ("all-jumped", False, 1): (
        "b551d2b65375186f20d7b4a62cbca84230dea67c154926495c4520c20d72fec5",
        35500, (0, 3, 2)),
    ("all-jumped", False, 2): (
        "73116fa00b5b8f5c5d6208c7b5746e847d84485219f077f19f5b052594c292b6",
        45500, (2, 4, 4)),
    ("k1", True, 1): (
        "ed1b8e03c2d2d986e8a78ac020a8531e8e1a662ec6fcabee431fef444d76e37d",
        0, (0, 0, 0)),
    ("k1", True, 2): (
        "d897f2b9852e8ad55e510e78ee04509fcf768034d0a3d986e6ceb7729b98a303",
        0, (0, 0, 0)),
    ("k1", False, 1): (
        "ed1b8e03c2d2d986e8a78ac020a8531e8e1a662ec6fcabee431fef444d76e37d",
        0, (0, 0, 0)),
    ("k1", False, 2): (
        "d897f2b9852e8ad55e510e78ee04509fcf768034d0a3d986e6ceb7729b98a303",
        0, (0, 0, 0)),
    ("mixed", True, 1): (
        "77ecd1e9d045036d77046bd95482ffdd43af021a5b3e5f630ec34bc2bf670c50",
        7500, (0, 1, 1)),
    ("mixed", True, 2): (
        "3e149eff6cbab43c7bba4a542e64e91a3e4661ab292fb494a76a61862fd0b760",
        7500, (1, 1, 2)),
    ("mixed", False, 1): (
        "77ecd1e9d045036d77046bd95482ffdd43af021a5b3e5f630ec34bc2bf670c50",
        7500, (0, 1, 0)),
    ("mixed", False, 2): (
        "3e149eff6cbab43c7bba4a542e64e91a3e4661ab292fb494a76a61862fd0b760",
        15000, (0, 2, 0)),
    ("one-segment", True, 1): (
        "c4ac0e11f77c9f95a9576908616df32f107758b11d9e49611e9d52e0ff952909",
        0, (0, 0, 0)),
    ("one-segment", True, 2): (
        "760784ebd217a61797f77cdac88aab0473821c45a447d79c953f34fd60823ee2",
        0, (0, 0, 0)),
    ("one-segment", False, 1): (
        "c4ac0e11f77c9f95a9576908616df32f107758b11d9e49611e9d52e0ff952909",
        0, (0, 0, 0)),
    ("one-segment", False, 2): (
        "760784ebd217a61797f77cdac88aab0473821c45a447d79c953f34fd60823ee2",
        0, (0, 0, 0)),
}


def walk(shape, store_on, walks, tmp_path, monkeypatch):
    benchmark, spec = SHAPES[shape]
    config = make_sim_config(engine="clgp", max_instructions=TOTAL)
    workload = get_workload(benchmark)
    ensure_compiled_trace(
        workload, max(TOTAL, config.resolved_warmup_instructions()))
    store = CheckpointStore(
        artifacts=ArtifactStore(tmp_path / "store") if store_on else None)
    selection = get_selection(workload, TOTAL, spec, store=store,
                              config=config)
    skipped = []
    skip_to = Simulator.skip_to

    def counting_skip_to(self, offset):
        done = skip_to(self, offset)
        skipped.append(done)
        return done

    monkeypatch.setattr(Simulator, "skip_to", counting_skip_to)
    measured = [_measure_intervals(config, workload, selection, spec, store)
                for _ in range(walks)]
    digest = hashlib.sha256(stable_repr(measured).encode()).hexdigest()
    counters = (store.positioned_hits, store.positioned_misses,
                store.positioned_publishes)
    return digest, sum(skipped), counters


@pytest.mark.parametrize("walks", [1, 2])
@pytest.mark.parametrize("store_on", [True, False], ids=["store", "no-store"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_serial_walk_matches_golden(shape, store_on, walks, tmp_path,
                                    monkeypatch):
    assert walk(shape, store_on, walks, tmp_path, monkeypatch) \
        == GOLDEN[(shape, store_on, walks)]

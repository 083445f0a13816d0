"""Artifact-store counters accumulate across executions on one root.

Every :class:`~repro.api.Session` execution runs under its own
execution context, and the process defaults can be reconfigured at any
time.  Neither may drop the live :class:`~repro.cache.store.ArtifactStore`
of a root, or ``cache_counters()["store"]`` -- and the service's
``/v1/stats`` -- restart from zero on every run.
"""

from __future__ import annotations

from repro.api import ExperimentSpec, Session
from repro.cache.store import (
    configure,
    get_store,
    restore_configuration,
    snapshot_configuration,
)


def test_repeated_session_runs_accumulate_store_hits(tmp_path):
    spec = ExperimentSpec("base", ("gzip",), max_instructions=800)
    hits = []
    with Session(cache_dir=str(tmp_path / "store")) as session:
        for _ in range(3):
            session.run(spec)
            hits.append(session.cache_counters()["store"]["hits"])
    # Warm runs read the persisted result: one more hit each.
    assert hits[0] < hits[1] < hits[2]


def test_same_root_reconfiguration_keeps_the_store(tmp_path):
    snapshot = snapshot_configuration()
    try:
        configure(cache_dir=str(tmp_path / "a"))
        store = get_store()
        configure(cache_dir=str(tmp_path / "a") + "/", enabled=True)
        assert get_store() is store
        restore_configuration((str(tmp_path / "a"), None))
        assert get_store() is store
        configure(cache_dir=str(tmp_path / "b"))
        assert get_store() is not store
    finally:
        restore_configuration(snapshot)

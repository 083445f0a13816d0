"""Per-run execution contexts: policy and counters belong to the run.

Each submission resolves its store, result-replay policy and fault plan
into one :class:`~repro.context.ExecutionContext`, so concurrent runs
count only their own store hits, a session reports its own store while
another is open, and closing sessions in any order leaves the process
defaults alone.
"""

from __future__ import annotations

from repro.api import ExecutionOptions, ExperimentSpec, Session
from repro.cache.results import result_cache_enabled
from repro.cache.store import cache_enabled, get_store, resolved_cache_dir
from repro.context import ExecutionContext, current, use_context
from repro.faults import NO_FAULTS, active_plan
from repro.simulator.runner import clear_process_caches

SAMPLED = ExecutionOptions(sampled=True, result_cache=False)


def _spec(benchmark: str) -> ExperimentSpec:
    return ExperimentSpec("CLGP+L0", benchmark, max_instructions=20_000)


def test_concurrent_runs_count_only_their_own_store_hits(tmp_path):
    with Session(jobs=1, cache_dir=str(tmp_path / "store")) as session:
        for benchmark in ("gcc", "mcf"):      # warm the store
            session.run(_spec(benchmark), SAMPLED)

        clear_process_caches()
        sequential = [session.run(_spec(benchmark), SAMPLED).cache_hits
                      for benchmark in ("gcc", "mcf")]

        clear_process_caches()
        # Hold both queued so they start together and overlap.
        with session._exec_lock:
            handles = [session.submit(_spec(benchmark), SAMPLED)
                       for benchmark in ("gcc", "mcf")]
        concurrent = [handle.result().cache_hits for handle in handles]
    assert all(hits > 0 for hits in sequential)
    assert concurrent == sequential


def test_cache_counters_report_the_sessions_own_store(tmp_path):
    first = Session(cache_dir=str(tmp_path / "x"))
    second = Session(cache_dir=str(tmp_path / "y"))
    try:
        assert first.cache_counters()["store"]["root"] \
            == str(tmp_path / "x")
        assert second.cache_counters()["store"]["root"] \
            == str(tmp_path / "y")
    finally:
        first.close()
        second.close()


def test_out_of_order_closes_leave_the_process_default(tmp_path):
    before = resolved_cache_dir()
    first = Session(cache_dir=str(tmp_path / "x"))
    second = Session(cache_dir=str(tmp_path / "y"))
    first.close()
    assert resolved_cache_dir() == before
    second.close()
    assert resolved_cache_dir() == before


def test_policy_readers_follow_the_installed_context(tmp_path):
    context = ExecutionContext.resolve(
        cache_dir=str(tmp_path / "ctx"), cache=False, result_cache=False,
        faults="io_delay:1ms")
    assert current() is None
    with use_context(context):
        assert resolved_cache_dir() == str(tmp_path / "ctx")
        assert not cache_enabled()
        assert not result_cache_enabled()
        assert active_plan().io_delay == 0.001
        # Unset settings of a nested context come from the installed one.
        assert ExecutionContext.resolve().cache_dir == str(tmp_path / "ctx")
    assert current() is None
    assert active_plan() == NO_FAULTS
    assert result_cache_enabled()


def _at(root) -> ExecutionContext:
    return ExecutionContext.resolve(cache_dir=str(root))


def test_each_root_keeps_one_store(tmp_path):
    with use_context(_at(tmp_path / "a")):
        store = get_store()
    with use_context(_at(tmp_path / "b")):
        assert get_store() is not store
    with use_context(_at(tmp_path / "a")):
        assert get_store() is store


def test_threads_under_different_contexts_stay_apart(tmp_path):
    """More threads than cores, each under its own context over one of
    two roots, with a short switch interval: every thread reads its own
    root, every root keeps one store, and each thread's sink holds
    exactly its own hits."""
    import sys
    import threading

    from repro.cache.store import active_store

    roots = [str(tmp_path / "a"), str(tmp_path / "b")]
    for root in roots:
        with use_context(_at(root)):
            get_store().put_bytes("blob", "key", b"payload")
    threads, reads = 8, 50
    seen, counted = {}, {}

    def work(worker: int) -> None:
        root = roots[worker % 2]
        context = _at(root).for_task()
        with use_context(context):
            stores = set()
            for _ in range(reads):
                store = active_store()
                stores.add(id(store))
                assert store.get_bytes("blob", "key") == b"payload"
            seen[worker] = (resolved_cache_dir(), stores)
        counted[worker] = context.counters.store_hits

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(index,))
                   for index in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert counted == {worker: reads for worker in range(threads)}
    for worker, (root, stores) in seen.items():
        assert root == roots[worker % 2]
        assert len(stores) == 1
    per_root = {root: {next(iter(seen[w][1])) for w in seen
                       if seen[w][0] == root} for root in roots}
    assert all(len(ids) == 1 for ids in per_root.values())

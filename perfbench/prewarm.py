"""One set-up step, run in a fresh interpreter so its wall time includes
import: build the workload's benchmarks and prewarm its artifact store.

Usage: ``python3 perfbench/prewarm.py WORKLOAD STORE_DIR``.
"""

from __future__ import annotations

import contextlib
import io
import sys

import grid


def prewarm_simulations(store: str, budgets,
                        benchmarks=None) -> None:
    """Compiled traces and functional warm-up for the grid's benchmarks."""
    from repro.api import Simulator, configure_cache, get_workload, paper_config
    from repro.cache.traces import ensure_compiled_trace

    configure_cache(cache_dir=store, enabled=True)
    for benchmark in benchmarks or grid.BENCHMARKS:
        workload = get_workload(benchmark)
        for budget in budgets:
            config = paper_config(grid.SCHEMES[-1], max_instructions=budget)
            ensure_compiled_trace(workload, max(
                budget, config.resolved_warmup_instructions()))
            Simulator(config, workload).warm_up()


def prewarm_service_results(store: str) -> None:
    """Results of every full service request, so their first requests
    replay from the result cache; sampled requests stay fresh."""
    from repro.api import ExperimentSpec, Session

    with Session(jobs=1, cache_dir=store) as session:
        for technology in grid.SERVICE_TECHNOLOGIES:
            session.run(ExperimentSpec(
                grid.SCHEMES, grid.SERVICE_BENCHMARKS,
                max_instructions=grid.SERVICE_FULL_BUDGET,
                technology=technology, l1_sizes=grid.L1_SIZES))


def prewarm_cli(store: str) -> None:
    """Run every replayed command once, so the store holds its results."""
    from repro import cli

    for argv in grid.CLI_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv) + grid.cli_cache_args(argv, store))
        if code != 0:
            raise SystemExit(f"set-up command failed ({code}): {argv}")


def main(workload: str, store: str) -> None:
    if workload == "full-sweep":
        prewarm_simulations(store, (grid.FULL_BUDGET,))
    elif workload == "sampled-sweep":
        # Sampled sweeps start from an empty store: set-up only builds.
        from repro.api import get_workload

        for benchmark in grid.BENCHMARKS:
            get_workload(benchmark)
    elif workload == "service-mixed":
        prewarm_simulations(store, (grid.SERVICE_FULL_BUDGET,
                                    grid.SERVICE_SAMPLED_BUDGET),
                            grid.SERVICE_BENCHMARKS)
        prewarm_service_results(store)
    elif workload == "cli-replay":
        prewarm_cli(store)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

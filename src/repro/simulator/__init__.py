"""Simulator layer: configuration, presets, cycle loop, runner, results."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("ENGINE_NAMES", "PIPELINED_PREBUFFER_ENTRIES",
                "SimulationConfig"),
    ".presets": ("FIGURE1_SCHEMES", "FIGURE5_SCHEMES", "FIGURE6_SCHEMES",
                 "SCHEMES", "configs_for_schemes", "paper_config",
                 "scheme_descriptions"),
    ".plan": ("ExperimentPlan", "PlanResults", "SimTask", "TaskFailure",
              "TaskFailureError"),
    ".runner": ("TaskCompletion", "bench_benchmark_names",
                "bench_instruction_budget", "bench_l1_sizes",
                "clear_workload_cache", "get_workload", "iter_task_results",
                "resolve_jobs", "run_tasks", "supervisor_stats"),
    ".simulator": ("Simulator", "SimulatorCheckpoint", "simulate"),
    ".stats": ("SimulationResult", "aggregate_fetch_sources",
               "aggregate_prefetch_sources", "harmonic_mean",
               "harmonic_mean_ipc", "result_delta", "speedup",
               "weighted_aggregate"),
})

"""Sampled simulation: BBV profiling, SimPoint-style interval selection,
checkpoint/restore-based sampled runs.

Workflow (see README "Sampled simulation"):

1. :func:`profile_workload` -- one functional pass over the correct path,
   yielding per-interval basic-block vectors,
2. :func:`select_intervals` -- dependency-free k-means picks K
   representative intervals plus weights,
3. a sampled execution (``repro.api.ExecutionOptions(sampled=True)``) --
   one warm-up checkpoint per (configuration, benchmark), restored per
   interval, producing a weighted
   :class:`~repro.simulator.stats.SimulationResult` estimate of the full
   run at a fraction of its cost.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bbv": ("BBVProfile", "DEFAULT_PROJECTION_DIM", "profile_workload",
             "project_counts"),
    ".checkpoint": ("CheckpointStore", "DEFAULT_STORE",
                    "clear_checkpoint_store"),
    ".proxy": ("FunctionalProfile", "functional_profile", "proxy_cycles"),
    ".sampled": ("DEFAULT_SPEC", "SamplingSpec", "get_selection"),
    ".simpoint": ("IntervalSelection", "SelectedInterval", "kmeans",
                  "select_intervals", "select_stratified"),
})

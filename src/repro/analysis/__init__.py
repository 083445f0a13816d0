"""Analysis layer: metrics, text reports, table builders.

Figure-series builders live on the :class:`repro.api.Session` façade
(``session.figure5_series()`` and friends, backed by
:mod:`repro.api.experiments`); this layer turns their outputs into
derived metrics and formatted text.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": ("budget_equivalent_size", "crossover_size", "harmonic_mean",
                 "sampling_error_report", "speedup", "speedup_table"),
    ".report": ("format_ipc_sweep", "format_key_value_table",
                "format_latency_table", "format_per_benchmark",
                "format_sampling_errors", "format_source_distribution",
                "format_speedups"),
    ".tables": ("table1", "table2", "table3"),
})

"""Memory-system substrate: caches, ports, latency model, bus, hierarchy."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".area": ("FrontEndBudget", "StructureEstimate", "estimate_structure",
              "front_end_budget"),
    ".bus": ("BusPriority", "L2Bus"),
    ".cache": ("Cache", "CacheStats"),
    ".hierarchy": ("FETCH_SOURCES", "HierarchyConfig", "MemoryHierarchy",
                   "SOURCE_L0", "SOURCE_L1", "SOURCE_L2", "SOURCE_MEMORY",
                   "SOURCE_PREBUFFER"),
    ".latency": ("CactiLikeModel", "L1_SIZES_BYTES", "L2_SIZE_BYTES",
                 "MEMORY_LATENCY_CYCLES", "access_latency",
                 "l1_latency_table", "l2_latency",
                 "one_cycle_prebuffer_entries", "pipelined_prebuffer_stages",
                 "table3_rows"),
    ".port": ("AccessPort",),
    ".replacement": ("FIFOPolicy", "LRUPolicy", "RandomPolicy", "make_policy"),
})

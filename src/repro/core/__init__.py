"""Core contribution: fetch engines (baseline, FDP, CLGP) and their parts."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".baseline": ("BaselineEngine",),
    ".classic_prefetchers": ("NextNLineEngine", "TargetLineEngine"),
    ".clgp": ("CLGPEngine",),
    ".cltq": ("CacheLineTargetQueue",),
    ".engine": ("FetchEngine", "FetchEngineConfig", "FetchStats"),
    ".fdp": ("FDPEngine",),
    ".filtering": ("EnqueueCacheProbeFilter", "NullFilter", "make_filter"),
    ".ftq": ("FetchTargetQueue",),
    ".prefetch_buffer": ("PreBufferEntry", "PrefetchBuffer"),
    ".prestage_buffer": ("PrestageBuffer",),
})

"""Simplified out-of-order back-end model (RUU, commit, data-side traffic)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dcache": ("DataCacheModel", "DataCacheStats"),
    ".pipeline": ("BackendPipeline", "BackendStats"),
})

"""Persistent artifact cache for expensive derived simulation artifacts.

Public surface:

* :func:`repro.cache.store.active_store` / :func:`configure` /
  :data:`SCHEMA_VERSION` -- the content-addressed on-disk store,
* :func:`repro.cache.keys.content_key` / :func:`stable_repr` -- stable,
  process-independent artifact keys,
* :func:`repro.cache.traces.ensure_compiled_trace` -- compiled
  correct-path traces,
* :mod:`repro.cache.results` -- full-run result caching
  (:func:`result_cache_enabled` / :func:`configure_result_cache`),
* :mod:`repro.cache.shared` -- workload-aware checkpoint pickling.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".keys": ("content_key", "stable_repr"),
    ".results": ("ENV_RESULT_CACHE_DISABLE", "RESULT_CACHE_STATS",
                 "configure_result_cache", "reset_result_stats",
                 "result_cache_enabled"),
    ".store": ("DEFAULT_CACHE_DIR", "ENV_CACHE_DIR", "ENV_CACHE_DISABLE",
               "SCHEMA_VERSION", "ArtifactStore", "FsckReport", "GcReport",
               "active_store", "cache_enabled", "configure", "frame_digest",
               "get_store", "reset_configuration", "restore_configuration",
               "snapshot_configuration", "temporary_cache_dir",
               "unframe_digest"),
    ".traces": ("clear_trace_cache", "ensure_compiled_trace", "trace_bucket"),
})

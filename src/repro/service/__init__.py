"""The experiment service: a multi-tenant HTTP front end for
:mod:`repro.api`.

Many clients submit :class:`~repro.api.spec.ExperimentSpec`s
concurrently; identical requests deduplicate onto one simulation (or a
warm result-cache replay), admission is fair round-robin with per-client
quotas and queue backpressure, and progress streams back over SSE.
Start it with ``repro-clgp serve`` or embed it via
:class:`~repro.service.server.ExperimentServer` /
:class:`~repro.service.server.ServerThread`; talk to it with
:class:`~repro.service.client.ServiceClient`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".client": ("RetryLater", "ServiceClient", "ServiceError"),
    ".codec": ("CodecError", "canonical_json", "request_key"),
    ".scheduler": ("FairScheduler", "QueueFull", "QuotaExceeded",
                   "RejectedRequest"),
    ".server": ("ExperimentServer", "ServerThread"),
})

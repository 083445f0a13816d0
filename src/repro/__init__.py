"""repro: reproduction of "Effective Instruction Prefetching via Fetch
Prestaging" (Falcon, Ramirez, Valero; IPDPS 2005).

The package implements Cache Line Guided Prestaging (CLGP), Fetch Directed
Prefetching (FDP) and non-prefetching baselines on top of a trace-driven
decoupled-front-end simulator with synthetic SPECint2000-like workloads.

Quickstart
----------
The supported entry point is the :mod:`repro.api` façade:

>>> from repro.api import ExperimentSpec, Session
>>> with Session() as session:
...     result = session.run(ExperimentSpec("CLGP+L0", "gcc",
...                                         max_instructions=5000))
>>> result.results[0].ipc > 0
True
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".faults": ("FaultPlan",),
    ".simulator": (
        "SimulationConfig", "SimulationResult", "Simulator", "TaskFailure",
        "TaskFailureError", "configs_for_schemes", "harmonic_mean_ipc",
        "paper_config", "simulate", "speedup",
    ),
    ".technology": ("TECH_045", "TECH_090", "TECHNOLOGY_ROADMAP",
                    "resolve_technology"),
    ".workloads": ("DEFAULT_MIX", "SPECINT2000_NAMES", "WorkloadProfile",
                   "build_workload", "profile_for"),
})

__version__ = "1.0.0"

__all__.append("__version__")

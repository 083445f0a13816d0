"""The execution context: the policy one run executes under.

A submission's store root and enable flag, result-replay policy and
fault plan are resolved once into a frozen :class:`ExecutionContext`,
installed for the run's thread (a :class:`contextvars.ContextVar`) and
shipped to pool workers in every chunk.  The policy readers --
``active_store``, ``result_cache_enabled``, ``active_plan`` -- answer
from it, and fall back to the process defaults (``configure*`` and the
environment) where none is installed.  Each task runs under
:meth:`ExecutionContext.for_task`, whose fresh :class:`TaskCounters`
sink counts that task's store hits and result replays alone.  The module
imports nothing from the package at import time, so every layer can
read it without import cycles.
"""

from __future__ import annotations

import contextlib
import dataclasses
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:
    from .faults import FaultPlan


@dataclass
class TaskCounters:
    """One task's artifact-store hits and full-run result replays."""

    store_hits: int = 0
    result_hits: int = 0


@dataclass(frozen=True)
class ExecutionContext:
    """Store root and enable flag, result-replay policy and fault plan
    of one run, plus the counter sink of the task running under it."""

    cache_dir: str
    cache: bool
    result_cache: bool
    faults: "FaultPlan"
    counters: TaskCounters = field(default_factory=TaskCounters,
                                   compare=False)

    @classmethod
    def resolve(cls, cache_dir: Optional[str] = None,
                cache: Optional[bool] = None,
                result_cache: Optional[bool] = None,
                faults: Union["FaultPlan", str, None] = None,
                ) -> "ExecutionContext":
        """A context with every given setting; each ``None`` one comes
        from the ambient policy (the installed context, else the
        process defaults)."""
        from .cache.results import result_cache_enabled
        from .cache.store import cache_enabled, resolved_cache_dir
        from .faults import active_plan, resolve_plan

        return cls(
            cache_dir=(str(cache_dir) if cache_dir is not None
                       else resolved_cache_dir()),
            cache=cache if cache is not None else cache_enabled(),
            result_cache=(result_cache if result_cache is not None
                          else result_cache_enabled()),
            faults=resolve_plan(faults) or active_plan(),
        )

    def for_task(self) -> "ExecutionContext":
        """The same policy with a fresh counter sink."""
        return dataclasses.replace(self, counters=TaskCounters())


_CURRENT: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "repro_execution_context", default=None)


#: ``current()``: the context installed for the calling thread, if any.
current = _CURRENT.get


@contextlib.contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Run the ``with`` body, on this thread, under ``context``."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


def count(store_hits: int = 0, result_hits: int = 0) -> None:
    """Credit store hits and result replays to the running task."""
    context = _CURRENT.get()
    if context is not None:
        context.counters.store_hits += store_hits
        context.counters.result_hits += result_hits

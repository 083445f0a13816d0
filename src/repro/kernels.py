"""Batch kernels over :class:`~repro.workloads.trace.CompiledTrace` columns.

``CompiledTrace`` freezes correct-path walks into flat ``array`` columns
(one entry per basic block), and PR 5's stream segmentation extends that
with one entry per *fetch stream*.  This module holds the dependency-free
primitives that consume those columns wholesale instead of block-by-block:

* :func:`grouped_load_miss_counts` -- the deterministic per-load miss
  draws of the proxy base pass, accumulated one chunk at a time instead
  of one float at a time;
* :func:`interval_block_counts` -- interval-boundary slicing of the block
  columns into per-interval basic-block vectors for BBV profiling;
* :class:`TwoLevelLRUReplay` -- a lean two-level LRU cache replay that is
  count-equivalent to the throwaway ``Cache`` pair the proxy feature pass
  builds per call.

Numpy policy: every kernel has a pure-python implementation that is the
reference semantics; when numpy is importable (it is an *optional*
accelerator, never a dependency) a vectorized fast path is used instead.
numpy is probed on the first :func:`numpy_or_none` call, not when this
module is imported, so code paths that never run a kernel (a warm
result replay, ``repro-clgp tables``) never pay numpy's import.
The two are bit/float-identical -- the miss draws hash 64-bit lattices
whose wraparound arithmetic maps 1:1 onto ``uint64`` vectors, and every
count is an exact integer -- and the differential suite in
``tests/test_kernels.py`` holds them to that.  Set ``REPRO_NO_NUMPY=1``
to force the fallback, and ``REPRO_NO_BATCH=1`` to disable the batched
passes entirely (the block-by-block interpreters remain in place as the
reference implementations).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "numpy_or_none",
    "batch_disabled",
    "grouped_load_miss_counts",
    "interval_block_counts",
    "TwoLevelLRUReplay",
]

_M64 = (1 << 64) - 1
#: splitmix64-style lattice constants; must match ``backend.dcache._hash01``.
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xD1B54A32D192ED03
_MIX_C = 0xBF58476D1CE4E5B9
_L2_SALT = 0x5A5A5A5A


def _probe_numpy():
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - image always ships numpy
        return None
    return numpy


#: Sentinel: numpy not probed yet (the first :func:`numpy_or_none` call does).
_UNPROBED = object()
_NP = _UNPROBED


def numpy_or_none():
    """The numpy module when the fast path is enabled, else ``None``."""
    global _NP
    if _NP is _UNPROBED:
        _NP = _probe_numpy()
    return _NP


def set_numpy_enabled(enabled: bool) -> bool:
    """Toggle the numpy fast path (test hook); returns the new state."""
    global _NP
    _NP = _probe_numpy() if enabled else None
    return _NP is not None


def batch_disabled() -> bool:
    """True when ``REPRO_NO_BATCH`` forces the block-by-block passes."""
    return bool(os.environ.get("REPRO_NO_BATCH"))


def _hash01(index: int, salt: int) -> float:
    """Scalar reference draw; identical to ``backend.dcache._hash01``."""
    x = (index * _MIX_A + salt * _MIX_B) & _M64
    x ^= x >> 29
    x = (x * _MIX_C) & _M64
    x ^= x >> 32
    return (x & 0xFFFFFFFF) / 2**32


def _hash01_array(np, start_index: int, count: int, salt: int):
    """Vectorized ``_hash01`` over dynamic load indices ``start..start+n``.

    ``uint64`` wraparound reproduces the python ``& _M64`` masking bit for
    bit; the salt product is pre-masked because it is a python int.
    """
    index = np.arange(start_index, start_index + count, dtype=np.uint64)
    x = index * np.uint64(_MIX_A) + np.uint64((salt * _MIX_B) & _M64)
    x ^= x >> np.uint64(29)
    x *= np.uint64(_MIX_C)
    x ^= x >> np.uint64(32)
    return (x & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2**32


def grouped_load_miss_counts(
    chunks: Sequence[Tuple[int, Tuple[float, ...]]],
    group_count: int,
    start_index: int,
    seed: int,
    l2_rate: float,
) -> Tuple[List[int], List[int]]:
    """Accumulate the proxy base pass's deterministic miss draws per group.

    ``chunks`` is the dynamic-order sequence of ``(group, probs)`` pairs
    -- ``probs`` being the per-LOAD miss probabilities of one contiguous
    chunk -- exactly as the block-by-block loop would visit them; the
    dynamic load index therefore runs ``start_index, start_index+1, ...``
    across the concatenation.  Returns per-group L1-D and L2 miss counts.
    """
    d_out = [0] * group_count
    dm_out = [0] * group_count
    np = numpy_or_none()
    if np is None:
        index = start_index
        l2_salt = seed ^ _L2_SALT
        for group, probs in chunks:
            for miss_prob in probs:
                if _hash01(index, seed) < miss_prob:
                    d_out[group] += 1
                    if _hash01(index, l2_salt) < l2_rate:
                        dm_out[group] += 1
                index += 1
        return d_out, dm_out
    groups: List[int] = []
    counts: List[int] = []
    flat: List[float] = []
    for group, probs in chunks:
        if probs:
            groups.append(group)
            counts.append(len(probs))
            flat.extend(probs)
    total = len(flat)
    if total == 0:
        return d_out, dm_out
    miss = _hash01_array(np, start_index, total, seed) < np.array(
        flat, dtype=np.float64
    )
    if miss.any():
        group_ids = np.repeat(
            np.array(groups, dtype=np.int64), np.array(counts, dtype=np.int64)
        )
        for group, value in zip(*np.unique(group_ids[miss], return_counts=True)):
            d_out[int(group)] = int(value)
        l2_miss = miss & (
            _hash01_array(np, start_index, total, seed ^ _L2_SALT) < l2_rate
        )
        for group, value in zip(*np.unique(group_ids[l2_miss], return_counts=True)):
            dm_out[int(group)] = int(value)
    return d_out, dm_out


def interval_block_counts(
    addrs: Sequence[int],
    sizes: Sequence[int],
    total_instructions: int,
    interval_length: int,
) -> List[Dict[int, int]]:
    """Slice the block columns into per-interval basic-block count vectors.

    Equivalent to draining ``trace.iter_intervals`` over the same dynamic
    block sequence: one dict per interval, keyed by block start address in
    first-occurrence order (BBV pickles hash the dict ordering, so the
    order is part of the contract).  The columns must already cover
    ``total_instructions``.
    """
    np = numpy_or_none()
    if np is None:
        return _interval_block_counts_python(
            addrs, sizes, total_instructions, interval_length
        )
    sizes_np = np.frombuffer(sizes, dtype=np.int64)
    addrs_np = np.frombuffer(addrs, dtype=np.int64)
    ends = np.cumsum(sizes_np)
    starts = ends - sizes_np
    out: List[Dict[int, int]] = []
    position = 0
    while position < total_instructions:
        end = min(position + interval_length, total_instructions)
        first = int(np.searchsorted(ends, position, side="right"))
        last = int(np.searchsorted(ends, end - 1, side="right"))
        block_addrs = addrs_np[first : last + 1]
        contrib = np.minimum(ends[first : last + 1], end) - np.maximum(
            starts[first : last + 1], position
        )
        unique, first_index, inverse = np.unique(
            block_addrs, return_index=True, return_inverse=True
        )
        sums = np.bincount(inverse, weights=contrib)
        order = np.argsort(first_index, kind="stable")
        out.append({int(unique[j]): int(sums[j]) for j in order})
        position = end
    return out


def _interval_block_counts_python(addrs, sizes, total_instructions, interval_length):
    out: List[Dict[int, int]] = []
    counts: Dict[int, int] = {}
    emitted = 0
    fill = 0
    index = 0
    while emitted < total_instructions:
        addr = addrs[index]
        size = sizes[index]
        index += 1
        while size > 0 and emitted < total_instructions:
            take = min(size, interval_length - fill, total_instructions - emitted)
            counts[addr] = counts.get(addr, 0) + take
            fill += take
            emitted += take
            size -= take
            if fill == interval_length or emitted == total_instructions:
                out.append(counts)
                counts = {}
                fill = 0
    return out


class TwoLevelLRUReplay:
    """Lean L1-I/L2 miss-count replay for the proxy feature pass.

    ``proxy.functional_profile`` builds two throwaway :class:`Cache`
    objects per call only to count fills that miss; the stamp-based LRU
    bookkeeping dominates that loop.  Each cache set here is a plain dict
    used as an ordered LRU (move-to-end on touch, evict the first key):
    because the stamp clock in ``memory.replacement.LRUPolicy`` is
    strictly increasing, insertion order *is* stamp order, so the victim
    choice -- and therefore every hit/miss count -- is identical.  Only
    counts escape this class, never cache state, so the equivalence is
    all that matters.

    The replay mirrors the exact probe/fill sequence of the interpreter
    loop: ``contains(l1)`` then ``contains(l2)`` then ``l2.fill`` then
    ``l1.fill`` -- with the hit-path touches that implies.
    """

    __slots__ = (
        "_l1_sets", "_l1_line", "_l1_nsets", "_l1_assoc",
        "_l2_sets", "_l2_line", "_l2_nsets", "_l2_assoc",
    )

    def __init__(self, l1_size, l1_line, l1_assoc, l2_size, l2_line, l2_assoc):
        self._l1_line, self._l1_nsets, self._l1_assoc = self._geometry(
            l1_size, l1_line, l1_assoc
        )
        self._l2_line, self._l2_nsets, self._l2_assoc = self._geometry(
            l2_size, l2_line, l2_assoc
        )
        self._l1_sets: Dict[int, Dict[int, bool]] = {}
        self._l2_sets: Dict[int, Dict[int, bool]] = {}

    @staticmethod
    def _geometry(size, line_size, associativity):
        # Mirrors Cache.__init__'s normalization: associativity None (or
        # larger than the cache) means fully associative.
        num_lines = max(1, size // line_size)
        if associativity is None or associativity >= num_lines:
            associativity = num_lines
        num_sets = max(1, num_lines // associativity)
        return line_size, num_sets, associativity

    @staticmethod
    def _fill(sets, index, line, associativity) -> bool:
        """One LRU fill; returns True when the line was absent (a miss)."""
        cset = sets.get(index)
        if cset is None:
            cset = sets[index] = {}
        if line in cset:
            del cset[line]
            cset[line] = True
            return False
        if len(cset) >= associativity:
            del cset[next(iter(cset))]
        cset[line] = True
        return True

    def warm(self, lines: Iterable[int]) -> None:
        """Replay a warmup line trace (l1-line-aligned) into both levels."""
        l2_line = self._l2_line
        for line in lines:
            l2_tag = line - line % l2_line
            self._fill(self._l2_sets, (l2_tag // l2_line) % self._l2_nsets,
                       l2_tag, self._l2_assoc)
            self._fill(self._l1_sets, (line // self._l1_line) % self._l1_nsets,
                       line, self._l1_assoc)

    def replay(self, lines: Iterable[int]) -> Tuple[int, int]:
        """Replay fetch lines; returns ``(l1_misses, l2_misses)``."""
        i1 = 0
        i2 = 0
        l1_sets = self._l1_sets
        l1_line = self._l1_line
        l1_nsets = self._l1_nsets
        l1_assoc = self._l1_assoc
        l2_line = self._l2_line
        for line in lines:
            index = (line // l1_line) % l1_nsets
            cset = l1_sets.get(index)
            if cset is None:
                cset = l1_sets[index] = {}
            if line in cset:
                # L1 hit: the interpreter still calls l1.fill -> touch.
                del cset[line]
                cset[line] = True
                continue
            i1 += 1
            l2_tag = line - line % l2_line
            if self._fill(self._l2_sets, (l2_tag // l2_line) % self._l2_nsets,
                          l2_tag, self._l2_assoc):
                i2 += 1
            if len(cset) >= l1_assoc:
                del cset[next(iter(cset))]
            cset[line] = True
        return i1, i2

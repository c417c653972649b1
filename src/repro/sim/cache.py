"""Cycle-approximate cache and DRAM timing model.

The paper's performance results (Figures 1-4) are driven by one architectural
mechanism: CHERI capabilities are 256 bits, so pointer-dense data structures
occupy four times the cache footprint of 64-bit pointers, and pointer-chasing
workloads (Olden) pay extra cache misses while compute-bound workloads
(Dhrystone) and streaming workloads (tcpdump, zlib) do not.  The evaluation
platform is described in §5.2: 16 KB L1 data cache, 64 KB L2, with DRAM that
is fast relative to the 100 MHz core.

This module supplies that mechanism to both execution engines:

* the ISA simulator feeds every data access through a :class:`MemoryHierarchy`
  and accumulates stall cycles;
* the abstract-machine interpreter (used for the workload figures) feeds its
  memory-access stream through the same hierarchy, so the MIPS-ABI and
  capability-ABI builds of a workload differ exactly where the paper says they
  do — in the size of the pointers they move through the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import CacheConfig, TimingConfig


@dataclass(slots=True)
class AccessStats:
    """Counters accumulated by a cache level or by the whole hierarchy."""

    reads: int = 0
    writes: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def hits(self) -> int:
        return self.reads + self.writes - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheLevel:
    """A set-associative cache with true-LRU replacement.

    Only presence/absence is modelled (no data storage): the simulator and the
    interpreter keep the authoritative memory contents, and the cache decides
    how many cycles each access costs.  Line size and set count are powers of
    two (:class:`CacheConfig` enforces it), so lines and sets are shifts and
    masks.
    """

    __slots__ = ("config", "name", "stats", "_sets", "_mru", "_line_shift",
                 "_set_mask", "_associativity")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = AccessStats()
        # Each set maps line number -> 0.  The dict is kept in recency order
        # (hits delete + reinsert), so the LRU victim is always the first
        # key — no O(ways) min() scan on evictions.  ``_mru`` holds each
        # set's last key (None while the set is empty): touching it again
        # leaves the order unchanged, so it is a hit with no dict work.
        self._sets: list[dict[int, int]] = [dict() for _ in range(config.num_sets)]
        self._mru: list[int | None] = [None] * config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._associativity = config.associativity

    def reset(self) -> None:
        """Drop all cached lines and statistics.

        Mutates in place (rather than rebinding) so that references captured
        by the predecoded interpreter's inline MRU check stay valid.
        """
        stats = self.stats
        stats.reads = stats.writes = stats.misses = 0
        for cache_set in self._sets:
            cache_set.clear()
        self._mru[:] = [None] * len(self._mru)

    def access(self, address: int, *, is_write: bool) -> bool:
        """Touch the line containing ``address``; return True on a hit.

        The one LRU body: both levels of :class:`MemoryHierarchy` run it, and
        the interpreter's generated load/store handlers inline only the MRU
        test, counting the access as a hit when it passes.
        """
        line = address >> self._line_shift
        index = line & self._set_mask
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        mru = self._mru
        if mru[index] == line:
            return True
        mru[index] = line
        cache_set = self._sets[index]
        if line in cache_set:
            # Refresh recency: delete + reinsert moves the key to the end of
            # the dict's insertion order, so iteration order == LRU order.
            del cache_set[line]
            cache_set[line] = 0
            return True
        stats.misses += 1
        if len(cache_set) >= self._associativity:
            del cache_set[next(iter(cache_set))]
        cache_set[line] = 0
        return False


@dataclass
class HierarchyStats:
    """Aggregated statistics for a full run through the hierarchy."""

    l1: AccessStats = field(default_factory=AccessStats)
    l2: AccessStats = field(default_factory=AccessStats)
    dram_accesses: int = 0
    stall_cycles: int = 0


class MemoryHierarchy:
    """Two-level cache + DRAM latency model matching the evaluation platform.

    Every L1 miss is one L2 access and every L2 miss one DRAM access, so the
    stall cycles follow from the levels' counters and are never accumulated.
    """

    __slots__ = ("timing", "l1", "l2", "_line_shift", "_l1_hit_latency",
                 "_l2_hit_latency", "_dram_latency")

    def __init__(self, timing: TimingConfig | None = None) -> None:
        self.timing = timing or TimingConfig()
        self.l1 = CacheLevel(self.timing.l1, "L1")
        self.l2 = CacheLevel(self.timing.l2, "L2")
        self._line_shift = self.l1._line_shift
        self._l1_hit_latency = self.timing.l1.hit_latency
        self._l2_hit_latency = self.timing.l2.hit_latency
        self._dram_latency = self.timing.dram_latency

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()

    @property
    def dram_accesses(self) -> int:
        return self.l2.stats.misses

    @property
    def stall_cycles(self) -> int:
        l1 = self.l1.stats
        return (l1.accesses * self._l1_hit_latency
                + l1.misses * self._l2_hit_latency
                + self.l2.stats.misses * self._dram_latency)

    def access(self, address: int, size: int, *, is_write: bool = False) -> int:
        """Model an access of ``size`` bytes at ``address``; return its cycles.

        The access touches every L1 line it covers (a 32-byte capability
        within one 64-byte line touches one; a misaligned multi-line access
        touches each), and each L1 miss goes on to L2 at the line's address.
        """
        shift = self._line_shift
        first = address >> shift
        last = (address + size - 1) >> shift if size > 1 else first
        cycles = 0
        for line in range(first, last + 1):
            cycles += self._l1_hit_latency
            line_address = line << shift
            if not self.l1.access(line_address, is_write=is_write):
                cycles += self._l2_hit_latency
                if not self.l2.access(line_address, is_write=is_write):
                    cycles += self._dram_latency
        return cycles

    def access_run(self, address: int, count: int) -> int:
        """Charge ``count`` consecutive 1-byte reads starting at ``address``.

        Observationally identical to calling ``access(a, 1)`` for every byte:
        after the first byte of a line is touched, the remaining bytes of
        that line are hits on the set's MRU line, whose only effect is the
        read counter.  This turns the per-byte loops of
        ``read_cstring``/string intrinsics into O(lines) instead of O(bytes)
        without changing a single counter.
        """
        if count <= 0:
            return 0
        shift = self._line_shift
        lines = ((address + count - 1) >> shift) - (address >> shift) + 1
        extra = count - lines
        self.l1.stats.reads += extra
        return self.access(address, count) + extra * self._l1_hit_latency

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1=self.l1.stats,
            l2=self.l2.stats,
            dram_accesses=self.dram_accesses,
            stall_cycles=self.stall_cycles,
        )

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
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheLevel:
    """A set-associative cache with true-LRU replacement.

    Only presence/absence is modelled (no data storage): the simulator and the
    interpreter keep the authoritative memory contents, and the cache decides
    how many cycles each access costs.
    """

    __slots__ = ("config", "name", "stats", "_sets", "_line_bytes",
                 "_num_sets", "_associativity")

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = AccessStats()
        # Each set maps line tag -> 0.  The dict is kept in recency order
        # (hits delete + reinsert), so the LRU victim is always the first
        # key — no O(ways) min() scan on evictions.
        self._sets: list[dict[int, int]] = [dict() for _ in range(config.num_sets)]
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity

    def reset(self) -> None:
        """Drop all cached lines and statistics.

        Mutates in place (rather than rebinding) so that references captured
        by the predecoded interpreter's inline L1 path stay valid.
        """
        stats = self.stats
        stats.reads = stats.writes = stats.hits = stats.misses = 0
        for cache_set in self._sets:
            cache_set.clear()

    def access(self, address: int, *, is_write: bool) -> bool:
        """Touch the line containing ``address``; return True on a hit.

        NOTE: MemoryHierarchy.access inlines a copy of this body for the
        single-line L1 case — keep the two in sync when changing counters,
        recency handling or eviction.
        """
        line = address // self._line_bytes
        num_sets = self._num_sets
        cache_set = self._sets[line % num_sets]
        tag = line // num_sets
        stats = self.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if tag in cache_set:
            # Refresh recency: delete + reinsert moves the key to the end of
            # the dict's insertion order, so iteration order == LRU order.
            del cache_set[tag]
            cache_set[tag] = 0
            stats.hits += 1
            return True
        stats.misses += 1
        if len(cache_set) >= self._associativity:
            del cache_set[next(iter(cache_set))]
        cache_set[tag] = 0
        return False

    def lines_touched(self, address: int, size: int) -> list[int]:
        """Addresses of the first byte of every cache line the access covers."""
        first = address - (address % self.config.line_bytes)
        last = (address + max(size, 1) - 1) - ((address + max(size, 1) - 1) % self.config.line_bytes)
        return list(range(first, last + 1, self.config.line_bytes))


@dataclass
class HierarchyStats:
    """Aggregated statistics for a full run through the hierarchy."""

    l1: AccessStats = field(default_factory=AccessStats)
    l2: AccessStats = field(default_factory=AccessStats)
    dram_accesses: int = 0
    stall_cycles: int = 0


class MemoryHierarchy:
    """Two-level cache + DRAM latency model matching the evaluation platform."""

    __slots__ = ("timing", "l1", "l2", "dram_accesses", "stall_cycles",
                 "_l1_hit_latency", "_l2_hit_latency", "_dram_latency")

    def __init__(self, timing: TimingConfig | None = None) -> None:
        self.timing = timing or TimingConfig()
        self.l1 = CacheLevel(self.timing.l1, "L1")
        self.l2 = CacheLevel(self.timing.l2, "L2")
        self.dram_accesses = 0
        self.stall_cycles = 0
        self._l1_hit_latency = self.timing.l1.hit_latency
        self._l2_hit_latency = self.timing.l2.hit_latency
        self._dram_latency = self.timing.dram_latency

    def reset(self) -> None:
        self.l1.reset()
        self.l2.reset()
        self.dram_accesses = 0
        self.stall_cycles = 0

    def access(self, address: int, size: int, *, is_write: bool = False) -> int:
        """Model an access of ``size`` bytes at ``address``; return its cycles.

        Accesses larger than a cache line (e.g. a 32-byte capability store
        with 64-byte lines stays within one line, but a misaligned multi-line
        access would not) touch every covered line.

        The single-line case — every scalar access the interpreter issues —
        runs the L1 lookup inline (same counters/LRU updates as
        :meth:`CacheLevel.access`) to avoid three Python calls per access.
        """
        l1 = self.l1
        line_bytes = l1._line_bytes
        line = address // line_bytes
        last_byte = address + size - 1
        if last_byte < address:
            last_byte = address
        if last_byte // line_bytes == line:
            num_sets = l1._num_sets
            cache_set = l1._sets[line % num_sets]
            tag = line // num_sets
            stats = l1.stats
            if is_write:
                stats.writes += 1
            else:
                stats.reads += 1
            if tag in cache_set:
                del cache_set[tag]
                cache_set[tag] = 0
                stats.hits += 1
                total = self._l1_hit_latency
            else:
                stats.misses += 1
                if len(cache_set) >= l1._associativity:
                    del cache_set[next(iter(cache_set))]
                cache_set[tag] = 0
                total = self._l1_hit_latency + self._l2_hit_latency
                if not self.l2.access(line * line_bytes, is_write=is_write):
                    self.dram_accesses += 1
                    total += self._dram_latency
            self.stall_cycles += total
            return total
        total = 0
        for line_address in l1.lines_touched(address, size):
            total += self._access_line(line_address, is_write=is_write)
        self.stall_cycles += total
        return total

    def access_run(self, address: int, count: int) -> int:
        """Charge ``count`` consecutive 1-byte reads starting at ``address``.

        Observationally identical to calling ``access(a, 1)`` for every byte:
        after the first byte of a line is touched, the remaining bytes of
        that line are guaranteed L1 hits whose only effects are the hit/read
        counters and the hit latency — the delete+reinsert
        recency refresh is a no-op for a line that is already most recent.
        This turns the per-byte loops of ``read_cstring``/string intrinsics
        into O(lines) instead of O(bytes) without changing a single counter.
        """
        if count <= 0:
            return 0
        total = 0
        l1 = self.l1
        line_bytes = l1._line_bytes
        stats = l1.stats
        hit_latency = self._l1_hit_latency
        end = address + count
        while address < end:
            line_end = address - (address % line_bytes) + line_bytes
            chunk = (line_end if line_end < end else end) - address
            total += self.access(address, 1, is_write=False)
            extra = chunk - 1
            if extra:
                stats.reads += extra
                stats.hits += extra
                bulk = extra * hit_latency
                self.stall_cycles += bulk
                total += bulk
            address += chunk
        return total

    def _access_line(self, address: int, *, is_write: bool) -> int:
        cycles = self._l1_hit_latency
        if self.l1.access(address, is_write=is_write):
            return cycles
        cycles += self._l2_hit_latency
        if self.l2.access(address, is_write=is_write):
            return cycles
        self.dram_accesses += 1
        return cycles + self._dram_latency

    def stats(self) -> HierarchyStats:
        return HierarchyStats(
            l1=self.l1.stats,
            l2=self.l2.stats,
            dram_accesses=self.dram_accesses,
            stall_cycles=self.stall_cycles,
        )

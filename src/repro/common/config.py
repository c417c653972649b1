"""Configuration dataclasses shared by the simulator and the interpreters.

The defaults follow the evaluation platform described in §5.2 of the paper:
a CHERI softcore synthesised at 100 MHz on a Stratix IV FPGA with a 16 KB L1
data cache and a 64 KB L2 cache, and DRAM that is fast relative to the CPU
clock (cache misses are common but comparatively cheap).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a single cache level.

    Line size and set count are powers of two, as in real caches, so the
    cache model finds a line and its set with a shift and a mask.
    """

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 4
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a multiple of line size * associativity")
        for what, count in (("line size", self.line_bytes), ("set count", self.num_sets)):
            if count < 1 or count & (count - 1):
                raise ValueError(f"cache {what} must be a power of two, got {count}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class TimingConfig:
    """Latency model for the memory hierarchy and basic instruction costs.

    ``dram_latency`` is deliberately modest: the paper notes that, at 100 MHz,
    DDR DRAM is fast relative to the CPU, so misses are common but cheap.
    """

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=64 * 1024, hit_latency=6))
    dram_latency: int = 30
    base_instruction_cost: int = 1
    branch_cost: int = 2
    call_cost: int = 3
    clock_hz: int = 100_000_000


@dataclass(frozen=True)
class MachineConfig:
    """Top-level configuration for a simulated machine or abstract machine."""

    memory_bytes: int = 64 * 1024 * 1024
    stack_bytes: int = 1 * 1024 * 1024
    heap_base: int = 0x1000_0000
    stack_top: int = 0x3000_0000
    timing: TimingConfig = field(default_factory=TimingConfig)

"""The CHERI softcore machine simulator.

The simulator executes programs assembled by :class:`repro.isa.assembler.Assembler`
on a functional model of the CHERI-MIPS machine:

* :mod:`repro.sim.memory` — byte-addressable tagged memory (one tag bit per
  256-bit capability-sized line), including the tag-clearing behaviour on
  non-capability stores that the paper relies on for union safety.
* :mod:`repro.sim.cache` — a two-level set-associative cache model with the
  evaluation platform's geometry (16 KB L1, 64 KB L2) used for the
  cycle-approximate timing results.
* :mod:`repro.sim.cpu` — the fetch/decode/execute loop, capability-checked
  memory access paths and trap handling.
* :mod:`repro.sim.syscalls` — the minimal OS layer (exit, putchar, sbrk) used
  by assembly test programs.

The abstract-machine interpreter uses the memory and the cache model; the
package re-exports only those two, so the interpreter never loads the CPU.
"""

from repro.sim.memory import TaggedMemory
from repro.sim.cache import CacheLevel, MemoryHierarchy, AccessStats

__all__ = [
    "TaggedMemory",
    "CacheLevel",
    "MemoryHierarchy",
    "AccessStats",
]

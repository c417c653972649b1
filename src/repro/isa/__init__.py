"""CHERI-MIPS instruction-set architecture model.

This package defines the architectural state and instruction set of the
reproduction's CHERI softcore:

* :mod:`repro.isa.capability` — the 256-bit memory capability, in both the
  CHERIv2 form ``(base, length, permissions)`` and the CHERIv3 refinement
  ``(base, length, offset, permissions)`` that the paper introduces.  It is
  the one module the abstract-machine interpreter uses (through
  :class:`repro.sim.memory.TaggedMemory`).
* :mod:`repro.isa.registers` — the general-purpose and capability register
  files, including the special registers (PCC, default data capability, stack
  capability).
* :mod:`repro.isa.instructions` — the 33 instructions that the Table 2
  validation program and the ISA tests assemble, including the six new
  CHERIv3 instructions of Table 2 (CIncOffset, CSetOffset, CGetOffset,
  CPtrCmp, CFromPtr, CToPtr).
* :mod:`repro.isa.assembler` — a text assembler producing instruction lists
  for the simulator in :mod:`repro.sim.cpu`.

The package re-exports only the capability model, so importing it (as every
interpreter process does) does not load the instruction set or the assembler.
"""

from repro.isa.capability import (
    Permission,
    Capability,
    NULL_CAPABILITY,
    make_default_capability,
)

__all__ = [
    "Permission",
    "Capability",
    "NULL_CAPABILITY",
    "make_default_capability",
]

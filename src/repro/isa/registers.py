"""Register files of the CHERI-MIPS machine.

The machine has:

* 32 general-purpose 64-bit registers with the usual MIPS names.  ``$zero``
  is hard-wired to 0.
* 32 capability registers, plus the special capability registers the paper
  relies on: the program-counter capability (PCC), the default data
  capability (DDC, ``$c0``) through which legacy MIPS loads and stores are
  indirected, and the stack capability.
"""

from __future__ import annotations

from repro.common.bitops import to_unsigned
from repro.common.errors import SimulationError
from repro.isa.capability import Capability, NULL_CAPABILITY

#: Canonical MIPS register names, index 0..31.
GPR_NAMES = (
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
    "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
    "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
)

#: Capability register names: $c0 is the default data capability (DDC),
#: $c11 is conventionally the stack capability.
CAP_REG_NAMES = tuple(f"c{i}" for i in range(32))

_GPR_INDEX = {name: i for i, name in enumerate(GPR_NAMES)}
_CAP_INDEX = {name: i for i, name in enumerate(CAP_REG_NAMES)}

#: Capability registers the CPU initialises with the default capability.
DDC_REG = 0
STACK_CAP_REG = 11


def gpr_index(name: str) -> int:
    """Resolve a register name (``"t0"`` or ``"$t0"`` or ``"r8"``) to an index."""
    name = name.lstrip("$").lower()
    if name in _GPR_INDEX:
        return _GPR_INDEX[name]
    if name.startswith("r") and name[1:].isdigit():
        idx = int(name[1:])
        if 0 <= idx < 32:
            return idx
    raise SimulationError(f"unknown general-purpose register {name!r}")


def cap_index(name: str) -> int:
    """Resolve a capability register name (``"c3"`` or ``"$c3"``) to an index."""
    name = name.lstrip("$").lower()
    if name in _CAP_INDEX:
        return _CAP_INDEX[name]
    raise SimulationError(f"unknown capability register {name!r}")


class RegisterFile:
    """The 32-entry general-purpose register file."""

    def __init__(self) -> None:
        self._regs = [0] * 32

    def read(self, index: int) -> int:
        if not 0 <= index < 32:
            raise SimulationError(f"GPR index out of range: {index}")
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < 32:
            raise SimulationError(f"GPR index out of range: {index}")
        if index == 0:
            return  # $zero is hard-wired
        self._regs[index] = to_unsigned(value, 64)

    def read_named(self, name: str) -> int:
        return self.read(gpr_index(name))

    def write_named(self, name: str, value: int) -> None:
        self.write(gpr_index(name), value)


class CapabilityRegisterFile:
    """The 32-entry capability register file plus PCC."""

    def __init__(self, default_capability: Capability | None = None) -> None:
        self._regs = [NULL_CAPABILITY] * 32
        self.pcc = NULL_CAPABILITY
        if default_capability is not None:
            self._regs[DDC_REG] = default_capability
            self._regs[STACK_CAP_REG] = default_capability
            self.pcc = default_capability

    def read(self, index: int) -> Capability:
        if not 0 <= index < 32:
            raise SimulationError(f"capability register index out of range: {index}")
        return self._regs[index]

    def write(self, index: int, value: Capability) -> None:
        if not 0 <= index < 32:
            raise SimulationError(f"capability register index out of range: {index}")
        if not isinstance(value, Capability):
            raise SimulationError("capability registers only hold Capability values")
        self._regs[index] = value

    @property
    def ddc(self) -> Capability:
        """The default data capability through which MIPS loads/stores go."""
        return self._regs[DDC_REG]

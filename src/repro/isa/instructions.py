"""Instruction set of the CHERI-MIPS machine.

The instruction set is the part of CHERI-MIPS that the Table 2 validation
program and the ISA tests assemble, in two halves:

* a few 64-bit MIPS instructions (``daddu``, ``dadd``, ``dsubu``,
  ``ddivu``, ``daddiu``, ``dsll``, ``li``, ``move``, ``beq``, ``j``,
  ``syscall``) and the doubleword ``ld``/``sd``, whose accesses are
  indirected through the default data capability exactly as described in
  §4 of the paper ("Legacy MIPS loads and stores are relative to the
  default data capability"), and
* the CHERI capability extensions, including the six instructions the paper
  adds to better support C (Table 2): ``CIncOffset``, ``CSetOffset``,
  ``CGetOffset``, ``CPtrCmp``, ``CFromPtr`` and ``CToPtr``.

Instructions are small dataclasses with an :meth:`Instruction.execute` method
that manipulates a CPU object.  The CPU (:class:`repro.sim.cpu.CheriCpu`)
provides the guarded memory-access helpers, so the capability checks live in
one place and are shared by every memory instruction.

Program counters are *instruction indices* into the assembled program rather
than byte addresses: the simulator is a functional model, and keeping the code
space abstract keeps the assembler and the loader simple without affecting any
behaviour the paper evaluates (the data address space is fully modelled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

from repro.common.bitops import to_signed, to_unsigned
from repro.common.errors import SimulationError, TrapError
from repro.isa.capability import NULL_CAPABILITY, Permission, capability_from_int

_MASK64 = (1 << 64) - 1

#: mnemonic -> instruction class, populated by the :func:`register` decorator.
INSTRUCTION_SET: dict[str, type["Instruction"]] = {}


def register(cls: type["Instruction"]) -> type["Instruction"]:
    """Class decorator adding an instruction to :data:`INSTRUCTION_SET`."""
    mnemonic = cls.mnemonic
    if mnemonic in INSTRUCTION_SET:
        raise SimulationError(f"duplicate instruction mnemonic {mnemonic!r}")
    INSTRUCTION_SET[mnemonic] = cls
    return cls


@dataclass
class Instruction:
    """Base class of every instruction."""

    mnemonic: ClassVar[str] = "<abstract>"
    #: operand categories, used by the assembler for parsing and validation:
    #: 'r' GPR, 'c' capability register, 'i' immediate, 'm' memory operand
    #: (offset(base-register)), 'l' label.
    operand_kinds: ClassVar[tuple[str, ...]] = ()
    #: latency class used by the timing model: 'alu', 'branch', 'memory',
    #: 'jump', 'cap' (capability manipulation executes in the ALU stage).
    latency_class: ClassVar[str] = "alu"

    def execute(self, cpu) -> None:  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} does not implement execute")


# ---------------------------------------------------------------------------
# Integer arithmetic
# ---------------------------------------------------------------------------


@dataclass
class _ThreeReg(Instruction):
    rd: int = 0
    rs: int = 0
    rt: int = 0
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "r", "r")

    def _operands(self, cpu) -> tuple[int, int]:
        return cpu.gpr.read(self.rs), cpu.gpr.read(self.rt)


@dataclass
class _TwoRegImm(Instruction):
    rt: int = 0
    rs: int = 0
    imm: int = 0
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "r", "i")


@register
@dataclass
class Daddu(_ThreeReg):
    """Unsigned 64-bit addition (wraps, never traps)."""

    mnemonic: ClassVar[str] = "daddu"

    def execute(self, cpu) -> None:
        a, b = self._operands(cpu)
        cpu.gpr.write(self.rd, (a + b) & _MASK64)


@register
@dataclass
class Dadd(_ThreeReg):
    """Signed 64-bit addition that traps on overflow.

    This models the "cheap trapping on overflow in hardware" implementation
    sketched in §3.1.1 of the paper: the MIPS heritage already distinguishes
    trapping and non-trapping adds.
    """

    mnemonic: ClassVar[str] = "dadd"

    def execute(self, cpu) -> None:
        a, b = self._operands(cpu)
        result = to_signed(a) + to_signed(b)
        if not (-(1 << 63) <= result < (1 << 63)):
            raise TrapError("signed integer overflow in dadd", cause="overflow", pc=cpu.pc)
        cpu.gpr.write(self.rd, to_unsigned(result, 64))


@register
@dataclass
class Dsubu(_ThreeReg):
    mnemonic: ClassVar[str] = "dsubu"

    def execute(self, cpu) -> None:
        a, b = self._operands(cpu)
        cpu.gpr.write(self.rd, (a - b) & _MASK64)


@register
@dataclass
class Ddivu(_ThreeReg):
    mnemonic: ClassVar[str] = "ddivu"

    def execute(self, cpu) -> None:
        a, b = self._operands(cpu)
        if b == 0:
            raise TrapError("division by zero", cause="divide", pc=cpu.pc)
        cpu.gpr.write(self.rd, a // b)


@register
@dataclass
class Daddiu(_TwoRegImm):
    mnemonic: ClassVar[str] = "daddiu"

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rt, (cpu.gpr.read(self.rs) + self.imm) & _MASK64)


@register
@dataclass
class Dsll(_TwoRegImm):
    mnemonic: ClassVar[str] = "dsll"

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rt, (cpu.gpr.read(self.rs) << (self.imm & 63)) & _MASK64)


@register
@dataclass
class Li(Instruction):
    """Load-immediate pseudo-instruction (expands lui/ori sequences away)."""

    mnemonic: ClassVar[str] = "li"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "i")
    rt: int = 0
    imm: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rt, to_unsigned(self.imm, 64))


@register
@dataclass
class Move(Instruction):
    mnemonic: ClassVar[str] = "move"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "r")
    rd: int = 0
    rs: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rd, cpu.gpr.read(self.rs))


# ---------------------------------------------------------------------------
# Legacy MIPS loads and stores (indirected through the default data capability)
# ---------------------------------------------------------------------------


@dataclass
class _MemoryInstruction(Instruction):
    rt: int = 0
    offset: int = 0
    base: int = 0
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "m")
    latency_class: ClassVar[str] = "memory"

    def _address(self, cpu) -> int:
        return (cpu.gpr.read(self.base) + self.offset) & _MASK64


@register
@dataclass
class Ld(_MemoryInstruction):
    mnemonic: ClassVar[str] = "ld"

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rt, cpu.load_via_ddc(self._address(cpu), 8))


@register
@dataclass
class Sd(_MemoryInstruction):
    mnemonic: ClassVar[str] = "sd"

    def execute(self, cpu) -> None:
        cpu.store_via_ddc(self._address(cpu), 8, cpu.gpr.read(self.rt))


# ---------------------------------------------------------------------------
# Branches and jumps
# ---------------------------------------------------------------------------


@register
@dataclass
class Beq(Instruction):
    mnemonic: ClassVar[str] = "beq"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "r", "l")
    latency_class: ClassVar[str] = "branch"
    rs: int = 0
    rt: int = 0
    target: int | str = 0

    def execute(self, cpu) -> None:
        if cpu.gpr.read(self.rs) == cpu.gpr.read(self.rt):
            cpu.branch_to(self.target)


@register
@dataclass
class J(Instruction):
    mnemonic: ClassVar[str] = "j"
    operand_kinds: ClassVar[tuple[str, ...]] = ("l",)
    latency_class: ClassVar[str] = "jump"
    target: int | str = 0

    def execute(self, cpu) -> None:
        cpu.branch_to(self.target)


@register
@dataclass
class Syscall(Instruction):
    mnemonic: ClassVar[str] = "syscall"
    operand_kinds: ClassVar[tuple[str, ...]] = ()

    def execute(self, cpu) -> None:
        cpu.syscall()


# ---------------------------------------------------------------------------
# CHERI capability instructions
# ---------------------------------------------------------------------------


@dataclass
class _CapInstruction(Instruction):
    latency_class: ClassVar[str] = "cap"


@register
@dataclass
class CGetLen(_CapInstruction):
    mnemonic: ClassVar[str] = "cgetlen"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "c")
    rd: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rd, cpu.cap.read(self.cb).length)


@register
@dataclass
class CGetOffset(_CapInstruction):
    """Table 2: returns the current offset of a capability."""

    mnemonic: ClassVar[str] = "cgetoffset"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "c")
    rd: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rd, to_unsigned(cpu.cap.read(self.cb).offset, 64))


@register
@dataclass
class CGetTag(_CapInstruction):
    mnemonic: ClassVar[str] = "cgettag"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "c")
    rd: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rd, 1 if cpu.cap.read(self.cb).tag else 0)


@register
@dataclass
class CSetOffset(_CapInstruction):
    """Table 2: sets the offset (may leave the cursor out of bounds)."""

    mnemonic: ClassVar[str] = "csetoffset"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c", "r")
    cd: int = 0
    cb: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        value = to_signed(cpu.gpr.read(self.rt))
        cpu.cap.write(self.cd, cpu.cap.read(self.cb).with_offset(value))


@register
@dataclass
class CIncOffset(_CapInstruction):
    """Table 2: adds an integer to the offset."""

    mnemonic: ClassVar[str] = "cincoffset"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c", "r")
    cd: int = 0
    cb: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        value = to_signed(cpu.gpr.read(self.rt))
        cpu.cap.write(self.cd, cpu.cap.read(self.cb).with_offset_increment(value))


@register
@dataclass
class CSetBounds(_CapInstruction):
    """Narrow a capability to [cursor, cursor + rt) — the allocator primitive."""

    mnemonic: ClassVar[str] = "csetbounds"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c", "r")
    cd: int = 0
    cb: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        source = cpu.cap.read(self.cb)
        length = cpu.gpr.read(self.rt)
        cpu.cap.write(self.cd, source.with_bounds(source.address, length))


@register
@dataclass
class CAndPerm(_CapInstruction):
    mnemonic: ClassVar[str] = "candperm"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c", "r")
    cd: int = 0
    cb: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        mask = Permission(cpu.gpr.read(self.rt) & int(Permission.all()))
        cpu.cap.write(self.cd, cpu.cap.read(self.cb).with_permissions_masked(mask))


@register
@dataclass
class CClearTag(_CapInstruction):
    mnemonic: ClassVar[str] = "ccleartag"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c")
    cd: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.cap.write(self.cd, cpu.cap.read(self.cb).without_tag())


@register
@dataclass
class CGetPcc(_CapInstruction):
    mnemonic: ClassVar[str] = "cgetpcc"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c",)
    cd: int = 0

    def execute(self, cpu) -> None:
        cpu.cap.write(self.cd, cpu.cap.pcc)


@register
@dataclass
class CPtrCmp(_CapInstruction):
    """Table 2: compares two capabilities as if they were pointers.

    ``op`` selects the predicate (eq, ne, lt, le, ltu, leu).  Tagged
    capabilities order after untagged capabilities so that integers stored in
    capability registers (offsets of NULL) never compare equal to a valid
    pointer (paper §4.1).
    """

    mnemonic: ClassVar[str] = "cptrcmp"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "c", "c", "i")
    rd: int = 0
    cb: int = 0
    ct: int = 0
    op: int | str = "eq"

    _PREDICATES: ClassVar[dict[str, Callable[[tuple[int, int], tuple[int, int]], bool]]] = {
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "ltu": lambda a, b: a < b,
        "leu": lambda a, b: a <= b,
    }

    def execute(self, cpu) -> None:
        predicate = str(self.op)
        if predicate not in self._PREDICATES:
            raise SimulationError(f"unknown CPtrCmp predicate {predicate!r}")
        a = cpu.cap.read(self.cb).compare_key()
        b = cpu.cap.read(self.ct).compare_key()
        cpu.gpr.write(self.rd, 1 if self._PREDICATES[predicate](a, b) else 0)


@register
@dataclass
class CFromPtr(_CapInstruction):
    """Table 2: converts a MIPS pointer into a capability.

    The result is derived from the base capability ``cb`` with its offset set
    to the integer pointer.  A zero pointer produces the canonical NULL
    capability, preserving C's null-pointer semantics (paper §4.2).
    """

    mnemonic: ClassVar[str] = "cfromptr"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c", "r")
    cd: int = 0
    cb: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        pointer = cpu.gpr.read(self.rt)
        if pointer == 0:
            cpu.cap.write(self.cd, NULL_CAPABILITY)
        else:
            cpu.cap.write(self.cd, cpu.cap.read(self.cb).with_offset(pointer))


@register
@dataclass
class CToPtr(_CapInstruction):
    """Table 2: converts a capability into a MIPS pointer relative to ``ct``.

    Produces 0 when the capability is untagged or falls outside the base
    capability, so capability-oblivious code sees NULL rather than a forged
    address.
    """

    mnemonic: ClassVar[str] = "ctoptr"
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "c", "c")
    rd: int = 0
    cb: int = 0
    ct: int = 0

    def execute(self, cpu) -> None:
        cpu.gpr.write(self.rd, cpu.cap.read(self.cb).to_pointer(cpu.cap.read(self.ct)))


@register
@dataclass
class CSetFromInt(_CapInstruction):
    """Materialise an integer in a capability register (intcap_t support).

    Models the compiler idiom of building ``intcap_t`` values as offsets of
    the canonical NULL capability; not a hardware instruction but a pseudo-op
    the assembler accepts for writing tests and intrinsics.
    """

    mnemonic: ClassVar[str] = "cfromint"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "r")
    cd: int = 0
    rt: int = 0

    def execute(self, cpu) -> None:
        cpu.cap.write(self.cd, capability_from_int(cpu.gpr.read(self.rt)))


# -- capability-relative loads and stores -----------------------------------


@dataclass
class _CapMemory(_CapInstruction):
    rt: int = 0
    offset: int = 0
    cb: int = 0
    operand_kinds: ClassVar[tuple[str, ...]] = ("r", "i", "c")
    latency_class: ClassVar[str] = "memory"


@register
@dataclass
class Clw(_CapMemory):
    mnemonic: ClassVar[str] = "clw"

    def execute(self, cpu) -> None:
        value = cpu.load_via_capability(self.cb, self.offset, 4, signed=True)
        cpu.gpr.write(self.rt, to_unsigned(value, 64))


@register
@dataclass
class Csw(_CapMemory):
    mnemonic: ClassVar[str] = "csw"

    def execute(self, cpu) -> None:
        cpu.store_via_capability(self.cb, self.offset, 4, cpu.gpr.read(self.rt))


@register
@dataclass
class Csb(_CapMemory):
    mnemonic: ClassVar[str] = "csb"

    def execute(self, cpu) -> None:
        cpu.store_via_capability(self.cb, self.offset, 1, cpu.gpr.read(self.rt))


@register
@dataclass
class Clc(_CapInstruction):
    """Load a capability (with its tag) from memory."""

    mnemonic: ClassVar[str] = "clc"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "i", "c")
    latency_class: ClassVar[str] = "memory"
    cd: int = 0
    offset: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.cap.write(self.cd, cpu.load_capability(self.cb, self.offset))


@register
@dataclass
class Csc(_CapInstruction):
    """Store a capability (with its tag) to memory."""

    mnemonic: ClassVar[str] = "csc"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "i", "c")
    latency_class: ClassVar[str] = "memory"
    cs: int = 0
    offset: int = 0
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.store_capability(self.cb, self.offset, cpu.cap.read(self.cs))


@register
@dataclass
class Cjr(_CapInstruction):
    """Capability jump: install the target capability as PCC."""

    mnemonic: ClassVar[str] = "cjr"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c",)
    latency_class: ClassVar[str] = "jump"
    cb: int = 0

    def execute(self, cpu) -> None:
        cpu.capability_jump(self.cb)


@register
@dataclass
class Cjalr(_CapInstruction):
    """Capability jump-and-link (paper §4.2): replaces PCC and saves the old
    one in a link capability register, so control cannot leave the callee's
    code capability without an explicit call or return."""

    mnemonic: ClassVar[str] = "cjalr"
    operand_kinds: ClassVar[tuple[str, ...]] = ("c", "c")
    latency_class: ClassVar[str] = "jump"
    cb: int = 0
    cd: int = 0

    def execute(self, cpu) -> None:
        cpu.capability_jump(self.cb, link_register=self.cd)

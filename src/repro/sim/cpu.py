"""The CHERI CPU: fetch/decode/execute loop with capability-checked memory.

The CPU executes assembled :class:`~repro.isa.assembler.Program` objects.  It
models the three memory-access paths described in §4 of the paper:

* **instruction fetch** is relative to the program-counter capability (PCC);
* **legacy MIPS loads and stores** are relative to the default data
  capability (DDC), so unmodified MIPS code runs but is confined to the
  region the DDC grants;
* **capability loads and stores** take an explicit capability register and
  are bounds-, tag- and permission-checked against it.

The CPU also owns the cycle accounting: each executed instruction contributes
its latency-class cost, and every memory access is routed through the
:class:`~repro.sim.cache.MemoryHierarchy` so cache behaviour contributes stall
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MachineConfig
from repro.common.errors import MemorySafetyError, SimulationError, TrapError
from repro.isa.assembler import DATA_BASE, Program
from repro.isa.capability import (
    CAPABILITY_SIZE,
    Capability,
    Permission,
    make_default_capability,
)
from repro.isa.registers import CapabilityRegisterFile, RegisterFile
from repro.sim.cache import MemoryHierarchy
from repro.sim.memory import TaggedMemory
from repro.sim.syscalls import SyscallHandler


@dataclass
class CpuState:
    """A summary of an execution, returned by :meth:`CheriCpu.run`."""

    instructions_executed: int = 0
    cycles: int = 0
    exit_status: int | None = None
    output: str = ""
    trap: TrapError | None = None
    memory_safety_violation: MemorySafetyError | None = None

    @property
    def trapped(self) -> bool:
        return self.trap is not None or self.memory_safety_violation is not None


class CheriCpu:
    """Functional CHERI-MIPS CPU with cycle-approximate timing."""

    def __init__(self, program: Program, *, config: MachineConfig | None = None) -> None:
        self.config = config or MachineConfig()
        self.program = program
        self.memory = TaggedMemory(self.config.memory_bytes)
        self.hierarchy = MemoryHierarchy(self.config.timing)
        self.gpr = RegisterFile()
        default_cap = make_default_capability(self.config.memory_bytes)
        self.cap = CapabilityRegisterFile(default_cap)
        self.pc = 0
        self._next_pc = 0
        self._halted = False
        self.cycles = 0
        self.instructions_executed = 0
        heap_base = self.config.heap_base
        self.syscalls = SyscallHandler(heap_base=heap_base, heap_limit=self.config.stack_top - self.config.stack_bytes)
        self._load_program()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _load_program(self) -> None:
        if self.program.data:
            self.memory.write_bytes(DATA_BASE, self.program.data)
        # Stack pointer starts at the top of the stack region, 32-byte aligned.
        self.gpr.write_named("sp", self.config.stack_top)
        # PCC spans the whole program; code addresses are instruction indices.
        self.cap.pcc = Capability(
            base=0,
            length=max(len(self.program.instructions), 1),
            offset=0,
            permissions=Permission.EXECUTE | Permission.LOAD | Permission.GLOBAL,
            tag=True,
        )

    # ------------------------------------------------------------------
    # Control flow helpers used by instructions
    # ------------------------------------------------------------------

    def branch_to(self, target: int) -> None:
        """Redirect execution to the given instruction index (the assembler
        has resolved every label)."""
        self._next_pc = target

    def halt(self) -> None:
        self._halted = True

    def capability_jump(self, cap_register: int, link_register: int | None = None) -> None:
        """CJR / CJALR: install a code capability as PCC and jump to its
        offset; CJALR saves the return PCC in ``link_register``."""
        target = self.cap.read(cap_register)
        if not target.tag:
            raise MemorySafetyError("capability jump through untagged capability", capability=target)
        if not (target.permissions & Permission.EXECUTE):
            raise MemorySafetyError("capability jump without EXECUTE permission", capability=target)
        if link_register is not None:
            return_cap = self.cap.pcc.with_offset(self.pc + 1)
            self.cap.write(link_register, return_cap)
        self.cap.pcc = target
        self._next_pc = target.offset

    def syscall(self) -> None:
        self.syscalls.handle(self)

    # ------------------------------------------------------------------
    # Memory access paths
    # ------------------------------------------------------------------

    def load_via_ddc(self, address: int, size: int) -> int:
        """Legacy MIPS load: checked against the default data capability."""
        ddc = self.cap.ddc
        effective = ddc.check_access(size=size, permission=Permission.LOAD, address=ddc.base + address)
        self.hierarchy.access(effective, size, is_write=False)
        return self.memory.read_int(effective, size)

    def store_via_ddc(self, address: int, size: int, value: int) -> None:
        """Legacy MIPS store: checked against the default data capability."""
        ddc = self.cap.ddc
        effective = ddc.check_access(size=size, permission=Permission.STORE, address=ddc.base + address)
        self.hierarchy.access(effective, size, is_write=True)
        self.memory.write_int(effective, size, value)

    def load_via_capability(self, cap_register: int, offset: int, size: int, *, signed: bool = False) -> int:
        """CL[BHWD]: load through an explicit capability register."""
        capability = self.cap.read(cap_register)
        address = capability.address + offset
        effective = capability.check_access(size=size, permission=Permission.LOAD, address=address)
        self.hierarchy.access(effective, size, is_write=False)
        return self.memory.read_int(effective, size, signed=signed)

    def store_via_capability(self, cap_register: int, offset: int, size: int, value: int) -> None:
        """CS[BHWD]: store through an explicit capability register."""
        capability = self.cap.read(cap_register)
        address = capability.address + offset
        effective = capability.check_access(size=size, permission=Permission.STORE, address=address)
        self.hierarchy.access(effective, size, is_write=True)
        self.memory.write_int(effective, size, value)

    def load_capability(self, cap_register: int, offset: int) -> Capability:
        """CLC: load a capability (tag included) through a capability."""
        authority = self.cap.read(cap_register)
        address = authority.address + offset
        effective = authority.check_access(
            size=CAPABILITY_SIZE, permission=Permission.LOAD_CAP, address=address
        )
        self.hierarchy.access(effective, CAPABILITY_SIZE, is_write=False)
        return self.memory.read_capability(effective)

    def store_capability(self, cap_register: int, offset: int, value: Capability) -> None:
        """CSC: store a capability (tag included) through a capability."""
        authority = self.cap.read(cap_register)
        address = authority.address + offset
        effective = authority.check_access(
            size=CAPABILITY_SIZE, permission=Permission.STORE_CAP, address=address
        )
        self.hierarchy.access(effective, CAPABILITY_SIZE, is_write=True)
        self.memory.write_capability(effective, value)

    # ------------------------------------------------------------------
    # Execution loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Fetch, execute and retire a single instruction."""
        if not (0 <= self.pc < len(self.program.instructions)):
            raise TrapError(
                f"instruction fetch outside program (pc={self.pc})", cause="fetch", pc=self.pc
            )
        pcc = self.cap.pcc
        if not pcc.tag or not (pcc.permissions & Permission.EXECUTE):
            raise MemorySafetyError("instruction fetch without executable PCC", capability=pcc)
        if not (pcc.base <= self.pc < pcc.top):
            raise MemorySafetyError(
                f"instruction fetch at {self.pc} outside PCC bounds", capability=pcc, address=self.pc
            )
        instruction = self.program.instructions[self.pc]
        self._next_pc = self.pc + 1
        instruction.execute(self)
        self.instructions_executed += 1
        self.cycles += self._instruction_cost(instruction)
        self.pc = self._next_pc

    def _instruction_cost(self, instruction) -> int:
        timing = self.config.timing
        latency_class = instruction.latency_class
        if latency_class == "branch":
            return timing.branch_cost
        if latency_class == "jump":
            return timing.call_cost
        return timing.base_instruction_cost

    def run(self, *, max_instructions: int = 5_000_000) -> CpuState:
        """Run until exit, trap, or the instruction budget is exhausted."""
        trap: TrapError | None = None
        violation: MemorySafetyError | None = None
        try:
            while not self._halted and self.instructions_executed < max_instructions:
                self.step()
        except TrapError as exc:
            trap = exc
        except MemorySafetyError as exc:
            violation = exc
        if not self._halted and trap is None and violation is None:
            raise SimulationError(
                f"program did not terminate within {max_instructions} instructions"
            )
        return CpuState(
            instructions_executed=self.instructions_executed,
            cycles=self.cycles + self.hierarchy.stall_cycles,
            exit_status=self.syscalls.exit_status,
            output=self.syscalls.output_text(),
            trap=trap,
            memory_safety_violation=violation,
        )

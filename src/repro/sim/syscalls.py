"""Minimal operating-system layer for the ISA simulator.

Assembly programs (test programs and the Table 2 benchmark) need a way to
terminate, emit output and obtain heap memory.  Real CHERI runs FreeBSD; this
reproduction provides the three calls those programs actually use, with the
MIPS convention of the syscall number in ``$v0`` and the argument in ``$a0``:

======  ==========  ====================================================
number  name        behaviour
======  ==========  ====================================================
1       exit        stop execution; ``$a0`` is the exit status
2       putchar     append ``chr($a0)`` to the captured output stream
3       sbrk        grow the heap by ``$a0`` bytes, old break in ``$v0``
======  ==========  ====================================================
"""

from __future__ import annotations

from repro.common.errors import SimulationError

SYS_EXIT = 1
SYS_PUTCHAR = 2
SYS_SBRK = 3


class SyscallHandler:
    """Implements the syscall table against a :class:`repro.sim.cpu.CheriCpu`."""

    def __init__(self, *, heap_base: int, heap_limit: int) -> None:
        self.output = bytearray()
        self.exit_status: int | None = None
        self._heap_break = heap_base
        self._heap_limit = heap_limit

    def output_text(self) -> str:
        """The captured output decoded as latin-1 (byte-transparent)."""
        return self.output.decode("latin-1")

    def handle(self, cpu) -> None:
        """Dispatch the syscall currently requested by the CPU registers."""
        number = cpu.gpr.read_named("v0")
        arg0 = cpu.gpr.read_named("a0")
        if number == SYS_EXIT:
            self.exit_status = arg0
            cpu.halt()
        elif number == SYS_PUTCHAR:
            self.output.append(arg0 & 0xFF)
        elif number == SYS_SBRK:
            old_break = self._heap_break
            new_break = old_break + arg0
            if new_break > self._heap_limit:
                raise SimulationError(
                    f"sbrk({arg0}) exceeds heap limit {self._heap_limit:#x}"
                )
            self._heap_break = new_break
            cpu.gpr.write_named("v0", old_break)
        else:
            raise SimulationError(f"unknown syscall number {number}")

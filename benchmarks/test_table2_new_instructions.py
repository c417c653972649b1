"""Table 2: the new CHERI instructions added to better support C.

Paper: six instructions — CIncOffset, CSetOffset, CGetOffset, CPtrCmp,
CFromPtr, CToPtr — extend CHERIv2 capabilities with fat-pointer offsets.

Reproduction: each instruction is executed on the CHERI-MIPS ISA simulator
and its architectural effect is checked; the regenerated table lists the
instruction semantics as implemented.
"""

from __future__ import annotations

from conftest import write_result

from repro.isa.assembler import Assembler
from repro.isa.instructions import INSTRUCTION_SET
from repro.sim.cpu import CheriCpu

#: Table 2 of the paper: mnemonic -> use.
TABLE2_INSTRUCTIONS = {
    "cincoffset": "Adds an integer to the offset",
    "csetoffset": "Sets the offset",
    "cgetoffset": "Returns the current offset",
    "cptrcmp": "Compares two capabilities",
    "cfromptr": "Converts a MIPS pointer to a capability",
    "ctoptr": "Converts capability to a MIPS pointer",
}

_PROGRAM = r"""
.text
    # Derive a 64-byte object capability at offset 0x100 of the address space.
    li   $t0, 0x100
    cfromptr $c1, $c0, $t0          # Table 2: pointer -> capability
    li   $t1, 64
    csetbounds $c1, $c1, $t1

    li   $t2, 16
    csetoffset $c2, $c1, $t2        # Table 2: set offset
    li   $t3, 8
    cincoffset $c2, $c2, $t3        # Table 2: increment offset
    cgetoffset $t4, $c2             # Table 2: read offset (expect 24)

    cptrcmp $t5, $c2, $c1, ltu      # Table 2: pointer comparison (c1 < c2)
    ctoptr  $t6, $c2, $c0           # Table 2: capability -> MIPS pointer

    li   $t7, 99
    csw  $t7, 0, $c2                # store through the moved capability
    clw  $t8, 24, $c1               # read it back via base capability + 24

    li   $v0, 1
    move $a0, $t4
    syscall
"""


def _run_program():
    cpu = CheriCpu(Assembler().assemble(_PROGRAM))
    state = cpu.run()
    return cpu, state


def test_table2_new_instructions(benchmark, results_dir):
    cpu, state = benchmark.pedantic(_run_program, rounds=1, iterations=1)
    assert not state.trapped, state.memory_safety_violation or state.trap
    # CGetOffset observed 16 + 8 = 24.
    assert state.exit_status == 24
    # CPtrCmp: c2 (offset 24) is not less-than c1 (offset 0) -> 0.
    assert cpu.gpr.read_named("t5") == 0
    # CToPtr recovers the virtual address 0x100 + 24 relative to the DDC.
    assert cpu.gpr.read_named("t6") == 0x100 + 24
    # The store through the offset capability landed where CLW expects it.
    assert cpu.gpr.read_named("t8") == 99

    lines = [f"{'INSTRUCTION':<14}{'USE (paper Table 2)':<46}{'implemented'}"]
    lines.append("-" * 75)
    for mnemonic, use in TABLE2_INSTRUCTIONS.items():
        implemented = "yes" if mnemonic in INSTRUCTION_SET else "MISSING"
        lines.append(f"{mnemonic:<14}{use:<46}{implemented}")
    lines.append("")
    lines.append(f"validation program: {state.instructions_executed} instructions, "
                 f"{state.cycles} cycles, exit status {state.exit_status}")
    write_result(results_dir, "table2_new_instructions.txt", "\n".join(lines))

    assert all(mnemonic in INSTRUCTION_SET for mnemonic in TABLE2_INSTRUCTIONS)

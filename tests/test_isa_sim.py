"""Tests for the ISA layer and the machine simulator (repro.isa, repro.sim)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.config import CacheConfig, TimingConfig
from repro.common.errors import AlignmentViolation, SimulationError, TrapError
from repro.isa import Capability, Permission
from repro.isa.assembler import Assembler
from repro.isa.instructions import INSTRUCTION_SET
from repro.isa.registers import CapabilityRegisterFile, RegisterFile, cap_index, gpr_index
from repro.sim import CacheLevel, MemoryHierarchy, TaggedMemory
from repro.sim.cpu import CheriCpu


def run_asm(source: str, **kwargs):
    program = Assembler().assemble(source)
    cpu = CheriCpu(program, **kwargs)
    return cpu, cpu.run()


class TestRegisters:
    def test_gpr_names_resolve(self):
        assert gpr_index("$t0") == 8
        assert gpr_index("zero") == 0
        assert gpr_index("r31") == 31

    def test_unknown_register_rejected(self):
        with pytest.raises(SimulationError):
            gpr_index("$bogus")
        with pytest.raises(SimulationError):
            cap_index("$c99")

    def test_zero_register_is_hardwired(self):
        regs = RegisterFile()
        regs.write(0, 1234)
        assert regs.read(0) == 0

    def test_values_wrap_to_64_bits(self):
        regs = RegisterFile()
        regs.write_named("t0", -1)
        assert regs.read_named("t0") == (1 << 64) - 1

    def test_capability_file_rejects_non_capabilities(self):
        caps = CapabilityRegisterFile()
        with pytest.raises(SimulationError):
            caps.write(1, 42)


class TestAssembler:
    def test_labels_and_data(self):
        program = Assembler().assemble("""
        .data
        value: .dword 7
        text: .asciiz "ok"
        .text
        start: li $t0, 1
        loop:  beq $t0, $zero, start
        """)
        assert program.label_address("start") == 0
        assert program.label_address("loop") == 1
        assert program.data_address("text") == program.data_address("value") + 8
        assert program.data[:8] == (7).to_bytes(8, "little")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(SimulationError):
            Assembler().assemble(".text\nfrobnicate $t0, $t1")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(SimulationError):
            Assembler().assemble(".text\ndaddu $t0, $t1")

    def test_unknown_label_rejected(self):
        with pytest.raises(SimulationError):
            Assembler().assemble(".text\nj nowhere").label_address("nowhere")

    def test_comments_are_ignored(self):
        program = Assembler().assemble(".text\nli $t0, 1 # comment\n; full line comment\n")
        assert len(program) == 1

    def test_every_registered_instruction_has_operand_kinds(self):
        for mnemonic, cls in INSTRUCTION_SET.items():
            assert isinstance(cls.operand_kinds, tuple), mnemonic


class TestTaggedMemory:
    def test_read_write_roundtrip(self):
        memory = TaggedMemory(1 << 20)
        memory.write_int(0x100, 8, 0xDEADBEEF)
        assert memory.read_int(0x100, 8) == 0xDEADBEEF

    def test_unwritten_memory_reads_zero(self):
        assert TaggedMemory(4096).read_bytes(0, 16) == b"\x00" * 16

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            TaggedMemory(4096).read_bytes(4095, 2)

    def test_capability_store_sets_tag(self):
        memory = TaggedMemory(1 << 16)
        cap = Capability(base=0x40, length=0x20, permissions=Permission.all(), tag=True)
        memory.write_capability(0x80, cap)
        assert memory.tag_at(0x80)
        assert memory.read_capability(0x80) == cap

    def test_data_store_clears_tag(self):
        """§4: conventional stores invalidate in-memory capabilities."""
        memory = TaggedMemory(1 << 16)
        cap = Capability(base=0x40, length=0x20, permissions=Permission.all(), tag=True)
        memory.write_capability(0x80, cap)
        memory.write_int(0x88, 8, 0x1234)          # overlaps the capability
        loaded = memory.read_capability(0x80)
        assert not loaded.tag

    def test_unaligned_capability_access_rejected(self):
        memory = TaggedMemory(1 << 16)
        cap = Capability(tag=True, permissions=Permission.all(), length=8)
        with pytest.raises(AlignmentViolation):
            memory.write_capability(0x81, cap)
        with pytest.raises(AlignmentViolation):
            memory.read_capability(0x81)

    def test_read_capability_from_plain_data_is_untagged(self):
        memory = TaggedMemory(1 << 16)
        memory.write_int(0x100, 8, 0x1234)
        assert not memory.read_capability(0x100).tag

    def test_tagged_lines_enumeration(self):
        memory = TaggedMemory(1 << 16)
        cap = Capability(base=0, length=8, permissions=Permission.all(), tag=True)
        memory.write_capability(0x20, cap)
        memory.write_capability(0x60, cap)
        assert memory.tagged_lines() == [0x20, 0x60]


class TestCache:
    def test_miss_then_hit(self):
        cache = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
        assert cache.access(0, is_write=False) is False
        assert cache.access(8, is_write=False) is True  # same line
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = CacheLevel(CacheConfig(size_bytes=256, line_bytes=64, associativity=2))
        # two lines mapping to the same set plus a third forces an eviction
        set_stride = cache.config.num_sets * 64
        cache.access(0, is_write=False)
        cache.access(set_stride, is_write=False)
        cache.access(2 * set_stride, is_write=False)
        assert cache.access(0, is_write=False) is False  # evicted

    def test_hierarchy_charges_dram_on_cold_miss(self):
        hierarchy = MemoryHierarchy(TimingConfig())
        cold = hierarchy.access(0x1000, 8)
        warm = hierarchy.access(0x1000, 8)
        assert cold > warm
        assert hierarchy.dram_accesses == 1

    def test_multi_line_access_touches_every_line(self):
        hierarchy = MemoryHierarchy(TimingConfig())
        hierarchy.access(0x0, 256)
        assert hierarchy.l1.stats.accesses == 4  # 256 bytes / 64-byte lines

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_stats_are_consistent(self, addresses):
        cache = CacheLevel(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4))
        for address in addresses:
            cache.access(address, is_write=False)
        assert cache.stats.hits + cache.stats.misses == len(addresses)


class TestCpuExecution:
    def test_arithmetic_and_exit(self):
        _, state = run_asm("""
        .text
        li $t0, 21
        dsll $t1, $t0, 1
        li $v0, 1
        move $a0, $t1
        syscall
        """)
        assert state.exit_status == 42

    def test_loop_sums_data(self):
        _, state = run_asm("""
        .data
        numbers: .dword 10, 20, 30
        .text
        la $t0, numbers
        li $t1, 0
        li $t2, 0
        loop:
        li $t3, 3
        beq $t2, $t3, done
        dsll $t4, $t2, 3
        daddu $t5, $t0, $t4
        ld $t6, 0($t5)
        daddu $t1, $t1, $t6
        daddiu $t2, $t2, 1
        j loop
        done:
        li $v0, 1
        move $a0, $t1
        syscall
        """)
        assert state.exit_status == 60

    def test_output_syscall(self):
        _, state = run_asm("""
        .text
        li $v0, 2
        li $a0, 72
        syscall
        li $v0, 2
        li $a0, 105
        syscall
        li $v0, 1
        li $a0, 0
        syscall
        """)
        assert state.output == "Hi"

    def test_trapping_add_detects_overflow(self):
        _, state = run_asm("""
        .text
        li $t0, 0x7fffffffffffffff
        li $t1, 1
        dadd $t2, $t0, $t1
        """)
        assert state.trap is not None and state.trap.cause == "overflow"

    def test_division_by_zero_traps(self):
        _, state = run_asm(".text\nli $t0, 1\nli $t1, 0\nddivu $t2, $t0, $t1\n")
        assert state.trap is not None and state.trap.cause == "divide"

    def test_nonterminating_program_rejected(self):
        program = Assembler().assemble(".text\nstart: j start\n")
        cpu = CheriCpu(program)
        with pytest.raises(SimulationError):
            cpu.run(max_instructions=1000)

    def test_sbrk_allocates_heap(self):
        _, state = run_asm("""
        .text
        li $v0, 3
        li $a0, 64
        syscall
        move $t0, $v0      # old break
        li $v0, 3
        li $a0, 64
        syscall
        dsubu $t1, $v0, $t0
        li $v0, 1
        move $a0, $t1
        syscall
        """)
        assert state.exit_status == 64

    def test_cycles_account_for_cache(self):
        _, state = run_asm("""
        .text
        li $t0, 0
        sd $t0, 0($zero)
        ld $t1, 0($zero)
        li $v0, 1
        li $a0, 0
        syscall
        """)
        assert state.cycles > state.instructions_executed


class TestCapabilityInstructions:
    def test_bounds_violation_traps(self):
        _, state = run_asm("""
        .text
        li $t0, 64
        csetbounds $c1, $c0, $t0
        li $t1, 100
        csetoffset $c1, $c1, $t1
        li $t2, 1
        csw $t2, 0, $c1
        """)
        assert state.memory_safety_violation is not None

    def test_in_bounds_store_load(self):
        _, state = run_asm("""
        .text
        li $t0, 64
        csetbounds $c1, $c0, $t0
        li $t1, 7
        csw $t1, 8, $c1
        clw $t2, 8, $c1
        li $v0, 1
        move $a0, $t2
        syscall
        """)
        assert state.exit_status == 7

    def test_candperm_removes_store_permission(self):
        _, state = run_asm("""
        .text
        li $t0, 64
        csetbounds $c1, $c0, $t0
        li $t1, 9           # LOAD | LOAD_CAP
        candperm $c1, $c1, $t1
        li $t2, 5
        csw $t2, 0, $c1
        """)
        assert state.memory_safety_violation is not None

    def test_cleartag_makes_capability_unusable(self):
        _, state = run_asm("""
        .text
        ccleartag $c1, $c0
        clw $t0, 0, $c1
        """)
        assert state.memory_safety_violation is not None

    def test_capability_spill_and_reload(self):
        _, state = run_asm("""
        .text
        li $t0, 128
        csetbounds $c1, $c0, $t0
        li $t1, 64
        csetoffset $c2, $c0, $t1
        csc $c1, 0, $c2            # spill c1 to memory at address 64
        clc $c3, 0, $c2            # reload it
        cgetlen $t2, $c3
        cgettag $t3, $c3
        daddu $t4, $t2, $t3
        li $v0, 1
        move $a0, $t4
        syscall
        """)
        assert state.exit_status == 129  # length 128 + tag 1

    def test_data_store_invalidates_spilled_capability(self):
        _, state = run_asm("""
        .text
        li $t0, 128
        csetbounds $c1, $c0, $t0
        li $t1, 64
        csetoffset $c2, $c0, $t1
        csc $c1, 0, $c2
        li $t5, 99
        sd $t5, 72($zero)          # plain MIPS store over the capability
        clc $c3, 0, $c2
        cgettag $t3, $c3
        li $v0, 1
        move $a0, $t3
        syscall
        """)
        assert state.exit_status == 0

    def test_cfromptr_null_semantics(self):
        _, state = run_asm("""
        .text
        li $t0, 0
        cfromptr $c1, $c0, $t0
        cgettag $t1, $c1
        li $v0, 1
        move $a0, $t1
        syscall
        """)
        assert state.exit_status == 0

    def test_cjalr_and_cjr_roundtrip(self):
        _, state = run_asm("""
        .text
        main:
        cgetpcc $c2
        li $t0, 6
        csetoffset $c2, $c2, $t0
        li $a0, 10
        cjalr $c2, $c17
        j end
        double:
        daddu $v0, $a0, $a0
        cjr $c17
        end:
        move $a0, $v0
        li $v0, 1
        syscall
        """)
        assert state.exit_status == 20

    def test_cptrcmp_orders_untagged_before_tagged(self):
        _, state = run_asm("""
        .text
        li $t0, 32
        csetbounds $c1, $c0, $t0
        li $t1, 5
        cfromint $c2, $t1          # integer in a capability register (untagged)
        cptrcmp $t2, $c2, $c1, lt
        li $v0, 1
        move $a0, $t2
        syscall
        """)
        assert state.exit_status == 1

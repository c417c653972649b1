"""Tests for the abstract-machine runtime: values, heap, machine, intrinsics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import InterpreterError, MemorySafetyError, PermissionViolation
from repro.core import run_under_model
from repro.core.api import compile_for_model
from repro.interp import AbstractMachine, IntVal, ObjectAllocator, PtrVal, get_model
from repro.interp.heap import HEAP_BASE
from repro.interp.values import NULL_PTR, PERM_READ, PERM_WRITE, Provenance
from repro.staticcheck.predict import predict_source


class TestIntVal:
    def test_wrapping_and_sign(self):
        assert IntVal(256, bytes=1).value == 0
        assert IntVal(255, bytes=1, signed=True).value == -1
        assert IntVal(255, bytes=1, signed=False).value == 255

    def test_unsigned_view(self):
        assert IntVal(-1, bytes=4).unsigned == 0xFFFFFFFF

    def test_truthiness(self):
        assert IntVal(1).is_true and not IntVal(0).is_true

    def test_narrowing_marks_provenance_modified(self):
        pointer = PtrVal(address=0x1000, base=0x1000, length=8)
        wide = IntVal(0x1000, bytes=8, provenance=Provenance(pointer))
        narrow = wide.converted(bytes=4, signed=False)
        assert narrow.provenance is not None and narrow.provenance.modified

    def test_same_width_conversion_keeps_provenance(self):
        pointer = PtrVal(address=0x1000, base=0x1000, length=8)
        value = IntVal(0x1000, bytes=8, provenance=Provenance(pointer))
        assert not value.converted(bytes=8, signed=False).provenance.modified

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_64bit_roundtrip(self, value):
        assert IntVal(value, bytes=8, signed=True).value == value


class TestPtrVal:
    def test_null(self):
        assert NULL_PTR.is_null and not NULL_PTR.tag

    def test_offset_property(self):
        pointer = PtrVal(address=0x1010, base=0x1000, length=0x100)
        assert pointer.offset == 0x10
        assert pointer.in_bounds

    def test_moves_wrap_modulo_64_bits(self):
        pointer = PtrVal(address=8, base=0, length=16)
        assert pointer.moved_by(-16).address == (8 - 16) % (1 << 64)

    def test_perm_helpers(self):
        pointer = PtrVal(address=0, base=0, length=8, perms=PERM_READ | PERM_WRITE)
        assert pointer.with_perms(PERM_READ).perms == PERM_READ


class TestAllocator:
    def test_regions_are_disjoint_and_high(self):
        allocator = ObjectAllocator()
        glob = allocator.allocate_global(16, "g")
        heap = allocator.allocate_heap(16)
        stack = allocator.allocate_stack(16)
        assert glob.base < heap.base < stack.base
        assert glob.base >= (1 << 32)  # WIDE idiom must lose information

    def test_find_by_address(self):
        allocator = ObjectAllocator()
        obj = allocator.allocate_heap(64)
        assert allocator.find(obj.base + 10) is obj
        assert allocator.find(obj.base + 64) is not obj

    def test_free_and_double_free(self):
        allocator = ObjectAllocator()
        obj = allocator.allocate_heap(16)
        allocator.free(obj)
        assert obj.freed
        with pytest.raises(InterpreterError):
            allocator.free(obj)

    def test_stack_addresses_reused_across_frames(self):
        allocator = ObjectAllocator()
        allocator.push_frame()
        first = allocator.allocate_stack(32)
        allocator.pop_frame()
        allocator.push_frame()
        second = allocator.allocate_stack(32)
        allocator.pop_frame()
        assert first.base == second.base
        assert first.freed and second.freed

    def test_heap_base_constant(self):
        allocator = ObjectAllocator()
        assert allocator.allocate_heap(8).base >= HEAP_BASE

    @given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=50))
    def test_allocations_never_overlap(self, sizes):
        allocator = ObjectAllocator()
        objects = [allocator.allocate_heap(size) for size in sizes]
        spans = sorted((o.base, o.top) for o in objects)
        for (base_a, top_a), (base_b, _) in zip(spans, spans[1:]):
            assert top_a <= base_b


class TestMachineBasics:
    def test_exit_code_from_main(self):
        assert run_under_model("int main(void) { return 7; }", "pdp11").exit_code == 7

    def test_pointer_width_mismatch_rejected(self):
        module = compile_for_model("int main(void){return 0;}", "pdp11")
        with pytest.raises(InterpreterError):
            AbstractMachine(module, get_model("cheri_v3"))

    def test_instruction_budget_enforced(self):
        module = compile_for_model("int main(void){ while (1) {} return 0; }", "pdp11")
        result = AbstractMachine(module, get_model("pdp11"), max_instructions=10_000).run()
        assert result.trapped

    def test_output_capture(self):
        result = run_under_model('int main(void){ printf("x=%d", 42); return 0; }', "pdp11")
        assert result.output_text() == "x=42"

    def test_checkpoints(self):
        result = run_under_model(
            "int main(void){ mini_checkpoint(5); mini_checkpoint(9); return 0; }", "pdp11"
        )
        assert result.checkpoints == [5, 9]

    def test_exit_intrinsic(self):
        assert run_under_model("int main(void){ exit(3); return 0; }", "pdp11").exit_code == 3

    def test_timing_accumulates(self):
        result = run_under_model(
            "int main(void){ int a[64]; int i; for (i=0;i<64;i++) a[i]=i; return 0; }", "pdp11"
        )
        assert result.cycles > result.instructions
        assert result.memory_accesses > 64


class TestUnoptimizedPrograms:
    """The predecoded engine must not depend on the optimizer's constant
    folding: unoptimized IR feeds constants straight into casts, unary ops
    and unboxed register slots (regression for the slot-type analysis)."""

    SOURCE = """
    int main(void) {
        int x = (int)300;
        int y = -(5);
        long wide = (long)x;
        int z = x + y + (int)wide - x;
        mini_output_int(z);
        return z;
    }
    """

    @pytest.mark.parametrize("optimize", [True, False])
    def test_const_casts_and_unops(self, optimize: bool):
        module = compile_for_model(self.SOURCE, "pdp11", optimize=optimize)
        result = AbstractMachine(module, get_model("pdp11")).run()
        assert not result.trapped, result.trap
        assert result.exit_code == 295
        assert result.output == b"295\n"

    def test_budget_trap_instruction_count_is_exact(self):
        # Every instruction is counted and budget-checked before it runs,
        # also inside block-bound code: a budget trap always reports
        # max_instructions + 1 executed.
        source = "int main(void){ int i; int t=0; for(i=0;i<20;i++){ t+=i; } return t; }"
        for budget in (5, 9, 17, 33, 57):
            module = compile_for_model(source, "pdp11")
            result = AbstractMachine(module, get_model("pdp11"),
                                     max_instructions=budget).run()
            assert result.trapped
            assert result.instructions == budget + 1


class TestMemorySafetyEnforcement:
    def test_heap_overflow_trapped_by_cheri(self):
        source = """
        int main(void) {
            char *p = (char *)malloc(16);
            p[16] = 1;            /* classic off-by-one heap overflow */
            return 0;
        }
        """
        assert run_under_model(source, "cheri_v3").trapped
        assert not run_under_model(source, "pdp11").trapped

    def test_stack_buffer_overflow_trapped(self):
        source = """
        void smash(char *buf) { int i; for (i = 0; i < 64; i++) buf[i] = 65; }
        int main(void) { char buf[8]; smash(buf); return 0; }
        """
        result = run_under_model(source, "cheri_v3")
        assert isinstance(result.trap, MemorySafetyError)
        assert not run_under_model(source, "pdp11").trapped

    def test_use_after_free_trapped(self):
        source = """
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 4;
            free(p);
            return *p;
        }
        """
        assert run_under_model(source, "cheri_v3").trapped

    def test_dangling_stack_pointer_trapped(self):
        source = """
        int *escape(void) { int local = 3; return &local; }
        int main(void) { int *p = escape(); return *p; }
        """
        assert run_under_model(source, "cheri_v3").trapped

    def test_null_dereference_trapped_everywhere(self):
        source = "int main(void) { int *p = 0; return *p; }"
        for model in ("pdp11", "cheri_v3", "strict", "mpx"):
            assert run_under_model(source, model).trapped, model

    def test_input_qualifier_enforced_by_cheri_only(self):
        source = """
        int poke(char * __input view) { view[0] = 'X'; return 0; }
        int main(void) { char buf[4]; buf[0] = 'a'; poke(buf); return buf[0] == 'a' ? 1 : 0; }
        """
        assert run_under_model(source, "cheri_v3").trapped
        assert run_under_model(source, "cheri_v2").trapped
        assert not run_under_model(source, "pdp11").trapped

    @pytest.mark.parametrize("source", [
        # a memory load: the union member's pointer type carries __output
        """
        union view { char *plain; char * __output out; };
        int main(void) { char buf[4]; union view v; buf[0] = 'a'; v.plain = buf; return v.out[0]; }
        """,
        # a call parameter (and the cast that converts the argument)
        """
        int peek(char * __output view) { return view[0]; }
        int main(void) { char buf[4]; buf[0] = 'a'; return peek(buf); }
        """,
        # a pointer-to-pointer cast
        """
        int main(void) { char buf[4]; buf[0] = 'a'; return ((char * __output)buf)[0]; }
        """,
        # an int-to-pointer cast
        """
        int main(void) {
            char buf[4];
            intptr_t addr;
            buf[0] = 'a';
            addr = (intptr_t)buf;
            return ((char * __output)addr)[0];
        }
        """,
    ], ids=["load", "param", "cast", "inttoptr"])
    def test_output_qualifier_read_traps_on_cheri_only(self, source):
        """``__output`` is a write-only view (§4.1) on both CHERI models and
        no restriction elsewhere; the static predictor agrees."""
        predicted = predict_source(source)
        for model in ("pdp11", "hardbound", "mpx", "relaxed", "strict", "cheri_v2", "cheri_v3"):
            result = run_under_model(source, model)
            if model.startswith("cheri"):
                assert isinstance(result.trap, PermissionViolation), model
                assert predicted[model] == "trap:permission", model
            else:
                assert result.trap is None and result.exit_code == ord("a"), model
                assert predicted[model] == "agree", model

    def test_const_advisory_on_v3_enforced_on_v2(self):
        source = """
        int main(void) {
            char buf[4];
            const char *view = buf;
            char *w = (char *)view;
            w[0] = 'x';
            return 0;
        }
        """
        assert not run_under_model(source, "cheri_v3").trapped
        assert run_under_model(source, "cheri_v2").trapped

    def test_capability_oblivious_memcpy_preserves_pointers(self):
        """§4: memcpy must be able to copy structures containing pointers."""
        source = """
        struct holder { int *item; long pad; };
        int main(void) {
            int value = 11;
            struct holder a;
            struct holder b;
            a.item = &value;
            a.pad = 1;
            memcpy(&b, &a, sizeof(struct holder));
            return *b.item == 11 ? 0 : 1;
        }
        """
        for model in ("pdp11", "cheri_v2", "cheri_v3", "hardbound", "strict"):
            result = run_under_model(source, model)
            assert not result.trapped and result.exit_code == 0, model

    def test_data_overwrite_invalidates_stored_capability(self):
        """Union-style type punning cannot forge a capability (§4.2)."""
        source = """
        union punning { int *pointer; long words[4]; };
        int main(void) {
            int value = 5;
            union punning u;
            u.pointer = &value;
            u.words[0] = u.words[0] + 0;   /* rewrite the pointer bytes as data */
            return *u.pointer;
        }
        """
        assert run_under_model(source, "cheri_v3").trapped
        assert not run_under_model(source, "pdp11").trapped

    def test_intcap_roundtrip_supported_on_v3(self):
        source = """
        int main(void) {
            int x = 9;
            intptr_t bits = (intptr_t)&x;
            bits = bits + 4;
            bits = bits - 4;
            int *p = (int *)bits;
            return *p == 9 ? 0 : 1;
        }
        """
        assert run_under_model(source, "cheri_v3").exit_code == 0
        assert run_under_model(source, "strict").trapped


class TestIntrinsics:
    def test_malloc_calloc_zeroing(self):
        source = """
        int main(void) {
            int *p = (int *)calloc(4, sizeof(int));
            return p[0] == 0 && p[3] == 0 ? 0 : 1;
        }
        """
        assert run_under_model(source, "cheri_v3").exit_code == 0

    def test_realloc_preserves_prefix(self):
        source = """
        int main(void) {
            int *p = (int *)malloc(2 * sizeof(int));
            p[0] = 3; p[1] = 4;
            p = (int *)realloc(p, 8 * sizeof(int));
            p[7] = 9;
            return p[0] == 3 && p[1] == 4 && p[7] == 9 ? 0 : 1;
        }
        """
        assert run_under_model(source, "cheri_v3").exit_code == 0

    def test_memset_memcmp_memchr(self):
        source = """
        int main(void) {
            char buf[8];
            memset(buf, 7, 8);
            char other[8];
            memset(other, 7, 8);
            if (memcmp(buf, other, 8) != 0) return 1;
            other[5] = 9;
            if (memcmp(buf, other, 8) == 0) return 2;
            char *found = (char *)memchr(other, 9, 8);
            return found == &other[5] ? 0 : 3;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_string_functions(self):
        source = """
        int main(void) {
            char buf[32];
            strcpy(buf, "hello");
            if (strncmp(buf, "help", 3) != 0) return 1;
            if (strchr(buf, 'l') != &buf[2]) return 2;
            strncpy(buf, "worldly", 5);
            buf[5] = 0;
            return strcmp(buf, "world") == 0 ? 0 : 3;
        }
        """
        assert run_under_model(source, "cheri_v3").exit_code == 0

    def test_printf_formats(self):
        source = r"""
        int main(void) {
            printf("%d %u %x %c %s %%", -3, 10, 255, 65, "ok");
            return 0;
        }
        """
        result = run_under_model(source, "pdp11")
        assert result.output_text() == "-3 10 ff A ok %"

    def test_sprintf_and_snprintf(self):
        source = r"""
        int main(void) {
            char buf[32];
            sprintf(buf, "v=%d", 12);
            if (strcmp(buf, "v=12") != 0) return 1;
            snprintf(buf, 4, "%s", "abcdef");
            return strcmp(buf, "abc") == 0 ? 0 : 2;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_assert_failure_traps(self):
        assert run_under_model("int main(void){ assert(0); return 0; }", "pdp11").trapped

    def test_abs_and_division_semantics(self):
        source = "int main(void){ return abs(-5) == 5 && labs(-6) == 6 ? 0 : 1; }"
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_rand_is_deterministic_across_runs(self):
        source = "int main(void){ srand(7); return rand() % 100; }"
        assert run_under_model(source, "pdp11").exit_code == run_under_model(source, "pdp11").exit_code

    def test_division_by_zero_reported(self):
        assert run_under_model("int main(void){ int z = 0; return 5 / z; }", "pdp11").trapped

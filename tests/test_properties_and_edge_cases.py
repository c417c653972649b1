"""Property-based tests and edge cases across subsystems.

These tests complement the per-module suites with invariants that must hold
for arbitrary inputs: capability monotonicity under the interpreter models,
cache-model conservation laws, interpreter arithmetic matching C semantics,
and front-end round trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, TimingConfig
from repro.core import run_under_model
from repro.interp import get_model
from repro.interp.heap import ObjectAllocator
from repro.interp.values import IntVal, Provenance, arithmetic_provenance
from repro.minic import Lexer, TokenKind, compile_source
from repro.minic.ir import Opcode
from repro.sim.cache import CacheLevel, MemoryHierarchy


# ---------------------------------------------------------------------------
# Memory-model invariants
# ---------------------------------------------------------------------------

MODEL_NAMES = ("pdp11", "hardbound", "mpx", "relaxed", "strict", "cheri_v2", "cheri_v3")


class TestModelInvariants:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_null_pointer_never_dereferenceable(self, name):
        from repro.common.errors import MemorySafetyError

        model = get_model(name)
        with pytest.raises(MemorySafetyError):
            model.check_access(model.null_pointer(), 1, is_write=False)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_zero_int_converts_to_null(self, name):
        model = get_model(name)
        pointer = model.int_to_ptr(IntVal(0, bytes=8), ObjectAllocator())
        assert pointer.is_null

    @settings(max_examples=30, deadline=None)
    @given(delta=st.integers(min_value=-256, max_value=256),
           name=st.sampled_from(["cheri_v2", "cheri_v3", "hardbound", "mpx", "strict"]))
    def test_pointer_motion_never_widens_bounds(self, delta, name):
        """No model may grant access outside the original allocation by
        moving a pointer around (the core monotonicity property)."""
        model = get_model(name)
        allocator = ObjectAllocator()
        obj = allocator.allocate_heap(64)
        pointer = model.make_pointer(obj)
        moved = model.ptr_offset(pointer, delta)
        if moved.tag and moved.checked:
            assert moved.base >= obj.base
            assert moved.top <= obj.top

    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(min_value=1, max_value=2**48),
           name=st.sampled_from(["cheri_v2", "cheri_v3", "strict", "hardbound"]))
    def test_forged_integers_never_become_valid_pointers(self, value, name):
        """Unforgeability: an integer with no provenance cannot become a
        dereferenceable pointer under any provenance-tracking model."""
        model = get_model(name)
        allocator = ObjectAllocator()
        allocator.allocate_heap(64)
        pointer = model.int_to_ptr(IntVal(value, bytes=8), allocator)
        assert not (pointer.tag and pointer.checked and pointer.length > 0)

    @settings(max_examples=30, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=63))
    def test_roundtrip_through_int_preserves_address(self, offset):
        """ptr -> intcap -> ptr preserves the address exactly under CHERIv3."""
        model = get_model("cheri_v3")
        allocator = ObjectAllocator()
        obj = allocator.allocate_heap(64)
        pointer = model.ptr_offset(model.make_pointer(obj), offset)
        as_int = model.ptr_to_int(pointer, bytes=8, signed=False, pointer_sized=True)
        back = model.int_to_ptr(as_int, allocator)
        assert back.address == pointer.address
        assert back.tag

    def test_provenance_survives_arithmetic_only_on_v3(self):
        allocator = ObjectAllocator()
        obj = allocator.allocate_heap(64)
        for name, expect_valid in (("cheri_v3", True), ("cheri_v2", False), ("strict", False)):
            model = get_model(name)
            pointer = model.make_pointer(obj)
            as_int = model.ptr_to_int(pointer, bytes=8, signed=False, pointer_sized=True)
            shifted = IntVal(as_int.value + 8, bytes=8, pointer_sized=True,
                             provenance=arithmetic_provenance(as_int, IntVal(8)))
            back = model.int_to_ptr(shifted, allocator)
            assert back.tag is expect_valid, name


# ---------------------------------------------------------------------------
# Cache model conservation laws
# ---------------------------------------------------------------------------


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 18),
                              st.booleans()), min_size=1, max_size=300))
    def test_hierarchy_accounting_is_consistent(self, accesses):
        hierarchy = MemoryHierarchy(TimingConfig())
        total = 0
        for address, is_write in accesses:
            total += hierarchy.access(address, 8, is_write=is_write)
        stats = hierarchy.stats()
        assert stats.stall_cycles == total
        # L2 only sees L1 misses; DRAM only sees L2 misses.
        assert stats.l2.accesses == stats.l1.misses
        assert stats.dram_accesses == stats.l2.misses
        # Every access costs at least the L1 hit latency.
        assert total >= len(accesses) * hierarchy.timing.l1.hit_latency

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 16))
    def test_repeat_access_hits(self, address):
        cache = CacheLevel(CacheConfig(size_bytes=16 * 1024))
        cache.access(address, is_write=False)
        assert cache.access(address, is_write=False)

    def test_working_set_larger_than_cache_misses(self):
        cache = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
        stride = 64
        footprint = 4096
        for _ in range(2):
            for address in range(0, footprint, stride):
                cache.access(address, is_write=False)
        assert cache.stats.miss_rate > 0.9

    def test_capability_pointers_increase_miss_rate_on_pointer_array(self):
        """The architectural mechanism behind Figure 1, isolated."""
        def misses(pointer_bytes: int) -> int:
            hierarchy = MemoryHierarchy(TimingConfig())
            for index in range(2048):
                hierarchy.access(index * pointer_bytes, pointer_bytes, is_write=False)
            return hierarchy.stats().l1.misses

        assert misses(32) > misses(8) * 2


# ---------------------------------------------------------------------------
# Interpreter vs. C semantics
# ---------------------------------------------------------------------------


class TestArithmeticSemantics:
    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=-10**6, max_value=10**6),
           b=st.integers(min_value=-10**6, max_value=10**6))
    def test_long_arithmetic_matches_python(self, a, b):
        expected = a * 3 + b - (a ^ b)
        source = f"""
        int main(void) {{
            long a = {a};
            long b = {b};
            long r = a * 3 + b - (a ^ b);
            return r == {expected} ? 0 : 1;
        }}
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    @settings(max_examples=20, deadline=None)
    @given(a=st.integers(min_value=-1000, max_value=1000),
           b=st.integers(min_value=1, max_value=100))
    def test_division_truncates_toward_zero(self, a, b):
        quotient = int(a / b)          # C semantics: truncation toward zero
        remainder = a - quotient * b
        source = f"int main(void) {{ return {a} / {b} == {quotient} && {a} % {b} == {remainder} ? 0 : 1; }}"
        assert run_under_model(source, "pdp11").exit_code == 0

    @settings(max_examples=15, deadline=None)
    @given(value=st.integers(min_value=0, max_value=2**31 - 1), shift=st.integers(min_value=0, max_value=15))
    def test_shifts_match(self, value, shift):
        expected = (value << shift) & 0xFFFFFFFFFFFFFFFF
        source = f"int main(void) {{ unsigned long v = {value}; return (v << {shift}) == {expected} ? 0 : 1; }}"
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_unsigned_wraparound(self):
        source = """
        int main(void) {
            unsigned int x = 4294967295u;
            x = x + 1;
            return x == 0 ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_char_sign_extension_on_load(self):
        source = """
        int main(void) {
            char c = 200;              /* stored as -56 in a signed char */
            int widened = c;
            return widened == -56 ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_unsigned_char_zero_extension(self):
        source = """
        int main(void) {
            unsigned char c = 200;
            int widened = c;
            return widened == 200 ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0


# ---------------------------------------------------------------------------
# Front-end edge cases
# ---------------------------------------------------------------------------


class TestFrontEndEdgeCases:
    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                                          whitelist_characters="_ +-*/%()<>=!&|^~;{}[],."),
                   max_size=80))
    def test_lexer_never_crashes_on_printable_soup(self, text):
        try:
            tokens = Lexer(text).tokenize()
            assert tokens[-1].kind is TokenKind.EOF
        except Exception as error:
            from repro.common.errors import LexError

            assert isinstance(error, LexError)

    def test_deeply_nested_expressions(self):
        expr = "1" + " + 1" * 200
        source = f"int main(void) {{ return ({expr}) == 201 ? 0 : 1; }}"
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_nested_structs_and_arrays(self):
        source = """
        struct inner { int values[3]; };
        struct outer { struct inner rows[2]; int tag; };
        int main(void) {
            struct outer o;
            o.rows[1].values[2] = 42;
            o.tag = 1;
            return o.rows[1].values[2] == 42 ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_typedef_of_struct_pointer(self):
        source = """
        struct node { int v; };
        typedef struct node node_t;
        int main(void) {
            node_t n;
            node_t *p = &n;
            p->v = 5;
            return n.v == 5 ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_empty_function_and_void_return(self):
        source = """
        void nothing(void) { }
        void maybe(int x) { if (x) return; }
        int main(void) { nothing(); maybe(1); maybe(0); return 0; }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_comma_separated_declarations(self):
        source = "int main(void) { int a = 1, b = 2, c; c = a + b; return c == 3 ? 0 : 1; }"
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_hex_octal_char_literals_agree(self):
        source = "int main(void) { return (0x41 == 'A' && 0101 == 'A') ? 0 : 1; }"
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_string_concatenation_and_escapes(self):
        source = r"""
        int main(void) {
            const char *s = "ab" "cd";
            return strlen(s) == 4 && s[3] == 'd' ? 0 : 1;
        }
        """
        assert run_under_model(source, "pdp11").exit_code == 0

    def test_ir_has_no_unknown_opcodes(self):
        module = compile_source("""
        struct s { int a; char b[4]; };
        int f(struct s *p, int i) {
            const char *c = p->b;
            return p->a + c[i] + (int)(p - p);
        }
        """)
        for _, instr in module.all_instructions():
            assert isinstance(instr.op, Opcode)

    def test_large_global_array_zero_initialised(self):
        source = """
        long table[512];
        int main(void) {
            int i;
            long total = 0;
            for (i = 0; i < 512; i++) total += table[i];
            return total == 0 ? 0 : 1;
        }
        """
        assert run_under_model(source, "cheri_v3").exit_code == 0

    def test_negative_array_index_trapped_by_capabilities(self):
        source = """
        int main(void) {
            int arr[4];
            int *p = arr;
            p[-1] = 7;
            return 0;
        }
        """
        assert run_under_model(source, "cheri_v3").trapped
        assert not run_under_model(source, "pdp11").trapped

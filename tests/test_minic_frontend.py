"""Tests for the mini-C front end: lexer, parser, type system, IR generation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import LexError, ParseError, TypeCheckError
from repro.minic import Lexer, Opcode, TokenKind, compile_source, optimize_module, parse
from repro.minic.ir import Const, Temp
from repro.minic.typesys import (
    ArrayType,
    IntType,
    PointerType,
    Qualifiers,
    StructField,
    StructType,
    TypeContext,
)


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = Lexer("int main __capability foo42").tokenize()
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.IDENT]

    def test_number_bases_and_suffixes(self):
        tokens = Lexer("42 0x2A 052 7UL").tokenize()
        assert [t.value for t in tokens[:-1]] == [42, 42, 42, 7]

    def test_char_and_string_escapes(self):
        tokens = Lexer("'\\n' 'a' \"hi\\tthere\"").tokenize()
        assert tokens[0].value == ord("\n")
        assert tokens[1].value == ord("a")
        assert tokens[2].kind is TokenKind.STRING
        assert tokens[2].value == "hi\tthere"

    def test_comments_are_skipped(self):
        tokens = Lexer("a // line comment\n/* block */ b").tokenize()
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_preprocessor_lines_are_skipped(self):
        tokens = Lexer("#include <stdio.h>\nint x;").tokenize()
        assert tokens[0].text == "int"

    def test_multichar_punctuators(self):
        tokens = Lexer("a->b <<= >= && ...").tokenize()
        texts = [t.text for t in tokens[:-1]]
        assert "->" in texts and "<<=" in texts and ">=" in texts and "&&" in texts

    def test_unterminated_string_rejected(self):
        with pytest.raises(LexError):
            Lexer('"oops').tokenize()

    def test_unterminated_comment_rejected(self):
        with pytest.raises(LexError):
            Lexer("/* never closed").tokenize()

    def test_line_numbers_tracked(self):
        tokens = Lexer("a\nb\n  c").tokenize()
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]


class TestTypeSystem:
    def test_integer_sizes(self):
        ctx = TypeContext()
        assert ctx.char.size(ctx) == 1
        assert ctx.int_.size(ctx) == 4
        assert ctx.long.size(ctx) == 8

    def test_pointer_size_follows_abi(self):
        mips = TypeContext(pointer_bytes=8)
        cheri = TypeContext(pointer_bytes=32)
        pointer = mips.pointer_to(mips.int_)
        assert pointer.size(mips) == 8
        assert pointer.size(cheri) == 32

    def test_intptr_is_pointer_sized(self):
        cheri = TypeContext(pointer_bytes=32)
        assert cheri.typedefs["intptr_t"].size(cheri) == 32
        assert cheri.typedefs["int64_t"].size(cheri) == 8

    def test_struct_layout_and_padding(self):
        ctx = TypeContext()
        struct = StructType(tag="s")
        struct.define([StructField("a", ctx.char), StructField("b", ctx.long),
                       StructField("c", ctx.int_)])
        size, align = struct.layout(ctx)
        assert align == 8
        assert struct.field_named("b", ctx).offset == 8
        assert size == 24

    def test_struct_layout_depends_on_pointer_width(self):
        mips = TypeContext(pointer_bytes=8)
        cheri = TypeContext(pointer_bytes=32, pointer_align=32)
        struct = StructType(tag="node")
        struct.define([StructField("next", PointerType(pointee=IntType())),
                       StructField("value", IntType(bytes=8, name="long"))])
        assert struct.size(mips) == 16
        assert struct.size(cheri) == 64

    def test_union_layout(self):
        ctx = TypeContext()
        union = StructType(tag="u", is_union=True)
        union.define([StructField("a", ctx.long), StructField("b", ctx.char)])
        assert union.size(ctx) == 8
        assert union.field_named("b", ctx).offset == 0

    def test_incomplete_struct_rejected(self):
        ctx = TypeContext()
        with pytest.raises(TypeCheckError):
            StructType(tag="open").size(ctx)

    def test_missing_member_rejected(self):
        ctx = TypeContext()
        struct = StructType(tag="s")
        struct.define([StructField("a", ctx.int_)])
        with pytest.raises(TypeCheckError):
            struct.field_named("zz", ctx)

    def test_array_size(self):
        ctx = TypeContext()
        assert ArrayType(element=ctx.int_, count=10).size(ctx) == 40

    def test_common_type_promotion(self):
        ctx = TypeContext()
        assert ctx.common_type(ctx.char, ctx.int_).size(ctx) == 4
        assert ctx.common_type(ctx.long, ctx.int_).size(ctx) == 8

    def test_qualifier_copy(self):
        ctx = TypeContext()
        const_int = ctx.int_.with_qualifiers(Qualifiers.CONST)
        assert const_int.is_const and not ctx.int_.is_const


class TestParser:
    def test_function_and_globals(self):
        unit, _ = parse("int counter = 3; long area(int w, int h) { return w * h; }")
        assert unit.declarations[0].name == "counter"
        assert unit.functions[0].name == "area"
        assert len(unit.functions[0].params) == 2

    def test_struct_definition_registered(self):
        _, ctx = parse("struct point { int x; int y; }; struct point origin;")
        assert ctx.struct("point").complete

    def test_typedef(self):
        unit, ctx = parse("typedef unsigned long word_t; word_t w;")
        assert ctx.lookup_typedef("word_t") is not None
        assert unit.declarations[0].ctype.size(ctx) == 8

    def test_capability_qualifier_on_pointer(self):
        unit, _ = parse("int * __capability p;")
        assert unit.declarations[0].ctype.qualifiers & Qualifiers.CAPABILITY

    def test_input_qualifier_implies_capability(self):
        unit, _ = parse("void f(const char * __input data) { }")
        param_type = unit.functions[0].params[0].ctype
        assert param_type.qualifiers & Qualifiers.INPUT
        assert param_type.qualifiers & Qualifiers.CAPABILITY

    def test_control_flow_statements(self):
        unit, _ = parse("""
        int f(int n) {
            int total = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) continue;
                total += i;
                while (total > 100) { total -= 10; break; }
            }
            do { total++; } while (total < 0);
            return total;
        }
        """)
        assert unit.functions[0].body is not None

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse("int main(void) { return 0 }")

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(ParseError):
            parse("int main(void) { if (1) { return 0; }")

    def test_offsetof_expression(self):
        unit, _ = parse("struct s { long a; int b; }; long f(void) { return offsetof(struct s, b); }")
        assert unit.functions[0].body is not None

    def test_prototype_without_body(self):
        unit, _ = parse("int helper(int x); int main(void) { return helper(1); }")
        assert unit.functions[0].body is None
        assert unit.functions[1].body is not None


class TestIrGeneration:
    def test_pointer_arithmetic_uses_gep(self):
        module = compile_source("int f(int *p, int i) { return p[i]; }")
        opcodes = [instr.op for _, instr in module.all_instructions()]
        assert Opcode.GEP in opcodes
        assert Opcode.PTRTOINT not in opcodes

    def test_member_access_uses_field(self):
        module = compile_source("struct s { int a; int b; }; int f(struct s *p) { return p->b; }")
        fields = [i for _, i in module.all_instructions() if i.op is Opcode.FIELD]
        assert fields and fields[0].attrs["field"] == "b"
        assert fields[0].attrs["offset"] == 4

    def test_pointer_int_roundtrip_is_explicit(self):
        module = compile_source(
            "long f(int *p) { long v = (long)p; int *q = (int *)v; return *q; }"
        )
        opcodes = [instr.op for _, instr in module.all_instructions()]
        assert Opcode.PTRTOINT in opcodes and Opcode.INTTOPTR in opcodes

    def test_deconst_cast_is_flagged(self):
        module = compile_source("char f(const char *p) { char *q = (char *)p; return q[0]; }")
        bitcasts = [i for _, i in module.all_instructions() if i.op is Opcode.BITCAST]
        assert any(i.attrs.get("deconst") for i in bitcasts)

    def test_pointer_difference_is_ptrdiff(self):
        module = compile_source("long f(char *a, char *b) { return a - b; }")
        opcodes = [instr.op for _, instr in module.all_instructions()]
        assert Opcode.PTRDIFF in opcodes

    def test_string_literal_becomes_global(self):
        module = compile_source('int f(void) { return (int)strlen("hello"); }')
        strings = [g for g in module.globals.values() if g.is_string]
        assert strings and strings[0].init_bytes == b"hello\x00"

    def test_global_initializer_generates_init_function(self):
        module = compile_source("int x = 5; int main(void) { return x; }")
        assert "__global_init" in module.functions

    def test_sizeof_is_constant(self):
        module = compile_source("long f(void) { return sizeof(long) + sizeof(int); }")
        module = optimize_module(module)
        consts = [a for _, i in module.all_instructions() for a in i.args if isinstance(a, Const)]
        assert any(c.value == 12 for c in consts)

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(void) { return mystery; }")

    def test_undeclared_function_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(void) { return mystery(); }")

    def test_break_outside_loop_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(void) { break; return 0; }")

    def test_dereference_of_non_pointer_rejected(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(int x) { return *x; }")

    def test_lines_recorded_on_instructions(self):
        module = compile_source("int f(void) {\n  int x = 1;\n  return x;\n}\n")
        lines = [i.line for _, i in module.all_instructions() if i.line]
        assert lines and max(lines) >= 3


class TestOptimizer:
    def test_constant_folding(self):
        module = compile_source("int f(void) { return 2 * 3 + 4; }")
        optimize_module(module)
        instrs = [i for _, i in module.all_instructions()]
        binops = [i for i in instrs if i.op is Opcode.BINOP]
        assert not binops
        returns = [i for i in instrs if i.op is Opcode.RET and i.args]
        assert any(isinstance(r.args[0], Const) and r.args[0].value == 10 for r in returns)

    def test_dead_code_removed(self):
        module = compile_source("int f(int x) { x + 1; x * 2; return x; }")
        before = sum(1 for _ in module.all_instructions())
        optimize_module(module)
        after = sum(1 for _ in module.all_instructions())
        assert after < before

    def test_side_effects_preserved(self):
        module = compile_source("int f(void) { putchar(65); return 0; }")
        optimize_module(module)
        calls = [i for _, i in module.all_instructions() if i.op is Opcode.CALL]
        assert calls

    def test_folding_respects_width(self):
        module = compile_source("int f(void) { return 2147483647 + 1; }")
        optimize_module(module)
        returns = [i for _, i in module.all_instructions() if i.op is Opcode.RET and i.args]
        folded = [r.args[0] for r in returns if isinstance(r.args[0], Const)]
        assert folded and folded[0].value == -2147483648


class TestExecutionSemantics:
    """End-to-end checks that compiled programs compute correct C semantics."""

    @staticmethod
    def _run(source: str) -> int:
        from repro.core import run_under_model

        result = run_under_model(source, "pdp11")
        assert not result.trapped, result.trap
        return result.exit_code

    def test_arithmetic_precedence(self):
        assert self._run("int main(void){ return 2 + 3 * 4 - 6 / 2; }") == 11

    def test_signed_division_truncates_toward_zero(self):
        assert self._run("int main(void){ return -7 / 2 == -3 && -7 % 2 == -1 ? 0 : 1; }") == 0

    def test_short_circuit_evaluation(self):
        source = """
        int counter = 0;
        int bump(void) { counter++; return 1; }
        int main(void) {
            int a = 0 && bump();
            int b = 1 || bump();
            return counter == 0 && a == 0 && b == 1 ? 0 : 1;
        }
        """
        assert self._run(source) == 0

    def test_recursion(self):
        assert self._run("""
        int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int main(void) { return fact(6) == 720 ? 0 : 1; }
        """) == 0

    def test_struct_copy_assignment(self):
        assert self._run("""
        struct pair { int a; int b; };
        int main(void) {
            struct pair x;
            struct pair y;
            x.a = 3; x.b = 4;
            y = x;
            x.a = 9;
            return y.a == 3 && y.b == 4 ? 0 : 1;
        }
        """) == 0

    def test_union_reinterpretation(self):
        assert self._run("""
        union bits { unsigned int word; unsigned char bytes[4]; };
        int main(void) {
            union bits u;
            u.word = 0x01020304;
            return u.bytes[0] == 4 && u.bytes[3] == 1 ? 0 : 1;
        }
        """) == 0

    def test_array_of_structs(self):
        assert self._run("""
        struct item { int key; int value; };
        int main(void) {
            struct item table[4];
            int i;
            for (i = 0; i < 4; i++) { table[i].key = i; table[i].value = i * i; }
            return table[3].value == 9 ? 0 : 1;
        }
        """) == 0

    def test_pointer_to_pointer(self):
        assert self._run("""
        void set(int **out, int *value) { *out = value; }
        int main(void) {
            int x = 77;
            int *p = 0;
            set(&p, &x);
            return *p == 77 ? 0 : 1;
        }
        """) == 0

    def test_global_array_initializer(self):
        assert self._run("""
        int table[4] = { 2, 4, 8, 16 };
        int main(void) { return table[0] + table[3] == 18 ? 0 : 1; }
        """) == 0

    def test_char_string_handling(self):
        assert self._run("""
        int main(void) {
            char buffer[16];
            strcpy(buffer, "abc");
            strcat(buffer, "def");
            return strcmp(buffer, "abcdef") == 0 && strlen(buffer) == 6 ? 0 : 1;
        }
        """) == 0

    def test_unsigned_comparison(self):
        assert self._run("""
        int main(void) {
            unsigned int big = 3000000000u;
            return big > 2000000000u ? 0 : 1;
        }
        """) == 0

    def test_shift_and_mask(self):
        assert self._run("int main(void){ return ((0xF0 >> 4) | (1 << 3)) == 0x0F + 8 - 7 ? 1 : 0; }") in (0, 1)

    @given(st.integers(min_value=-1000, max_value=1000), st.integers(min_value=-1000, max_value=1000))
    def test_addition_matches_python(self, a, b):
        source = f"int main(void) {{ return {a} + {b} == {a + b} ? 0 : 1; }}"
        assert self._run(source) == 0


class TestSharedAstLayouts:
    """compile_unit lowers one parsed AST under several pointer layouts; the
    struct-layout memo must restore each context's field offsets on reuse
    (offsets live on shared StructField objects — PR 5 regression)."""

    SOURCE = """
    struct S { char c; int *p; long tail; };
    int main(void) {
        struct S s;
        s.tail = 7;
        mini_checkpoint((int)s.tail);
        return 0;
    }
    """

    @staticmethod
    def _field_offsets(module):
        from repro.minic.ir import Opcode
        return [instr.attrs["offset"] for fn in module.functions.values()
                for instr in fn.instrs if instr.op is Opcode.FIELD]

    def test_context_reuse_after_other_layout_restores_offsets(self):
        from repro.minic.irgen import compile_unit
        from repro.minic.parser import parse
        from repro.minic.typesys import TypeContext

        unit, _ = parse(self.SOURCE)
        ctx8 = TypeContext(pointer_bytes=8)
        first = self._field_offsets(compile_unit(unit, context=ctx8))
        wide = self._field_offsets(compile_unit(unit, pointer_bytes=32, pointer_align=32))
        again = self._field_offsets(compile_unit(unit, context=ctx8))
        assert first == again
        assert wide != first  # the capability layout really is different

        from repro.interp.machine import AbstractMachine
        result = AbstractMachine(compile_unit(unit, context=ctx8), "pdp11").run()
        assert result.exit_code == 0 and result.checkpoints == [7]

    def test_function_last_line_is_walked_once_per_body(self, monkeypatch):
        import copy

        from repro.minic import irgen
        from repro.minic.parser import parse

        walks = []
        real_last_line = irgen._last_line
        monkeypatch.setattr(irgen, "_last_line",
                            lambda node: walks.append(node) or real_last_line(node))
        unit, _ = parse(self.SOURCE)
        main = unit.functions[0]
        narrow = irgen.compile_unit(unit)
        wide = irgen.compile_unit(unit, pointer_bytes=32, pointer_align=32)
        # `main` spans lines 3-7 of SOURCE (its last node is the return)
        assert narrow.functions["main"].source_lines == wide.functions["main"].source_lines == 5
        first_body = main.body
        assert [node is first_body for node in walks].count(True) == 1
        main.body = copy.deepcopy(first_body)  # a new body is walked again
        assert irgen.compile_unit(unit).functions["main"].source_lines == 5
        assert [node is first_body for node in walks].count(True) == 1
        assert [node is main.body for node in walks].count(True) == 1

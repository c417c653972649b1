"""Front-end error paths: malformed mini-C must raise structured diagnostics.

Every failure mode — lexical, syntactic, semantic, resource (nesting depth)
— must surface as a :class:`repro.common.errors.CompilationError` subclass
with source coordinates, never as a raw Python traceback
(``RecursionError``, ``ValueError``, ``IndexError``...).  The differential
fuzzing subsystem leans on this: its oracle treats ``CompilationError`` as a
classified outcome and anything else as a bug in the front end.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    CompilationError,
    LexError,
    ParseError,
    TypeCheckError,
)
from repro.minic.irgen import compile_source

# ---------------------------------------------------------------------------
# Lexical errors
# ---------------------------------------------------------------------------

#: name -> (source, message, line, column).  The coordinates are pinned: a
#: diagnostic that drifts by one column is a front-end regression.
LEX_CASES = {
    "unterminated string": ('int main(void) { puts("abc); return 0; }',
                            "unterminated string literal", 1, 23),
    "newline inside string": ('int main(void) { puts("abc\ndef"); return 0; }',
                              "unterminated string literal (newline in string)", 1, 23),
    "\\x escape with no digits": (r'int main(void) { puts("a\x"); return 0; }',
                                  "\\x escape with no hex digits", 1, 23),
    "unterminated block comment": ("int main(void) { /* comment",
                                   "unterminated block comment", 1, 18),
    "hex literal with no digits": ("int main(void) { int x = 0x; return x; }",
                                   "malformed hex literal (no digits after 0x)", 1, 26),
    "unterminated char literal": ("int main(void) { int c = 'a; return 0; }",
                                  "unterminated character literal", 1, 26),
    "unexpected character": ("int main(void) { int x = 1 @ 2; return x; }",
                             "unexpected character '@'", 1, 28),
}


def _assert_diagnostic(error, message, line, column):
    assert (str(error), error.line, error.column) == (
        f"{message} (line {line}, col {column})", line, column)


@pytest.mark.parametrize("source,message,line,column", LEX_CASES.values(), ids=LEX_CASES.keys())
def test_lexical_errors_are_structured(source, message, line, column):
    with pytest.raises(LexError) as excinfo:
        compile_source(source)
    _assert_diagnostic(excinfo.value, message, line, column)


def test_hex_escape_is_masked_to_a_byte():
    module = compile_source(r'char *s = "\xff";')
    assert module is not None


# ---------------------------------------------------------------------------
# Syntactic errors, including resource limits
# ---------------------------------------------------------------------------

#: name -> (source, message, line, column), pinned like LEX_CASES.
PARSE_CASES = {
    "missing semicolon": ("int main(void) { int x = 1 return x; }",
                          "expected ';' (got 'return')", 1, 28),
    "missing close paren": ("int main(void) { return (1 + 2; }",
                            "expected ')' (got ';')", 1, 31),
    "array size must be literal": ("int main(void) { int n = 4; int a[n]; return 0; }",
                                   "array size must be an integer literal (got 'n')", 1, 35),
    "bare expression at top level": ("1 + 2;", "expected a type (got '1')", 1, 1),
    "do without while": ("int main(void) { do { } return 0; }",
                         "expected 'while' after do-body (got 'return')", 1, 25),
}


@pytest.mark.parametrize("source,message,line,column", PARSE_CASES.values(),
                         ids=PARSE_CASES.keys())
def test_parse_errors_are_structured(source, message, line, column):
    with pytest.raises(ParseError) as excinfo:
        compile_source(source)
    _assert_diagnostic(excinfo.value, message, line, column)


def test_diagnostics_on_later_lines_count_lines_and_columns():
    """Coordinates past the first line: comments, ``#`` lines and tabs."""
    source = ("#include <stdio.h>\n"
              "/* a comment\n   spanning lines */\n"
              "int main(void) {\n"
              "\tint x = 1; // trailing\n"
              "\treturn x $ 2;\n"
              "}\n")
    with pytest.raises(LexError) as excinfo:
        compile_source(source)
    _assert_diagnostic(excinfo.value, "unexpected character '$'", 6, 11)
    with pytest.raises(ParseError) as excinfo:
        compile_source(source.replace("$", ")"))
    _assert_diagnostic(excinfo.value, "expected ';' (got ')')", 6, 11)


@pytest.mark.parametrize("payload", [
    "(" * 300 + "1" + ")" * 300,
    "!" * 400 + "1",
], ids=["deep parentheses", "deep unary chain"])
def test_deep_expression_nesting_is_a_diagnostic_not_a_recursionerror(payload):
    with pytest.raises(ParseError, match="nesting deeper"):
        compile_source("int main(void) { return " + payload + "; }")


def test_deep_block_nesting_is_a_diagnostic_not_a_recursionerror():
    source = "int main(void) { " + "{" * 300 + "}" * 300 + " return 0; }"
    with pytest.raises(ParseError, match="nesting deeper"):
        compile_source(source)


def test_reasonable_nesting_still_parses():
    source = "int main(void) { return " + "(" * 40 + "1" + ")" * 40 + "; }"
    assert compile_source(source) is not None


# ---------------------------------------------------------------------------
# Semantic errors
# ---------------------------------------------------------------------------

TYPE_CASES = {
    "undeclared identifier": "int main(void) { return nope; }",
    "unknown struct member":
        "struct S { int a; }; int main(void) { struct S s; return s.b; }",
    "call to undeclared function": "int main(void) { return f(1); }",
    "break outside loop": "int main(void) { break; return 0; }",
    "continue outside loop": "int main(void) { continue; return 0; }",
    "incomplete struct": "struct S; int main(void) { struct S s; return 0; }",
    "assignment to rvalue": "int main(void) { 4 = 5; return 0; }",
    "dereference of non-pointer": "int main(void) { int x = 3; return *x; }",
    "member of non-struct": "int main(void) { int x; return x.f; }",
    "arrow on non-pointer": "int main(void) { int x; return x->f; }",
    "offsetof unknown member":
        "struct S { int a; }; int main(void) { return offsetof(struct S, b); }",
    "struct/int conversion":
        "struct S { int a; }; struct S g(void) { return 3; } int main(void) { return 0; }",
}


@pytest.mark.parametrize("source", TYPE_CASES.values(), ids=TYPE_CASES.keys())
def test_type_errors_are_structured(source):
    with pytest.raises(TypeCheckError):
        compile_source(source)


# ---------------------------------------------------------------------------
# The umbrella property
# ---------------------------------------------------------------------------


def test_every_malformed_case_raises_a_compilation_error():
    """The oracle-facing contract: CompilationError or nothing."""
    sources = [case[0] for case in (*LEX_CASES.values(), *PARSE_CASES.values())]
    for source in [*sources, *TYPE_CASES.values()]:
        try:
            compile_source(source)
        except CompilationError:
            pass
        except Exception as exc:  # pragma: no cover - a real failure
            pytest.fail(f"raw {type(exc).__name__} leaked for: {source!r}")

"""Token coordinates point back into the source they came from.

Every diagnostic, AST line and ``Function.source_lines`` count is built from
token (line, column) pairs, so they must agree with the text: an identifier,
keyword, punctuator or integer token's ``text`` is the source slice at its
coordinates, a string or char token starts at its opening quote, and EOF
sits one past the last character.  Checked over the workload sources, the
64 programs of the seed-0 mini-sweep and a hand-written edge case.
"""

from __future__ import annotations

import pytest

from repro.difftest.generator import generate_corpus
from repro.minic.lexer import Lexer, Token, TokenKind
from repro.workloads import dhrystone, tcpdump, zlib_like
from repro.workloads.olden import bisort, mst, perimeter, treeadd

#: comments spanning lines, ``#`` lines, tabs, CRLF, escapes, maximal munch
EDGE_SOURCE = (
    "#include <stdio.h>\r\n"
    "/* a block comment\n * over lines */ int\tx = 0x1fUL;//tail\n"
    "char *s = \"a\\\"b\\x41\\n\" \"c\";\n"
    "\tchar c = '\\'';  int y=x>>=2<<=1...;\r\n"
    "/**/a/***/->b--->c"
)

SOURCES = {
    "bisort": bisort.source(),
    "mst": mst.source(),
    "perimeter": perimeter.source(),
    "treeadd": treeadd.source(),
    "dhrystone": dhrystone.source(),
    "tcpdump": tcpdump.BASELINE_SOURCE,
    "tcpdump-cheri_v2": tcpdump.CHERI_V2_SOURCE,
    "zlib": zlib_like.source(),
    "zlib-copying": zlib_like.source(copying=True),
    "edge": EDGE_SOURCE,
}
SOURCES.update((program.name, program.source) for program in generate_corpus(0, 64))

_SLICED = (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.INT)
_QUOTES = {TokenKind.STRING: '"', TokenKind.CHAR: "'"}


def _offset(line_starts: list[int], token) -> int:
    return line_starts[token.line - 1] + token.column - 1


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES.keys())
def test_token_coordinates_match_the_source(source):
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    tokens = Lexer(source).tokenize()
    previous_end = 0
    for token in tokens[:-1]:
        offset = _offset(line_starts, token)
        assert offset >= previous_end, f"{token!r} overlaps the token before it"
        if token.kind in _SLICED:
            assert source[offset:offset + len(token.text)] == token.text, token
            previous_end = offset + len(token.text)
        else:
            assert source[offset] == _QUOTES[token.kind], token
            previous_end = offset + 1
    eof = tokens[-1]
    assert eof.kind is TokenKind.EOF
    assert _offset(line_starts, eof) == len(source)
    assert eof.line == len(line_starts)


def test_edge_source_covers_every_token_kind():
    kinds = {token.kind for token in Lexer(EDGE_SOURCE).tokenize()}
    assert kinds == set(TokenKind)


def test_tokens_are_values():
    first, second = Lexer("if (x)").tokenize()[:2], Lexer("if (x)").tokenize()[:2]
    assert first == second
    assert len({*first, *second}) == 2
    assert first[0] != Token(TokenKind.IDENT, "if", "if", 1, 1)
    assert first[0].is_keyword("if") and not first[0].is_punct("if")
    assert first[1].is_punct("(") and not first[1].is_keyword("(")
    assert repr(first[1]) == (
        "Token(kind=<TokenKind.PUNCT: 'punct'>, text='(', value='(', line=1, column=4)")

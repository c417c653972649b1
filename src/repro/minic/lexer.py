"""Tokenizer for mini-C.

Produces a flat list of :class:`Token` objects.  ``//`` and ``/* */`` comments
are stripped; there is no preprocessor (workloads are written as single
translation units), but lines starting with ``#`` are skipped so sources can
keep ``#include`` lines for documentation purposes.
"""

from __future__ import annotations

import enum
import re

from repro.common.errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    CHAR = "char"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "signed", "unsigned",
        "struct", "union", "const", "volatile", "static", "extern", "register", "inline",
        "if", "else", "while", "for", "do", "return", "break", "continue",
        "sizeof", "typedef",
        # CHERI extensions from the paper (§4.1)
        "__capability", "__input", "__output",
    }
)

#: Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = (
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
)

#: One token per match: leading trivia (whitespace, ``//`` and ``/* */``
#: comments, ``#`` lines starting at column 1), then an identifier or keyword
#: (group 1) or a punctuator (group 2, longest first; an unterminated ``/*``
#: is not one).  When neither group matches, the character after the trivia
#: starts a number, string or char literal, an unterminated comment, an error
#: or the end of input.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|^#[^\n]*)*"
    r"(?:([A-Za-z_][A-Za-z0-9_]*)|(?!/\*)(" + "|".join(map(re.escape, _PUNCTUATORS)) + "))?",
    re.MULTILINE | re.DOTALL,
)
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_OCT_RE = re.compile(r"0[0-7]+")
_DEC_RE = re.compile(r"[0-9]+")
_INT_SUFFIX_RE = re.compile(r"[uUlL]*")


class Token:
    """One lexeme with its 1-based source coordinates; compared by value."""

    __slots__ =("kind", "text", "value", "line", "column")

    def __init__(self, kind: TokenKind, text: str, value: int | str | None,
                 line: int, column: int) -> None:
        self.kind = kind
        self.text = text
        self.value = value
        self.line = line
        self.column = column

    def _key(self) -> tuple:
        return (self.kind, self.text, self.value, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, value={self.value!r}, "
                f"line={self.line!r}, column={self.column!r})")

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.kind.value}({self.text!r})@{self.line}"


class Lexer:
    """Single-pass tokenizer.

    Identifiers, keywords, punctuators and trivia come from one
    :data:`_TOKEN_RE` match each; line and column are derived from the
    newlines between consecutive token starts.  Numbers, string and char
    literals and every error go through the per-kind methods below, which
    read ``_pos``/``_line``/``_column`` (set to the token start) and leave
    ``_pos`` just past the token.
    """

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        src = self._source
        size = len(src)
        match = _TOKEN_RE.match
        count = src.count
        keywords = KEYWORDS
        ident_kind, keyword_kind, punct_kind = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
        tokens: list[Token] = []
        append = tokens.append
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        counted = 0     # newlines before this offset are already in ``line``
        while True:
            found = match(src, pos)
            group = found.lastindex
            if group:
                start, pos = found.span(group)
            else:
                start = pos = found.end()
            newlines = count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = src.rfind("\n", counted, start) + 1
            counted = start
            column = start - line_start + 1
            if group == 1:
                text = found.group(1)
                append(Token(keyword_kind if text in keywords else ident_kind,
                             text, text, line, column))
            elif group == 2:
                text = found.group(2)
                append(Token(punct_kind, text, text, line, column))
            else:
                self._pos, self._line, self._column = start, line, column
                if start >= size:
                    append(Token(TokenKind.EOF, "", None, line, column))
                    return tokens
                append(self._lex_other())
                pos = self._pos

    # ------------------------------------------------------------------

    def _error(self, message: str) -> LexError:
        return LexError(message, line=self._line, column=self._column)

    def _lex_other(self) -> Token:
        """A token the master regex leaves to per-kind code, or an error."""
        src = self._source
        ch = src[self._pos]
        if ch.isdigit():
            return self._lex_number(self._line, self._column)
        if ch == '"':
            return self._lex_string(self._line, self._column)
        if ch == "'":
            return self._lex_char(self._line, self._column)
        if src.startswith("/*", self._pos):
            raise self._error("unterminated block comment")
        raise self._error(f"unexpected character {ch!r}")

    def _lex_number(self, line: int, column: int) -> Token:
        src = self._source
        if src.startswith(("0x", "0X"), self._pos) and not _HEX_RE.match(src, self._pos):
            # `0x` with no digits would otherwise lex as `0` + identifier `x...`
            raise self._error("malformed hex literal (no digits after 0x)")
        for pattern, base in ((_HEX_RE, 16), (_OCT_RE, 8), (_DEC_RE, 10)):
            match = pattern.match(src, self._pos)
            if match:
                text = match.group(0)
                self._pos = _INT_SUFFIX_RE.match(src, match.end()).end()
                return Token(TokenKind.INT, text, int(text, base), line, column)
        raise self._error("malformed number literal")

    _ESCAPES = {
        "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
        "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
    }

    def _lex_string(self, line: int, column: int) -> Token:
        src = self._source
        pos = self._pos + 1
        out = []
        while pos < len(src) and src[pos] != '"':
            ch = src[pos]
            if ch == "\n":
                # C strings do not span lines; diagnosing here turns the
                # classic forgotten-quote mistake into a precise error
                # instead of swallowing the rest of the file
                raise self._error("unterminated string literal (newline in string)")
            if ch == "\\":
                pos += 1
                if pos >= len(src):
                    raise self._error("unterminated string literal")
                escape = src[pos]
                if escape == "x":
                    hex_digits = ""
                    while pos + 1 < len(src) and src[pos + 1] in "0123456789abcdefABCDEF":
                        pos += 1
                        hex_digits += src[pos]
                    if not hex_digits:
                        raise self._error("\\x escape with no hex digits")
                    out.append(chr(int(hex_digits, 16) & 0xFF))
                else:
                    out.append(self._ESCAPES.get(escape, escape))
            else:
                out.append(ch)
            pos += 1
        if pos >= len(src):
            raise self._error("unterminated string literal")
        text = "".join(out)
        self._pos = pos + 1
        return Token(TokenKind.STRING, text, text, line, column)

    def _lex_char(self, line: int, column: int) -> Token:
        src = self._source
        pos = self._pos + 1
        if pos >= len(src):
            raise self._error("unterminated character literal")
        ch = src[pos]
        if ch == "\\":
            pos += 1
            if pos >= len(src):
                raise self._error("unterminated character literal")
            value = ord(self._ESCAPES.get(src[pos], src[pos]))
        else:
            value = ord(ch)
        pos += 1
        if pos >= len(src) or src[pos] != "'":
            raise self._error("unterminated character literal")
        self._pos = pos + 1
        return Token(TokenKind.CHAR, chr(value), value, line, column)

"""Recursive-descent parser for mini-C.

The grammar is the C subset described in :mod:`repro.minic`.  Declarators are
deliberately simple — pointers, 1-D arrays and function parameter lists — and
the parser shares a :class:`~repro.minic.typesys.TypeContext` with the IR
generator so struct tags and typedef names resolve consistently.
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.minic import astnodes as ast
from repro.minic.lexer import Lexer, Token, TokenKind
from repro.minic.typesys import (
    ArrayType,
    CType,
    IntType,
    PointerType,
    Qualifiers,
    StructField,
    StructType,
    TypeContext,
    VoidType,
)

#: binary operator precedence (higher binds tighter); assignment and the
#: conditional operator are handled separately.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_UNARY_OPS = {"-", "+", "!", "~", "*", "&"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_TYPE_KEYWORDS = {
    "void", "char", "short", "int", "long", "signed", "unsigned",
    "struct", "union", "const", "volatile", "__capability", "__input", "__output",
    "static", "extern", "register", "inline",
}

_POINTER_QUALIFIER_KEYWORDS = {"const", "volatile", "__capability", "__input", "__output"}

#: Enum member reads and flag arithmetic go through the enum machinery; the
#: parser tests kinds on every token and qualifiers on every declaration, so
#: it binds the members and combinations it uses once.
_NO_QUALIFIERS = Qualifiers.NONE
#: qualifiers that stay on a declaration's base type
_BASE_QUALIFIERS = Qualifiers.CONST | Qualifiers.VOLATILE
#: qualifiers the declarator applies to the pointer a following ``*`` makes
_POINTER_LEVEL_QUALIFIERS = (
    Qualifiers.CAPABILITY | Qualifiers.INPUT | Qualifiers.OUTPUT | Qualifiers.CONST
)
_IDENT, _KEYWORD, _PUNCT, _INT, _CHAR, _STRING, _EOF = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.INT,
    TokenKind.CHAR, TokenKind.STRING, TokenKind.EOF,
)

#: maximum combined statement/expression nesting depth.  The recursive
#: descent uses a handful of CPython frames per level, so unguarded input
#: like ``((((...))))`` or ``{{{{...}}}}`` would surface as a raw
#: ``RecursionError`` instead of a diagnostic; 100 levels is far beyond any
#: real program while staying well inside the default interpreter stack.
_MAX_NESTING = 100


def parse(source: str, *, context: TypeContext | None = None) -> tuple[ast.TranslationUnit, TypeContext]:
    """Parse a mini-C source string; returns the AST and the type context."""
    ctx = context or TypeContext()
    parser = Parser(source, ctx)
    return parser.parse_translation_unit(), ctx


class Parser:
    """A hand-written recursive-descent parser."""

    def __init__(self, source: str, context: TypeContext) -> None:
        tokens = Lexer(source).tokenize()
        self._tokens = tokens
        #: per-token test key: the text of a punctuator or keyword, else None.
        #: Punctuator and keyword spellings are disjoint, so ``self._key ==
        #: "{"`` is ``is_punct("{")`` and ``self._key == "if"`` is
        #: ``is_keyword("if")`` for the current token, as plain reads.
        self._keys = [token.text if token.kind is _PUNCT or token.kind is _KEYWORD else None
                      for token in tokens]
        self._last = len(tokens) - 1  # the EOF token
        self._pos = 0
        self._tok = tokens[0]
        self._key = self._keys[0]
        self._ctx = context
        self._depth = 0

    def _descend(self) -> None:
        """Bump the nesting depth; structured diagnostic past the limit."""
        self._depth += 1
        if self._depth > _MAX_NESTING:
            raise self._error(f"nesting deeper than {_MAX_NESTING} levels")

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 1) -> Token:
        return self._tokens[min(self._pos + offset, self._last)]

    def _advance(self) -> Token:
        """Consume the current token (EOF is never consumed)."""
        token = self._tok
        pos = self._pos
        if pos < self._last:
            pos += 1
            self._pos = pos
            self._tok = self._tokens[pos]
            self._key = self._keys[pos]
        return token

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._tok
        return ParseError(f"{message} (got {token.text!r})", line=token.line, column=token.column)

    def _expect_punct(self, text: str) -> Token:
        if self._key != text:
            raise self._error(f"expected {text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        if self._tok.kind is not _IDENT:
            raise self._error("expected identifier")
        return self._advance()

    def _accept(self, text: str) -> bool:
        """Consume the current token if it is punctuator or keyword ``text``."""
        if self._key == text:
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def _starts_type(self, token: Token | None = None) -> bool:
        token = token or self._tok
        kind = token.kind
        if kind is _KEYWORD:
            return token.text in _TYPE_KEYWORDS
        return kind is _IDENT and self._ctx.lookup_typedef(token.text) is not None

    def _parse_declaration_specifiers(self) -> CType:
        """Parse qualifiers + a base type (no declarator)."""
        qualifiers = _NO_QUALIFIERS
        signedness: bool | None = None
        base: CType | None = None
        long_count = 0
        saw_int_keyword = False

        while True:
            key = self._key
            if key == "const":
                qualifiers |= Qualifiers.CONST
            elif key == "volatile":
                qualifiers |= Qualifiers.VOLATILE
            elif key == "__capability":
                qualifiers |= Qualifiers.CAPABILITY
            elif key == "__input":
                qualifiers |= Qualifiers.INPUT | Qualifiers.CAPABILITY
            elif key == "__output":
                qualifiers |= Qualifiers.OUTPUT | Qualifiers.CAPABILITY
            elif key == "static" or key == "extern" \
                    or key == "register" or key == "inline":
                pass  # storage classes accepted and ignored
            elif key == "unsigned":
                signedness = False
            elif key == "signed":
                signedness = True
            elif key == "void":
                base = VoidType()
            elif key == "char":
                base = IntType(bytes=1, signed=True, name="char")
            elif key == "short":
                base = IntType(bytes=2, signed=True, name="short")
            elif key == "int":
                saw_int_keyword = True
            elif key == "long":
                long_count += 1
            elif key == "struct" or key == "union":
                self._advance()
                base = self._parse_struct_type(is_union=key == "union")
                continue
            elif self._tok.kind is _IDENT and base is None and long_count == 0 \
                    and not saw_int_keyword and signedness is None:
                typedef = self._ctx.lookup_typedef(self._tok.text)
                if typedef is None:
                    break
                base = typedef
            else:
                break
            self._advance()

        if base is None:
            if long_count >= 1:
                base = IntType(bytes=8, signed=True, name="long")
            elif saw_int_keyword or signedness is not None:
                base = IntType(bytes=4, signed=True, name="int")
            else:
                raise self._error("expected a type")
        elif long_count >= 1 and isinstance(base, IntType) and base.name == "int":
            base = IntType(bytes=8, signed=True, name="long")

        if signedness is not None and isinstance(base, IntType):
            base = IntType(
                bytes=base.bytes,
                signed=signedness,
                name=base.name if signedness else f"unsigned {base.name}",
                is_pointer_sized=base.is_pointer_sized,
            )
        if qualifiers and not isinstance(base, PointerType):
            base = base.with_qualifiers(qualifiers & _BASE_QUALIFIERS)
        # Pointer-level qualifiers (__capability, __input, __output) are applied
        # by the declarator when a '*' follows; remember them on the side.
        self._pending_pointer_qualifiers = (
            qualifiers & _POINTER_LEVEL_QUALIFIERS if qualifiers else _NO_QUALIFIERS
        )
        return base

    def _parse_struct_type(self, *, is_union: bool) -> StructType:
        tag = ""
        if self._tok.kind is _IDENT:
            tag = self._advance().text
        struct = self._ctx.struct(tag or f"__anon_{self._pos}", is_union=is_union)
        if self._key == "{":
            self._advance()
            fields: list[StructField] = []
            while self._key != "}":
                base = self._parse_declaration_specifiers()
                while True:
                    ctype, name, _ = self._parse_declarator(base)
                    fields.append(StructField(name=name, ctype=ctype))
                    if not self._accept(","):
                        break
                self._expect_punct(";")
            self._expect_punct("}")
            struct.define(fields)
        return struct

    def _parse_declarator(self, base: CType) -> tuple[CType, str, int]:
        """Parse ``* ... name [N]`` and return (type, name, line)."""
        ctype = base
        pointer_quals = getattr(self, "_pending_pointer_qualifiers", _NO_QUALIFIERS)
        while self._key == "*":
            self._advance()
            quals = _NO_QUALIFIERS
            while self._key in _POINTER_QUALIFIER_KEYWORDS:
                keyword = self._advance().text
                if keyword == "const":
                    quals |= Qualifiers.CONST
                elif keyword == "__capability":
                    quals |= Qualifiers.CAPABILITY
                elif keyword == "__input":
                    quals |= Qualifiers.INPUT | Qualifiers.CAPABILITY
                elif keyword == "__output":
                    quals |= Qualifiers.OUTPUT | Qualifiers.CAPABILITY
            ctype = PointerType(pointee=ctype, qualifiers=quals | pointer_quals)
            pointer_quals = _NO_QUALIFIERS
        name_token = self._tok
        name = ""
        if name_token.kind is _IDENT:
            name = self._advance().text
        while self._key == "[":
            self._advance()
            if self._key == "]":
                count = 0
            else:
                count_token = self._tok
                if count_token.kind is not _INT:
                    raise self._error("array size must be an integer literal")
                count = int(count_token.value)
                self._advance()
            self._expect_punct("]")
            ctype = ArrayType(element=ctype, count=count)
        return ctype, name, name_token.line

    def _parse_type_name(self) -> CType:
        """Parse an abstract type (for casts and sizeof)."""
        base = self._parse_declaration_specifiers()
        ctype, _, _ = self._parse_declarator(base)
        return ctype

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self._tok.kind is not _EOF:
            if self._accept("typedef"):
                base = self._parse_declaration_specifiers()
                ctype, name, _ = self._parse_declarator(base)
                self._expect_punct(";")
                self._ctx.typedef(name, ctype)
                continue
            line = self._tok.line
            base = self._parse_declaration_specifiers()
            if self._accept(";"):
                continue  # bare struct/union definition
            ctype, name, decl_line = self._parse_declarator(base)
            if self._key == "(":
                unit.functions.append(self._parse_function(ctype, name, line))
            else:
                self._parse_global_tail(unit, ctype, name, decl_line, base)
        return unit

    def _parse_global_tail(
        self,
        unit: ast.TranslationUnit,
        ctype: CType,
        name: str,
        line: int,
        base: CType,
    ) -> None:
        while True:
            declaration = ast.Declaration(name=name, ctype=ctype, is_global=True, line=line)
            if self._accept("="):
                if self._key == "{":
                    declaration.array_initializer = self._parse_brace_initializer()
                else:
                    declaration.initializer = self._parse_assignment()
            unit.declarations.append(declaration)
            if self._accept(","):
                ctype, name, line = self._parse_declarator(base)
                continue
            self._expect_punct(";")
            return

    def _parse_brace_initializer(self) -> list[ast.Expr]:
        self._expect_punct("{")
        values: list[ast.Expr] = []
        while self._key != "}":
            values.append(self._parse_assignment())
            if not self._accept(","):
                break
        self._expect_punct("}")
        return values

    def _parse_function(self, return_type: CType, name: str, line: int) -> ast.FunctionDef:
        self._expect_punct("(")
        params: list[ast.Parameter] = []
        variadic = False
        if self._key != ")":
            if self._key == "void" and self._peek().is_punct(")"):
                self._advance()
            else:
                while True:
                    if self._key == "...":
                        self._advance()
                        variadic = True
                        break
                    param_base = self._parse_declaration_specifiers()
                    param_type, param_name, param_line = self._parse_declarator(param_base)
                    if isinstance(param_type, ArrayType):
                        param_type = PointerType(pointee=param_type.element)
                    params.append(ast.Parameter(name=param_name, ctype=param_type, line=param_line))
                    if not self._accept(","):
                        break
        self._expect_punct(")")
        if self._accept(";"):
            # Forward declaration / prototype: record nothing (intrinsics and
            # later definitions provide the body).
            return ast.FunctionDef(name=name, return_type=return_type, params=params,
                                   body=None, variadic=variadic, line=line)
        body = self._parse_block()
        return ast.FunctionDef(
            name=name, return_type=return_type, params=params, body=body, variadic=variadic, line=line
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect_punct("{")
        block = ast.Block(line=start.line)
        while self._key != "}":
            block.statements.append(self._parse_statement())
        self._expect_punct("}")
        return block

    def _parse_statement(self) -> ast.Stmt:
        self._descend()
        try:
            return self._parse_statement_inner()
        finally:
            self._depth -= 1

    def _parse_statement_inner(self) -> ast.Stmt:
        token = self._tok
        key = self._key
        if key == "{":
            return self._parse_block()
        if key == "if":
            return self._parse_if()
        if key == "while":
            return self._parse_while()
        if key == "for":
            return self._parse_for()
        if key == "do":
            return self._parse_do_while()
        if key == "return":
            self._advance()
            value = None
            if self._key != ";":
                value = self._parse_expression()
            self._expect_punct(";")
            return ast.Return(value=value, line=token.line)
        if key == "break":
            self._advance()
            self._expect_punct(";")
            return ast.Break(line=token.line)
        if key == "continue":
            self._advance()
            self._expect_punct(";")
            return ast.Continue(line=token.line)
        if self._starts_type(token) and key != "sizeof":
            return self._parse_local_declaration()
        if key == ";":
            self._advance()
            return ast.ExprStmt(expr=None, line=token.line)
        expr = self._parse_expression()
        self._expect_punct(";")
        return ast.ExprStmt(expr=expr, line=token.line)

    def _parse_local_declaration(self) -> ast.Stmt:
        line = self._tok.line
        base = self._parse_declaration_specifiers()
        statements: list[ast.Stmt] = []
        while True:
            ctype, name, decl_line = self._parse_declarator(base)
            declaration = ast.Declaration(name=name, ctype=ctype, line=decl_line)
            if self._accept("="):
                if self._key == "{":
                    declaration.array_initializer = self._parse_brace_initializer()
                else:
                    declaration.initializer = self._parse_assignment()
            statements.append(declaration)
            if not self._accept(","):
                break
        self._expect_punct(";")
        if len(statements) == 1:
            return statements[0]
        return ast.Block(statements=statements, line=line, transparent=True)

    def _parse_if(self) -> ast.If:
        token = self._advance()
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then_branch = self._parse_statement()
        else_branch = None
        if self._accept("else"):
            else_branch = self._parse_statement()
        return ast.If(condition=condition, then_branch=then_branch, else_branch=else_branch, line=token.line)

    def _parse_while(self) -> ast.While:
        token = self._advance()
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.While(condition=condition, body=body, line=token.line)

    def _parse_do_while(self) -> ast.Stmt:
        """``do body while (cond);`` desugared to ``body; while (cond) body;``."""
        token = self._advance()
        body = self._parse_statement()
        if not self._accept("while"):
            raise self._error("expected 'while' after do-body")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct(";")
        loop = ast.While(condition=condition, body=body, line=token.line)
        return ast.Block(statements=[body, loop], line=token.line)

    def _parse_for(self) -> ast.For:
        token = self._advance()
        self._expect_punct("(")
        init: ast.Stmt | None = None
        if self._key != ";":
            if self._starts_type():
                init = self._parse_local_declaration()
            else:
                init = ast.ExprStmt(expr=self._parse_expression(), line=self._tok.line)
                self._expect_punct(";")
        else:
            self._advance()
        condition = None
        if self._key != ";":
            condition = self._parse_expression()
        self._expect_punct(";")
        step = None
        if self._key != ")":
            step = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.For(init=init, condition=condition, step=step, body=body, line=token.line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_conditional()
        if self._key in _ASSIGN_OPS:
            token = self._advance()
            value = self._parse_assignment()
            return ast.Assign(op=token.text, target=left, value=value, line=token.line)
        return left

    def _parse_conditional(self) -> ast.Expr:
        condition = self._parse_binary(0)
        if self._key == "?":
            token = self._advance()
            then_value = self._parse_expression()
            self._expect_punct(":")
            else_value = self._parse_conditional()
            return ast.Conditional(
                condition=condition, then_value=then_value, else_value=else_value, line=token.line
            )
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            precedence = _BINARY_PRECEDENCE.get(self._key)
            if precedence is None or precedence < min_precedence:
                return left
            token = self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(op=token.text, left=left, right=right, line=token.line)

    def _parse_unary(self) -> ast.Expr:
        self._descend()
        try:
            return self._parse_unary_inner()
        finally:
            self._depth -= 1

    def _parse_unary_inner(self) -> ast.Expr:
        token = self._tok
        key = self._key
        if key in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(op=token.text, operand=operand, line=token.line)
        if key == "++" or key == "--":
            self._advance()
            operand = self._parse_unary()
            return ast.IncDec(op=token.text, operand=operand, is_prefix=True, line=token.line)
        if key == "sizeof":
            self._advance()
            if self._key == "(" and self._starts_type(self._peek()):
                self._expect_punct("(")
                target_type = self._parse_type_name()
                self._expect_punct(")")
                return ast.SizeofType(target_type=target_type, line=token.line)
            operand = self._parse_unary()
            return ast.SizeofExpr(operand=operand, line=token.line)
        if key == "(" and self._starts_type(self._peek()):
            self._advance()
            target_type = self._parse_type_name()
            self._expect_punct(")")
            operand = self._parse_unary()
            return ast.Cast(target_type=target_type, operand=operand, line=token.line)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._tok
            key = self._key
            if key == "[":
                self._advance()
                index = self._parse_expression()
                self._expect_punct("]")
                expr = ast.Index(base=expr, index=index, line=token.line)
            elif key == ".":
                self._advance()
                member = self._expect_ident().text
                expr = ast.Member(base=expr, member=member, arrow=False, line=token.line)
            elif key == "->":
                self._advance()
                member = self._expect_ident().text
                expr = ast.Member(base=expr, member=member, arrow=True, line=token.line)
            elif key == "++" or key == "--":
                self._advance()
                expr = ast.IncDec(op=token.text, operand=expr, is_prefix=False, line=token.line)
            elif key == "(" and isinstance(expr, ast.Identifier) and expr.name == "offsetof":
                self._advance()
                target_type = self._parse_type_name()
                self._expect_punct(",")
                member = self._expect_ident().text
                self._expect_punct(")")
                expr = ast.OffsetOf(target_type=target_type, member=member, line=token.line)
            elif key == "(" and isinstance(expr, ast.Identifier):
                self._advance()
                args: list[ast.Expr] = []
                while self._key != ")":
                    args.append(self._parse_assignment())
                    if not self._accept(","):
                        break
                self._expect_punct(")")
                expr = ast.Call(callee=expr.name, args=args, line=token.line)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._tok
        if token.kind is _INT:
            self._advance()
            return ast.IntLiteral(value=int(token.value), line=token.line)
        if token.kind is _CHAR:
            self._advance()
            return ast.CharLiteral(value=int(token.value), line=token.line)
        if token.kind is _STRING:
            self._advance()
            # adjacent string literals concatenate
            text = str(token.value)
            while self._tok.kind is _STRING:
                text += str(self._advance().value)
            return ast.StringLiteral(value=text, line=token.line)
        if token.kind is _IDENT:
            self._advance()
            return ast.Identifier(name=token.text, line=token.line)
        if self._key == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        raise self._error("expected an expression")

"""Lowering from the mini-C AST to the typed IR.

The generator performs semantic analysis (symbol resolution, type checking,
the usual conversions) while emitting IR, so every type error surfaces as a
:class:`~repro.common.errors.TypeCheckError` with a source line.

The properties the rest of the system relies on:

* all *type-safe* pointer arithmetic is emitted as ``gep`` / ``field`` /
  ``ptrdiff`` instructions carrying the element/struct types involved;
* every escape from the pointer type system — casting a pointer to an
  integer, reconstructing a pointer from an integer, removing ``const`` —
  is emitted as an explicit ``ptrtoint`` / ``inttoptr`` / ``bitcast`` whose
  attributes record what happened.  The idiom detector (Table 1) and the
  memory models (Table 3) both key off these instructions;
* locals live in ``alloca`` slots and globals are initialised by a synthetic
  ``__global_init`` function, so the interpreter needs no special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TypeCheckError
from repro.minic import astnodes as ast
from repro.minic.ir import Const, Function, GlobalRef, GlobalVar, Instr, Module, Opcode, Temp
from repro.minic.parser import parse
from repro.minic.typesys import (
    ArrayType,
    CType,
    FunctionType,
    IntType,
    PointerType,
    Qualifiers,
    StructType,
    TypeContext,
    VoidType,
)

#: functions provided by the interpreter runtime; calls to them are legal
#: without a prototype (mini-C has no headers).
INTRINSIC_FUNCTIONS = frozenset(
    {
        "malloc", "calloc", "free", "realloc",
        "memcpy", "memmove", "memset", "memcmp", "memchr",
        "strlen", "strcmp", "strncmp", "strcpy", "strncpy", "strchr", "strcat",
        "printf", "sprintf", "snprintf", "putchar", "puts",
        "abs", "labs", "exit", "assert", "abort", "rand", "srand",
        "mini_output_int", "mini_checkpoint",
    }
)


@dataclass
class Symbol:
    """A name bound in some scope."""

    name: str
    ctype: CType
    storage: str  # 'local' | 'param' | 'global' | 'function'
    address: Temp | GlobalRef | None = None


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.symbols: dict[str, Symbol] = {}

    def define(self, symbol: Symbol) -> None:
        self.symbols[symbol.name] = symbol

    def lookup(self, name: str) -> Symbol | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


def compile_source(
    source: str,
    *,
    pointer_bytes: int = 8,
    pointer_align: int | None = None,
    source_name: str = "<memory>",
) -> Module:
    """Parse and lower a mini-C source string to an IR module."""
    ctx = TypeContext(pointer_bytes=pointer_bytes, pointer_align=pointer_align)
    unit, ctx = parse(source, context=ctx)
    return compile_unit(unit, context=ctx, source_name=source_name,
                        source_line_count=source.count("\n") + 1)


def compile_unit(
    unit: ast.TranslationUnit,
    *,
    context: TypeContext | None = None,
    pointer_bytes: int = 8,
    pointer_align: int | None = None,
    source_name: str = "<memory>",
    source_line_count: int = 0,
) -> Module:
    """Lower an already-parsed translation unit to an IR module.

    Lexing and parsing are pointer-layout-independent (the parser consults
    its context only for typedef names and struct identity; struct layouts
    are computed lazily per ``TypeContext``), so callers that lower one
    program for several ABIs — the differential runner compiles every
    program once per pointer layout — can parse once and call this per
    layout instead of paying the front end per layout.
    """
    ctx = context or TypeContext(pointer_bytes=pointer_bytes, pointer_align=pointer_align)
    module = IrGenerator(ctx).compile(unit)
    module.source_name = source_name
    module.source_line_count = source_line_count
    return module


class IrGenerator:
    """Lowers a :class:`~repro.minic.astnodes.TranslationUnit` to IR."""

    def __init__(self, context: TypeContext) -> None:
        self.ctx = context
        self.module = Module(context=context)
        self._globals_scope = _Scope()
        self._scope = self._globals_scope
        self._function: Function | None = None
        self._temp_counter = 0
        self._label_counter = 0
        self._string_counter = 0
        self._break_labels: list[str] = []
        self._continue_labels: list[str] = []
        self._init_instrs: list[Instr] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def compile(self, unit: ast.TranslationUnit) -> Module:
        for function in unit.functions:
            return_type = function.return_type or self.ctx.void
            ftype = FunctionType(
                return_type=return_type,
                params=[p.ctype for p in function.params],
                variadic=function.variadic,
            )
            self._globals_scope.define(Symbol(function.name, ftype, "function"))
        for declaration in unit.declarations:
            self._declare_global(declaration)
        for function in unit.functions:
            if function.body is not None:
                self._compile_function(function)
        if self._init_instrs:
            init = Function(name="__global_init", return_type=self.ctx.void)
            init.instrs = self._init_instrs + [Instr(Opcode.RET)]
            self.module.functions["__global_init"] = init
        return self.module

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _new_temp(self) -> Temp:
        self._temp_counter += 1
        return Temp(self._temp_counter)

    def _new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}.{self._label_counter}"

    def _emit(self, instr: Instr) -> Instr:
        if self._function is None:
            self._init_instrs.append(instr)
        else:
            self._function.instrs.append(instr)
        return instr

    def _emit_op(self, op: Opcode, args, ctype: CType | None, *, line: int = 0, **attrs) -> Temp:
        dest = self._new_temp()
        self._emit(Instr(op, dest=dest, args=list(args), ctype=ctype, attrs=attrs, line=line))
        return dest

    def _error(self, message: str, node: ast.Node) -> TypeCheckError:
        return TypeCheckError(message, line=node.line)

    # ------------------------------------------------------------------
    # Globals
    # ------------------------------------------------------------------

    def _declare_global(self, declaration: ast.Declaration) -> None:
        ctype = declaration.ctype
        if ctype is None:
            raise self._error("global declaration without a type", declaration)
        name = declaration.name
        var = GlobalVar(
            name=name,
            ctype=ctype,
            is_const=ctype.is_const,
            line=declaration.line,
        )
        self.module.globals[name] = var
        self._globals_scope.define(Symbol(name, ctype, "global", GlobalRef(name)))
        if declaration.initializer is None and declaration.array_initializer is None:
            return
        # Initialisation is emitted into __global_init so that pointer-typed
        # and string initialisers work uniformly under every memory model.
        previous_function = self._function
        self._function = None
        if declaration.array_initializer is not None:
            if not isinstance(ctype, ArrayType):
                raise self._error("brace initializer on a non-array global", declaration)
            element = ctype.element
            for index, value_expr in enumerate(declaration.array_initializer):
                value, value_type = self._gen_expr(value_expr)
                value = self._convert(value, value_type, element, node=declaration)
                base = self._emit_op(
                    Opcode.GEP,
                    [GlobalRef(name), Const(index, self.ctx.long)],
                    PointerType(pointee=element),
                    line=declaration.line,
                    element_size=element.size(self.ctx),
                    element_type=element,
                )
                self._emit(Instr(Opcode.STORE, args=[base, value], ctype=element, line=declaration.line))
        else:
            value, value_type = self._gen_expr(declaration.initializer)
            target_type = ctype.element if isinstance(ctype, ArrayType) else ctype
            value = self._convert(value, value_type, target_type, node=declaration)
            self._emit(Instr(Opcode.STORE, args=[GlobalRef(name), value], ctype=target_type,
                             line=declaration.line))
        self._function = previous_function

    def _intern_string(self, text: str) -> GlobalRef:
        name = f".str.{self._string_counter}"
        self._string_counter += 1
        data = text.encode("latin-1") + b"\x00"
        ctype = ArrayType(element=self.ctx.char, count=len(data))
        self.module.globals[name] = GlobalVar(
            name=name, ctype=ctype, init_bytes=data, is_string=True, is_const=True
        )
        return GlobalRef(name)

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def _compile_function(self, node: ast.FunctionDef) -> None:
        return_type = node.return_type or self.ctx.void
        function = Function(
            name=node.name,
            params=[(p.name, p.ctype) for p in node.params],
            return_type=return_type,
            variadic=node.variadic,
            line=node.line,
        )
        function.source_lines = max(1, _function_last_line(node) - node.line + 1)
        self.module.functions[node.name] = function
        self._function = function
        self._scope = _Scope(self._globals_scope)
        try:
            # Parameters are copied into stack slots so their address can be taken.
            for index, parameter in enumerate(node.params):
                slot = self._emit_op(
                    Opcode.ALLOCA,
                    [],
                    PointerType(pointee=parameter.ctype),
                    line=node.line,
                    size=parameter.ctype.size(self.ctx),
                    alloc_type=parameter.ctype,
                    name=parameter.name,
                )
                self._emit(Instr(Opcode.STORE, args=[slot, Temp(-(index + 1))],
                                 ctype=parameter.ctype, line=node.line,
                                 attrs={"param_index": index}))
                self._scope.define(Symbol(parameter.name, parameter.ctype, "param", slot))
            self._gen_block(node.body)
            self._emit(Instr(Opcode.RET, args=[Const(0, return_type)] if not return_type.is_void else [],
                             ctype=return_type, line=node.line))
        finally:
            self._function = None
            self._scope = self._globals_scope

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _gen_block(self, block: ast.Block) -> None:
        if block.transparent:
            # declarator groups like ``int a = 1, b;`` share the enclosing scope
            for statement in block.statements:
                self._gen_stmt(statement)
            return
        outer = self._scope
        self._scope = _Scope(outer)
        for statement in block.statements:
            self._gen_stmt(statement)
        self._scope = outer

    def _gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, ast.Declaration):
            self._gen_local_declaration(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._gen_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self._gen_while(stmt)
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_labels:
                raise self._error("break outside a loop", stmt)
            self._emit(Instr(Opcode.JUMP, attrs={"target": self._break_labels[-1]}, line=stmt.line))
        elif isinstance(stmt, ast.Continue):
            if not self._continue_labels:
                raise self._error("continue outside a loop", stmt)
            self._emit(Instr(Opcode.JUMP, attrs={"target": self._continue_labels[-1]}, line=stmt.line))
        else:  # pragma: no cover - parser produces only the above
            raise self._error(f"unsupported statement {type(stmt).__name__}", stmt)

    def _gen_local_declaration(self, declaration: ast.Declaration) -> None:
        ctype = declaration.ctype
        if ctype is None or isinstance(ctype, FunctionType):
            raise self._error("invalid local declaration", declaration)
        slot = self._emit_op(
            Opcode.ALLOCA,
            [],
            PointerType(pointee=ctype),
            line=declaration.line,
            size=ctype.size(self.ctx),
            alloc_type=ctype,
            name=declaration.name,
        )
        self._scope.define(Symbol(declaration.name, ctype, "local", slot))
        if declaration.array_initializer is not None:
            if not isinstance(ctype, ArrayType):
                raise self._error("brace initializer on a non-array variable", declaration)
            element = ctype.element
            for index, value_expr in enumerate(declaration.array_initializer):
                value, value_type = self._gen_expr(value_expr)
                value = self._convert(value, value_type, element, node=declaration)
                address = self._emit_op(
                    Opcode.GEP,
                    [slot, Const(index, self.ctx.long)],
                    PointerType(pointee=element),
                    line=declaration.line,
                    element_size=element.size(self.ctx),
                    element_type=element,
                )
                self._emit(Instr(Opcode.STORE, args=[address, value], ctype=element, line=declaration.line))
        elif declaration.initializer is not None:
            value, value_type = self._gen_expr(declaration.initializer)
            value = self._convert(value, value_type, ctype, node=declaration)
            self._emit(Instr(Opcode.STORE, args=[slot, value], ctype=ctype, line=declaration.line))

    def _gen_if(self, stmt: ast.If) -> None:
        then_label = self._new_label("if.then")
        else_label = self._new_label("if.else")
        end_label = self._new_label("if.end")
        condition, _ = self._gen_expr(stmt.condition)
        self._emit(Instr(Opcode.CJUMP, args=[condition],
                         attrs={"then": then_label, "else": else_label if stmt.else_branch else end_label},
                         line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": then_label}, line=stmt.line))
        self._gen_stmt(stmt.then_branch)
        self._emit(Instr(Opcode.JUMP, attrs={"target": end_label}, line=stmt.line))
        if stmt.else_branch is not None:
            self._emit(Instr(Opcode.LABEL, attrs={"name": else_label}, line=stmt.line))
            self._gen_stmt(stmt.else_branch)
            self._emit(Instr(Opcode.JUMP, attrs={"target": end_label}, line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": end_label}, line=stmt.line))

    def _gen_while(self, stmt: ast.While) -> None:
        head = self._new_label("while.head")
        body = self._new_label("while.body")
        end = self._new_label("while.end")
        self._emit(Instr(Opcode.LABEL, attrs={"name": head}, line=stmt.line))
        condition, _ = self._gen_expr(stmt.condition)
        self._emit(Instr(Opcode.CJUMP, args=[condition], attrs={"then": body, "else": end}, line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": body}, line=stmt.line))
        self._break_labels.append(end)
        self._continue_labels.append(head)
        self._gen_stmt(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        self._emit(Instr(Opcode.JUMP, attrs={"target": head}, line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": end}, line=stmt.line))

    def _gen_for(self, stmt: ast.For) -> None:
        outer = self._scope
        self._scope = _Scope(outer)
        head = self._new_label("for.head")
        body = self._new_label("for.body")
        step = self._new_label("for.step")
        end = self._new_label("for.end")
        if stmt.init is not None:
            self._gen_stmt(stmt.init)
        self._emit(Instr(Opcode.LABEL, attrs={"name": head}, line=stmt.line))
        if stmt.condition is not None:
            condition, _ = self._gen_expr(stmt.condition)
            self._emit(Instr(Opcode.CJUMP, args=[condition], attrs={"then": body, "else": end},
                             line=stmt.line))
        else:
            self._emit(Instr(Opcode.JUMP, attrs={"target": body}, line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": body}, line=stmt.line))
        self._break_labels.append(end)
        self._continue_labels.append(step)
        self._gen_stmt(stmt.body)
        self._break_labels.pop()
        self._continue_labels.pop()
        self._emit(Instr(Opcode.LABEL, attrs={"name": step}, line=stmt.line))
        if stmt.step is not None:
            self._gen_expr(stmt.step)
        self._emit(Instr(Opcode.JUMP, attrs={"target": head}, line=stmt.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": end}, line=stmt.line))
        self._scope = outer

    def _gen_return(self, stmt: ast.Return) -> None:
        return_type = self._function.return_type
        if stmt.value is None:
            self._emit(Instr(Opcode.RET, ctype=return_type, line=stmt.line))
            return
        value, value_type = self._gen_expr(stmt.value)
        if not return_type.is_void:
            value = self._convert(value, value_type, return_type, node=stmt)
        self._emit(Instr(Opcode.RET, args=[value], ctype=return_type, line=stmt.line))

    # ------------------------------------------------------------------
    # Expressions: rvalues
    # ------------------------------------------------------------------

    def _gen_expr(self, expr: ast.Expr) -> tuple:
        """Generate an rvalue; returns (operand, ctype)."""
        if isinstance(expr, ast.IntLiteral):
            ctype = self.ctx.long if expr.value > 0x7FFFFFFF or expr.value < -0x80000000 else self.ctx.int_
            return Const(expr.value, ctype), ctype
        if isinstance(expr, ast.CharLiteral):
            return Const(expr.value, self.ctx.char), self.ctx.int_
        if isinstance(expr, ast.StringLiteral):
            ref = self._intern_string(expr.value)
            ctype = PointerType(pointee=self.ctx.char.with_qualifiers(Qualifiers.CONST))
            value = self._emit_op(Opcode.GEP, [ref, Const(0, self.ctx.long)], ctype,
                                  line=expr.line, element_size=1, element_type=self.ctx.char,
                                  decay=True)
            return value, ctype
        if isinstance(expr, ast.Identifier):
            return self._gen_identifier_value(expr)
        if isinstance(expr, ast.SizeofType):
            return Const(expr.target_type.size(self.ctx), self.ctx.typedefs["size_t"]), \
                self.ctx.typedefs["size_t"]
        if isinstance(expr, ast.SizeofExpr):
            _, ctype = self._analyze_type(expr.operand)
            return Const(ctype.size(self.ctx), self.ctx.typedefs["size_t"]), self.ctx.typedefs["size_t"]
        if isinstance(expr, ast.OffsetOf):
            struct = expr.target_type
            if not isinstance(struct, StructType):
                raise self._error("offsetof requires a struct type", expr)
            field = struct.field_named(expr.member, self.ctx)
            return Const(field.offset, self.ctx.typedefs["size_t"]), self.ctx.typedefs["size_t"]
        if isinstance(expr, ast.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, ast.IncDec):
            return self._gen_incdec(expr)
        if isinstance(expr, ast.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._gen_conditional(expr)
        if isinstance(expr, ast.Cast):
            return self._gen_cast(expr)
        if isinstance(expr, ast.Call):
            return self._gen_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            address, ctype = self._gen_addr(expr)
            return self._load_value(address, ctype, expr)
        raise self._error(f"unsupported expression {type(expr).__name__}", expr)

    def _gen_identifier_value(self, expr: ast.Identifier) -> tuple:
        symbol = self._scope.lookup(expr.name)
        if symbol is None:
            raise self._error(f"use of undeclared identifier {expr.name!r}", expr)
        if symbol.storage == "function":
            raise self._error("function names may only be called (no function pointers in mini-C)", expr)
        return self._load_value(symbol.address, symbol.ctype, expr)

    def _load_value(self, address, ctype: CType, node: ast.Node) -> tuple:
        if isinstance(ctype, ArrayType):
            # Array lvalues decay to a pointer to their first element.
            pointer_type = PointerType(pointee=ctype.element)
            value = self._emit_op(Opcode.GEP, [address, Const(0, self.ctx.long)], pointer_type,
                                  line=node.line, element_size=ctype.element.size(self.ctx),
                                  element_type=ctype.element, decay=True)
            return value, pointer_type
        if isinstance(ctype, StructType):
            # Struct rvalues are represented by their address (mini-C only
            # supports struct copies via assignment, handled in _gen_assign).
            return address, ctype
        value = self._emit_op(Opcode.LOAD, [address], ctype, line=node.line)
        return value, ctype

    # ------------------------------------------------------------------
    # Expressions: lvalue addresses
    # ------------------------------------------------------------------

    def _gen_addr(self, expr: ast.Expr) -> tuple:
        """Generate the address of an lvalue; returns (operand, object ctype)."""
        if isinstance(expr, ast.Identifier):
            symbol = self._scope.lookup(expr.name)
            if symbol is None:
                raise self._error(f"use of undeclared identifier {expr.name!r}", expr)
            if symbol.storage == "function":
                raise self._error("cannot take the address of a function in mini-C", expr)
            return symbol.address, symbol.ctype
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer, pointer_type = self._gen_expr(expr.operand)
            pointer_type = self._decay(pointer_type)
            if not isinstance(pointer_type, PointerType):
                raise self._error("cannot dereference a non-pointer", expr)
            return pointer, pointer_type.pointee
        if isinstance(expr, ast.Index):
            base, base_type = self._gen_expr(expr.base)
            base_type = self._decay(base_type)
            if not isinstance(base_type, PointerType):
                raise self._error("subscripted value is not a pointer or array", expr)
            index, index_type = self._gen_expr(expr.index)
            if not index_type.is_integer:
                raise self._error("array subscript is not an integer", expr)
            element = base_type.pointee
            address = self._emit_op(Opcode.GEP, [base, index], PointerType(pointee=element),
                                    line=expr.line, element_size=element.size(self.ctx),
                                    element_type=element)
            return address, element
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base, base_type = self._gen_expr(expr.base)
                base_type = self._decay(base_type)
                if not isinstance(base_type, PointerType) or not isinstance(base_type.pointee, StructType):
                    raise self._error("'->' applied to a non-struct-pointer", expr)
                struct = base_type.pointee
            else:
                base, struct = self._gen_addr(expr.base)
                if not isinstance(struct, StructType):
                    raise self._error("'.' applied to a non-struct value", expr)
            field = struct.field_named(expr.member, self.ctx)
            address = self._emit_op(Opcode.FIELD, [base], PointerType(pointee=field.ctype),
                                    line=expr.line, offset=field.offset, field=field.name,
                                    struct=str(struct))
            return address, field.ctype
        if isinstance(expr, ast.Cast):
            # (T *)expr used as an lvalue: take the operand's address-ness away;
            # only pointer dereference of casts is supported via Unary('*').
            raise self._error("a cast expression is not an lvalue", expr)
        raise self._error(f"expression is not an lvalue ({type(expr).__name__})", expr)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _gen_unary(self, expr: ast.Unary) -> tuple:
        if expr.op == "&":
            address, ctype = self._gen_addr(expr.operand)
            return address, PointerType(pointee=ctype)
        if expr.op == "*":
            address, ctype = self._gen_addr(expr)
            return self._load_value(address, ctype, expr)
        value, ctype = self._gen_expr(expr.operand)
        if expr.op == "+":
            return value, ctype
        if expr.op == "-":
            result = self._emit_op(Opcode.UNOP, [value], ctype, line=expr.line, operator="neg")
            return result, ctype
        if expr.op == "~":
            result = self._emit_op(Opcode.UNOP, [value], ctype, line=expr.line, operator="not")
            return result, ctype
        if expr.op == "!":
            result = self._emit_op(Opcode.CMP, [value, Const(0, ctype)], self.ctx.int_,
                                   line=expr.line, operator="==")
            return result, self.ctx.int_
        raise self._error(f"unsupported unary operator {expr.op!r}", expr)

    def _gen_incdec(self, expr: ast.IncDec) -> tuple:
        address, ctype = self._gen_addr(expr.operand)
        old_value = self._emit_op(Opcode.LOAD, [address], ctype, line=expr.line)
        delta = Const(1, self.ctx.int_)
        if isinstance(ctype, PointerType):
            element = ctype.pointee
            step = 1 if expr.op == "++" else -1
            new_value = self._emit_op(Opcode.GEP, [old_value, Const(step, self.ctx.long)], ctype,
                                      line=expr.line, element_size=element.size(self.ctx),
                                      element_type=element)
        else:
            operator = "+" if expr.op == "++" else "-"
            new_value = self._emit_op(Opcode.BINOP, [old_value, delta], ctype, line=expr.line,
                                      operator=operator)
        self._emit(Instr(Opcode.STORE, args=[address, new_value], ctype=ctype, line=expr.line))
        return (new_value if expr.is_prefix else old_value), ctype

    def _gen_binary(self, expr: ast.Binary) -> tuple:
        if expr.op in ("&&", "||"):
            return self._gen_logical(expr)
        left, left_type = self._gen_expr(expr.left)
        right, right_type = self._gen_expr(expr.right)
        left_type = self._decay(left_type)
        right_type = self._decay(right_type)

        if expr.op in ("==", "!=", "<", ">", "<=", ">="):
            result = self._emit_op(Opcode.CMP, [left, right], self.ctx.int_, line=expr.line,
                                   operator=expr.op,
                                   pointer_compare=isinstance(left_type, PointerType)
                                   or isinstance(right_type, PointerType))
            return result, self.ctx.int_

        if expr.op == "+":
            if isinstance(left_type, PointerType) and right_type.is_integer:
                return self._pointer_add(left, left_type, right, expr), left_type
            if isinstance(right_type, PointerType) and left_type.is_integer:
                return self._pointer_add(right, right_type, left, expr), right_type
        if expr.op == "-":
            if isinstance(left_type, PointerType) and isinstance(right_type, PointerType):
                element = left_type.pointee
                result = self._emit_op(Opcode.PTRDIFF, [left, right], self.ctx.typedefs["ptrdiff_t"],
                                       line=expr.line, element_size=max(element.size(self.ctx), 1))
                return result, self.ctx.typedefs["ptrdiff_t"]
            if isinstance(left_type, PointerType) and right_type.is_integer:
                negated = self._emit_op(Opcode.UNOP, [right], right_type, line=expr.line, operator="neg")
                return self._pointer_add(left, left_type, negated, expr), left_type

        if isinstance(left_type, PointerType) or isinstance(right_type, PointerType):
            raise self._error(f"invalid pointer operands to binary {expr.op!r}", expr)

        common = self.ctx.common_type(left_type, right_type)
        left = self._convert(left, left_type, common, node=expr)
        right = self._convert(right, right_type, common, node=expr)
        # Integer arithmetic on values derived from pointers is the IA idiom;
        # the detector finds it by looking at operand provenance attributes.
        result = self._emit_op(Opcode.BINOP, [left, right], common, line=expr.line, operator=expr.op)
        return result, common

    def _pointer_add(self, pointer, pointer_type: PointerType, index, expr: ast.Binary):
        element = pointer_type.pointee
        return self._emit_op(Opcode.GEP, [pointer, index], pointer_type, line=expr.line,
                             element_size=max(element.size(self.ctx), 1), element_type=element)

    def _gen_logical(self, expr: ast.Binary) -> tuple:
        result_slot = self._emit_op(Opcode.ALLOCA, [], PointerType(pointee=self.ctx.int_),
                                    line=expr.line, size=4, alloc_type=self.ctx.int_, name="logical.tmp")
        evaluate_right = self._new_label("logical.rhs")
        short_circuit = self._new_label("logical.short")
        end = self._new_label("logical.end")
        left, _ = self._gen_expr(expr.left)
        if expr.op == "&&":
            attrs = {"then": evaluate_right, "else": short_circuit}
            short_value = 0
        else:
            attrs = {"then": short_circuit, "else": evaluate_right}
            short_value = 1
        self._emit(Instr(Opcode.CJUMP, args=[left], attrs=attrs, line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": evaluate_right}, line=expr.line))
        right, right_type = self._gen_expr(expr.right)
        right_bool = self._emit_op(Opcode.CMP, [right, Const(0, right_type)], self.ctx.int_,
                                   line=expr.line, operator="!=")
        self._emit(Instr(Opcode.STORE, args=[result_slot, right_bool], ctype=self.ctx.int_, line=expr.line))
        self._emit(Instr(Opcode.JUMP, attrs={"target": end}, line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": short_circuit}, line=expr.line))
        self._emit(Instr(Opcode.STORE, args=[result_slot, Const(short_value, self.ctx.int_)],
                         ctype=self.ctx.int_, line=expr.line))
        self._emit(Instr(Opcode.JUMP, attrs={"target": end}, line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": end}, line=expr.line))
        result = self._emit_op(Opcode.LOAD, [result_slot], self.ctx.int_, line=expr.line)
        return result, self.ctx.int_

    def _gen_conditional(self, expr: ast.Conditional) -> tuple:
        then_label = self._new_label("cond.then")
        else_label = self._new_label("cond.else")
        end_label = self._new_label("cond.end")
        condition, _ = self._gen_expr(expr.condition)
        # Result type: computed from a dry-run type analysis of both arms.
        _, then_type = self._analyze_type(expr.then_value)
        _, else_type = self._analyze_type(expr.else_value)
        then_type = self._decay(then_type)
        else_type = self._decay(else_type)
        if isinstance(then_type, PointerType):
            result_type = then_type
        elif isinstance(else_type, PointerType):
            result_type = else_type
        else:
            result_type = self.ctx.common_type(then_type, else_type)
        slot = self._emit_op(Opcode.ALLOCA, [], PointerType(pointee=result_type), line=expr.line,
                             size=result_type.size(self.ctx), alloc_type=result_type, name="cond.tmp")
        self._emit(Instr(Opcode.CJUMP, args=[condition], attrs={"then": then_label, "else": else_label},
                         line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": then_label}, line=expr.line))
        then_value, then_actual = self._gen_expr(expr.then_value)
        then_value = self._convert(then_value, then_actual, result_type, node=expr)
        self._emit(Instr(Opcode.STORE, args=[slot, then_value], ctype=result_type, line=expr.line))
        self._emit(Instr(Opcode.JUMP, attrs={"target": end_label}, line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": else_label}, line=expr.line))
        else_value, else_actual = self._gen_expr(expr.else_value)
        else_value = self._convert(else_value, else_actual, result_type, node=expr)
        self._emit(Instr(Opcode.STORE, args=[slot, else_value], ctype=result_type, line=expr.line))
        self._emit(Instr(Opcode.JUMP, attrs={"target": end_label}, line=expr.line))
        self._emit(Instr(Opcode.LABEL, attrs={"name": end_label}, line=expr.line))
        result = self._emit_op(Opcode.LOAD, [slot], result_type, line=expr.line)
        return result, result_type

    def _gen_assign(self, expr: ast.Assign) -> tuple:
        address, target_type = self._gen_addr(expr.target)
        if isinstance(target_type, StructType):
            if expr.op != "=":
                raise self._error("compound assignment on a struct", expr)
            source_address, source_type = self._gen_expr(expr.value)
            if not isinstance(source_type, StructType):
                raise self._error("assigning a non-struct value to a struct", expr)
            size = target_type.size(self.ctx)
            self._emit(Instr(Opcode.CALL, dest=self._new_temp(),
                             args=[address, source_address, Const(size, self.ctx.typedefs["size_t"])],
                             ctype=PointerType(pointee=self.ctx.void),
                             attrs={"callee": "memcpy"}, line=expr.line))
            return address, target_type
        if expr.op == "=":
            value, value_type = self._gen_expr(expr.value)
            value = self._convert(value, value_type, target_type, node=expr)
        else:
            operator = expr.op[:-1]
            old_value = self._emit_op(Opcode.LOAD, [address], target_type, line=expr.line)
            rhs, rhs_type = self._gen_expr(expr.value)
            if isinstance(target_type, PointerType):
                if operator == "+":
                    value = self._pointer_add(old_value, target_type, rhs,
                                              ast.Binary(op="+", line=expr.line))
                elif operator == "-":
                    negated = self._emit_op(Opcode.UNOP, [rhs], rhs_type, line=expr.line, operator="neg")
                    value = self._pointer_add(old_value, target_type, negated,
                                              ast.Binary(op="-", line=expr.line))
                else:
                    raise self._error(f"invalid compound operator {expr.op!r} on a pointer", expr)
            else:
                rhs = self._convert(rhs, rhs_type, target_type, node=expr)
                value = self._emit_op(Opcode.BINOP, [old_value, rhs], target_type, line=expr.line,
                                      operator=operator)
        self._emit(Instr(Opcode.STORE, args=[address, value], ctype=target_type, line=expr.line,
                         attrs={"const_target": target_type.is_const}))
        return value, target_type

    def _gen_cast(self, expr: ast.Cast) -> tuple:
        value, source_type = self._gen_expr(expr.operand)
        source_type = self._decay(source_type)
        target_type = expr.target_type
        converted = self._convert(value, source_type, target_type, node=expr, explicit=True)
        return converted, target_type

    def _gen_call(self, expr: ast.Call) -> tuple:
        symbol = self._scope.lookup(expr.callee)
        if symbol is not None and symbol.storage == "function":
            ftype = symbol.ctype
            return_type = ftype.return_type
            param_types = ftype.params
            variadic = ftype.variadic
        elif expr.callee in INTRINSIC_FUNCTIONS:
            return_type, param_types, variadic = self._intrinsic_signature(expr.callee)
        else:
            raise self._error(f"call to undeclared function {expr.callee!r}", expr)
        args = []
        for index, arg in enumerate(expr.args):
            value, value_type = self._gen_expr(arg)
            value_type = self._decay(value_type)
            if index < len(param_types):
                value = self._convert(value, value_type, param_types[index], node=expr)
            args.append(value)
        if not variadic and len(args) != len(param_types) and expr.callee not in INTRINSIC_FUNCTIONS:
            raise self._error(
                f"{expr.callee} expects {len(param_types)} arguments, got {len(args)}", expr
            )
        dest = self._new_temp() if not return_type.is_void else None
        self._emit(Instr(Opcode.CALL, dest=dest, args=args, ctype=return_type,
                         attrs={"callee": expr.callee}, line=expr.line))
        if dest is None:
            return Const(0, self.ctx.int_), self.ctx.void
        return dest, return_type

    def _intrinsic_signature(self, name: str) -> tuple[CType, list[CType], bool]:
        void_ptr = PointerType(pointee=self.ctx.void)
        const_char_ptr = PointerType(pointee=self.ctx.char.with_qualifiers(Qualifiers.CONST))
        size_t = self.ctx.typedefs["size_t"]
        int_ = self.ctx.int_
        table: dict[str, tuple[CType, list[CType], bool]] = {
            "malloc": (void_ptr, [size_t], False),
            "calloc": (void_ptr, [size_t, size_t], False),
            "realloc": (void_ptr, [void_ptr, size_t], False),
            "free": (self.ctx.void, [void_ptr], False),
            "memcpy": (void_ptr, [void_ptr, void_ptr, size_t], False),
            "memmove": (void_ptr, [void_ptr, void_ptr, size_t], False),
            "memset": (void_ptr, [void_ptr, int_, size_t], False),
            "memcmp": (int_, [void_ptr, void_ptr, size_t], False),
            "memchr": (void_ptr, [void_ptr, int_, size_t], False),
            "strlen": (size_t, [const_char_ptr], False),
            "strcmp": (int_, [const_char_ptr, const_char_ptr], False),
            "strncmp": (int_, [const_char_ptr, const_char_ptr, size_t], False),
            "strcpy": (PointerType(pointee=self.ctx.char), [PointerType(pointee=self.ctx.char), const_char_ptr], False),
            "strncpy": (PointerType(pointee=self.ctx.char), [PointerType(pointee=self.ctx.char), const_char_ptr, size_t], False),
            "strchr": (PointerType(pointee=self.ctx.char), [const_char_ptr, int_], False),
            "strcat": (PointerType(pointee=self.ctx.char), [PointerType(pointee=self.ctx.char), const_char_ptr], False),
            "printf": (int_, [const_char_ptr], True),
            "sprintf": (int_, [PointerType(pointee=self.ctx.char), const_char_ptr], True),
            "snprintf": (int_, [PointerType(pointee=self.ctx.char), size_t, const_char_ptr], True),
            "putchar": (int_, [int_], False),
            "puts": (int_, [const_char_ptr], False),
            "abs": (int_, [int_], False),
            "labs": (self.ctx.long, [self.ctx.long], False),
            "exit": (self.ctx.void, [int_], False),
            "abort": (self.ctx.void, [], False),
            "assert": (self.ctx.void, [int_], False),
            "rand": (int_, [], False),
            "srand": (self.ctx.void, [int_], False),
            "mini_output_int": (self.ctx.void, [self.ctx.long], False),
            "mini_checkpoint": (self.ctx.void, [self.ctx.long], False),
        }
        return table[name]

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def _decay(self, ctype: CType) -> CType:
        if isinstance(ctype, ArrayType):
            return PointerType(pointee=ctype.element)
        return ctype

    def _convert(self, value, source: CType, target: CType, *, node: ast.Node, explicit: bool = False):
        """Insert the conversion from ``source`` to ``target`` (if any)."""
        source = self._decay(source)
        target_decayed = self._decay(target)

        if isinstance(target_decayed, PointerType) and isinstance(source, PointerType):
            deconst = source.pointee.is_const and not target_decayed.pointee.is_const
            if deconst or type(source.pointee) is not type(target_decayed.pointee) \
                    or str(source) != str(target_decayed):
                return self._emit_op(Opcode.BITCAST, [value], target_decayed, line=node.line,
                                     deconst=deconst, explicit=explicit)
            return value

        if isinstance(target_decayed, PointerType) and source.is_integer:
            width = source.size(self.ctx)
            return self._emit_op(Opcode.INTTOPTR, [value], target_decayed, line=node.line,
                                 source_bytes=width, explicit=explicit,
                                 from_pointer_sized=getattr(source, "is_pointer_sized", False))

        if target_decayed.is_integer and isinstance(source, PointerType):
            width = target_decayed.size(self.ctx)
            return self._emit_op(Opcode.PTRTOINT, [value], target_decayed, line=node.line,
                                 target_bytes=width, explicit=explicit,
                                 to_pointer_sized=getattr(target_decayed, "is_pointer_sized", False))

        if target_decayed.is_integer and source.is_integer:
            if target_decayed.size(self.ctx) == source.size(self.ctx) \
                    and target_decayed.signed == source.signed \
                    and getattr(target_decayed, "is_pointer_sized", False) == getattr(source, "is_pointer_sized", False):
                return value
            return self._emit_op(Opcode.INTCAST, [value], target_decayed, line=node.line,
                                 source_bytes=source.size(self.ctx),
                                 target_bytes=target_decayed.size(self.ctx),
                                 signed=getattr(target_decayed, "signed", True))

        if target_decayed.is_void:
            return value
        if isinstance(target_decayed, StructType) and isinstance(source, StructType):
            return value
        raise self._error(f"cannot convert {source} to {target_decayed}", node)

    # ------------------------------------------------------------------
    # Dry-run type analysis (no code emitted) for sizeof/conditional typing
    # ------------------------------------------------------------------

    def _analyze_type(self, expr: ast.Expr) -> tuple:
        """Return (None, ctype) for an expression without emitting its code.

        Implemented by generating into a scratch function and discarding the
        instructions; correctness matters more than elegance here, and the
        expressions involved (sizeof operands, conditional arms) are small.
        """
        saved_function = self._function
        saved_counter = self._temp_counter
        scratch = Function(name="__scratch", return_type=self.ctx.void)
        self._function = scratch
        try:
            _, ctype = self._gen_expr(expr)
        finally:
            self._function = saved_function
            self._temp_counter = saved_counter
        return None, ctype


def _function_last_line(node: ast.FunctionDef) -> int:
    """The last source line of a function, walked once per body.

    Callers lower one parsed AST once per pointer layout, so the answer is
    kept on the node beside the body it was computed from; replacing the
    body recomputes it.  Lowered ASTs are not edited in place (the reducer
    edits copies of generator ASTs and re-parses their rendered source).
    """
    memo = node.__dict__.get("_last_line_memo")
    if memo is None or memo[0] is not node.body:
        memo = (node.body, _last_line(node.body) if node.body else node.line)
        node._last_line_memo = memo
    return memo[1]


def _last_line(node: ast.Node) -> int:
    """The maximum source line mentioned in a subtree (for LoC accounting)."""
    best = node.line
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            best = max(best, _last_line(value))
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    best = max(best, _last_line(item))
    return best

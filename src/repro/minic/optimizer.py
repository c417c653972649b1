"""A small IR optimizer.

The paper's survey methodology only counts idioms that *survive optimization*
("We ignore those that do not survive optimization because they will have no
effect on run-time enforcement").  The passes here mirror the cheap clean-ups
a production compiler would always perform, so the idiom detector and the
interpreter both see IR free of obviously-dead pointer/integer churn:

* constant folding of integer arithmetic, comparisons and casts;
* removal of ``ptrtoint``/``inttoptr`` round trips whose integer value is
  never touched (these are exactly the cases that do not constrain a memory
  model);
* dead-code elimination of side-effect-free instructions whose results are
  unused.
"""

from __future__ import annotations

from repro.common.bitops import sign_extend, truncate
from repro.minic.ir import Const, Function, Instr, Module, Opcode, Temp

#: values of the opcodes DCE never removes: those with observable side
#: effects, and NOP.  Keyed by value: testing an ``Opcode`` against a set
#: would call the Python-level ``Enum.__hash__`` once per instruction.
_KEPT = frozenset(op.value for op in (
    Opcode.STORE, Opcode.CALL, Opcode.RET, Opcode.JUMP, Opcode.CJUMP, Opcode.LABEL, Opcode.ALLOCA,
    Opcode.NOP,
))

_FOLDABLE_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
}

_FOLDABLE_CMPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def optimize_module(module: Module, *, passes: int = 2) -> Module:
    """Run the optimization pipeline over every function in place."""
    for function in module.functions.values():
        for _ in range(passes):
            changed = constant_fold(function, module)
            changed |= eliminate_dead_code(function)
            if not changed:
                break
        # Both passes mutate instructions (possibly in place): drop any label
        # map cached before optimization.
        function.invalidate_label_index()
    return module


def constant_fold(function: Function, module: Module) -> bool:
    """Fold integer arithmetic on constants and propagate the results."""
    changed = False
    constants: dict[int, Const] = {}
    for instr in function.instrs:
        instr.args = [
            constants.get(arg.index, arg) if isinstance(arg, Temp) else arg
            for arg in instr.args
        ]
        if instr.dest is None:
            continue
        folded = _fold(instr, module)
        if folded is not None:
            constants[instr.dest.index] = folded
            instr.op = Opcode.NOP
            instr.args = []
            changed = True
    return changed


def _fold(instr: Instr, module: Module) -> Const | None:
    if instr.op is Opcode.BINOP and all(isinstance(a, Const) for a in instr.args):
        operator = instr.attrs["operator"]
        handler = _FOLDABLE_BINOPS.get(operator)
        if handler is None:
            return None
        if operator in ("/", "%") and instr.args[1].value == 0:
            return None
        value = handler(instr.args[0].value, instr.args[1].value)
        return Const(_wrap(value, instr, module), instr.ctype)
    if instr.op is Opcode.CMP and all(isinstance(a, Const) for a in instr.args):
        handler = _FOLDABLE_CMPS.get(instr.attrs["operator"])
        if handler is None:
            return None
        return Const(1 if handler(instr.args[0].value, instr.args[1].value) else 0, instr.ctype)
    if instr.op is Opcode.UNOP and isinstance(instr.args[0], Const):
        value = instr.args[0].value
        result = -value if instr.attrs["operator"] == "neg" else ~value
        return Const(_wrap(result, instr, module), instr.ctype)
    if instr.op is Opcode.INTCAST and isinstance(instr.args[0], Const):
        return Const(_wrap(instr.args[0].value, instr, module), instr.ctype)
    return None


def _wrap(value: int, instr: Instr, module: Module) -> int:
    ctype = instr.ctype
    if ctype is None or module.context is None:
        return value
    try:
        bits = min(ctype.size(module.context), 8) * 8
    except Exception:  # incomplete/struct types never reach here in practice
        return value
    wrapped = truncate(value, bits)
    if getattr(ctype, "signed", True):
        wrapped = sign_extend(wrapped, bits)
    return wrapped


def eliminate_dead_code(function: Function) -> bool:
    """Remove instructions whose results are never used and that have no effects.

    Also removes ``ptrtoint`` whose result feeds only a dead ``inttoptr`` —
    the "does not survive optimization" case the paper's survey ignores.
    """
    used: set[int] = set()
    for instr in function.instrs:
        for arg in instr.args:
            if isinstance(arg, Temp):
                used.add(arg.index)
    changed = False
    for instr in function.instrs:
        if instr.op._value_ in _KEPT:
            continue
        if instr.dest is not None and instr.dest.index not in used:
            instr.op = Opcode.NOP
            instr.args = []
            instr.dest = None
            changed = True
    if changed:
        function.instrs = [i for i in function.instrs if i.op is not Opcode.NOP]
    return changed

"""Tier 0: run a function straight from its predecode artifact.

Most functions of a one-shot program run once, and most of their pcs run
about once, so binding them (:func:`repro.interp.predecode.compile_function`)
costs more than it saves.  :func:`run` executes a function without binding
anything: raw-register pcs take the artifact's shared
:meth:`~repro.interp.artifact.PredecodeArtifact.raw_handlers`, and every
other pc goes through a module-level generic operation keyed on its opcode
that reads its operand facts from the artifact and its state from the
machine it is given.  The facts are decoded on a pc's first execution and
memoized on the artifact (:attr:`~repro.interp.artifact.PredecodeArtifact.generic`),
so every model of a layout shares them; they hold no machine state.

Memory operations go through the machine's generic paths
(:meth:`~repro.interp.machine.AbstractMachine._load_scalar` and
:meth:`~repro.interp.machine.AbstractMachine._store_scalar`), pointer moves
and conversions through the model's hooks, so tier 0 needs no per-model
code.  The frame has the layout bound code uses (``FRAME_RESERVED``
bookkeeping slots, then ``nregs`` registers holding raw ints in the
artifact's ``slot_types`` slots), and every pc is charged
``artifact.costs(charges)`` before it runs, so instruction counts, cycles,
budget traps and trap messages match bound code exactly.

**Promotion.**  A function is promoted — bound with its block plans
installed — at its :data:`HOT_CALL_THRESHOLD`-th call, or mid-run once one
activation has taken :data:`HOT_LOOP_THRESHOLD` loop back edges (a branch
to a pc at or before its own): :func:`run` then returns the frame and the
pc to continue at, and the machine resumes the same frame in bound code.
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import InterpreterError
from repro.interp.artifact import (
    CMP_FUNCS,
    FRAME_RESERVED,
    INT_BINOPS,
    UNDEF,
    divide,
    get_artifact,
    raw_operand,
)
from repro.interp.intrinsics import INTRINSICS
from repro.interp.models.base import field_pointer, qualifier_mask
from repro.interp.values import (
    FALSE_I32,
    INTERN_MAX,
    INTERN_MIN,
    MASKS,
    NULL_PTR,
    TRUE_I32,
    IntVal,
    PtrVal,
    arithmetic_provenance,
    intern_table,
    ptr_to_int,
    qualified,
)
from repro.minic.ir import Const, GlobalRef, Opcode, Temp
from repro.minic.typesys import IntType, PointerType

#: calls before a function is promoted to bound code with blocks (bound
#: code is observationally identical, so the threshold only trades binding
#: cost against dispatch speed).
HOT_CALL_THRESHOLD = 2

#: loop back edges one tier-0 activation takes before its function is
#: promoted and the activation continues in bound code.
HOT_LOOP_THRESHOLD = 64

_ARGS, _ALLOCAS, _RET = 0, 1, 2
_M64 = (1 << 64) - 1


def run(machine, function, args: list, loop_threshold: int):
    """Run ``function`` in tier 0 until it returns or a loop gets hot.

    Returns ``(frame, pc)``: ``pc`` is None when the function returned
    (``frame[2]`` holds the result), and otherwise the loop head at which
    bound code continues with ``frame``.
    """
    artifact = get_artifact(function, machine.ctx)
    costs = artifact.costs(machine._charges)
    raw = artifact.raw_handlers()
    slot_types = artifact.slot_types()
    generic = artifact.generic
    size = artifact.ninstrs
    nallocas = len(artifact.alloca_slots)
    frame = [args, [None] * nallocas if nallocas else None, None]
    frame += [UNDEF] * artifact.nregs
    max_instructions = machine.max_instructions
    back_edges = 0
    pc = 0
    while pc < size:
        machine.instructions = count = machine.instructions + 1
        if count > max_instructions:
            raise InterpreterError(
                f"instruction budget of {machine.max_instructions} exhausted in {function.name}"
            )
        machine.cycles += costs[pc]
        handler = raw[pc]
        if handler is not None:
            next_pc = handler(frame)
        else:
            facts = generic[pc]
            if facts is None:
                facts = generic[pc] = _decode(artifact, pc, slot_types)
            next_pc = facts[0](machine, frame, facts)
        if next_pc <= pc:
            back_edges += 1
            if back_edges >= loop_threshold:
                return frame, next_pc
        pc = next_pc
    return frame, None


class EngineStats:
    """Process-wide tiering counters: functions promoted by their
    ``HOT_CALL_THRESHOLD``-th call and by a hot loop, and pcs bound.  They
    change only when a function is bound, never per instruction."""

    __slots__ = ("promoted_by_call", "promoted_by_loop", "pcs_bound")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.promoted_by_call = self.promoted_by_loop = self.pcs_bound = 0

    def stats(self) -> dict[str, int]:
        return {"promoted.call": self.promoted_by_call,
                "promoted.loop": self.promoted_by_loop,
                "pcs_bound": self.pcs_bound}


#: the process-level engine counters (``engine.*`` in sweep telemetry).
ENGINE = EngineStats()


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------
#
# An operand spec is a tuple whose first item is its mode: 0 a boxed
# register (slot, label), 1 a raw register (slot, label, intern table,
# width, signed), 2 a hoisted value, 3 a non-null pointer constant (its
# IntVal, converted by the model on every read), 4 a global (name).


def _operand(operand, ctx, slot_types) -> tuple:
    kind = type(operand)
    if kind is Temp:
        slot = operand.index + FRAME_RESERVED
        t = slot_types.get(operand.index)
        if t is None:
            return (0, slot, str(operand))
        width, signed = t
        return (1, slot, str(operand), intern_table(width, signed), width, signed)
    if kind is Const:
        ctype = operand.ctype
        if isinstance(ctype, PointerType):
            if operand.value == 0:
                return (2, NULL_PTR)
            return (3, IntVal(operand.value, bytes=8, signed=False))
        size = ctype.size(ctx) if isinstance(ctype, IntType) else 8
        pointer_sized = isinstance(ctype, IntType) and ctype.is_pointer_sized
        return (2, IntVal(operand.value, bytes=min(size, 8),
                          signed=getattr(ctype, "signed", True),
                          pointer_sized=pointer_sized))
    if kind is GlobalRef:
        return (4, operand.name)
    raise InterpreterError(f"cannot evaluate operand {operand!r}")


def _read(machine, frame, spec):
    """The boxed value of an operand (raw registers are boxed on read)."""
    mode = spec[0]
    if mode == 0:
        value = frame[spec[1]]
        if value is UNDEF:
            raise InterpreterError(f"use of undefined temporary {spec[2]}")
        return value
    if mode == 1:
        value = frame[spec[1]]
        if type(value) is int:
            if INTERN_MIN <= value <= INTERN_MAX:
                return spec[3][value - INTERN_MIN]
            return IntVal(value, spec[4], spec[5])
        raise InterpreterError(f"use of undefined temporary {spec[2]}")
    if mode == 2:
        return spec[1]
    if mode == 3:
        return machine.model.int_to_ptr(spec[1], machine.allocator)
    try:
        return machine.globals[spec[1]]
    except KeyError:
        raise InterpreterError(f"use of unknown global {spec[1]!r}") from None


def _read_ptr(machine, frame, spec):
    """An operand coerced to a pointer (integers through ``int_to_ptr``)."""
    if spec[0] == 0:
        value = frame[spec[1]]
        if value is UNDEF:
            raise InterpreterError(f"use of undefined temporary {spec[2]}")
    else:
        value = _read(machine, frame, spec)
    kind = type(value)
    if kind is PtrVal:
        return value
    if kind is IntVal:
        return machine.model.int_to_ptr(value, machine.allocator)
    raise InterpreterError(f"expected a pointer, got {value!r}")


# ---------------------------------------------------------------------------
# Generic operations: op(machine, frame, facts) -> next pc
# ---------------------------------------------------------------------------


def _cjump(machine, frame, f):
    condition = _read(machine, frame, f[1])
    if type(condition) is IntVal:
        return f[2] if condition.value != 0 else f[3]
    return f[3] if condition.is_null else f[2]


def _ret(machine, frame, f):
    frame[_RET] = _read(machine, frame, f[1])
    return f[2]


def _alloca(machine, frame, f):
    _, slot, size, name, alignment, out, next_pc = f
    allocas = frame[_ALLOCAS]
    pointer = allocas[slot]
    if pointer is None:
        obj = machine.allocator.allocate_stack(size, name, alignment=alignment)
        pointer = allocas[slot] = machine.model.make_pointer(obj)
    frame[out] = pointer
    return next_pc


def _load(machine, frame, f):
    _, pspec, ctype, size, signed, table, out, next_pc = f
    pointer = _read_ptr(machine, frame, pspec)
    if size is None:  # a pointer or pointer-sized integer
        frame[out] = machine._load_scalar(pointer, ctype)
        return next_pc
    raw = machine._load_raw(pointer, size, signed)
    if table is None:
        frame[out] = raw
    elif INTERN_MIN <= raw <= INTERN_MAX:
        frame[out] = table[raw - INTERN_MIN]
    else:
        frame[out] = IntVal(raw, size, signed)
    return next_pc


def _store_pointer(machine, frame, f):
    """A pointer or pointer-sized integer store (the value keeps a shadow entry)."""
    _, pspec, vspec, coerce, next_pc = f
    pointer = _read_ptr(machine, frame, pspec)
    value = frame[_ARGS][vspec] if type(vspec) is int else _read(machine, frame, vspec)
    if coerce and type(value) is IntVal:
        value = machine.model.int_to_ptr(value, machine.allocator)
    raw = (value.address if type(value) is PtrVal else value.unsigned) & _M64
    machine._store_scalar(pointer, machine.model.pointer_bytes, raw, value)
    return next_pc


def _store_data(machine, frame, f):
    """A data store: the value is written as ``size`` bytes."""
    _, pspec, mode, payload, mask, size, coerce_bytes, coerce_signed, next_pc = f
    pointer = _read_ptr(machine, frame, pspec)
    if mode == 0:
        raw = payload
    elif mode == 1:
        value = frame[payload[0]]
        if type(value) is not int:
            raise InterpreterError(payload[1])
        raw = value & mask
    else:
        value = frame[_ARGS][payload] if type(payload) is int else _read(machine, frame, payload)
        if coerce_bytes is not None and type(value) is PtrVal:
            value = ptr_to_int(value, bytes=coerce_bytes, signed=coerce_signed,
                               pointer_sized=False)
        raw = (value.unsigned if type(value) is IntVal else int(value)) & mask
    machine._store_scalar(pointer, size, raw, None)
    return next_pc


def _index_move(machine, frame, f):
    """``gep`` / ``ptradd``: move a pointer by an index times an element
    size; the index is a constant (its delta), a raw register or boxed."""
    _, pspec, mode, index, element_size, label, out, next_pc = f
    pointer = _read_ptr(machine, frame, pspec)
    if mode == 0:
        delta = index
    elif mode == 1:
        idx = frame[index]
        if type(idx) is not int:
            raise InterpreterError(f"use of undefined temporary {label}")
        delta = idx * element_size
    else:
        idx = _read(machine, frame, index)
        delta = (idx.value if type(idx) is IntVal else idx.address) * element_size
    frame[out] = machine.model.ptr_offset(pointer, delta)
    return next_pc


def _field(machine, frame, f):
    _, pspec, offset, field_size, out, next_pc = f
    frame[out] = field_pointer(machine.model, _read_ptr(machine, frame, pspec),
                               offset, field_size)
    return next_pc


def _ptrdiff(machine, frame, f):
    _, aspec, bspec, element_size, raw_dest, out, next_pc = f
    diff = machine.model.ptr_diff(_read_ptr(machine, frame, aspec),
                                  _read_ptr(machine, frame, bspec), element_size)
    if raw_dest:
        raw = diff & _M64
        frame[out] = raw - 0x1_0000_0000_0000_0000 if raw >= 0x8000_0000_0000_0000 else raw
    else:
        frame[out] = IntVal(diff, bytes=8, signed=True)
    return next_pc


def _ptrtoint(machine, frame, f):
    _, pspec, width, signed, pointer_sized, out, next_pc = f
    frame[out] = ptr_to_int(_read_ptr(machine, frame, pspec), bytes=width,
                            signed=signed, pointer_sized=pointer_sized)
    return next_pc


def _inttoptr(machine, frame, f):
    _, vspec, ptr_type, out, next_pc = f
    value = _read(machine, frame, vspec)
    pointer = value if type(value) is PtrVal else machine.model.int_to_ptr(value, machine.allocator)
    frame[out] = qualified(pointer, qualifier_mask(machine.model, ptr_type)
                           if ptr_type is not None else 0)
    return next_pc


def _bitcast(machine, frame, f):
    # Casting away const never restores rights: only the target type's
    # qualifiers act.
    _, vspec, ptr_type, out, next_pc = f
    value = _read(machine, frame, vspec)
    if type(value) is PtrVal and ptr_type is not None:
        value = qualified(value, qualifier_mask(machine.model, ptr_type))
    frame[out] = value
    return next_pc


def _intcast(machine, frame, f):
    _, vspec, width, signed, pointer_sized, out, next_pc = f
    value = _read(machine, frame, vspec)
    if type(value) is PtrVal:
        frame[out] = ptr_to_int(value, bytes=width, signed=signed, pointer_sized=pointer_sized)
    elif (value.bytes == width and value.signed == signed
          and value.pointer_sized == pointer_sized):
        frame[out] = value
    else:
        frame[out] = value.converted(bytes=width, signed=signed, pointer_sized=pointer_sized)
    return next_pc


def _binop(machine, frame, f):
    (_, lspec, rspec, fast_op, width, signed, pointer_sized, table, raw_dest, out,
     next_pc, operator) = f
    left = _read(machine, frame, lspec)
    right = _read(machine, frame, rspec)
    if fast_op is None:
        raise InterpreterError(f"unknown binary operator {operator!r}")
    if type(left) is not IntVal:
        left = ptr_to_int(left, bytes=8, signed=False, pointer_sized=True)
    if type(right) is not IntVal:
        right = ptr_to_int(right, bytes=8, signed=False, pointer_sized=True)
    raw = fast_op(left.value, right.value)
    if left.provenance is None and right.provenance is None:
        if table is not None and INTERN_MIN <= raw <= INTERN_MAX:
            boxed = table[raw - INTERN_MIN]
            frame[out] = boxed.value if raw_dest else boxed
            return next_pc
        provenance = None
    else:
        provenance = arithmetic_provenance(left, right)
    result = IntVal(raw, bytes=width, signed=signed, provenance=provenance,
                    pointer_sized=pointer_sized)
    frame[out] = result.value if raw_dest else result
    return next_pc


def _unop(machine, frame, f):
    _, vspec, negate, out, next_pc = f
    value = _read(machine, frame, vspec)
    if type(value) is not IntVal:
        raise InterpreterError("unary arithmetic on a pointer value")
    frame[out] = value.with_value(-value.value if negate else ~value.value, provenance=None)
    return next_pc


def _cmp(machine, frame, f):
    _, lspec, rspec, compare, operator, raw_dest, out, next_pc = f
    left = _read(machine, frame, lspec)
    right = _read(machine, frame, rspec)
    if compare is None:
        raise KeyError(operator)
    result = compare(left.address if type(left) is PtrVal else left.value,
                     right.address if type(right) is PtrVal else right.value)
    if raw_dest:
        frame[out] = 1 if result else 0
    else:
        frame[out] = TRUE_I32 if result else FALSE_I32
    return next_pc


def _call(machine, frame, f):
    _, callee, specs, result_type, dest, next_pc = f
    function = machine.module.functions.get(callee)
    if function is not None and function.instrs:
        args = [_read(machine, frame, spec) for spec in specs]
        # An integer passed to a pointer parameter converts through the
        # model; a pointer argument already carries its type's qualifiers.
        params = function.params
        for index, value in enumerate(args):
            if (type(value) is IntVal and index < len(params)
                    and isinstance(params[index][1], PointerType)):
                args[index] = machine.model.int_to_ptr(value, machine.allocator)
        result = machine._call(function, args)
    else:
        intrinsic = INTRINSICS.get(callee)
        if intrinsic is None:
            raise InterpreterError(f"call to unknown function {callee!r}")
        result = intrinsic(machine, [_read(machine, frame, spec) for spec in specs],
                           result_type)
    if dest is not None:
        frame[dest] = result
    return next_pc


def _unsupported(machine, frame, f):
    raise InterpreterError(f"unsupported IR opcode {f[1]}")


# ---------------------------------------------------------------------------
# Decoding a pc's facts (once per artifact, shared by every model)
# ---------------------------------------------------------------------------


def _decode(artifact, pc: int, slot_types: dict) -> tuple:
    """The generic operation and operand facts of one non-raw pc."""
    instr = artifact.instrs[pc]
    op = instr.op
    ctx = artifact.ctx
    next_pc = pc + 1
    dest = dest_raw = None
    if instr.dest is not None:
        dest = instr.dest.index + FRAME_RESERVED
        dest_raw = instr.dest.index in slot_types
    out = dest if dest is not None else artifact.scratch
    ctype = instr.ctype

    def operand(i):
        return _operand(instr.args[i], ctx, slot_types)

    if op is Opcode.CJUMP:
        labels = artifact.labels
        return (_cjump, operand(0), labels[instr.attrs["then"]], labels[instr.attrs["else"]])
    if op is Opcode.RET:
        return (_ret, operand(0), artifact.ninstrs)
    if op is Opcode.ALLOCA:
        alloc_type = instr.attrs.get("alloc_type")
        alignment = max(8, alloc_type.alignment(ctx) if alloc_type is not None else 8)
        return (_alloca, artifact.alloca_slots[pc], instr.attrs.get("size", 8),
                instr.attrs.get("name", ""), alignment, out, next_pc)
    if op is Opcode.LOAD:
        if isinstance(ctype, PointerType) or (isinstance(ctype, IntType)
                                              and ctype.is_pointer_sized):
            return (_load, operand(0), ctype, None, None, None, out, next_pc)
        size = max(ctype.size(ctx), 1)
        signed = getattr(ctype, "signed", True)
        table = None if dest_raw else intern_table(size, signed)
        return (_load, operand(0), ctype, size, signed, table, out, next_pc)
    if op is Opcode.STORE:
        return _decode_store(instr, ctx, slot_types, operand, next_pc)
    if op is Opcode.GEP or op is Opcode.PTRADD:
        element_size = instr.attrs["element_size"] if op is Opcode.GEP else 1
        raw = raw_operand(instr.args[1], ctx, slot_types)
        if raw is None:
            mode, index, label = 2, operand(1), None
        elif raw[0] == "const":
            mode, index, label = 0, raw[1] * element_size, None
        else:
            mode, index, label = 1, raw[1], raw[3]
        return (_index_move, operand(0), mode, index, element_size, label, out, next_pc)
    if op is Opcode.FIELD:
        field_type = ctype.pointee if isinstance(ctype, PointerType) else None
        field_size = field_type.size(ctx) if field_type is not None else 1
        return (_field, operand(0), instr.attrs["offset"], field_size, out, next_pc)
    if op is Opcode.PTRDIFF:
        return (_ptrdiff, operand(0), operand(1), instr.attrs.get("element_size", 1),
                bool(dest_raw), out, next_pc)
    if op is Opcode.PTRTOINT or op is Opcode.INTCAST:
        width = min(ctype.size(ctx), 8)
        signed = getattr(ctype, "signed", True)
        pointer_sized = isinstance(ctype, IntType) and ctype.is_pointer_sized
        handler = _ptrtoint if op is Opcode.PTRTOINT else _intcast
        return (handler, operand(0), width, signed, pointer_sized, out, next_pc)
    if op is Opcode.INTTOPTR or op is Opcode.BITCAST:
        ptr_type = ctype if isinstance(ctype, PointerType) else None
        handler = _inttoptr if op is Opcode.INTTOPTR else _bitcast
        return (handler, operand(0), ptr_type, out, next_pc)
    if op is Opcode.BINOP:
        operator = instr.attrs["operator"]
        width = min(ctype.size(ctx), 8) if ctype is not None else 8
        signed = getattr(ctype, "signed", True)
        pointer_sized = isinstance(ctype, IntType) and ctype.is_pointer_sized
        fast_op = INT_BINOPS.get(operator)
        if fast_op is None and operator in ("/", "%"):
            fast_op = partial(divide, operator == "/")
        table = None if pointer_sized else intern_table(width, signed)
        return (_binop, operand(0), operand(1), fast_op, width, signed, pointer_sized,
                table, bool(dest_raw), out, next_pc, operator)
    if op is Opcode.UNOP:
        return (_unop, operand(0), instr.attrs["operator"] == "neg", out, next_pc)
    if op is Opcode.CMP:
        operator = instr.attrs["operator"]
        return (_cmp, operand(0), operand(1), CMP_FUNCS.get(operator), operator,
                bool(dest_raw), out, next_pc)
    if op is Opcode.CALL:
        specs = tuple(_operand(arg, ctx, slot_types) for arg in instr.args)
        return (_call, instr.attrs["callee"], specs, ctype, dest, next_pc)
    return (_unsupported, op)


def _decode_store(instr, ctx, slot_types, operand, next_pc) -> tuple:
    ctype = instr.ctype
    param_index = instr.attrs.get("param_index")
    if isinstance(ctype, PointerType) or (isinstance(ctype, IntType) and ctype.is_pointer_sized):
        vspec = param_index if param_index is not None else operand(1)
        return (_store_pointer, operand(0), vspec, isinstance(ctype, PointerType), next_pc)
    size = max(ctype.size(ctx), 1)
    size_mask = MASKS[size] if size <= 8 else (1 << (8 * size)) - 1
    raw = raw_operand(instr.args[1], ctx, slot_types) if param_index is None else None
    coerce_bytes = coerce_signed = None
    if raw is not None:
        kind, payload, (vwidth, _signed), label = raw
        mask = MASKS[min(vwidth, size)] if size <= 8 else MASKS[vwidth]
        if kind == "const":
            mode, payload = 0, payload & mask
        else:
            mode, payload = 1, (payload, f"use of undefined temporary {label}")
    else:
        mode, mask = 2, size_mask
        payload = param_index if param_index is not None else operand(1)
        if isinstance(ctype, IntType):
            coerce_bytes = min(ctype.size(ctx), 8)
            coerce_signed = getattr(ctype, "signed", True)
    return (_store_data, operand(0), mode, payload, mask, size, coerce_bytes,
            coerce_signed, next_pc)

"""Tier 0: run a function straight from its predecode artifact.

Most functions of a one-shot program run once, and most of their pcs run
about once, so binding them (:func:`repro.interp.predecode.compile_function`)
costs more than it saves.  :func:`run` executes a function without binding
anything, and decodes a pc only when it first runs (:func:`_decode`): to the
artifact's shared raw handler when it is raw-register work, else to the
facts of a module-level generic operation keyed on its opcode, which reads
its state from the machine it is given.  The decode is memoized on the
artifact (:attr:`~repro.interp.artifact.PredecodeArtifact.decoded`) for
every model of the layout, holds no machine state, and gives promotion its
raw handlers and facts; ``ENGINE.pcs_decoded`` counts the pcs decoded.
Bound code runs the same generic operations at every pc it does not
specialise, so each opcode has one semantics in both tiers.

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
    NEVER_RAW,
    UNDEF,
    divide,
    get_artifact,
    move_delta,
    raw_operand,
)
from repro.interp.artifact import (ALLOCA, BINOP, BITCAST, CALL, CJUMP, CMP, FIELD, GEP,
                                   INTCAST, INTTOPTR, LOAD, PTRADD, PTRDIFF, PTRTOINT,
                                   RET, STORE, UNOP)
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
from repro.minic.ir import Const, GlobalRef, Temp
from repro.minic.typesys import IntType, PointerType, is_pointer_sized_int

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
    slot_types = artifact.slot_types()
    decoded = artifact.decoded
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
        entry = decoded[pc]
        if entry is None:
            entry = decoded[pc] = _decode(artifact, pc, slot_types)
            ENGINE.pcs_decoded += 1
        if type(entry) is tuple:
            next_pc = entry[0](machine, entry, frame)
        else:
            next_pc = entry(frame)
        if next_pc <= pc:
            back_edges += 1
            if back_edges >= loop_threshold:
                return frame, next_pc
        pc = next_pc
    return frame, None


class EngineStats:
    """Process-wide tiering counters: functions promoted by their
    ``HOT_CALL_THRESHOLD``-th call and by a hot loop, pcs bound, and pcs
    tier 0 decoded.  They change only when a function is bound or a pc is
    decoded, never per instruction."""

    __slots__ = ("promoted_by_call", "promoted_by_loop", "pcs_bound", "pcs_decoded")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.promoted_by_call = self.promoted_by_loop = 0
        self.pcs_bound = self.pcs_decoded = 0

    def stats(self) -> dict[str, int]:
        return {"promoted.call": self.promoted_by_call,
                "promoted.loop": self.promoted_by_loop,
                "pcs_bound": self.pcs_bound,
                "pcs_decoded": self.pcs_decoded}


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


def _operand(operand, raw, ctx) -> tuple:
    """The spec of an operand whose raw descriptor (:func:`raw_operand`) is
    ``raw``: a raw operand is a raw register or an integer constant, and
    any other register is boxed."""
    if raw is not None:
        kind, payload, (width, signed), label = raw
        if kind == "slot":
            return (1, payload, label, intern_table(width, signed), width, signed)
        return (2, IntVal(payload, width, signed))
    kind = type(operand)
    if kind is Temp:
        return (0, operand.index + FRAME_RESERVED, str(operand))
    if kind is Const:  # a pointer or pointer-sized integer constant
        ctype = operand.ctype
        if isinstance(ctype, PointerType):
            if operand.value == 0:
                return (2, NULL_PTR)
            return (3, IntVal(operand.value, bytes=8, signed=False))
        return (2, IntVal(operand.value, bytes=min(ctype.size(ctx), 8),
                          signed=ctype.signed, pointer_sized=True))
    if kind is GlobalRef:
        return (4, operand.name)
    raise InterpreterError(f"cannot evaluate operand {operand!r}")


def _read(machine, spec, frame):
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


def _read_ptr(machine, spec, frame):
    """An operand coerced to a pointer (integers through ``int_to_ptr``)."""
    if spec[0] == 0:
        value = frame[spec[1]]
        if value is UNDEF:
            raise InterpreterError(f"use of undefined temporary {spec[2]}")
    else:
        value = _read(machine, spec, frame)
    kind = type(value)
    if kind is PtrVal:
        return value
    if kind is IntVal:
        return machine.model.int_to_ptr(value, machine.allocator)
    raise InterpreterError(f"expected a pointer, got {value!r}")


# ---------------------------------------------------------------------------
# Generic operations: op(machine, facts, frame) -> next pc
# ---------------------------------------------------------------------------
#
# Bound code runs these too, as ``partial(op, machine, facts)``, at every pc
# it does not specialise (:func:`repro.interp.predecode.compile_function`).


def _cjump(machine, f, frame):
    condition = _read(machine, f[1], frame)
    if type(condition) is IntVal:
        return f[2] if condition.value != 0 else f[3]
    return f[3] if condition.is_null else f[2]


def _ret(machine, f, frame):
    frame[_RET] = _read(machine, f[1], frame)
    return f[2]


def _alloca(machine, f, frame):
    # A re-execution (the slot is already allocated) reads only the first
    # four facts.
    allocas = frame[_ALLOCAS]
    pointer = allocas[f[1]]
    if pointer is None:
        _, slot, _, _, size, name, alignment = f
        obj = machine.allocator.allocate_stack(size, name, alignment=alignment)
        pointer = allocas[slot] = machine.model.make_pointer(obj)
    frame[f[2]] = pointer
    return f[3]


def _load(machine, f, frame):
    _, pspec, ctype, size, signed, table, out, next_pc = f
    pointer = _read_ptr(machine, pspec, frame)
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


def _store_pointer(machine, f, frame):
    """A pointer or pointer-sized integer store (the value keeps a shadow entry)."""
    _, pspec, vspec, coerce, next_pc = f
    pointer = _read_ptr(machine, pspec, frame)
    value = frame[_ARGS][vspec] if type(vspec) is int else _read(machine, vspec, frame)
    if coerce and type(value) is IntVal:
        value = machine.model.int_to_ptr(value, machine.allocator)
    raw = (value.address if type(value) is PtrVal else value.unsigned) & _M64
    machine._store_scalar(pointer, machine.model.pointer_bytes, raw, value)
    return next_pc


def _store_data(machine, f, frame):
    """A data store: the value is written as ``size`` bytes."""
    _, pspec, mode, payload, mask, size, coerce_bytes, coerce_signed, next_pc = f
    pointer = _read_ptr(machine, pspec, frame)
    if mode == 0:
        raw = payload
    elif mode == 1:
        value = frame[payload[0]]
        if type(value) is not int:
            raise InterpreterError(payload[1])
        raw = value & mask
    else:
        value = frame[_ARGS][payload] if type(payload) is int else _read(machine, payload, frame)
        if coerce_bytes is not None and type(value) is PtrVal:
            value = ptr_to_int(value, bytes=coerce_bytes, signed=coerce_signed,
                               pointer_sized=False)
        raw = (value.unsigned if type(value) is IntVal else int(value)) & mask
    machine._store_scalar(pointer, size, raw, None)
    return next_pc


def _index_move(machine, f, frame):
    """``gep`` / ``ptradd``: move a pointer by an index times an element
    size; the index is a constant (its delta), a raw register
    (:func:`~repro.interp.artifact.move_delta`) or boxed (mode 3)."""
    _, pspec, (mode, index, element_size, label), out, next_pc = f
    pointer = _read_ptr(machine, pspec, frame)
    if mode == 1:
        delta = index
    elif mode == 2:
        idx = frame[index]
        if type(idx) is not int:
            raise InterpreterError(f"use of undefined temporary {label}")
        delta = idx * element_size
    else:
        idx = _read(machine, index, frame)
        delta = (idx.value if type(idx) is IntVal else idx.address) * element_size
    frame[out] = machine.model.ptr_offset(pointer, delta)
    return next_pc


def _field(machine, f, frame):
    _, pspec, offset, field_size, out, next_pc = f
    frame[out] = field_pointer(machine.model, _read_ptr(machine, pspec, frame),
                               offset, field_size)
    return next_pc


def _ptrdiff(machine, f, frame):
    _, aspec, bspec, element_size, raw_dest, out, next_pc = f
    diff = machine.model.ptr_diff(_read_ptr(machine, aspec, frame),
                                  _read_ptr(machine, bspec, frame), element_size)
    if raw_dest:
        raw = diff & _M64
        frame[out] = raw - 0x1_0000_0000_0000_0000 if raw >= 0x8000_0000_0000_0000 else raw
    else:
        frame[out] = IntVal(diff, bytes=8, signed=True)
    return next_pc


def _ptrtoint(machine, f, frame):
    _, pspec, width, signed, pointer_sized, out, next_pc = f
    frame[out] = ptr_to_int(_read_ptr(machine, pspec, frame), bytes=width,
                            signed=signed, pointer_sized=pointer_sized)
    return next_pc


def _inttoptr(machine, f, frame):
    _, vspec, ptr_type, out, next_pc = f
    value = _read(machine, vspec, frame)
    pointer = value if type(value) is PtrVal else machine.model.int_to_ptr(value, machine.allocator)
    frame[out] = qualified(pointer, qualifier_mask(machine.model, ptr_type)
                           if ptr_type is not None else 0)
    return next_pc


def _bitcast(machine, f, frame):
    # Casting away const never restores rights: only the target type's
    # qualifiers act.
    _, vspec, ptr_type, out, next_pc = f
    value = _read(machine, vspec, frame)
    if type(value) is PtrVal and ptr_type is not None:
        value = qualified(value, qualifier_mask(machine.model, ptr_type))
    frame[out] = value
    return next_pc


def _intcast(machine, f, frame):
    _, vspec, width, signed, pointer_sized, out, next_pc = f
    value = _read(machine, vspec, frame)
    if type(value) is PtrVal:
        frame[out] = ptr_to_int(value, bytes=width, signed=signed, pointer_sized=pointer_sized)
    elif (value.bytes == width and value.signed == signed
          and value.pointer_sized == pointer_sized):
        frame[out] = value
    else:
        frame[out] = value.converted(bytes=width, signed=signed, pointer_sized=pointer_sized)
    return next_pc


def _binop(machine, f, frame):
    (_, lspec, rspec, fast_op, width, signed, pointer_sized, table, raw_dest, out,
     next_pc, operator) = f
    left = _read(machine, lspec, frame)
    right = _read(machine, rspec, frame)
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


def _unop(machine, f, frame):
    _, vspec, negate, out, next_pc = f
    value = _read(machine, vspec, frame)
    if type(value) is not IntVal:
        raise InterpreterError("unary arithmetic on a pointer value")
    frame[out] = value.with_value(-value.value if negate else ~value.value, provenance=None)
    return next_pc


def _cmp(machine, f, frame):
    _, lspec, rspec, compare, operator, raw_dest, out, next_pc = f
    left = _read(machine, lspec, frame)
    right = _read(machine, rspec, frame)
    if compare is None:
        raise KeyError(operator)
    result = compare(left.address if type(left) is PtrVal else left.value,
                     right.address if type(right) is PtrVal else right.value)
    if raw_dest:
        frame[out] = 1 if result else 0
    else:
        frame[out] = TRUE_I32 if result else FALSE_I32
    return next_pc


def _call(machine, f, frame):
    _, callee, specs, result_type, dest, next_pc = f
    function = machine.module.functions.get(callee)
    if function is not None and function.instrs:
        result = machine._call(function, [read(machine, spec, frame) for read, spec
                                          in zip(_arg_readers(function, specs), specs)])
    else:
        intrinsic = INTRINSICS.get(callee)
        if intrinsic is None:
            raise InterpreterError(f"call to unknown function {callee!r}")
        result = intrinsic(machine, [_read(machine, spec, frame) for spec in specs],
                           result_type)
    if dest is not None:
        frame[dest] = result
    return next_pc


def _read_pointer_arg(machine, spec, frame):
    """An argument to a pointer parameter: an integer converts through the
    model; a pointer already carries its type's qualifiers (irgen casts
    every argument to its parameter type)."""
    value = _read(machine, spec, frame)
    if type(value) is IntVal:
        return machine.model.int_to_ptr(value, machine.allocator)
    return value


def _arg_readers(function, specs: tuple) -> list:
    """The reader of each argument of a call to module ``function``."""
    params = function.params
    return [_read_pointer_arg if index < len(params)
            and isinstance(params[index][1], PointerType) else _read
            for index in range(len(specs))]


def _unsupported(machine, f, frame):
    raise InterpreterError(f"unsupported IR opcode {f[1]}")


# ---------------------------------------------------------------------------
# Decoding a pc's facts (once per artifact, shared by every model)
# ---------------------------------------------------------------------------


def _decode(artifact, pc: int, slot_types: dict):
    """One pc's tier-0 entry: its shared raw handler when the pc is
    raw-register work, else its generic operation and operand facts."""
    instr = artifact.instrs[pc]
    raws = [raw_operand(arg, artifact.ctx, slot_types) for arg in instr.args]
    if instr.op not in NEVER_RAW:
        handler = artifact.raw_handler(pc, raws, slot_types)
        if handler is not None:
            return handler
    return _facts(artifact, pc, raws, slot_types)


def _facts(artifact, pc: int, raws, slot_types: dict) -> tuple:
    """The generic operation and operand facts of a pc that is not
    raw-register work; ``raws`` are its operands' raw descriptors
    (:func:`raw_operand`), which each fact completes into an operand spec."""
    instr = artifact.instrs[pc]
    ctx = artifact.ctx
    args = instr.args
    op = instr.op
    next_pc = pc + 1
    dest = dest_raw = None
    if instr.dest is not None:
        dest = instr.dest.index + FRAME_RESERVED
        dest_raw = instr.dest.index in slot_types
    out = dest if dest is not None else artifact.scratch
    ctype = instr.ctype

    def operand(i):
        return _operand(args[i], raws[i], ctx)

    if op is CJUMP:
        labels = artifact.labels
        return (_cjump, operand(0), labels[instr.attrs["then"]], labels[instr.attrs["else"]])
    if op is RET:
        return (_ret, operand(0), artifact.ninstrs)
    if op is ALLOCA:
        alloc_type = instr.attrs.get("alloc_type")
        alignment = max(8, alloc_type.alignment(ctx) if alloc_type is not None else 8)
        return (_alloca, artifact.alloca_slots[pc], out, next_pc,
                instr.attrs.get("size", 8), instr.attrs.get("name", ""), alignment)
    if op is LOAD:
        if isinstance(ctype, PointerType) or is_pointer_sized_int(ctype):
            return (_load, operand(0), ctype, None, None, None, out, next_pc)
        size = max(ctype.size(ctx), 1)
        signed = getattr(ctype, "signed", True)
        table = None if dest_raw else intern_table(size, signed)
        return (_load, operand(0), ctype, size, signed, table, out, next_pc)
    if op is STORE:
        return _decode_store(instr, ctx, raws, operand, next_pc)
    if op is GEP or op is PTRADD:
        delta = move_delta(instr, raws)
        if delta is None:  # a boxed index
            delta = (3, operand(1), instr.attrs["element_size"] if op is GEP else 1, None)
        return (_index_move, operand(0), delta, out, next_pc)
    if op is FIELD:
        field_type = ctype.pointee if isinstance(ctype, PointerType) else None
        field_size = field_type.size(ctx) if field_type is not None else 1
        return (_field, operand(0), instr.attrs["offset"], field_size, out, next_pc)
    if op is PTRDIFF:
        return (_ptrdiff, operand(0), operand(1), instr.attrs.get("element_size", 1),
                bool(dest_raw), out, next_pc)
    if op is PTRTOINT or op is INTCAST:
        width = min(ctype.size(ctx), 8)
        signed = getattr(ctype, "signed", True)
        pointer_sized = is_pointer_sized_int(ctype)
        handler = _ptrtoint if op is PTRTOINT else _intcast
        return (handler, operand(0), width, signed, pointer_sized, out, next_pc)
    if op is INTTOPTR or op is BITCAST:
        ptr_type = ctype if isinstance(ctype, PointerType) else None
        handler = _inttoptr if op is INTTOPTR else _bitcast
        return (handler, operand(0), ptr_type, out, next_pc)
    if op is BINOP:
        operator = instr.attrs["operator"]
        width = min(ctype.size(ctx), 8) if ctype is not None else 8
        signed = getattr(ctype, "signed", True)
        pointer_sized = is_pointer_sized_int(ctype)
        fast_op = INT_BINOPS.get(operator)
        if fast_op is None and operator in ("/", "%"):
            fast_op = partial(divide, operator == "/")
        table = None if pointer_sized else intern_table(width, signed)
        return (_binop, operand(0), operand(1), fast_op, width, signed, pointer_sized,
                table, bool(dest_raw), out, next_pc, operator)
    if op is UNOP:
        return (_unop, operand(0), instr.attrs["operator"] == "neg", out, next_pc)
    if op is CMP:
        operator = instr.attrs["operator"]
        return (_cmp, operand(0), operand(1), CMP_FUNCS.get(operator), operator,
                bool(dest_raw), out, next_pc)
    if op is CALL:
        specs = tuple(_operand(arg, raw, ctx) for arg, raw in zip(args, raws))
        return (_call, instr.attrs["callee"], specs, ctype, dest, next_pc)
    return (_unsupported, op)


def _decode_store(instr, ctx, raws, operand, next_pc) -> tuple:
    ctype = instr.ctype
    param_index = instr.attrs.get("param_index")
    if isinstance(ctype, PointerType) or is_pointer_sized_int(ctype):
        vspec = param_index if param_index is not None else operand(1)
        return (_store_pointer, operand(0), vspec, isinstance(ctype, PointerType), next_pc)
    size = max(ctype.size(ctx), 1)
    size_mask = MASKS[size] if size <= 8 else (1 << (8 * size)) - 1
    raw = raws[1] if param_index is None else None
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

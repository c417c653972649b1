"""Model-independent predecode artifacts, stored on the function they describe.

Tier 0 (:mod:`repro.interp.tier0`) runs an IR function straight from its
artifact, and :func:`repro.interp.predecode.compile_function` binds a
promoted one to one machine.  This module owns the half of that work that
is derivable from the IR and the pointer layout alone, independent of which
memory model will execute it:

* the instruction-stream facts (label index, register-file and alloca-slot
  sizes, per-timing cycle costs);
* the **slot-type fixpoint** (:func:`analyze_slots`) that decides which
  register slots carry raw Python ints, and the per-operand raw descriptors
  derived from it (:func:`raw_operand`);
* the **per-pc descriptor** (:func:`_descriptor`): the one classification
  of a pc as raw-register work or a model-specialized entry, and the
  **raw handler** built from it, one frame-only closure per raw-register
  pc shared by every machine of the layout, in tier 0 and in bound code;
* the **tier-0 decode** (:attr:`PredecodeArtifact.decoded`), filled per pc
  on its first execution, so a pc that never runs is never decoded;
* the eager tables only promotion needs: every pc's raw operands
  (:meth:`PredecodeArtifact.arg_raws`), descriptors and raw handlers (tier
  0's are reused), and the **inline pointer-move deltas** (:func:`move_delta`;
  each model's binding decides per pc whether to use one);
* **basic-block superinstruction plans**: block segmentation plus a
  generated ``make(B) -> handler`` factory per block in which raw-register
  work is spliced as straight-line Python and every model-specialized entry
  (memory ops, calls, pointer moves) is a closure-call slot bound later.

A :class:`PredecodeArtifact` is stored on its :class:`~repro.minic.ir.Function`
(``Function._artifact``).  :func:`get_artifact` checks the layout context,
the identity and length of ``function.instrs`` and the function's mutation
counter on every call, and replaces a stale artifact.  The artifact keeps the
instruction list and the function's name, never the function itself, so the
two form no reference cycle: an artifact is freed with its function.
:data:`ARTIFACTS` only counts hits, misses and evictions (stale artifacts
replaced); see ``docs/pipeline.md`` for the invalidation rules.  The
per-machine *binding* step in :mod:`repro.interp.predecode` closes the
artifact over one concrete machine's model, memory and cache state.

Every pc is one descriptor, one handler and one charge.  Sharing is
observationally safe by construction: the analysis inputs that vary per
machine (the timing costs, block profiling) are part of the memo keys, no
memoized table depends on the model, and blocks only change *charge
batching granularity* — every trap-capable entry still flushes all
deferred charges before it executes, so counters at any trap point equal
per-instruction dispatch exactly (``tests/test_superinstructions.py``,
``tests/test_predecode_cache.py`` and ``tests/test_tier0.py`` pin this
across all seven models).
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from repro.common.errors import InterpreterError, UndefinedBehaviorError
from repro.interp.hotgen import block_make, block_source
from repro.interp.values import (
    INTERN_MAX,
    INTERN_MIN,
    MASKS,
    MODULI,
    SIGN_MIN,
    FALSE_I32,
    TRUE_I32,
    IntVal,
    intern_table,
)
from repro.minic.ir import Const, Function, Opcode, Temp
from repro.minic.typesys import IntType, PointerType, is_pointer_sized_int

# Opcode members as module globals: on CPython 3.11 reading a member off its
# Enum class costs about 15 times a global read, and the per-pc decoders here
# and in tier 0 test opcodes in long chains.
ALLOCA, LOAD, STORE, GEP, FIELD = (Opcode.ALLOCA, Opcode.LOAD, Opcode.STORE,
                                   Opcode.GEP, Opcode.FIELD)
PTRADD, PTRDIFF, PTRTOINT, INTTOPTR = (Opcode.PTRADD, Opcode.PTRDIFF,
                                       Opcode.PTRTOINT, Opcode.INTTOPTR)
BITCAST, INTCAST, BINOP, UNOP, CMP = (Opcode.BITCAST, Opcode.INTCAST,
                                      Opcode.BINOP, Opcode.UNOP, Opcode.CMP)
CALL, RET, JUMP, CJUMP, LABEL, NOP = (Opcode.CALL, Opcode.RET, Opcode.JUMP,
                                      Opcode.CJUMP, Opcode.LABEL, Opcode.NOP)

#: indices of the bookkeeping slots at the head of every frame; register slot
#: of temp ``%i`` is ``i + FRAME_RESERVED`` (shared by tier 0 and bound code).
FRAME_RESERVED = 3

#: sentinel stored in unwritten register slots (None is a legitimate value).
UNDEF = object()

#: maximum paired entries folded into one block handler.
BLOCK_LIMIT = 40

#: canonical integer binary operators (semantics shared by the closure
#: handlers in predecode and the block planner; shifts mask their count
#: like C on a 64-bit machine would).
INT_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
}

#: textual expression templates mirroring INT_BINOPS exactly.
BINOP_EXPR = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "&": "({a} & {b})",
    "|": "({a} | {b})",
    "^": "({a} ^ {b})",
    "<<": "({a} << ({b} & 63))",
    ">>": "({a} >> ({b} & 63))",
}


def divide(quotient_only: bool, a: int, b: int) -> int:
    """C ``/`` (``quotient_only``) or ``%`` of two ints: truncates toward
    zero; dividing by zero is undefined behaviour, trapped."""
    if b == 0:
        raise UndefinedBehaviorError("integer division by zero")
    quotient = abs(a) // abs(b)
    signed_quotient = quotient if (a >= 0) == (b >= 0) else -quotient
    return signed_quotient if quotient_only else a - signed_quotient * b


#: canonical comparison operators (same contract as INT_BINOPS).
CMP_FUNCS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


# ---------------------------------------------------------------------------
# Layout-level operand analysis (shared with predecode's binding step)
# ---------------------------------------------------------------------------


def scalar_int_type(ctype, ctx) -> tuple[int, bool] | None:
    """(width, signed) when ``ctype`` is a plain scalar integer type."""
    if isinstance(ctype, IntType) and not ctype.is_pointer_sized:
        width = ctype.size(ctx)
        if 1 <= width <= 8:
            return (width, getattr(ctype, "signed", True))
    return None


def _const_type(ctype, ctx) -> tuple[int, bool] | None:
    """(width, signed) of an integer constant of ``ctype``; None when it
    must stay boxed (a pointer or pointer-sized integer)."""
    if isinstance(ctype, PointerType):
        return None
    if isinstance(ctype, IntType):
        if ctype.is_pointer_sized:
            return None
        return (min(ctype.size(ctx), 8), ctype.signed)
    return (8, True)


def _writer_rule(instr, ctx) -> tuple:
    """The static part of one writer's type: ``(type, deps, source)``.

    With ``source`` set, the writer copies temp ``source``'s type (None
    until that temp has one); otherwise it produces ``type`` unless one of
    the temps in ``deps`` has been demoted to boxed.
    """
    op = instr.op
    if op is LOAD or op is CMP or op is PTRDIFF:
        return ((4, True) if op is CMP else (8, True) if op is PTRDIFF
                else scalar_int_type(instr.ctype, ctx)), (), None
    if op is UNOP or op is BITCAST:
        source = instr.args[0]
        if type(source) is Temp:
            return None, (), source.index
        return (_const_type(source.ctype, ctx) if type(source) is Const else None), (), None
    ctype = instr.ctype
    if op is BINOP:
        target, operands = scalar_int_type(ctype, ctx), instr.args
    elif op is INTCAST and isinstance(ctype, IntType) and not ctype.is_pointer_sized:
        target, operands = (min(ctype.size(ctx), 8), ctype.signed), instr.args[:1]
    else:
        return None, (), None
    deps = []
    for operand in operands:
        if type(operand) is Temp:
            deps.append(operand.index)
        elif type(operand) is not Const or _const_type(operand.ctype, ctx) is None:
            return None, (), None
    return target, tuple(deps), None


def analyze_slots(instrs: list, ctx) -> dict[int, tuple[int, bool]]:
    """Map temp index -> (width, signed) for slots that can go unboxed.

    A slot qualifies when **every** instruction writing it produces a
    provenance-free scalar integer of the same static type.  The analysis is
    optimistic (loops like ``i = i + 1`` stay unboxed) and demotes to "boxed"
    on any conflict; it converges because demotion is monotone.

    Each writer's static part is decided once (:func:`_writer_rule`), and
    the Jacobi rounds run over those rules; a temp counts as demoted once a
    previous round gave it None.
    """
    rules = [(instr.dest.index, *_writer_rule(instr, ctx))
             for instr in instrs if instr.dest is not None]
    prev: dict[int, tuple[int, bool] | None] = {}
    for _ in range(len(rules) + 1):
        cur: dict[int, tuple[int, bool] | None] = {}
        for index, t, deps, source in rules:
            if source is not None:
                t = prev.get(source)
            else:
                for dep in deps:
                    if prev.get(dep, True) is None:
                        t = None
                        break
            if index in cur and cur[index] != t:
                cur[index] = None
            else:
                cur[index] = t
        if cur == prev:
            break
        prev = cur
    return {index: t for index, t in prev.items() if t is not None}


def raw_operand(operand, ctx, slot_types):
    """Compile-time description of an operand usable as a raw int.

    Returns ``("slot", frame_index, (W, S), label)`` for an unboxed register,
    ``("const", raw_value, (W, S), None)`` for an integer constant, or None
    when the operand must be read boxed.
    """
    kind = type(operand)
    if kind is Temp:
        t = slot_types.get(operand.index)
        if t is None:
            return None
        return ("slot", operand.index + FRAME_RESERVED, t, str(operand))
    if kind is Const:
        t = _const_type(operand.ctype, ctx)
        if t is None:
            return None
        return ("const", IntVal(operand.value, *t).value, t, None)
    return None


def move_delta(instr, raws: tuple):
    """Delta descriptor when ``instr`` is an inlineable pointer move.

    ``raws`` are the instruction's :meth:`PredecodeArtifact.arg_raws`.
    Whether a model's binding uses the delta is its own policy
    (:func:`~repro.interp.predecode.compile_function`).
    """
    op = instr.op
    if op is FIELD:
        return (1, instr.attrs["offset"], 0, None)
    if op is GEP or op is PTRADD:
        element_size = instr.attrs["element_size"] if op is GEP else 1
        raw = raws[1]
        if raw is None:
            return None
        if raw[0] == "const":
            return (1, raw[1] * element_size, 0, None)
        return (2, raw[1], element_size, raw[3])
    return None


# ---------------------------------------------------------------------------
# Per-pc descriptors, costs and raw handlers
# ---------------------------------------------------------------------------


#: ``op._value_`` (no Enum hash per pc) of the opcodes that are never raw-register
#: work: tier 0 decodes them straight to generic facts, without a descriptor.
NEVER_RAW = frozenset(op._value_ for op in (LOAD, STORE, ALLOCA, CALL,
                                            PTRDIFF, GEP, PTRADD, FIELD,
                                            PTRTOINT, INTTOPTR))


def _descriptor(instr, raws: tuple, ctx, labels: dict, slot_types: dict,
                scratch: int, stop: int):
    """One pc's descriptor (the one classification).

    Raw-register work (``label``, ``goto``, ``cjump_raw``, ``const_raw``,
    ``copy_raw``, ``intcast_raw``, ``unop_raw``, ``binop_raw``,
    ``cmp_raw``) gets a descriptor that touches nothing but the frame: the
    block planner splices it as straight-line Python and
    :func:`_raw_handler` builds its single-step closure.  Every
    model-specialized entry (memory op, call, alloca, pointer move, boxed
    compare, ...) becomes a conservative closure-call slot —
    ``("ext", out)`` when it may trap (a charge point), ``("opaque", out)``
    when no model's hook can raise — and None marks a terminal closure call
    (boxed branch, valued return, unknown opcode).  Flushing charges at
    every charge point is always exact: single-step dispatch charges every
    entry before it runs.  ``raws`` are the instruction's raw operands
    (:func:`raw_operand`).
    """
    op = instr.op
    dest = dest_type = None
    if instr.dest is not None:
        dest = instr.dest.index + FRAME_RESERVED
        dest_type = slot_types.get(instr.dest.index)
    out = dest if dest is not None else scratch
    if op is LABEL or op is NOP:
        return ("label",)
    if op is JUMP:
        return ("goto", labels[instr.attrs["target"]])
    if op is CJUMP:
        then_pc = labels[instr.attrs["then"]]
        else_pc = labels[instr.attrs["else"]]
        raw = raws[0]
        if raw is not None and raw[0] == "slot":
            return ("cjump_raw", raw[1], raw[3], then_pc, else_pc)
        if raw is not None:
            return ("goto", then_pc if raw[1] else else_pc)
        return None
    if op is RET:
        return None if instr.args else ("goto", stop)
    if op is BINOP:
        return _binop_desc(instr, ctx, raws, dest_type, out)
    if op is CMP:
        return _cmp_desc(instr, raws, dest_type, out)
    if op is UNOP:
        return _unop_desc(instr, raws, dest_type, out)
    if op is INTCAST or op is BITCAST:
        return _cast_desc(instr, ctx, raws[0], dest_type, out)
    if op in (GEP, PTRADD, FIELD,
              PTRTOINT, INTTOPTR):
        # Pointer moves and conversions: no model's hook for these raises
        # (a contract every model keeps), so they are deferred-charge
        # closure calls.
        return ("opaque", out)
    if op is CALL:
        return ("ext", dest)
    if op in (LOAD, ALLOCA, PTRDIFF):
        return ("ext", out)
    if op is STORE:
        return ("ext", None)
    return None


def _binop_desc(instr, ctx, raws, dest_type, out):
    operator = instr.attrs["operator"]
    is_division = operator in ("/", "%")
    if operator not in INT_BINOPS and not is_division:
        return None  # unknown operator: the handler raises
    raw_left, raw_right = raws
    if raw_left is None or raw_right is None:
        # The boxed path cannot trap, except by dividing.
        return ("ext", out) if is_division else ("opaque", out)
    target = instr.ctype
    width = min(target.size(ctx), 8) if target is not None else 8
    signed = getattr(target, "signed", True)
    pointer_sized = is_pointer_sized_int(target)
    lkind, lpayload, _lt, llabel = raw_left
    rkind, rpayload, _rt, rlabel = raw_right
    dest_mode = 0 if dest_type is not None else 2 if pointer_sized else 1
    raw = ("binop_raw", lkind, lpayload, llabel, rkind, rpayload, rlabel,
           operator, width, signed, dest_mode, out)
    # Division by zero traps, so raw division is a charge point in blocks
    # that carries the raw descriptor of its single-step handler.
    return ("ext", out, raw) if is_division else raw


def _cmp_desc(instr, raws, dest_type, out):
    operator = instr.attrs["operator"]
    if operator not in CMP_FUNCS:
        return None
    raw_left, raw_right = raws
    if raw_left is None or raw_right is None:
        # Boxed comparison (pointer operands compare by address) stays a
        # conservative charge point: flushing there is always exact.
        return ("ext", out)
    lkind, lpayload, _lt, llabel = raw_left
    rkind, rpayload, _rt, rlabel = raw_right
    return ("cmp_raw", lkind, lpayload, llabel, rkind, rpayload, rlabel,
            operator, dest_type is not None, out)


def _unop_desc(instr, raws, dest_type, out):
    negate = instr.attrs["operator"] == "neg"
    raw = raws[0]
    if raw is not None and raw[0] == "slot" and dest_type is not None:
        _, slot, (swidth, ssigned), label = raw
        return ("unop_raw", slot, label, negate, swidth, ssigned, out)
    if raw is not None and dest_type is not None:
        # Constant operand: fold at compile time (same wrapping as
        # IntVal.with_value).
        _, const_value, (swidth, ssigned), _label = raw
        const_raw = IntVal(-const_value if negate else ~const_value,
                           swidth, ssigned).value
        return ("const_raw", const_raw, out)
    return ("ext", out)  # may trap on a pointer operand


def _cast_desc(instr, ctx, raw, dest_type, out):
    if raw is None or dest_type is None:
        return ("opaque", out)
    if instr.op is BITCAST:
        # An unboxed destination was given the source's exact type.
        width, signed = raw[2]
    else:
        width = min(instr.ctype.size(ctx), 8)
        signed = getattr(instr.ctype, "signed", True)
    if raw[0] == "const":
        return ("const_raw", IntVal(raw[1], width, signed).value, out)
    if raw[2] == (width, signed):
        return ("copy_raw", raw[1], raw[3], out)
    return ("intcast_raw", raw[1], raw[3], width, signed, out)


def _wrapping(width: int, signed: bool) -> tuple:
    """(mask, sign_min or None, modulus) for inline two's-complement wrapping."""
    return MASKS[width], (SIGN_MIN[width] if signed else None), MODULI[width]


def _raw_handler(desc: tuple, next_pc: int):
    """The single-step handler for one raw-register descriptor.

    Raw handlers read and write nothing but the frame, so every machine of a
    layout shares them (see :meth:`PredecodeArtifact.raw_handlers`).
    """
    kind = desc[0]
    if kind == "ext" and len(desc) == 3:
        desc = desc[2]  # raw division
        kind = desc[0]
    if kind == "label" or kind == "goto":
        target = next_pc if kind == "label" else desc[1]
        return lambda frame: target
    if kind == "cjump_raw":
        _, slot, label, then_pc, else_pc = desc

        def handler(frame, slot=slot, label=label, then_pc=then_pc, else_pc=else_pc):
            condition = frame[slot]
            if type(condition) is int:
                return then_pc if condition else else_pc
            raise InterpreterError(f"use of undefined temporary {label}")
        return handler
    if kind == "const_raw":
        _, const_raw, out = desc

        def handler(frame, const_raw=const_raw, out=out, next_pc=next_pc):
            frame[out] = const_raw
            return next_pc
        return handler
    if kind == "copy_raw":
        _, slot, label, out = desc

        def handler(frame, slot=slot, label=label, out=out, next_pc=next_pc):
            value = frame[slot]
            if type(value) is not int:
                raise InterpreterError(f"use of undefined temporary {label}")
            frame[out] = value
            return next_pc
        return handler
    if kind == "intcast_raw":
        _, slot, label, width, signed, out = desc
        mask, sign_min, modulus = _wrapping(width, signed)

        def handler(frame, slot=slot, label=label, mask=mask, sign_min=sign_min,
                    modulus=modulus, out=out, next_pc=next_pc):
            value = frame[slot]
            if type(value) is not int:
                raise InterpreterError(f"use of undefined temporary {label}")
            value &= mask
            if sign_min is not None and value >= sign_min:
                value -= modulus
            frame[out] = value
            return next_pc
        return handler
    if kind == "unop_raw":
        _, slot, label, negate, width, signed, out = desc
        mask, sign_min, modulus = _wrapping(width, signed)

        def handler(frame, slot=slot, label=label, negate=negate, mask=mask,
                    sign_min=sign_min, modulus=modulus, out=out, next_pc=next_pc):
            value = frame[slot]
            if type(value) is not int:
                raise InterpreterError(f"use of undefined temporary {label}")
            value = (-value if negate else ~value) & mask
            if sign_min is not None and value >= sign_min:
                value -= modulus
            frame[out] = value
            return next_pc
        return handler
    if kind == "binop_raw":
        (_, lkind, lpayload, llabel, rkind, rpayload, rlabel,
         operator, width, signed, dest_mode, out) = desc
        # Fully unboxed arithmetic: raw ints in, wrapping inlined from the
        # mask tables; the result is boxed (through the intern pool) only
        # when the destination slot is boxed.
        fast_op = INT_BINOPS.get(operator) or partial(divide, operator == "/")
        mask, sign_min, modulus = _wrapping(width, signed)
        table = intern_table(width, signed) if dest_mode == 1 else None
        pointer_sized = dest_mode == 2

        def handler(frame, fast_op=fast_op, mask=mask, sign_min=sign_min, modulus=modulus,
                    table=table, out=out, next_pc=next_pc):
            if lkind == "slot":
                a = frame[lpayload]
                if type(a) is not int:
                    raise InterpreterError(f"use of undefined temporary {llabel}")
            else:
                a = lpayload
            if rkind == "slot":
                b = frame[rpayload]
                if type(b) is not int:
                    raise InterpreterError(f"use of undefined temporary {rlabel}")
            else:
                b = rpayload
            wrapped = fast_op(a, b) & mask
            if sign_min is not None and wrapped >= sign_min:
                wrapped -= modulus
            if table is None:
                if pointer_sized:
                    frame[out] = IntVal(wrapped, width, signed, None, True)
                else:
                    frame[out] = wrapped
            elif INTERN_MIN <= wrapped <= INTERN_MAX:
                frame[out] = table[wrapped - INTERN_MIN]
            else:
                frame[out] = IntVal(wrapped, width, signed)
            return next_pc
        return handler
    if kind == "cmp_raw":
        (_, lkind, lpayload, llabel, rkind, rpayload, rlabel,
         operator, raw_dest, out) = desc
        compare = CMP_FUNCS[operator]

        def handler(frame, compare=compare, out=out, raw_dest=raw_dest, next_pc=next_pc):
            if lkind == "slot":
                a = frame[lpayload]
                if type(a) is not int:
                    raise InterpreterError(f"use of undefined temporary {llabel}")
            else:
                a = lpayload
            if rkind == "slot":
                b = frame[rpayload]
                if type(b) is not int:
                    raise InterpreterError(f"use of undefined temporary {rlabel}")
            else:
                b = rpayload
            if raw_dest:
                frame[out] = 1 if compare(a, b) else 0
            else:
                frame[out] = TRUE_I32 if compare(a, b) else FALSE_I32
            return next_pc
        return handler
    return None


# ---------------------------------------------------------------------------
# Generic block emission
# ---------------------------------------------------------------------------


class BlockPlan(NamedTuple):
    """One shared superinstruction: its handler factory plus binding manifest."""

    start: int
    entries: int
    #: ``make(B) -> handler`` (:func:`repro.interp.hotgen.block_make`).
    make: object
    #: model-independent bindings (intern tables, charge tuples, TRUE/FALSE).
    consts: dict
    #: handler list indices a binding step must supply as ``h<k>``.
    handler_indices: tuple


def _plan_blocks(name: str, descs: list, costs: list, labels: dict,
                 profiled: bool) -> list[BlockPlan]:
    """Segment into basic blocks and emit a shared plan per eligible run.

    A leader is pc 0, any label pc (the only possible branch targets), or
    the entry after a block; the first control transfer ends the block;
    runs of two or more entries get a plan.  Every non-leader pc keeps its
    per-instruction handler, so branching into the middle of a block works
    unchanged.
    """
    n = len(descs)
    label_pcs = set(labels.values())
    plans: list[BlockPlan] = []
    pc = 0
    while pc < n:
        members: list[int] = []
        terminal = None
        k = pc
        while k < n:
            d = descs[k]
            if d is None or d[0] in ("goto", "cjump_raw"):
                terminal = k
                break
            members.append(k)
            k += 1
            if len(members) >= BLOCK_LIMIT or k >= n or k in label_pcs:
                break
        span = members + [terminal] if terminal is not None else members
        next_pc = span[-1] + 1 if span else pc + 1
        if len(span) >= 2:
            plans.append(_emit_generic_block(name, descs, costs, members,
                                             terminal, next_pc, profiled))
        pc = next_pc
    return plans


def _emit_generic_block(name: str, descs: list, costs: list, members: list,
                        terminal: int | None, fall_to: int,
                        profiled: bool) -> BlockPlan:
    """Generate the model-independent source for one block and its factory.

    Counters stay exact through *charge groups*: pure entries (which cannot
    trap and touch nothing but the frame) run immediately but defer their
    charges; every closure-call charge point flushes the deferred charges
    plus its own — one batched add and budget check — before it executes,
    with :func:`predecode._budget_replay` reproducing the exact single-step
    trap point on overrun.  (The leader's charge is applied by the dispatch
    loop before the handler runs.)
    """
    span = members + [terminal] if terminal is not None else members
    start = span[0]

    consts: dict = {}
    handler_indices: list[int] = []
    lines: list[str] = []
    emit = lines.append

    if profiled:
        emit("        BC[0] += 1")

    local_of: dict[int, str] = {}
    serial = [0]
    pending: list[int] = []

    def invalidate(slot) -> None:
        if slot is not None:
            local_of.pop(slot, None)

    def set_raw(out: int, var: str) -> None:
        emit(f"        frame[{out}] = {var}")
        local_of[out] = var

    def flush_charges(including: int | None) -> None:
        entries = pending + ([including] if including is not None else [])
        if not entries:
            return
        pending.clear()
        group_cost = sum(costs[e] for e in entries)
        serial[0] += 1
        seq_name = f"cs{serial[0]}"
        consts[seq_name] = tuple(costs[e] for e in entries)
        emit(f"        icount = machine.instructions + {len(entries)}")
        emit("        if icount > machine.max_instructions:")
        emit(f"            budget_replay(machine, {seq_name}, fname)")
        emit("        machine.instructions = icount")
        if group_cost:
            emit(f"        machine.cycles += {group_cost}")

    def fresh() -> str:
        serial[0] += 1
        return f"v{serial[0]}"

    def read_raw(slot: int, label: str | None) -> str:
        var = local_of.get(slot)
        if var is not None:
            return var
        var = fresh()
        message = f"use of undefined temporary {label}"
        emit(f"        {var} = frame[{slot}]")
        emit(f"        if type({var}) is not int:")
        emit(f"            raise InterpreterError({message!r})")
        local_of[slot] = var
        return var

    def call_handler(k: int, out, *, as_return: bool = False) -> None:
        handler_indices.append(k)
        if as_return:
            emit(f"        return h{k}(frame)")
        else:
            emit(f"        h{k}(frame)")
            invalidate(out)

    def operand(kind: str, payload, label) -> str:
        if kind == "slot":
            return read_raw(payload, label)
        return f"({payload!r})"

    def wrap(expr: str, width: int, signed: bool) -> str:
        var = fresh()
        emit(f"        {var} = {expr} & {MASKS[width]}")
        if signed:
            emit(f"        if {var} >= {SIGN_MIN[width]}:")
            emit(f"            {var} -= {MODULI[width]}")
        return var

    for position, k in enumerate(members):
        d = descs[k]
        kind = d[0]
        if kind == "ext":
            flush_charges(None if position == 0 else k)
            call_handler(k, d[1])
            continue
        if position > 0:
            pending.append(k)
        if kind == "label":
            continue
        if kind == "opaque":
            call_handler(k, d[1])
        elif kind == "const_raw":
            _, value, out = d
            set_raw(out, f"({value!r})")
        elif kind == "copy_raw":
            _, slot, label, out = d
            set_raw(out, read_raw(slot, label))
        elif kind == "intcast_raw":
            _, slot, label, width, signed, out = d
            set_raw(out, wrap(read_raw(slot, label), width, signed))
        elif kind == "unop_raw":
            _, slot, label, negate, width, signed, out = d
            source = read_raw(slot, label)
            set_raw(out, wrap(f"({'-' if negate else '~'}{source})", width, signed))
        elif kind == "binop_raw":
            (_, lkind, lpayload, llabel, rkind, rpayload, rlabel,
             operator, width, signed, dest_mode, out) = d
            a = operand(lkind, lpayload, llabel)
            b = operand(rkind, rpayload, rlabel)
            var = wrap(BINOP_EXPR[operator].format(a=a, b=b), width, signed)
            if dest_mode == 0:
                set_raw(out, var)
            elif dest_mode == 1:
                table_name = f"T{k}"
                consts[table_name] = intern_table(width, signed)
                emit(f"        frame[{out}] = ({table_name}[{var} - ({INTERN_MIN})]"
                     f" if {INTERN_MIN} <= {var} <= {INTERN_MAX}"
                     f" else IntVal({var}, {width}, {signed}))")
                invalidate(out)
            else:
                emit(f"        frame[{out}] = IntVal({var}, {width}, {signed}, None, True)")
                invalidate(out)
        elif kind == "cmp_raw":
            (_, lkind, lpayload, llabel, rkind, rpayload, rlabel,
             operator, raw_dest, out) = d
            a = operand(lkind, lpayload, llabel)
            b = operand(rkind, rpayload, rlabel)
            condition = f"{a} {operator} {b}"
            if raw_dest:
                var = fresh()
                emit(f"        {var} = 1 if {condition} else 0")
                set_raw(out, var)
            else:
                consts["TRUE"] = TRUE_I32
                consts["FALSE"] = FALSE_I32
                emit(f"        frame[{out}] = TRUE if {condition} else FALSE")
                invalidate(out)
        else:  # pragma: no cover - descriptor/emitter mismatch is a bug
            raise AssertionError(f"unknown generic block descriptor {d!r}")

    if terminal is None:
        flush_charges(None)
        emit(f"        return {fall_to}")
    else:
        d = descs[terminal]
        flush_charges(None if terminal == start else terminal)
        if d is not None and d[0] == "goto":
            emit(f"        return {d[1]}")
        elif d is not None and d[0] == "cjump_raw":
            _, slot, label, then_pc, else_pc = d
            var = read_raw(slot, label)
            emit(f"        return {then_pc} if {var} else {else_pc}")
        else:
            call_handler(terminal, None, as_return=True)

    names = sorted(consts) + ["machine", "fname", "budget_replay"]
    indices = tuple(dict.fromkeys(handler_indices))
    names += [f"h{k}" for k in indices]
    if profiled:
        names.append("BC")
    make = block_make(block_source(lines, names), f"{name}+{start}")
    return BlockPlan(start, len(span), make, consts, indices)


# ---------------------------------------------------------------------------
# The artifact and its counters
# ---------------------------------------------------------------------------


class PredecodeArtifact:
    """Everything about one IR function derivable from IR + pointer layout."""

    __slots__ = ("name", "ctx", "instrs", "ninstrs", "mutations",
                 "labels", "nregs", "alloca_slots", "scratch", "decoded",
                 "_slot_types", "_deltas", "_plans", "_arg_raws",
                 "_descs", "_costs", "_raw_handlers")

    def __init__(self, function: Function, ctx) -> None:
        self.name = function.name
        self.ctx = ctx
        #: snapshots of the instruction stream the artifact was computed
        #: from; :func:`get_artifact` verifies list identity, length *and*
        #: the function's in-place mutation counter on every call, so
        #: replacing ``function.instrs`` or re-running an optimizer pass
        #: (which bumps the counter via ``invalidate_label_index``) replaces
        #: everything derived from it.
        self.instrs = function.instrs
        self.ninstrs = len(function.instrs)
        self.mutations = function.mutations
        self.labels = function.label_index()
        max_temp = -1
        #: pc -> alloca slot index, assigned in pc order.
        alloca_slots: dict[int, int] = {}
        for pc, instr in enumerate(function.instrs):
            if instr.dest is not None and instr.dest.index > max_temp:
                max_temp = instr.dest.index
            for arg in instr.args:
                if type(arg) is Temp and arg.index > max_temp:
                    max_temp = arg.index
            if instr.op is ALLOCA:
                alloca_slots[pc] = len(alloca_slots)
        # One extra frame slot beyond the temps: a scratch slot for
        # dest-less ops.
        self.nregs = max_temp + 2
        self.alloca_slots = alloca_slots
        self.scratch = max_temp + 1 + FRAME_RESERVED
        #: per-pc tier-0 decode (:mod:`repro.interp.tier0`), filled on a pc's
        #: first tier-0 execution and None until then: the pc's shared raw
        #: handler (:meth:`raw_handler`), or a tuple of generic operation
        #: facts for every other pc.
        self.decoded: list = [None] * len(function.instrs)
        self._slot_types: dict | None = None
        self._deltas: dict[int, tuple] | None = None
        self._plans: dict[tuple, list[BlockPlan]] = {}
        self._arg_raws: list[tuple] | None = None
        self._descs: list | None = None
        self._costs: dict[tuple, list[int]] = {}
        self._raw_handlers: list | None = None

    def slot_types(self) -> dict[int, tuple[int, bool]]:
        """The slot-type fixpoint (:func:`analyze_slots`), memoized."""
        cached = self._slot_types
        if cached is None:
            cached = self._slot_types = analyze_slots(self.instrs, self.ctx)
        return cached

    def arg_raws(self) -> list[tuple]:
        """Per-instruction raw-operand descriptors (:func:`raw_operand`),
        memoized so the per-machine binding step never recomputes them."""
        cached = self._arg_raws
        if cached is None:
            slot_types = self.slot_types()
            ctx = self.ctx
            cached = self._arg_raws = [
                tuple(raw_operand(arg, ctx, slot_types) for arg in instr.args)
                for instr in self.instrs]
        return cached

    def fusion(self) -> dict[int, tuple]:
        """pc -> :func:`move_delta` for every pointer move the binding step
        can construct inline, memoized; a model's binding decides per pc
        whether to use it."""
        cached = self._deltas
        if cached is None:
            cached = self._deltas = {}
            for pc, (instr, raws) in enumerate(zip(self.instrs, self.arg_raws())):
                delta = move_delta(instr, raws)
                if delta is not None:
                    cached[pc] = delta
        return cached

    def descriptors(self) -> list:
        """The per-pc descriptor table (:func:`_descriptor`), memoized."""
        cached = self._descs
        if cached is None:
            ctx, labels, slot_types = self.ctx, self.labels, self.slot_types()
            scratch, stop = self.scratch, self.ninstrs
            cached = self._descs = [
                _descriptor(instr, raws, ctx, labels, slot_types, scratch, stop)
                for instr, raws in zip(self.instrs, self.arg_raws())]
        return cached

    def raw_handler(self, pc: int, raws, slot_types: dict):
        """pc's shared raw-register handler, or None when the pc is not
        raw-register work; ``raws`` are its raw operands.  Tier 0 decodes
        each pc it runs through this, on the pc's first execution, except
        :data:`NEVER_RAW` pcs."""
        desc = _descriptor(self.instrs[pc], raws, self.ctx, self.labels,
                           slot_types, self.scratch, self.ninstrs)
        return None if desc is None else _raw_handler(desc, pc + 1)

    def costs(self, timing: tuple[int, int, int]) -> list[int]:
        """Per-pc cycle costs the dispatch loop charges before each handler,
        memoized per timing and keyed by ``op._value_`` (no Enum hash per
        pc).  Read-only: every machine of the timing dispatches from this list."""
        cached = self._costs.get(timing)
        if cached is None:
            base = timing[0]
            cost_of = {LABEL._value_: 0, NOP._value_: 0, JUMP._value_: timing[1],
                       CJUMP._value_: timing[1], CALL._value_: timing[2]}
            cached = self._costs[timing] = [cost_of.get(instr.op._value_, base)
                                            for instr in self.instrs]
        return cached

    def raw_handlers(self) -> list:
        """Per-pc shared single-step handlers for raw-register descriptors
        (None at every other pc), memoized.  A pc tier 0 has decoded keeps
        the handler tier 0 built, so both tiers run the same closures."""
        cached = self._raw_handlers
        if cached is None:
            cached = []
            for pc, (entry, desc) in enumerate(zip(self.decoded, self.descriptors())):
                if entry is None:
                    entry = None if desc is None else _raw_handler(desc, pc + 1)
                elif type(entry) is tuple:
                    entry = None
                cached.append(entry)
            self._raw_handlers = cached
        return cached

    def block_plans(self, timing: tuple[int, int, int],
                    profiled: bool) -> list[BlockPlan]:
        """Superinstruction plans, memoized per (timing, profiling): every
        model of a layout that shares those binds one plan set, whatever its
        inline-move policy."""
        key = (timing, profiled)
        cached = self._plans.get(key)
        if cached is None:
            cached = self._plans[key] = _plan_blocks(
                self.name, self.descriptors(), self.costs(timing),
                self.labels, profiled)
        return cached


class ArtifactStats:
    """Process-wide counters over :func:`get_artifact` calls; ``evictions``
    counts stale artifacts replaced on their function (its instructions
    were replaced or mutated in place)."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


#: the process-level artifact counters (the artifacts live on their functions).
ARTIFACTS = ArtifactStats()


def get_artifact(function: Function, ctx) -> PredecodeArtifact:
    """The artifact for ``function`` under ``ctx``'s pointer layout.

    Returns the artifact stored on the function when it is still current —
    same layout context, same instruction list of the same length, no
    in-place mutation since — and otherwise builds and stores a fresh one.
    """
    artifact = function._artifact
    if (artifact is not None and artifact.ctx is ctx
            and artifact.instrs is function.instrs
            and artifact.ninstrs == len(function.instrs)
            and artifact.mutations == function.mutations):
        ARTIFACTS.hits += 1
        return artifact
    ARTIFACTS.misses += 1
    if artifact is not None:
        ARTIFACTS.evictions += 1
    artifact = function._artifact = PredecodeArtifact(function, ctx)
    return artifact

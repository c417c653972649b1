"""Model-independent predecode artifacts with a process-level cache.

:func:`repro.interp.predecode.compile_function` used to recompute everything
from scratch once **per machine** — so the differential runner's 7-model
replay predecoded the same IR functions seven times per program.  This module
factors out the half of that work that is derivable from the IR and the
pointer layout alone, independent of which memory model will execute it:

* the instruction-stream facts (label index, register-file and alloca-slot
  sizes, temp use counts);
* the **slot-type fixpoint** (:func:`analyze_slots`) that decides which
  register slots carry raw Python ints;
* the **pair-fusion** prepass (parameterized by the model's inline-move
  policy flags, memoized per flag combination);
* **basic-block superinstruction plans**: block segmentation plus
  generated source and compiled code objects in which raw-register work is
  spliced as straight-line Python and every model-specialized entry (memory
  ops, calls, pointer moves) is a closure-call slot bound later.

A :class:`PredecodeArtifact` is cached process-wide in :data:`ARTIFACTS`,
keyed by ``(function identity, pointer layout)`` (an LRU bounded at
:data:`CACHE_LIMIT` entries; see ``docs/pipeline.md`` for the invalidation
rules).  The per-machine *binding* step in :mod:`repro.interp.predecode`
closes the artifact over one concrete machine's model, memory and cache
state: per-instruction handlers are built against the shared analysis
results, and once a function proves hot the machine instantiates the
artifact's cached block code objects with per-machine bindings — no block
source is generated or ``compile()``-d per machine.

Sharing is observationally safe by construction: the analysis inputs that
vary per model (``fast_noprov``, the inline-move flags) are part of the memo
keys, and blocks only change *charge batching granularity* — every
trap-capable entry still flushes all deferred charges before it executes, so
counters at any trap point equal single-step dispatch exactly
(``tests/test_superinstructions.py`` and ``tests/test_predecode_cache.py``
pin this across all seven models).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.interp.hotgen import block_code, block_source
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
from repro.minic.typesys import IntType, PointerType

#: indices of the bookkeeping slots at the head of every frame; register slot
#: of temp ``%i`` is ``i + FRAME_RESERVED`` (shared with predecode).
FRAME_RESERVED = 3

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


def analyze_slots(function: Function, ctx, fast_noprov: bool) -> dict[int, tuple[int, bool]]:
    """Map temp index -> (width, signed) for slots that can go unboxed.

    A slot qualifies when **every** instruction writing it produces a
    provenance-free scalar integer of the same static type.  The analysis is
    optimistic (loops like ``i = i + 1`` stay unboxed) and demotes to "boxed"
    on any conflict; it converges because demotion is monotone.

    ``fast_noprov`` is False when the model overrides the provenance hook —
    arithmetic must then see every boxed operand, so its results cannot be
    proven provenance-free at compile time.
    """

    def const_type(operand: Const) -> tuple[int, bool] | None:
        ctype = operand.ctype
        if isinstance(ctype, PointerType):
            return None
        if isinstance(ctype, IntType):
            if ctype.is_pointer_sized:
                return None
            return (min(ctype.size(ctx), 8), getattr(ctype, "signed", True))
        return (8, True)

    def raw_safe(operand, prev) -> bool:
        kind = type(operand)
        if kind is Temp:
            # Missing from ``prev`` means "not yet demoted" (optimistic) or
            # "never written" (reading it raises either way).
            return prev.get(operand.index, True) is not None
        if kind is Const:
            return const_type(operand) is not None
        return False

    def writer_type(instr, prev) -> tuple[int, bool] | None:
        op = instr.op
        if op is Opcode.LOAD:
            return scalar_int_type(instr.ctype, ctx)
        if op is Opcode.CMP:
            return (4, True)
        if op is Opcode.PTRDIFF:
            return (8, True)
        if op is Opcode.BINOP:
            target = scalar_int_type(instr.ctype, ctx)
            if (target is None or not fast_noprov
                    or not all(raw_safe(a, prev) for a in instr.args)):
                return None
            return target
        if op is Opcode.UNOP:
            source = instr.args[0]
            if type(source) is Temp:
                t = prev.get(source.index)
                return t if isinstance(t, tuple) else None
            if type(source) is Const:
                return const_type(source)
            return None
        if op is Opcode.INTCAST:
            target = instr.ctype
            if not isinstance(target, IntType) or target.is_pointer_sized:
                return None
            if not raw_safe(instr.args[0], prev):
                return None
            return (min(target.size(ctx), 8), getattr(target, "signed", True))
        if op is Opcode.BITCAST:
            source = instr.args[0]
            if type(source) is Temp:
                t = prev.get(source.index)
                return t if isinstance(t, tuple) else None
            if type(source) is Const:
                return const_type(source)
            return None
        return None

    instrs = [instr for instr in function.instrs if instr.dest is not None]
    prev: dict[int, tuple[int, bool] | None] = {}
    for _ in range(len(instrs) + 1):
        cur: dict[int, tuple[int, bool] | None] = {}
        for instr in instrs:
            t = writer_type(instr, prev)
            index = instr.dest.index
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
        ctype = operand.ctype
        if isinstance(ctype, PointerType):
            return None
        size = ctype.size(ctx) if isinstance(ctype, IntType) else 8
        if isinstance(ctype, IntType) and ctype.is_pointer_sized:
            return None
        signed = getattr(ctype, "signed", True)
        hoisted = IntVal(operand.value, bytes=min(size, 8), signed=signed)
        return ("const", hoisted.value, (hoisted.bytes, hoisted.signed), None)
    return None


def _move_delta(instr, ctx, slot_types, inline_moves: bool, inline_field: bool):
    """Delta descriptor when ``instr`` is an inlineable pointer move."""
    op = instr.op
    if op is Opcode.FIELD:
        if not inline_field:
            return None
        return (1, instr.attrs["offset"], 0, None)
    if op is Opcode.GEP or op is Opcode.PTRADD:
        if not inline_moves:
            return None
        element_size = instr.attrs["element_size"] if op is Opcode.GEP else 1
        raw = raw_operand(instr.args[1], ctx, slot_types)
        if raw is None:
            return None
        if raw[0] == "const":
            return (1, raw[1] * element_size, 0, None)
        return (2, raw[1], element_size, raw[3])
    return None


def compute_fusion(function: Function, ctx, slot_types, use_counts,
                   inline_moves: bool, inline_field: bool) -> dict[int, tuple]:
    """Producer index -> ("mem", delta) or ("cmp",) pair-fusion decisions.

    The consumer at ``index + 1`` keeps its (unreachable) stand-alone handler
    so pc layout is unchanged.  The block plans use the same fusion map as
    the binding step for a given model — fused pairs charge both halves'
    costs up front, so the decisions are part of the observable charging
    protocol.
    """
    instrs = function.instrs
    fused: dict[int, tuple] = {}
    i = 0
    while i < len(instrs) - 1:
        instr = instrs[i]
        nxt = instrs[i + 1]
        dest = instr.dest
        if (dest is not None and use_counts.get(dest.index, 0) == 1
                and nxt.args and type(nxt.args[0]) is Temp
                and nxt.args[0].index == dest.index):
            if nxt.op is Opcode.LOAD or nxt.op is Opcode.STORE:
                delta = _move_delta(instr, ctx, slot_types, inline_moves, inline_field)
                if delta is not None:
                    fused[i] = ("mem", delta)
                    i += 2
                    continue
            elif (nxt.op is Opcode.CJUMP and instr.op is Opcode.CMP
                  and instr.attrs["operator"] in CMP_FUNCS):
                fused[i] = ("cmp",)
                i += 2
                continue
        i += 1
    return fused


# ---------------------------------------------------------------------------
# Generic block descriptors
# ---------------------------------------------------------------------------


def _generic_descs_and_costs(function: Function, ctx, slot_types, fused,
                             labels, timing: tuple[int, int, int], scratch: int,
                             fast_noprov: bool):
    """Per-instruction (descriptor, cost) lists for the block planner.

    Mirrors the binding step's cost rules exactly and classifies every entry
    model-independently: raw-register work keeps its splice descriptor, every
    model-specialized entry (memory op, call, alloca, pointer move, boxed
    compare, ...) becomes a conservative closure-call slot — ``("ext", out)``
    when it may trap (a charge point), ``("opaque", out)`` when no model's
    hook can raise.  Flushing charges at every charge point is always exact:
    single-step dispatch charges every entry before it runs.
    """
    instrs = function.instrs
    base_cost, branch_cost, call_cost = timing
    stop = len(instrs)
    descs: list = []
    costs: list = []

    for index, instr in enumerate(instrs):
        op = instr.op
        dest = instr.dest.index + FRAME_RESERVED if instr.dest is not None else None
        dest_type = slot_types.get(instr.dest.index) if instr.dest is not None else None
        out = dest if dest is not None else scratch
        cost = base_cost
        desc = None
        fusion = fused.get(index)

        if fusion is not None:
            if fusion[0] == "mem":
                # Fused pointer-move + memory pair: both halves' costs are
                # charged up front (matching the binding step exactly); the
                # pair handler is a closure-call charge point that writes
                # the consumer's destination.
                cost = base_cost + base_cost
                consumer = instrs[index + 1]
                if consumer.op is Opcode.LOAD:
                    cdest = (consumer.dest.index + FRAME_RESERVED
                             if consumer.dest is not None else scratch)
                    desc = ("ext", cdest)
                else:
                    desc = ("ext", None)
            else:
                # Fused cmp+cjump: a branch, so it terminates any block.
                cost = base_cost + branch_cost
                desc = None
        elif op is Opcode.LABEL or op is Opcode.NOP:
            cost = 0
            desc = ("label",)
        elif op is Opcode.JUMP:
            cost = branch_cost
            desc = ("goto", labels[instr.attrs["target"]])
        elif op is Opcode.CJUMP:
            cost = branch_cost
            then_pc = labels[instr.attrs["then"]]
            else_pc = labels[instr.attrs["else"]]
            raw = raw_operand(instr.args[0], ctx, slot_types)
            if raw is not None and raw[0] == "slot":
                desc = ("cjump_raw", raw[1], raw[3], then_pc, else_pc)
            elif raw is not None:
                desc = ("goto", then_pc if raw[1] else else_pc)
        elif op is Opcode.RET:
            if not instr.args:
                desc = ("goto", stop)
        elif op is Opcode.BINOP:
            desc = _generic_binop_desc(instr, ctx, slot_types, dest_type, out,
                                       fast_noprov)
        elif op is Opcode.CMP:
            desc = _generic_cmp_desc(instr, ctx, slot_types, dest_type, out)
        elif op is Opcode.UNOP:
            desc = _generic_unop_desc(instr, ctx, slot_types, dest_type, out)
        elif op is Opcode.INTCAST:
            desc = _generic_intcast_desc(instr, ctx, slot_types, dest_type, out)
        elif op is Opcode.BITCAST:
            desc = _generic_bitcast_desc(instr, ctx, slot_types, dest_type, out)
        elif op in (Opcode.GEP, Opcode.PTRADD, Opcode.FIELD,
                    Opcode.PTRTOINT, Opcode.INTTOPTR):
            # Pointer moves and conversions: no model's hook for these raises
            # (a contract every model keeps), so they are deferred-charge
            # closure calls.
            desc = ("opaque", out)
        elif op is Opcode.CALL:
            cost = call_cost
            desc = ("ext", dest)
        elif op in (Opcode.LOAD, Opcode.ALLOCA, Opcode.PTRDIFF):
            desc = ("ext", out)
        elif op is Opcode.STORE:
            desc = ("ext", None)
        # anything else (unknown opcode): terminal closure call (desc None).

        descs.append(desc)
        costs.append(cost)
    return descs, costs


def _generic_binop_desc(instr, ctx, slot_types, dest_type, out, fast_noprov):
    operator = instr.attrs["operator"]
    is_division = operator in ("/", "%")
    if operator not in INT_BINOPS and not is_division:
        return None  # unknown operator: the handler raises
    if is_division or not fast_noprov:
        # Division by zero is a program-level trap, and an overridden
        # provenance hook must see every operand (and may itself raise):
        # both make the binding step's handler a closure-call charge point.
        return ("ext", out)
    raw_left = raw_operand(instr.args[0], ctx, slot_types)
    raw_right = raw_operand(instr.args[1], ctx, slot_types)
    target = instr.ctype
    width = min(target.size(ctx), 8) if target is not None else 8
    signed = getattr(target, "signed", True)
    pointer_sized = isinstance(target, IntType) and target.is_pointer_sized
    if raw_left is None or raw_right is None:
        return ("opaque", out)  # boxed path: non-trapping under fast_noprov
    lkind, lpayload, _lt, llabel = raw_left
    rkind, rpayload, _rt, rlabel = raw_right
    dest_mode = 0 if dest_type is not None else 2 if pointer_sized else 1
    return ("binop_raw", lkind, lpayload, llabel, rkind, rpayload, rlabel,
            operator, width, signed, dest_mode, out)


def _generic_cmp_desc(instr, ctx, slot_types, dest_type, out):
    operator = instr.attrs["operator"]
    if operator not in CMP_FUNCS:
        return None
    raw_left = raw_operand(instr.args[0], ctx, slot_types)
    raw_right = raw_operand(instr.args[1], ctx, slot_types)
    if raw_left is None or raw_right is None:
        # Boxed comparison may consult the model's ptr_compare hook:
        # conservatively a charge point.
        return ("ext", out)
    lkind, lpayload, _lt, llabel = raw_left
    rkind, rpayload, _rt, rlabel = raw_right
    return ("cmp_raw", lkind, lpayload, llabel, rkind, rpayload, rlabel,
            operator, dest_type is not None, out)


def _generic_unop_desc(instr, ctx, slot_types, dest_type, out):
    negate = instr.attrs["operator"] == "neg"
    raw = raw_operand(instr.args[0], ctx, slot_types)
    if raw is not None and raw[0] == "slot" and dest_type is not None:
        _, slot, (swidth, ssigned), label = raw
        return ("unop_raw", slot, label, negate, swidth, ssigned, out)
    if raw is not None and dest_type is not None:
        _, const_value, (swidth, ssigned), _label = raw
        const_raw = IntVal(-const_value if negate else ~const_value,
                           swidth, ssigned).value
        return ("const_raw", const_raw, out)
    return ("ext", out)  # may trap on a pointer operand


def _generic_intcast_desc(instr, ctx, slot_types, dest_type, out):
    target = instr.ctype
    width = min(target.size(ctx), 8)
    signed = getattr(target, "signed", True)
    raw = raw_operand(instr.args[0], ctx, slot_types)
    if raw is not None and raw[0] == "slot" and dest_type is not None:
        _, slot, (swidth, ssigned), label = raw
        if (swidth, ssigned) == (width, signed):
            return ("copy_raw", slot, label, out)
        return ("intcast_raw", slot, label, width, signed, out)
    if raw is not None and dest_type is not None:
        return ("const_raw", IntVal(raw[1], width, signed).value, out)
    return ("opaque", out)


def _generic_bitcast_desc(instr, ctx, slot_types, dest_type, out):
    raw = raw_operand(instr.args[0], ctx, slot_types)
    if raw is not None and raw[0] == "slot" and dest_type is not None:
        _, slot, _, label = raw
        return ("copy_raw", slot, label, out)
    if raw is not None and dest_type is not None:
        return ("const_raw", raw[1], out)
    return ("opaque", out)


# ---------------------------------------------------------------------------
# Generic block emission
# ---------------------------------------------------------------------------


class BlockPlan:
    """One shared superinstruction: cached code plus its binding manifest."""

    __slots__ = ("start", "entries", "n_ir", "code", "consts", "handler_indices")

    def __init__(self, start: int, entries: int, n_ir: int, code,
                 consts: dict, handler_indices: tuple[int, ...]) -> None:
        self.start = start
        self.entries = entries
        self.n_ir = n_ir
        self.code = code
        #: model-independent bindings (intern tables, charge tuples, TRUE/FALSE).
        self.consts = consts
        #: handler list indices a binding step must supply as ``h<k>``.
        self.handler_indices = handler_indices


def _plan_blocks(function: Function, descs: list, costs: list, fused: dict,
                 labels: dict, profiled: bool) -> list[BlockPlan]:
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
            step = 2 if k in fused else 1
            if len(members) >= BLOCK_LIMIT or k + step >= n or (k + step) in label_pcs:
                break
            k += step
        if terminal is not None:
            span = members + [terminal]
            next_pc = terminal + (2 if terminal in fused else 1)
        else:
            span = members
            next_pc = (members[-1] + (2 if members[-1] in fused else 1)) if members else pc + 1
        if len(span) >= 2:
            plans.append(_emit_generic_block(function, descs, costs, fused,
                                             members, terminal, next_pc, profiled))
        pc = next_pc
    return plans


def _emit_generic_block(function: Function, descs: list, costs: list,
                        fused: dict, members: list, terminal: int | None,
                        fall_to: int, profiled: bool) -> BlockPlan:
    """Generate and compile the model-independent source for one block.

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
    n_ir = sum(2 if k in fused else 1 for k in span)

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
    source = block_source(lines, names)
    code = block_code(source, f"{function.name}+{start}@shared")
    return BlockPlan(start, len(span), n_ir, code, consts, indices)


# ---------------------------------------------------------------------------
# The artifact and its cache
# ---------------------------------------------------------------------------


class PredecodeArtifact:
    """Everything about one IR function derivable from IR + pointer layout."""

    __slots__ = ("function", "ctx", "instrs", "ninstrs", "mutations",
                 "labels", "use_counts", "nregs", "nallocas", "scratch",
                 "_slot_types", "_fusions", "_plans", "_arg_raws")

    def __init__(self, function: Function, ctx) -> None:
        self.function = function
        self.ctx = ctx
        #: snapshots of the instruction stream the artifact was computed
        #: from; the cache verifies list identity, length *and* the
        #: function's in-place mutation counter on every hit, so replacing
        #: ``function.instrs`` or re-running an optimizer pass (which bumps
        #: the counter via ``invalidate_label_index``) invalidates
        #: everything derived from it.
        self.instrs = function.instrs
        self.ninstrs = len(function.instrs)
        self.mutations = function.mutations
        self.labels = function.label_index()
        max_temp = -1
        nallocas = 0
        use_counts: dict[int, int] = {}
        for instr in function.instrs:
            if instr.dest is not None and instr.dest.index > max_temp:
                max_temp = instr.dest.index
            for arg in instr.args:
                if type(arg) is Temp:
                    if arg.index > max_temp:
                        max_temp = arg.index
                    use_counts[arg.index] = use_counts.get(arg.index, 0) + 1
            if instr.op is Opcode.ALLOCA:
                nallocas += 1
        self.use_counts = use_counts
        # One extra frame slot beyond the temps: a scratch slot for
        # dest-less ops.
        self.nregs = max_temp + 2
        self.nallocas = nallocas
        self.scratch = max_temp + 1 + FRAME_RESERVED
        self._slot_types: dict[bool, dict] = {}
        self._fusions: dict[tuple, dict] = {}
        self._plans: dict[tuple, list[BlockPlan]] = {}
        self._arg_raws: dict[bool, list[tuple]] = {}

    def slot_types(self, fast_noprov: bool) -> dict[int, tuple[int, bool]]:
        """The slot-type fixpoint, memoized per provenance-hook policy."""
        cached = self._slot_types.get(fast_noprov)
        if cached is None:
            cached = analyze_slots(self.function, self.ctx, fast_noprov)
            self._slot_types[fast_noprov] = cached
        return cached

    def arg_raws(self, fast_noprov: bool) -> list[tuple]:
        """Per-instruction raw-operand descriptors (:func:`raw_operand`),
        memoized so the per-machine binding step stops recomputing them."""
        cached = self._arg_raws.get(fast_noprov)
        if cached is None:
            slot_types = self.slot_types(fast_noprov)
            ctx = self.ctx
            cached = [tuple(raw_operand(arg, ctx, slot_types) for arg in instr.args)
                      for instr in self.function.instrs]
            self._arg_raws[fast_noprov] = cached
        return cached

    def fusion(self, inline_moves: bool, inline_field: bool,
               fast_noprov: bool) -> dict[int, tuple]:
        """Pair-fusion decisions, memoized per inline-policy combination."""
        key = (inline_moves, inline_field, fast_noprov)
        cached = self._fusions.get(key)
        if cached is None:
            cached = compute_fusion(self.function, self.ctx,
                                    self.slot_types(fast_noprov),
                                    self.use_counts, inline_moves, inline_field)
            self._fusions[key] = cached
        return cached

    def block_plans(self, timing: tuple[int, int, int], fast_noprov: bool,
                    profiled: bool, inline_moves: bool,
                    inline_field: bool) -> list[BlockPlan]:
        """Superinstruction plans, memoized per (timing, policy).

        The inline-move flags are part of the key because fusion must match
        the binding step exactly (fused pairs change pc layout and charge
        both halves up front); models sharing those flags — four of the
        five 8-byte models — share one plan set.
        """
        key = (timing, fast_noprov, profiled, inline_moves, inline_field)
        cached = self._plans.get(key)
        if cached is None:
            slot_types = self.slot_types(fast_noprov)
            fused = self.fusion(inline_moves, inline_field, fast_noprov)
            descs, costs = _generic_descs_and_costs(
                self.function, self.ctx, slot_types, fused, self.labels,
                timing, self.scratch, fast_noprov)
            cached = _plan_blocks(self.function, descs, costs, fused,
                                  self.labels, profiled)
            self._plans[key] = cached
        return cached


#: bound on cached artifacts; sweeps touch each program's functions for a
#: burst of seven machines and never again, so a small LRU is plenty.
CACHE_LIMIT = 512


class ArtifactCache:
    """Process-level LRU of :class:`PredecodeArtifact` keyed by function."""

    __slots__ = ("entries", "maxsize", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = CACHE_LIMIT) -> None:
        self.entries: OrderedDict[tuple, PredecodeArtifact] = OrderedDict()
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, function: Function, ctx) -> PredecodeArtifact:
        """The artifact for ``function`` under ``ctx``'s pointer layout.

        Keys use ``id(function)`` plus the layout; the stored entry keeps a
        strong reference to the function and is verified by identity, so a
        recycled ``id`` (or a same-name function from another module) can
        never alias a stale artifact.
        """
        key = (id(function), ctx.pointer_bytes, ctx.pointer_align)
        artifact = self.entries.get(key)
        if (artifact is not None and artifact.function is function
                and artifact.ctx is ctx
                and artifact.instrs is function.instrs
                and artifact.ninstrs == len(function.instrs)
                and artifact.mutations == function.mutations):
            self.hits += 1
            self.entries.move_to_end(key)
            return artifact
        self.misses += 1
        artifact = PredecodeArtifact(function, ctx)
        self.entries[key] = artifact
        self.entries.move_to_end(key)
        while len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
            self.evictions += 1
        return artifact

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self.entries)}


#: the process-level artifact cache every machine compiles through.
ARTIFACTS = ArtifactCache()


def get_artifact(function: Function, ctx) -> PredecodeArtifact:
    """Module-level convenience wrapper over :data:`ARTIFACTS`."""
    return ARTIFACTS.get(function, ctx)

"""Per-machine binding of predecode artifacts into a threaded-dispatch engine.

The original interpreter walked every :class:`~repro.minic.ir.Instr` through a
chain of ``if op is Opcode.X`` tests, re-resolving ``attrs`` dict entries,
label maps and operand kinds on every execution.  Compilation is now split in
two: the **model-independent half** (decode facts, the slot-type fixpoint,
inline pointer-move deltas, the per-pc descriptor table and costs, shared
raw-register handlers and superinstruction plans) lives in
:mod:`repro.interp.artifact`, stored on the IR function itself, and this
module is the **binding step** that closes the artifact over one concrete
machine's model, memory, cache and timing state (``docs/pipeline.md`` has
the full picture).  Only functions promoted out of tier 0
(:mod:`repro.interp.tier0`, which runs cold code straight from the
artifact) are bound.  Binding a function produces a flat list of
per-instruction closures ("handlers"):

* label targets are resolved to instruction indices at compile time, so a
  branch is just ``return target_index``;
* ``attrs`` lookups (operators, offsets, element sizes, callees) are hoisted
  into closure variables;
* operands are pre-classified — a :class:`Temp` becomes a register-slot read,
  an integer :class:`Const` becomes a hoisted immutable value, a
  :class:`GlobalRef` becomes a name lookup (kept at run time because the GC
  may rewrite globals between runs);
* per-instruction cycle costs come precomputed from the artifact as a
  parallel ``costs`` list;
* raw-register work (labels, gotos, unboxed casts, arithmetic and compares)
  takes the artifact's shared frame-only handlers, built once per layout
  rather than once per machine;
* temporaries live in a flat preallocated register list instead of a dict.

**Unboxed registers.**  The artifact's fixpoint analysis
(:func:`~repro.interp.artifact.analyze_slots`) identifies register slots that
can only ever hold *provenance-free scalar integers* of one static
``(width, signedness)``.
Those slots carry raw Python ints instead of :class:`IntVal` boxes: loads,
arithmetic, comparisons and casts between them never allocate — width
wrapping happens inline with the precomputed mask tables from
:mod:`repro.interp.values`.  Values are boxed (through the shared intern
pool) only at ABI boundaries: call arguments, return values, pointer
conversions, and any slot the analysis cannot prove scalar.  Provenance
semantics are untouchable by construction — any value that *could* carry
provenance (pointer-sized integers, ``ptrtoint`` results, call results,
anything a model hook might inspect) stays boxed.

Every IR instruction binds to exactly one handler, is dispatched once and
is charged once, before it runs.  Pointer moves (``field``, ``gep``,
``ptradd``) build their ``PtrVal`` inline from the artifact's memoized
deltas when the model keeps the default pointer-move policy, and call the
model's hooks otherwise.

The hot load/store handlers also inline the L1-hit path of the cache model
and the single-page fast path of :class:`~repro.sim.memory.TaggedMemory`
(same counters, same LRU updates, same fall-backs — the slow paths call the
originals), and reconstruction of metadata-free pointer loads is memoised for
models where it is a pure function of the raw address.

**Basic-block superinstructions.**  On top of the per-instruction handlers,
a bound function installs the artifact's cached **block plans**
(:meth:`~repro.interp.artifact.PredecodeArtifact.block_plans`) at once,
which batch charges per charge group and call this module's handlers for
every model-specialized entry; :func:`_budget_replay` reproduces the exact
per-instruction trap point when a batch would overrun the instruction
budget.

The engine is **observationally identical** to the old dispatch chain and
to tier 0: the same instruction/cycle/memory-access counts, the same
outputs and the same traps for every memory model
(``tests/test_metrics_golden.py`` and ``tests/test_tier0.py`` pin this).

Frame layout: handlers receive one ``frame`` list shaped as
``[args, alloca_slots, return_value, reg0, reg1, ..., scratch]``, the layout
tier 0 uses too, so a promoted activation continues its tier-0 frame.
Frames are pooled per :class:`CompiledFunction` (reset on release), so a
call does not round-trip Python's allocator for the register file or the
alloca list.
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import InterpreterError
from repro.interp.artifact import (
    CMP_FUNCS as _CMP_FUNCS,
    FRAME_RESERVED as _FRAME_RESERVED,
    INT_BINOPS as _INT_BINOPS,
    UNDEF,
    divide,
    get_artifact,
)
from repro.interp.intrinsics import INTRINSICS
from repro.interp.models.base import MemoryModel, field_pointer, qualifier_mask
from repro.interp.models.mpx import MpxModel
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.hotgen import (
    load_maker,
    packer_for,
    store_maker,
    unpacker_for,
)
from repro.interp.shadow import PAGE_SHIFT
from repro.interp.values import (
    FALSE_I32,
    INTERN_MAX,
    INTERN_MIN,
    MASKS,
    NULL_PTR,
    PERM_ALL,
    TRUE_I32,
    IntVal,
    PtrVal,
    arithmetic_provenance,
    intern_table,
    ptr_to_int,
    qualified,
)
from repro.minic.ir import Const, Function, GlobalRef, Opcode, Temp
from repro.minic.typesys import IntType, PointerType

#: indices of the bookkeeping slots at the head of every frame.
_ARGS, _ALLOCAS, _RET = 0, 1, 2

_ADDRESS_MASK = (1 << 64) - 1

#: models whose load_pointer_without_metadata is a pure function of the raw
#: address (no allocator lookup), so the resulting PtrVal can be memoised.
_PURE_PTR_LOADERS = (
    MemoryModel.load_pointer_without_metadata,
    Pdp11Model.load_pointer_without_metadata,
    MpxModel.load_pointer_without_metadata,
)


class CompiledFunction:
    """The predecoded form of one IR function, bound to one machine."""

    __slots__ = ("function", "paired", "size", "nregs", "nallocas",
                 "frame_proto", "pool", "alloca_proto", "blocks")

    def __init__(self, function: Function, handlers: list, costs: list,
                 nregs: int, nallocas: int) -> None:
        self.function = function
        #: (handler, cost) pairs: one dispatch-loop index instead of two.
        self.paired = list(zip(handlers, costs))
        self.size = len(self.paired)
        self.nregs = nregs
        self.nallocas = nallocas
        #: template frame: bookkeeping slots + registers, copied per call.
        self.frame_proto = [None, None, None] + [UNDEF] * nregs
        #: free-list of released frames (reset to frame_proto on release, the
        #: alloca list kept attached) — see AbstractMachine._execute.
        self.pool: list = []
        self.alloca_proto = (None,) * nallocas
        #: installed superinstructions: (start_pc, entries).
        self.blocks: list[tuple[int, int]] = []


# ---------------------------------------------------------------------------
# Operand predecoding
# ---------------------------------------------------------------------------


def _const_value(machine, operand: Const):
    """Hoisted runtime value of a constant, or None when it needs run-time state."""
    ctype = operand.ctype
    if isinstance(ctype, PointerType):
        if operand.value == 0:
            return NULL_PTR
        return None  # non-null pointer constant: conversion consults the allocator
    size = ctype.size(machine.ctx) if isinstance(ctype, IntType) else 8
    signed = getattr(ctype, "signed", True)
    pointer_sized = isinstance(ctype, IntType) and ctype.is_pointer_sized
    return IntVal(operand.value, bytes=min(size, 8), signed=signed, pointer_sized=pointer_sized)


def _reader(machine, operand, slot_types):
    """Compile an operand into a ``frame -> boxed value`` accessor.

    Unboxed slots are boxed on read (through the intern pool) — this is the
    raw-to-ABI boundary for contexts that need a real :class:`IntVal`.
    """
    kind = type(operand)
    if kind is Temp:
        slot = operand.index + _FRAME_RESERVED
        label = str(operand)
        t = slot_types.get(operand.index)
        if t is not None:
            width, signed = t
            table = intern_table(width, signed)

            def read_temp_raw(frame, slot=slot, width=width, signed=signed,
                              table=table, label=label):
                value = frame[slot]
                if type(value) is int:
                    if INTERN_MIN <= value <= INTERN_MAX:
                        return table[value - INTERN_MIN]
                    return IntVal(value, width, signed)
                raise InterpreterError(f"use of undefined temporary {label}")

            return read_temp_raw

        def read_temp(frame):
            value = frame[slot]
            if value is UNDEF:
                raise InterpreterError(f"use of undefined temporary {label}")
            return value

        return read_temp
    if kind is Const:
        hoisted = _const_value(machine, operand)
        if hoisted is not None:
            return lambda frame: hoisted
        as_int = IntVal(operand.value, bytes=8, signed=False)
        int_to_ptr = machine.model.int_to_ptr
        allocator = machine.allocator
        return lambda frame: int_to_ptr(as_int, allocator)
    if kind is GlobalRef:
        name = operand.name
        globals_map = machine.globals

        def read_global(frame):
            try:
                return globals_map[name]
            except KeyError:
                raise InterpreterError(f"use of unknown global {name!r}") from None

        return read_global
    raise InterpreterError(f"cannot evaluate operand {operand!r}")


def _boxed_operand(machine, operand, slot_types):
    """(mode, src, label): 0 = boxed Temp slot, 1 = hoisted value, 2 = reader."""
    if type(operand) is Temp and operand.index not in slot_types:
        return 0, operand.index + _FRAME_RESERVED, str(operand)
    if type(operand) is Const:
        hoisted = _const_value(machine, operand)
        if hoisted is not None:
            return 1, hoisted, None
    return 2, _reader(machine, operand, slot_types), None


def _ptr_reader(machine, operand, slot_types):
    """An operand accessor that coerces integers to pointers (``_pointer_operand``)."""
    int_to_ptr = machine.model.int_to_ptr
    allocator = machine.allocator

    if type(operand) is Temp and operand.index not in slot_types:
        # Fused register read + pointer coercion (one call instead of two).
        slot = operand.index + _FRAME_RESERVED
        label = str(operand)

        def read_ptr(frame):
            value = frame[slot]
            kind = type(value)
            if kind is PtrVal:
                return value
            if kind is IntVal:
                return int_to_ptr(value, allocator)
            if value is UNDEF:
                raise InterpreterError(f"use of undefined temporary {label}")
            raise InterpreterError(f"expected a pointer, got {value!r}")

        return read_ptr

    read = _reader(machine, operand, slot_types)

    def read_ptr(frame):
        value = read(frame)
        if type(value) is PtrVal:
            return value
        if type(value) is IntVal:
            return int_to_ptr(value, allocator)
        raise InterpreterError(f"expected a pointer, got {value!r}")

    return read_ptr


def _is_pointer_sized_int(ctype) -> bool:
    return isinstance(ctype, IntType) and ctype.is_pointer_sized


def compile_function(machine, function: Function) -> CompiledFunction:
    """Bind ``function``'s predecode artifact to one concrete machine.

    The model-independent half (decode facts, slot-type fixpoint, inline
    pointer-move deltas, costs, raw-register handlers, shared block plans)
    comes from the function's artifact (:func:`~repro.interp.artifact.get_artifact`); this
    function closes the rest over the machine's model, memory, cache and
    timing state and installs the block plans.  It runs when a function is
    promoted out of tier 0 (``AbstractMachine._execute``).
    """
    instrs = function.instrs
    artifact = get_artifact(function, machine.ctx)
    labels = artifact.labels
    timing = machine.config.timing
    charges = (timing.base_instruction_cost, timing.branch_cost, timing.call_cost)
    stop = len(instrs)

    #: temp index -> (width, signed) for slots that carry raw Python ints.
    slot_types = artifact.slot_types()

    nregs = artifact.nregs
    scratch = artifact.scratch

    # Machine state bound once per compilation.
    model = machine.model
    ctx = machine.ctx
    memory = machine.memory
    allocator = machine.allocator
    hierarchy_access = machine.hierarchy.access
    collect_timing = machine.collect_timing
    shadow = machine.shadow
    shadow_entries = shadow.entries
    shadow_pages = shadow.pages
    shadow_get = shadow_entries.get
    uses_shadow = model.uses_shadow
    clear_shadow = uses_shadow and model.clear_shadow_on_data_store
    check_access = model.check_access
    int_to_ptr = model.int_to_ptr
    ptr_offset = model.ptr_offset
    pointer_bytes = model.pointer_bytes
    read_small = memory.read_small
    write_small = memory.write_small
    write_ptr_raw = memory.write_ptr_raw
    load_ptr_no_meta = model.load_pointer_without_metadata
    reconcile = model.reconcile_loaded_pointer
    M64 = _ADDRESS_MASK

    # Inline fast path over TaggedMemory's page store (single-page accesses;
    # everything else falls back to the metered methods above).
    mem_pages = memory._pages
    pages_get = mem_pages.get
    mem_tags = memory._tags
    mem_size = memory._size
    page_size = memory.PAGE_SIZE
    page_mask = memory._PAGE_MASK
    page_shift = memory._PAGE_SHIFT

    # Inline fast path for the cache model's single-line L1 hit.  The captured
    # set list / stats object stay valid because CacheLevel.reset() mutates in
    # place.  Timestamps stored in the per-set dicts are never read (LRU order
    # is dict order), so the inline path stores 0 instead of a clock.
    hier = machine.hierarchy
    l1 = hier.l1
    l1_sets = l1._sets
    l1_stats = l1.stats
    l2_access = hier.l2.access
    line_bytes = l1._line_bytes
    num_sets = l1._num_sets
    assoc = l1._associativity
    lat_l1 = hier._l1_hit_latency
    lat_l2 = hier._l2_hit_latency
    lat_dram = hier._dram_latency
    inline_cache = (line_bytes & (line_bytes - 1) == 0
                    and num_sets & (num_sets - 1) == 0)
    line_shift = line_bytes.bit_length() - 1
    nsets_mask = num_sets - 1
    nsets_shift = num_sets.bit_length() - 1

    # When the model keeps the default pointer-arithmetic policy (cursor moves
    # freely, bounds unchanged), pointer moves can be constructed inline
    # instead of dispatching through model.ptr_offset -> PtrVal.moved_by;
    # field moves also need bounds left unnarrowed.
    inline_moves = type(model).ptr_offset is MemoryModel.ptr_offset
    narrow_fields = model.narrow_field_bounds
    # The base reconciliation policy (trust the shadow entry when the raw
    # address still matches, else reconstruct without metadata) is inlined;
    # models that override it keep the call.
    inline_reconcile = (type(model).reconcile_loaded_pointer
                        is MemoryModel.reconcile_loaded_pointer)
    # Dereference checks are inlined for the two check policies (the base
    # one and PDP-11's flat one); the inline fast path only covers accesses
    # the full check would *pass* (and returns the same effective address) —
    # anything unusual falls back to the model's check_access, so traps,
    # messages and trap counters are identical.
    flat_check = type(model).check_access is Pdp11Model.check_access

    # Metadata-free pointer loads are pure per raw address for these models;
    # share one memo across the machine's compiled functions.
    if type(model).load_pointer_without_metadata in _PURE_PTR_LOADERS:
        ptr_memo = machine._ptr_load_memo
        ptr_memo_get = ptr_memo.get
    else:
        ptr_memo = None
        ptr_memo_get = None

    def ptr_parts(operand):
        """(slot, coerce) for inline Temp pointer reads, or (None, reader).

        With a slot, handlers do ``pointer = frame[slot]`` and call ``coerce``
        only when the value is not already a PtrVal; otherwise ``coerce`` is a
        full reader closure invoked with the frame.
        """
        if type(operand) is Temp and operand.index not in slot_types:
            slot = operand.index + _FRAME_RESERVED
            label = str(operand)

            def coerce(value, label=label):
                if type(value) is IntVal:
                    return int_to_ptr(value, allocator)
                if value is UNDEF:
                    raise InterpreterError(f"use of undefined temporary {label}")
                raise InterpreterError(f"expected a pointer, got {value!r}")

            return slot, coerce
        return None, _ptr_reader(machine, operand, slot_types)

    def reader(operand):
        return _reader(machine, operand, slot_types)

    # Per-instruction raw-operand descriptors, precomputed on the artifact
    # (the same list every other machine of this layout binds against).
    arg_raw_lists = artifact.arg_raws()

    # pc -> move_delta for every pointer move that can be built inline;
    # build() takes one only under this model's policy.  Per-pc costs and
    # the shared raw-register handlers come from the artifact's descriptor
    # table, the same one the block planner reads.
    deltas = artifact.fusion() if inline_moves else {}
    costs = artifact.costs(charges)
    raw_handlers = artifact.raw_handlers()

    # ------------------------------------------------------------------
    # Memory-op generators (source-specialized; see repro.interp.hotgen)
    # ------------------------------------------------------------------

    # Built once per compilation and copied per memory instruction — the
    # machine-level values never change within one binding pass.
    proto_bindings = {
        "pslot": None, "pcoerce": None, "check_access": check_access,
        "size": 0, "size_m1": 0, "line_shift": line_shift,
        "nsets_mask": nsets_mask, "nsets_shift": nsets_shift, "assoc": assoc,
        "lat_l1": lat_l1, "lat_l2": lat_l2, "lat_dram": lat_dram,
        "l1_sets": l1_sets, "l1_stats": l1_stats, "l2_access": l2_access,
        "hier": hier, "hierarchy_access": hierarchy_access, "machine": machine,
        "page_mask": page_mask, "page_size": page_size, "page_shift": page_shift,
        "mem_size": mem_size, "pages_get": pages_get, "mem_pages": mem_pages,
        "read_small": read_small, "write_small": write_small,
        "write_ptr_raw": write_ptr_raw, "mem_tags": mem_tags,
        "shadow_get": shadow_get, "shadow_entries": shadow_entries,
        "shadow_pages": shadow_pages, "shadow_page_shift": PAGE_SHIFT,
        "ptr_memo": ptr_memo, "ptr_memo_get": ptr_memo_get,
        "load_ptr_no_meta": load_ptr_no_meta, "allocator": allocator,
        "int_to_ptr": int_to_ptr, "reconcile": reconcile,
        "qmask": 0, "table": None, "out": 0, "next_pc": 0,
        "signed": True, "read_value": None, "coerce_bytes": None,
        "coerce_signed": True, "size_mask": 0, "comb_mask": 0, "const_raw": 0,
        "vslot": 0, "vmsg": "", "pad": b"", "span": 8, "mem_unpack": None,
        "mem_pack": None,
    }

    def bindings() -> dict:
        """Fresh binding dict for a hotgen-generated handler (full name set)."""
        return dict(proto_bindings)

    def gen_load(instr, next_pc, out):
        """Handler for a LOAD."""
        ctype = instr.ctype
        pslot, pcoerce = ptr_parts(instr.args[0])
        b = bindings()
        b["pslot"] = pslot
        b["pcoerce"] = pcoerce
        b["out"] = out
        b["next_pc"] = next_pc
        qmask = 0
        if isinstance(ctype, PointerType) or _is_pointer_sized_int(ctype):
            size = pointer_bytes
            if isinstance(ctype, PointerType):
                kind = "ptr"
                qmask = qualifier_mask(model, ctype)
            else:
                kind = "psint"
        else:
            size = max(ctype.size(ctx), 1)
            if instr.dest is not None and instr.dest.index in slot_types:
                kind = "raw"
            else:
                kind = "box"
                b["table"] = intern_table(size, getattr(ctype, "signed", True))
        b["size"] = size
        b["size_m1"] = size - 1
        signed = getattr(ctype, "signed", True)
        b["signed"] = signed
        b["qmask"] = qmask
        mem_unpack = (unpacker_for(8, False) if kind in ("ptr", "psint")
                      else unpacker_for(size, signed))
        b["mem_unpack"] = mem_unpack
        shape = (kind, pslot is not None, flat_check,
                 collect_timing, inline_cache, uses_shadow,
                 ptr_memo is not None, inline_reconcile, qmask != 0,
                 mem_unpack is not None)
        return load_maker(shape)(b)

    def gen_store(instr, raws, next_pc):
        """Handler for a STORE."""
        ctype = instr.ctype
        pslot, pcoerce = ptr_parts(instr.args[0])
        param_index = instr.attrs.get("param_index")
        b = bindings()
        b["pslot"] = pslot
        b["pcoerce"] = pcoerce
        b["next_pc"] = next_pc

        if param_index is not None:
            def read_value(frame, param_index=param_index):
                return frame[_ARGS][param_index]
        elif (isinstance(ctype, PointerType) or _is_pointer_sized_int(ctype)
              or raws[1] is None):
            read_value = reader(instr.args[1])
        else:
            read_value = None

        if isinstance(ctype, PointerType) or _is_pointer_sized_int(ctype):
            span = pointer_bytes if pointer_bytes > 8 else 8
            b["size"] = pointer_bytes
            b["size_m1"] = pointer_bytes - 1
            b["span"] = span
            b["pad"] = bytes(span - 8)
            b["read_value"] = read_value
            mem_pack = packer_for(8)
            b["mem_pack"] = mem_pack
            shape = ("ptr", pslot is not None, flat_check,
                     collect_timing, inline_cache, clear_shadow, uses_shadow,
                     2, isinstance(ctype, PointerType), span > 8,
                     mem_pack is not None)
            return store_maker(shape)(b)

        size = max(ctype.size(ctx), 1)
        b["size"] = size
        b["size_m1"] = size - 1
        b["size_mask"] = MASKS[size] if size <= 8 else (1 << (8 * size)) - 1
        raw_desc = raws[1] if param_index is None else None
        coerce_flag = False
        if raw_desc is not None:
            vkind, vpayload, (vwidth, _vs), vlabel = raw_desc
            comb_mask = MASKS[min(vwidth, size)] if size <= 8 else MASKS[vwidth]
            if vkind == "const":
                b["const_raw"] = vpayload & comb_mask
                value_mode = 0
            else:
                b["vslot"] = vpayload
                b["vmsg"] = f"use of undefined temporary {vlabel}"
                b["comb_mask"] = comb_mask
                value_mode = 1
        else:
            b["read_value"] = read_value
            coerce_bytes = min(ctype.size(ctx), 8) if isinstance(ctype, IntType) else None
            b["coerce_bytes"] = coerce_bytes
            b["coerce_signed"] = getattr(ctype, "signed", True)
            value_mode = 2
            coerce_flag = coerce_bytes is not None
        mem_pack = packer_for(size)
        b["mem_pack"] = mem_pack
        shape = ("scalar", pslot is not None, flat_check,
                 collect_timing, inline_cache, clear_shadow, uses_shadow,
                 value_mode, coerce_flag, False, mem_pack is not None)
        return store_maker(shape)(b)

    # ------------------------------------------------------------------
    # Main compilation loop
    # ------------------------------------------------------------------

    def build(index: int):
        """Bind one pc's handler (its cost comes from the artifact)."""
        handler = raw_handlers[index]
        if handler is not None:
            return handler

        instr = instrs[index]
        op = instr.op
        next_pc = index + 1
        dest = instr.dest.index + _FRAME_RESERVED if instr.dest is not None else None
        dest_type = slot_types.get(instr.dest.index) if instr.dest is not None else None

        if op is Opcode.CJUMP:
            then_pc = labels[instr.attrs["then"]]
            else_pc = labels[instr.attrs["else"]]
            read_cond = reader(instr.args[0])

            def handler(frame, read_cond=read_cond, then_pc=then_pc, else_pc=else_pc):
                condition = read_cond(frame)
                if type(condition) is IntVal:
                    return then_pc if condition.value != 0 else else_pc
                return else_pc if condition.is_null else then_pc

        elif op is Opcode.RET:
            # Raw operands are boxed here: the return value crosses back
            # into the caller's (untyped) destination slot.
            operand = instr.args[0]
            if type(operand) is Temp:
                slot = operand.index + _FRAME_RESERVED
                label = str(operand)
                slot_type = slot_types.get(operand.index)
                if slot_type is None:
                    def handler(frame, slot=slot, label=label, stop=stop):
                        value = frame[slot]
                        if value is UNDEF:
                            raise InterpreterError(f"use of undefined temporary {label}")
                        frame[_RET] = value
                        return stop
                else:
                    width, signed = slot_type
                    table = intern_table(width, signed)

                    def handler(frame, slot=slot, label=label, width=width,
                                signed=signed, table=table, stop=stop):
                        value = frame[slot]
                        if type(value) is not int:
                            raise InterpreterError(f"use of undefined temporary {label}")
                        if INTERN_MIN <= value <= INTERN_MAX:
                            frame[_RET] = table[value - INTERN_MIN]
                        else:
                            frame[_RET] = IntVal(value, width, signed)
                        return stop
            else:
                read_value = reader(instr.args[0])

                def handler(frame, read_value=read_value, stop=stop):
                    frame[_RET] = read_value(frame)
                    return stop

        elif op is Opcode.ALLOCA:
            slot = artifact.alloca_slots[index]
            size = instr.attrs.get("size", 8)
            alloc_type = instr.attrs.get("alloc_type")
            alignment = max(8, alloc_type.alignment(ctx) if alloc_type is not None else 8)
            name = instr.attrs.get("name", "")
            allocate_stack = allocator.allocate_stack
            out = dest if dest is not None else scratch
            # The two make_pointer policies (the base one and PDP-11's)
            # construct the same PtrVal shape, differing only in the
            # ``checked`` flag.
            mk_checked = type(model).make_pointer is not Pdp11Model.make_pointer

            def handler(frame, slot=slot, size=size, name=name, alignment=alignment,
                        allocate_stack=allocate_stack, mk_checked=mk_checked,
                        out=out, next_pc=next_pc):
                allocas = frame[_ALLOCAS]
                pointer = allocas[slot]
                if pointer is None:
                    obj = allocate_stack(size, name, alignment=alignment)
                    pointer = PtrVal(obj.base, obj.base, obj.size, obj,
                                     PERM_ALL, True, mk_checked)
                    allocas[slot] = pointer
                frame[out] = pointer
                return next_pc

        elif op is Opcode.LOAD:
            handler = gen_load(instr, next_pc, dest if dest is not None else scratch)

        elif op is Opcode.STORE:
            handler = gen_store(instr, arg_raw_lists[index], next_pc)

        elif index in deltas and not (narrow_fields and op is Opcode.FIELD):
            # An inline pointer move (field, gep or ptradd): a constant
            # offset, or a raw index register times the element size.
            pslot, pcoerce = ptr_parts(instr.args[0])
            kind, d1, d2, dlabel = deltas[index]
            out = dest if dest is not None else scratch

            def handler(frame, pslot=pslot, pcoerce=pcoerce, kind=kind, d1=d1,
                        d2=d2, dlabel=dlabel, out=out, next_pc=next_pc):
                if pslot is None:
                    pointer = pcoerce(frame)
                else:
                    pointer = frame[pslot]
                    if type(pointer) is not PtrVal:
                        pointer = pcoerce(pointer)
                if kind == 1:
                    address = (pointer.address + d1) & M64
                else:
                    idx = frame[d1]
                    if type(idx) is not int:
                        raise InterpreterError(f"use of undefined temporary {dlabel}")
                    address = (pointer.address + idx * d2) & M64
                frame[out] = PtrVal(address, pointer.base, pointer.length,
                                    pointer.obj, pointer.perms, pointer.tag,
                                    pointer.checked)
                return next_pc

        elif op is Opcode.GEP or op is Opcode.PTRADD:
            element_size = instr.attrs["element_size"] if op is Opcode.GEP else 1
            out = dest if dest is not None else scratch
            read_ptr = _ptr_reader(machine, instr.args[0], slot_types)
            read_idx = reader(instr.args[1])
            if inline_moves:
                def handler(frame, read_ptr=read_ptr, read_idx=read_idx,
                            element_size=element_size, out=out, next_pc=next_pc):
                    pointer = read_ptr(frame)
                    idx = read_idx(frame)
                    delta = (idx.value if type(idx) is IntVal else idx.address) * element_size
                    frame[out] = PtrVal((pointer.address + delta) & M64,
                                        pointer.base, pointer.length, pointer.obj,
                                        pointer.perms, pointer.tag, pointer.checked)
                    return next_pc
            else:
                def handler(frame, read_ptr=read_ptr, read_idx=read_idx,
                            element_size=element_size, out=out, next_pc=next_pc):
                    pointer = read_ptr(frame)
                    idx = read_idx(frame)
                    delta = (idx.value if type(idx) is IntVal else idx.address) * element_size
                    frame[out] = ptr_offset(pointer, delta)
                    return next_pc

        elif op is Opcode.FIELD:
            field_type = instr.ctype.pointee if isinstance(instr.ctype, PointerType) else None
            field_size = field_type.size(ctx) if field_type is not None else 1
            offset = instr.attrs["offset"]
            out = dest if dest is not None else scratch
            read_ptr = _ptr_reader(machine, instr.args[0], slot_types)

            def handler(frame, read_ptr=read_ptr, offset=offset, field_size=field_size,
                        model=model, out=out, next_pc=next_pc):
                frame[out] = field_pointer(model, read_ptr(frame), offset, field_size)
                return next_pc

        elif op is Opcode.PTRDIFF:
            read_a = _ptr_reader(machine, instr.args[0], slot_types)
            read_b = _ptr_reader(machine, instr.args[1], slot_types)
            element_size = instr.attrs.get("element_size", 1)
            ptr_diff = model.ptr_diff
            out = dest if dest is not None else scratch
            if dest_type is not None:
                def handler(frame, read_a=read_a, read_b=read_b, element_size=element_size,
                            ptr_diff=ptr_diff, out=out, next_pc=next_pc):
                    raw = ptr_diff(read_a(frame), read_b(frame), element_size) & M64
                    frame[out] = raw - 0x1_0000_0000_0000_0000 if raw >= 0x8000_0000_0000_0000 else raw
                    return next_pc
            else:
                def handler(frame, read_a=read_a, read_b=read_b, element_size=element_size,
                            ptr_diff=ptr_diff, out=out, next_pc=next_pc):
                    frame[out] = IntVal(ptr_diff(read_a(frame), read_b(frame), element_size),
                                        bytes=8, signed=True)
                    return next_pc

        elif op is Opcode.PTRTOINT:
            read_ptr = _ptr_reader(machine, instr.args[0], slot_types)
            target = instr.ctype
            width = min(target.size(ctx), 8)
            signed = getattr(target, "signed", True)
            pointer_sized = _is_pointer_sized_int(target)
            out = dest if dest is not None else scratch

            def handler(frame, read_ptr=read_ptr, width=width, signed=signed,
                        pointer_sized=pointer_sized, out=out, next_pc=next_pc):
                frame[out] = ptr_to_int(read_ptr(frame), bytes=width, signed=signed,
                                        pointer_sized=pointer_sized)
                return next_pc

        elif op is Opcode.INTTOPTR:
            read_value = reader(instr.args[0])
            qmask = (qualifier_mask(model, instr.ctype)
                     if isinstance(instr.ctype, PointerType) else 0)
            out = dest if dest is not None else scratch

            def handler(frame, read_value=read_value, qmask=qmask, out=out, next_pc=next_pc):
                value = read_value(frame)
                pointer = value if type(value) is PtrVal else int_to_ptr(value, allocator)
                frame[out] = qualified(pointer, qmask)
                return next_pc

        elif op is Opcode.BITCAST:
            # Casting away const never restores rights: only the target
            # type's qualifiers act.
            qmask = (qualifier_mask(model, instr.ctype)
                     if isinstance(instr.ctype, PointerType) else 0)
            out = dest if dest is not None else scratch
            read_value = reader(instr.args[0])

            def handler(frame, read_value=read_value, qmask=qmask, out=out, next_pc=next_pc):
                value = read_value(frame)
                if type(value) is PtrVal:
                    value = qualified(value, qmask)
                frame[out] = value
                return next_pc

        elif op is Opcode.INTCAST:
            target = instr.ctype
            width = min(target.size(ctx), 8)
            signed = getattr(target, "signed", True)
            pointer_sized = _is_pointer_sized_int(target)
            out = dest if dest is not None else scratch
            read_value = reader(instr.args[0])

            def handler(frame, read_value=read_value, width=width, signed=signed,
                        pointer_sized=pointer_sized, out=out, next_pc=next_pc):
                value = read_value(frame)
                if type(value) is PtrVal:
                    frame[out] = ptr_to_int(value, bytes=width, signed=signed,
                                            pointer_sized=pointer_sized)
                elif (value.bytes == width and value.signed == signed
                      and value.pointer_sized == pointer_sized):
                    frame[out] = value  # no-op conversion: IntVal is immutable
                else:
                    frame[out] = value.converted(bytes=width, signed=signed,
                                                 pointer_sized=pointer_sized)
                return next_pc

        elif op is Opcode.BINOP:
            handler = _make_binop(machine, instr, dest if dest is not None else scratch,
                                  dest_type, slot_types, next_pc)

        elif op is Opcode.UNOP:
            negate = instr.attrs["operator"] == "neg"
            out = dest if dest is not None else scratch
            read_value = reader(instr.args[0])

            def handler(frame, read_value=read_value, negate=negate, out=out, next_pc=next_pc):
                value = read_value(frame)
                if type(value) is not IntVal:
                    raise InterpreterError("unary arithmetic on a pointer value")
                frame[out] = value.with_value(-value.value if negate else ~value.value,
                                              provenance=None)
                return next_pc

        elif op is Opcode.CMP:
            handler = _make_cmp(machine, instr, dest if dest is not None else scratch,
                                dest_type, slot_types, next_pc)

        elif op is Opcode.CALL:
            handler = _make_call(machine, instr, dest, slot_types, next_pc)

        else:
            def handler(frame, op=op):
                raise InterpreterError(f"unsupported IR opcode {op}")

        return handler

    handlers = [build(i) for i in range(stop)]
    code = CompiledFunction(function, handlers, costs, nregs, len(artifact.alloca_slots))
    _install_shared_blocks(machine, function.name, handlers, costs, artifact, charges, code)
    return code


# ---------------------------------------------------------------------------
# Basic-block superinstructions
# ---------------------------------------------------------------------------


def _budget_replay(machine, cost_seq: tuple, fname: str):
    """Replay deferred per-entry charges when a batch would overrun the budget.

    Called by a generated block handler *instead of* applying a charge batch
    whose instruction count would exceed ``max_instructions``.  Charging the
    entries one at a time — count, budget check, cycle cost, exactly like the
    dispatch loop — reproduces the precise counter values and trap point of
    single-step execution.  The caller only invokes this when the batch
    overruns, so the loop below always raises.
    """
    for cost in cost_seq:
        machine.instructions = count = machine.instructions + 1
        if count > machine.max_instructions:
            raise InterpreterError(
                f"instruction budget of {machine.max_instructions} "
                f"exhausted in {fname}")
        machine.cycles += cost
    raise InterpreterError(  # pragma: no cover - caller guarantees overrun
        f"instruction budget of {machine.max_instructions} exhausted in {fname}")


def _install_shared_blocks(machine, fname: str, handlers: list, costs: list,
                           artifact, timing: tuple[int, int, int],
                           code: CompiledFunction) -> None:
    """Instantiate the artifact's shared superinstruction plans for one machine.

    The plans (segmentation, generated source, ``make`` factories) are
    model-independent and cached on the artifact; this binding step only
    builds the per-machine namespace — the ``h<k>`` handler closures, the
    machine itself, the budget-replay helper and (when enabled) the profile
    counter — and calls the plan's ``make``.  No source is generated and
    nothing is ``compile()``-d or ``exec``-uted per machine.
    """
    profiled = machine.block_profile is not None
    for plan in artifact.block_plans(timing, profiled):
        b = dict(plan.consts)
        b["machine"] = machine
        b["fname"] = fname
        b["budget_replay"] = _budget_replay
        for k in plan.handler_indices:
            b[f"h{k}"] = handlers[k]
        if profiled:
            counter = [0]
            machine.block_profile[(fname, plan.start)] = {
                "count": counter, "entries": plan.entries}
            b["BC"] = counter
        handler = plan.make(b)
        code.paired[plan.start] = (handler, costs[plan.start])
        code.blocks.append((plan.start, plan.entries))


def _make_binop(machine, instr, out: int, dest_type, slot_types, next_pc: int):
    """Compile a boxed BINOP (raw binops are shared artifact handlers)."""
    operator = instr.attrs["operator"]
    target = instr.ctype
    ctx = machine.ctx
    width = min(target.size(ctx), 8) if target is not None else 8
    signed = getattr(target, "signed", True)
    pointer_sized = _is_pointer_sized_int(target)
    fast_op = _INT_BINOPS.get(operator)
    if fast_op is None and operator in ("/", "%"):
        fast_op = partial(divide, operator == "/")

    if fast_op is None:
        read_left = _reader(machine, instr.args[0], slot_types)
        read_right = _reader(machine, instr.args[1], slot_types)

        def handler(frame):
            read_left(frame)
            read_right(frame)
            raise InterpreterError(f"unknown binary operator {operator!r}")
        return handler

    # Generic path: inline boxed Temp reads (the common case — e.g. summing
    # call results) and fall back to reader closures for everything else.
    lmode, lsrc, llabel = _boxed_operand(machine, instr.args[0], slot_types)
    rmode, rsrc, rlabel = _boxed_operand(machine, instr.args[1], slot_types)
    table = None if pointer_sized else intern_table(width, signed)

    def handler(frame, lmode=lmode, lsrc=lsrc, llabel=llabel, rmode=rmode,
                rsrc=rsrc, rlabel=rlabel):
        if lmode == 0:
            left = frame[lsrc]
            if left is UNDEF:
                raise InterpreterError(f"use of undefined temporary {llabel}")
        elif lmode == 1:
            left = lsrc
        else:
            left = lsrc(frame)
        if rmode == 0:
            right = frame[rsrc]
            if right is UNDEF:
                raise InterpreterError(f"use of undefined temporary {rlabel}")
        elif rmode == 1:
            right = rsrc
        else:
            right = rsrc(frame)
        if type(left) is not IntVal:
            left = ptr_to_int(left, bytes=8, signed=False, pointer_sized=True)
        if type(right) is not IntVal:
            right = ptr_to_int(right, bytes=8, signed=False, pointer_sized=True)
        raw = fast_op(left.value, right.value)
        if left.provenance is None and right.provenance is None:
            if table is not None and INTERN_MIN <= raw <= INTERN_MAX:
                boxed = table[raw - INTERN_MIN]
                frame[out] = boxed.value if dest_type is not None else boxed
                return next_pc
            provenance = None
        else:
            provenance = arithmetic_provenance(left, right)
        result = IntVal(raw, bytes=width, signed=signed, provenance=provenance,
                        pointer_sized=pointer_sized)
        # An unboxed destination can only have been proven provenance-free;
        # store the raw register representation.
        frame[out] = result.value if dest_type is not None else result
        return next_pc

    return handler


def _make_cmp(machine, instr, out: int, dest_type, slot_types, next_pc: int):
    """Compile a boxed CMP (raw compares are shared artifact handlers).

    Pointer operands compare by address.
    """
    operator = instr.attrs["operator"]
    compare = _CMP_FUNCS.get(operator)
    if compare is None:
        read_left = _reader(machine, instr.args[0], slot_types)
        read_right = _reader(machine, instr.args[1], slot_types)

        def handler(frame, read_left=read_left, read_right=read_right, operator=operator):
            read_left(frame)
            read_right(frame)
            raise KeyError(operator)
        return handler

    raw_dest = dest_type is not None
    read_left = _reader(machine, instr.args[0], slot_types)
    read_right = _reader(machine, instr.args[1], slot_types)

    def handler(frame, read_left=read_left, read_right=read_right, compare=compare,
                out=out, raw_dest=raw_dest, next_pc=next_pc):
        left = read_left(frame)
        right = read_right(frame)
        result = compare(left.address if type(left) is PtrVal else left.value,
                         right.address if type(right) is PtrVal else right.value)
        if raw_dest:
            frame[out] = 1 if result else 0
        else:
            frame[out] = TRUE_I32 if result else FALSE_I32
        return next_pc

    return handler


def _make_call(machine, instr, dest: int | None, slot_types, next_pc: int):
    callee = instr.attrs["callee"]
    # Call arguments cross an ABI boundary: raw registers are boxed by their
    # compiled readers (through the intern pool), so callees, intrinsics and
    # model hooks only ever see IntVal/PtrVal.
    arg_readers = tuple(_reader(machine, arg, slot_types) for arg in instr.args)
    function = machine.module.functions.get(callee)
    result_type = instr.ctype

    if function is not None and function.instrs:
        int_to_ptr = machine.model.int_to_ptr
        allocator = machine.allocator
        params = function.params

        def compose(index, reader):
            # An integer passed to a pointer parameter converts through the
            # model; a pointer argument already carries its type's
            # qualifiers (irgen casts every argument to its parameter type).
            param_type = params[index][1] if index < len(params) else None
            if not isinstance(param_type, PointerType):
                return reader
            operand = instr.args[index]
            if type(operand) is Temp and operand.index not in slot_types:
                # The dominant case, a boxed register, reads and converts in
                # one closure.
                slot = operand.index + _FRAME_RESERVED
                label = str(operand)

                def read_ptr_arg(frame, slot=slot, label=label):
                    value = frame[slot]
                    if type(value) is IntVal:
                        return int_to_ptr(value, allocator)
                    if value is UNDEF:
                        raise InterpreterError(f"use of undefined temporary {label}")
                    return value

                return read_ptr_arg

            def read_ptr_arg(frame, reader=reader):
                value = reader(frame)
                if type(value) is IntVal:
                    return int_to_ptr(value, allocator)
                return value

            return read_ptr_arg

        readers = tuple(compose(i, reader) for i, reader in enumerate(arg_readers))
        machine_call = machine._call
        arity = len(readers)
        # The callee's bound form is pinned in this cell once the callee is
        # promoted, skipping the per-call code-cache lookup; until then the
        # call runs it in tier 0 (or promotes it) through the machine.
        code_cell: list = []
        code_append = code_cell.append
        code_cache = machine._code_cache
        key = id(function)

        def pin():
            code = code_cache.get(key)
            if code is not None:
                code_append(code)
            return code

        if arity == 0:
            def handler(frame):
                result = machine_call(function, [], code_cell[0] if code_cell else pin())
                if dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 1:
            read0, = readers

            def handler(frame):
                result = machine_call(function, [read0(frame)],
                                      code_cell[0] if code_cell else pin())
                if dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 2:
            read0, read1 = readers

            def handler(frame):
                result = machine_call(function, [read0(frame), read1(frame)],
                                      code_cell[0] if code_cell else pin())
                if dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 3:
            read0, read1, read2 = readers

            def handler(frame):
                result = machine_call(function, [read0(frame), read1(frame), read2(frame)],
                                      code_cell[0] if code_cell else pin())
                if dest is not None:
                    frame[dest] = result
                return next_pc
        else:
            def handler(frame):
                result = machine_call(function, [read(frame) for read in readers],
                                      code_cell[0] if code_cell else pin())
                if dest is not None:
                    frame[dest] = result
                return next_pc

        return handler

    intrinsic = INTRINSICS.get(callee)
    if intrinsic is None:
        def handler(frame):
            raise InterpreterError(f"call to unknown function {callee!r}")
        return handler

    def handler(frame):
        arguments = [reader(frame) for reader in arg_readers]
        result = intrinsic(machine, arguments, result_type)
        if dest is not None:
            frame[dest] = result
        return next_pc

    return handler

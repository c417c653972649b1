"""Per-machine binding: the handlers bound code specialises for speed.

Compilation is split in two.  The **model-independent half** (decode facts,
the slot-type fixpoint, inline pointer-move deltas, per-pc costs, shared
raw-register handlers and superinstruction plans) lives in
:mod:`repro.interp.artifact`, stored on the IR function itself, and tier 0
(:mod:`repro.interp.tier0`) runs cold code straight from it.  This module is
the **binding step** for a function promoted out of tier 0: it closes the
artifact over one concrete machine's model, memory, cache and timing state
(``docs/pipeline.md`` has the full picture) and produces a flat list of
per-pc handlers, ``handler(frame) -> next pc``.  Four kinds of handler are
specialised for speed:

* **raw-register work** (labels, gotos, unboxed casts, arithmetic and
  compares) takes the artifact's shared frame-only raw handlers, built once
  per layout rather than once per machine;
* **loads and stores** instantiate :mod:`repro.interp.hotgen` shapes, which
  inline the dereference check, the L1-hit path of the cache model, the
  single-page fast path of :class:`~repro.sim.memory.TaggedMemory` (same
  counters, same LRU updates, same fall-backs) and, where it is a pure
  function of the raw address, a memo of metadata-free pointer loads;
* **pointer moves** (``field``, ``gep``, ``ptradd``) build their ``PtrVal``
  inline from the artifact's
  :meth:`~repro.interp.artifact.PredecodeArtifact.fusion` deltas when the
  model keeps the default pointer-move policy;
* **calls to module functions** read their arguments through tier 0's
  readers and pin the callee's bound code once it is promoted.

Every other pc — boxed branches and returns, ``alloca``, the remaining
pointer moves and conversions, boxed arithmetic and compares, intrinsic
calls, unsupported opcodes — binds ``partial(op, machine, facts)`` over its
tier-0 decode, so each opcode has one semantics, tier 0's, in both tiers.
The specialised handlers read their operands through tier 0's ``_read`` and
``_read_ptr`` over the same operand specs.

**Unboxed registers.**  The artifact's fixpoint analysis
(:func:`~repro.interp.artifact.analyze_slots`) identifies register slots that
can only ever hold *provenance-free scalar integers* of one static
``(width, signedness)``; those slots carry raw Python ints, boxed (through
the shared intern pool) only at ABI boundaries.  Anything that could carry
provenance stays boxed.

**Basic-block superinstructions.**  A bound function installs the artifact's
cached **block plans**
(:meth:`~repro.interp.artifact.PredecodeArtifact.block_plans`) at once; they
batch charges per charge group and call this module's handlers for every
model-specialized entry, and :func:`_budget_replay` reproduces the exact
per-instruction trap point when a batch would overrun the instruction
budget.

Every IR instruction binds to exactly one handler, is dispatched once and is
charged once, before it runs, so bound code is **observationally identical**
to tier 0 (``tests/test_metrics_golden.py``, ``tests/test_tier0.py`` and
``tests/test_superinstructions.py`` pin this for every memory model).

Frame layout: handlers receive one ``frame`` list shaped as
``[args, alloca_slots, return_value, reg0, reg1, ..., scratch]``, the layout
tier 0 uses too, so a promoted activation continues its tier-0 frame.
Frames are pooled per :class:`CompiledFunction` (reset on release).
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import InterpreterError
from repro.interp.artifact import UNDEF, get_artifact
from repro.interp.hotgen import load_maker, packer_for, store_maker, unpacker_for
from repro.interp.models.base import MemoryModel, qualifier_mask
from repro.interp.models.mpx import MpxModel
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.shadow import PAGE_SHIFT
from repro.interp.tier0 import (
    _ARGS,
    _M64,
    _arg_readers,
    _call,
    _facts,
    _field,
    _load,
    _read,
    _read_ptr,
    _store_data,
    _store_pointer,
)
from repro.interp.values import PtrVal
from repro.minic.ir import Function
from repro.minic.typesys import PointerType

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


def compile_function(machine, function: Function) -> CompiledFunction:
    """Bind ``function``'s predecode artifact to one concrete machine.

    The model-independent half (decode facts, slot-type fixpoint, inline
    pointer-move deltas, costs, raw-register handlers, shared block plans)
    comes from the function's artifact (:func:`~repro.interp.artifact.get_artifact`); this
    function specialises loads, stores, inline pointer moves and calls to
    module functions for the machine's model, memory, cache and timing
    state, binds tier 0's generic operation at every other pc and installs
    the block plans.  It runs when a function is promoted out of tier 0
    (``AbstractMachine._execute``).
    """
    artifact = get_artifact(function, machine.ctx)
    timing = machine.config.timing
    charges = (timing.base_instruction_cost, timing.branch_cost, timing.call_cost)
    #: temp index -> (width, signed) for slots that carry raw Python ints.
    slot_types = artifact.slot_types()
    decoded = artifact.decoded

    # Machine state bound once per compilation.
    model = machine.model
    memory = machine.memory
    allocator = machine.allocator
    collect_timing = machine.collect_timing
    shadow = machine.shadow
    uses_shadow = model.uses_shadow
    clear_shadow = uses_shadow and model.clear_shadow_on_data_store
    pointer_bytes = model.pointer_bytes
    # The cache model's MRU check, inlined by the generated load/store
    # handlers.  The captured list and stats object stay valid because
    # CacheLevel.reset() mutates in place.
    l1 = machine.hierarchy.l1
    line_bytes = l1.config.line_bytes

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

    # pc -> move_delta for every pointer move that can be built inline;
    # build() takes one only under this model's policy.  Per-pc costs and
    # the shared raw-register handlers come from the artifact's descriptor
    # table, the same one the block planner reads.
    deltas = artifact.fusion() if inline_moves else {}
    costs = artifact.costs(charges)
    raw_handlers = artifact.raw_handlers()
    arg_raws = artifact.arg_raws()

    def ptr_parts(pspec):
        """(slot, coerce) for a pointer operand's spec: handlers read a
        boxed register inline (``pointer = frame[slot]``) and call
        ``coerce(frame)``, tier 0's pointer read, only when that is not
        already a PtrVal; without a slot they always call it."""
        return (pspec[1] if pspec[0] == 0 else None), partial(_read_ptr, machine, pspec)

    def value_reader(vspec):
        """A store value's reader: a parameter (its index) or an operand spec."""
        if type(vspec) is int:
            return lambda frame: frame[_ARGS][vspec]
        return partial(_read, machine, vspec)

    # ------------------------------------------------------------------
    # Memory-op generators (source-specialized; see repro.interp.hotgen)
    # ------------------------------------------------------------------

    # Built once per compilation and copied per memory instruction — the
    # machine-level values never change within one binding pass.
    proto_bindings = {
        "pslot": None, "pcoerce": None, "check_access": model.check_access,
        "size": 0, "last_offset": 0, "line_shift": l1._line_shift,
        "line_mask": line_bytes - 1, "nsets_mask": l1._set_mask,
        "l1_mru": l1._mru, "l1_stats": l1.stats,
        "hierarchy_access": machine.hierarchy.access, "machine": machine,
        "page_mask": memory._PAGE_MASK, "page_size": memory.PAGE_SIZE,
        "page_shift": memory._PAGE_SHIFT, "mem_size": memory._size,
        "pages_get": memory._pages.get, "mem_pages": memory._pages,
        "read_small": memory.read_small, "write_small": memory.write_small,
        "write_ptr_raw": memory.write_ptr_raw, "mem_tags": memory._tags,
        "shadow_get": shadow.entries.get, "shadow_entries": shadow.entries,
        "shadow_pages": shadow.pages, "shadow_page_shift": PAGE_SHIFT,
        "ptr_memo": ptr_memo, "ptr_memo_get": ptr_memo_get,
        "load_ptr_no_meta": model.load_pointer_without_metadata,
        "allocator": allocator, "int_to_ptr": model.int_to_ptr,
        "reconcile": model.reconcile_loaded_pointer,
        "qmask": 0, "table": None, "out": 0, "next_pc": 0,
        "signed": True, "read_value": None, "coerce_bytes": None,
        "coerce_signed": True, "size_mask": 0, "comb_mask": 0, "const_raw": 0,
        "vslot": 0, "vmsg": "", "pad": b"", "span": 8, "mem_unpack": None,
        "mem_pack": None,
    }

    def gen_load(f):
        """Handler for a LOAD, from its tier-0 facts."""
        _, pspec, ctype, size, signed, table, out, next_pc = f
        b = dict(proto_bindings)
        pslot, b["pcoerce"] = ptr_parts(pspec)
        qmask = 0
        if size is None:  # a pointer or pointer-sized integer
            size = pointer_bytes
            if isinstance(ctype, PointerType):
                kind = "ptr"
                qmask = qualifier_mask(model, ctype)
            else:
                kind = "psint"
            mem_unpack = unpacker_for(8, False)
        else:
            kind = "box" if table is not None else "raw"
            b["table"] = table
            mem_unpack = unpacker_for(size, signed)
        b.update(pslot=pslot, out=out, next_pc=next_pc, size=size,
                 last_offset=line_bytes - size, signed=getattr(ctype, "signed", True),
                 qmask=qmask, mem_unpack=mem_unpack)
        shape = (kind, pslot is not None, flat_check,
                 collect_timing, uses_shadow,
                 ptr_memo is not None, inline_reconcile, qmask != 0,
                 mem_unpack is not None)
        return load_maker(shape)(b)

    def gen_store(f):
        """Handler for a STORE, from its tier-0 facts."""
        b = dict(proto_bindings)
        pslot, b["pcoerce"] = ptr_parts(f[1])
        b["pslot"] = pslot
        if f[0] is _store_pointer:
            _, _, vspec, coerce, next_pc = f
            span = pointer_bytes if pointer_bytes > 8 else 8
            mem_pack = packer_for(8)
            b.update(size=pointer_bytes, last_offset=line_bytes - pointer_bytes,
                     span=span, pad=bytes(span - 8), read_value=value_reader(vspec))
            shape = ("ptr", pslot is not None, flat_check,
                     collect_timing, clear_shadow, uses_shadow,
                     2, coerce, span > 8, mem_pack is not None)
        else:
            _, _, mode, payload, mask, size, coerce_bytes, coerce_signed, next_pc = f
            mem_pack = packer_for(size)
            b.update(size=size, last_offset=line_bytes - size)
            if mode == 0:  # a constant, masked
                b["const_raw"] = payload
            elif mode == 1:  # a raw register
                b["vslot"], b["vmsg"] = payload
                b["comb_mask"] = mask
            else:
                b.update(read_value=value_reader(payload), size_mask=mask,
                         coerce_bytes=coerce_bytes, coerce_signed=coerce_signed)
            shape = ("scalar", pslot is not None, flat_check,
                     collect_timing, clear_shadow, uses_shadow,
                     mode, coerce_bytes is not None, False, mem_pack is not None)
        b["next_pc"] = next_pc
        b["mem_pack"] = mem_pack
        return store_maker(shape)(b)

    def inline_move(f, delta):
        """An inline pointer move (``field``, ``gep`` or ``ptradd``): a
        constant offset, or a raw index register times the element size."""
        pslot, pcoerce = ptr_parts(f[1])
        kind, d1, d2, dlabel = delta
        out, next_pc = f[-2], f[-1]

        def handler(frame):
            if pslot is None:
                pointer = pcoerce(frame)
            else:
                pointer = frame[pslot]
                if type(pointer) is not PtrVal:
                    pointer = pcoerce(frame)
            if kind == 1:
                address = (pointer.address + d1) & _M64
            else:
                idx = frame[d1]
                if type(idx) is not int:
                    raise InterpreterError(f"use of undefined temporary {dlabel}")
                address = (pointer.address + idx * d2) & _M64
            frame[out] = PtrVal(address, pointer.base, pointer.length,
                                pointer.obj, pointer.perms, pointer.tag,
                                pointer.checked)
            return next_pc

        return handler

    def build(pc: int):
        """Bind one pc's handler (its cost comes from the artifact)."""
        handler = raw_handlers[pc]
        if handler is not None:
            return handler
        f = decoded[pc]
        if f is None:  # tier 0 never ran this pc
            f = _facts(artifact, pc, arg_raws[pc], slot_types)
        op = f[0]
        if op is _load:
            return gen_load(f)
        if op is _store_pointer or op is _store_data:
            return gen_store(f)
        if op is _call:
            callee = machine.module.functions.get(f[1])
            if callee is not None and callee.instrs:
                return _bind_call(machine, callee, f)
        elif pc in deltas and not (narrow_fields and op is _field):
            return inline_move(f, deltas[pc])
        return partial(op, machine, f)

    handlers = [build(pc) for pc in range(artifact.ninstrs)]
    code = CompiledFunction(function, handlers, costs, artifact.nregs,
                            len(artifact.alloca_slots))
    _install_shared_blocks(machine, function.name, handlers, costs, artifact, charges, code)
    return code


def _bind_call(machine, function: Function, f: tuple):
    """A call to module ``function``, from its tier-0 facts: arguments read
    through tier 0's readers, and the callee's bound form pinned in a cell
    once the callee is promoted, skipping the per-call code-cache lookup;
    until then the call runs it in tier 0 (or promotes it) through the
    machine."""
    _, _, specs, _, dest, next_pc = f
    readers = tuple(partial(read, machine, spec)
                    for read, spec in zip(_arg_readers(function, specs), specs))
    machine_call = machine._call
    code_cell: list = []
    code_append = code_cell.append
    code_cache = machine._code_cache
    key = id(function)

    def pin():
        code = code_cache.get(key)
        if code is not None:
            code_append(code)
        return code

    arity = len(readers)
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

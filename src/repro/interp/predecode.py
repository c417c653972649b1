"""Per-machine binding of predecode artifacts into a threaded-dispatch engine.

The original interpreter walked every :class:`~repro.minic.ir.Instr` through a
chain of ``if op is Opcode.X`` tests, re-resolving ``attrs`` dict entries,
label maps and operand kinds on every execution.  Compilation is now split in
two: the **model-independent half** (decode facts, the slot-type fixpoint,
fusion decisions, shared superinstruction plans) lives in
:mod:`repro.interp.artifact` behind a process-level cache keyed by
``(function, pointer layout)``, and this module is the **binding step** that
closes a cached artifact over one concrete machine's model, memory, cache and
timing state (``docs/pipeline.md`` has the full picture).  Binding a function
produces a flat list of per-instruction closures ("handlers"):

* label targets are resolved to instruction indices at compile time, so a
  branch is just ``return target_index``;
* ``attrs`` lookups (operators, offsets, element sizes, callees) are hoisted
  into closure variables;
* operands are pre-classified — a :class:`Temp` becomes a register-slot read,
  an integer :class:`Const` becomes a hoisted immutable value, a
  :class:`GlobalRef` becomes a name lookup (kept at run time because the GC
  may rewrite globals between runs);
* per-instruction cycle costs are precomputed into a parallel ``costs`` list;
* temporaries live in a flat preallocated register list instead of a dict.

**Unboxed registers.**  A compile-time fixpoint analysis
(:func:`_analyze_slots`) identifies register slots that can only ever hold
*provenance-free scalar integers* of one static ``(width, signedness)``.
Those slots carry raw Python ints instead of :class:`IntVal` boxes: loads,
arithmetic, comparisons and casts between them never allocate — width
wrapping happens inline with the precomputed mask tables from
:mod:`repro.interp.values`.  Values are boxed (through the shared intern
pool) only at ABI boundaries: call arguments, return values, pointer
conversions, and any slot the analysis cannot prove scalar.  Provenance
semantics are untouchable by construction — any value that *could* carry
provenance (pointer-sized integers, ``ptrtoint`` results, call results,
anything a model hook might inspect) stays boxed.

**Pair fusion.**  When an address-producing instruction (``field``, ``gep``,
``ptradd``) or a comparison feeds exactly one consumer and that consumer is
the next instruction (``load``/``store``/``cjump``), the pair compiles into a
single handler: the intermediate ``PtrVal``/``IntVal`` is never materialised
and a full dispatch round-trip disappears.  The fused handler still charges
both instructions' counts and cycles at the same points the unfused pair
would (the consumer's instruction/cost before its first observable effect),
so metrics and trap states are bit-identical.  Fusion only engages for
models with the default pointer-move policy; everything else takes the
unfused handlers.

The hot load/store handlers also inline the L1-hit path of the cache model
and the single-page fast path of :class:`~repro.sim.memory.TaggedMemory`
(same counters, same LRU updates, same fall-backs — the slow paths call the
originals), and reconstruction of metadata-free pointer loads is memoised for
models where it is a pure function of the raw address.

**Basic-block superinstructions.**  On top of the per-instruction handlers,
:func:`_install_superinstructions` segments each compiled function at labels
and control transfers and compiles every straight-line run of two or more
entries into **one generated-source block handler**
(:func:`repro.interp.hotgen.compile_block`).  Inside a block, raw-register
arithmetic/compare/cast work, inline pointer moves and scalar loads/stores
are emitted as straight-line Python threading values through locals (a slot
read once stays in a local until something rewrites it); other pure handlers
(conversions, boxed arithmetic) and the trap-capable pointer ops/calls are
invoked as closure calls without a dispatch round-trip.  Instruction counts
and cycle costs are batched per **charge group**: pure entries run
immediately but defer their charges, and every trap-capable entry
(load/store/call/division/alloca/``ptrdiff``) flushes the deferred charges
plus its own — one batched add and budget check — *before* it executes.
Counter exactness is preserved by construction:

* whenever an entry that can trap runs, everything up to and including it
  has been charged and nothing after it has, so the counters at any trap
  equal exactly what single-step dispatch would have charged;
* a charge batch that would overrun the instruction budget is replayed
  entry-by-entry (:func:`_budget_replay`) — count, budget check, cycle cost,
  exactly like the dispatch loop — raising at the precise single-step trap
  point.

``SUPERINSTRUCTIONS`` toggles the block compiler (the equivalence test flips
it to compare engines on the same machine build).  Machines come in two
superinstruction flavours: the default compiles model-specialized block
source per machine (fastest execution — every splice above applies), while
``AbstractMachine(shared_blocks=True)`` binds the artifact's cached
model-independent block plans — raw-register work spliced, memory ops and
pointer moves as closure-call slots — with **tiered binding**: a function
binds its blocks only after ``HOT_CALL_THRESHOLD`` calls, so one-shot code
(the differential sweep) never pays block compilation.  Both flavours are
observationally identical; ``tests/test_predecode_cache.py`` pins it.

The engine is **observationally identical** to the old dispatch chain: the
same instruction/cycle/memory-access counts, the same outputs and the same
traps for every memory model (``tests/test_metrics_golden.py`` pins this).

Frame layout: handlers receive one ``frame`` list shaped as
``[args, alloca_slots, return_value, reg0, reg1, ..., scratch]``.  Frames
are pooled per :class:`CompiledFunction` (reset on release), so a call does
not round-trip Python's allocator for the register file or the alloca list.
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import InterpreterError, UndefinedBehaviorError
from repro.interp.artifact import (
    BINOP_EXPR as _BINOP_EXPR,
    BLOCK_LIMIT as _BLOCK_LIMIT,
    CMP_FUNCS as _CMP_FUNCS,
    FRAME_RESERVED as _FRAME_RESERVED,
    INT_BINOPS as _INT_BINOPS,
    get_artifact,
)
from repro.interp.intrinsics import INTRINSICS
from repro.interp.models.base import MemoryModel
from repro.interp.models.mpx import MpxModel
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.hotgen import (
    bind_block,
    compile_block,
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
    MODULI,
    PERM_ALL,
    SIGN_MIN,
    TRUE_I32,
    IntVal,
    Provenance,
    PtrVal,
    intern_table,
)
from repro.minic.ir import Const, Function, GlobalRef, Opcode, Temp
from repro.minic.typesys import IntType, PointerType, Qualifiers

#: sentinel stored in unwritten register slots (None is a legitimate value).
UNDEF = object()

#: basic-block superinstruction compilation (see module docstring).  Flipped
#: to False by the engine-equivalence test to build a single-step engine on
#: the same machine; production machines always compile with it on.
SUPERINSTRUCTIONS = True

#: calls before a shared-block machine binds a function's superinstructions
#: (block install is observationally invisible, so the threshold only trades
#: binding cost against dispatch speed; specialized machines bind eagerly).
HOT_CALL_THRESHOLD = 2

#: indices of the bookkeeping slots at the head of every frame.
_ARGS, _ALLOCAS, _RET = 0, 1, 2

_ADDRESS_MASK = (1 << 64) - 1

#: interned comparison results for boxed destinations (canonical instances
#: shared with the block compiler; see values.TRUE_I32/FALSE_I32).
_TRUE = TRUE_I32
_FALSE = FALSE_I32

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
                 "frame_proto", "pool", "alloca_proto", "blocks",
                 "block_fallbacks", "pending_blocks", "calls",
                 "builder", "built")

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
        #: installed superinstructions: (start_pc, paired_entries, ir_instrs).
        self.blocks: list[tuple[int, int, int]] = []
        #: leader pc -> the single-step (handler, cost) a block replaced, so
        #: the machine can demote a misbehaving block handler back to
        #: instruction-at-a-time dispatch (AbstractMachine._execute).
        self.block_fallbacks: dict[int, tuple] = {}
        #: shared-block machines defer block binding until the function has
        #: run HOT_CALL_THRESHOLD times: an installer called as
        #: ``install(code)`` (it does not close over this object, so compiled
        #: code holds no cycle of its own), or None once installed (or when
        #: blocks are bound eagerly/disabled).
        self.pending_blocks = None
        self.calls = 0
        #: lazy-binding support (machines constructed with
        #: ``lazy_binding=True``): ``builder(index) -> (handler, cost, desc)``
        #: builds the real closure for one pc, ``built`` memoizes the
        #: handlers already materialized.  Both stay ``None`` on eagerly
        #: bound machines.
        self.builder = None
        self.built: dict[int, object] | None = None

    def materialize(self, index: int):
        """The real handler for pc ``index``, built and patched on first use.

        Lazy-binding machines fill ``paired`` with cheap dispatch thunks
        (:func:`_lazy_step`) and only pay for a pc's closure when it first
        executes — or when a shared-block install needs it as an ``h<k>``
        binding.  Building has no machine-observable effect and the dispatch
        loop charges count/cycles *before* invoking the thunk, so laziness is
        invisible to counters, traps and the budget (pinned by
        ``tests/test_lockstep.py``).  If ``index`` is currently a demoted
        block's leader the single-step fallback tuple is patched instead of
        ``paired`` (whose entry is the installed block handler).
        """
        built = self.built
        handler = built.get(index)
        if handler is None:
            handler = built[index] = self.builder(index)[0]
            entry = self.block_fallbacks.get(index)
            if entry is not None:
                self.block_fallbacks[index] = (handler, entry[1])
            else:
                self.paired[index] = (handler, self.paired[index][1])
        return handler


def _lazy_step(code: CompiledFunction, index: int, frame):
    """Dispatch thunk installed at every not-yet-built pc of a lazy machine."""
    return code.materialize(index)(frame)


# ---------------------------------------------------------------------------
# Operand predecoding
# ---------------------------------------------------------------------------


def _const_value(machine, operand: Const):
    """Hoisted runtime value of a constant, or None when it needs run-time state."""
    ctype = operand.ctype
    if isinstance(ctype, PointerType):
        if operand.value == 0:
            return machine.model.null_pointer()
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


def _qualifier_appliers(machine, ptr_type: PointerType) -> tuple:
    """The model hooks a pointer of ``ptr_type`` passes through, in order."""
    appliers = []
    if ptr_type.qualifiers & Qualifiers.INPUT:
        appliers.append(machine.model.apply_input_qualifier)
    if ptr_type.qualifiers & Qualifiers.OUTPUT:
        appliers.append(machine.model.apply_output_qualifier)
    if ptr_type.pointee.is_const:
        appliers.append(machine.model.apply_const)
    return tuple(appliers)


def _is_pointer_sized_int(ctype) -> bool:
    return isinstance(ctype, IntType) and ctype.is_pointer_sized


#: delta descriptor for unfused memory ops: address = pointer.address.
_NO_DELTA = (0, 0, 0, None)


def compile_function(machine, function: Function) -> CompiledFunction:
    """Bind ``function``'s predecode artifact to one concrete machine.

    The model-independent half (decode facts, slot-type fixpoint, fusion,
    shared block plans) comes from the process-level artifact cache
    (:mod:`repro.interp.artifact`); this function closes it over the
    machine's model, memory, cache and timing state.
    """
    instrs = function.instrs
    artifact = get_artifact(function, machine.ctx)
    labels = artifact.labels
    timing = machine.config.timing
    base_cost = timing.base_instruction_cost
    branch_cost = timing.branch_cost
    call_cost = timing.call_cost
    stop = len(instrs)

    # A model that overrides the provenance hook must see every operand, so
    # arithmetic results cannot be proven provenance-free at compile time.
    fast_noprov = (type(machine.model).propagate_provenance
                   is MemoryModel.propagate_provenance)
    #: temp index -> (width, signed) for slots that carry raw Python ints.
    slot_types = artifact.slot_types(fast_noprov)

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
    ptr_to_int = model.ptr_to_int
    ptr_offset = model.ptr_offset
    pointer_bytes = model.pointer_bytes
    read_small = memory.read_small
    write_small = memory.write_small
    write_ptr_raw = memory.write_ptr_raw
    load_ptr_no_meta = model.load_pointer_without_metadata
    reconcile = model.reconcile_loaded_pointer
    propagate_provenance = model.propagate_provenance
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
    # instead of dispatching through model.ptr_offset -> PtrVal.moved_by.
    inline_moves = type(model).ptr_offset is MemoryModel.ptr_offset
    inline_field = (inline_moves
                    and type(model).field_address is MemoryModel.field_address
                    and not model.narrow_field_bounds)
    inline_ptrcmp = type(model).ptr_compare is MemoryModel.ptr_compare
    # The base reconciliation policy (trust the shadow entry when the raw
    # address still matches, else reconstruct without metadata) is inlined;
    # models that override it keep the call.
    inline_reconcile = (type(model).reconcile_loaded_pointer
                        is MemoryModel.reconcile_loaded_pointer)
    # Dereference checks are inlined for the two known check policies; the
    # inline fast path only covers accesses the full check would *pass* (and
    # returns the same effective address) — anything unusual falls back to the
    # model's check_access, so traps, messages and trap counters are identical.
    model_check = type(model).check_access
    if model_check is MemoryModel.check_access:
        check_kind = 1
    elif model_check is Pdp11Model.check_access:
        check_kind = 2
    else:
        check_kind = 0

    # Static-facts shadow fast path (repro.staticcheck.facts).  A
    # shadow-clearing model may skip per-store shadow bookkeeping for stores
    # rooted at a proven pointer-free, never-escaping alloca — but only once
    # the alloca's address range is probed clean *for this activation*
    # (stack addresses are reused across frames and pop_frame never purges
    # shadow).  Soundness needs the base access-check policy: it rejects
    # dangling and forged pointers before any shadow mutation, so no valid
    # pointer into the never-escaping object exists besides the in-function
    # aliases, and a probed-clean range provably stays clean.  The
    # per-activation flag lives in a dedicated frame slot; gating every safe
    # alloca into the straight-line entry prefix guarantees the flag is
    # fully assigned before any skipped store can execute.
    facts = getattr(function, "static_facts", None)
    skip_shadow_stores: frozenset = frozenset()
    safe_alloca_pcs: frozenset = frozenset()
    first_safe_pc = -1
    shadow_flag = artifact.shadow_flag
    if (facts is not None and facts.safe_stores and facts.safe_allocas
            and clear_shadow and model_check is MemoryModel.check_access):
        first_transfer = stop
        for pc_, instr_ in enumerate(instrs):
            if instr_.op in (Opcode.LABEL, Opcode.JUMP, Opcode.CJUMP,
                             Opcode.RET):
                first_transfer = pc_
                break
        if max(facts.safe_allocas) < first_transfer:
            skip_shadow_stores = facts.safe_stores
            safe_alloca_pcs = facts.safe_allocas
            first_safe_pc = min(safe_alloca_pcs)

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

    # Raw-operand descriptors come precomputed from the artifact (the same
    # list every other machine of this layout binds against); the id-keyed
    # map lets the operand-shaped call sites below stay unchanged.
    arg_raw_lists = artifact.arg_raws(fast_noprov)
    raw_by_operand: dict[int, tuple | None] = {}
    for instr_raws, instr_ in zip(arg_raw_lists, instrs):
        for arg_, desc_ in zip(instr_.args, instr_raws):
            raw_by_operand[id(arg_)] = desc_

    def raw_operand(operand):
        return raw_by_operand[id(operand)]

    def boxed_operand(operand):
        """(mode, src, label): 0 = boxed Temp slot, 1 = hoisted value, 2 = reader."""
        if type(operand) is Temp and operand.index not in slot_types:
            return 0, operand.index + _FRAME_RESERVED, str(operand)
        if type(operand) is Const:
            hoisted = _const_value(machine, operand)
            if hoisted is not None:
                return 1, hoisted, None
        return 2, reader(operand), None

    # ------------------------------------------------------------------
    # Pair-fusion prepass (memoized on the artifact)
    # ------------------------------------------------------------------

    # Producer index -> ("mem", delta) or ("cmp",); the consumer at index+1
    # keeps its (unreachable) stand-alone handler so pc layout is unchanged.
    # Fusion MUST be identical in both block flavours: the fused pair
    # charges both halves' costs up front, so restricting fusion would move
    # the cycle counter observed at a budget trap on the consumer half.
    shared_blocks = machine.shared_blocks
    fused = artifact.fusion(inline_moves, inline_field, fast_noprov)

    # ------------------------------------------------------------------
    # Memory-op generators (source-specialized; see repro.interp.hotgen)
    # ------------------------------------------------------------------

    # Built once per compilation and copied per memory instruction — the
    # machine-level values never change within one binding pass.
    proto_bindings = {
        "pslot": None, "pcoerce": None, "d1": 0, "d2": 0, "dmsg": "",
        "base_cost": base_cost, "check_access": check_access,
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
        "appliers": (), "table": None, "out": 0, "next_pc": 0,
        "signed": True, "read_value": None, "ptr_to_int": ptr_to_int,
        "coerce_bytes": None, "coerce_signed": True, "size_mask": 0,
        "comb_mask": 0, "const_raw": 0, "vslot": 0, "vmsg": "", "pad": b"",
        "span": 8, "mem_unpack": None, "mem_pack": None,
        "fname": function.name,
    }

    def bindings() -> dict:
        """Fresh binding dict for a hotgen-generated handler (full name set)."""
        return dict(proto_bindings)

    def gen_load(instr, ptr_operand, delta, extra, next_pc, out):
        """(handler, mem-desc) for a LOAD; ``delta``/``extra`` = fused producer."""
        ctype = instr.ctype
        pslot, pcoerce = ptr_parts(ptr_operand)
        dkind, d1, d2, dlabel = delta
        b = bindings()
        b["pslot"] = pslot
        b["pcoerce"] = pcoerce
        b["d1"] = d1
        b["d2"] = d2
        b["dmsg"] = f"use of undefined temporary {dlabel}"
        b["out"] = out
        b["next_pc"] = next_pc
        appliers = ()
        if isinstance(ctype, PointerType) or _is_pointer_sized_int(ctype):
            size = pointer_bytes
            if isinstance(ctype, PointerType):
                kind = "ptr"
                appliers = _qualifier_appliers(machine, ctype)
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
        b["appliers"] = appliers
        mem_unpack = (unpacker_for(8, False) if kind in ("ptr", "psint")
                      else unpacker_for(size, signed))
        b["mem_unpack"] = mem_unpack
        shape = (kind, pslot is not None, dkind, extra, check_kind,
                 collect_timing, inline_cache, uses_shadow,
                 ptr_memo is not None, inline_reconcile, len(appliers),
                 mem_unpack is not None)
        return load_maker(shape)(b), ("mem", out, "load", shape, b)

    def gen_store(instr, ptr_operand, delta, extra, next_pc, clear=clear_shadow):
        """(handler, mem-desc) for a STORE; ``delta``/``extra`` = fused producer.

        ``clear`` overrides the model-wide shadow-clear policy for the
        static-facts fast path (a provably clean range needs no clearing).
        """
        ctype = instr.ctype
        pslot, pcoerce = ptr_parts(ptr_operand)
        dkind, d1, d2, dlabel = delta
        param_index = instr.attrs.get("param_index")
        b = bindings()
        b["pslot"] = pslot
        b["pcoerce"] = pcoerce
        b["d1"] = d1
        b["d2"] = d2
        b["dmsg"] = f"use of undefined temporary {dlabel}"
        b["next_pc"] = next_pc

        if param_index is not None:
            def read_value(frame, param_index=param_index):
                return frame[_ARGS][param_index]
        elif (isinstance(ctype, PointerType) or _is_pointer_sized_int(ctype)
              or raw_operand(instr.args[1]) is None):
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
            shape = ("ptr", pslot is not None, dkind, extra, check_kind,
                     collect_timing, inline_cache, clear, uses_shadow,
                     2, isinstance(ctype, PointerType), span > 8,
                     mem_pack is not None)
            return store_maker(shape)(b), ("mem", None, "store", shape, b)

        size = max(ctype.size(ctx), 1)
        b["size"] = size
        b["size_m1"] = size - 1
        b["size_mask"] = MASKS[size] if size <= 8 else (1 << (8 * size)) - 1
        raw_desc = raw_operand(instr.args[1]) if param_index is None else None
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
        shape = ("scalar", pslot is not None, dkind, extra, check_kind,
                 collect_timing, inline_cache, clear, uses_shadow,
                 value_mode, coerce_flag, False, mem_pack is not None)
        return store_maker(shape)(b), ("mem", None, "store", shape, b)

    def gen_flagged_store(instr, ptr_operand, delta, extra, next_pc):
        """Store rooted at a safe alloca: skip shadow clearing while the
        activation's range is proven clean (flag == 1), else full path.
        The flag is always a 0/1 int by the time a rooted store runs — its
        address temp is produced after the (entry-prefix) allocas."""
        fast, _ = gen_store(instr, ptr_operand, delta, extra, next_pc,
                            clear=False)
        slow, _ = gen_store(instr, ptr_operand, delta, extra, next_pc,
                            clear=True)

        def handler(frame, fast=fast, slow=slow, shadow_flag=shadow_flag):
            if frame[shadow_flag] == 1:
                return fast(frame)
            return slow(frame)

        return handler

    def gen_cmp_branch(cmp_instr, cjump_instr):
        """Fused CMP+CJUMP: compare and branch in one handler."""
        operator = cmp_instr.attrs["operator"]
        compare = _CMP_FUNCS[operator]
        then_pc = labels[cjump_instr.attrs["then"]]
        else_pc = labels[cjump_instr.attrs["else"]]
        ptr_compare = model.ptr_compare
        raw_left = raw_operand(cmp_instr.args[0])
        raw_right = raw_operand(cmp_instr.args[1])
        if raw_left is not None and raw_right is not None:
            lkind, lpayload, _lt, llabel = raw_left
            rkind, rpayload, _rt, rlabel = raw_right

            def handler(frame, compare=compare, machine=machine,
                        then_pc=then_pc, else_pc=else_pc):
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
                result = compare(a, b)
                machine.instructions = icount = machine.instructions + 1
                if icount > machine.max_instructions:
                    raise InterpreterError(
                        f"instruction budget of {machine.max_instructions} "
                        f"exhausted in {function.name}")
                return then_pc if result else else_pc

            return handler

        lmode, lsrc, llabel = boxed_operand(cmp_instr.args[0])
        rmode, rsrc, rlabel = boxed_operand(cmp_instr.args[1])

        def handler(frame, lmode=lmode, lsrc=lsrc, llabel=llabel, rmode=rmode,
                    rsrc=rsrc, rlabel=rlabel, compare=compare,
                    ptr_compare=ptr_compare, operator=operator, machine=machine,
                    then_pc=then_pc, else_pc=else_pc):
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
            left_is_ptr = type(left) is PtrVal
            if left_is_ptr and type(right) is PtrVal and not inline_ptrcmp:
                result = ptr_compare(left, right, operator)
            else:
                result = compare(left.address if left_is_ptr else left.value,
                                 right.address if type(right) is PtrVal else right.value)
            machine.instructions = icount = machine.instructions + 1
            if icount > machine.max_instructions:
                raise InterpreterError(
                    f"instruction budget of {machine.max_instructions} "
                    f"exhausted in {function.name}")
            return then_pc if result else else_pc

        return handler

    # ------------------------------------------------------------------
    # Main compilation loop
    # ------------------------------------------------------------------

    # ALLOCA register slots are assigned in pc order; precomputing the map
    # keeps the per-index builder below order-independent, which the lazy
    # path needs (a run may reach pc 17's alloca without ever building pc 3).
    alloca_slots: dict[int, int] = {}
    for _pc, _instr in enumerate(instrs):
        if _instr.op is Opcode.ALLOCA:
            alloca_slots[_pc] = len(alloca_slots)

    def build(index: int):
        """Bind one pc: ``(handler, cost, desc)``.

        ``desc`` is the per-entry descriptor for the block compiler: how
        (whether) this handler may join a superinstruction.  None = terminal
        (may trap or transfer control; ends any block it appears in).
        """
        instr = instrs[index]
        op = instr.op
        next_pc = index + 1
        dest = instr.dest.index + _FRAME_RESERVED if instr.dest is not None else None
        dest_type = slot_types.get(instr.dest.index) if instr.dest is not None else None
        cost = base_cost
        handler = None
        desc = None
        fusion = fused.get(index)

        if fusion is not None:
            consumer = instrs[index + 1]
            if fusion[0] == "mem":
                cost = base_cost + base_cost  # both halves, charged up front
                delta = fusion[1]
                if consumer.op is Opcode.LOAD:
                    consumer_out = (consumer.dest.index + _FRAME_RESERVED
                                    if consumer.dest is not None else scratch)
                    handler, desc = gen_load(consumer, instr.args[0], delta, True,
                                             index + 2, consumer_out)
                elif index + 1 in skip_shadow_stores:
                    handler = gen_flagged_store(consumer, instr.args[0], delta,
                                                True, index + 2)
                    desc = ("ext", None)
                else:
                    handler, desc = gen_store(consumer, instr.args[0], delta, True,
                                              index + 2)
            else:
                cost = base_cost + branch_cost  # both halves, charged up front
                handler = gen_cmp_branch(instr, consumer)
                desc = None  # branches on its own: ends any block
            return handler, cost, desc

        if op is Opcode.LABEL or op is Opcode.NOP:
            cost = 0
            handler = _make_fallthrough(next_pc)
            desc = ("label",)

        elif op is Opcode.JUMP:
            cost = branch_cost
            target = labels[instr.attrs["target"]]
            handler = _make_fallthrough(target)
            desc = ("goto", target)

        elif op is Opcode.CJUMP:
            cost = branch_cost
            then_pc = labels[instr.attrs["then"]]
            else_pc = labels[instr.attrs["else"]]
            raw = raw_operand(instr.args[0])
            if raw is not None and raw[0] == "slot":
                _, slot, _, label = raw
                desc = ("cjump_raw", slot, label, then_pc, else_pc)

                def handler(frame, slot=slot, label=label, then_pc=then_pc, else_pc=else_pc):
                    condition = frame[slot]
                    if type(condition) is int:
                        return then_pc if condition else else_pc
                    raise InterpreterError(f"use of undefined temporary {label}")
            elif raw is not None:
                target = then_pc if raw[1] else else_pc
                handler = _make_fallthrough(target)
                desc = ("goto", target)
            else:
                read_cond = reader(instr.args[0])

                def handler(frame, read_cond=read_cond, then_pc=then_pc, else_pc=else_pc):
                    condition = read_cond(frame)
                    if type(condition) is IntVal:
                        return then_pc if condition.value != 0 else else_pc
                    return else_pc if condition.is_null else then_pc

        elif op is Opcode.RET:
            if instr.args:
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
            else:
                handler = _make_fallthrough(stop)
                desc = ("goto", stop)

        elif op is Opcode.ALLOCA:
            slot = alloca_slots[index]
            size = instr.attrs.get("size", 8)
            alloc_type = instr.attrs.get("alloc_type")
            alignment = max(8, alloc_type.alignment(ctx) if alloc_type is not None else 8)
            name = instr.attrs.get("name", "")
            allocate_stack = allocator.allocate_stack
            make_pointer = model.make_pointer
            out = dest if dest is not None else scratch
            model_mkptr = type(model).make_pointer
            if model_mkptr is MemoryModel.make_pointer or model_mkptr is Pdp11Model.make_pointer:
                # Both known make_pointer policies construct the same PtrVal
                # shape, differing only in the ``checked`` flag.
                mk_checked = model_mkptr is MemoryModel.make_pointer

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
            else:
                def handler(frame, slot=slot, size=size, name=name, alignment=alignment,
                            allocate_stack=allocate_stack, make_pointer=make_pointer,
                            out=out, next_pc=next_pc):
                    allocas = frame[_ALLOCAS]
                    pointer = allocas[slot]
                    if pointer is None:
                        pointer = make_pointer(allocate_stack(size, name, alignment=alignment))
                        allocas[slot] = pointer
                    frame[out] = pointer
                    return next_pc
            # Allocas mutate allocator state and the `allocations` golden
            # metric, so they are charge points ("ext"), not deferred pures.
            desc = ("ext", out)
            if index in safe_alloca_pcs:
                # Probe the fresh allocation's 8-aligned shadow slots once
                # per activation; only aligned entries matter because data
                # stores clear exactly those.  The first (lowest-pc) safe
                # alloca assigns the activation flag, later ones AND into it
                # — execution order equals pc order in the entry prefix.
                inner = handler
                assign = index == first_safe_pc

                def handler(frame, inner=inner, slot=slot, out=out,
                            assign=assign, shadow_flag=shadow_flag,
                            shadow_entries=shadow_entries):
                    fresh = frame[_ALLOCAS][slot] is None
                    pc = inner(frame)
                    if fresh:
                        obj = frame[out].obj
                        if obj is None:
                            clean = 0
                        else:
                            clean = 1
                            if shadow_entries:
                                base = obj.base
                                for key in range(base, base + obj.size, 8):
                                    if key in shadow_entries:
                                        clean = 0
                                        break
                        if assign:
                            frame[shadow_flag] = clean
                        else:
                            frame[shadow_flag] = clean & frame[shadow_flag]
                    return pc

        elif op is Opcode.LOAD:
            handler, desc = gen_load(instr, instr.args[0], _NO_DELTA, False, next_pc,
                                     dest if dest is not None else scratch)

        elif op is Opcode.STORE:
            if index in skip_shadow_stores:
                handler = gen_flagged_store(instr, instr.args[0], _NO_DELTA,
                                            False, next_pc)
                desc = ("ext", None)
            else:
                handler, desc = gen_store(instr, instr.args[0], _NO_DELTA, False, next_pc)

        elif op is Opcode.GEP or op is Opcode.PTRADD:
            element_size = instr.attrs["element_size"] if op is Opcode.GEP else 1
            out = dest if dest is not None else scratch
            pslot, pcoerce = ptr_parts(instr.args[0])
            raw = raw_operand(instr.args[1])
            if inline_moves and raw is not None:
                dkind, d1, d2, dlabel = ((1, raw[1] * element_size, 0, None)
                                         if raw[0] == "const"
                                         else (2, raw[1], element_size, raw[3]))
                desc = (("ptrmove", pslot, pcoerce, dkind, d1, d2, dlabel, out)
                        if pslot is not None else ("opaque", out))

                def handler(frame, pslot=pslot, pcoerce=pcoerce, dkind=dkind, d1=d1,
                            d2=d2, dlabel=dlabel, out=out, next_pc=next_pc):
                    if pslot is None:
                        pointer = pcoerce(frame)
                    else:
                        pointer = frame[pslot]
                        if type(pointer) is not PtrVal:
                            pointer = pcoerce(pointer)
                    if dkind == 1:
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
            else:
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
            # No model's ptr_offset/int_to_ptr raises, so pointer moves are
            # pure non-trapping work: callable mid-block without dispatch
            # (the inline variant above is emitted as block source instead).
            if desc is None:
                desc = ("opaque", out)

        elif op is Opcode.FIELD:
            field_type = instr.ctype.pointee if isinstance(instr.ctype, PointerType) else None
            field_size = field_type.size(ctx) if field_type is not None else 1
            offset = instr.attrs["offset"]
            field_address = model.field_address
            out = dest if dest is not None else scratch
            if inline_field:
                pslot, pcoerce = ptr_parts(instr.args[0])
                desc = (("ptrmove", pslot, pcoerce, 1, offset, 0, None, out)
                        if pslot is not None else ("opaque", out))

                def handler(frame, pslot=pslot, pcoerce=pcoerce, offset=offset,
                            out=out, next_pc=next_pc):
                    if pslot is None:
                        pointer = pcoerce(frame)
                    else:
                        pointer = frame[pslot]
                        if type(pointer) is not PtrVal:
                            pointer = pcoerce(pointer)
                    frame[out] = PtrVal((pointer.address + offset) & M64,
                                        pointer.base, pointer.length, pointer.obj,
                                        pointer.perms, pointer.tag, pointer.checked)
                    return next_pc
            else:
                read_ptr = _ptr_reader(machine, instr.args[0], slot_types)

                def handler(frame, read_ptr=read_ptr, offset=offset, field_size=field_size,
                            field_address=field_address, out=out, next_pc=next_pc):
                    frame[out] = field_address(read_ptr(frame), offset, field_size)
                    return next_pc
            if desc is None:
                desc = ("opaque", out)

        elif op is Opcode.PTRDIFF:
            read_a = _ptr_reader(machine, instr.args[0], slot_types)
            read_b = _ptr_reader(machine, instr.args[1], slot_types)
            element_size = instr.attrs.get("element_size", 1)
            ptr_diff = model.ptr_diff
            out = dest if dest is not None else scratch
            desc = ("ext", out)  # ptr_diff traps under CHERIv2: charge point
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
            desc = ("opaque", out)

        elif op is Opcode.INTTOPTR:
            read_value = reader(instr.args[0])
            appliers = (_qualifier_appliers(machine, instr.ctype)
                        if isinstance(instr.ctype, PointerType) else ())
            out = dest if dest is not None else scratch

            def handler(frame, read_value=read_value, appliers=appliers, out=out, next_pc=next_pc):
                value = read_value(frame)
                pointer = value if type(value) is PtrVal else int_to_ptr(value, allocator)
                for apply in appliers:
                    pointer = apply(pointer)
                frame[out] = pointer
                return next_pc
            desc = ("opaque", out)

        elif op is Opcode.BITCAST:
            deconst = model.deconst if instr.attrs.get("deconst") else None
            appliers = (_qualifier_appliers(machine, instr.ctype)
                        if isinstance(instr.ctype, PointerType) else ())
            out = dest if dest is not None else scratch
            raw = raw_operand(instr.args[0])
            if raw is not None and raw[0] == "slot" and dest_type is not None:
                # Raw pass-through: the analysis gave the destination the
                # source's exact type, so the register value is unchanged.
                _, slot, _, label = raw
                desc = ("copy_raw", slot, label, out)

                def handler(frame, slot=slot, label=label, out=out, next_pc=next_pc):
                    value = frame[slot]
                    if type(value) is not int:
                        raise InterpreterError(f"use of undefined temporary {label}")
                    frame[out] = value
                    return next_pc
            elif raw is not None and dest_type is not None:
                # Constant source with an unboxed destination: the raw
                # register value is the constant itself, known at compile time.
                const_raw = raw[1]
                desc = ("const_raw", const_raw, out)

                def handler(frame, const_raw=const_raw, out=out, next_pc=next_pc):
                    frame[out] = const_raw
                    return next_pc
            else:
                read_value = reader(instr.args[0])
                desc = ("opaque", out)

                def handler(frame, read_value=read_value, deconst=deconst, appliers=appliers,
                            out=out, next_pc=next_pc):
                    value = read_value(frame)
                    if type(value) is PtrVal:
                        if deconst is not None:
                            value = deconst(value)
                        for apply in appliers:
                            value = apply(value)
                    frame[out] = value
                    return next_pc

        elif op is Opcode.INTCAST:
            target = instr.ctype
            width = min(target.size(ctx), 8)
            signed = getattr(target, "signed", True)
            pointer_sized = _is_pointer_sized_int(target)
            out = dest if dest is not None else scratch
            raw = raw_operand(instr.args[0])
            if raw is not None and raw[0] == "slot" and dest_type is not None:
                # Raw-to-raw conversion: inline table-driven masking, no box.
                _, slot, (swidth, ssigned), label = raw
                mask = MASKS[width]
                sign_min = SIGN_MIN[width] if signed else None
                modulus = MODULI[width]
                identity = (swidth, ssigned) == (width, signed)
                desc = (("copy_raw", slot, label, out) if identity
                        else ("intcast_raw", slot, label, width, signed, out))

                def handler(frame, slot=slot, label=label, identity=identity, mask=mask,
                            sign_min=sign_min, modulus=modulus, out=out, next_pc=next_pc):
                    value = frame[slot]
                    if type(value) is not int:
                        raise InterpreterError(f"use of undefined temporary {label}")
                    if not identity:
                        value &= mask
                        if sign_min is not None and value >= sign_min:
                            value -= modulus
                    frame[out] = value
                    return next_pc
            elif raw is not None and dest_type is not None:
                # Constant source with an unboxed destination: fold the
                # conversion at compile time.
                const_raw = IntVal(raw[1], width, signed).value
                desc = ("const_raw", const_raw, out)

                def handler(frame, const_raw=const_raw, out=out, next_pc=next_pc):
                    frame[out] = const_raw
                    return next_pc
            else:
                read_value = reader(instr.args[0])
                desc = ("opaque", out)

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
            handler, desc = _make_binop(machine, instr, dest if dest is not None else scratch,
                                        dest_type, slot_types, next_pc, propagate_provenance,
                                        ptr_to_int, arg_raw_lists[index])

        elif op is Opcode.UNOP:
            negate = instr.attrs["operator"] == "neg"
            out = dest if dest is not None else scratch
            raw = raw_operand(instr.args[0])
            if raw is not None and raw[0] == "slot" and dest_type is not None:
                _, slot, (swidth, ssigned), label = raw
                mask = MASKS[swidth]
                sign_min = SIGN_MIN[swidth] if ssigned else None
                modulus = MODULI[swidth]
                desc = ("unop_raw", slot, label, negate, swidth, ssigned, out)

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
            elif raw is not None and dest_type is not None:
                # Constant operand with an unboxed destination: fold at
                # compile time (same wrapping as IntVal.with_value).
                _, const_value, (swidth, ssigned), _label = raw
                const_raw = IntVal(-const_value if negate else ~const_value,
                                   swidth, ssigned).value
                desc = ("const_raw", const_raw, out)

                def handler(frame, const_raw=const_raw, out=out, next_pc=next_pc):
                    frame[out] = const_raw
                    return next_pc
            else:
                read_value = reader(instr.args[0])
                desc = ("ext", out)  # may trap on a pointer operand: charge point

                def handler(frame, read_value=read_value, negate=negate, out=out, next_pc=next_pc):
                    value = read_value(frame)
                    if type(value) is not IntVal:
                        raise InterpreterError("unary arithmetic on a pointer value")
                    frame[out] = value.with_value(-value.value if negate else ~value.value,
                                                  provenance=None)
                    return next_pc

        elif op is Opcode.CMP:
            handler, desc = _make_cmp(machine, instr, dest if dest is not None else scratch,
                                      dest_type, slot_types, next_pc, inline_ptrcmp,
                                      arg_raw_lists[index])

        elif op is Opcode.CALL:
            cost = call_cost
            handler = _make_call(machine, instr, dest, slot_types, next_pc)
            desc = ("ext", dest)  # callee observes counters: charge point

        else:
            def handler(frame, op=op):
                raise InterpreterError(f"unsupported IR opcode {op}")

        return handler, cost, desc

    def cost_of(index: int) -> int:
        """Dispatch cost of pc ``index`` without building its handler.

        Mirrors ``build``'s cost assignments branch for branch (the same
        rules ``artifact._generic_descs_and_costs`` mirrors); the lazy path
        fills ``paired`` with these up front so budget/cycle accounting
        never waits for a handler to materialize.
        """
        fusion = fused.get(index)
        if fusion is not None:
            return base_cost + (base_cost if fusion[0] == "mem" else branch_cost)
        op = instrs[index].op
        if op is Opcode.LABEL or op is Opcode.NOP:
            return 0
        if op is Opcode.JUMP or op is Opcode.CJUMP:
            return branch_cost
        if op is Opcode.CALL:
            return call_cost
        return base_cost

    nallocas = len(alloca_slots)
    lazy = machine.lazy_binding and shared_blocks
    if lazy:
        # Lazy per-pc binding: every pc starts as a cheap dispatch thunk and
        # builds its real closure only on first execution
        # (CompiledFunction.materialize), so binding cost is proportional to
        # the pcs a run actually reaches — a lane that traps early, or a
        # branch path never taken, never pays for the rest of the function.
        # The lockstep sweep path turns this on; its saving is what makes
        # N-lane batching beat N serial runs (docs/pipeline.md).
        costs = [cost_of(i) for i in range(stop)]
        code = CompiledFunction(function, [None] * stop, costs, nregs, nallocas)
        code.builder = build
        code.built = {}
        paired = code.paired
        for i in range(stop):
            paired[i] = (partial(_lazy_step, code, i), costs[i])
        descs = None
    else:
        handlers: list = []
        costs = []
        descs = []
        for i in range(stop):
            handler, cost, desc = build(i)
            handlers.append(handler)
            costs.append(cost)
            descs.append(desc)
        code = CompiledFunction(function, handlers, costs, nregs, nallocas)
    if SUPERINSTRUCTIONS and stop > 1:
        if shared_blocks:
            # Tiered binding: a sweep-style machine executes most functions
            # once or twice, where block binding never amortizes.  The
            # dispatch loop installs the artifact's cached plans when the
            # function proves hot (see AbstractMachine._execute).  Lazy
            # machines hand the installer a materializing accessor so a
            # block's interior ``h<k>`` bindings are built exactly when the
            # block is.
            get_handler = code.materialize if lazy else handlers.__getitem__

            def install(code, machine=machine, function=function,
                        get_handler=get_handler, costs=costs, artifact=artifact,
                        timing=(base_cost, branch_cost, call_cost),
                        fast_noprov=fast_noprov, inline_moves=inline_moves,
                        inline_field=inline_field):
                _install_shared_blocks(machine, function, code, get_handler,
                                       costs, artifact, timing, fast_noprov,
                                       inline_moves, inline_field)

            code.pending_blocks = install
        else:
            _install_superinstructions(machine, function, code, handlers, costs,
                                       descs, fused, labels)
    return code


def _make_fallthrough(next_pc: int):
    return lambda frame: next_pc


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


def _install_shared_blocks(machine, function: Function, code: CompiledFunction,
                           get_handler, costs: list, artifact,
                           timing: tuple[int, int, int], fast_noprov: bool,
                           inline_moves: bool, inline_field: bool) -> None:
    """Instantiate the artifact's shared superinstruction plans for one machine.

    The plans (segmentation, generated source, compiled code objects) are
    model-independent and cached on the artifact; this binding step only
    builds the per-machine namespace — the ``h<k>`` handler closures, the
    machine itself, the budget-replay helper and (when enabled) the profile
    counter — and ``exec``-utes the cached code object.  No source is
    generated and nothing is ``compile()``-d per machine.
    """
    profiled = machine.block_profile is not None
    for plan in artifact.block_plans(timing, fast_noprov, profiled,
                                     inline_moves, inline_field):
        b = dict(plan.consts)
        b["machine"] = machine
        b["fname"] = function.name
        b["budget_replay"] = _budget_replay
        for k in plan.handler_indices:
            b[f"h{k}"] = get_handler(k)
        if profiled:
            counter = [0]
            machine.block_profile[(function.name, plan.start)] = {
                "count": counter, "entries": plan.entries, "ir": plan.n_ir}
            b["BC"] = counter
        handler = bind_block(plan.code, b)
        code.block_fallbacks[plan.start] = code.paired[plan.start]
        code.paired[plan.start] = (handler, costs[plan.start])
        code.blocks.append((plan.start, plan.entries, plan.n_ir))


def _install_superinstructions(machine, function: Function, code: CompiledFunction,
                               handlers: list, costs: list, descs: list,
                               fused: dict, labels: dict) -> None:
    """Segment the handler list into basic blocks and fuse straight-line runs.

    A block leader is pc 0, any label pc (the only possible branch targets),
    or the entry after a block.  From each leader, consecutive straight-line
    entries are gathered: inline-able raw ops and pure "opaque" handlers join
    freely, trap-capable fixed-successor handlers ("ext": loads, stores,
    calls, divisions, allocas, ``ptrdiff``) join as charge points, and the
    first control transfer (branch, return, fused compare-and-branch) ends
    the block.  Runs of two or more entries become one generated handler
    installed at the leader pc; every non-leader pc keeps its per-instruction
    handler, so branching into the middle of a block works unchanged.
    """
    n = len(handlers)
    label_pcs = set(labels.values())
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
            step = 2 if k in fused else 1  # skip a fused pair's consumer slot
            if len(members) >= _BLOCK_LIMIT or k + step >= n or (k + step) in label_pcs:
                break
            k += step
        if terminal is not None:
            span = members + [terminal]
            next_pc = terminal + (2 if terminal in fused else 1)
        else:
            span = members
            next_pc = (members[-1] + (2 if members[-1] in fused else 1)) if members else pc + 1
        if len(span) >= 2:
            handler, n_ir = _emit_block(machine, function, handlers, costs,
                                        descs, fused, members, terminal, next_pc)
            code.block_fallbacks[span[0]] = code.paired[span[0]]
            code.paired[span[0]] = (handler, costs[span[0]])
            code.blocks.append((span[0], len(span), n_ir))
        pc = next_pc


def _emit_block(machine, function: Function, handlers: list, costs: list,
                descs: list, fused: dict, members: list, terminal: int | None,
                fall_to: int):
    """Generate the source for one superinstruction and compile it.

    Counter exactness is preserved by *charge groups*: pure entries (which
    cannot trap and touch nothing but the frame) run immediately but defer
    their instruction/cost charges; every trap-capable entry flushes the
    deferred charges plus its own — with one batched add and budget check —
    **before** it executes.  At any point a trap can surface, the counters
    therefore equal exactly what single-step dispatch would have charged.
    When a batch would overrun the instruction budget, :func:`_budget_replay`
    charges the group entry-by-entry and raises at the precise single-step
    trap point.  (The leader's count/cost is charged by the dispatch loop
    before the block handler runs, like any other handler's.)
    """
    span = members + [terminal] if terminal is not None else members
    start = span[0]
    n_ir = sum(2 if k in fused else 1 for k in span)

    bindings = {"machine": machine, "InterpreterError": InterpreterError,
                "budget_replay": _budget_replay, "fname": function.name}
    lines: list[str] = []
    emit = lines.append

    profile = machine.block_profile
    if profile is not None:
        counter = [0]
        profile[(function.name, start)] = {
            "count": counter, "entries": len(span), "ir": n_ir}
        bindings["BC"] = counter
        emit("        BC[0] += 1")

    #: slot index -> local variable (or parenthesised literal) holding the
    #: slot's current raw value; threads values through the block's locals.
    local_of: dict[int, str] = {}
    #: slot index -> local variable known to hold that slot's PtrVal (after a
    #: coerced read or an inline pointer move); lets consecutive pointer ops
    #: on one register skip the frame read and type check.
    ptr_local_of: dict[int, str] = {}
    serial = [0]

    def invalidate(slot) -> None:
        if slot is not None:
            local_of.pop(slot, None)
            ptr_local_of.pop(slot, None)

    def set_raw(out: int, var: str) -> None:
        emit(f"        frame[{out}] = {var}")
        local_of[out] = var
        ptr_local_of.pop(out, None)
    #: entries executed (pure) or pending (the next ext/terminal) whose
    #: count/cost charges have not reached the machine counters yet.
    pending: list[int] = []

    def flush_charges(including: int | None) -> None:
        entries = pending + ([including] if including is not None else [])
        if not entries:
            return
        pending.clear()
        group_cost = sum(costs[e] for e in entries)
        serial[0] += 1
        seq_name = f"cs{serial[0]}"
        bindings[seq_name] = tuple(costs[e] for e in entries)
        emit(f"        icount = machine.instructions + {len(entries)}")
        emit("        if icount > machine.max_instructions:")
        emit(f"            budget_replay(machine, {seq_name}, fname)")
        emit("        machine.instructions = icount")
        if group_cost:
            emit(f"        machine.cycles += {group_cost}")

    def fresh() -> str:
        serial[0] += 1
        return f"v{serial[0]}"

    def read_raw(slot: int, label: str | None, message: str | None = None) -> str:
        var = local_of.get(slot)
        if var is not None:
            return var
        var = fresh()
        if message is None:
            message = f"use of undefined temporary {label}"
        emit(f"        {var} = frame[{slot}]")
        emit(f"        if type({var}) is not int:")
        emit(f"            raise InterpreterError({message!r})")
        local_of[slot] = var
        return var

    def read_ptr(pslot: int, pcoerce, k: int) -> str:
        """Read a pointer register into a local (threaded across the block)."""
        var = ptr_local_of.get(pslot)
        if var is not None:
            return var
        var = fresh()
        coerce_name = f"pco{k}"
        bindings[coerce_name] = pcoerce
        bindings["PtrVal"] = PtrVal
        emit(f"        {var} = frame[{pslot}]")
        emit(f"        if type({var}) is not PtrVal:")
        emit(f"            {var} = {coerce_name}({var})")
        ptr_local_of[pslot] = var
        return var

    def emit_scalar_mem(k: int, d: tuple) -> bool:
        """Inline a scalar load/store body; False when the shape is not
        eligible (pointer-typed accesses, overridden check policies, timing
        disabled, ...) and the entry must stay a closure call.

        The emitted operations mirror ``hotgen.load_body``/``store_body`` for
        the same shape exactly — same checks, same counters, same fall-backs
        — with the pointer register threaded through the block's locals.
        """
        _, out, op, shape, b = d
        if op == "load":
            (kind, pslot_inline, dkind, extra, check_kind, collect_timing_f,
             inline_cache_f, _uses_shadow, _memo, _rec, _napp, fast_mem) = shape
            if kind not in ("raw", "box"):
                return False
            is_write = False
        else:
            (kind, pslot_inline, dkind, extra, check_kind, collect_timing_f,
             inline_cache_f, clear_shadow_f, _uses_shadow, value_mode,
             coerce_f, _wide, fast_mem) = shape
            if kind != "scalar":
                return False
            is_write = True
        if not (pslot_inline and check_kind in (1, 2) and collect_timing_f
                and inline_cache_f and fast_mem):
            return False

        for name in ("machine", "fname", "check_access", "l1_sets", "l1_stats",
                     "l2_access", "hier", "hierarchy_access", "pages_get",
                     "read_small", "write_small", "mem_pages", "mem_tags",
                     "shadow_entries", "shadow_pages"):
            bindings[name] = b[name]
        size = b["size"]
        pointer = read_ptr(b["pslot"], b["pcoerce"], k)
        address = fresh()
        if dkind == 0:
            emit(f"        {address} = {pointer}.address")
        elif dkind == 1:
            bindings["M64"] = _ADDRESS_MASK
            emit(f"        {address} = ({pointer}.address + ({b['d1']!r})) & M64")
        else:
            bindings["M64"] = _ADDRESS_MASK
            index = read_raw(b["d1"], None, b["dmsg"])
            emit(f"        {address} = ({pointer}.address + {index} * ({b['d2']!r})) & M64")
        if extra:
            # Fused second instruction: count it before any observable effect
            # (its cycle cost is in the pair's costs[] entry, charged with
            # the enclosing charge group).
            counter = fresh()
            emit(f"        machine.instructions = {counter} = machine.instructions + 1")
            emit(f"        if {counter} > machine.max_instructions:")
            emit("            raise InterpreterError(")
            emit("                f'instruction budget of {machine.max_instructions} "
                 "exhausted in {fname}')")

        # Value to store is prepared before the access check, like store_body.
        if is_write:
            if value_mode == 0:
                raw = f"({b['const_raw']!r})"
            elif value_mode == 1:
                value = read_raw(b["vslot"], None, b["vmsg"])
                raw = fresh()
                emit(f"        {raw} = {value} & ({b['comb_mask']!r})")
            else:
                reader_name = f"rv{k}"
                bindings[reader_name] = b["read_value"]
                value = fresh()
                emit(f"        {value} = {reader_name}(frame)")
                if coerce_f:
                    bindings["ptr_to_int"] = b["ptr_to_int"]
                    bindings["PtrVal"] = PtrVal
                    emit(f"        if type({value}) is PtrVal:")
                    emit(f"            {value} = ptr_to_int({value}, bytes={b['coerce_bytes']!r},"
                         f" signed={b['coerce_signed']!r}, pointer_sized=False)")
                bindings["IntVal"] = IntVal
                raw = fresh()
                emit(f"        {raw} = ({value}.unsigned if type({value}) is IntVal"
                     f" else int({value})) & ({b['size_mask']!r})")

        # Dereference check (same two known policies as hotgen._emit_check).
        perm = 2 if is_write else 1
        flag = "True" if is_write else "False"
        if check_kind == 1:
            obj = fresh()
            emit(f"        {obj} = {pointer}.obj")
            emit(f"        if not ({pointer}.tag and {pointer}.checked and {pointer}.perms & {perm}")
            emit(f"                and {pointer}.base <= {address}")
            emit(f"                and {address} + {size} <= {pointer}.base + {pointer}.length")
            emit(f"                and ({obj} is None or not {obj}.freed)")
            emit(f"                and not ({address} == 0 and {obj} is None)):")
        else:
            emit(f"        if {address} < 4096:")
        if dkind:
            emit(f"            {address} = check_access(PtrVal({address}, {pointer}.base,"
                 f" {pointer}.length, {pointer}.obj, {pointer}.perms, {pointer}.tag,"
                 f" {pointer}.checked), {size}, is_write={flag})")
        else:
            emit(f"            {address} = check_access({pointer}, {size}, is_write={flag})")
        emit("        machine.memory_accesses += 1")

        # Inline L1-hit timing (hotgen._emit_timing with literal latencies).
        line = fresh()
        latency = fresh()
        cache_set = fresh()
        tag = fresh()
        counter_attr = "writes" if is_write else "reads"
        emit(f"        {line} = {address} >> ({b['line_shift']!r})")
        emit(f"        if ({address} + ({b['size_m1']!r})) >> ({b['line_shift']!r}) == {line}:")
        emit(f"            {cache_set} = l1_sets[{line} & ({b['nsets_mask']!r})]")
        emit(f"            {tag} = {line} >> ({b['nsets_shift']!r})")
        emit(f"            l1_stats.{counter_attr} += 1")
        emit(f"            if {tag} in {cache_set}:")
        emit(f"                del {cache_set}[{tag}]")
        emit(f"                {cache_set}[{tag}] = 0")
        emit("                l1_stats.hits += 1")
        emit(f"                {latency} = ({b['lat_l1']!r})")
        emit("            else:")
        emit("                l1_stats.misses += 1")
        emit(f"                if len({cache_set}) >= ({b['assoc']!r}):")
        emit(f"                    del {cache_set}[next(iter({cache_set}))]")
        emit(f"                {cache_set}[{tag}] = 0")
        emit(f"                {latency} = ({b['lat_l1'] + b['lat_l2']!r})")
        emit(f"                if not l2_access({line} << ({b['line_shift']!r}), is_write={flag}):")
        emit("                    hier.dram_accesses += 1")
        emit(f"                    {latency} += ({b['lat_dram']!r})")
        emit(f"            hier.stall_cycles += {latency}")
        emit(f"            machine.cycles += {latency}")
        emit("        else:")
        emit(f"            machine.cycles += hierarchy_access({address}, {size}, is_write={flag})")

        offset = fresh()
        page = fresh()
        emit(f"        {offset} = {address} & ({b['page_mask']!r})")
        if is_write:
            if clear_shadow_f:
                key = fresh()
                emit("        if shadow_entries:")
                emit(f"            for {key} in range({address} - {address} % 8, {address} + {size}, 8):")
                emit(f"                if {key} in shadow_entries:")
                emit(f"                    del shadow_entries[{key}]")
                emit(f"                    shadow_pages[{key} >> {PAGE_SHIFT}].discard({key})")
            pack_name = f"pk{k}"
            bindings[pack_name] = b["mem_pack"]
            emit(f"        if not mem_tags and {offset} + {size} <= ({b['page_size']!r})"
                 f" and 0 <= {address} and {address} + {size} <= ({b['mem_size']!r}):")
            emit(f"            {page} = pages_get({address} >> ({b['page_shift']!r}))")
            emit(f"            if {page} is None:")
            emit(f"                {page} = mem_pages[{address} >> ({b['page_shift']!r})]"
                 f" = bytearray({b['page_size']!r})")
            emit(f"            {pack_name}({page}, {offset}, {raw})")
            emit("        else:")
            emit(f"            write_small({address}, {size}, {raw})")
        else:
            unpack_name = f"up{k}"
            bindings[unpack_name] = b["mem_unpack"]
            raw = fresh()
            emit(f"        if {offset} + {size} <= ({b['page_size']!r})"
                 f" and 0 <= {address} and {address} + {size} <= ({b['mem_size']!r}):")
            emit(f"            {page} = pages_get({address} >> ({b['page_shift']!r}))")
            emit(f"            {raw} = 0 if {page} is None else {unpack_name}({page}, {offset})[0]")
            emit("        else:")
            emit(f"            {raw} = read_small({address}, {size}, {b['signed']!r})")
            if kind == "raw":
                set_raw(out, raw)
            else:
                table_name = f"T{k}"
                bindings[table_name] = b["table"]
                bindings["IntVal"] = IntVal
                emit(f"        frame[{out}] = ({table_name}[{raw} - ({INTERN_MIN})]"
                     f" if {INTERN_MIN} <= {raw} <= {INTERN_MAX}"
                     f" else IntVal({raw}, {size}, {b['signed']!r}))")
                invalidate(out)
        return True

    def operand(kind: str, payload, label) -> str:
        if kind == "slot":
            return read_raw(payload, label)
        return f"({payload!r})"

    def wrap(expr: str, width: int, signed: bool) -> str:
        """Emit width wrapping of ``expr`` into a fresh local; return it."""
        var = fresh()
        emit(f"        {var} = {expr} & {MASKS[width]}")
        if signed:
            emit(f"        if {var} >= {SIGN_MIN[width]}:")
            emit(f"            {var} -= {MODULI[width]}")
        return var

    for position, k in enumerate(members):
        d = descs[k]
        kind = d[0]
        if kind == "ext" or kind == "mem":
            # Trap-capable fixed-successor entry: flush deferred charges
            # plus this entry's own before it runs (the leader's charge was
            # already applied by the dispatch loop).  Scalar loads/stores are
            # emitted in line (threading the pointer register through the
            # block's locals); pointer-typed accesses and unusual shapes stay
            # closure calls — their shared code objects are hot and
            # well-specialized, and splicing their large bodies into every
            # block measured slower at workload scale.
            flush_charges(None if position == 0 else k)
            if kind == "mem" and emit_scalar_mem(k, d):
                continue
            name = f"h{k}"
            bindings[name] = handlers[k]
            emit(f"        {name}(frame)")
            invalidate(d[1])
            continue
        if position > 0:
            pending.append(k)
        if kind == "label":
            continue
        if kind == "opaque":
            name = f"h{k}"
            bindings[name] = handlers[k]
            emit(f"        {name}(frame)")
            invalidate(d[1])
        elif kind == "ptrmove":
            _, pslot, pcoerce, dkind, d1, d2, dlabel, out = d
            p = read_ptr(pslot, pcoerce, k)
            if dkind == 1:
                address = f"({p}.address + ({d1!r})) & M64"
            else:
                index = read_raw(d1, dlabel)
                address = f"({p}.address + {index} * ({d2!r})) & M64"
            bindings["PtrVal"] = PtrVal
            bindings["M64"] = _ADDRESS_MASK
            var = fresh()
            emit(f"        {var} = PtrVal({address}, {p}.base, {p}.length,"
                 f" {p}.obj, {p}.perms, {p}.tag, {p}.checked)")
            emit(f"        frame[{out}] = {var}")
            ptr_local_of[out] = var
            local_of.pop(out, None)
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
            var = wrap(_BINOP_EXPR[operator].format(a=a, b=b), width, signed)
            if dest_mode == 0:
                set_raw(out, var)
            elif dest_mode == 1:
                table_name = f"T{k}"
                bindings[table_name] = intern_table(width, signed)
                bindings["IntVal"] = IntVal
                emit(f"        frame[{out}] = ({table_name}[{var} - ({INTERN_MIN})]"
                     f" if {INTERN_MIN} <= {var} <= {INTERN_MAX}"
                     f" else IntVal({var}, {width}, {signed}))")
                invalidate(out)
            else:
                bindings["IntVal"] = IntVal
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
                bindings["TRUE"] = _TRUE
                bindings["FALSE"] = _FALSE
                emit(f"        frame[{out}] = TRUE if {condition} else FALSE")
                invalidate(out)
        else:  # pragma: no cover - descriptor/emitter mismatch is a bug
            raise InterpreterError(f"unknown block descriptor {d!r}")

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
            name = f"h{terminal}"
            bindings[name] = handlers[terminal]
            emit(f"        return {name}(frame)")

    handler = compile_block(lines, bindings, f"{function.name}+{start}")
    return handler, n_ir


def _make_binop(machine, instr, out: int, dest_type, slot_types, next_pc: int,
                propagate_provenance, ptr_to_int, arg_raws):
    """Compile a BINOP; returns ``(handler, block_descriptor)``."""
    operator = instr.attrs["operator"]
    target = instr.ctype
    ctx = machine.ctx
    width = min(target.size(ctx), 8) if target is not None else 8
    signed = getattr(target, "signed", True)
    pointer_sized = _is_pointer_sized_int(target)
    is_division = operator in ("/", "%")
    fast_op = _INT_BINOPS.get(operator)
    is_div_op = operator == "/"
    # Skipping the provenance hook for provenance-free operands is only valid
    # for the base implementation (no source -> None); a model that overrides
    # the hook gets called unconditionally.
    fast_noprov = type(machine.model).propagate_provenance is MemoryModel.propagate_provenance

    if fast_op is None and not is_division:
        read_left = _reader(machine, instr.args[0], slot_types)
        read_right = _reader(machine, instr.args[1], slot_types)

        def handler(frame):
            read_left(frame)
            read_right(frame)
            raise InterpreterError(f"unknown binary operator {operator!r}")
        return handler, None

    raw_left, raw_right = arg_raws
    if raw_left is not None and raw_right is not None and fast_noprov:
        # Fully unboxed arithmetic: raw ints in, raw int out (when the
        # destination slot is unboxed too), wrapping inlined from the mask
        # tables.  No IntVal is ever constructed on this path.
        mask = MASKS[width]
        sign_min = SIGN_MIN[width] if signed else None
        modulus = MODULI[width]
        lkind, lpayload, _lt, llabel = raw_left
        rkind, rpayload, _rt, rlabel = raw_right
        table = None if (dest_type is not None or pointer_sized) else intern_table(width, signed)

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
            if is_division:
                if b == 0:
                    raise UndefinedBehaviorError("integer division by zero")
                quotient = abs(a) // abs(b)
                signed_quotient = quotient if (a >= 0) == (b >= 0) else -quotient
                raw = signed_quotient if is_div_op else a - signed_quotient * b
            else:
                raw = fast_op(a, b)
            wrapped = raw & mask
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

        if is_division:
            # Division by zero is a program-level trap: charge point.
            desc = ("ext", out)
        else:
            dest_mode = 0 if dest_type is not None else 2 if pointer_sized else 1
            desc = ("binop_raw", lkind, lpayload, llabel, rkind, rpayload,
                    rlabel, operator, width, signed, dest_mode, out)
        return handler, desc

    # Generic path: inline boxed Temp reads (the common case — e.g. summing
    # call results) and fall back to reader closures for everything else.
    def binop_operand(operand):
        if type(operand) is Temp and operand.index not in slot_types:
            return 0, operand.index + _FRAME_RESERVED, str(operand)
        hoisted = _const_value(machine, operand) if type(operand) is Const else None
        if hoisted is not None:
            return 1, hoisted, None
        return 2, _reader(machine, operand, slot_types), None

    lmode, lsrc, llabel = binop_operand(instr.args[0])
    rmode, rsrc, rlabel = binop_operand(instr.args[1])
    table = intern_table(width, signed) if (not pointer_sized and fast_noprov) else None

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
        a = left.value
        b = right.value
        if is_division:
            if b == 0:
                raise UndefinedBehaviorError("integer division by zero")
            quotient = abs(a) // abs(b)
            signed_quotient = quotient if (a >= 0) == (b >= 0) else -quotient
            raw = signed_quotient if is_div_op else a - signed_quotient * b
        else:
            raw = fast_op(a, b)
        if fast_noprov and left.provenance is None and right.provenance is None:
            if table is not None and INTERN_MIN <= raw <= INTERN_MAX:
                boxed = table[raw - INTERN_MIN]
                frame[out] = boxed.value if dest_type is not None else boxed
                return next_pc
            provenance = None  # matches the base model: no source, no provenance
        else:
            provenance = propagate_provenance(left, right, raw)
        result = IntVal(raw, bytes=width, signed=signed, provenance=provenance,
                        pointer_sized=pointer_sized)
        # An unboxed destination can only have been proven provenance-free;
        # store the raw register representation.
        frame[out] = result.value if dest_type is not None else result
        return next_pc

    # The generic non-division handler touches no hook that can trap when the
    # model keeps the base provenance policy, so its charge can be deferred;
    # division (or an overridden provenance hook) makes it a charge point.
    if fast_noprov and not is_division:
        return handler, ("opaque", out)
    return handler, ("ext", out)


def _make_cmp(machine, instr, out: int, dest_type, slot_types, next_pc: int,
              inline_ptrcmp: bool, arg_raws):
    """Compile a CMP; returns ``(handler, block_descriptor)``."""
    operator = instr.attrs["operator"]
    compare = _CMP_FUNCS.get(operator)
    ptr_compare = machine.model.ptr_compare
    if compare is None:
        read_left = _reader(machine, instr.args[0], slot_types)
        read_right = _reader(machine, instr.args[1], slot_types)

        def handler(frame, read_left=read_left, read_right=read_right, operator=operator):
            read_left(frame)
            read_right(frame)
            raise KeyError(operator)
        return handler, None

    raw_left, raw_right = arg_raws
    raw_dest = dest_type is not None
    if raw_left is not None and raw_right is not None:
        lkind, lpayload, _lt, llabel = raw_left
        rkind, rpayload, _rt, rlabel = raw_right

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
                frame[out] = _TRUE if compare(a, b) else _FALSE
            return next_pc

        return handler, ("cmp_raw", lkind, lpayload, llabel, rkind, rpayload,
                         rlabel, operator, raw_dest, out)

    read_left = _reader(machine, instr.args[0], slot_types)
    read_right = _reader(machine, instr.args[1], slot_types)

    def handler(frame, read_left=read_left, read_right=read_right, compare=compare,
                ptr_compare=ptr_compare, out=out, raw_dest=raw_dest, next_pc=next_pc):
        left = read_left(frame)
        right = read_right(frame)
        left_is_ptr = type(left) is PtrVal
        if left_is_ptr and type(right) is PtrVal and not inline_ptrcmp:
            result = ptr_compare(left, right, operator)
        else:
            result = compare(left.address if left_is_ptr else left.value,
                             right.address if type(right) is PtrVal else right.value)
        if raw_dest:
            frame[out] = 1 if result else 0
        else:
            frame[out] = _TRUE if result else _FALSE
        return next_pc

    # ptr_compare is only a dict lookup in the base model; a model that
    # overrides it could trap, making the comparison a charge point.
    return handler, (("opaque", out) if inline_ptrcmp else ("ext", out))


def _make_call(machine, instr, dest: int | None, slot_types, next_pc: int):
    callee = instr.attrs["callee"]
    # Call arguments cross an ABI boundary: raw registers are boxed by their
    # compiled readers (through the intern pool), so callees, intrinsics and
    # model hooks only ever see IntVal/PtrVal.
    arg_readers = tuple(_reader(machine, arg, slot_types) for arg in instr.args)
    # A raw destination slot only exists when the static checker proved the
    # callee returns a provenance-free IntVal of exactly the slot's shape
    # (repro.staticcheck.facts), so storing the bare value is an identity
    # with the reader-side re-boxing.
    unwrap = dest is not None and instr.dest.index in slot_types
    function = machine.module.functions.get(callee)
    result_type = instr.ctype

    if function is not None and function.instrs:
        int_to_ptr = machine.model.int_to_ptr
        allocator = machine.allocator
        params = function.params

        def make_coercer(param_type):
            if not isinstance(param_type, PointerType):
                return None
            appliers = _qualifier_appliers(machine, param_type)

            def coerce(value):
                if type(value) is PtrVal:
                    for apply in appliers:
                        value = apply(value)
                    return value
                if type(value) is IntVal:
                    return int_to_ptr(value, allocator)
                return value

            return coerce

        def compose(index, reader):
            param_type = params[index][1] if index < len(params) else None
            if not isinstance(param_type, PointerType):
                return reader
            appliers = _qualifier_appliers(machine, param_type)
            operand = instr.args[index]
            if not appliers and type(operand) is Temp and operand.index not in slot_types:
                # The dominant case — a boxed register passed to an
                # unqualified pointer parameter — reads and coerces in one
                # closure (same outcomes as reader + coercer separately).
                slot = operand.index + _FRAME_RESERVED
                label = str(operand)

                def read_ptr_arg(frame, slot=slot, label=label):
                    value = frame[slot]
                    if type(value) is PtrVal:
                        return value
                    if type(value) is IntVal:
                        return int_to_ptr(value, allocator)
                    if value is UNDEF:
                        raise InterpreterError(f"use of undefined temporary {label}")
                    return value

                return read_ptr_arg
            coerce = make_coercer(param_type)
            return lambda frame, reader=reader, coerce=coerce: coerce(reader(frame))

        readers = tuple(compose(i, reader) for i, reader in enumerate(arg_readers))
        machine_call = machine._call
        arity = len(readers)
        # The callee's compiled form is resolved lazily on first call (eager
        # compilation could recurse through the call graph) and then pinned
        # in this cell, skipping the per-call code-cache lookup.
        code_cell: list = []
        code_append = code_cell.append
        code_for = machine._code_for

        if arity == 0:
            def handler(frame):
                if not code_cell:
                    code_append(code_for(function))
                result = machine_call(function, [], code_cell[0])
                if unwrap:
                    frame[dest] = result.value
                elif dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 1:
            read0, = readers

            def handler(frame):
                if not code_cell:
                    code_append(code_for(function))
                result = machine_call(function, [read0(frame)], code_cell[0])
                if unwrap:
                    frame[dest] = result.value
                elif dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 2:
            read0, read1 = readers

            def handler(frame):
                if not code_cell:
                    code_append(code_for(function))
                result = machine_call(function, [read0(frame), read1(frame)], code_cell[0])
                if unwrap:
                    frame[dest] = result.value
                elif dest is not None:
                    frame[dest] = result
                return next_pc
        elif arity == 3:
            read0, read1, read2 = readers

            def handler(frame):
                if not code_cell:
                    code_append(code_for(function))
                result = machine_call(function, [read0(frame), read1(frame), read2(frame)],
                                      code_cell[0])
                if unwrap:
                    frame[dest] = result.value
                elif dest is not None:
                    frame[dest] = result
                return next_pc
        else:
            def handler(frame):
                if not code_cell:
                    code_append(code_for(function))
                result = machine_call(function, [read(frame) for read in readers],
                                      code_cell[0])
                if unwrap:
                    frame[dest] = result.value
                elif dest is not None:
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
        if unwrap:
            frame[dest] = result.value
        elif dest is not None:
            frame[dest] = result
        return next_pc

    return handler

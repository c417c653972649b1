"""The abstract-machine interpreter.

:class:`AbstractMachine` executes a mini-C IR :class:`~repro.minic.ir.Module`
over a flat 64-bit address space, delegating every pointer decision to the
configured :class:`~repro.interp.models.base.MemoryModel` and feeding every
data access through the evaluation platform's cache model so that runs are
comparable in *simulated cycles*.

Key mechanisms:

* **Objects and addresses.**  Globals, string literals, heap allocations and
  stack slots are all :class:`~repro.interp.heap.HeapObject` allocations; the
  bytes live in a sparse :class:`~repro.sim.memory.TaggedMemory`.
* **Pointers in memory.**  When a pointer (or a pointer-sized integer that
  carries provenance) is stored, the raw 64-bit address is written to memory
  and the full runtime value is remembered in a *shadow table* keyed by the
  store address.  Whether that shadow survives data overwrites (tagged
  memory) or lives in a separate look-aside table (HardBound/MPX), and how a
  load reconciles the raw bytes with the shadow entry, is the memory model's
  decision — this is where the INT/IA/MASK rows of Table 3 come from.
* **Timing.**  Every instruction costs one cycle (calls and branches a little
  more) and every memory access adds the cache hierarchy's latency.  The only
  difference between ABIs is the size and alignment of pointers, which is the
  paper's architectural story for Figures 1–4.
* **Dispatch.**  Function bodies are predecoded once per machine into
  per-instruction closures plus basic-block superinstructions
  (:mod:`repro.interp.predecode`) and executed by a threaded-dispatch loop
  over pooled call frames; ``tests/test_metrics_golden.py`` and
  ``tests/test_superinstructions.py`` pin that this is observationally
  identical to naive instruction-at-a-time interpretation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.common.config import MachineConfig
from repro.common.errors import (
    InterpreterError,
    MemorySafetyError,
    ReproError,
    UndefinedBehaviorError,
)
from repro.common.rng import DeterministicRng
from repro.interp.heap import ObjectAllocator
from repro.interp.intrinsics import ExitProgram
from repro.interp.models import get_model
from repro.interp.models.base import MemoryModel
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.predecode import HOT_CALL_THRESHOLD, CompiledFunction, compile_function
from repro.interp.shadow import ShadowTable
from repro.interp.values import IntVal, Provenance, PtrVal
from repro.minic.ir import Function, Module
from repro.minic.typesys import CType, IntType, PointerType, Qualifiers
from repro.sim.cache import MemoryHierarchy
from repro.sim.memory import TaggedMemory

#: size of the flat virtual address space backing the interpreter.
_ADDRESS_SPACE = 1 << 40

# Interpreted calls recurse through a handful of Python frames each; deep
# (but bounded) workload recursion such as the Olden tree kernels needs more
# headroom than CPython's default limit provides.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))


@dataclass
class ExecutionResult:
    """Outcome of running a program on the abstract machine."""

    exit_code: int | None = None
    output: bytes = b""
    trap: Exception | None = None
    instructions: int = 0
    cycles: int = 0
    memory_accesses: int = 0
    allocations: int = 0
    allocated_bytes: int = 0
    checkpoints: list[int] = field(default_factory=list)
    model_name: str = ""
    #: superinstruction handlers that raised an internal (non-trap) error and
    #: were transparently replaced by their single-step equivalents — see
    #: AbstractMachine._execute.  Not an architectural observable: two runs
    #: that differ only in fallbacks produce identical traps/outputs/metrics.
    engine_fallbacks: int = 0

    @property
    def trapped(self) -> bool:
        return self.trap is not None

    @property
    def ok(self) -> bool:
        """True when the program ran to completion and returned zero."""
        return not self.trapped and self.exit_code == 0

    def output_text(self) -> str:
        return self.output.decode("latin-1")


def scrub_trap(exc: BaseException | None) -> None:
    """Drop every traceback reachable from a surfaced trap.

    A trap raised with ``raise ... from None`` (or while another exception
    was being handled) still carries the original exception in
    ``__context__`` — and *that* exception's traceback retains every
    interpreter frame it unwound through, each of which references handlers
    and therefore the whole machine graph.  Clearing only
    ``exc.__traceback__`` (the PR 5 fix) leaves the chained frames alive, so
    this walks ``__cause__``/``__context__`` and clears them all.  The chain
    links themselves are kept: the oracle classifies on the trap's type,
    message and structured cause.
    """
    stack = [exc]
    seen: set[int] = set()
    while stack:
        err = stack.pop()
        if err is None or id(err) in seen:
            continue
        seen.add(id(err))
        err.__traceback__ = None
        stack.append(err.__cause__)
        stack.append(err.__context__)


class AbstractMachine:
    """Executes IR modules under a pluggable memory model."""

    __slots__ = ("module", "model", "config", "ctx", "memory", "allocator",
                 "hierarchy", "shadow", "globals", "output", "checkpoints",
                 "rng", "instructions", "cycles", "memory_accesses",
                 "max_instructions", "collect_timing", "shared_blocks",
                 "lazy_binding", "_call_depth", "_code_cache", "_ptr_load_memo",
                 "_clear_shadow", "block_profile", "_engine_fault",
                 "engine_faults")

    def __init__(
        self,
        module: Module,
        model: MemoryModel | str = "pdp11",
        *,
        config: MachineConfig | None = None,
        max_instructions: int = 50_000_000,
        collect_timing: bool = True,
        shared_blocks: bool = False,
        lazy_binding: bool = False,
    ) -> None:
        self.module = module
        self.model = get_model(model) if isinstance(model, str) else model
        self.config = config or MachineConfig()
        self.ctx = module.context
        if self.ctx is None:
            raise InterpreterError("module has no type context")
        if self.ctx.pointer_bytes != self.model.pointer_bytes:
            raise InterpreterError(
                f"module compiled for {self.ctx.pointer_bytes}-byte pointers but model "
                f"{self.model.name!r} uses {self.model.pointer_bytes}-byte pointers; "
                "compile with pointer_bytes=model.pointer_bytes"
            )
        self.memory = TaggedMemory(_ADDRESS_SPACE)
        self.allocator = ObjectAllocator()
        self.hierarchy = MemoryHierarchy(self.config.timing)
        self.shadow = ShadowTable()
        self.globals: dict[str, PtrVal] = {}
        self.output = bytearray()
        self.checkpoints: list[int] = []
        self.rng = DeterministicRng(12345)
        self.instructions = 0
        self.cycles = 0
        self.memory_accesses = 0
        self.max_instructions = max_instructions
        self.collect_timing = collect_timing
        #: superinstruction flavour: False compiles model-specialized block
        #: source per machine (fastest execution — the workload default);
        #: True binds the model-independent block plans cached process-wide
        #: on the predecode artifact (fastest compilation — what the
        #: differential runner uses for its 7-model replay).  Observables are
        #: identical either way (tests/test_predecode_cache.py).
        self.shared_blocks = shared_blocks
        #: defer per-pc handler binding until a pc first executes (requires
        #: shared_blocks; see CompiledFunction.materialize).  Observationally
        #: invisible — dispatch charges before the thunk runs — but binding
        #: cost becomes proportional to the pcs actually reached, which is
        #: what makes the lockstep sweep engine pay compile cost ~once per
        #: reached pc instead of once per (pc × lane).
        self.lazy_binding = lazy_binding
        self._call_depth = 0
        #: predecoded per-function code, keyed by the function's identity.
        self._code_cache: dict[int, CompiledFunction] = {}
        #: raw address -> PtrVal for models whose metadata-free pointer load
        #: is a pure function of the address (see predecode._PURE_PTR_LOADERS).
        self._ptr_load_memo: dict[int, PtrVal] = {}
        self._clear_shadow = self.model.uses_shadow and self.model.clear_shadow_on_data_store
        #: set to a dict *before the first run* to record per-superinstruction
        #: execution counts (see scripts/profile_interp.py --blocks).
        self.block_profile: dict | None = None
        #: pending injected engine fault: an exception factory installed by
        #: :meth:`arm_engine_fault`, consumed by the next executed function
        #: that carries a superinstruction (fault-injection harness only).
        self._engine_fault = None
        #: (function, pc, exception type) for every superinstruction that was
        #: demoted to single-step dispatch after raising an internal error.
        self.engine_faults: list[tuple[str, int, str]] = []
        self._setup_globals()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _setup_globals(self) -> None:
        for name, var in self.module.globals.items():
            size = var.ctype.size(self.ctx)
            alignment = max(var.ctype.alignment(self.ctx), 8)
            if var.is_string:
                obj = self.allocator.allocate_string(size, name)
            else:
                obj = self.allocator.allocate_global(size, name, alignment=alignment)
            if var.init_bytes:
                self.memory.write_bytes(obj.base, var.init_bytes)
            self.globals[name] = self.model.make_pointer(obj)

    # ------------------------------------------------------------------
    # Helpers used by intrinsics
    # ------------------------------------------------------------------

    def emit_output(self, data: bytes) -> None:
        self.output.extend(data)

    def reseed(self, seed: int) -> None:
        self.rng = DeterministicRng(seed or 1)

    def heap_allocate(self, size: int) -> PtrVal:
        obj = self.allocator.allocate_heap(size, alignment=max(16, self.model.pointer_align))
        return self.model.make_pointer(obj)

    def heap_free(self, pointer: PtrVal) -> None:
        obj = pointer.obj or self.allocator.find(pointer.address)
        if obj is None or obj.kind != "heap":
            raise MemorySafetyError(f"free() of a non-heap pointer at {pointer.address:#x}",
                                    address=pointer.address, cause="badfree")
        self.allocator.free(obj)

    def read_checked_bytes(self, pointer: PtrVal, length: int) -> bytes:
        if length == 0:
            return b""
        address = self.model.check_access(pointer, length, is_write=False)
        self._touch_memory(address, length, is_write=False)
        return self.memory.read_bytes(address, length)

    def write_checked_bytes(self, pointer: PtrVal, data: bytes) -> None:
        if not data:
            return
        address = self.model.check_access(pointer, len(data), is_write=True)
        self._touch_memory(address, len(data), is_write=True)
        self._clear_shadow_range(address, len(data))
        self.memory.write_bytes(address, data)

    def read_cstring(self, pointer: PtrVal, *, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string (bounds-checked, page-batched).

        Semantically every byte is individually checked and fed through the
        cache model — that per-byte accounting is part of the simulated cost
        of C string functions.  The fast path below batches the Python-level
        work: it derives how many bytes the per-byte check is guaranteed to
        admit, scans whole pages for the terminator, and charges the accesses
        through :meth:`MemoryHierarchy.access_run` (identical counters).  Any
        input the batch cannot prove safe — unknown check policies, bounds
        running out, address-space edges — falls back to the original
        byte-at-a-time loop, so traps are bit-identical.
        """
        model = self.model
        model_check = type(model).check_access
        if model_check is MemoryModel.check_access:
            # First byte through the real check: identical trap for null /
            # untagged / permission / freed / out-of-bounds starts.
            address = model.check_access(pointer, 1, is_write=False)
            if pointer.checked:
                admitted = pointer.base + pointer.length - address
            else:
                admitted = limit
        elif model_check is Pdp11Model.check_access:
            address = model.check_access(pointer, 1, is_write=False)
            admitted = limit
        else:
            return self._read_cstring_bytewise(pointer, limit)
        admitted = min(admitted, limit, self.memory.size - address)

        memory = self.memory
        pages = memory._pages
        page_size = memory.PAGE_SIZE
        out = bytearray()
        scanned = 0
        found = -1
        while scanned < admitted:
            cursor = address + scanned
            page_index, offset = divmod(cursor, page_size)
            chunk = min(admitted - scanned, page_size - offset)
            page = pages.get(page_index)
            if page is None:
                found = scanned  # untouched pages read as zero: NUL here
                break
            nul = page.find(0, offset, offset + chunk)
            if nul >= 0:
                out += page[offset:nul]
                found = scanned + (nul - offset)
                break
            out += page[offset:offset + chunk]
            scanned += chunk
        consumed = found + 1 if found >= 0 else scanned
        self.memory_accesses += consumed
        if self.collect_timing and consumed:
            self.cycles += self.hierarchy.access_run(address, consumed)
        if found >= 0:
            return bytes(out)
        if consumed >= limit:
            raise InterpreterError("unterminated string (exceeded 1 MiB)")
        # The admitted range ran out without a terminator: replay from the
        # exact failing byte through the byte-wise loop so the trap (or any
        # address-space edge) is reproduced identically.
        cursor = model.ptr_offset(pointer, consumed)
        return bytes(out) + self._read_cstring_bytewise(cursor, limit - consumed)

    def _read_cstring_bytewise(self, pointer: PtrVal, limit: int) -> bytes:
        """The original per-byte loop (slow path and trap replay)."""
        out = bytearray()
        append = out.append
        cursor = pointer
        check_access = self.model.check_access
        ptr_offset = self.model.ptr_offset
        read_small = self.memory.read_small
        hierarchy_access = self.hierarchy.access
        collect_timing = self.collect_timing
        for _ in range(limit):
            address = check_access(cursor, 1, is_write=False)
            self.memory_accesses += 1
            if collect_timing:
                self.cycles += hierarchy_access(address, 1, is_write=False)
            byte = read_small(address, 1, False)
            if byte == 0:
                return bytes(out)
            append(byte)
            cursor = ptr_offset(cursor, 1)
        raise InterpreterError("unterminated string (exceeded 1 MiB)")

    def copy_memory(self, dst: PtrVal, src: PtrVal, length: int) -> None:
        """memcpy: copies bytes *and* pointer metadata (tag-preserving copy)."""
        if length == 0:
            return
        src_address = self.model.check_access(src, length, is_write=False)
        dst_address = self.model.check_access(dst, length, is_write=True)
        self._touch_memory(src_address, length, is_write=False)
        self._touch_memory(dst_address, length, is_write=True)
        data = self.memory.read_bytes(src_address, length)
        self._clear_shadow_range(dst_address, length)
        self.memory.write_bytes(dst_address, data)
        if self.model.uses_shadow and self.shadow.entries:
            # The page index makes both sides O(entries in range) regardless
            # of entry alignment — no aligned-slot assumption, no fall-back
            # full-table scan.
            shadow = self.shadow
            delta = dst_address - src_address
            moved = shadow.entries_in_range(src_address, src_address + length)
            moved_keys = {key + delta for key, _ in moved}
            # Destination slots the copy overwrote but the move does not
            # repopulate would otherwise keep stale metadata (the look-aside
            # models do not clear shadow entries on data stores).  Deliberate
            # tightening over the seed interpreter, which left them behind.
            for key in shadow.addresses_in_range(dst_address, dst_address + length):
                if key not in moved_keys:
                    del shadow[key]
            for key, value in moved:
                shadow.set(key + delta, value)

    # ------------------------------------------------------------------
    # Memory primitives
    # ------------------------------------------------------------------

    def _touch_memory(self, address: int, size: int, *, is_write: bool) -> None:
        self.memory_accesses += 1
        if self.collect_timing:
            self.cycles += self.hierarchy.access(address, size, is_write=is_write)

    def _clear_shadow_range(self, address: int, size: int) -> None:
        if not self._clear_shadow or not self.shadow.entries:
            return
        # Tagged-memory semantics: a data store invalidates the metadata of
        # every 8-aligned pointer slot it overlaps (entries at unaligned
        # addresses — moved there by memcpy — are reconciled at load time
        # instead).  Small writes probe the few candidate slots directly;
        # large ones (memset) use the page index, O(entries in range).
        shadow = self.shadow
        start = address - address % 8
        if size <= 256:
            entries = shadow.entries
            for key in range(start, address + size, 8):
                if key in entries:
                    del shadow[key]
            return
        for key in shadow.addresses_in_range(start, address + size):
            if not key & 7:
                del shadow[key]

    def _store_scalar(self, pointer: PtrVal, value, ctype: CType) -> None:
        """Store one typed value through a pointer."""
        if isinstance(ctype, PointerType) or self._is_pointer_sized_int(ctype):
            width = self.model.pointer_bytes
            address = self.model.check_access(pointer, width, is_write=True)
            self._touch_memory(address, width, is_write=True)
            raw = value.address if isinstance(value, PtrVal) else value.unsigned
            self._clear_shadow_range(address, width)
            self.memory.write_bytes(address, raw.to_bytes(8, "little", signed=False) + b"\x00" * (width - 8))
            if self.model.uses_shadow:
                self.shadow.set(address, value)
            return
        size = max(ctype.size(self.ctx), 1)
        address = self.model.check_access(pointer, size, is_write=True)
        self._touch_memory(address, size, is_write=True)
        self._clear_shadow_range(address, size)
        raw_value = value.unsigned if isinstance(value, IntVal) else int(value)
        self.memory.write_int(address, size, raw_value)

    def _load_scalar(self, pointer: PtrVal, ctype: CType):
        """Load one typed value through a pointer."""
        if isinstance(ctype, PointerType) or self._is_pointer_sized_int(ctype):
            width = self.model.pointer_bytes
            address = self.model.check_access(pointer, width, is_write=False)
            self._touch_memory(address, width, is_write=False)
            raw = int.from_bytes(self.memory.read_bytes(address, 8), "little")
            entry = self.shadow.get(address) if self.model.uses_shadow else None
            if isinstance(ctype, PointerType):
                loaded = self._reconstruct_pointer(raw, entry)
                return self._apply_pointer_qualifiers(loaded, ctype)
            return self._reconstruct_pointer_sized_int(raw, entry, ctype)
        size = max(ctype.size(self.ctx), 1)
        address = self.model.check_access(pointer, size, is_write=False)
        self._touch_memory(address, size, is_write=False)
        signed = getattr(ctype, "signed", True)
        raw = self.memory.read_int(address, size, signed=signed)
        return IntVal(raw, bytes=size, signed=signed)

    def _reconstruct_pointer(self, raw: int, entry) -> PtrVal:
        if entry is None:
            return self.model.load_pointer_without_metadata(raw, self.allocator)
        if isinstance(entry, PtrVal):
            return self.model.reconcile_loaded_pointer(raw, entry, self.allocator)
        if isinstance(entry, IntVal):
            return self.model.int_to_ptr(entry.with_value(raw, provenance=entry.provenance),
                                         self.allocator)
        raise InterpreterError(f"corrupt shadow entry {entry!r}")

    def _reconstruct_pointer_sized_int(self, raw: int, entry, ctype: CType) -> IntVal:
        signed = getattr(ctype, "signed", True)
        if isinstance(entry, IntVal) and entry.unsigned == raw:
            return IntVal(raw, bytes=8, signed=signed, provenance=entry.provenance, pointer_sized=True)
        if isinstance(entry, PtrVal) and entry.address == raw:
            return IntVal(raw, bytes=8, signed=signed, provenance=Provenance(entry), pointer_sized=True)
        return IntVal(raw, bytes=8, signed=signed, pointer_sized=True)

    @staticmethod
    def _is_pointer_sized_int(ctype: CType) -> bool:
        return isinstance(ctype, IntType) and ctype.is_pointer_sized

    def _apply_pointer_qualifiers(self, pointer: PtrVal, ptr_type: PointerType) -> PtrVal:
        """Apply const/__input/__output effects when a value takes a pointer type."""
        if not isinstance(pointer, PtrVal):
            return pointer
        result = pointer
        if ptr_type.qualifiers & Qualifiers.INPUT:
            result = self.model.apply_input_qualifier(result)
        if ptr_type.qualifiers & Qualifiers.OUTPUT:
            result = self.model.apply_output_qualifier(result)
        if ptr_type.pointee.is_const:
            result = self.model.apply_const(result)
        return result

    # ------------------------------------------------------------------
    # Running programs
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> ExecutionResult:
        """Run ``entry`` (after ``__global_init``) and package the outcome."""
        trap: Exception | None = None
        exit_code: int | None = None
        try:
            if "__global_init" in self.module.functions:
                self._call(self.module.functions["__global_init"], [])
            if entry not in self.module.functions:
                raise InterpreterError(f"program has no function {entry!r}")
            result = self._call(self.module.functions[entry], list(args or []))
            if isinstance(result, IntVal):
                exit_code = result.value
            elif isinstance(result, PtrVal):
                exit_code = result.address
            else:
                exit_code = 0
        except ExitProgram as exc:
            exit_code = exc.code
        except (MemorySafetyError, UndefinedBehaviorError, InterpreterError) as exc:
            trap = exc
        return ExecutionResult(
            exit_code=exit_code,
            output=bytes(self.output),
            trap=trap,
            instructions=self.instructions,
            cycles=self.cycles,
            memory_accesses=self.memory_accesses,
            allocations=self.allocator.allocation_count,
            allocated_bytes=self.allocator.bytes_allocated,
            checkpoints=list(self.checkpoints),
            model_name=self.model.name,
            engine_fallbacks=len(self.engine_faults),
        )

    def release(self) -> None:
        """Drop everything the finished run bound, breaking the machine cycle.

        Handler closures close over the machine, and the machine's
        ``_code_cache`` owns them, so an unreleased machine is a reference
        cycle that only the cyclic collector can reclaim.  Clearing the code
        cache, each compiled function's handler tables (``paired`` and the
        block fallbacks), pending installer, lazy builder and frame pool,
        and the pointer-load memo leaves a graph that reference counting
        frees as soon as the caller drops the machine.  Counters, output
        and ``engine_faults`` stay readable; a released machine must not be
        run again.  :meth:`run` never releases (tests inspect
        ``_code_cache`` after a run) — callers that discard the machine do,
        as :class:`~repro.difftest.runner.DifferentialRunner` does after
        every model's run.
        """
        for code in self._code_cache.values():
            code.paired = []
            code.block_fallbacks = {}
            code.pending_blocks = None
            code.builder = None
            code.built = None
            code.pool = []
        self._code_cache = {}
        self._ptr_load_memo = {}

    def arm_engine_fault(self, factory=RuntimeError) -> None:
        """Make the next superinstruction raise ``factory(...)`` once.

        Fault-injection hook for the difftest service: the next executed
        function that carries an installed (or installable) superinstruction
        gets its first block leader replaced by a handler that raises.  The
        failure then exercises the block-engine -> single-step fallback in
        :meth:`_execute` exactly the way a genuine buggy block handler would.
        """
        self._engine_fault = factory

    def _arm_engine_fault(self, code: CompiledFunction) -> None:
        # Shared-block machines bind blocks lazily at HOT_CALL_THRESHOLD; a
        # one-shot difftest program never gets there, so force the install —
        # observationally invisible by the superinstruction contract.
        if code.pending_blocks is not None:
            install = code.pending_blocks
            code.pending_blocks = None
            install(code)
        factory = self._engine_fault
        for start in sorted(code.block_fallbacks):
            def _raiser(frame, _factory=factory):
                raise _factory("injected block-engine fault")

            _handler, cost = code.paired[start]
            code.paired[start] = (_raiser, cost)
            self._engine_fault = None
            return
        # No superinstruction in this function: stay armed for the next call.

    # ------------------------------------------------------------------
    # Call frames
    # ------------------------------------------------------------------

    def _code_for(self, function: Function) -> CompiledFunction:
        """The predecoded form of ``function``, compiling on first use."""
        code = self._code_cache.get(id(function))
        if code is None or code.function is not function:
            code = compile_function(self, function)
            self._code_cache[id(function)] = code
        return code

    def _call(self, function: Function, args: list, code: CompiledFunction | None = None):
        if self._call_depth > 400:
            raise InterpreterError(f"call depth limit exceeded calling {function.name}")
        self._call_depth += 1
        self.allocator.push_frame()
        try:
            return self._execute(function, args, code)
        finally:
            self.allocator.pop_frame()
            self._call_depth -= 1

    def _execute(self, function: Function, args: list,
                 code: CompiledFunction | None = None):
        """Run one predecoded function body to completion (threaded dispatch).

        The per-instruction work lives in the compiled handlers
        (:mod:`repro.interp.predecode`); this loop only meters the shared
        instruction/cycle counters and threads the program counter that each
        handler returns.
        """
        if code is None:
            code = self._code_for(function)
        # Tiered block binding (shared-block machines only): install the
        # artifact's cached superinstruction plans once the function has
        # proven hot.  Install timing is observationally invisible — blocks
        # charge exactly what single-step dispatch charges.
        if code.pending_blocks is not None:
            code.calls += 1
            if code.calls >= HOT_CALL_THRESHOLD:
                install = code.pending_blocks
                code.pending_blocks = None
                install(code)
        if self._engine_fault is not None:
            self._arm_engine_fault(code)
        # Frames come from a per-CompiledFunction pool: released frames were
        # reset to the prototype (alloca list kept attached, entries cleared),
        # so a call does not round-trip the allocator for the register file.
        pool = code.pool
        if pool:
            frame = pool.pop()
        else:
            frame = code.frame_proto.copy()
            if code.nallocas:
                frame[1] = [None] * code.nallocas
        frame[0] = args
        paired = code.paired
        size = code.size
        max_instructions = self.max_instructions
        pc = 0
        while pc < size:
            try:
                while pc < size:
                    self.instructions = count = self.instructions + 1
                    if count > max_instructions:
                        raise InterpreterError(
                            f"instruction budget of {self.max_instructions} exhausted in {function.name}"
                        )
                    handler, cost = paired[pc]
                    self.cycles += cost
                    pc = handler(frame)
            except (ReproError, ExitProgram):
                raise
            except Exception as exc:
                # Block-engine fallback: a superinstruction handler raised an
                # internal (non-trap) error.  Safe to retry in single steps
                # only if the handler charged nothing beyond this dispatch —
                # any nested call would have advanced the instruction counter.
                fallback = (code.block_fallbacks.pop(pc, None)
                            if self.instructions == count else None)
                if fallback is None:
                    raise
                self.instructions -= 1
                self.cycles -= cost
                # The demoted exception is swallowed here, but its traceback
                # would otherwise pin every frame it passed through (and so
                # the machine graph) for as long as engine_faults-adjacent
                # state lives; the runner's scrub only sees surfaced traps.
                exc.__traceback__ = None
                paired[pc] = fallback
                self.engine_faults.append((function.name, pc, type(exc).__name__))
        result = frame[2]
        # Reset-on-release; a trap skips this (the frame is simply dropped
        # and the pool regrows lazily on later calls).
        allocas = frame[1]
        frame[:] = code.frame_proto
        if allocas is not None:
            allocas[:] = code.alloca_proto
            frame[1] = allocas
        pool.append(frame)
        return result

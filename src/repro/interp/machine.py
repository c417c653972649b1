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
* **Dispatch.**  Execution is tiered.  A function first runs in tier 0
  (:mod:`repro.interp.tier0`), straight from its model-independent predecode
  artifact with nothing bound to this machine.  It is promoted at its
  ``HOT_CALL_THRESHOLD``-th call, or mid-run once one activation has taken
  ``HOT_LOOP_THRESHOLD`` loop back edges: promotion binds the function to
  this machine with its basic-block superinstructions installed
  (:func:`~repro.interp.predecode.compile_function`), and the activation
  continues in the bound threaded-dispatch loop over pooled call frames.
  ``tests/test_metrics_golden.py``, ``tests/test_tier0.py`` and
  ``tests/test_superinstructions.py`` pin that both tiers are
  observationally identical.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.common.config import MachineConfig
from repro.common.errors import (
    InterpreterError,
    MemorySafetyError,
    UndefinedBehaviorError,
)
from repro.common.rng import DeterministicRng
from repro.interp.heap import ObjectAllocator
from repro.interp.intrinsics import ExitProgram
from repro.interp.models import get_model
from repro.interp.models.base import MemoryModel, qualifier_mask
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.predecode import CompiledFunction, compile_function
from repro.interp.shadow import ShadowTable
from repro.interp.tier0 import ENGINE, HOT_CALL_THRESHOLD, HOT_LOOP_THRESHOLD
from repro.interp.tier0 import run as run_tier0
from repro.interp.values import IntVal, Provenance, PtrVal, qualified
from repro.minic.ir import Function, Module
from repro.minic.typesys import CType, IntType, PointerType
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
    #: always 0: the engine has no in-run fallback, so an internal handler
    #: error leaves :meth:`AbstractMachine.run`.  Kept because perfbench's
    #: sweep pass reads it.
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
                 "max_instructions", "collect_timing", "_call_depth",
                 "_code_cache", "_calls", "_charges", "_ptr_load_memo",
                 "_clear_shadow", "block_profile")

    def __init__(
        self,
        module: Module,
        model: MemoryModel | str = "pdp11",
        *,
        config: MachineConfig | None = None,
        max_instructions: int = 50_000_000,
        collect_timing: bool = True,
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
        self._call_depth = 0
        #: bound code of the promoted functions, keyed by function identity.
        self._code_cache: dict[int, CompiledFunction] = {}
        #: tier-0 calls so far of each function not yet promoted.
        self._calls: dict[int, int] = {}
        timing = self.config.timing
        #: per-pc charge constants (``PredecodeArtifact.costs`` key).
        self._charges = (timing.base_instruction_cost, timing.branch_cost,
                         timing.call_cost)
        #: raw address -> PtrVal for models whose metadata-free pointer load
        #: is a pure function of the address (see predecode._PURE_PTR_LOADERS).
        self._ptr_load_memo: dict[int, PtrVal] = {}
        self._clear_shadow = self.model.uses_shadow and self.model.clear_shadow_on_data_store
        #: set to a dict *before the first run* to record per-superinstruction
        #: execution counts (see scripts/profile_interp.py --blocks).
        self.block_profile: dict | None = None
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
        input the batch cannot prove safe — bounds running out, address-space
        edges — falls back to the original byte-at-a-time loop, so traps are
        bit-identical.
        """
        model = self.model
        # First byte through the real check: identical trap for null /
        # untagged / permission / freed / out-of-bounds starts.  PDP-11's
        # flat check admits the rest; the base check admits a checked
        # pointer up to its bounds.
        address = model.check_access(pointer, 1, is_write=False)
        if pointer.checked and type(model).check_access is not Pdp11Model.check_access:
            admitted = pointer.base + pointer.length - address
        else:
            admitted = limit
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
                return qualified(loaded, qualifier_mask(self.model, ctype))
            return self._reconstruct_pointer_sized_int(raw, entry, ctype)
        size = max(ctype.size(self.ctx), 1)
        signed = getattr(ctype, "signed", True)
        return IntVal(self._load_raw(pointer, size, signed), bytes=size, signed=signed)

    def _load_raw(self, pointer: PtrVal, size: int, signed: bool) -> int:
        """Load a ``size``-byte scalar through a pointer as a raw int."""
        address = self.model.check_access(pointer, size, is_write=False)
        # _touch_memory inlined: tier 0 runs most of a sweep's memory ops here.
        self.memory_accesses += 1
        if self.collect_timing:
            self.cycles += self.hierarchy.access(address, size, is_write=False)
        return self.memory.read_small(address, size, signed)

    def _store_scalar(self, pointer: PtrVal, size: int, raw: int, entry=None) -> None:
        """Store ``raw`` as ``size`` bytes through a pointer.

        A pointer (or pointer-sized integer) store passes its value as
        ``entry``: it is written as 8 address bytes zero-padded to ``size``
        and, under models that keep metadata, remembered in the shadow table.
        """
        model = self.model
        address = model.check_access(pointer, size, is_write=True)
        # _touch_memory inlined, and _clear_shadow_range called only when it
        # has work: tier 0 runs most of a sweep's memory ops here.
        self.memory_accesses += 1
        if self.collect_timing:
            self.cycles += self.hierarchy.access(address, size, is_write=True)
        if self._clear_shadow and self.shadow.entries:
            self._clear_shadow_range(address, size)
        if entry is None:
            self.memory.write_small(address, size, raw)
            return
        self.memory.write_ptr_raw(address, raw, size)
        if model.uses_shadow:
            self.shadow.set(address, entry)

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

    # ------------------------------------------------------------------
    # Running programs
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: list | None = None) -> ExecutionResult:
        """Run ``entry`` (after ``__global_init``) and package the outcome.

        When the run ends, trap or not, every promoted function is unbound
        (its handler table emptied; the ``_code_cache`` entry stays for
        inspection): the handlers close over the machine, and the cycle
        would otherwise keep the finished run's memory alive until the
        cyclic collector runs.  A later run binds them afresh.
        """
        code_cache = self._code_cache
        for key in [key for key, code in code_cache.items() if len(code.paired) != code.size]:
            del code_cache[key]  # unbound by a previous run: bind afresh
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
        finally:
            for code in self._code_cache.values():
                code.paired = []
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
        )

    def release(self) -> None:
        """Drop what the run's promoted code holds.

        Tier-0 code binds nothing to the machine, and :meth:`run` empties
        every promoted function's handler table (``paired``) when it ends,
        which breaks the one reference cycle a machine forms (its handlers
        close over it).  This drops the rest: the code cache with each
        promoted function's handler table and frame pool, the tier-0 call
        counts and the pointer-load memo.  Counters and output stay
        readable; a released machine must not be run again.  :meth:`run`
        never releases (tests inspect ``_code_cache`` after a run) —
        callers that discard the machine may, as
        :class:`~repro.difftest.runner.DifferentialRunner` does after every
        model's run.
        """
        for code in self._code_cache.values():
            code.paired = []
            code.pool = []
        self._code_cache = {}
        self._calls = {}
        self._ptr_load_memo = {}

    # ------------------------------------------------------------------
    # Call frames
    # ------------------------------------------------------------------

    def _code_for(self, function: Function) -> CompiledFunction:
        """The bound form of ``function``, binding it on first use.

        The cached code holds its function, so the identity key cannot be
        reused while the entry lives.
        """
        code = self._code_cache.get(id(function))
        if code is None:
            code = self._code_cache[id(function)] = compile_function(self, function)
            ENGINE.pcs_bound += code.size
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
        """Run one function body to completion.

        An unpromoted function runs in tier 0 (:func:`repro.interp.tier0.run`)
        until it returns or one of its loops gets hot; it is promoted — bound,
        blocks installed — at its ``HOT_CALL_THRESHOLD``-th call, or at that
        hot loop's head, where the tier-0 frame continues in bound code.  The
        bound loop only meters the shared instruction/cycle counters and
        threads the program counter that each handler returns.
        """
        frame = None
        pc = 0
        if code is None:
            code = self._code_cache.get(id(function))
            if code is None:
                key = id(function)
                calls = self._calls[key] = self._calls.get(key, 0) + 1
                if calls >= HOT_CALL_THRESHOLD:
                    ENGINE.promoted_by_call += 1
                    code = self._code_for(function)
                else:
                    frame, pc = run_tier0(self, function, args, HOT_LOOP_THRESHOLD)
                    if pc is None:
                        return frame[2]
                    # A hot loop; a nested (recursive) call may have
                    # promoted the function meanwhile.
                    code = self._code_cache.get(key)
                    if code is None:
                        ENGINE.promoted_by_loop += 1
                        code = self._code_for(function)
        pool = code.pool
        if frame is None:
            # Frames come from a per-CompiledFunction pool: released frames
            # were reset to the prototype (alloca list kept attached, entries
            # cleared), so a call does not round-trip the allocator for the
            # register file.
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
        while pc < size:
            self.instructions = count = self.instructions + 1
            if count > max_instructions:
                raise InterpreterError(
                    f"instruction budget of {self.max_instructions} exhausted in {function.name}"
                )
            handler, cost = paired[pc]
            self.cycles += cost
            pc = handler(frame)
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

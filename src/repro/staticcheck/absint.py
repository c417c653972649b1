"""The multi-model abstract walk.

One :class:`Walk` executes an optimized IR module for *all* models of one
pointer layout simultaneously:

* the **raw state** — flat memory bytes, the object allocator, control
  flow, the instruction counter, checkpoints and program output — is shared
  across models, because generated programs are closed and deterministic and
  no model hook may change a raw value (models differ in *checks* and
  *metadata*, never in data);
* the **metadata planes** — each model's ``PtrVal`` bounds/tags/permissions,
  provenance on pointer-sized integers, and its shadow table — are tracked
  per model by calling the *real* model hooks (``check_access``,
  ``int_to_ptr``, ``reconcile_loaded_pointer``, ...), so the per-model trap
  decisions are the production decisions, not a re-implementation.

A model that definitely traps is *masked*: its trap is recorded and the
walk continues for the rest.  Anything the walk cannot mirror exactly
raises :class:`~repro.staticcheck.domain.Bail`, which resolves every model
still live to ``unknown`` — precision is lost, soundness is not.

The transfer functions below mirror tier 0's generic operations
(:mod:`repro.interp.tier0`, over :mod:`repro.interp.machine`'s scalar load
and store paths) instruction for instruction: bound code runs the same
operations wherever it does not specialise, and the golden tests pin the
two tiers to be observationally identical, so tier 0 is the canonical
semantics.  The instruction counter mirrors
the dynamic dispatch count exactly — one tick per IR instruction, each
dispatched and charged once — so budget exhaustion is predicted at the same
instruction the dynamic machines trap on.
"""

from __future__ import annotations

from repro.common.errors import (
    InterpreterError,
    MemorySafetyError,
    UndefinedBehaviorError,
)
from repro.common.rng import DeterministicRng
from repro.interp.heap import ObjectAllocator
from repro.interp.intrinsics import INTRINSICS, ExitProgram
from repro.interp.models import field_pointer, get_model, qualifier_mask
from repro.interp.shadow import ShadowTable
from repro.interp.values import (
    NULL_PTR,
    IntVal,
    Provenance,
    PtrVal,
    arithmetic_provenance,
    ptr_to_int,
    qualified,
)
from repro.interp.artifact import CMP_FUNCS, INT_BINOPS
from repro.minic.ir import Const, Function, GlobalRef, Module, Opcode, Temp
from repro.minic.typesys import IntType, PointerType, is_pointer_sized_int
from repro.sim.memory import TaggedMemory

from repro.staticcheck.domain import Bail, ModelOutcome, WalkOutcome

#: same flat address space the dynamic machines use.
_ADDRESS_SPACE = 1 << 40

#: the dynamic interpreter's call-depth ceiling (machine._call).
_CALL_DEPTH_LIMIT = 400


class _AllMasked(Exception):
    """Every model trapped; the walk has nothing left to execute."""


class _Plane:
    """One model's metadata plane: the model instance plus its shadow table."""

    __slots__ = ("name", "model", "shadow", "uses_shadow", "clear_shadow")

    def __init__(self, name: str) -> None:
        self.name = name
        self.model = get_model(name)
        self.uses_shadow = self.model.uses_shadow
        self.clear_shadow = (self.model.uses_shadow
                             and self.model.clear_shadow_on_data_store)
        self.shadow = ShadowTable() if self.uses_shadow else None


class Walk:
    """Execute ``module`` for all ``model_names`` (one pointer layout) at once."""

    def __init__(self, module: Module, model_names, *, budget: int) -> None:
        self.module = module
        self.ctx = module.context
        if self.ctx is None:
            raise Bail("module has no type context")
        self.planes = {name: _Plane(name) for name in model_names}
        widths = {plane.model.pointer_bytes for plane in self.planes.values()}
        if len(widths) != 1:
            raise Bail("mixed pointer layouts in one walk")
        self.pointer_bytes = widths.pop()
        if self.ctx.pointer_bytes != self.pointer_bytes:
            raise Bail("module layout does not match the walk's models")
        self.live: list[str] = list(model_names)
        self.traps: dict[str, Exception] = {}
        self.memory = TaggedMemory(_ADDRESS_SPACE)
        self.allocator = ObjectAllocator()
        self.globals: dict[str, dict] = {}
        self.output = bytearray()
        self.checkpoints: list[int] = []
        self.rng = DeterministicRng(12345)
        self.budget = budget
        self.steps = 0
        self.call_depth = 0
        #: name of the function currently executing (budget trap message).
        self._fname = ""

    # ------------------------------------------------------------------
    # Masking and per-model fan-out
    # ------------------------------------------------------------------

    def _mask(self, name: str, exc: Exception) -> None:
        self.live.remove(name)
        self.traps[name] = exc

    def _per_live(self, fn) -> dict:
        """Apply ``fn(plane)`` for every live model, masking the ones it traps.

        This is the only place per-model trap exceptions are caught; a trap
        raised *outside* a ``_per_live`` fan-out is by construction shared
        (operand errors, division by zero, budget, call depth) and handled
        at the walk top as "every live model traps here".
        """
        out = {}
        for name in tuple(self.live):
            try:
                out[name] = fn(self.planes[name])
            except (MemorySafetyError, UndefinedBehaviorError,
                    InterpreterError) as exc:
                self._mask(name, exc)
        if not self.live:
            raise _AllMasked()
        return out

    def _uniform(self, value) -> dict:
        return {name: value for name in self.live}

    def _rep(self, av):
        """Any live model's entry (raw halves agree by invariant)."""
        for name in self.live:
            entry = av.get(name)
            if entry is not None:
                return entry
        raise Bail("value has no entry for any live model")

    def _shared_address(self, addr_map: dict) -> int:
        addresses = set(addr_map.values())
        if len(addresses) != 1:
            # The raw-identity invariant broke — only bail keeps us sound.
            raise Bail("per-model address divergence")
        return addresses.pop()

    # ------------------------------------------------------------------
    # Operand evaluation (mirrors tier0._read / _read_ptr)
    # ------------------------------------------------------------------

    def _read(self, operand, env, args):
        kind = type(operand)
        if kind is Temp:
            index = operand.index
            value = env.get(index)
            if value is None:
                raise InterpreterError(f"use of undefined temporary {operand}")
            return value
        if kind is Const:
            ctype = operand.ctype
            if isinstance(ctype, PointerType):
                if operand.value == 0:
                    return self._uniform(NULL_PTR)
                as_int = IntVal(operand.value, bytes=8, signed=False)
                return self._per_live(
                    lambda p: p.model.int_to_ptr(as_int, self.allocator))
            size = ctype.size(self.ctx) if isinstance(ctype, IntType) else 8
            signed = getattr(ctype, "signed", True)
            return self._uniform(IntVal(operand.value, bytes=min(size, 8),
                                        signed=signed,
                                        pointer_sized=is_pointer_sized_int(ctype)))
        if kind is GlobalRef:
            av = self.globals.get(operand.name)
            if av is None:
                raise InterpreterError(f"use of unknown global {operand.name!r}")
            return av
        raise InterpreterError(f"cannot evaluate operand {operand!r}")

    def _ptr_av(self, av) -> dict:
        """Coerce an abstract value to per-model pointers (``tier0._read_ptr``)."""
        def coerce(plane):
            value = av[plane.name]
            if type(value) is PtrVal:
                return value
            if type(value) is IntVal:
                return plane.model.int_to_ptr(value, self.allocator)
            raise Bail(f"expected a pointer, got {type(value).__name__}")
        return self._per_live(coerce)

    @staticmethod
    def _apply_quals(plane, pointer, ptr_type):
        """A pointer taking type ``ptr_type`` (:func:`qualifier_mask`)."""
        if type(pointer) is not PtrVal or not isinstance(ptr_type, PointerType):
            return pointer
        return qualified(pointer, qualifier_mask(plane.model, ptr_type))

    # ------------------------------------------------------------------
    # Shadow mirror (machine._clear_shadow_range semantics, per plane)
    # ------------------------------------------------------------------

    def _clear_shadow_range(self, plane, address: int, size: int) -> None:
        if not plane.clear_shadow or not plane.shadow.entries:
            return
        shadow = plane.shadow
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

    # ------------------------------------------------------------------
    # Memory transfer functions (machine._load_scalar / hotgen.store_body)
    # ------------------------------------------------------------------

    def _reconstruct_pointer(self, plane, raw: int, entry):
        if entry is None:
            return plane.model.load_pointer_without_metadata(raw, self.allocator)
        if isinstance(entry, PtrVal):
            return plane.model.reconcile_loaded_pointer(raw, entry, self.allocator)
        if isinstance(entry, IntVal):
            return plane.model.int_to_ptr(
                entry.with_value(raw, provenance=entry.provenance), self.allocator)
        raise InterpreterError(f"corrupt shadow entry {entry!r}")

    @staticmethod
    def _reconstruct_psint(raw: int, entry, ctype) -> IntVal:
        signed = getattr(ctype, "signed", True)
        if isinstance(entry, IntVal) and entry.unsigned == raw:
            return IntVal(raw, bytes=8, signed=signed,
                          provenance=entry.provenance, pointer_sized=True)
        if isinstance(entry, PtrVal) and entry.address == raw:
            return IntVal(raw, bytes=8, signed=signed,
                          provenance=Provenance(entry), pointer_sized=True)
        return IntVal(raw, bytes=8, signed=signed, pointer_sized=True)

    def _load(self, ctype, ptr_av) -> dict:
        if isinstance(ctype, PointerType) or is_pointer_sized_int(ctype):
            width = self.pointer_bytes
            addresses = self._per_live(
                lambda p: p.model.check_access(ptr_av[p.name], width,
                                               is_write=False))
            address = self._shared_address(addresses)
            raw = int.from_bytes(self.memory.read_bytes(address, 8), "little")
            if isinstance(ctype, PointerType):
                def load_ptr(plane):
                    entry = (plane.shadow.get(address)
                             if plane.uses_shadow else None)
                    loaded = self._reconstruct_pointer(plane, raw, entry)
                    return self._apply_quals(plane, loaded, ctype)
                return self._per_live(load_ptr)

            def load_psint(plane):
                entry = plane.shadow.get(address) if plane.uses_shadow else None
                return self._reconstruct_psint(raw, entry, ctype)
            return self._per_live(load_psint)
        size = max(ctype.size(self.ctx), 1)
        addresses = self._per_live(
            lambda p: p.model.check_access(ptr_av[p.name], size, is_write=False))
        address = self._shared_address(addresses)
        signed = getattr(ctype, "signed", True)
        raw = self.memory.read_int(address, size, signed=signed)
        return self._uniform(IntVal(raw, bytes=size, signed=signed))

    def _store(self, ctype, ptr_av, value_av) -> None:
        if isinstance(ctype, PointerType) or is_pointer_sized_int(ctype):
            width = self.pointer_bytes
            addresses = self._per_live(
                lambda p: p.model.check_access(ptr_av[p.name], width,
                                               is_write=True))
            address = self._shared_address(addresses)
            raws = set()
            for name in self.live:
                value = value_av[name]
                raws.add(value.address if isinstance(value, PtrVal)
                         else value.unsigned)
            if len(raws) != 1:
                raise Bail("per-model raw divergence on pointer store")
            raw = raws.pop()
            for name in self.live:
                self._clear_shadow_range(self.planes[name], address, width)
            self.memory.write_bytes(
                address,
                raw.to_bytes(8, "little", signed=False) + b"\x00" * (width - 8))
            for name in self.live:
                plane = self.planes[name]
                if plane.uses_shadow:
                    plane.shadow.set(address, value_av[name])
            return
        size = max(ctype.size(self.ctx), 1)
        addresses = self._per_live(
            lambda p: p.model.check_access(ptr_av[p.name], size, is_write=True))
        address = self._shared_address(addresses)
        for name in self.live:
            self._clear_shadow_range(self.planes[name], address, size)
        value = self._rep(value_av)
        if not isinstance(value, IntVal):
            raise Bail("pointer stored through a scalar type")
        self.memory.write_int(address, size, value.unsigned)

    # ------------------------------------------------------------------
    # Checked byte helpers shared by the intrinsic mirrors
    # ------------------------------------------------------------------

    def _check_all(self, ptr_av, length: int, *, is_write: bool) -> int:
        addresses = self._per_live(
            lambda p: p.model.check_access(ptr_av[p.name], length,
                                           is_write=is_write))
        return self._shared_address(addresses)

    def _write_checked(self, ptr_av, data: bytes) -> None:
        """machine.write_checked_bytes for all live models at once."""
        if not data:
            return
        address = self._check_all(ptr_av, len(data), is_write=True)
        for name in self.live:
            self._clear_shadow_range(self.planes[name], address, len(data))
        self.memory.write_bytes(address, data)

    def _read_cstring(self, plane, pointer, limit: int = 1 << 20) -> bytes:
        """machine._read_cstring_bytewise for one plane (exact trap point)."""
        out = bytearray()
        cursor = pointer
        check_access = plane.model.check_access
        ptr_offset = plane.model.ptr_offset
        read_small = self.memory.read_small
        for _ in range(limit):
            address = check_access(cursor, 1, is_write=False)
            byte = read_small(address, 1, False)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor = ptr_offset(cursor, 1)
        raise InterpreterError("unterminated string (exceeded 1 MiB)")

    def _cstrings(self, ptr_av) -> tuple[bytes, dict]:
        """Per-model cstring read; returns (shared bytes, per-model cursor av)."""
        texts = self._per_live(lambda p: self._read_cstring(p, ptr_av[p.name]))
        shared = set(texts.values())
        if len(shared) != 1:
            raise Bail("per-model string read divergence")
        return shared.pop(), texts

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def _setup_globals(self) -> None:
        for name, var in self.module.globals.items():
            size = var.ctype.size(self.ctx)
            alignment = max(var.ctype.alignment(self.ctx), 8)
            if var.is_string:
                obj = self.allocator.allocate_string(size, name)
            else:
                obj = self.allocator.allocate_global(size, name,
                                                     alignment=alignment)
            if var.init_bytes:
                self.memory.write_bytes(obj.base, var.init_bytes)
            self.globals[name] = self._per_live(
                lambda p, obj=obj: p.model.make_pointer(obj))

    def run(self, entry: str = "main") -> WalkOutcome:
        outcome = WalkOutcome()
        bail_reason = None
        completed = False
        try:
            self._setup_globals()
            functions = self.module.functions
            if "__global_init" in functions:
                self._call(functions["__global_init"], [])
            main = functions.get(entry)
            if main is None:
                raise InterpreterError(f"program has no function {entry!r}")
            result_av = self._call(main, [])
            result = self._rep(result_av) if result_av else None
            if isinstance(result, IntVal):
                outcome.exit_code = result.value
            elif isinstance(result, PtrVal):
                outcome.exit_code = result.address
            else:
                outcome.exit_code = 0
            completed = True
        except ExitProgram as exc:
            outcome.exit_code = exc.code
            completed = True
        except _AllMasked:
            pass
        except Bail as exc:
            bail_reason = exc.reason
        except (MemorySafetyError, UndefinedBehaviorError,
                InterpreterError) as exc:
            # Shared trap: raised outside a per-model fan-out, so every
            # model still live traps here identically.
            for name in tuple(self.live):
                self._mask(name, exc)
        except RecursionError:
            bail_reason = "python recursion limit"
        for name, trap in self.traps.items():
            outcome.outcomes[name] = ModelOutcome("trap", trap)
        for name in self.live:
            outcome.outcomes[name] = (ModelOutcome("done") if completed
                                      else ModelOutcome("bail"))
        if completed:
            outcome.checkpoints = tuple(self.checkpoints)
            outcome.output = bytes(self.output)
        outcome.bail_reason = bail_reason
        outcome.steps = self.steps
        return outcome

    def _call(self, function: Function, args: list):
        if self.call_depth > _CALL_DEPTH_LIMIT:
            raise InterpreterError(
                f"call depth limit exceeded calling {function.name}")
        self.call_depth += 1
        self.allocator.push_frame()
        caller_name = self._fname
        self._fname = function.name
        try:
            return self._exec(function, args)
        finally:
            self.allocator.pop_frame()
            self.call_depth -= 1
            self._fname = caller_name

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _exec(self, function: Function, args: list):
        instrs = function.instrs
        labels = function.label_index()
        env: dict[int, dict] = {}
        allocas: dict[int, dict] = {}
        size = len(instrs)
        budget = self.budget
        pc = 0
        while pc < size:
            self.steps = count = self.steps + 1
            if count > budget:
                raise InterpreterError(
                    f"instruction budget of {budget} exhausted in "
                    f"{function.name}")
            instr = instrs[pc]
            op = instr.op
            next_pc = pc + 1

            if op is Opcode.LABEL or op is Opcode.NOP:
                pc = next_pc
                continue

            if op is Opcode.JUMP:
                pc = labels[instr.attrs["target"]]
                continue

            if op is Opcode.CJUMP:
                condition = self._rep(self._read(instr.args[0], env, args))
                if type(condition) is IntVal:
                    taken = condition.value != 0
                else:
                    taken = not condition.is_null
                pc = labels[instr.attrs["then"] if taken
                            else instr.attrs["else"]]
                continue

            if op is Opcode.RET:
                if instr.args:
                    return self._read(instr.args[0], env, args)
                return None

            result = None
            if op is Opcode.ALLOCA:
                result = allocas.get(pc)
                if result is None:
                    alloc_size = instr.attrs.get("size", 8)
                    alloc_type = instr.attrs.get("alloc_type")
                    alignment = max(8, alloc_type.alignment(self.ctx)
                                    if alloc_type is not None else 8)
                    obj = self.allocator.allocate_stack(
                        alloc_size, instr.attrs.get("name", ""),
                        alignment=alignment)
                    result = self._per_live(
                        lambda p, obj=obj: p.model.make_pointer(obj))
                    allocas[pc] = result

            elif op is Opcode.LOAD:
                ptr_av = self._ptr_av(self._read(instr.args[0], env, args))
                result = self._load(instr.ctype, ptr_av)

            elif op is Opcode.STORE:
                param_index = instr.attrs.get("param_index")
                if param_index is not None:
                    value_av = args[param_index]
                else:
                    value_av = self._read(instr.args[1], env, args)
                ptr_av = self._ptr_av(self._read(instr.args[0], env, args))
                self._store(instr.ctype, ptr_av, value_av)

            elif op is Opcode.GEP or op is Opcode.PTRADD:
                element_size = (instr.attrs["element_size"]
                                if op is Opcode.GEP else 1)
                ptr_av = self._ptr_av(self._read(instr.args[0], env, args))
                index = self._rep(self._read(instr.args[1], env, args))
                delta = (index.value if type(index) is IntVal
                         else index.address) * element_size
                result = self._per_live(
                    lambda p: p.model.ptr_offset(ptr_av[p.name], delta))

            elif op is Opcode.FIELD:
                field_type = (instr.ctype.pointee
                              if isinstance(instr.ctype, PointerType) else None)
                field_size = (field_type.size(self.ctx)
                              if field_type is not None else 1)
                offset = instr.attrs["offset"]
                ptr_av = self._ptr_av(self._read(instr.args[0], env, args))
                result = self._per_live(
                    lambda p: field_pointer(p.model, ptr_av[p.name], offset,
                                            field_size))

            elif op is Opcode.PTRDIFF:
                a_av = self._ptr_av(self._read(instr.args[0], env, args))
                b_av = self._ptr_av(self._read(instr.args[1], env, args))
                element_size = instr.attrs.get("element_size", 1)
                result = self._per_live(
                    lambda p: IntVal(p.model.ptr_diff(a_av[p.name],
                                                      b_av[p.name],
                                                      element_size),
                                     bytes=8, signed=True))

            elif op is Opcode.PTRTOINT:
                target = instr.ctype
                width = min(target.size(self.ctx), 8)
                signed = getattr(target, "signed", True)
                pointer_sized = is_pointer_sized_int(target)
                ptr_av = self._ptr_av(self._read(instr.args[0], env, args))
                result = self._per_live(
                    lambda p: ptr_to_int(ptr_av[p.name], bytes=width,
                                         signed=signed,
                                         pointer_sized=pointer_sized))

            elif op is Opcode.INTTOPTR:
                value_av = self._read(instr.args[0], env, args)

                def to_ptr(plane, value_av=value_av, ctype=instr.ctype):
                    value = value_av[plane.name]
                    pointer = (value if type(value) is PtrVal
                               else plane.model.int_to_ptr(value,
                                                           self.allocator))
                    return self._apply_quals(plane, pointer, ctype)
                result = self._per_live(to_ptr)

            elif op is Opcode.BITCAST:
                value_av = self._read(instr.args[0], env, args)

                def bitcast(plane, value_av=value_av, ctype=instr.ctype):
                    return self._apply_quals(plane, value_av[plane.name], ctype)
                result = self._per_live(bitcast)

            elif op is Opcode.INTCAST:
                target = instr.ctype
                width = min(target.size(self.ctx), 8)
                signed = getattr(target, "signed", True)
                pointer_sized = is_pointer_sized_int(target)
                value_av = self._read(instr.args[0], env, args)

                def intcast(plane, value_av=value_av, width=width,
                            signed=signed, pointer_sized=pointer_sized):
                    value = value_av[plane.name]
                    if type(value) is PtrVal:
                        return ptr_to_int(value, bytes=width, signed=signed,
                                          pointer_sized=pointer_sized)
                    if (value.bytes == width and value.signed == signed
                            and value.pointer_sized == pointer_sized):
                        return value
                    return value.converted(bytes=width, signed=signed,
                                           pointer_sized=pointer_sized)
                result = self._per_live(intcast)

            elif op is Opcode.BINOP:
                result = self._binop(instr, env, args)

            elif op is Opcode.UNOP:
                negate = instr.attrs["operator"] == "neg"
                value = self._rep(self._read(instr.args[0], env, args))
                if type(value) is not IntVal:
                    raise InterpreterError("unary arithmetic on a pointer value")
                result = self._uniform(
                    value.with_value(-value.value if negate else ~value.value,
                                     provenance=None))

            elif op is Opcode.CMP:
                result = self._cmp(instr, env, args)

            elif op is Opcode.CALL:
                result = self._do_call(instr, env, args)

            else:
                raise InterpreterError(f"unsupported IR opcode {op}")

            if instr.dest is not None and result is not None:
                env[instr.dest.index] = result
            pc = next_pc
        return None

    # ------------------------------------------------------------------
    # Arithmetic / comparison transfer functions
    # ------------------------------------------------------------------

    def _binop(self, instr, env, args) -> dict:
        operator = instr.attrs["operator"]
        fast_op = INT_BINOPS.get(operator)
        is_division = operator in ("/", "%")
        if fast_op is None and not is_division:
            raise InterpreterError(f"unknown binary operator {operator!r}")
        target = instr.ctype
        width = min(target.size(self.ctx), 8) if target is not None else 8
        signed = getattr(target, "signed", True)
        pointer_sized = is_pointer_sized_int(target)
        left_av = self._read(instr.args[0], env, args)
        right_av = self._read(instr.args[1], env, args)
        is_div_op = operator == "/"

        def binop(plane):
            left = left_av[plane.name]
            right = right_av[plane.name]
            if type(left) is not IntVal:
                left = ptr_to_int(left, bytes=8, signed=False,
                                  pointer_sized=True)
            if type(right) is not IntVal:
                right = ptr_to_int(right, bytes=8, signed=False,
                                   pointer_sized=True)
            a = left.value
            b = right.value
            if is_division:
                if b == 0:
                    raise UndefinedBehaviorError("integer division by zero")
                quotient = abs(a) // abs(b)
                signed_quotient = (quotient if (a >= 0) == (b >= 0)
                                   else -quotient)
                raw = (signed_quotient if is_div_op
                       else a - signed_quotient * b)
            else:
                raw = fast_op(a, b)
            provenance = arithmetic_provenance(left, right)
            return IntVal(raw, bytes=width, signed=signed,
                          provenance=provenance, pointer_sized=pointer_sized)
        return self._per_live(binop)

    def _cmp(self, instr, env, args) -> dict:
        operator = instr.attrs["operator"]
        compare = CMP_FUNCS.get(operator)
        if compare is None:
            raise Bail(f"unknown comparison operator {operator!r}")
        left_av = self._read(instr.args[0], env, args)
        right_av = self._read(instr.args[1], env, args)

        def cmp(plane):
            left = left_av[plane.name]
            right = right_av[plane.name]
            result = compare(
                left.address if type(left) is PtrVal else left.value,
                right.address if type(right) is PtrVal else right.value)
            return IntVal(1 if result else 0, bytes=4)
        results = self._per_live(cmp)
        raws = {value.value for value in results.values()}
        if len(raws) != 1:
            raise Bail("per-model comparison divergence")
        return results

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _do_call(self, instr, env, args):
        callee = instr.attrs["callee"]
        function = self.module.functions.get(callee)
        arg_avs = [self._read(arg, env, args) for arg in instr.args]
        if function is not None and function.instrs:
            params = function.params
            coerced = []
            for index, av in enumerate(arg_avs):
                param_type = (params[index][1] if index < len(params)
                              else None)
                if isinstance(param_type, PointerType):
                    # An integer argument converts through the model; a
                    # pointer already carries its type's qualifiers.
                    def coerce(plane, av=av):
                        value = av[plane.name]
                        if type(value) is IntVal:
                            return plane.model.int_to_ptr(value,
                                                          self.allocator)
                        return value
                    coerced.append(self._per_live(coerce))
                else:
                    coerced.append(av)
            return self._call(function, coerced)
        mirror = _INTRINSIC_MIRRORS.get(callee)
        if mirror is None:
            if callee in INTRINSICS:
                raise Bail(f"unsupported intrinsic {callee!r}")
            raise InterpreterError(f"call to unknown function {callee!r}")
        return mirror(self, arg_avs, instr)


# ---------------------------------------------------------------------------
# Intrinsic mirrors (repro.interp.intrinsics, multi-model)
# ---------------------------------------------------------------------------


def _as_int(value) -> int:
    if isinstance(value, IntVal):
        return value.value
    if isinstance(value, PtrVal):
        return value.address
    raise InterpreterError(f"expected an integer argument, got {value!r}")


def _as_size(value) -> int:
    if isinstance(value, IntVal):
        return value.unsigned
    if isinstance(value, PtrVal):
        return value.address
    raise InterpreterError(f"expected a size argument, got {value!r}")


def _arg_ptr(walk: Walk, av) -> dict:
    return walk._ptr_av(av)


def _i_malloc(walk: Walk, args, instr):
    size = _as_size(walk._rep(args[0]))
    obj = walk.allocator.allocate_heap(
        size, alignment=max(16, walk.planes[walk.live[0]].model.pointer_align))
    return walk._per_live(lambda p: p.model.make_pointer(obj))


def _i_calloc(walk: Walk, args, instr):
    count = _as_size(walk._rep(args[0]))
    size = _as_size(walk._rep(args[1]))
    obj = walk.allocator.allocate_heap(
        count * size,
        alignment=max(16, walk.planes[walk.live[0]].model.pointer_align))
    return walk._per_live(lambda p: p.model.make_pointer(obj))


def _i_free(walk: Walk, args, instr):
    ptr_av = _arg_ptr(walk, args[0])
    if walk._rep(ptr_av).is_null:
        return None

    def resolve(plane):
        pointer = ptr_av[plane.name]
        obj = pointer.obj or walk.allocator.find(pointer.address)
        if obj is None or obj.kind != "heap":
            raise MemorySafetyError(
                f"free() of a non-heap pointer at {pointer.address:#x}",
                address=pointer.address, cause="badfree")
        return obj
    objs = walk._per_live(resolve)
    distinct = {id(obj) for obj in objs.values()}
    if len(distinct) != 1:
        raise Bail("per-model free target divergence")
    # allocator.free raises InterpreterError on a double free — shared.
    walk.allocator.free(next(iter(objs.values())))
    return None


def _i_memcpy(walk: Walk, args, instr):
    dst_av = _arg_ptr(walk, args[0])
    src_av = _arg_ptr(walk, args[1])
    length = _as_size(walk._rep(args[2]))
    if length == 0:
        return dst_av
    src_addresses = walk._per_live(
        lambda p: p.model.check_access(src_av[p.name], length, is_write=False))
    src_address = walk._shared_address(src_addresses)
    dst_addresses = walk._per_live(
        lambda p: p.model.check_access(dst_av[p.name], length, is_write=True))
    dst_address = walk._shared_address(dst_addresses)
    data = walk.memory.read_bytes(src_address, length)
    for name in walk.live:
        walk._clear_shadow_range(walk.planes[name], dst_address, length)
    walk.memory.write_bytes(dst_address, data)
    delta = dst_address - src_address
    for name in walk.live:
        plane = walk.planes[name]
        if not plane.uses_shadow or not plane.shadow.entries:
            continue
        shadow = plane.shadow
        moved = shadow.entries_in_range(src_address, src_address + length)
        moved_keys = {key + delta for key, _ in moved}
        for key in shadow.addresses_in_range(dst_address,
                                             dst_address + length):
            if key not in moved_keys:
                del shadow[key]
        for key, value in moved:
            shadow.set(key + delta, value)
    return dst_av


def _i_memset(walk: Walk, args, instr):
    dst_av = _arg_ptr(walk, args[0])
    byte = _as_int(walk._rep(args[1])) & 0xFF
    length = _as_size(walk._rep(args[2]))
    walk._write_checked(dst_av, bytes([byte]) * length)
    return dst_av


def _i_memcmp(walk: Walk, args, instr):
    length = _as_size(walk._rep(args[2]))
    a_av = _arg_ptr(walk, args[0])
    b_av = _arg_ptr(walk, args[1])
    if length == 0:
        a = b = b""
    else:
        a_address = walk._check_all(a_av, length, is_write=False)
        a = walk.memory.read_bytes(a_address, length)
        b_address = walk._check_all(b_av, length, is_write=False)
        b = walk.memory.read_bytes(b_address, length)
    if a == b:
        return walk._uniform(IntVal(0, bytes=4))
    return walk._uniform(IntVal(-1 if a < b else 1, bytes=4))


def _i_strlen(walk: Walk, args, instr):
    text, _ = walk._cstrings(_arg_ptr(walk, args[0]))
    return walk._uniform(IntVal(len(text), bytes=8, signed=False))


def _i_strcmp(walk: Walk, args, instr):
    a, _ = walk._cstrings(_arg_ptr(walk, args[0]))
    b, _ = walk._cstrings(_arg_ptr(walk, args[1]))
    if a == b:
        return walk._uniform(IntVal(0, bytes=4))
    return walk._uniform(IntVal(-1 if a < b else 1, bytes=4))


def _i_strncmp(walk: Walk, args, instr):
    limit = _as_size(walk._rep(args[2]))
    a, _ = walk._cstrings(_arg_ptr(walk, args[0]))
    b, _ = walk._cstrings(_arg_ptr(walk, args[1]))
    a, b = a[:limit], b[:limit]
    if a == b:
        return walk._uniform(IntVal(0, bytes=4))
    return walk._uniform(IntVal(-1 if a < b else 1, bytes=4))


def _i_strcpy(walk: Walk, args, instr):
    dst_av = _arg_ptr(walk, args[0])
    text, _ = walk._cstrings(_arg_ptr(walk, args[1]))
    walk._write_checked(dst_av, text + b"\x00")
    return dst_av


def _i_strncpy(walk: Walk, args, instr):
    dst_av = _arg_ptr(walk, args[0])
    limit = _as_size(walk._rep(args[2]))
    text, _ = walk._cstrings(_arg_ptr(walk, args[1]))
    text = text[:limit]
    padded = text + b"\x00" * (limit - len(text))
    walk._write_checked(dst_av, padded[:limit])
    return dst_av


def _i_strchr(walk: Walk, args, instr):
    ptr_av = _arg_ptr(walk, args[0])
    needle = _as_int(walk._rep(args[1])) & 0xFF
    text, _ = walk._cstrings(ptr_av)
    index = (text + b"\x00").find(bytes([needle]))
    if index < 0:
        return walk._uniform(NULL_PTR)
    return walk._per_live(lambda p: p.model.ptr_offset(ptr_av[p.name], index))


def _i_strcat(walk: Walk, args, instr):
    dst_av = _arg_ptr(walk, args[0])
    existing, _ = walk._cstrings(dst_av)
    suffix, _ = walk._cstrings(_arg_ptr(walk, args[1]))
    tail_av = walk._per_live(
        lambda p: p.model.ptr_offset(dst_av[p.name], len(existing)))
    walk._write_checked(tail_av, suffix + b"\x00")
    return dst_av


class _FormatBail:
    """Duck-typed machine handed to intrinsics._format: any model-dependent
    path (a ``%s`` string read, an int-to-pointer coercion) bails the walk
    instead of silently diverging from the per-model dynamic semantics."""

    def read_cstring(self, pointer):
        raise Bail("printf %s conversion")

    def __getattr__(self, name):
        raise Bail(f"printf conversion needs machine.{name}")


def _i_printf(walk: Walk, args, instr):
    from repro.interp.intrinsics import _format
    template, _ = walk._cstrings(_arg_ptr(walk, args[0]))
    rep_args = [walk._rep(av) for av in args[1:]]
    text = _format(_FormatBail(), template, rep_args)
    walk.output.extend(text)
    return walk._uniform(IntVal(len(text), bytes=4))


def _i_putchar(walk: Walk, args, instr):
    value = _as_int(walk._rep(args[0]))
    walk.output.extend(bytes([value & 0xFF]))
    return walk._uniform(IntVal(value, bytes=4))


def _i_puts(walk: Walk, args, instr):
    text, _ = walk._cstrings(_arg_ptr(walk, args[0]))
    walk.output.extend(text + b"\n")
    return walk._uniform(IntVal(0, bytes=4))


def _i_abs(walk: Walk, args, instr):
    return walk._uniform(IntVal(abs(_as_int(walk._rep(args[0]))), bytes=4))


def _i_labs(walk: Walk, args, instr):
    return walk._uniform(IntVal(abs(_as_int(walk._rep(args[0]))), bytes=8))


def _i_exit(walk: Walk, args, instr):
    raise ExitProgram(_as_int(walk._rep(args[0])) if args else 0)


def _i_abort(walk: Walk, args, instr):
    raise ExitProgram(134)


def _i_assert(walk: Walk, args, instr):
    if not _as_int(walk._rep(args[0])):
        raise UndefinedBehaviorError("assertion failed in interpreted program")
    return None


def _i_rand(walk: Walk, args, instr):
    return walk._uniform(IntVal(walk.rng.randint(0, 0x7FFFFFFF), bytes=4))


def _i_srand(walk: Walk, args, instr):
    seed = _as_int(walk._rep(args[0]))
    walk.rng = DeterministicRng(seed or 1)
    return None


def _i_mini_output_int(walk: Walk, args, instr):
    walk.output.extend(str(_as_int(walk._rep(args[0]))).encode() + b"\n")
    return None


def _i_mini_checkpoint(walk: Walk, args, instr):
    walk.checkpoints.append(_as_int(walk._rep(args[0])))
    return None


_INTRINSIC_MIRRORS = {
    "malloc": _i_malloc,
    "calloc": _i_calloc,
    "free": _i_free,
    "memcpy": _i_memcpy,
    "memmove": _i_memcpy,
    "memset": _i_memset,
    "memcmp": _i_memcmp,
    "strlen": _i_strlen,
    "strcmp": _i_strcmp,
    "strncmp": _i_strncmp,
    "strcpy": _i_strcpy,
    "strncpy": _i_strncpy,
    "strchr": _i_strchr,
    "strcat": _i_strcat,
    "printf": _i_printf,
    "putchar": _i_putchar,
    "puts": _i_puts,
    "abs": _i_abs,
    "labs": _i_labs,
    "exit": _i_exit,
    "abort": _i_abort,
    "assert": _i_assert,
    "rand": _i_rand,
    "srand": _i_srand,
    "mini_output_int": _i_mini_output_int,
    "mini_checkpoint": _i_mini_checkpoint,
}

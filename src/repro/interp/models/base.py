"""The memory-model interface and its default (bounds-checking) behaviour.

A :class:`MemoryModel` answers every pointer-related question the abstract
machine asks:

* how big is a pointer in memory (``pointer_bytes``), which drives struct
  layout and cache behaviour;
* how pointers are created, moved and subtracted;
* what happens when a pointer is cast to an integer and back;
* what checks run when a pointer is dereferenced;
* how pointers survive (or do not survive) being stored to memory.

The base class implements a conventional fat-pointer/bounds-checking policy;
the concrete models override only the points where the paper's Table 3 says
they differ.  Keeping the differences small and explicit is the point: the
table's "yes/no" pattern should be traceable to individual overridden
methods.  Pointer comparison (address order) and the provenance of integer
arithmetic (:func:`~repro.interp.values.arithmetic_provenance`) are machine
semantics, not hooks: no model differs there.
"""

from __future__ import annotations

from repro.common.errors import BoundsViolation, MemorySafetyError, PermissionViolation, TagViolation
from repro.interp.heap import HeapObject, ObjectAllocator
from repro.interp.values import (
    NULL_PTR,
    PERM_ALL,
    PERM_READ,
    PERM_WRITE,
    IntVal,
    Provenance,
    PtrVal,
)


class MemoryModel:
    """Base class: a spatially safe fat-pointer interpretation of C."""

    #: registry name; overridden by every subclass.
    name = "base"
    #: human-readable label used in benchmark tables.
    label = "Bounds-checked base model"
    #: in-memory pointer representation size / alignment.
    pointer_bytes = 8
    pointer_align = 8
    #: does the model enforce ``const`` at run time (CHERIv2 did; §4.1)?
    enforces_const = False
    #: does the model honour the ``__input`` / ``__output`` qualifiers?
    capability_qualifiers = False
    #: does taking the address of a struct member narrow bounds to the member?
    narrow_field_bounds = False
    #: does the model keep out-of-band metadata for pointers stored to memory
    #: (tags or a look-aside table)?  PDP-11 and Relaxed reconstruct pointers
    #: purely from their in-memory integer value and set this to False.
    uses_shadow = True
    #: is a stored pointer's metadata invalidated by overlapping data stores
    #: (tagged-memory behaviour)?  False models a separate look-aside table.
    clear_shadow_on_data_store = True
    #: short annotation used when printing Table 3 ("(yes)" caveats).
    int_roundtrip_note = ""

    def __init__(self) -> None:
        self.traps = 0

    # ------------------------------------------------------------------
    # Pointer creation
    # ------------------------------------------------------------------

    def make_pointer(self, obj: HeapObject, *, address: int | None = None, perms: int = PERM_ALL) -> PtrVal:
        """A pointer to (part of) a live object, carrying the object's bounds."""
        return PtrVal(
            address=obj.base if address is None else address,
            base=obj.base,
            length=obj.size,
            obj=obj,
            perms=perms,
            tag=True,
        )

    def null_pointer(self) -> PtrVal:
        return NULL_PTR

    # ------------------------------------------------------------------
    # Pointer arithmetic
    # ------------------------------------------------------------------

    def ptr_offset(self, ptr: PtrVal, delta_bytes: int) -> PtrVal:
        """Move a pointer by a byte delta (gep / ptradd).

        The default policy is the CHERIv3/fat-pointer one: the cursor moves
        freely (invalid intermediates allowed); bounds are enforced at
        dereference time.
        """
        return ptr.moved_by(delta_bytes)

    def field_address(self, ptr: PtrVal, offset: int, field_size: int) -> PtrVal:
        """Address of a struct member.  MPX narrows bounds here; others do not.

        Narrowing is an *intersection* with the existing bounds (as MPX's
        ``__bnd_narrow`` is): a pointer that has already wandered outside its
        bounds cannot regain access by naming a field.
        """
        moved = self.ptr_offset(ptr, offset)
        if self.narrow_field_bounds and moved.tag and moved.checked:
            base = max(moved.address, moved.base)
            top = min(moved.address + field_size, moved.top)
            return moved.with_bounds(base, max(top - base, 0))
        return moved

    def ptr_diff(self, a: PtrVal, b: PtrVal, element_size: int) -> int:
        """Pointer subtraction (the SUB idiom); supported by default."""
        return (a.address - b.address) // max(element_size, 1)

    # ------------------------------------------------------------------
    # Integer <-> pointer conversions
    # ------------------------------------------------------------------

    def ptr_to_int(self, ptr: PtrVal, *, bytes: int, signed: bool, pointer_sized: bool) -> IntVal:
        """ptrtoint: the integer value is the address; provenance is recorded."""
        provenance = None if ptr.is_null else Provenance(pointer=ptr)
        return IntVal(value=ptr.address, bytes=bytes, signed=signed,
                      provenance=provenance, pointer_sized=pointer_sized)

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        """inttoptr: the default model requires intact, unmodified provenance."""
        if value.unsigned == 0:
            return self.null_pointer()
        provenance = value.provenance
        if provenance is not None and not provenance.modified:
            return provenance.pointer.moved_to(value.unsigned)
        return PtrVal(address=value.unsigned, base=0, length=0, obj=None, perms=0, tag=False)

    # ------------------------------------------------------------------
    # Qualifier handling
    # ------------------------------------------------------------------

    def apply_const(self, ptr: PtrVal) -> PtrVal:
        """Called when a pointer is converted to a pointer-to-const type."""
        if self.enforces_const and ptr.tag:
            return ptr.with_perms(ptr.perms & ~PERM_WRITE)
        return ptr

    def apply_input_qualifier(self, ptr: PtrVal) -> PtrVal:
        """``__input``: hardware-enforced read-only view (paper §4.1)."""
        if self.capability_qualifiers and ptr.tag:
            return ptr.with_perms(ptr.perms & ~PERM_WRITE)
        return ptr

    def apply_output_qualifier(self, ptr: PtrVal) -> PtrVal:
        """``__output``: hardware-enforced write-only view (paper §4.1)."""
        if self.capability_qualifiers and ptr.tag:
            return ptr.with_perms(ptr.perms & ~PERM_READ)
        return ptr

    def deconst(self, ptr: PtrVal) -> PtrVal:
        """Casting away const never *restores* rights (monotonicity)."""
        return ptr

    # ------------------------------------------------------------------
    # Access checking
    # ------------------------------------------------------------------

    def check_access(self, ptr: PtrVal, size: int, *, is_write: bool) -> int:
        """Validate a dereference; return the effective address or raise."""
        address = ptr.address
        obj = ptr.obj
        if address == 0 and obj is None:
            raise MemorySafetyError("dereference of a null pointer", address=0, cause="null")
        if not ptr.tag:
            self.traps += 1
            raise TagViolation(f"dereference of an invalid pointer at {address:#x}",
                               address=address)
        if not ptr.checked:
            return address
        if not ptr.perms & (PERM_WRITE if is_write else PERM_READ):
            self.traps += 1
            kind = "write" if is_write else "read"
            raise PermissionViolation(f"{kind} through a pointer lacking permission at {address:#x}",
                                      address=address)
        if obj is not None and getattr(obj, "freed", False):
            self.traps += 1
            raise MemorySafetyError(f"use of {obj} after its lifetime ended", address=address,
                                    cause="uaf")
        base = ptr.base
        if not (base <= address and address + size <= base + ptr.length):
            self.traps += 1
            raise BoundsViolation(
                f"access of {size} bytes at {address:#x} outside [{base:#x}, {ptr.top:#x})",
                address=address,
            )
        return address

    # ------------------------------------------------------------------
    # Pointers in memory
    # ------------------------------------------------------------------

    def load_pointer_without_metadata(self, raw_address: int, allocator: ObjectAllocator) -> PtrVal:
        """Reconstruct a pointer loaded from memory with no shadow entry.

        The default is the fail-closed answer: the raw address alone does not
        authorise access.
        """
        if raw_address == 0:
            return self.null_pointer()
        return PtrVal(address=raw_address, base=0, length=0, obj=None, perms=0, tag=False)

    def reconcile_loaded_pointer(self, raw_address: int, stored: PtrVal, allocator: ObjectAllocator) -> PtrVal:
        """Combine the raw bytes of a pointer with its shadow-table entry.

        Called when a pointer is loaded and a shadow entry exists for the
        location.  ``raw_address`` is what the data bytes say; ``stored`` is
        the metadata remembered when a pointer was last stored there.  The
        default trusts the metadata when the address still matches and fails
        closed otherwise.
        """
        if raw_address == stored.address:
            return stored
        return self.load_pointer_without_metadata(raw_address, allocator)

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Metadata used by reports and benchmark output."""
        return {
            "name": self.name,
            "label": self.label,
            "pointer_bytes": self.pointer_bytes,
            "enforces_const": self.enforces_const,
            "narrow_field_bounds": self.narrow_field_bounds,
            "tagged_memory": self.clear_shadow_on_data_store,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name}>"

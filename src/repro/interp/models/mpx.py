"""The Intel MPX model (paper §5.1 and §6).

MPX also keeps bounds in look-aside tables keyed by the pointer's storage
location, but makes the opposite compatibility trade-off to HardBound:

* it **fails open**: "If a pointer is modified in such a way that the MPX
  extensions are not updated, then the value will fail its check against the
  copy of the pointer in the look-aside table ... If this occurs, then the
  bounds checks succeed unconditionally";
* the compiler narrows bounds when it takes the address of a struct member,
  which is why MPX fails the CONTAINER idiom ("the compiler associated bounds
  with the inner pointer and so hit a bounds check").
"""

from __future__ import annotations

from repro.interp.heap import ObjectAllocator
from repro.interp.models.base import MemoryModel
from repro.interp.values import NULL_PTR, PERM_ALL, IntVal, PtrVal


class MpxModel(MemoryModel):
    """Fail-open, table-based bounds checking with field narrowing."""

    name = "mpx"
    label = "Intel MPX (fail open)"
    pointer_bytes = 8
    pointer_align = 8
    uses_shadow = True
    clear_shadow_on_data_store = False
    narrow_field_bounds = True
    int_roundtrip_note = "(yes)"

    def _unchecked(self, address: int) -> PtrVal:
        return PtrVal(address=address, base=0, length=1 << 64, obj=None,
                      perms=PERM_ALL, tag=True, checked=False)

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        if value.unsigned == 0:
            return NULL_PTR
        provenance = value.provenance
        if provenance is not None and not provenance.modified:
            return provenance.pointer.moved_to(value.unsigned)
        # Bounds could not be tracked: fail open (checks pass unconditionally).
        return self._unchecked(value.unsigned)

    def load_pointer_without_metadata(self, raw_address: int, allocator: ObjectAllocator) -> PtrVal:
        if raw_address == 0:
            return NULL_PTR
        return self._unchecked(raw_address)

    def reconcile_loaded_pointer(self, raw_address: int, stored: PtrVal, allocator: ObjectAllocator) -> PtrVal:
        if raw_address == stored.address:
            return stored
        # The value in memory no longer matches the bounds-table entry: the
        # check against the table fails, and MPX then skips bounds checking.
        return self._unchecked(raw_address)

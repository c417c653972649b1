"""The Relaxed interpreter (paper §5.1).

"Relaxed interpreter allows pointers to be constructed from integer values as
long as the object is still valid" — the integer value of a pointer is its
address, and converting an integer back to a pointer looks the address up in
the live-object map and re-attaches that object's bounds.  This supports every
idiom except WIDE, at the cost that "best effort" translation can construct
valid-but-incorrect pointers (the weakness the paper contrasts with CHERI).
"""

from __future__ import annotations

from repro.interp.heap import ObjectAllocator
from repro.interp.models.base import MemoryModel
from repro.interp.values import NULL_PTR, IntVal, PtrVal


class RelaxedModel(MemoryModel):
    """Object-map reconstruction of pointers from integers."""

    name = "relaxed"
    label = "Relaxed interpreter (object lookup)"
    pointer_bytes = 8
    pointer_align = 8
    uses_shadow = False
    int_roundtrip_note = ""

    def _pointer_for_address(self, address: int, allocator: ObjectAllocator) -> PtrVal:
        if address == 0:
            return NULL_PTR
        obj = allocator.find(address)
        if obj is None:
            # No live object contains this address: the reconstruction fails
            # and the result traps on use.
            return PtrVal(address=address, base=0, length=0, obj=None, perms=0, tag=False)
        return self.make_pointer(obj, address=address)

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        return self._pointer_for_address(value.unsigned, allocator)

    def load_pointer_without_metadata(self, raw_address: int, allocator: ObjectAllocator) -> PtrVal:
        return self._pointer_for_address(raw_address, allocator)

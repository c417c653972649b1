"""The CHERIv3 model — the paper's contribution (§4.1, rightmost Table 3 column).

CHERIv3 merges the capability model with fat-pointer research: a capability is
``(base, length, offset, permissions)``, where the *offset* is the C pointer
value relative to the base.  The bounds never move; the offset moves freely;
checks happen at dereference.  That single change makes the SUB, CONTAINER,
II, IA and MASK idioms all expressible while keeping the capability
guarantees (unforgeability, monotonic rights):

* arithmetic on ``intcap_t`` values "performs arithmetic on these using the
  offset, and so does permit arbitrary arithmetic";
* ``const`` becomes advisory again; the hardware-enforced read-only view is
  provided by the new ``__input`` qualifier instead.
"""

from __future__ import annotations

from repro.interp.heap import ObjectAllocator
from repro.interp.models.base import MemoryModel
from repro.interp.values import NULL_PTR, IntVal, PtrVal


class CheriV3Model(MemoryModel):
    """Capabilities with a free-moving offset (hardware fat pointers)."""

    name = "cheri_v3"
    label = "CHERIv3 (capabilities with offset)"
    enforces_const = False
    capability_qualifiers = True
    uses_shadow = True
    clear_shadow_on_data_store = True  # tagged memory
    int_roundtrip_note = "(yes)"

    def __init__(self, *, capability_bytes: int = 32) -> None:
        super().__init__()
        self.pointer_bytes = capability_bytes
        self.pointer_align = capability_bytes

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        if value.unsigned == 0:
            return NULL_PTR
        provenance = value.provenance
        if provenance is None:
            # A plain integer with no capability provenance can never become a
            # valid capability (unforgeability).
            return PtrVal(address=value.unsigned, base=0, length=0, obj=None, perms=0, tag=False)
        if value.pointer_sized or not provenance.modified:
            # intcap_t arithmetic adjusts the offset of the underlying
            # capability; the result is valid as long as it is brought back
            # within bounds before being dereferenced.
            return provenance.pointer.moved_to(value.unsigned)
        return PtrVal(address=value.unsigned, base=0, length=0, obj=None, perms=0, tag=False)

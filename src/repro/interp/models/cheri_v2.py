"""The CHERI ISAv2 model (paper §4, "CHERIv2" column of Table 3).

CHERIv2 capabilities are ``(base, length, permissions)`` with no offset: the
pointer *is* the base.  The consequences the paper documents — and which this
model reproduces — are:

* pointer addition is a monotonic ``CIncBase``: the accessible region shrinks
  from below, and any arithmetic that would move the base backwards or past
  the top makes the capability invalid, so the SUB, CONTAINER and II idioms
  all break;
* pointer subtraction simply is not expressible;
* ``const`` is enforced by removing the store permission, which "broke a
  large amount of code" (the DECONST row is "no");
* pointers survive integer round trips only through ``intcap_t`` and only if
  the integer is not modified.
"""

from __future__ import annotations

from repro.common.errors import MemorySafetyError
from repro.interp.heap import ObjectAllocator
from repro.interp.models.base import MemoryModel
from repro.interp.values import NULL_PTR, IntVal, PtrVal


class CheriV2Model(MemoryModel):
    """Capabilities without an offset: monotonic bounds, no subtraction."""

    name = "cheri_v2"
    label = "CHERIv2 (capabilities, no offset)"
    enforces_const = True
    capability_qualifiers = True
    uses_shadow = True
    clear_shadow_on_data_store = True  # tagged memory
    int_roundtrip_note = "(yes)"

    def __init__(self, *, capability_bytes: int = 32) -> None:
        super().__init__()
        self.pointer_bytes = capability_bytes
        self.pointer_align = capability_bytes

    def ptr_offset(self, ptr: PtrVal, delta_bytes: int) -> PtrVal:
        """CIncBase semantics: the base moves up and the region shrinks.

        Negative deltas and deltas that run past the end of the region are
        not representable and invalidate the capability.
        """
        if not ptr.tag:
            return ptr.moved_by(delta_bytes)
        remaining = ptr.top - ptr.address
        if delta_bytes < 0 or delta_bytes > remaining:
            return ptr.moved_by(delta_bytes).untagged()
        moved = ptr.moved_by(delta_bytes)
        return moved.with_bounds(moved.address, ptr.top - moved.address)

    def ptr_diff(self, a: PtrVal, b: PtrVal, element_size: int) -> int:
        self.traps += 1
        raise MemorySafetyError(
            "pointer subtraction is not supported by the CHERIv2 capability model",
            cause="ptrdiff",
        )

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        if value.unsigned == 0:
            return NULL_PTR
        provenance = value.provenance
        if value.pointer_sized and provenance is not None and not provenance.modified:
            # intcap_t round trip: the capability was carried alongside the
            # integer value and is returned untouched.
            return provenance.pointer
        return PtrVal(address=value.unsigned, base=0, length=0, obj=None, perms=0, tag=False)

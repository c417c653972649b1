"""The PDP-11 / x86 / MIPS memory model: pointers are integers.

This is the traditional interpretation the paper argues contemporary C
implementations have converged on: a flat address space, no bounds, no tags,
pointer arithmetic is integer arithmetic, and any integer can be turned back
into a usable pointer.  It supports every idiom in Table 1 except WIDE (which
loses address bits on any 64-bit platform) — and provides no memory safety.
"""

from __future__ import annotations

from repro.common.errors import MemorySafetyError
from repro.interp.heap import HeapObject, ObjectAllocator
from repro.interp.models.base import MemoryModel
from repro.interp.values import NULL_PTR, PERM_ALL, IntVal, PtrVal


class Pdp11Model(MemoryModel):
    """Flat, unchecked pointers (the x86/MIPS row of Table 3)."""

    name = "pdp11"
    label = "x86/MIPS/PDP-11 (flat, unchecked)"
    pointer_bytes = 8
    pointer_align = 8
    uses_shadow = False

    def make_pointer(self, obj: HeapObject, *, address: int | None = None, perms: int = PERM_ALL) -> PtrVal:
        # Bounds are recorded (they are free to carry around) but never checked.
        return PtrVal(
            address=obj.base if address is None else address,
            base=obj.base,
            length=obj.size,
            obj=obj,
            perms=perms,
            tag=True,
            checked=False,
        )

    def int_to_ptr(self, value: IntVal, allocator: ObjectAllocator) -> PtrVal:
        if value.unsigned == 0:
            return NULL_PTR
        return PtrVal(address=value.unsigned, base=0, length=1 << 64, obj=None,
                      perms=PERM_ALL, tag=True, checked=False)

    def load_pointer_without_metadata(self, raw_address: int, allocator: ObjectAllocator) -> PtrVal:
        if raw_address == 0:
            return NULL_PTR
        return PtrVal(address=raw_address, base=0, length=1 << 64, obj=None,
                      perms=PERM_ALL, tag=True, checked=False)

    def check_access(self, ptr: PtrVal, size: int, *, is_write: bool) -> int:
        # The only thing a flat model catches is the classic null-page fault.
        if ptr.address < 4096:
            self.traps += 1
            raise MemorySafetyError(
                f"segmentation fault: access to {ptr.address:#x}", address=ptr.address,
                cause="segfault",
            )
        return ptr.address

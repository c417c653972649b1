"""The CHERI memory capability.

A capability is a hardware-enforced, unforgeable reference to a region of
virtual memory.  Following §4 of the paper it is modelled as the tuple

    CHERIv2:  (base, length, permissions)            -- 256 bits in memory
    CHERIv3:  (base, length, offset, permissions)    -- 256 bits in memory

plus a single out-of-band *tag* bit that records whether the value is a valid
capability.  The tag lives in tagged memory (one tag per 256-bit line) when a
capability is stored, and alongside the register value when it is held in a
capability register.

Two invariants from the paper are enforced here:

* **Monotonicity** — no operation on a capability may increase its rights.
  Deriving operations (``with_base_increment``, ``with_length``,
  ``with_permissions_masked``, ``with_bounds``) can only shrink the region or
  remove permissions; anything else raises or clears the tag.
* **Unforgeability** — a capability cannot be conjured from integer data.  The
  only way to obtain a tagged capability is to derive it from another tagged
  capability (ultimately from the default data capability installed at
  process start).

The CHERIv3 *offset* is the refinement the paper contributes: the capability's
bounds stay fixed while an offset (the C pointer value relative to ``base``)
moves freely, so arbitrary pointer arithmetic — including out-of-bounds
intermediate values (idiom II) and pointer subtraction (idiom SUB) — is
representable; bounds are enforced only at dereference time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.common.bitops import to_unsigned
from repro.common.errors import BoundsViolation, PermissionViolation, TagViolation

#: Size of an in-memory capability in bytes (256 bits, as in CHERIv2/v3).
CAPABILITY_SIZE = 32

#: Natural alignment required for capability loads and stores.
CAPABILITY_ALIGNMENT = 32

_ADDRESS_MASK = (1 << 64) - 1


class Permission(enum.IntFlag):
    """Permission bits carried by a capability.

    This is the subset of the CHERI permission vector the paper's evaluation
    exercises: data load/store, capability load/store, execute, and the
    ability to seal (reserved for the object-capability extension, unused by
    the C mapping but kept so permission masking behaves like the hardware).
    """

    NONE = 0
    LOAD = 1 << 0
    STORE = 1 << 1
    EXECUTE = 1 << 2
    LOAD_CAP = 1 << 3
    STORE_CAP = 1 << 4
    SEAL = 1 << 5
    GLOBAL = 1 << 6

    @classmethod
    def all_data(cls) -> "Permission":
        """Every permission relevant to data pointers."""
        return cls.LOAD | cls.STORE | cls.LOAD_CAP | cls.STORE_CAP | cls.GLOBAL

    @classmethod
    def all(cls) -> "Permission":
        """The full permission vector of the default data capability."""
        return cls.all_data() | cls.EXECUTE | cls.SEAL

    @classmethod
    def read_only(cls) -> "Permission":
        """Permissions of an ``__input``-qualified pointer (paper §4.1)."""
        return cls.LOAD | cls.LOAD_CAP | cls.GLOBAL


@dataclass(frozen=True)
class Capability:
    """An immutable capability value.

    Attributes
    ----------
    base:
        Lowest virtual address the capability grants access to.
    length:
        Size in bytes of the granted region; ``base + length`` is one past the
        last accessible byte.
    offset:
        CHERIv3 cursor relative to ``base``.  The C pointer value is
        ``base + offset``.  Under CHERIv2 semantics the offset is always zero
        and pointer arithmetic adjusts ``base``/``length`` instead.
    permissions:
        A :class:`Permission` bitmask.
    tag:
        True when the value is a valid, dereferenceable capability.  Untagged
        capabilities carry data (e.g. integers stored in ``intcap_t``) but trap
        on any memory access.
    otype:
        Object type for sealed capabilities; ``-1`` means unsealed.  Present
        for completeness of the register format; the C mapping never seals.
    """

    base: int = 0
    length: int = 0
    offset: int = 0
    permissions: Permission = Permission.NONE
    tag: bool = False
    otype: int = -1

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------

    @property
    def address(self) -> int:
        """The virtual address the capability currently points at."""
        return (self.base + self.offset) & _ADDRESS_MASK

    @property
    def top(self) -> int:
        """One past the highest address the capability grants access to."""
        return self.base + self.length

    def in_bounds(self, size: int = 1, address: int | None = None) -> bool:
        """True when an access of ``size`` bytes at ``address`` is within bounds."""
        addr = self.address if address is None else address
        return self.base <= addr and addr + size <= self.top

    # ------------------------------------------------------------------
    # Guarded checks (used by the simulator and the interpreters)
    # ------------------------------------------------------------------

    def check_access(self, *, size: int, permission: Permission, address: int | None = None) -> int:
        """Validate a memory access and return the effective virtual address.

        Raises :class:`TagViolation`, :class:`PermissionViolation` or
        :class:`BoundsViolation` exactly as the hardware would trap.
        """
        addr = self.address if address is None else address
        if not self.tag:
            raise TagViolation(
                f"access via untagged capability at address {addr:#x}", address=addr, capability=self
            )
        if self.otype >= 0:
            raise PermissionViolation(
                f"access via sealed capability at address {addr:#x}", address=addr, capability=self
            )
        if permission and not (self.permissions & permission):
            raise PermissionViolation(
                f"capability lacks {permission!r} for access at {addr:#x}", address=addr, capability=self
            )
        if not self.in_bounds(size, addr):
            raise BoundsViolation(
                f"access of {size} bytes at {addr:#x} outside capability "
                f"[{self.base:#x}, {self.top:#x})",
                address=addr,
                capability=self,
            )
        return addr

    # ------------------------------------------------------------------
    # Monotonic derivations
    # ------------------------------------------------------------------

    def with_offset(self, offset: int) -> "Capability":
        """CSetOffset: replace the offset.

        The offset may take any 64-bit value, including values outside the
        bounds — this is exactly the CHERIv3 relaxation that makes idioms II
        and SUB representable.  Bounds are checked only at dereference.
        """
        return replace(self, offset=to_unsigned(offset, 64) if offset >= 0 else offset)

    def with_offset_increment(self, increment: int) -> "Capability":
        """CIncOffset: add a (signed) integer to the offset."""
        return replace(self, offset=self.offset + increment)

    def with_base_increment(self, increment: int) -> "Capability":
        """CIncBase (CHERIv2 style): move the base up, shrinking the region.

        A negative increment would *increase* rights, so it clears the tag
        (the hardware raises an exception; clearing the tag plus trapping on
        use gives the same observable result and keeps this function total).
        """
        if increment < 0 or increment > self.length:
            return replace(self, tag=False)
        return replace(self, base=self.base + increment, length=self.length - increment)

    def with_length(self, length: int) -> "Capability":
        """CSetLen: shrink the length.  Growing the region clears the tag."""
        if length < 0 or length > self.length:
            return replace(self, tag=False)
        return replace(self, length=length)

    def with_bounds(self, base: int, length: int) -> "Capability":
        """CSetBounds: narrow to ``[base, base+length)``.

        The requested window must lie inside the existing bounds, otherwise
        the derivation is non-monotonic and the result is untagged.
        """
        if base < self.base or base + length > self.top or length < 0:
            return replace(self, tag=False, base=base, length=max(length, 0), offset=0)
        return replace(self, base=base, length=length, offset=0)

    def with_permissions_masked(self, permissions: Permission) -> "Capability":
        """CAndPerm: intersect the permission vector with ``permissions``."""
        return replace(self, permissions=self.permissions & permissions)

    def without_tag(self) -> "Capability":
        """CClearTag: return the same bit pattern with the tag cleared."""
        return replace(self, tag=False)

    def sealed(self, otype: int) -> "Capability":
        """Seal the capability with an object type (requires SEAL permission)."""
        if not (self.permissions & Permission.SEAL):
            raise PermissionViolation("seal requires the SEAL permission", capability=self)
        return replace(self, otype=otype)

    def unsealed(self) -> "Capability":
        """Return an unsealed copy (used by the CCall/CReturn stand-ins)."""
        return replace(self, otype=-1)

    # ------------------------------------------------------------------
    # Pointer interoperability (CFromPtr / CToPtr / CPtrCmp semantics)
    # ------------------------------------------------------------------

    def compare_key(self) -> tuple[int, int]:
        """Ordering key used by CPtrCmp.

        The instruction orders all tagged capabilities after all untagged
        capabilities (paper §4.1), then by pointer value.
        """
        return (1 if self.tag else 0, self.address)

    def equals_pointer(self, other: "Capability") -> bool:
        """CPtrCmp equality: equal when tag and pointer value agree."""
        return self.tag == other.tag and self.address == other.address

    def to_pointer(self, relative_to: "Capability") -> int:
        """CToPtr: the address expressed as an offset from ``relative_to``.

        Returns 0 when this capability is untagged or does not fall inside the
        base capability — matching the instruction's "0 if out of range" rule.
        """
        if not self.tag or not relative_to.tag:
            return 0
        if not (relative_to.base <= self.address < relative_to.top or self.address == relative_to.top):
            return 0
        return self.address - relative_to.base

    # ------------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        tag = "t" if self.tag else "-"
        return (
            f"cap[{tag}] base={self.base:#x} len={self.length:#x} "
            f"off={self.offset:#x} perms={self.permissions!r}"
        )


#: The canonical null capability: all-zero, untagged.  Arithmetic may move its
#: offset (so e.g. ``(void *)-1`` from ``mmap`` is representable) but it can
#: never become valid because no operation sets a tag.
NULL_CAPABILITY = Capability()


def make_default_capability(memory_bytes: int) -> Capability:
    """Build the default data capability installed when a process starts.

    It spans the whole user address space with full permissions (§4: "When a
    process starts, it has a default data capability that covers the entire
    user address space").
    """
    return Capability(base=0, length=memory_bytes, offset=0, permissions=Permission.all(), tag=True)


def capability_from_int(value: int) -> Capability:
    """Materialise an integer as an untagged capability (intcap_t semantics).

    Integer values stored in a capability register are "constructed by setting
    the offset of the canonical null capability and will never compare equal
    to any valid capability" (paper §4.1).
    """
    return replace(NULL_CAPABILITY, offset=value)

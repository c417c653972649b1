"""Tagged physical memory.

CHERI's memory safety for in-memory capabilities rests on *tagged memory*:
every naturally aligned 256-bit (32-byte) line of memory carries a single
hidden tag bit recording whether the line currently holds a valid capability.

The two behaviours the paper depends on are both implemented here:

* capability stores set the tag; capability loads return the tag with the
  value, so capabilities can be spilled to the stack or embedded in data
  structures just like pointers;
* **any ordinary data store that overlaps a tagged line clears its tag**
  (§4: "Conventional stores to an in-memory capability cause the tag bit to
  be cleared, invalidating the capability").  This is what makes ``memcpy``
  and unions safe: data written over a capability can never be dereferenced
  as one.
"""

from __future__ import annotations

from repro.common.bitops import is_aligned
from repro.common.errors import AlignmentViolation, SimulationError
from repro.isa.capability import CAPABILITY_ALIGNMENT, CAPABILITY_SIZE, Capability


class TaggedMemory:
    """A flat byte-addressable memory with per-line capability tags.

    The backing store is sparse (a dict of pages) so a 64 MB address space
    costs only what the program touches.  Capabilities stored to memory keep
    their full Python representation in a side table keyed by address; the tag
    bit decides whether that representation is still valid when loaded back.
    This mirrors how the hardware stores the 256-bit pattern in DRAM and the
    tag in a separate tag controller.
    """

    PAGE_SIZE = 4096
    #: shift/mask forms of PAGE_SIZE used by the scalar fast paths below.
    _PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
    _PAGE_MASK = PAGE_SIZE - 1
    assert PAGE_SIZE == 1 << _PAGE_SHIFT, "PAGE_SIZE must be a power of two"

    __slots__ = ("_size", "_pages", "_tags", "_cap_values")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SimulationError("memory size must be positive")
        self._size = size
        self._pages: dict[int, bytearray] = {}
        self._tags: set[int] = set()
        self._cap_values: dict[int, Capability] = {}

    # ------------------------------------------------------------------
    # Bounds / page helpers
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or address + length > self._size:
            raise SimulationError(
                f"physical access [{address:#x}, {address + length:#x}) outside memory "
                f"of {self._size:#x} bytes"
            )

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(self.PAGE_SIZE)
            self._pages[page_index] = page
        return page

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes starting at ``address``."""
        if address < 0 or address + length > self._size:
            self._check_range(address, length)
        page_index, offset = divmod(address, self.PAGE_SIZE)
        if offset + length <= self.PAGE_SIZE:
            # Fast path: the whole read lives in one page.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        out = bytearray()
        remaining = length
        cursor = address
        while remaining:
            page_index, offset = divmod(cursor, self.PAGE_SIZE)
            chunk = min(remaining, self.PAGE_SIZE - offset)
            page = self._pages.get(page_index)
            if page is None:
                out.extend(b"\x00" * chunk)
            else:
                out.extend(page[offset : offset + chunk])
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        """Write raw bytes, clearing capability tags on every line touched."""
        length = len(data)
        if address < 0 or address + length > self._size:
            self._check_range(address, length)
        if self._tags:
            self._clear_tags_in_range(address, length)
        page_index, offset = divmod(address, self.PAGE_SIZE)
        if offset + length <= self.PAGE_SIZE:
            # Fast path: the whole write lives in one page.
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(self.PAGE_SIZE)
                self._pages[page_index] = page
            page[offset : offset + length] = data
            return
        cursor = address
        view = memoryview(data)
        while view:
            page_index, offset = divmod(cursor, self.PAGE_SIZE)
            chunk = min(len(view), self.PAGE_SIZE - offset)
            self._page(page_index)[offset : offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    # ------------------------------------------------------------------
    # Integer access
    # ------------------------------------------------------------------

    def read_int(self, address: int, size: int, *, signed: bool = False) -> int:
        """Read a little-endian integer of ``size`` bytes."""
        raw = self.read_bytes(address, size)
        return int.from_bytes(raw, "little", signed=signed)

    def write_int(self, address: int, size: int, value: int) -> None:
        """Write a little-endian integer of ``size`` bytes (tags cleared)."""
        self.write_bytes(address, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    # ------------------------------------------------------------------
    # Scalar fast paths (interpreter hot loop)
    # ------------------------------------------------------------------
    #
    # These bypass the intermediate ``bytes`` objects of read_bytes/write_bytes
    # when an access lies within one page, as the interpreter's scalar and
    # pointer loads/stores almost always do; an access that crosses a page
    # falls back to the generic path.  They are observationally identical to
    # the generic paths.

    def read_small(self, address: int, size: int, signed: bool) -> int:
        """Read a little-endian integer of ``size`` (≤ page) bytes."""
        if address < 0 or address + size > self._size:
            self._check_range(address, size)
        offset = address & self._PAGE_MASK
        if offset + size <= self.PAGE_SIZE:
            page = self._pages.get(address >> self._PAGE_SHIFT)
            if page is None:
                return 0
            return int.from_bytes(page[offset : offset + size], "little", signed=signed)
        return int.from_bytes(self.read_bytes(address, size), "little", signed=signed)

    def write_small(self, address: int, size: int, value: int) -> None:
        """Write a little-endian integer of ``size`` (≤ page) bytes."""
        if address < 0 or address + size > self._size:
            self._check_range(address, size)
        if self._tags:
            self._clear_tags_in_range(address, size)
        offset = address & self._PAGE_MASK
        if offset + size <= self.PAGE_SIZE:
            page_index = address >> self._PAGE_SHIFT
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(self.PAGE_SIZE)
                self._pages[page_index] = page
            page[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            return
        self.write_bytes(address, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))

    def write_ptr_raw(self, address: int, raw: int, width: int) -> None:
        """Write a stored pointer: 8 bytes of address, zero-padded to ``width``.

        This is the in-memory representation the interpreter uses for every
        pointer store (the shadow table carries the metadata); ``width`` is the
        model's pointer size, e.g. 32 for a 256-bit capability.
        """
        span = width if width > 8 else 8
        if address < 0 or address + span > self._size:
            self._check_range(address, span)
        if self._tags:
            self._clear_tags_in_range(address, span)
        offset = address & self._PAGE_MASK
        if offset + span <= self.PAGE_SIZE:
            page_index = address >> self._PAGE_SHIFT
            page = self._pages.get(page_index)
            if page is None:
                page = bytearray(self.PAGE_SIZE)
                self._pages[page_index] = page
            page[offset : offset + 8] = (raw & ((1 << 64) - 1)).to_bytes(8, "little")
            if span > 8:
                page[offset + 8 : offset + span] = bytes(span - 8)
            return
        self.write_bytes(address, (raw & ((1 << 64) - 1)).to_bytes(8, "little") + bytes(span - 8))

    # ------------------------------------------------------------------
    # Capability access
    # ------------------------------------------------------------------

    def write_capability(self, address: int, capability: Capability) -> None:
        """Store a capability (32 bytes, naturally aligned) with its tag."""
        if not is_aligned(address, CAPABILITY_ALIGNMENT):
            raise AlignmentViolation(
                f"capability store to unaligned address {address:#x}", address=address
            )
        self._check_range(address, CAPABILITY_SIZE)
        # The architectural bit pattern is also written so that data reads of
        # the same location observe the capability's fields, as they would on
        # hardware (e.g. memcpy of a struct containing pointers).
        pattern = self._encode_pattern(capability)
        self.write_bytes(address, pattern)
        self._cap_values[address] = capability
        if capability.tag:
            self._tags.add(address)
        else:
            self._tags.discard(address)

    def read_capability(self, address: int) -> Capability:
        """Load a capability; the tag reflects any intervening data stores."""
        if not is_aligned(address, CAPABILITY_ALIGNMENT):
            raise AlignmentViolation(
                f"capability load from unaligned address {address:#x}", address=address
            )
        self._check_range(address, CAPABILITY_SIZE)
        stored = self._cap_values.get(address)
        if stored is not None:
            if address in self._tags:
                return stored
            return stored.without_tag()
        # No capability was ever stored here: reconstruct an untagged
        # capability from the raw bit pattern (integer data read as intcap_t).
        return self._decode_pattern(self.read_bytes(address, CAPABILITY_SIZE))

    def tag_at(self, address: int) -> bool:
        """Return the tag bit covering ``address`` (line-aligned lookup)."""
        line = address - (address % CAPABILITY_ALIGNMENT)
        return line in self._tags

    def tagged_lines(self) -> list[int]:
        """Addresses of every line currently holding a valid capability.

        Used by the garbage collector to find capability roots/fields
        precisely (paper §4.2).
        """
        return sorted(self._tags)

    # ------------------------------------------------------------------

    def _clear_tags_in_range(self, address: int, length: int) -> None:
        first_line = address - (address % CAPABILITY_ALIGNMENT)
        last_line = (address + length - 1) - ((address + length - 1) % CAPABILITY_ALIGNMENT)
        for line in range(first_line, last_line + 1, CAPABILITY_ALIGNMENT):
            self._tags.discard(line)

    @staticmethod
    def _encode_pattern(capability: Capability) -> bytes:
        mask64 = (1 << 64) - 1
        fields = (
            capability.base & mask64,
            capability.length & mask64,
            capability.offset & mask64,
            (int(capability.permissions) & 0xFFFFFFFF) | ((capability.otype & 0xFFFFFFFF) << 32),
        )
        return b"".join(field.to_bytes(8, "little") for field in fields)

    @staticmethod
    def _decode_pattern(raw: bytes) -> Capability:
        base = int.from_bytes(raw[0:8], "little")
        length = int.from_bytes(raw[8:16], "little")
        offset = int.from_bytes(raw[16:24], "little")
        meta = int.from_bytes(raw[24:32], "little")
        from repro.isa.capability import Permission

        permissions = Permission(meta & int(Permission.all()))
        otype_raw = (meta >> 32) & 0xFFFFFFFF
        otype = otype_raw - (1 << 32) if otype_raw >= (1 << 31) else otype_raw
        return Capability(
            base=base, length=length, offset=offset, permissions=permissions, tag=False, otype=otype
        )

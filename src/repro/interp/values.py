"""Runtime values of the abstract machine.

Two kinds of value flow through the interpreter: integers and pointers.
Keeping them distinct — and recording, on integers, where they came from —
is what lets the different memory models disagree about the pointer idioms:

* :class:`IntVal` is a fixed-width two's-complement integer.  When it was
  produced from a pointer (``ptrtoint``) it carries a :class:`Provenance`
  record; integer arithmetic marks the provenance *modified*, which is the
  fact models like Strict, HardBound and CHERIv2 key off.
* :class:`PtrVal` is the model-independent pointer representation: the
  current address, the bounds and permissions granted, a CHERI-style tag and
  the heap object it was derived from.  Individual memory models interpret
  (or ignore) these fields according to their own rules.

Both classes are allocated millions of times per simulated run, so they are
hand-written ``__slots__`` classes rather than (frozen) dataclasses: a frozen
dataclass routes every field assignment through ``object.__setattr__``, which
made ``IntVal``/``PtrVal`` construction the single largest allocation cost in
pointer-heavy workloads.  They remain immutable *by convention* — nothing in
the interpreter mutates a value after construction, which is what makes the
interning below (and the predecoded engine's unboxed register scheme, see
:mod:`repro.interp.predecode`) safe.

Hot scalar arithmetic avoids boxing entirely: the predecoded interpreter
keeps provenance-free scalars as raw Python ints and boxes them through
:func:`box_int` / :func:`intern_table` only at ABI boundaries (calls into
non-predecoded code, traps, shadow-table entries).
"""

from __future__ import annotations

from repro.common.bitops import sign_extend, truncate

#: precomputed masks / sign thresholds / moduli for 0..8-byte widths.
_MASKS = tuple((1 << (8 * i)) - 1 for i in range(9))
_SIGN_MIN = tuple(1 << (8 * i - 1) if i else 0 for i in range(9))
_MODULI = tuple(1 << (8 * i) for i in range(9))

#: public aliases used by the predecode compiler's inline masking.
MASKS = _MASKS
SIGN_MIN = _SIGN_MIN
MODULI = _MODULI


class Provenance:
    """Where an integer value came from, if it was derived from a pointer."""

    __slots__ = ("pointer", "modified")

    def __init__(self, pointer: "PtrVal", modified: bool = False) -> None:
        self.pointer = pointer
        #: True once integer arithmetic has been performed on the value.
        self.modified = modified

    def touched(self) -> "Provenance":
        return Provenance(self.pointer, True)

    def __eq__(self, other) -> bool:
        if type(other) is not Provenance:
            return NotImplemented
        return self.pointer == other.pointer and self.modified == other.modified

    def __hash__(self) -> int:
        return hash((self.pointer, self.modified))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Provenance(pointer={self.pointer!r}, modified={self.modified})"


def arithmetic_provenance(left: "IntVal", right: "IntVal") -> Provenance | None:
    """Provenance of the result of integer arithmetic (the IA/MASK idioms).

    The first operand's provenance, else the second's, marked *modified*:
    whether a later ``inttoptr`` accepts a modified provenance is the
    per-model decision.
    """
    source = left.provenance or right.provenance
    if source is None:
        return None
    return source.touched()


class IntVal:
    """A fixed-width integer value (immutable by convention)."""

    __slots__ = ("value", "bytes", "signed", "provenance", "pointer_sized")

    def __init__(self, value: int, bytes: int = 8, signed: bool = True,
                 provenance: Provenance | None = None,
                 pointer_sized: bool = False) -> None:
        if 0 < bytes <= 8:
            value &= _MASKS[bytes]
            if signed and value >= _SIGN_MIN[bytes]:
                value -= _MODULI[bytes]
        else:
            value = truncate(value, bytes * 8)
            if signed:
                value = sign_extend(value, bytes * 8)
        self.value = value
        self.bytes = bytes
        self.signed = signed
        self.provenance = provenance
        #: True when the C type was intptr_t/intcap_t: capability ABIs
        #: represent these as capabilities, so they round-trip pointers
        #: losslessly.
        self.pointer_sized = pointer_sized

    @property
    def unsigned(self) -> int:
        value = self.value
        if value >= 0:
            return value
        width = self.bytes
        return value & (_MASKS[width] if width <= 8 else (1 << (width * 8)) - 1)

    @property
    def is_true(self) -> bool:
        return self.value != 0

    def with_value(self, value: int, *, provenance: Provenance | None = None) -> "IntVal":
        return IntVal(value, self.bytes, self.signed, provenance, self.pointer_sized)

    def converted(self, *, bytes: int, signed: bool, pointer_sized: bool = False) -> "IntVal":
        """Integer conversion; narrowing drops provenance information only if
        bits are actually lost (the WIDE idiom)."""
        provenance = self.provenance
        if bytes < self.bytes:
            provenance = provenance.touched() if provenance else None
        return IntVal(self.value, bytes, signed, provenance, pointer_sized)

    def __eq__(self, other) -> bool:
        if type(other) is not IntVal:
            return NotImplemented
        return (self.value == other.value and self.bytes == other.bytes
                and self.signed == other.signed
                and self.provenance == other.provenance
                and self.pointer_sized == other.pointer_sized)

    def __hash__(self) -> int:
        return hash((self.value, self.bytes, self.signed, self.pointer_sized))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"IntVal(value={self.value}, bytes={self.bytes}, signed={self.signed}, "
                f"provenance={self.provenance!r}, pointer_sized={self.pointer_sized})")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"i{self.bytes * 8}:{self.value}"


_ADDRESS_MASK = (1 << 64) - 1

# Permission flag constants shared by every pointer.
PERM_READ = 1
PERM_WRITE = 2
PERM_ALL = PERM_READ | PERM_WRITE


class PtrVal:
    """A pointer value (immutable by convention).

    ``obj`` is the :class:`~repro.interp.heap.HeapObject` the pointer was
    derived from (None for NULL and for forged pointers), ``base``/``length``
    are the rights it grants, ``address`` is where it currently points, and
    ``tag`` records validity under capability models.  ``checked`` is used by
    the MPX model: a pointer whose bounds were lost fails *open*, i.e. it is
    dereferenceable but unchecked.
    """

    __slots__ = ("address", "base", "length", "obj", "perms", "tag", "checked")

    def __init__(self, address: int = 0, base: int = 0, length: int = 0,
                 obj: object | None = None, perms: int = PERM_ALL,
                 tag: bool = True, checked: bool = True) -> None:
        self.address = address
        self.base = base
        self.length = length
        self.obj = obj
        self.perms = perms
        self.tag = tag
        self.checked = checked

    @property
    def is_null(self) -> bool:
        return self.address == 0 and self.obj is None

    @property
    def top(self) -> int:
        return self.base + self.length

    @property
    def offset(self) -> int:
        """CHERI-style offset: the cursor relative to the base."""
        return self.address - self.base

    @property
    def in_bounds(self) -> bool:
        return self.base <= self.address < self.top or (self.address == self.top and self.length == 0)

    def moved_to(self, address: int) -> "PtrVal":
        return PtrVal(address & _ADDRESS_MASK, self.base, self.length, self.obj,
                      self.perms, self.tag, self.checked)

    def moved_by(self, delta: int) -> "PtrVal":
        # Pointer arithmetic wraps modulo 2**64, exactly like address
        # arithmetic on 64-bit hardware; this is what makes subtracting an
        # unsigned offset (e.g. ``p - offsetof(...)``) land on the right
        # address.
        return PtrVal((self.address + delta) & _ADDRESS_MASK, self.base, self.length,
                      self.obj, self.perms, self.tag, self.checked)

    def with_bounds(self, base: int, length: int) -> "PtrVal":
        return PtrVal(self.address, base, length, self.obj, self.perms, self.tag, self.checked)

    def with_perms(self, perms: int) -> "PtrVal":
        return PtrVal(self.address, self.base, self.length, self.obj, perms, self.tag, self.checked)

    def untagged(self) -> "PtrVal":
        return PtrVal(self.address, self.base, self.length, self.obj, self.perms, False, self.checked)

    def unchecked(self) -> "PtrVal":
        return PtrVal(self.address, self.base, self.length, self.obj, self.perms, self.tag, False)

    def __eq__(self, other) -> bool:
        if type(other) is not PtrVal:
            return NotImplemented
        return (self.address == other.address and self.base == other.base
                and self.length == other.length and self.obj is other.obj
                and self.perms == other.perms and self.tag == other.tag
                and self.checked == other.checked)

    def __hash__(self) -> int:
        # Like the frozen dataclass this replaced: hashable when every field
        # is (``obj`` is a HeapObject for object-backed pointers, which is
        # unhashable — so only NULL/forged pointers hash, as before).
        return hash((self.address, self.base, self.length, self.obj,
                     self.perms, self.tag, self.checked))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PtrVal(address={self.address:#x}, base={self.base:#x}, "
                f"length={self.length}, obj={self.obj!r}, perms={self.perms}, "
                f"tag={self.tag}, checked={self.checked})")

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        flags = ("t" if self.tag else "-") + ("c" if self.checked else "-")
        return f"ptr[{flags}]@{self.address:#x} [{self.base:#x},{self.top:#x})"


#: The canonical null pointer.
NULL_PTR = PtrVal(address=0, base=0, length=0, obj=None, perms=0, tag=False)


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------
#
# Loads, arithmetic results and loop counters overwhelmingly fall in a small
# value range; sharing one IntVal per (value, width, signedness) removes the
# bulk of the interpreter's remaining boxing cost.  Values are immutable by
# convention, so sharing is safe.  Each table entry is exactly what the
# constructor would have produced for that *raw* value (including wrapping,
# e.g. ``IntVal(-5, 2, signed=False)``), so ``table[raw - INTERN_MIN]`` is a
# drop-in replacement for ``IntVal(raw, width, signed)``.

INTERN_MIN = -1024
INTERN_MAX = 8192

_intern_tables: dict[tuple[int, bool], tuple] = {}


def intern_table(width: int, signed: bool) -> tuple:
    """Shared IntVal instances for raw values in [INTERN_MIN, INTERN_MAX]."""
    key = (width, signed)
    table = _intern_tables.get(key)
    if table is None:
        table = tuple(IntVal(v, width, signed)
                      for v in range(INTERN_MIN, INTERN_MAX + 1))
        _intern_tables[key] = table
    return table


def box_int(raw: int, width: int, signed: bool) -> IntVal:
    """Box a raw (provenance-free) scalar, sharing interned instances."""
    if INTERN_MIN <= raw <= INTERN_MAX:
        return _intern_tables.get((width, signed), intern_table(width, signed))[raw - INTERN_MIN]
    return IntVal(raw, width, signed)


#: canonical boxed comparison results (``int`` in C is 4 bytes): shared by the
#: predecoded CMP handlers and the generated basic-block superinstructions so
#: every engine materialises the identical interned instances.
TRUE_I32 = intern_table(4, True)[1 - INTERN_MIN]
FALSE_I32 = intern_table(4, True)[0 - INTERN_MIN]

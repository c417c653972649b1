"""The mini-C type system.

Types are immutable-ish objects with identity semantics managed by a
:class:`TypeContext`.  Layout (size and alignment) is computed per context so
that the same source can be compiled for different ABIs: the MIPS ABI lays
pointers out as 8-byte integers, while the CHERI pure-capability ABI lays them
out as 32-byte, 32-byte-aligned capabilities — the source of the cache
pressure the paper measures in the Olden benchmarks (§5.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import TypeCheckError


class Qualifiers(enum.IntFlag):
    """Type qualifiers, including the paper's CHERI extensions (§4.1)."""

    NONE = 0
    CONST = 1 << 0
    VOLATILE = 1 << 1
    #: ``__capability`` — represent this pointer as a hardware capability.
    CAPABILITY = 1 << 2
    #: ``__input`` — hardware-enforced read-only view (store permission removed).
    INPUT = 1 << 3
    #: ``__output`` — hardware-enforced write-only view (load permission removed).
    OUTPUT = 1 << 4


class CType:
    """Base class of every mini-C type."""

    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def alignment(self, ctx: "TypeContext") -> int:
        return self.size(ctx)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_const(self) -> bool:
        return bool(self.qualifiers & Qualifiers.CONST)

    def unqualified(self) -> "CType":
        return self

    def with_qualifiers(self, qualifiers: Qualifiers) -> "CType":
        """Return a copy of this type with extra qualifiers OR-ed in."""
        import copy

        if not qualifiers:
            return self
        clone = copy.copy(self)
        clone.qualifiers = self.qualifiers | qualifiers
        return clone


@dataclass(eq=False)
class VoidType(CType):
    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:
        return 1  # sizeof(void) is a GNU extension; 1 keeps void* arithmetic sane

    def __str__(self) -> str:
        return "void"


@dataclass(eq=False)
class IntType(CType):
    """An integer type of ``bytes`` width; ``char`` is a 1-byte IntType."""

    bytes: int = 4
    signed: bool = True
    name: str = "int"
    #: intptr_t / intcap_t behave specially: capability ABIs give them
    #: capability representation so pointer round trips preserve provenance.
    is_pointer_sized: bool = False
    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:
        if self.is_pointer_sized:
            return ctx.pointer_bytes
        return self.bytes

    def alignment(self, ctx: "TypeContext") -> int:
        if self.is_pointer_sized:
            return ctx.pointer_align
        return self.bytes

    @property
    def bits(self) -> int:
        return self.bytes * 8

    def __str__(self) -> str:
        return self.name


@dataclass(eq=False)
class PointerType(CType):
    pointee: CType = field(default_factory=VoidType)
    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:
        return ctx.pointer_bytes

    def alignment(self, ctx: "TypeContext") -> int:
        return ctx.pointer_align

    def __str__(self) -> str:
        quals = []
        if self.qualifiers & Qualifiers.CAPABILITY:
            quals.append("__capability")
        if self.qualifiers & Qualifiers.CONST:
            quals.append("const")
        suffix = (" " + " ".join(quals)) if quals else ""
        return f"{self.pointee}*{suffix}"


@dataclass(eq=False)
class ArrayType(CType):
    element: CType = field(default_factory=lambda: IntType())
    count: int = 0
    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:
        return self.element.size(ctx) * self.count

    def alignment(self, ctx: "TypeContext") -> int:
        return self.element.alignment(ctx)

    def __str__(self) -> str:
        return f"{self.element}[{self.count}]"


@dataclass
class StructField:
    name: str
    ctype: CType
    #: byte offset within the struct, filled in by :meth:`StructType.layout`.
    offset: int = 0


@dataclass(eq=False)
class StructType(CType):
    """A struct or (when ``is_union``) union type."""

    tag: str = ""
    fields: list[StructField] = field(default_factory=list)
    is_union: bool = False
    complete: bool = False
    qualifiers: Qualifiers = Qualifiers.NONE
    _layout_cache: dict[tuple[int, int], tuple[int, int, tuple[int, ...]]] = field(
        default_factory=dict, repr=False)
    #: layout key whose field offsets are currently installed on the
    #: (shared, mutable) StructField objects; see layout().
    _offsets_owner: tuple[int, int] | None = field(default=None, repr=False)

    def define(self, fields: list[StructField]) -> None:
        if self.complete:
            raise TypeCheckError(f"redefinition of struct {self.tag!r}")
        self.fields = fields
        self.complete = True
        self._layout_cache.clear()
        self._offsets_owner = None

    def layout(self, ctx: "TypeContext") -> tuple[int, int]:
        """Compute (size, alignment), assigning field offsets as a side effect.

        Field offsets live on the shared :class:`StructField` objects, so a
        struct lowered under several pointer layouts (the differential
        runner parses once and lowers the same AST per layout) must restore
        *this* layout's offsets on a cache hit — the memoized size and
        alignment alone would leave the other layout's offsets installed.
        Layout is a pure function of the context's pointer layout, so the
        cache keys on that (an ``id(ctx)`` key could alias a dead context
        whose id was recycled).
        """
        if not self.complete:
            raise TypeCheckError(f"use of incomplete struct {self.tag!r}")
        key = (ctx.pointer_bytes, ctx.pointer_align)
        cached = self._layout_cache.get(key)
        if cached is not None:
            size, align, offsets = cached
            if self._offsets_owner != key:
                for struct_field, offset in zip(self.fields, offsets):
                    struct_field.offset = offset
                self._offsets_owner = key
            return size, align
        size = 0
        align = 1
        for struct_field in self.fields:
            f_align = struct_field.ctype.alignment(ctx)
            f_size = struct_field.ctype.size(ctx)
            align = max(align, f_align)
            if self.is_union:
                struct_field.offset = 0
                size = max(size, f_size)
            else:
                size = _round_up(size, f_align)
                struct_field.offset = size
                size += f_size
        size = _round_up(size, align) if size else align
        self._layout_cache[key] = (size, align,
                                   tuple(f.offset for f in self.fields))
        self._offsets_owner = key
        return size, align

    def size(self, ctx: "TypeContext") -> int:
        return self.layout(ctx)[0]

    def alignment(self, ctx: "TypeContext") -> int:
        return self.layout(ctx)[1]

    def field_named(self, name: str, ctx: "TypeContext") -> StructField:
        self.layout(ctx)
        for struct_field in self.fields:
            if struct_field.name == name:
                return struct_field
        kind = "union" if self.is_union else "struct"
        raise TypeCheckError(f"{kind} {self.tag!r} has no member {name!r}")

    def __str__(self) -> str:
        kind = "union" if self.is_union else "struct"
        return f"{kind} {self.tag}"


@dataclass(eq=False)
class FunctionType(CType):
    return_type: CType = field(default_factory=VoidType)
    params: list[CType] = field(default_factory=list)
    variadic: bool = False
    qualifiers: Qualifiers = Qualifiers.NONE

    def size(self, ctx: "TypeContext") -> int:
        raise TypeCheckError("sizeof applied to a function type")

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params) or "void"
        if self.variadic:
            params += ", ..."
        return f"{self.return_type}({params})"


def _round_up(value: int, alignment: int) -> int:
    if alignment <= 0:
        return value
    return (value + alignment - 1) // alignment * alignment


class TypeContext:
    """Owns named types and the target-dependent layout parameters.

    ``pointer_bytes``/``pointer_align`` describe how pointers are laid out in
    memory for the target ABI: 8/8 for the PDP-11-style MIPS ABI, 32/32 for
    CHERI capabilities.
    """

    def __init__(self, *, pointer_bytes: int = 8, pointer_align: int | None = None) -> None:
        self.pointer_bytes = pointer_bytes
        self.pointer_align = pointer_align if pointer_align is not None else pointer_bytes
        self.structs: dict[str, StructType] = {}
        self.typedefs: dict[str, CType] = {}
        self._install_builtin_types()

    # -- builtin types --------------------------------------------------

    void = property(lambda self: self._void)
    char = property(lambda self: self._char)
    int_ = property(lambda self: self._int)
    long = property(lambda self: self._long)

    def _install_builtin_types(self) -> None:
        self._void = VoidType()
        self._char = IntType(bytes=1, signed=True, name="char")
        self._int = IntType(bytes=4, signed=True, name="int")
        self._long = IntType(bytes=8, signed=True, name="long")
        self.typedefs = {
            "int8_t": IntType(bytes=1, signed=True, name="int8_t"),
            "uint8_t": IntType(bytes=1, signed=False, name="uint8_t"),
            "int16_t": IntType(bytes=2, signed=True, name="int16_t"),
            "uint16_t": IntType(bytes=2, signed=False, name="uint16_t"),
            "int32_t": IntType(bytes=4, signed=True, name="int32_t"),
            "uint32_t": IntType(bytes=4, signed=False, name="uint32_t"),
            "int64_t": IntType(bytes=8, signed=True, name="int64_t"),
            "uint64_t": IntType(bytes=8, signed=False, name="uint64_t"),
            "size_t": IntType(bytes=8, signed=False, name="size_t"),
            "ssize_t": IntType(bytes=8, signed=True, name="ssize_t"),
            "ptrdiff_t": IntType(bytes=8, signed=True, name="ptrdiff_t"),
            # intptr_t / uintptr_t / intcap_t: pointer-sized, so capability
            # ABIs give them capability representation (paper §5.1: "changing
            # the intptr_t typedef to refer to the intcap_t type").
            "intptr_t": IntType(bytes=8, signed=True, name="intptr_t", is_pointer_sized=True),
            "uintptr_t": IntType(bytes=8, signed=False, name="uintptr_t", is_pointer_sized=True),
            "intcap_t": IntType(bytes=8, signed=True, name="intcap_t", is_pointer_sized=True),
            "uintcap_t": IntType(bytes=8, signed=False, name="uintcap_t", is_pointer_sized=True),
        }

    # -- pointer helpers ------------------------------------------------

    def pointer_to(self, pointee: CType, qualifiers: Qualifiers = Qualifiers.NONE) -> PointerType:
        return PointerType(pointee=pointee, qualifiers=qualifiers)

    # -- named struct management ----------------------------------------

    def struct(self, tag: str, *, is_union: bool = False) -> StructType:
        """Get or create the (possibly incomplete) struct with this tag."""
        key = ("union " if is_union else "struct ") + tag
        existing = self.structs.get(key)
        if existing is None:
            existing = StructType(tag=tag, is_union=is_union)
            self.structs[key] = existing
        return existing

    def typedef(self, name: str, ctype: CType) -> None:
        self.typedefs[name] = ctype

    def lookup_typedef(self, name: str) -> CType | None:
        return self.typedefs.get(name)

    # -- conversions -----------------------------------------------------

    def common_type(self, a: CType, b: CType) -> CType:
        """The usual arithmetic conversions, restricted to what mini-C needs."""
        if a.is_pointer:
            return a
        if b.is_pointer:
            return b
        if not (isinstance(a, IntType) and isinstance(b, IntType)):
            raise TypeCheckError(f"no common type for {a} and {b}")
        if a.bytes == b.bytes:
            signed = a.signed and b.signed
            return a if a.signed == signed else b
        return a if a.bytes > b.bytes else b

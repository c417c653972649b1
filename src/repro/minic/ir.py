"""Typed intermediate representation for mini-C.

The IR plays the role LLVM IR plays in the paper's methodology: pointers and
integers are distinct, type-safe pointer arithmetic is explicit (``gep`` for
element arithmetic, ``field`` for member access, ``ptrdiff`` for pointer
subtraction), and any escape from the pointer type system appears as an
explicit ``ptrtoint`` / ``inttoptr`` instruction pair.  The idiom detector
(:mod:`repro.analysis.detector`) searches these instructions, and the
abstract-machine interpreter (:mod:`repro.interp.machine`) executes them under
different memory models.

Functions are flat lists of instructions; control flow uses ``label`` /
``jump`` / ``cjump``.  Values are virtual registers (:class:`Temp`), constants
(:class:`Const`) and global references (:class:`GlobalRef`).  There is no SSA
form: local variables live in ``alloca`` slots, which keeps both the generator
and the interpreter simple without hiding any pointer behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.minic.typesys import CType, TypeContext


class Opcode(enum.Enum):
    """IR operations."""

    ALLOCA = "alloca"          # dest = address of a new stack slot (attrs: size, alloc_type)
    LOAD = "load"              # dest = *args[0]
    STORE = "store"            # *args[0] = args[1]
    GEP = "gep"                # dest = args[0] + args[1] * element_size   (typed element arithmetic)
    FIELD = "field"            # dest = args[0] + field_offset             (struct member address)
    PTRADD = "ptradd"          # dest = args[0] + args[1] bytes            (untyped pointer arithmetic)
    PTRDIFF = "ptrdiff"        # dest = (args[0] - args[1]) / element_size
    PTRTOINT = "ptrtoint"      # dest = integer value of pointer args[0]
    INTTOPTR = "inttoptr"      # dest = pointer reconstructed from integer args[0]
    BITCAST = "bitcast"        # dest = args[0] reinterpreted as another pointer type
    INTCAST = "intcast"        # dest = args[0] converted to another integer width/signedness
    BINOP = "binop"            # dest = args[0] <op> args[1]   (attrs: operator)
    UNOP = "unop"              # dest = <op> args[0]
    CMP = "cmp"                # dest = args[0] <op> args[1] as 0/1 int
    CALL = "call"              # dest = callee(args...)        (attrs: callee)
    RET = "ret"                # return args[0] (or void)
    JUMP = "jump"              # goto attrs['target']
    CJUMP = "cjump"            # if args[0] goto attrs['then'] else attrs['else']
    LABEL = "label"            # attrs['name']
    NOP = "nop"


@dataclass(frozen=True)
class Temp:
    """A virtual register."""

    index: int

    def __str__(self) -> str:
        return f"%{self.index}"


@dataclass(frozen=True)
class Const:
    """An integer constant with its C type."""

    value: int
    ctype: CType | None = None

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class GlobalRef:
    """A reference to a global variable or string literal by name."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Operand = Temp | Const | GlobalRef


@dataclass
class Instr:
    """One IR instruction."""

    op: Opcode
    dest: Temp | None = None
    args: list[Operand] = field(default_factory=list)
    ctype: CType | None = None
    attrs: dict = field(default_factory=dict)
    line: int = 0

    def __str__(self) -> str:
        parts = [self.op.value]
        if self.dest is not None:
            parts.insert(0, f"{self.dest} =")
        if self.args:
            parts.append(", ".join(str(a) for a in self.args))
        if self.attrs:
            interesting = {k: v for k, v in self.attrs.items() if k not in ("alloc_type", "element_type")}
            if interesting:
                parts.append(str(interesting))
        return " ".join(parts)


@dataclass
class GlobalVar:
    """A module-level variable (or string literal)."""

    name: str
    ctype: CType
    #: initial bytes; zero-filled when None.
    init_bytes: bytes | None = None
    is_string: bool = False
    is_const: bool = False
    line: int = 0


@dataclass
class Function:
    """An IR function: parameters plus a flat instruction list."""

    name: str
    params: list[tuple[str, CType]] = field(default_factory=list)
    return_type: CType | None = None
    instrs: list[Instr] = field(default_factory=list)
    variadic: bool = False
    line: int = 0
    source_lines: int = 0
    #: cached label map plus the (list identity, length) it was computed for.
    _label_cache: dict[str, int] | None = field(default=None, init=False, repr=False, compare=False)
    _label_cache_key: tuple[int, int] | None = field(default=None, init=False, repr=False, compare=False)
    #: bumped by :meth:`invalidate_label_index` — i.e. whenever a pass
    #: mutates ``instrs`` in place — so state derived from this function
    #: (its predecode artifact) can detect mutation even when the list
    #: object and its length are unchanged.
    mutations: int = field(default=0, init=False, repr=False, compare=False)
    #: the interpreter's predecode artifact for this function, owned and
    #: revalidated by :func:`repro.interp.artifact.get_artifact`.
    _artifact: object = field(default=None, init=False, repr=False, compare=False)

    def label_index(self) -> dict[str, int]:
        """Map label names to instruction indices (cached).

        The cache is keyed on the identity and length of ``instrs`` so that
        replacing the instruction list (as the optimizer's DCE pass does)
        invalidates it automatically; passes that mutate instructions in place
        should call :meth:`invalidate_label_index`.  Callers must treat the
        returned dict as read-only.
        """
        key = (id(self.instrs), len(self.instrs))
        if self._label_cache is None or self._label_cache_key != key:
            label = Opcode.LABEL  # a member read off the Enum class is slow
            self._label_cache = {
                instr.attrs["name"]: index
                for index, instr in enumerate(self.instrs)
                if instr.op is label
            }
            self._label_cache_key = key
        return self._label_cache

    def invalidate_label_index(self) -> None:
        """Drop the cached label map after mutating ``instrs`` in place.

        Also records the mutation for every other cache derived from the
        instruction stream (see :data:`mutations`).
        """
        self._label_cache = None
        self._label_cache_key = None
        self.mutations += 1

    def __str__(self) -> str:
        header = f"function {self.name}({', '.join(name for name, _ in self.params)})"
        body = "\n".join(f"  {instr}" for instr in self.instrs)
        return f"{header}\n{body}"


@dataclass
class Module:
    """A compiled translation unit."""

    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    context: TypeContext | None = None
    source_name: str = "<memory>"
    source_line_count: int = 0

    def all_instructions(self):
        """Iterate (function, instruction) pairs across the module."""
        for function in self.functions.values():
            for instr in function.instrs:
                yield function, instr

    def __str__(self) -> str:
        return "\n\n".join(str(fn) for fn in self.functions.values())

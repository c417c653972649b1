"""Source-specialized load/store handlers for the predecoded interpreter.

Tier 0's generic load and store operations (:mod:`repro.interp.tier0`,
through the machine's ``_load_scalar``/``_store_scalar``) branch on a dozen
flags that bound code fixes once per machine (check policy, cache timing,
destination representation, ...).  This module generates straight-line
Python source for each distinct flag combination — a "shape" — compiles it
once per process, and :mod:`repro.interp.predecode` instantiates
per-instruction closures from the cached code object.  The generated bodies
are the same operations with the branches resolved, so observational
behaviour (counters, cache state, traps) is identical; the golden-metrics
and tier-0 suites pin this across all seven memory models.

Shapes are tuples of small ints/strings/bools; the cache is unbounded but in
practice a workload produces a few dozen shapes.

The module also owns the generated-source plumbing the block planner sits
on: :func:`block_source` wraps emitted body lines into ``make(B) -> handler``
source, and :func:`block_make` compiles and executes each distinct source
once per process.  A machine then pays one ``make(bindings)`` call per
superinstruction (:mod:`repro.interp.artifact` stores the factories on the
predecode artifact's block plans; see ``docs/pipeline.md``).
"""

from __future__ import annotations

import re
import struct

from repro.common.errors import InterpreterError
from repro.interp.values import (
    INTERN_MAX,
    INTERN_MIN,
    IntVal,
    Provenance,
    PtrVal,
    ptr_to_int,
    qualified,
)

_ADDRESS_MASK = (1 << 64) - 1

#: little-endian struct codes for exact widths; other sizes use int.from_bytes.
_STRUCT_CODES = {(1, True): "b", (1, False): "B", (2, True): "h", (2, False): "H",
                 (4, True): "i", (4, False): "I", (8, True): "q", (8, False): "Q"}
_UNPACKERS = {key: struct.Struct("<" + code).unpack_from
              for key, code in _STRUCT_CODES.items()}
_PACKERS = {key: struct.Struct("<" + code).pack_into
            for key, code in _STRUCT_CODES.items()}

#: shape -> compiled ``make(b)`` function.
_MAKERS: dict[tuple, object] = {}

#: names unpacked from the binding dict into ``make`` locals; the handler
#: closure only captures the ones its generated body actually references.
_BINDING_NAMES = (
    "pslot", "pcoerce", "check_access",
    "size", "last_offset", "line_shift", "line_mask", "nsets_mask", "l1_mru",
    "l1_stats", "hierarchy_access", "machine", "page_mask", "page_size",
    "page_shift", "mem_size", "pages_get", "mem_pages", "read_small",
    "write_small", "write_ptr_raw", "mem_tags", "shadow_get",
    "shadow_entries", "shadow_pages", "shadow_page_shift", "ptr_memo",
    "ptr_memo_get", "load_ptr_no_meta", "allocator", "int_to_ptr",
    "reconcile", "qmask", "table", "out", "next_pc", "signed",
    "read_value", "coerce_bytes", "coerce_signed",
    "size_mask", "comb_mask", "const_raw", "vslot", "vmsg", "pad", "span",
    "mem_unpack", "mem_pack",
)


def unpacker_for(size: int, signed: bool):
    """Prebound struct reader for exact widths (None -> from_bytes path)."""
    return _UNPACKERS.get((size, signed))


def packer_for(size: int):
    """Prebound struct writer for exact widths (None -> to_bytes path)."""
    return _PACKERS.get((size, False))

_GLOBALS = {
    "IntVal": IntVal,
    "PtrVal": PtrVal,
    "Provenance": Provenance,
    "ptr_to_int": ptr_to_int,
    "qualified": qualified,
    "InterpreterError": InterpreterError,
    "INTERN_MIN": INTERN_MIN,
    "INTERN_MAX": INTERN_MAX,
    "M64": _ADDRESS_MASK,
    "int_from_bytes": int.from_bytes,
}


def _emit_prologue(lines, pslot_inline):
    if pslot_inline:
        lines += [
            "        pointer = frame[pslot]",
            "        if type(pointer) is not PtrVal:",
            "            pointer = pcoerce(frame)",
        ]
    else:
        lines.append("        pointer = pcoerce(frame)")
    lines.append("        address = pointer.address")


def _emit_check(lines, flat_check, is_write):
    perm = "2" if is_write else "1"
    flag = "True" if is_write else "False"
    check = f"address = check_access(pointer, size, is_write={flag})"
    if flat_check:  # PDP-11: only the null page faults
        lines += ["        if address < 4096:", f"            {check}"]
    else:  # the base check; anything unusual takes the full call
        lines += [
            "        obj = pointer.obj",
            f"        if not (pointer.tag and pointer.checked and pointer.perms & {perm}",
            "                and pointer.base <= address",
            "                and address + size <= pointer.base + pointer.length",
            "                and (obj is None or not obj.freed)",
            "                and not (address == 0 and obj is None)):",
            f"            {check}",
        ]


def _emit_timing(lines, collect_timing, is_write):
    """A one-line access to its set's MRU line only counts; the rest call.

    ``last_offset`` is the highest offset in a line at which the access
    still fits in that line (negative when it never does).
    """
    if not collect_timing:
        return
    counter = "writes" if is_write else "reads"
    lines += [
        "        line = address >> line_shift",
        "        if address & line_mask <= last_offset and l1_mru[line & nsets_mask] == line:",
        f"            l1_stats.{counter} += 1",
        "        else:",
        f"            hierarchy_access(address, size, is_write={is_write})",
    ]


def load_maker(shape: tuple):
    """``make(b) -> handler`` for a LOAD of the given shape."""
    return _MAKERS.get(shape) or _compile(shape, load_body(shape))


def load_body(shape: tuple) -> list:
    """Raw handler body lines for a LOAD of the given shape.

    shape = (kind, pslot_inline, flat_check, collect_timing, uses_shadow,
             memo, inline_reconcile, qualifies, fast_mem)
    with kind in {"ptr", "psint", "raw", "box"}.
    """
    (kind, pslot_inline, flat_check, collect_timing, uses_shadow,
     memo, inline_reconcile, qualifies, fast_mem) = shape
    lines = []
    _emit_prologue(lines, pslot_inline)
    _emit_check(lines, flat_check, False)
    lines.append("        machine.memory_accesses += 1")
    _emit_timing(lines, collect_timing, False)
    # memory read: pointer-like loads read the 8-byte raw address word but
    # size/bounds reflect the model's pointer width.
    is_ptr_like = kind in ("ptr", "psint")
    if fast_mem:
        fast_read = "mem_unpack(page, offset)[0]"
    elif is_ptr_like:
        fast_read = "int_from_bytes(page[offset:offset + 8], 'little')"
    else:
        fast_read = "int_from_bytes(page[offset:offset + size], 'little', signed=signed)"
    slow_read = ("read_small(address, 8, False)" if is_ptr_like
                 else "read_small(address, size, signed)")
    lines += [
        "        offset = address & page_mask",
        "        if offset + size <= page_size and 0 <= address and address + size <= mem_size:",
        "            page = pages_get(address >> page_shift)",
        f"            raw = 0 if page is None else {fast_read}",
        "        else:",
        f"            raw = {slow_read}",
    ]
    if kind == "raw":
        lines.append("        frame[out] = raw")
    elif kind == "box":
        lines += [
            "        if INTERN_MIN <= raw <= INTERN_MAX:",
            "            frame[out] = table[raw - INTERN_MIN]",
            "        else:",
            "            frame[out] = IntVal(raw, bytes=size, signed=signed)",
        ]
    elif not uses_shadow:
        # Shadow-free models (PDP-11, Relaxed): the entry is statically None,
        # so the reconciliation branches fold away entirely.
        if kind == "ptr":
            if memo:
                lines += [
                    "        loaded = ptr_memo_get(raw)",
                    "        if loaded is None:",
                    "            loaded = ptr_memo[raw] = load_ptr_no_meta(raw, allocator)",
                ]
            else:
                lines.append("        loaded = load_ptr_no_meta(raw, allocator)")
            if qualifies:
                lines.append("        loaded = qualified(loaded, qmask)")
            lines.append("        frame[out] = loaded")
        else:  # psint
            lines.append(
                "        frame[out] = IntVal(raw, bytes=8, signed=signed, pointer_sized=True)")
    else:
        lines.append("        entry = shadow_get(address)")
        if kind == "ptr":
            reconstruct = []
            if memo:
                reconstruct += [
                    "loaded = ptr_memo_get(raw)",
                    "if loaded is None:",
                    "    loaded = ptr_memo[raw] = load_ptr_no_meta(raw, allocator)",
                ]
            else:
                reconstruct.append("loaded = load_ptr_no_meta(raw, allocator)")
            if inline_reconcile:
                lines.append("        if type(entry) is PtrVal and raw == entry.address:")
                lines.append("            loaded = entry")
                lines.append("        elif entry is None or type(entry) is PtrVal:")
                lines += ["            " + text for text in reconstruct]
            else:
                lines.append("        if entry is None:")
                lines += ["            " + text for text in reconstruct]
                lines.append("        elif type(entry) is PtrVal:")
                lines.append("            loaded = reconcile(raw, entry, allocator)")
            lines += [
                "        elif type(entry) is IntVal:",
                "            loaded = int_to_ptr(entry.with_value(raw, provenance=entry.provenance), allocator)",
                "        else:",
                "            raise InterpreterError(f'corrupt shadow entry {entry!r}')",
            ]
            if qualifies:
                lines.append("        loaded = qualified(loaded, qmask)")
            lines.append("        frame[out] = loaded")
        else:  # psint
            lines += [
                "        if type(entry) is IntVal and entry.unsigned == raw:",
                "            frame[out] = IntVal(raw, bytes=8, signed=signed, provenance=entry.provenance, pointer_sized=True)",
                "        elif type(entry) is PtrVal and entry.address == raw:",
                "            frame[out] = IntVal(raw, bytes=8, signed=signed, provenance=Provenance(entry), pointer_sized=True)",
                "        else:",
                "            frame[out] = IntVal(raw, bytes=8, signed=signed, pointer_sized=True)",
            ]
    lines.append("        return next_pc")
    return lines


def store_maker(shape: tuple):
    """``make(b) -> handler`` for a STORE of the given shape."""
    return _MAKERS.get(shape) or _compile(shape, store_body(shape))


def store_body(shape: tuple) -> list:
    """Raw handler body lines for a STORE of the given shape.

    shape = (kind, pslot_inline, flat_check, collect_timing, clear_shadow,
             uses_shadow, value_mode, coerce, wide_span, fast_mem)
    with kind in {"ptr", "scalar"}; value_mode in (0 const, 1 raw slot,
    2 boxed reader) for scalar stores (ptr stores always use the reader).
    """
    (kind, pslot_inline, flat_check, collect_timing, clear_shadow,
     uses_shadow, value_mode, coerce, wide_span, fast_mem) = shape
    lines = []
    _emit_prologue(lines, pslot_inline)
    if kind == "ptr":
        lines.append("        value = read_value(frame)")
        if coerce:  # PointerType store: integers coerce through the model
            lines += [
                "        if type(value) is IntVal:",
                "            value = int_to_ptr(value, allocator)",
            ]
    elif value_mode == 1:
        lines += [
            "        value = frame[vslot]",
            "        if type(value) is not int:",
            "            raise InterpreterError(vmsg)",
            "        raw = value & comb_mask",
        ]
    elif value_mode == 2:
        lines.append("        value = read_value(frame)")
        if coerce:
            lines += [
                "        if type(value) is PtrVal:",
                "            value = ptr_to_int(value, bytes=coerce_bytes, signed=coerce_signed, pointer_sized=False)",
            ]
        lines.append("        raw = (value.unsigned if type(value) is IntVal else int(value)) & size_mask")
    else:
        lines.append("        raw = const_raw")
    _emit_check(lines, flat_check, True)
    lines.append("        machine.memory_accesses += 1")
    _emit_timing(lines, collect_timing, True)
    if kind == "ptr":
        lines.append("        raw = (value.address if type(value) is PtrVal else value.unsigned) & M64")
    if clear_shadow:
        lines += [
            "        if shadow_entries:",
            "            for key in range(address - address % 8, address + size, 8):",
            "                if key in shadow_entries:",
            "                    del shadow_entries[key]",
            "                    shadow_pages[key >> shadow_page_shift].discard(key)",
        ]
    if kind == "ptr":
        lines += [
            "        offset = address & page_mask",
            "        if not mem_tags and offset + span <= page_size and 0 <= address and address + span <= mem_size:",
            "            page = pages_get(address >> page_shift)",
            "            if page is None:",
            "                page = mem_pages[address >> page_shift] = bytearray(page_size)",
            "            mem_pack(page, offset, raw)" if fast_mem
            else "            page[offset:offset + 8] = raw.to_bytes(8, 'little')",
        ]
        if wide_span:
            lines.append("            page[offset + 8:offset + span] = pad")
        lines += [
            "        else:",
            "            write_ptr_raw(address, raw, size)",
        ]
        if uses_shadow:
            lines += [
                "        shadow_entries[address] = value",
                "        page_index = address >> shadow_page_shift",
                "        bucket = shadow_pages.get(page_index)",
                "        if bucket is None:",
                "            shadow_pages[page_index] = {address}",
                "        else:",
                "            bucket.add(address)",
            ]
    else:
        lines += [
            "        offset = address & page_mask",
            "        if not mem_tags and offset + size <= page_size and 0 <= address and address + size <= mem_size:",
            "            page = pages_get(address >> page_shift)",
            "            if page is None:",
            "                page = mem_pages[address >> page_shift] = bytearray(page_size)",
            "            mem_pack(page, offset, raw)" if fast_mem
            else "            page[offset:offset + size] = raw.to_bytes(size, 'little')",
            "        else:",
            "            write_small(address, size, raw)",
        ]
    lines.append("        return next_pc")
    return lines


#: generated source text -> its exec'd ``make(B)`` factory (block plans and
#: the per-shape handlers above).  Artifacts rebuilt for the same function
#: (a recompiled module, a mutated function) regenerate byte-identical
#: sources, and ``compile()`` dominates planning cost.  The module body is a
#: single ``def`` and ``make`` only *reads* its globals, so one namespace per
#: source is safe to share across machines.  The memo is process-level, not
#: per artifact, because a ``make`` and its exec namespace form a reference
#: cycle.
_BLOCKS: dict[str, object] = {}


def block_source(body_lines: list, names: list) -> str:
    """Wrap pre-indented handler body lines into ``make(B) -> handler`` source.

    ``names`` are the binding names exposed as keyword defaults
    (``LOAD_FAST`` at run time, like the per-instruction handlers);
    machine-wide objects are bound once per block under shared names, and
    site scalars are inlined as literals, so the default list stays small
    even for long blocks.
    """
    signature = ("    def handler(frame, "
                 + ", ".join(f"{name}=B[{name!r}]" for name in names) + "):")
    return ("def make(B):\n" + signature + "\n"
            + "\n".join(body_lines) + "\n    return handler\n")


def block_make(source: str, tag: str):
    """The ``make(B)`` factory for block ``source``, compiled once per process.

    A machine then pays one ``make(bindings)`` call per superinstruction
    (:mod:`repro.interp.artifact` stores the factories on its block plans).
    """
    make = _BLOCKS.get(source)
    if make is None:
        namespace = dict(_GLOBALS)
        exec(compile(source, f"<block {tag}>", "exec"), namespace)
        make = _BLOCKS[source] = namespace["make"]
    return make


def _compile(shape: tuple, body_lines: list) -> object:
    body = "\n".join(body_lines)
    # Bind every name the body references as a keyword default, so the
    # handler reads them with LOAD_FAST instead of closure-cell lookups.
    used = [name for name in _BINDING_NAMES if re.search(rf"\b{name}\b", body)]
    make = _MAKERS[shape] = block_make(block_source(body_lines, used), f"hotgen {shape}")
    return make

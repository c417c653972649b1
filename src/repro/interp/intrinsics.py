"""The intrinsic C library provided by the abstract machine.

mini-C has no headers; these functions are implemented directly against the
machine (the way ``malloc`` itself must live partly outside the C abstract
machine, §2 of the paper).  Each intrinsic receives the running
:class:`~repro.interp.machine.AbstractMachine`, the evaluated argument values
and the expected result type, and returns a runtime value.

Memory-touching intrinsics go through the machine's checked access helpers,
so they are subject to the active memory model exactly like compiled code —
``memcpy`` in particular copies pointer metadata the way tagged memory
would, which is what lets capability-oblivious copies move pointers around
without laundering them into forgeable integers.
"""

from __future__ import annotations

from repro.common.errors import InterpreterError, UndefinedBehaviorError
from repro.interp.values import NULL_PTR, IntVal, PtrVal


class ExitProgram(Exception):
    """Raised by ``exit``/``abort`` to unwind the interpreter."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code


def _as_int(value) -> int:
    if isinstance(value, IntVal):
        return value.value
    if isinstance(value, PtrVal):
        return value.address
    raise InterpreterError(f"expected an integer argument, got {value!r}")


def _as_size(value) -> int:
    if isinstance(value, IntVal):
        return value.unsigned
    if isinstance(value, PtrVal):
        return value.address
    raise InterpreterError(f"expected a size argument, got {value!r}")


def _as_ptr(machine, value) -> PtrVal:
    if isinstance(value, PtrVal):
        return value
    if isinstance(value, IntVal):
        return machine.model.int_to_ptr(value, machine.allocator)
    raise InterpreterError(f"expected a pointer argument, got {value!r}")


# ---------------------------------------------------------------------------
# Allocation
# ---------------------------------------------------------------------------


def _malloc(machine, args, result_type):
    size = _as_size(args[0])
    return machine.heap_allocate(size)


def _calloc(machine, args, result_type):
    count = _as_size(args[0])
    size = _as_size(args[1])
    return machine.heap_allocate(count * size)  # memory starts zeroed


def _free(machine, args, result_type):
    pointer = _as_ptr(machine, args[0])
    if pointer.is_null:
        return None
    machine.heap_free(pointer)
    return None


def _realloc(machine, args, result_type):
    pointer = _as_ptr(machine, args[0])
    new_size = _as_size(args[1])
    new_ptr = machine.heap_allocate(new_size)
    if not pointer.is_null and pointer.obj is not None:
        old_size = pointer.obj.size
        machine.copy_memory(new_ptr, pointer, min(old_size, new_size))
        machine.heap_free(pointer)
    return new_ptr


# ---------------------------------------------------------------------------
# Memory operations
# ---------------------------------------------------------------------------


def _memcpy(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    src = _as_ptr(machine, args[1])
    length = _as_size(args[2])
    machine.copy_memory(dst, src, length)
    return dst


def _memmove(machine, args, result_type):
    return _memcpy(machine, args, result_type)


def _memset(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    byte = _as_int(args[1]) & 0xFF
    length = _as_size(args[2])
    machine.write_checked_bytes(dst, bytes([byte]) * length)
    return dst


def _memcmp(machine, args, result_type):
    a = machine.read_checked_bytes(_as_ptr(machine, args[0]), _as_size(args[2]))
    b = machine.read_checked_bytes(_as_ptr(machine, args[1]), _as_size(args[2]))
    if a == b:
        return IntVal(0, bytes=4)
    return IntVal(-1 if a < b else 1, bytes=4)


def _memchr(machine, args, result_type):
    pointer = _as_ptr(machine, args[0])
    needle = _as_int(args[1]) & 0xFF
    length = _as_size(args[2])
    data = machine.read_checked_bytes(pointer, length)
    index = data.find(bytes([needle]))
    if index < 0:
        return NULL_PTR
    return machine.model.ptr_offset(pointer, index)


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


def _strlen(machine, args, result_type):
    return IntVal(len(machine.read_cstring(_as_ptr(machine, args[0]))), bytes=8, signed=False)


def _strcmp(machine, args, result_type):
    a = machine.read_cstring(_as_ptr(machine, args[0]))
    b = machine.read_cstring(_as_ptr(machine, args[1]))
    if a == b:
        return IntVal(0, bytes=4)
    return IntVal(-1 if a < b else 1, bytes=4)


def _strncmp(machine, args, result_type):
    limit = _as_size(args[2])
    a = machine.read_cstring(_as_ptr(machine, args[0]))[:limit]
    b = machine.read_cstring(_as_ptr(machine, args[1]))[:limit]
    if a == b:
        return IntVal(0, bytes=4)
    return IntVal(-1 if a < b else 1, bytes=4)


def _strcpy(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    text = machine.read_cstring(_as_ptr(machine, args[1]))
    machine.write_checked_bytes(dst, text + b"\x00")
    return dst


def _strncpy(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    limit = _as_size(args[2])
    text = machine.read_cstring(_as_ptr(machine, args[1]))[:limit]
    padded = text + b"\x00" * (limit - len(text))
    machine.write_checked_bytes(dst, padded[:limit])
    return dst


def _strchr(machine, args, result_type):
    pointer = _as_ptr(machine, args[0])
    needle = _as_int(args[1]) & 0xFF
    text = machine.read_cstring(pointer) + b"\x00"
    index = text.find(bytes([needle]))
    if index < 0:
        return NULL_PTR
    return machine.model.ptr_offset(pointer, index)


def _strcat(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    existing = machine.read_cstring(dst)
    suffix = machine.read_cstring(_as_ptr(machine, args[1]))
    tail = machine.model.ptr_offset(dst, len(existing))
    machine.write_checked_bytes(tail, suffix + b"\x00")
    return dst


# ---------------------------------------------------------------------------
# Formatted output
# ---------------------------------------------------------------------------


def _parse_spec(spec: bytes) -> tuple[str, int, int | None]:
    """Split a printf conversion spec into (flags, width, precision).

    Length modifiers (``l``/``z``/``h``) only select the argument width in C;
    mini-C values already carry their width, so they are stripped.  Flags are
    the C99 set this runtime honours: ``-`` (left justify), ``0`` (zero pad),
    ``+`` / space (sign of signed conversions).
    """
    text = spec.translate(None, b"lzh").decode("ascii")
    k = 0
    flags = ""
    while k < len(text) and text[k] in "-+ 0":
        flags += text[k]
        k += 1
    width = 0
    while k < len(text) and text[k].isdigit():
        width = width * 10 + int(text[k])
        k += 1
    precision: int | None = None
    if k < len(text) and text[k] == ".":
        k += 1
        precision = 0
        while k < len(text) and text[k].isdigit():
            precision = precision * 10 + int(text[k])
            k += 1
    return flags, width, precision


def _format_number(digits: str, sign: str, prefix: str, flags: str,
                   width: int, precision: int | None) -> bytes:
    """Assemble one numeric conversion with C99 padding rules.

    ``precision`` is the minimum digit count (``%.3d`` of 5 -> ``005``); an
    explicit precision of 0 prints value 0 as the empty string.  The ``0``
    flag pads with zeros *after* the sign/prefix up to the field width, and is
    ignored when ``-`` or a precision is given — both exactly as C printf.
    """
    if precision is not None:
        if precision == 0 and digits == "0":
            digits = ""
        else:
            digits = digits.zfill(precision)
    body = sign + prefix + digits
    if width > len(body):
        if "-" in flags:
            body += " " * (width - len(body))
        elif "0" in flags and precision is None:
            body = sign + prefix + digits.zfill(width - len(sign) - len(prefix))
        else:
            body = body.rjust(width)
    return body.encode()


def _pad_text(data: bytes, flags: str, width: int) -> bytes:
    """Field-width padding for the non-numeric conversions (``%c``/``%s``)."""
    if width <= len(data):
        return data
    pad = b" " * (width - len(data))
    return data + pad if "-" in flags else pad + data


def _format(machine, template: bytes, args: list) -> bytes:
    out = bytearray()
    arg_index = 0
    i = 0
    length = len(template)
    while i < length:
        # bulk-copy the literal run up to the next conversion
        percent = template.find(b"%", i)
        if percent < 0:
            out += template[i:]
            break
        out += template[i:percent]
        # scan the conversion specification
        j = percent + 1
        while j < length and template[j] in b"-+ 0123456789.lzh":
            j += 1
        spec = template[percent + 1 : j]
        conv = template[j : j + 1]
        i = j + 1
        if conv == b"%":
            out += b"%"
            continue
        if arg_index >= len(args):
            out += b"%" + spec + conv
            continue
        value = args[arg_index]
        arg_index += 1
        flags, width, precision = _parse_spec(spec)
        if conv in (b"d", b"i"):
            n = _as_int(value)
            sign = "-" if n < 0 else "+" if "+" in flags else " " if " " in flags else ""
            out += _format_number(str(abs(n)), sign, "", flags, width, precision)
        elif conv == b"u":
            out += _format_number(str(_as_size(value)), "", "", flags, width, precision)
        elif conv in (b"x", b"X"):
            text = format(_as_size(value), "x")
            if conv == b"X":
                text = text.upper()
            out += _format_number(text, "", "", flags, width, precision)
        elif conv == b"c":
            out += _pad_text(bytes([_as_int(value) & 0xFF]), flags, width)
        elif conv == b"s":
            data = machine.read_cstring(_as_ptr(machine, value))
            if precision is not None:
                data = data[:precision]
            out += _pad_text(data, flags, width)
        elif conv == b"p":
            out += _format_number(format(_as_size(value), "x"), "", "0x",
                                  flags, width, precision)
        else:
            out += b"%" + spec + conv
    return bytes(out)


def _printf(machine, args, result_type):
    template = machine.read_cstring(_as_ptr(machine, args[0]))
    text = _format(machine, template, args[1:])
    machine.emit_output(text)
    return IntVal(len(text), bytes=4)


def _sprintf(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    template = machine.read_cstring(_as_ptr(machine, args[1]))
    text = _format(machine, template, args[2:])
    machine.write_checked_bytes(dst, text + b"\x00")
    return IntVal(len(text), bytes=4)


def _snprintf(machine, args, result_type):
    dst = _as_ptr(machine, args[0])
    limit = _as_size(args[1])
    template = machine.read_cstring(_as_ptr(machine, args[2]))
    text = _format(machine, template, args[3:])
    clipped = text[: max(limit - 1, 0)]
    if limit > 0:
        machine.write_checked_bytes(dst, clipped + b"\x00")
    return IntVal(len(text), bytes=4)


def _putchar(machine, args, result_type):
    machine.emit_output(bytes([_as_int(args[0]) & 0xFF]))
    return IntVal(_as_int(args[0]), bytes=4)


def _puts(machine, args, result_type):
    machine.emit_output(machine.read_cstring(_as_ptr(machine, args[0])) + b"\n")
    return IntVal(0, bytes=4)


# ---------------------------------------------------------------------------
# Miscellaneous
# ---------------------------------------------------------------------------


def _abs(machine, args, result_type):
    return IntVal(abs(_as_int(args[0])), bytes=4)


def _labs(machine, args, result_type):
    return IntVal(abs(_as_int(args[0])), bytes=8)


def _exit(machine, args, result_type):
    raise ExitProgram(_as_int(args[0]) if args else 0)


def _abort(machine, args, result_type):
    raise ExitProgram(134)


def _assert(machine, args, result_type):
    if not _as_int(args[0]):
        raise UndefinedBehaviorError("assertion failed in interpreted program")
    return None


def _rand(machine, args, result_type):
    return IntVal(machine.rng.randint(0, 0x7FFFFFFF), bytes=4)


def _srand(machine, args, result_type):
    machine.reseed(_as_int(args[0]))
    return None


def _mini_output_int(machine, args, result_type):
    machine.emit_output(str(_as_int(args[0])).encode() + b"\n")
    return None


def _mini_checkpoint(machine, args, result_type):
    machine.checkpoints.append(_as_int(args[0]))
    return None


INTRINSICS = {
    "malloc": _malloc,
    "calloc": _calloc,
    "free": _free,
    "realloc": _realloc,
    "memcpy": _memcpy,
    "memmove": _memmove,
    "memset": _memset,
    "memcmp": _memcmp,
    "memchr": _memchr,
    "strlen": _strlen,
    "strcmp": _strcmp,
    "strncmp": _strncmp,
    "strcpy": _strcpy,
    "strncpy": _strncpy,
    "strchr": _strchr,
    "strcat": _strcat,
    "printf": _printf,
    "sprintf": _sprintf,
    "snprintf": _snprintf,
    "putchar": _putchar,
    "puts": _puts,
    "abs": _abs,
    "labs": _labs,
    "exit": _exit,
    "abort": _abort,
    "assert": _assert,
    "rand": _rand,
    "srand": _srand,
    "mini_output_int": _mini_output_int,
    "mini_checkpoint": _mini_checkpoint,
}

"""A small two-pass text assembler for the CHERI-MIPS instruction set.

The assembler exists so that the ISA simulator can be exercised with readable
programs (both in the test suite and in the Table 2 benchmark) without a full
compiler back end.  It supports:

* every mnemonic registered in :data:`repro.isa.instructions.INSTRUCTION_SET`,
* labels (``name:``) on instructions, resolved to instruction indices,
* a ``.data`` section with ``.dword`` / ``.asciiz`` directives, placed at
  :data:`DATA_BASE`, with data labels resolved to virtual addresses,
* the ``la`` pseudo-instruction (load address of a data label), and
* ``#`` / ``;`` comments.

Operands follow MIPS conventions: ``$t0`` style registers, ``$c3`` capability
registers, decimal or ``0x`` immediates, and ``offset($base)`` memory
operands.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

from repro.common.errors import SimulationError
from repro.isa.instructions import INSTRUCTION_SET, Instruction, Li
from repro.isa.registers import cap_index, gpr_index

_TOKEN_SPLIT = re.compile(r",\s*(?![^()]*\))")
_MEM_OPERAND = re.compile(r"^(-?\w+)?\s*\(\s*(\$?\w+)\s*\)$")

#: Virtual address the ``.data`` image is loaded at.
DATA_BASE = 0x0040_0000


@dataclass
class Program:
    """An assembled program: instructions plus an initialised data image."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: bytes = b""
    data_labels: dict[str, int] = field(default_factory=dict)

    def label_address(self, name: str) -> int:
        """Instruction index for a code label."""
        if name not in self.labels:
            raise SimulationError(f"unknown code label {name!r}")
        return self.labels[name]

    def data_address(self, name: str) -> int:
        """Virtual address of a data label."""
        if name not in self.data_labels:
            raise SimulationError(f"unknown data label {name!r}")
        return self.data_labels[name]

    def __len__(self) -> int:
        return len(self.instructions)


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def assemble(self, source: str) -> Program:
        """Assemble ``source`` text into a :class:`Program`."""
        lines = self._clean_lines(source)
        program = Program()
        data = bytearray()
        section = "text"
        pending_labels: list[str] = []

        parsed: list[tuple[str, list[str]]] = []
        for line in lines:
            label, rest = self._split_label(line)
            if label is not None:
                if section == "text":
                    pending_labels.append(label)
                else:
                    program.data_labels[label] = DATA_BASE + len(data)
            if not rest:
                continue
            if rest.startswith("."):
                section = self._directive(rest, section, data)
                continue
            mnemonic, operands = self._split_instruction(rest)
            if section != "text":
                raise SimulationError(f"instruction {mnemonic!r} outside .text section")
            for lbl in pending_labels:
                program.labels[lbl] = len(parsed)
            pending_labels.clear()
            parsed.append((mnemonic, operands))

        for lbl in pending_labels:
            program.labels[lbl] = len(parsed)

        program.data = bytes(data)
        for mnemonic, operands in parsed:
            program.instructions.append(self._build(mnemonic, operands, program))
        self._resolve_code_labels(program)
        return program

    # ------------------------------------------------------------------
    # Pass 1 helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _clean_lines(source: str) -> list[str]:
        lines = []
        for raw in source.splitlines():
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if line:
                lines.append(line)
        return lines

    @staticmethod
    def _split_label(line: str) -> tuple[str | None, str]:
        if ":" in line:
            candidate, rest = line.split(":", 1)
            candidate = candidate.strip()
            if re.fullmatch(r"[A-Za-z_.$][\w.$]*", candidate):
                return candidate, rest.strip()
        return None, line

    def _directive(self, line: str, section: str, data: bytearray) -> str:
        parts = line.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            return "text"
        if name == ".data":
            return "data"
        if section != "data":
            raise SimulationError(f"directive {name!r} only valid in .data section")
        if name == ".dword":
            for value in self._int_list(arg):
                data.extend((value & ((1 << 64) - 1)).to_bytes(8, "little"))
        elif name == ".asciiz":
            text = arg.strip()
            if not (text.startswith('"') and text.endswith('"')):
                raise SimulationError(f".asciiz expects a quoted string, got {arg!r}")
            data.extend(text[1:-1].encode("utf-8").decode("unicode_escape").encode("latin-1"))
            data.append(0)
        else:
            raise SimulationError(f"unknown assembler directive {name!r}")
        return section

    @staticmethod
    def _split_instruction(line: str) -> tuple[str, list[str]]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = []
        if len(parts) > 1:
            operands = [op.strip() for op in _TOKEN_SPLIT.split(parts[1]) if op.strip()]
        return mnemonic, operands

    # ------------------------------------------------------------------
    # Pass 2: operand parsing and instruction construction
    # ------------------------------------------------------------------

    def _build(self, mnemonic: str, operands: list[str], program: Program) -> Instruction:
        if mnemonic == "la":
            return self._build_la(operands, program)
        cls = INSTRUCTION_SET.get(mnemonic)
        if cls is None:
            raise SimulationError(f"unknown instruction mnemonic {mnemonic!r}")
        kinds = cls.operand_kinds
        if len(operands) != len(kinds):
            raise SimulationError(
                f"{mnemonic} expects {len(kinds)} operands, got {len(operands)}: {operands}"
            )
        values: list = []
        for kind, text in zip(kinds, operands):
            values.append(self._parse_operand(kind, text, program))
        field_names = [f.name for f in dataclasses.fields(cls)]
        kwargs = {}
        index = 0
        for name in field_names:
            if name in kwargs:
                continue  # already filled by a memory-operand expansion
            value = values[index]
            index += 1
            if isinstance(value, tuple) and name == "offset":
                # memory operand expands to (offset, base)
                kwargs["offset"], kwargs["base"] = value
                continue
            kwargs[name] = value
        return cls(**kwargs)

    def _build_la(self, operands: list[str], program: Program) -> Instruction:
        if len(operands) != 2:
            raise SimulationError(f"la expects 2 operands, got {operands}")
        register = gpr_index(operands[0])
        symbol = operands[1]
        if symbol not in program.data_labels:
            raise SimulationError(f"la references unknown data label {symbol!r}")
        return Li(rt=register, imm=program.data_labels[symbol])

    def _parse_operand(self, kind: str, text: str, program: Program):
        if kind == "r":
            return gpr_index(text)
        if kind == "c":
            return cap_index(text)
        if kind == "i":
            if re.fullmatch(r"-?(0x[0-9a-fA-F]+|\d+)", text):
                return self._parse_int(text)
            return text  # symbolic immediates (e.g. CPtrCmp predicates)
        if kind == "l":
            if re.fullmatch(r"-?(0x[0-9a-fA-F]+|\d+)", text):
                return self._parse_int(text)
            return text  # label, resolved later
        if kind == "m":
            match = _MEM_OPERAND.match(text)
            if not match:
                raise SimulationError(f"malformed memory operand {text!r}")
            offset_text, base_text = match.groups()
            offset = self._parse_int(offset_text) if offset_text else 0
            return (offset, gpr_index(base_text))
        raise SimulationError(f"unknown operand kind {kind!r}")

    def _resolve_code_labels(self, program: Program) -> None:
        for instruction in program.instructions:
            target = getattr(instruction, "target", None)
            if isinstance(target, str):
                instruction.target = program.label_address(target)

    # ------------------------------------------------------------------

    def _int_list(self, arg: str) -> list[int]:
        return [self._parse_int(piece.strip()) for piece in arg.split(",") if piece.strip()]

    @staticmethod
    def _parse_int(text: str) -> int:
        try:
            return int(text, 0)
        except ValueError as exc:
            raise SimulationError(f"invalid integer literal {text!r}") from exc

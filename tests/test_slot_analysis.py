"""The slot-type fixpoint against a reference copy of its round loop.

:func:`repro.interp.artifact.analyze_slots` decides each writer's static
part once and re-evaluates only the writers whose type depends on another
temp.  :func:`reference_analyze_slots` below is the plain form it must
equal: every round re-derives every writer's type from the previous round's
map.  Equality is checked on the golden workloads and a seeded mini-sweep
under both pointer layouts, and on hand-written IR for the shapes the
generated corpus rarely has (temps with several writers, loop-carried
dependences, copy chains).
"""

from __future__ import annotations

import pytest

from repro.core.api import compile_for_model
from repro.difftest import generate_program
from repro.interp.artifact import _const_type, analyze_slots, scalar_int_type
from repro.minic.ir import Const, Instr, Opcode, Temp
from repro.minic.typesys import IntType, PointerType, TypeContext

from test_metrics_golden import WORKLOADS

#: one model per pointer layout (8-byte integer pointers, 32-byte capabilities).
LAYOUT_MODELS = ("pdp11", "cheri_v3")


def reference_analyze_slots(instrs: list, ctx) -> dict:
    """The plain Jacobi round loop: every writer re-derived every round."""

    def raw_safe(operand, prev) -> bool:
        kind = type(operand)
        if kind is Temp:
            return prev.get(operand.index, True) is not None
        if kind is Const:
            return _const_type(operand.ctype, ctx) is not None
        return False

    def writer_type(instr, prev):
        op = instr.op
        if op is Opcode.LOAD:
            return scalar_int_type(instr.ctype, ctx)
        if op is Opcode.CMP:
            return (4, True)
        if op is Opcode.PTRDIFF:
            return (8, True)
        if op is Opcode.BINOP:
            target = scalar_int_type(instr.ctype, ctx)
            if target is None or not all(raw_safe(a, prev) for a in instr.args):
                return None
            return target
        if op is Opcode.UNOP or op is Opcode.BITCAST:
            source = instr.args[0]
            if type(source) is Temp:
                t = prev.get(source.index)
                return t if isinstance(t, tuple) else None
            if type(source) is Const:
                return _const_type(source.ctype, ctx)
            return None
        if op is Opcode.INTCAST:
            target = instr.ctype
            if not isinstance(target, IntType) or target.is_pointer_sized:
                return None
            if not raw_safe(instr.args[0], prev):
                return None
            return (min(target.size(ctx), 8), getattr(target, "signed", True))
        return None

    writers = [instr for instr in instrs if instr.dest is not None]
    prev: dict = {}
    for _ in range(len(writers) + 1):
        cur: dict = {}
        for instr in writers:
            t = writer_type(instr, prev)
            index = instr.dest.index
            if index in cur and cur[index] != t:
                cur[index] = None
            else:
                cur[index] = t
        if cur == prev:
            break
        prev = cur
    return {index: t for index, t in prev.items() if t is not None}


def _assert_modules_agree(source: str) -> int:
    """Compare every function of ``source`` under both layouts; return how
    many functions were compared."""
    compared = 0
    for model in LAYOUT_MODELS:
        module = compile_for_model(source, model)
        for function in module.functions.values():
            expected = reference_analyze_slots(function.instrs, module.context)
            got = analyze_slots(function.instrs, module.context)
            assert got == expected, (model, function.name)
            assert list(got) == list(expected), (model, function.name)
            compared += 1
    return compared


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_workloads_match_the_reference(workload: str) -> None:
    assert _assert_modules_agree(WORKLOADS[workload]())


def test_mini_sweep_matches_the_reference() -> None:
    compared = 0
    for index in range(64):
        compared += _assert_modules_agree(generate_program(0, index).source)
    assert compared > 128


CTX = TypeContext(pointer_bytes=8)
INT = CTX.int_
CHAR = CTX.char
LONG = CTX.long
INT_PTR = PointerType(INT)


def _t(index: int) -> Temp:
    return Temp(index)


def _c(value: int, ctype=INT) -> Const:
    return Const(value, ctype)


def _binop(dest: int, left, right, ctype=INT, operator: str = "+") -> Instr:
    return Instr(Opcode.BINOP, _t(dest), [left, right], ctype, {"operator": operator})


def _label(name: str) -> Instr:
    return Instr(Opcode.LABEL, attrs={"name": name})


def _check(instrs: list, expected: dict) -> None:
    assert reference_analyze_slots(instrs, CTX) == expected
    assert analyze_slots(instrs, CTX) == expected
    assert list(analyze_slots(instrs, CTX)) == list(reference_analyze_slots(instrs, CTX))


def test_loop_counter_stays_unboxed() -> None:
    """``i = 0; while (i < 10) i = i + 1;``: %0 has two writers and reads
    itself, and stays a raw int."""
    _check([
        _binop(0, _c(0), _c(0)),
        _label("head"),
        Instr(Opcode.CMP, _t(1), [_t(0), _c(10)], INT, {"operator": "<"}),
        Instr(Opcode.CJUMP, None, [_t(1)], None, {"then": "body", "else": "done"}),
        _label("body"),
        _binop(0, _t(0), _c(1)),
        Instr(Opcode.JUMP, attrs={"target": "head"}),
        _label("done"),
        Instr(Opcode.RET, None, [_t(0)]),
    ], {0: (4, True), 1: (4, True)})


def test_loop_counter_fed_a_boxed_value_is_demoted() -> None:
    """The same loop adding a pointer's integer value: %0 is demoted in a
    later round, and %3, which reads it, one round after that."""
    _check([
        Instr(Opcode.PTRTOINT, _t(2), [_t(9)], LONG),
        _binop(0, _c(0, LONG), _c(0, LONG), LONG),
        _label("head"),
        _binop(0, _t(0), _t(2), LONG),
        _binop(3, _t(0), _c(2, LONG), LONG, "*"),
        Instr(Opcode.JUMP, attrs={"target": "head"}),
    ], {})


def test_copy_chain_takes_its_source_type() -> None:
    """BITCAST and UNOP copy their source's type along a chain; a copy of a
    boxed temp or of a temp nothing writes is boxed."""
    _check([
        Instr(Opcode.LOAD, _t(0), [_t(20)], CHAR),
        Instr(Opcode.BITCAST, _t(1), [_t(0)], CHAR),
        Instr(Opcode.UNOP, _t(2), [_t(1)], CHAR, {"operator": "neg"}),
        Instr(Opcode.BITCAST, _t(3), [_t(2)], CHAR),
        _binop(4, _t(3), _c(1, CHAR), CHAR),
        Instr(Opcode.PTRTOINT, _t(5), [_t(20)], LONG),
        Instr(Opcode.BITCAST, _t(6), [_t(5)], LONG),
        Instr(Opcode.UNOP, _t(7), [_t(30)], INT, {"operator": "not"}),
        Instr(Opcode.BITCAST, _t(8), [_c(7)], INT),
        Instr(Opcode.BITCAST, _t(9), [_c(0, INT_PTR)], INT_PTR),
    ], {0: (1, True), 1: (1, True), 2: (1, True), 3: (1, True), 4: (1, True),
        8: (4, True)})


def test_two_writers_of_different_types_box_the_temp() -> None:
    """%0 is written as a char and as an int, so it is boxed, and so are
    the arithmetic that reads it and the copy of that arithmetic.  A read
    of a temp written later and a copy of one resolve as well."""
    _check([
        Instr(Opcode.LOAD, _t(0), [_t(20)], CHAR),
        _label("again"),
        Instr(Opcode.LOAD, _t(0), [_t(21)], INT),
        _binop(1, _t(0), _c(1)),
        Instr(Opcode.BITCAST, _t(2), [_t(1)], INT),
        Instr(Opcode.INTCAST, _t(3), [_t(2)], LONG),
        _binop(4, _t(6), _c(1)),
        Instr(Opcode.BITCAST, _t(5), [_t(7)], INT),
        Instr(Opcode.LOAD, _t(6), [_t(21)], INT),
        _binop(7, _t(4), _c(1)),
        Instr(Opcode.LOAD, _t(7), [_t(21)], INT),
        Instr(Opcode.JUMP, attrs={"target": "again"}),
    ], {4: (4, True), 5: (4, True), 6: (4, True), 7: (4, True)})


def test_a_cycle_through_a_copy_stops_at_the_same_round() -> None:
    """%1 copies %2, and %2 is an int unless %1 is demoted: the two flip
    every round, so the round bound ends the loop, at the same round in
    both forms."""
    instrs = [
        Instr(Opcode.BITCAST, _t(1), [_t(2)], INT),
        _binop(2, _t(1), _c(1)),
        Instr(Opcode.LOAD, _t(2), [_t(21)], INT),
    ]
    assert analyze_slots(instrs, CTX) == reference_analyze_slots(instrs, CTX)
    instrs.append(Instr(Opcode.LOAD, _t(3), [_t(21)], INT))  # one more round
    assert analyze_slots(instrs, CTX) == reference_analyze_slots(instrs, CTX)

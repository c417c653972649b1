"""Differential runs free their machine graphs by reference counting.

Handler closures close over their machine and the machine's code cache owns
the handlers of promoted functions, so :meth:`AbstractMachine.run` empties
every promoted function's handler table when it ends, trap or not.  This
test pins that a mini-sweep — trapping programs, budget exhaustion and an
injected engine error raised out of the run included — leaves no machine,
compiled function or handler closure for the cyclic collector.

Trapped results must not keep machines alive either: the runner scrubs
tracebacks along each trap's whole ``__context__``/``__cause__`` chain
(:func:`~repro.interp.machine.scrub_trap`).
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.difftest import DifferentialRunner, generate_program
from repro.difftest.faultinject import Fault, FaultPlan, InjectedEngineError
from repro.interp.artifact import PredecodeArtifact
from repro.interp.machine import AbstractMachine, scrub_trap
from repro.interp.models import PAPER_MODEL_ORDER
from repro.interp.predecode import CompiledFunction
from repro.minic.typesys import CType, StructField

#: front-end objects allowed to stay cyclic: a self-referential struct
#: (``struct node { struct node *next; }``) points back at itself through
#: its field list (``StructType`` -> ``StructField`` -> ``PointerType``), and
#: the collector also reclaims what only that cycle reaches (member types,
#: the struct's layout cache).
FRONT_END_CYCLES = (CType, StructField, list)


def _front_end_reach(garbage: list) -> set:
    """ids of the garbage reachable from the front-end type cycles."""
    in_garbage = {id(obj) for obj in garbage}
    stack = [obj for obj in garbage if isinstance(obj, (CType, StructField))]
    seen: set = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        stack.extend(ref for ref in gc.get_referents(obj) if id(ref) in in_garbage)
    return seen


def _mini_sweep() -> list:
    """Run 16 programs through every runner configuration; return results.

    Each program is also run once with an injected engine fault, which
    raises out of the run: reference counting must still free that machine.
    """
    programs = [generate_program(0, index) for index in range(16)]
    faulty = DifferentialRunner(
        machine_hook=FaultPlan([Fault("engine", 0)]).machine_hook(0, 0))
    for program in programs:
        with pytest.raises(InjectedEngineError):
            faulty.run_program(program)
    runners = [DifferentialRunner(), DifferentialRunner(budget=60)]
    return [runner.run_program(program)
            for runner in runners for program in programs]


def test_mini_sweep_leaves_no_cyclic_machine_garbage():
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        results = _mini_sweep()
        assert all(set(r.results) == set(PAPER_MODEL_ORDER) for r in results)
        traps = [run.trap for r in results for run in r.results.values()]
        assert any(trap is not None and "budget" in str(trap) for trap in traps)
        assert any(trap is not None and "budget" not in str(trap) for trap in traps)
        del results, traps
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    leaked = [type(obj).__name__ for obj in garbage
              if isinstance(obj, (AbstractMachine, CompiledFunction,
                                  types.FunctionType))]
    assert not leaked, f"{len(leaked)} cyclic machine objects: {sorted(set(leaked))}"
    front_end = _front_end_reach(garbage)
    other = {type(obj).__name__ for obj in garbage
             if not isinstance(obj, FRONT_END_CYCLES) and id(obj) not in front_end}
    assert not other, f"unexpected cyclic garbage: {sorted(other)}"


def test_artifacts_die_with_their_functions():
    """A predecode artifact lives on its IR function and holds no reference
    back to it, so dropping a finished run's module frees every artifact by
    reference counting — no process-level cache keeps them."""
    gc.collect()
    alive = [obj for obj in gc.get_objects() if isinstance(obj, PredecodeArtifact)]
    before = {id(obj) for obj in alive}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = DifferentialRunner(analyze=False).run_source(CHAINED_TRAP)
        assert len(out.results) == len(PAPER_MODEL_ORDER)
        del out
        left = [obj for obj in gc.get_objects()
                if isinstance(obj, PredecodeArtifact) and id(obj) not in before]
    finally:
        if was_enabled:
            gc.enable()
    assert not left, f"{len(left)} artifacts outlived their module"


def _chain_tracebacks(exc) -> list:
    found, stack, seen = [], [exc], set()
    while stack:
        err = stack.pop()
        if err is None or id(err) in seen:
            continue
        seen.add(id(err))
        if err.__traceback__ is not None:
            found.append(err)
        stack.extend((err.__cause__, err.__context__))
    return found


def test_scrub_trap_clears_whole_context_chain() -> None:
    try:
        try:
            raise ValueError("inner")
        except ValueError:
            raise KeyError("outer") from None
    except KeyError as exc:
        trap = exc
    assert trap.__context__ is not None  # ``from None`` hides, not unlinks
    assert _chain_tracebacks(trap)
    scrub_trap(trap)
    assert not _chain_tracebacks(trap)
    # the structured chain itself survives (the oracle reads it)
    assert isinstance(trap.__context__, ValueError)
    scrub_trap(None)  # tolerated, like the runner's trap-less path


#: read_global raises ``from None``, so the surfaced trap carries a chained
#: exception whose traceback holds interpreter frames — the leak the scrub
#: exists to cut.  Division traps cover the UndefinedBehaviorError path.
CHAINED_TRAP = r"""
int main(void) {
    int arr[4];
    int i = 0;
    for (i = 0; i < 4; i++) { arr[i] = i; }
    return arr[0] / (arr[1] - arr[1]);
}
"""


def test_runner_traps_have_no_retained_tracebacks() -> None:
    out = DifferentialRunner().run_source(CHAINED_TRAP)
    trapped = 0
    for name, result in out.results.items():
        if result.trap is None:
            continue
        trapped += 1
        assert not _chain_tracebacks(result.trap), name
    assert trapped == len(PAPER_MODEL_ORDER)  # division traps everywhere

"""Differential runs free their machine graphs by reference counting.

Handler closures close over their machine and the machine's code cache owns
the handlers, so an unreleased machine is a reference cycle.  The runner
calls :meth:`AbstractMachine.release` after every model's run; this test
pins that a mini-sweep — serial and lockstep, trapping programs, budget
exhaustion and an injected engine fault included — leaves no machine,
compiled function or handler closure for the cyclic collector.
"""

from __future__ import annotations

import gc
import types

from repro.difftest import DifferentialRunner, generate_program
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER
from repro.interp.predecode import CompiledFunction
from repro.minic.typesys import CType, StructField

#: front-end objects allowed to stay cyclic: a self-referential struct
#: (``struct node { struct node *next; }``) points back at itself through
#: its field list (``StructType`` -> ``StructField`` -> ``PointerType``), and
#: the collector also reclaims the member types only that cycle reaches.
FRONT_END_CYCLES = (CType, StructField, list)


def _arm_fault(machine, _model_name) -> None:
    machine.arm_engine_fault()


def _mini_sweep() -> list:
    """Run 16 programs through every runner configuration; return results."""
    programs = [generate_program(0, index) for index in range(16)]
    runners = [
        DifferentialRunner(machine_hook=_arm_fault),
        DifferentialRunner(lockstep="all"),
        DifferentialRunner(budget=60),
    ]
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
        assert any(run.engine_fallbacks for r in results[:16]
                   for run in r.results.values())
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
    other = {type(obj).__name__ for obj in garbage
             if not isinstance(obj, FRONT_END_CYCLES)}
    assert not other, f"unexpected cyclic garbage: {sorted(other)}"

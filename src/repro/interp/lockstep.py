"""Lockstep batched execution: N machine lanes through one instruction stream.

The differential sweep replays every generated program under seven memory
models.  Serially that pays dispatch setup — predecode binding, block
install, frame management — seven times per program even though the models
of one pointer layout share a single predecode artifact.  This engine steps
several *lanes* (one :class:`~repro.interp.machine.AbstractMachine` each)
through the same superinstruction stream together, so the per-pc binding
work (``lazy_binding=True`` machines build a pc's handler on first
execution) and the shared-plan block installs are paid roughly once per
*reached pc* instead of once per pc per lane.

**Lane layout.**  A lane owns its machine whole: memory, shadow table,
allocator, RNG, output buffer, counters.  Lanes share only immutable state —
the IR module, the predecode artifact, block code objects and the memoized
``make`` factories (:func:`repro.interp.hotgen.block_maker`).  Because no
mutable state crosses lanes, *any* interleaving of lane segments is
observationally identical to running the lanes to completion one after the
other; the scheduler below exploits that freely and
``tests/test_lockstep.py`` pins it (batched == sequential, bit for bit, for
every model, trap and budget edge).

**Divergence mask and rejoin rule.**  The scheduler is round-based: each
round selects ``group_pc = min(lane.pc)`` over the active (not yet finished)
lanes and runs exactly the lanes sitting at ``group_pc`` for one *segment* —
dispatch until the lane reaches the next sync pc or finishes.  Sync pcs are
the artifact's label pcs (every possible branch target; superinstructions
never span one, so pausing there can never split a block dispatch).  A lane
whose pc differs from ``group_pc`` is *diverged* (masked off) for the round;
when the stepped lanes catch up to its pc — PCs reconverge at a block
boundary — it is stepped again, i.e. it **rejoins**.  Min-pc scheduling
plus the guarantee that a segment executes at least one instruction means
every round makes progress, and per-lane budgets bound termination.

**Retirement and the fallback contract.**  A lane leaves the batch in
exactly one of three dispositions (total and mutually exclusive — the
divergence-mask totality property test pins this):

* ``retired``  — the lane trapped (memory-safety/UB/interpreter trap or
  budget exhaustion).  Its activation is torn down exactly like the serial
  engine's and its packaged result carries the identical trap.
* ``rejoined`` — the lane diverged at least once and later completed.
* ``completed`` — the lane ran to completion without ever diverging.

Within a segment the dispatch loop is a literal mirror of
``AbstractMachine._execute`` — including the block-engine demotion path: a
superinstruction that raises an internal error is demoted to the retained
single-step handlers (``code.block_fallbacks``) *for that lane only*, the
charge is undone, and the lane re-executes the pc single-step while sibling
lanes keep their block handlers.  Nested calls inside a segment run
serially within the lane through the ordinary ``machine._call`` path.

Telemetry: lane/round/divergence counters and the lane-occupancy histogram
are registered through :mod:`repro.telemetry.metrics` (names under
``lockstep.``); per-lane wall seconds are accumulated only when the caller
asks (``collect_seconds``) so the runner can keep its per-model
``stage.execute.<model>`` series.
"""

from __future__ import annotations

import time

from repro.common.errors import (
    InterpreterError,
    MemorySafetyError,
    ReproError,
    UndefinedBehaviorError,
)
from repro.interp.artifact import get_artifact
from repro.interp.intrinsics import ExitProgram
from repro.interp.machine import ExecutionResult, scrub_trap
from repro.interp.predecode import HOT_CALL_THRESHOLD
from repro.interp.values import IntVal, PtrVal
from repro.telemetry import metrics
from repro.telemetry.metrics import LANE_BUCKETS

#: lane dispositions (see module docstring).
RETIRED = "retired"
REJOINED = "rejoined"
COMPLETED = "completed"

#: budget-trap message prefix, used only to split the retirement counters.
_BUDGET_PREFIX = "instruction budget of"


class LaneOutcome:
    """One lane's packaged run: the serial-identical result plus batch facts."""

    __slots__ = ("model_name", "result", "disposition", "seconds")

    def __init__(self, model_name: str, result: ExecutionResult,
                 disposition: str, seconds: float) -> None:
        self.model_name = model_name
        #: bit-identical to what ``machine.run()`` would have produced.
        self.result = result
        self.disposition = disposition
        #: wall seconds spent executing this lane's segments (0.0 unless the
        #: engine ran with ``collect_seconds=True``).
        self.seconds = seconds


class _Lane:
    __slots__ = ("machine", "code", "frame", "pc", "fname",
                 "waiting", "ever_diverged", "done", "trap", "exit_code",
                 "seconds")

    def __init__(self, machine) -> None:
        self.machine = machine
        self.code = None
        self.frame = None
        self.pc = 0
        self.fname = ""
        #: currently masked off (pc behind/ahead of the round's group pc).
        self.waiting = False
        self.ever_diverged = False
        self.done = False
        self.trap = None
        self.exit_code: int | None = None
        self.seconds = 0.0


def run_lockstep(machines, *, entry: str = "main", args: list | None = None,
                 collect_seconds: bool = False) -> list[LaneOutcome]:
    """Run one program under several machines in lockstep.

    ``machines`` must share a module/pointer layout (they already do in the
    runner: lanes are the models of one layout group).  Returns one
    :class:`LaneOutcome` per machine, in input order; each ``.result`` is
    bit-identical to what ``machine.run(entry, args)`` would have produced.
    """
    lanes = [_Lane(machine) for machine in machines]
    registry = metrics.registry()
    registry.counter("lockstep.groups").inc()
    registry.counter("lockstep.lanes").inc(len(lanes))
    c_rounds = registry.counter("lockstep.rounds")
    c_diverge = registry.counter("lockstep.divergences")
    c_rejoin = registry.counter("lockstep.rejoins")
    c_occupied = registry.counter("lockstep.occupied_lane_rounds")
    occupancy = registry.histogram("lockstep.occupancy", LANE_BUCKETS)
    clock = time.perf_counter if collect_seconds else None

    # Per-lane prologue, in lane order: __global_init plus opening the entry
    # activation.  Serial by design — globals setup is call-heavy and short.
    call_args = list(args or [])
    for lane in lanes:
        start = clock() if clock is not None else 0.0
        _start(lane, entry, call_args)
        if clock is not None:
            lane.seconds += clock() - start

    active = [lane for lane in lanes if not lane.done]
    if active:
        # All lanes share one artifact (same function object, same layout),
        # so the sync set is computed once for the group.
        is_sync = _sync_flags(active[0])
        while active:
            group_pc = min(lane.pc for lane in active)
            c_rounds.inc()
            stepped = 0
            for lane in active:
                if lane.pc != group_pc:
                    if not lane.waiting:
                        lane.waiting = True
                        lane.ever_diverged = True
                        c_diverge.inc()
                    continue
                if lane.waiting:
                    lane.waiting = False
                    c_rejoin.inc()
                stepped += 1
                start = clock() if clock is not None else 0.0
                _segment(lane, is_sync)
                if clock is not None:
                    lane.seconds += clock() - start
            occupancy.observe(stepped)
            c_occupied.inc(stepped)
            active = [lane for lane in active if not lane.done]

    outcomes = []
    for lane in lanes:
        disposition = (RETIRED if lane.trap is not None
                       else REJOINED if lane.ever_diverged else COMPLETED)
        if disposition is RETIRED:
            is_budget = (isinstance(lane.trap, InterpreterError)
                         and str(lane.trap).startswith(_BUDGET_PREFIX))
            registry.counter("lockstep.retired.budget" if is_budget
                             else "lockstep.retired.trap").inc()
        else:
            registry.counter(f"lockstep.lane.{disposition}").inc()
        outcomes.append(LaneOutcome(lane.machine.model.name, _package(lane),
                                    disposition, lane.seconds))
    return outcomes


def _sync_flags(lane: _Lane) -> list[bool]:
    """Per-pc "is a rejoin boundary" flags for the group's entry function."""
    code = lane.code
    flags = [False] * code.size
    artifact = get_artifact(code.function, lane.machine.ctx)
    for pc in artifact.sync_pcs:
        flags[pc] = True
    return flags


def _start(lane: _Lane, entry: str, args: list) -> None:
    """Run the lane's prologue and open its entry activation.

    Mirrors ``AbstractMachine.run`` up to (and including) the preamble of
    ``_call``/``_execute`` for the entry function; on a prologue trap or
    exit the lane finishes before ever joining the batch.
    """
    machine = lane.machine
    module = machine.module
    try:
        init = module.functions.get("__global_init")
        if init is not None:
            machine._call(init, [])
        function = module.functions.get(entry)
        if function is None:
            raise InterpreterError(f"program has no function {entry!r}")
        if machine._call_depth > 400:
            raise InterpreterError(f"call depth limit exceeded calling {function.name}")
    except ExitProgram as exc:
        lane.exit_code = exc.code
        lane.done = True
        return
    except (MemorySafetyError, UndefinedBehaviorError, InterpreterError) as exc:
        lane.trap = exc
        lane.done = True
        return
    machine._call_depth += 1
    machine.allocator.push_frame()
    try:
        code = machine._code_for(function)
        if code.pending_blocks is not None:
            code.calls += 1
            if code.calls >= HOT_CALL_THRESHOLD:
                install = code.pending_blocks
                code.pending_blocks = None
                install(code)
        if machine._engine_fault is not None:
            machine._arm_engine_fault(code)
        pool = code.pool
        if pool:
            frame = pool.pop()
        else:
            frame = code.frame_proto.copy()
            if code.nallocas:
                frame[1] = [None] * code.nallocas
        frame[0] = args
    except BaseException as exc:
        _close(lane, exc)
        return
    lane.code = code
    lane.frame = frame
    lane.fname = function.name
    lane.pc = 0


def _segment(lane: _Lane, is_sync: list[bool]) -> None:
    """Dispatch one lane until the next sync pc, completion, or a trap.

    The loop is a literal mirror of ``AbstractMachine._execute`` (charge
    order, budget check, block-engine demotion) with two additions: after
    each handler returns, the lane pauses if the new pc is a sync boundary,
    and completion/trap tear the activation down the way ``_execute``'s
    epilogue / ``_call``'s ``finally`` / ``run``'s packaging would.
    """
    machine = lane.machine
    code = lane.code
    frame = lane.frame
    paired = code.paired
    size = code.size
    max_instructions = machine.max_instructions
    fname = lane.fname
    pc = lane.pc
    try:
        while pc < size:
            try:
                while True:
                    machine.instructions = count = machine.instructions + 1
                    if count > max_instructions:
                        raise InterpreterError(
                            f"instruction budget of {machine.max_instructions} "
                            f"exhausted in {fname}")
                    handler, cost = paired[pc]
                    machine.cycles += cost
                    pc = handler(frame)
                    if pc >= size:
                        break
                    if is_sync[pc]:
                        lane.pc = pc
                        return
            except (ReproError, ExitProgram):
                raise
            except Exception as exc:
                # Block-engine fallback, per lane: demote the raising block
                # to its retained single-step path and retry; siblings keep
                # their block handlers (their code objects are their own).
                fallback = (code.block_fallbacks.pop(pc, None)
                            if machine.instructions == count else None)
                if fallback is None:
                    raise
                machine.instructions -= 1
                machine.cycles -= cost
                exc.__traceback__ = None
                paired[pc] = fallback
                machine.engine_faults.append((fname, pc, type(exc).__name__))
    except BaseException as exc:
        _close(lane, exc)
        return
    # Normal completion: the _execute epilogue (reset-on-release frame
    # pooling), then _call's finally, then run()'s result conversion.
    result = frame[2]
    allocas = frame[1]
    frame[:] = code.frame_proto
    if allocas is not None:
        allocas[:] = code.alloca_proto
        frame[1] = allocas
    code.pool.append(frame)
    machine.allocator.pop_frame()
    machine._call_depth -= 1
    lane.done = True
    if isinstance(result, IntVal):
        lane.exit_code = result.value
    elif isinstance(result, PtrVal):
        lane.exit_code = result.address
    else:
        lane.exit_code = 0


def _close(lane: _Lane, exc: BaseException) -> None:
    """Tear down the lane's open entry activation on an exception.

    A trap drops the frame (the pool regrows lazily, exactly like
    ``_execute``), unwinds ``_call``'s ``finally``, and classifies the
    exception the way ``run`` does.  Anything that is neither a trap nor
    ``ExitProgram`` propagates — the serial engine would abort the whole
    program run the same way, so the difftest worker sees the identical
    internal error at program granularity.
    """
    machine = lane.machine
    machine.allocator.pop_frame()
    machine._call_depth -= 1
    if isinstance(exc, ExitProgram):
        lane.exit_code = exc.code
        lane.done = True
        return
    if isinstance(exc, (MemorySafetyError, UndefinedBehaviorError, InterpreterError)):
        lane.trap = exc
        lane.done = True
        return
    raise exc


def _package(lane: _Lane) -> ExecutionResult:
    """Package a finished lane exactly like ``AbstractMachine.run`` does."""
    machine = lane.machine
    trap = lane.trap
    if trap is not None:
        # Retired-lane fallback path of the PR 5 leak fix: scrub the whole
        # context/cause chain, not just the surfaced frame (see
        # machine.scrub_trap).
        scrub_trap(trap)
    return ExecutionResult(
        exit_code=lane.exit_code,
        output=bytes(machine.output),
        trap=trap,
        instructions=machine.instructions,
        cycles=machine.cycles,
        memory_accesses=machine.memory_accesses,
        allocations=machine.allocator.allocation_count,
        allocated_bytes=machine.allocator.bytes_allocated,
        checkpoints=list(machine.checkpoints),
        model_name=machine.model.name,
        engine_fallbacks=len(machine.engine_faults),
    )

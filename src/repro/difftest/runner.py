"""Batched cross-model differential executor.

One generated program is **parsed once** (tokens and AST are pointer-layout
independent), **lowered once per pointer layout** (the seven registered
models share two: 8-byte integer pointers and 32-byte capabilities), then
replayed under every model with a per-run instruction budget.  The machines
run with ``shared_blocks=True``, so every model of a layout binds the same
process-cached predecode artifact (:mod:`repro.interp.artifact`) instead of
re-predecoding per machine — the sweep is compile-bound, not
execution-bound.  Cycle accounting is off by default (the oracle classifies
on architectural observables, not simulated time), trap tracebacks are
dropped so results do not retain machine graphs, and every machine is
released (:meth:`~repro.interp.machine.AbstractMachine.release`) straight
after its run, so reference counting frees it.  See ``docs/difftest.md``
and ``docs/pipeline.md``.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field

from repro.analysis.detector import AnalysisResult, analyze_module
from repro.common.errors import CompilationError
from repro.interp import diskcache
from repro.interp.lockstep import run_lockstep
from repro.interp.machine import AbstractMachine, ExecutionResult, scrub_trap
from repro.interp.models import PAPER_MODEL_ORDER, get_model
from repro.minic.irgen import compile_unit
from repro.minic.optimizer import optimize_module
from repro.minic.parser import parse
from repro.telemetry.trace import NULL_TRACER, timed_span

#: default per-run instruction budget.  Generated programs terminate by
#: construction well under this; the budget is the backstop that keeps a
#: reducer-mangled or hand-written program from wedging a sweep.
DEFAULT_BUDGET = 200_000


@dataclass
class ProgramResult:
    """Outcomes of one program under every requested model."""

    source: str
    results: dict[str, ExecutionResult] = field(default_factory=dict)
    #: per-model compilation failure (should be impossible for generated
    #: programs; surfaced rather than swallowed so the oracle can report it)
    compile_errors: dict[str, str] = field(default_factory=dict)
    #: static idiom analysis of the 8-byte module (report integration)
    analysis: AnalysisResult | None = None


class DifferentialRunner:
    """Compile once per pointer layout, replay under every model."""

    def __init__(self, models: tuple[str, ...] | None = None, *,
                 budget: int = DEFAULT_BUDGET, analyze: bool = True,
                 collect_timing: bool = False, machine_hook=None,
                 static_facts: bool = False, tracer=None,
                 stage_sink=None, lockstep: str | None = None) -> None:
        self.model_names = tuple(models or PAPER_MODEL_ORDER)
        #: batched execution (repro.interp.lockstep): None runs the models of
        #: a layout one machine at a time (the reference path); "pairs" runs
        #: them as 2-lane groups (the pdp11+checked hot pair first, any odd
        #: model serial); "all" runs every model of a layout as one group.
        #: Observationally identical either way — per-lane results are pinned
        #: bit-identical by tests/test_lockstep.py — so, like static_facts,
        #: the engine choice is NOT part of a sweep journal's identity.
        if lockstep not in (None, "pairs", "all"):
            raise ValueError(f"lockstep must be None, 'pairs' or 'all', not {lockstep!r}")
        self.lockstep = lockstep
        #: annotate each compiled module with proven static facts
        #: (repro.staticcheck.facts) so the interpreter can unbox proven
        #: scalar call results and skip provably dead shadow bookkeeping.
        #: Observationally identical to running without facts — only the
        #: wall-clock changes — which the facts export tests pin.
        self.static_facts = static_facts
        #: optional callable ``(machine, model_name)`` invoked on every
        #: freshly constructed machine before it runs — the fault-injection
        #: harness uses it to arm engine faults (difftest/faultinject.py).
        self.machine_hook = machine_hook
        #: telemetry seams (repro.telemetry): ``tracer`` collects per-stage
        #: Perfetto spans, ``stage_sink`` ``(name, seconds)`` samples feed
        #: the stage-latency histograms.  Both default to off, where
        #: :func:`~repro.telemetry.trace.timed_span` collapses to a shared
        #: no-op context manager — sweep observables never depend on either.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stage_sink = stage_sink
        unknown = [m for m in self.model_names if m not in PAPER_MODEL_ORDER]
        if unknown:
            raise ValueError(f"unknown models: {unknown}; known: {PAPER_MODEL_ORDER}")
        self.budget = budget
        self.analyze = analyze
        self.collect_timing = collect_timing
        # the (pointer_bytes, pointer_align) -> model-names grouping is
        # invariant for the runner's lifetime; computing it per run would
        # instantiate every model once per program just to read two attrs
        groups: dict[tuple[int, int], list[str]] = {}
        for name in self.model_names:
            model = get_model(name)
            groups.setdefault((model.pointer_bytes, model.pointer_align), []).append(name)
        self._layout_groups = groups

    # ------------------------------------------------------------------

    def _layouts(self) -> dict[tuple[int, int], list[str]]:
        """The requested models grouped by pointer layout (precomputed)."""
        return self._layout_groups

    def run_source(self, source: str, *, models: tuple[str, ...] | None = None,
                   source_name: str = "<difftest>") -> ProgramResult:
        """Compile ``source`` per layout and execute it under each model."""
        names = tuple(models or self.model_names)
        tracer, sink = self.tracer, self.stage_sink
        out = ProgramResult(source=source)
        # Lexing and parsing are layout-independent: parse once, lower the
        # same AST per pointer layout (a parse failure fails every layout).
        try:
            with timed_span(tracer, sink, "stage.parse"):
                unit, _ = parse(source)
        except CompilationError as exc:
            for layout, layout_models in self._layouts().items():
                for name in layout_models:
                    if name in names:
                        out.compile_errors[name] = f"{type(exc).__name__}: {exc}"
            return out
        line_count = source.count("\n") + 1
        for layout, layout_models in self._layouts().items():
            selected = [m for m in layout_models if m in names]
            if not selected:
                continue
            try:
                with timed_span(tracer, sink, "stage.lower",
                                pointer_bytes=layout[0]):
                    module = compile_unit(unit, pointer_bytes=layout[0],
                                          pointer_align=layout[1], source_name=source_name,
                                          source_line_count=line_count)
                    optimize_module(module)
            except CompilationError as exc:
                for name in selected:
                    out.compile_errors[name] = f"{type(exc).__name__}: {exc}"
                continue
            if self.static_facts:
                # Imported lazily: repro.staticcheck's package init pulls in
                # the predictor, which imports this module.
                from repro.staticcheck.facts import annotate_module
                annotate_module(module)
            if self.analyze and layout[0] == 8 and out.analysis is None:
                with timed_span(tracer, sink, "stage.analyze"):
                    out.analysis = analyze_module(module)
            if self.lockstep is not None and len(selected) > 1:
                self._run_lockstep(module, selected, out, tracer, sink)
            else:
                for name in selected:
                    # shared_blocks: every model of this layout binds the
                    # same cached predecode artifact (slot analysis, fusion,
                    # block code objects) instead of re-predecoding per
                    # machine — the sweep is compile-bound, not
                    # execution-bound.
                    with timed_span(tracer, sink, "stage.predecode", model=name):
                        machine = AbstractMachine(
                            module, get_model(name),
                            max_instructions=self.budget,
                            collect_timing=self.collect_timing,
                            shared_blocks=True,
                        )
                        if self.machine_hook is not None:
                            self.machine_hook(machine, name)
                    # Span and histogram are per model (stage.execute.pdp11
                    # ...): the oracle's hot comparison is pdp11 + one
                    # checked model, so per-model latency is what told the
                    # lockstep engine which pair to vectorize first.
                    try:
                        with timed_span(tracer, sink, f"stage.execute.{name}",
                                        model=name):
                            result = machine.run()
                    finally:
                        machine.release()
                    if result.trap is not None:
                        # The oracle classifies on the trap's type, message
                        # and structured cause; the traceback (and the
                        # tracebacks chained behind ``from None`` raises)
                        # would retain the whole machine graph for as long
                        # as the sweep keeps its results.
                        scrub_trap(result.trap)
                    out.results[name] = result
        if diskcache.enabled():
            # Persist this program's artifacts now that every model has
            # bound them (all policy combinations are memoized); a killed
            # worker loses at most the in-flight program's entries.
            with timed_span(tracer, sink, "stage.cachestore"):
                diskcache.flush()
        return out

    def _run_lockstep(self, module, selected: list[str], out: ProgramResult,
                      tracer, sink) -> None:
        """Execute one layout's models as lockstep lane groups.

        Machines are built up front (same per-model ``stage.predecode`` spans
        and hook as the serial path) with ``lazy_binding=True`` — per-pc
        handler closures are built on first execution, so N lanes pay binding
        roughly once per reached pc instead of N times.  ``pairs`` groups
        adjacent models two at a time, which puts the paper's hot comparison
        (pdp11 + the first checked model) in the first group; an odd leftover
        lane runs serially.  ``all`` batches the whole layout.  Results land
        in ``out.results`` in the same order the serial path would insert
        them, already scrubbed, so corpus artifacts stay byte-identical.
        """
        machines = []
        for name in selected:
            with timed_span(tracer, sink, "stage.predecode", model=name):
                machine = AbstractMachine(
                    module, get_model(name),
                    max_instructions=self.budget,
                    collect_timing=self.collect_timing,
                    shared_blocks=True,
                    lazy_binding=True,
                )
                if self.machine_hook is not None:
                    self.machine_hook(machine, name)
            machines.append(machine)
        if self.lockstep == "all":
            groups = [list(zip(selected, machines))]
        else:
            groups = [list(zip(selected, machines))[i:i + 2]
                      for i in range(0, len(selected), 2)]
        timed = sink is not None or tracer is not NULL_TRACER
        for group in groups:
            if len(group) == 1:
                name, machine = group[0]
                try:
                    with timed_span(tracer, sink, f"stage.execute.{name}",
                                    model=name):
                        result = machine.run()
                finally:
                    machine.release()
                if result.trap is not None:
                    scrub_trap(result.trap)
                out.results[name] = result
                continue
            group_names = [name for name, _machine in group]
            try:
                with tracer.span("stage.execute.lockstep",
                                 models=",".join(group_names)):
                    outcomes = run_lockstep([machine for _name, machine in group],
                                            collect_seconds=timed)
            finally:
                for _name, machine in group:
                    machine.release()
            # The per-model stage.execute series survives batching: each
            # lane's segment wall time is accumulated by the engine and fed
            # to the same histogram names the serial path uses.
            for (name, _machine), outcome in zip(group, outcomes):
                if sink is not None:
                    sink(f"stage.execute.{name}", outcome.seconds)
                out.results[name] = outcome.result

    def run_program(self, program, *, models: tuple[str, ...] | None = None) -> ProgramResult:
        """Run a :class:`~repro.difftest.generator.GeneratedProgram`."""
        return self.run_source(program.source, models=models, source_name=program.name)

    #: programs between young-generation cycle collections during a sweep.
    GC_BATCH = 4

    def sweep(self, programs, *, progress=None) -> list[ProgramResult]:
        """Run a whole corpus; ``progress`` (if given) is called per program.

        :meth:`run_source` releases every machine after its run, so the
        seven machine graphs of a program die by reference counting; the
        only cyclic garbage left is the front end's occasional
        self-referential struct type (a handful of objects).  The loop
        still disables automatic collection, which would otherwise trigger
        on allocation counts alone and rescan the long-lived heap, and runs
        a cheap young-generation pass every :data:`GC_BATCH` programs
        (timed as ``stage.gc``; one full collection at the end).
        """
        results = []
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            for i, program in enumerate(programs):
                results.append(self.run_program(program))
                if was_enabled and (i + 1) % self.GC_BATCH == 0:
                    with timed_span(self.tracer, self.stage_sink, "stage.gc"):
                        gc.collect(1)
                if progress is not None:
                    progress(i, program)
        finally:
            if was_enabled:
                gc.enable()
                gc.collect()
        return results

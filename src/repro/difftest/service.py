"""Fault-tolerant sharded sweep supervisor.

The differential sweep becomes a *service*: a supervisor process shards the
seeded program stream across a pool of isolated worker subprocesses, and no
single program can take the sweep down.

Fault model and responses
-------------------------
* **Worker death** (segfault-equivalent, OOM kill, unpicklable blow-up):
  the worker is respawned with exponential backoff and its in-flight
  program is retried.
* **Hang**: a per-program wall-clock deadline; on expiry the worker is
  killed and treated as dead.
* **Poison programs**: a program that keeps failing after ``retries``
  attempts is quarantined into an ``error:engine`` / ``error:timeout``
  classification for every requested model — the Table-5 taxonomy stays
  total instead of the run aborting.
* **Interpreter-internal errors**: a non-trap exception leaves
  ``AbstractMachine.run`` and is handled like any other in-worker failure:
  retried, then quarantined as ``error:engine``.
* **Torn journal tails**: recovered by ``journal.load_journal`` before
  resuming (and, under ``--inject journal``, mid-run).

Determinism contract
--------------------
Workers never ship programs or results across the process boundary — a task
is ``(index, attempt)``, the worker regenerates the program from
``(corpus_seed, index)`` and returns the JSON-safe
:func:`~repro.difftest.oracle.cell_record`.  Records are merged ordered by
index (the generator makes per-program seeds a pure function of index), so
the rebuilt artifacts are bit-identical to a serial in-process sweep
regardless of worker count, retries, injected faults or resume boundaries.
The write-ahead journal holds exactly these records, one line per program,
which is why ``--resume`` composes with everything else.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import re
import sys
import time
from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ServiceError
from repro.difftest.faultinject import FaultPlan
from repro.difftest.generator import GENERATOR_VERSION, generate_program
from repro.difftest.journal import (
    JournalWriter,
    load_journal,
    make_header,
    truncate_to,
)
from repro.difftest.oracle import cell_record, classify_results
from repro.difftest.runner import DEFAULT_BUDGET, DifferentialRunner
from repro.interp.models import PAPER_MODEL_ORDER
from repro.telemetry import metrics
from repro.telemetry.status import STATUS_VERSION, StatusWriter, ThroughputEMA
from repro.telemetry.trace import NULL_TRACER, TraceBuffer, TraceWriter, timed_span

#: sweep-identity header fields that must match for ``--resume`` (the rest of
#: the header — kind/version — is checked by the journal layer itself).
_IDENTITY_FIELDS = ("seed", "count", "models", "budget", "generator_version",
                    "analyze")


@dataclass
class SweepOutcome:
    """Everything a sweep produced: records in index order, plus run stats."""

    records: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    #: telemetry snapshot (:func:`repro.telemetry.metrics.snapshot` plus the
    #: service stats folded in as ``service.*`` counters), or None when the
    #: sweep ran with telemetry off.
    telemetry: dict | None = None
    #: structured recovery incidents (torn-tail recoveries, injected or
    #: real) — also surfaced in the status file and the stats trailer.
    incidents: list = field(default_factory=list)


def _process_counters() -> dict[str, int]:
    """Current process's artifact-cache and engine counters, namespaced
    for aggregation.

    Workers snapshot this before/after every program and ship the *delta*
    with the result, so the supervisor's totals aggregate across the fork
    boundary instead of silently reporting the parent's zeros.
    """
    from repro.interp.artifact import ARTIFACTS
    from repro.interp.tier0 import ENGINE
    counters = {f"cache.artifact.{key}": value
                for key, value in ARTIFACTS.stats().items()}
    counters.update((f"engine.{key}", value) for key, value in ENGINE.stats().items())
    return counters


def _worker_main(worker_id: int, corpus_seed: int, model_names, budget: int,
                 analyze: bool, plan, telemetry_on: bool, trace_on: bool,
                 task_q, result_q) -> None:
    """Worker loop: regenerate, run, classify, condense — one task at a time.

    Runs in a subprocess.  Tasks are ``("run", index, attempt)`` tuples;
    ``("stop",)`` ends the loop.  Every completed program answers with
    ``("ok", index, record, meta)`` — ``meta`` carries, when telemetry is
    on, the program's stage-latency samples, trace events and process-counter
    deltas (the result queue is the only channel worker telemetry can
    survive on: registries don't cross the fork).  An in-worker failure,
    an internal engine error included, answers ``("error", index, detail)``
    and keeps the worker alive.
    """
    # Worker track ``worker_id + 1`` (the supervisor owns pid 0); the slot
    # id is the stable identity across respawns, the OS pid is an arg.
    tracer = (TraceBuffer(pid=worker_id + 1, tid=0) if trace_on
              else NULL_TRACER)
    stage_samples: list = []
    sink = (lambda name, seconds: stage_samples.append((name, seconds))) \
        if telemetry_on else None
    runner = DifferentialRunner(models=tuple(model_names), budget=budget,
                                analyze=analyze, tracer=tracer,
                                stage_sink=sink)
    # Same GC discipline as DifferentialRunner.sweep: the runner releases
    # every machine after its run, so per-program graphs die by reference
    # counting; the batched young-generation pass only sweeps the front
    # end's few self-referential struct types.
    gc_batch = DifferentialRunner.GC_BATCH
    gc.disable()
    done = 0
    while True:
        task = task_q.get()
        if task[0] == "stop":
            return
        _, index, attempt = task
        try:
            if plan is not None:
                plan.fire_worker_fault(index, attempt)
                runner.machine_hook = plan.machine_hook(index, attempt)
            counters_before = _process_counters() if telemetry_on else None
            with tracer.span("program", index=index, attempt=attempt,
                             os_pid=os.getpid()):
                with timed_span(tracer, sink, "stage.generate"):
                    program = generate_program(corpus_seed, index)
                program_result = runner.run_program(program)
                with timed_span(tracer, sink, "stage.classify"):
                    classification = classify_results(program_result)
                    record = cell_record(program, program_result,
                                         classification)
            done += 1
            if done % gc_batch == 0:
                # Before the meta is built, so the sample ships with this
                # program's stage latencies.
                with timed_span(tracer, sink, "stage.gc"):
                    gc.collect(1)
            meta = {}
            if telemetry_on:
                after = _process_counters()
                meta["counters"] = {key: after[key] - counters_before.get(key, 0)
                                    for key in after
                                    if after[key] != counters_before.get(key, 0)}
                meta["stages"], stage_samples[:] = list(stage_samples), []
                meta["events"] = tracer.drain()
            result_q.put(("ok", index, record, meta))
        except Exception as exc:
            stage_samples.clear()
            tracer.drain()
            result_q.put(("error", index, f"{type(exc).__name__}: {exc}"))


class SweepService:
    """Supervisor for one journaled, fault-tolerant sweep over worker processes."""

    #: supervisor poll interval while all workers are busy.
    POLL_SECONDS = 0.01

    def __init__(self, *, seed: int, count: int, models=None,
                 budget: int = DEFAULT_BUDGET, analyze: bool = True,
                 jobs: int = 1, timeout: float = 30.0, retries: int = 2,
                 inject: FaultPlan | None = None, journal_path: str,
                 progress=None,
                 trace_path: str | None = None,
                 collect_stats: bool = False,
                 status_path: str | None = None,
                 status_interval: float = 2.0) -> None:
        self.seed = seed
        self.count = count
        self.model_names = tuple(models or PAPER_MODEL_ORDER)
        unknown = [m for m in self.model_names if m not in PAPER_MODEL_ORDER]
        if unknown:
            raise ServiceError(f"unknown models: {unknown}; known: {PAPER_MODEL_ORDER}")
        if count < 0:
            raise ServiceError(f"--count must be >= 0, got {count}")
        if jobs < 1:
            raise ServiceError(f"--jobs must be >= 1, got {jobs}")
        if timeout <= 0:
            raise ServiceError(f"--timeout must be positive, got {timeout}")
        if retries < 0:
            raise ServiceError(f"--retries must be >= 0, got {retries}")
        self.budget = budget
        self.analyze = analyze
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.inject = inject if inject else None
        self.journal_path = journal_path
        self.progress = progress
        if status_interval < 0:
            raise ServiceError(
                f"--status-interval must be >= 0, got {status_interval}")
        #: telemetry surfaces (repro.telemetry): a Perfetto trace file, the
        #: end-of-sweep stats snapshot (+ journal trailer), and the live
        #: status file beside the journal.  None of them touch record
        #: content — artifacts are bit-identical on vs off by construction.
        self.trace_path = trace_path
        self.collect_stats = bool(collect_stats)
        self.status_interval = status_interval
        self.status_path = (status_path if status_path is not None
                            else (journal_path + ".status.json"
                                  if status_interval > 0 else None))
        self.telemetry_on = bool(trace_path or self.collect_stats
                                 or self.status_path)
        #: structured recovery incidents accumulated during run().
        self.incidents: list = []
        self._stats_folded = False

    # ------------------------------------------------------------------

    def _header(self) -> dict:
        return make_header(seed=self.seed, count=self.count,
                           models=self.model_names, budget=self.budget,
                           generator_version=GENERATOR_VERSION,
                           analyze=self.analyze)

    def _check_resume_header(self, found: dict, expected: dict) -> None:
        mismatched = [f"{name}: journal has {found.get(name)!r}, "
                      f"this sweep wants {expected[name]!r}"
                      for name in _IDENTITY_FIELDS
                      if found.get(name) != expected[name]]
        if mismatched:
            raise ServiceError(
                f"--resume journal {self.journal_path} belongs to a different "
                "sweep (" + "; ".join(mismatched) + "); re-run without "
                "--resume to start over"
            )

    def _poison_record(self, index: int, cause: str) -> dict:
        """The quarantine record: every requested cell becomes ``error:<cause>``."""
        program = generate_program(self.seed, index)
        category = f"error:{cause}"
        return {
            "index": index,
            "seed": program.seed,
            "features": list(program.features),
            "classification": {m: category for m in self.model_names},
            "metrics": {},
        }

    def _spawn_worker(self, ctx, worker_id: int, respawns: int = 0) -> dict:
        # Per-worker queues on BOTH directions: a SIGKILL mid-``put`` can
        # leave a torn pickle in a pipe, and torn pipes are abandoned with
        # the worker instead of poisoning a shared result stream.
        task_q = ctx.SimpleQueue()
        result_q = ctx.SimpleQueue()
        proc = ctx.Process(target=_worker_main,
                           args=(worker_id, self.seed, self.model_names,
                                 self.budget, self.analyze, self.inject,
                                 self.telemetry_on, bool(self.trace_path),
                                 task_q, result_q),
                           daemon=True, name=f"difftest-worker-{worker_id}")
        proc.start()
        return {"proc": proc, "task_q": task_q, "result_q": result_q,
                "current": None, "deadline": 0.0, "started": 0.0,
                "respawns": respawns}

    @staticmethod
    def _kill_worker(worker: dict) -> None:
        proc = worker["proc"]
        if proc.is_alive():
            proc.terminate()
            proc.join(0.5)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)

    # ------------------------------------------------------------------

    def run(self, *, resume: bool = False) -> SweepOutcome:
        """Execute (or finish) the sweep; records come back in index order."""
        header = self._header()
        target = self.count
        stats = {"completed": 0, "resumed": 0, "retries": 0, "quarantined": 0,
                 "respawns": 0, "timeouts": 0, "worker_errors": 0,
                 "journal_recoveries": 0}
        # Telemetry: a fresh registry per run (before any worker forks), the
        # supervisor's own trace track, the live status file, and the
        # journal-flush hook.  All of it is off (no-op singletons, None
        # writers) unless the sweep opted in.
        registry = metrics.configure(self.telemetry_on)
        self.incidents = []
        self._stats_folded = False
        sup_tracer = TraceBuffer(pid=0, tid=0) if self.trace_path else NULL_TRACER
        trace_writer = TraceWriter(self.trace_path) if self.trace_path else None
        ema = ThroughputEMA()
        status = (StatusWriter(self.status_path, interval=self.status_interval
                               or 2.0)
                  if self.status_path else None)
        flush_hist = registry.histogram("journal.flush_seconds")
        fsync_counter = registry.counter("journal.fsync_batches")
        synced_counter = registry.counter("journal.records_synced")

        def on_sync(batched: int, seconds: float) -> None:
            fsync_counter.inc()
            synced_counter.inc(batched)
            flush_hist.observe(seconds)

        journal_hook = on_sync if self.telemetry_on else None
        completed: dict[int, dict] = {}
        if resume:
            if not os.path.exists(self.journal_path):
                raise ServiceError(f"--resume journal {self.journal_path} does not exist")
            state = load_journal(self.journal_path)
            self._check_resume_header(state.header, header)
            if state.corrupt_tail:
                # Crash recovery, not a clean resume: say so, with enough
                # detail for an operator to audit the journal afterwards.
                truncate_to(self.journal_path, state.valid_bytes)
                stats["journal_recoveries"] += 1
                self._report_torn_tail(state, registry, sup_tracer)
            completed = {index: record for index, record in state.records.items()
                         if 0 <= index < target}
            stats["resumed"] = len(completed)
            writer = JournalWriter.append_to(self.journal_path)
        else:
            writer = JournalWriter.create(self.journal_path, header)
        writer.on_sync = journal_hook

        pending = deque(index for index in range(target)
                        if index not in completed)
        attempts: dict[int, int] = {}
        journal_fault = self.inject.journal_fault_index() if self.inject else None
        workers: dict[int, dict] = {}
        # fork shares the already-warm interpreter (and its predecode
        # artifact cache) with the workers; spawn is the portable fallback.
        method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        ctx = multiprocessing.get_context(method)

        def record_done(index: int, record: dict, quarantined: bool = False) -> None:
            nonlocal writer, journal_fault
            if index in completed:
                return  # late duplicate from a worker we already gave up on
            completed[index] = record
            writer.append(record)
            stats["completed"] += 1
            if quarantined:
                stats["quarantined"] += 1
            if journal_fault is not None and index == journal_fault:
                # Injected torn tail + the full recovery cycle, mid-run: the
                # record just appended stays intact before the torn bytes.
                journal_fault = None
                writer.write_raw(b'{"index":999999999,"torn":')
                writer.close()
                state = load_journal(self.journal_path)
                truncate_to(self.journal_path, state.valid_bytes)
                writer = JournalWriter.append_to(self.journal_path)
                writer.on_sync = journal_hook
                stats["journal_recoveries"] += 1
                self._record_incident(registry, sup_tracer, {
                    "type": "torn_tail_recovery",
                    "journal": self.journal_path,
                    "valid_bytes": state.valid_bytes,
                    "dropped_bytes": len(state.corrupt_tail),
                    "torn_index": None,
                    "injected": True,
                })
            ema.update(len(completed))
            if self.progress is not None:
                self.progress(len(completed), target)

        def record_failure(index: int, cause: str, detail: str) -> None:
            attempts[index] = attempts.get(index, 0) + 1
            stats["timeouts" if cause == "timeout" else "worker_errors"] += 1
            if attempts[index] > self.retries:
                record_done(index, self._poison_record(index, cause),
                            quarantined=True)
            else:
                stats["retries"] += 1
                pending.appendleft(index)

        def absorb_meta(meta: dict) -> None:
            if not self.telemetry_on:
                return
            registry.absorb(meta.get("counters") or {})
            for name, seconds in meta.get("stages") or ():
                registry.histogram(name).observe(seconds)
            if trace_writer is not None:
                trace_writer.add_events(meta.get("events") or ())

        def drain(worker: dict) -> bool:
            result_q = worker["result_q"]
            try:
                if result_q.empty():
                    return False
                message = result_q.get()
            except (EOFError, OSError):
                return False
            if message[0] == "ok":
                _, index, record, meta = message
                absorb_meta(meta)
                record_done(index, record)
            else:
                _, index, detail = message
                record_failure(index, "engine", detail)
            current = worker["current"]
            if current is not None and current[0] == message[1]:
                worker["current"] = None
            return True

        start_time = time.monotonic()

        def build_status() -> dict:
            now = time.monotonic()
            # A program is a straggler once it has been in flight for 5x the
            # fleet's mean per-program wall time (and at least 2 seconds) —
            # the EMA makes the threshold track the workload, not a config.
            mean_program = (self.jobs / ema.rate) if ema.rate else None
            straggler_after = (max(5.0 * mean_program, 2.0)
                               if mean_program else float("inf"))
            workers_info = {}
            for worker_id, worker in workers.items():
                current = worker["current"]
                busy = (now - worker["started"]) if current else 0.0
                workers_info[str(worker_id)] = {
                    "alive": worker["proc"].is_alive(),
                    "os_pid": worker["proc"].pid,
                    "current_index": current[0] if current else None,
                    "busy_seconds": round(busy, 3),
                    "respawns": worker["respawns"],
                    "straggler": bool(current and busy > straggler_after),
                }
            cache = {name[len("cache."):]: value
                     for name, value in registry.counter_values("cache.").items()}
            done = len(completed) >= target
            return {
                "version": STATUS_VERSION,
                "journal": self.journal_path,
                "seed": self.seed,
                "count": self.count,
                "target": target,
                "completed": len(completed),
                "resumed": stats["resumed"],
                "pending": len(pending),
                "elapsed_seconds": round(now - start_time, 3),
                "throughput_programs_per_s": (round(ema.rate, 3)
                                              if ema.rate is not None else None),
                "eta_seconds": (round(eta, 1) if (eta := ema.eta_seconds(
                    target - len(completed))) is not None else None),
                "workers": workers_info,
                "cache": cache,
                "counters": dict(stats),
                "recoveries": list(self.incidents),
                "done": done,
            }

        try:
            if pending:
                for worker_id in range(min(self.jobs, len(pending))):
                    workers[worker_id] = self._spawn_worker(ctx, worker_id)
            while len(completed) < target:
                progressed = False
                for worker_id, worker in list(workers.items()):
                    while drain(worker):
                        progressed = True
                    proc = worker["proc"]
                    if not proc.is_alive():
                        while drain(worker):
                            progressed = True
                        if worker["current"] is not None:
                            index, _attempt = worker["current"]
                            worker["current"] = None
                            record_failure(
                                index, "engine",
                                f"worker exited with code {proc.exitcode}")
                        workers[worker_id] = self._respawn(ctx, worker_id,
                                                           worker, stats)
                        progressed = True
                        continue
                    if (worker["current"] is not None
                            and time.monotonic() > worker["deadline"]):
                        index, _attempt = worker["current"]
                        worker["current"] = None
                        self._kill_worker(worker)
                        record_failure(index, "timeout",
                                       f"exceeded {self.timeout:.1f}s timeout")
                        workers[worker_id] = self._respawn(ctx, worker_id,
                                                           worker, stats)
                        progressed = True
                        continue
                    if worker["current"] is None and pending:
                        index = pending.popleft()
                        attempt = attempts.get(index, 0)
                        worker["task_q"].put(("run", index, attempt))
                        worker["current"] = (index, attempt)
                        now = time.monotonic()
                        worker["deadline"] = now + self.timeout
                        worker["started"] = now
                        progressed = True
                if status is not None:
                    status.maybe_write(build_status)
                if not progressed:
                    if not pending and all(w["current"] is None
                                           for w in workers.values()):
                        missing = sorted(set(range(target)) - set(completed))
                        raise ServiceError(
                            f"sweep stalled with no work in flight; missing "
                            f"indices {missing[:8]}")
                    time.sleep(self.POLL_SECONDS)
            # Sweep complete: persist this session's telemetry as a journal
            # stats trailer, one per session, so a resumed sweep keeps every
            # session's stats (records and artifacts are unaffected).
            if self.collect_stats:
                writer.append_stats(self._stats_payload(stats, registry))
        finally:
            for worker in workers.values():
                if worker["proc"].is_alive() and worker["current"] is None:
                    try:
                        worker["task_q"].put(("stop",))
                    except OSError:
                        pass
            deadline = time.monotonic() + 2.0
            for worker in workers.values():
                worker["proc"].join(max(0.0, deadline - time.monotonic()))
                self._kill_worker(worker)
            writer.close()
            if status is not None:
                status.maybe_write(build_status, force=True)
            if trace_writer is not None:
                trace_writer.set_process_name(0, "difftest-supervisor")
                for worker_id in workers:
                    trace_writer.set_process_name(worker_id + 1,
                                                  f"difftest-worker-{worker_id}")
                trace_writer.add_events(sup_tracer.drain())
                trace_writer.close()

        telemetry = None
        if self.telemetry_on:
            # Fold the service stats in as counters so one snapshot carries
            # everything the summary report and the stats trailer need.
            telemetry = self._fold_stats(stats, registry)
        return SweepOutcome(
            records=[completed[index] for index in range(target)],
            stats=stats,
            telemetry=telemetry,
            incidents=list(self.incidents),
        )

    def _report_torn_tail(self, state, registry, sup_tracer) -> None:
        """Distinguish a crash recovery from a clean resume.

        The human-readable stderr line is kept, but the recovery is now a
        structured incident too: a ``journal.torn_tail_recoveries`` counter,
        an entry in :attr:`incidents` (surfaced in the status file, the
        ``--stats`` trailer and :class:`SweepOutcome`), and a trace instant
        on the supervisor track.
        """
        match = re.search(rb'"index"\s*:\s*(-?\d+)', state.corrupt_tail)
        torn_index = int(match.group(1)) if match else None
        self._record_incident(registry, sup_tracer, {
            "type": "torn_tail_recovery",
            "journal": self.journal_path,
            "valid_bytes": state.valid_bytes,
            "dropped_bytes": len(state.corrupt_tail),
            "torn_index": torn_index,
            "injected": False,
        })
        sys.stderr.write(
            f"run_difftest: --resume recovered a torn tail in journal "
            f"{self.journal_path}: truncated to byte offset "
            f"{state.valid_bytes}, dropping {len(state.corrupt_tail)} "
            f"corrupt trailing byte(s); program index "
            f"{torn_index if torn_index is not None else 'unknown'} "
            f"will be re-run\n")

    def _record_incident(self, registry, sup_tracer, incident: dict) -> None:
        """File one structured recovery incident with every telemetry surface."""
        self.incidents.append(incident)
        registry.counter("journal.torn_tail_recoveries").inc()
        sup_tracer.instant(incident["type"], cat="recovery",
                           **{key: value for key, value in incident.items()
                              if key != "type"})

    def _fold_stats(self, stats: dict, registry) -> dict:
        """Fold service stats into the registry as ``service.*`` counters
        (once per run) and return a fresh snapshot.  The stats trailer and
        the outcome each take their own snapshot: the outcome's is later and
        additionally sees the journal's close-time fsync."""
        if not self._stats_folded:
            self._stats_folded = True
            for key, value in stats.items():
                if value:
                    registry.counter(f"service.{key}").inc(value)
        return registry.snapshot()

    def _stats_payload(self, stats: dict, registry) -> dict:
        """The journal stats-trailer body (``journal.STATS_KIND`` line)."""
        return {
            "version": 1,
            "service": dict(stats),
            "metrics": self._fold_stats(stats, registry),
            "incidents": list(self.incidents),
        }

    def _respawn(self, ctx, worker_id: int, dead_worker: dict, stats: dict) -> dict:
        respawns = dead_worker["respawns"] + 1
        stats["respawns"] += 1
        # Exponential backoff, capped: a worker dying in a tight loop (bad
        # node, OOM thrash) must not fork-bomb the supervisor.
        time.sleep(min(0.05 * 2 ** (respawns - 1), 1.0))
        return self._spawn_worker(ctx, worker_id, respawns)

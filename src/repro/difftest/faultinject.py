"""Deliberate faults for the sharded difftest service.

The supervisor's recovery paths — worker respawn, per-program timeout,
retry-then-quarantine, torn-journal repair — are themselves code, and code
that only runs during real failures is code that rots.  This module turns
each failure mode into something a CLI flag (``run_difftest --inject``) or a
test can schedule deterministically:

* ``crash``   — the worker process exits hard (``os._exit``) before running
  the program: the segfault/OOM-kill equivalent.
* ``hang``    — the worker sleeps forever on the program: exercises the
  wall-clock timeout and the kill/respawn path.
* ``engine``  — the entry function's first handler is replaced by one that
  raises an internal (non-trap) exception, which leaves
  ``AbstractMachine.run`` the way a genuine engine bug would: exercises the
  worker's error answer and the supervisor's retry-then-quarantine path.
* ``journal`` — the supervisor appends a torn tail to the write-ahead
  journal and immediately runs the recovery cycle: exercises
  ``journal.load_journal``'s truncate-and-continue path.

Faults default to *transient*: they fire on a program's first attempt only,
so the retry produces the true record and the sweep's merged artifacts stay
bit-identical to a fault-free run — which is exactly the property the
fault-injection acceptance test pins.  ``always=True`` makes a fault
persistent, driving the program into quarantine
(``error:engine``/``error:timeout``) instead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.common.errors import ServiceError

#: exit status of an injected worker crash: distinguishable from both a clean
#: exit and a signal death in the supervisor's logs.
CRASH_EXIT = 113

#: recognised fault kinds, in the order ``--inject all`` schedules them.
FAULT_KINDS = ("crash", "hang", "engine", "journal")


class InjectedEngineError(RuntimeError):
    """The internal error an injected engine fault raises.

    Deliberately *not* a :class:`~repro.common.errors.ReproError`: the whole
    point is to look like an interpreter bug, which ``AbstractMachine.run``
    must let through rather than classify as a trap.
    """


def _raise_engine_error(frame):
    raise InjectedEngineError("injected engine fault")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: ``kind`` fires at corpus index ``index``."""

    kind: str
    index: int
    #: transient faults (the default) fire on attempt 0 only; persistent
    #: faults fire on every attempt and force quarantine.
    always: bool = False


class FaultPlan:
    """The set of faults scheduled for one sweep (picklable; sent to workers)."""

    def __init__(self, faults=()):  # noqa: D401 - trivial container
        self.faults = tuple(faults)
        for fault in self.faults:
            if fault.kind not in FAULT_KINDS:
                raise ServiceError(f"unknown fault kind {fault.kind!r}; "
                                   f"known: {', '.join(FAULT_KINDS)}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def _active(self, kind: str, index: int, attempt: int) -> bool:
        return any(fault.kind == kind and fault.index == index
                   and (fault.always or attempt == 0)
                   for fault in self.faults)

    # -- worker side ---------------------------------------------------

    def fire_worker_fault(self, index: int, attempt: int) -> None:
        """Crash or hang the calling worker if a fault is due.  Called in the
        worker process immediately before it runs program ``index``."""
        if self._active("crash", index, attempt):
            os._exit(CRASH_EXIT)
        if self._active("hang", index, attempt):
            while True:  # killed by the supervisor's timeout path
                time.sleep(3600)

    def machine_hook(self, index: int, attempt: int):
        """The per-program machine hook planting an engine fault, or ``None``.

        The hook replaces pc 0 of the entry function's compiled code with a
        handler (same cost) that raises :class:`InjectedEngineError`.
        """
        if not self._active("engine", index, attempt):
            return None

        def hook(machine, _model_name):
            code = machine._code_for(machine.module.functions["main"])
            code.paired[0] = (_raise_engine_error, code.paired[0][1])

        return hook

    # -- supervisor side -----------------------------------------------

    def journal_fault_index(self) -> int | None:
        """The index whose completion should tear the journal, or ``None``."""
        for fault in self.faults:
            if fault.kind == "journal":
                return fault.index
        return None


def _spread_indices(count: int) -> list[int]:
    """One well-separated corpus index per kind (the ``--inject all`` schedule)."""
    slots = len(FAULT_KINDS) + 1
    indices = [count * (k + 1) // slots for k in range(len(FAULT_KINDS))]
    if len(set(indices)) < len(FAULT_KINDS):
        indices = list(range(len(FAULT_KINDS)))
    return indices


def parse_inject_spec(spec: str, count: int) -> FaultPlan:
    """Parse a ``--inject`` value into a :class:`FaultPlan`.

    Grammar: ``all`` (one transient fault of every kind at spread indices),
    or a comma-separated list of ``kind[:index[:always]]`` items.  An
    omitted index falls back to the kind's slot in the spread schedule.
    Worker-side fault indices (everything but ``journal``) must be mutually
    distinct — two faults racing for one program would make the retry
    outcome schedule-dependent, which the bit-identity contract forbids.
    """
    items = [item.strip() for item in spec.split(",") if item.strip()]
    if not items:
        raise ServiceError("--inject got an empty fault spec")
    if "all" in items:
        if items != ["all"]:
            raise ServiceError("--inject all cannot be combined with other faults")
        if count < len(FAULT_KINDS):
            raise ServiceError(f"--inject all needs a corpus of >= "
                               f"{len(FAULT_KINDS)} programs, got {count}")
        return FaultPlan([Fault(kind, index)
                          for kind, index in zip(FAULT_KINDS, _spread_indices(count))])
    defaults = dict(zip(FAULT_KINDS, _spread_indices(max(count, len(FAULT_KINDS)))))
    faults = []
    for item in items:
        kind, _, rest = item.partition(":")
        if kind not in FAULT_KINDS:
            raise ServiceError(f"unknown fault kind {kind!r} in --inject; "
                               f"known: {', '.join(FAULT_KINDS)}")
        index_text, _, flag = rest.partition(":")
        if flag and flag != "always":
            raise ServiceError(f"bad fault modifier {flag!r} in --inject "
                               f"(only 'always' is recognised)")
        try:
            index = int(index_text) if index_text else defaults[kind]
        except ValueError:
            raise ServiceError(f"bad fault index {index_text!r} in --inject") from None
        if not 0 <= index < count:
            raise ServiceError(f"fault index {index} is outside the corpus "
                               f"(0..{count - 1})")
        faults.append(Fault(kind, index, always=flag == "always"))
    worker_side = [f for f in faults if f.kind != "journal"]
    if len({f.index for f in worker_side}) < len(worker_side):
        raise ServiceError("worker-side faults (crash/hang/engine) "
                           "must target distinct programs")
    return FaultPlan(faults)

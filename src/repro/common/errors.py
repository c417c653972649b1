"""Exception hierarchy for the whole reproduction.

The hierarchy mirrors the layers of the system:

* :class:`ReproError` — root of everything raised intentionally by the library.
* :class:`MemorySafetyError` — hardware-style protection traps raised by the
  capability model, the tagged memory and the abstract-machine memory models
  (bounds, tag, permission and alignment violations).
* :class:`CompilationError` — problems in the mini-C front end (lexing,
  parsing, type checking, IR generation).
* :class:`SimulationError` / :class:`TrapError` — problems while executing
  machine code on the ISA simulator.
* :class:`InterpreterError` / :class:`UndefinedBehaviorError` — problems while
  executing IR on the abstract-machine interpreter.

Keeping protection traps as a distinct subtree is important: the evaluation
(Table 3) distinguishes between a program that *runs and produces the right
answer*, one that *traps* (the memory model rejects the idiom), and one that
*silently produces a wrong answer* (the model is unsound for the idiom).
"""

from __future__ import annotations

import pickle


def _rebuild_error(cls, args, state):
    """Reconstruct a :class:`ReproError` on the far side of a pickle boundary.

    Constructors in this hierarchy take keyword-only metadata and may rewrite
    the message (:class:`CompilationError` appends the source location), so
    the default ``Exception.__reduce__`` — which re-invokes ``cls(*args)`` —
    would either fail or double-apply that rewriting.  Rebuilding bypasses
    ``__init__`` and restores ``args`` plus the structured attributes
    verbatim.
    """
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    for name, value in state.items():
        setattr(exc, name, value)
    return exc


class ReproError(Exception):
    """Base class of every exception intentionally raised by this library.

    Every subclass pickles losslessly (``__reduce__`` below): trap causes,
    fault addresses and source locations survive a multiprocessing boundary,
    so the sharded difftest service never falls back to parsing messages.
    Subclasses with keyword-only constructor metadata override
    :meth:`_pickle_state` to name the attributes that must travel.
    """

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self._pickle_state()))

    def _pickle_state(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# Memory-safety traps (shared by the ISA simulator and the interpreters)
# ---------------------------------------------------------------------------


class MemorySafetyError(ReproError):
    """A protection violation detected by a memory-safe implementation.

    Instances carry an optional ``address`` and ``capability`` describing the
    faulting access so that tests and debuggers can assert on the precise
    cause of the trap.  ``cause`` is a short symbolic category (``"bounds"``,
    ``"tag"``, ``"uaf"``, ...) used by the differential-testing oracle to
    bucket traps without parsing messages; each subclass supplies a default.
    """

    #: default symbolic trap category, overridden by subclasses and refinable
    #: per raise site via the ``cause`` keyword.
    default_cause = "safety"

    def __init__(self, message: str, *, address: int | None = None, capability=None,
                 cause: str | None = None):
        super().__init__(message)
        self.address = address
        self.capability = capability
        self.cause = cause or self.default_cause

    def _pickle_state(self) -> dict:
        capability = self.capability
        if capability is not None:
            # The faulting capability can reference interpreter-internal
            # object graphs (heap objects, allocator state) that have no
            # business crossing a process boundary; degrade to its repr
            # rather than poisoning the whole trap.
            try:
                pickle.dumps(capability)
            except Exception:
                capability = repr(capability)
        return {"address": self.address, "capability": capability,
                "cause": self.cause}


class BoundsViolation(MemorySafetyError):
    """An access fell outside the bounds associated with a pointer."""

    default_cause = "bounds"


class TagViolation(MemorySafetyError):
    """A capability with a cleared tag was used for memory access or jump."""

    default_cause = "tag"


class PermissionViolation(MemorySafetyError):
    """An access requested a permission the capability does not grant."""

    default_cause = "permission"


class AlignmentViolation(MemorySafetyError):
    """A capability (or capability-sized access) was not naturally aligned."""

    default_cause = "alignment"


# ---------------------------------------------------------------------------
# mini-C front end
# ---------------------------------------------------------------------------


class CompilationError(ReproError):
    """Base class for all front-end failures.

    ``line`` and ``column`` are 1-based source coordinates when known.
    """

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column

    def _pickle_state(self) -> dict:
        return {"line": self.line, "column": self.column}


class LexError(CompilationError):
    """The lexer encountered an invalid token."""


class ParseError(CompilationError):
    """The parser encountered a construct outside the mini-C grammar."""


class TypeCheckError(CompilationError):
    """Semantic analysis rejected the program."""


# ---------------------------------------------------------------------------
# ISA simulator
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """The ISA simulator was asked to do something impossible (bad encoding,
    unknown register, program ran off the end of memory, ...)."""


class TrapError(SimulationError):
    """A synchronous exception raised by an executing instruction.

    ``cause`` is a short symbolic string (e.g. ``"bounds"``, ``"tag"``,
    ``"permission"``, ``"overflow"``, ``"syscall"``) used by the trap tests.
    """

    def __init__(self, message: str, *, cause: str = "trap", pc: int | None = None):
        super().__init__(message)
        self.cause = cause
        self.pc = pc

    def _pickle_state(self) -> dict:
        return {"cause": self.cause, "pc": self.pc}


# ---------------------------------------------------------------------------
# Abstract-machine interpreter
# ---------------------------------------------------------------------------


class InterpreterError(ReproError):
    """The IR interpreter reached an invalid state (bad IR, missing function)."""


class UndefinedBehaviorError(InterpreterError):
    """The interpreted program relied on behaviour the active memory model
    defines as undefined (the model chose to report rather than continue)."""


# ---------------------------------------------------------------------------
# Differential-sweep service
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """The difftest sweep service could not satisfy a request: a resume
    journal from a different sweep, an unusable worker pool, or an injection
    spec that does not fit the corpus."""


class JournalError(ServiceError):
    """A sweep journal is unreadable beyond torn-tail recovery: missing or
    wrong header, or a corrupt line in the *interior* of the file (a torn
    final line is recovered automatically, not reported here)."""

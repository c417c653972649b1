"""Write-ahead journal for checkpointed differential sweeps.

One sweep = one journal file.  The first line is a *header* describing the
sweep's identity (corpus seed, program count, model list, budget, generator
version, analysis flag); every line after it is one completed program's
:func:`~repro.difftest.oracle.cell_record` — except *stats trailers*
(:data:`STATS_KIND` lines appended at session completion under ``--stats``),
which carry telemetry snapshots and are collected separately on load so a
resumed sweep keeps every session's stats without ever confusing them with
records.  The format is line-oriented
JSON so a torn final line — the only corruption an append-crash can produce
— is detectable and recoverable without touching the completed records
before it.

Durability contract
-------------------
* Records are appended through an ``O_APPEND`` handle and ``fsync``-batched
  (every :data:`JournalWriter.FSYNC_EVERY` appends, plus on close), so a
  crash loses at most the un-synced suffix, never the interior.
* :func:`load_journal` accepts exactly one torn line, and only at the tail:
  a line that fails to parse *or* a final line missing its ``\\n``.  The
  torn bytes are reported (``corrupt_tail``) so the supervisor can truncate
  and re-run that one program.  A corrupt *interior* line means the file was
  damaged by something other than an append crash and raises
  :class:`~repro.common.errors.JournalError` — silently skipping interior
  records would desynchronize the resume.
* Truncation (:func:`truncate_to`) and appending never share a handle: the
  writer always opens in append mode, so a recovered journal cannot grow a
  hole of NUL bytes between the truncate point and the next record.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.common.errors import JournalError

#: first-line discriminator: refuse to resume from a file that is not a
#: difftest journal (or is a journal from an incompatible future format).
JOURNAL_KIND = "repro-difftest-journal"
JOURNAL_VERSION = 1

#: discriminator for stats-trailer lines: at sweep completion (with
#: ``--stats``) the service appends one line carrying its session's
#: telemetry snapshot, so a resumed sweep keeps every session's stats.
#: Trailers are *not* records: they carry no program index, resume may
#: leave them mid-file (each session appends its own), and they never
#: influence the sweep artifacts.
STATS_KIND = "repro-difftest-stats"


def _dump_line(payload: dict) -> bytes:
    # No sort_keys: cell records carry their model dicts in classification
    # order (the matrix derives column order from it), and that order must
    # survive the journal byte-for-byte.  Construction order is already
    # deterministic, so journal bytes are too.
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def make_header(*, seed: int, count: int, models, budget: int,
                generator_version: int, analyze: bool) -> dict:
    """The sweep-identity header written as the journal's first line."""
    return {
        "kind": JOURNAL_KIND,
        "version": JOURNAL_VERSION,
        "seed": seed,
        "count": count,
        "models": list(models),
        "budget": budget,
        "generator_version": generator_version,
        "analyze": analyze,
    }


class JournalWriter:
    """Append-only record writer with batched fsync."""

    #: appends between fsyncs: bounds data-loss on a crash to 16 programs
    #: (which resume simply re-runs) without paying a sync per record.
    FSYNC_EVERY = 16

    def __init__(self, path: str, handle) -> None:
        self.path = path
        self._handle = handle
        self._pending = 0
        #: optional telemetry hook ``(batched_appends, flush_seconds)``
        #: invoked after every fsync batch (repro.telemetry wiring; the
        #: journal itself has no telemetry dependency).
        self.on_sync = None

    @classmethod
    def create(cls, path: str, header: dict) -> "JournalWriter":
        """Start a fresh journal (truncates any previous file at ``path``)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # Truncate with a throwaway handle, then reopen O_APPEND: every byte
        # this writer ever emits goes through an append-mode handle.
        open(path, "wb").close()
        writer = cls(path, cls._open_append(path))
        writer._handle.write(_dump_line(header))
        writer._sync()
        return writer

    @classmethod
    def append_to(cls, path: str) -> "JournalWriter":
        """Continue an existing (already validated) journal."""
        return cls(path, cls._open_append(path))

    @staticmethod
    def _open_append(path: str):
        # Unbuffered on purpose: every append is one atomic O_APPEND write().
        # A userspace buffer would be fork-inherited by worker subprocesses,
        # whose interpreters flush it again on exit — splicing stale journal
        # bytes (duplicates, or a torn fragment mid-file) into the live
        # journal behind the supervisor's back.
        return open(path, "ab", buffering=0)

    def append(self, record: dict) -> None:
        self._handle.write(_dump_line(record))
        self._pending += 1
        if self._pending >= self.FSYNC_EVERY:
            self._sync()

    def append_stats(self, payload: dict) -> None:
        """Append a stats-trailer line (see :data:`STATS_KIND`)."""
        self.append({"kind": STATS_KIND, **payload})

    def write_raw(self, data: bytes) -> None:
        """Append raw bytes *without* a trailing newline or an fsync.

        Fault-injection only: simulates the torn tail a crash mid-append
        leaves behind, so the recovery path is testable on demand.
        """
        self._handle.write(data)
        self._handle.flush()

    def _sync(self) -> None:
        start = time.perf_counter() if self.on_sync is not None else 0.0
        self._handle.flush()
        os.fsync(self._handle.fileno())
        batched, self._pending = self._pending, 0
        if self.on_sync is not None:
            self.on_sync(batched, time.perf_counter() - start)

    def close(self) -> None:
        if self._handle.closed:
            return
        self._sync()
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovered from a journal file."""

    header: dict
    #: completed records keyed by program index (last write wins, though a
    #: well-formed journal never writes an index twice).
    records: dict[int, dict] = field(default_factory=dict)
    #: byte offset of the end of the last intact line; truncating here drops
    #: exactly the torn tail and nothing else.
    valid_bytes: int = 0
    #: the torn bytes past ``valid_bytes`` (empty when the file is intact).
    corrupt_tail: bytes = b""
    #: stats-trailer lines (:data:`STATS_KIND`) in file order — one per
    #: completed session that ran with ``--stats``; a resumed sweep can
    #: legitimately carry several.
    stats_trailers: list = field(default_factory=list)


def load_journal(path: str) -> JournalState:
    """Parse a journal, recovering from (at most) a torn final line."""
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.split(b"\n")
    # split() leaves a trailing "" when the file ends in \n; anything else in
    # the final slot is a line whose append never completed.
    complete, tail = lines[:-1], lines[-1]
    if not complete:
        raise JournalError(f"{path} is empty or has no complete header line")
    parsed: list[dict] = []
    offset = 0
    for lineno, raw in enumerate(complete, start=1):
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("journal lines are JSON objects")
        except ValueError as exc:
            if lineno == len(complete):
                # Torn tail variant 1: the last newline-terminated line is
                # garbage (crash mid-append of a multi-block write).
                tail = raw + b"\n" + tail if tail else raw
                break
            raise JournalError(
                f"{path} line {lineno} is corrupt in the journal interior: {exc}"
            ) from None
        parsed.append(payload)
        offset += len(raw) + 1
    if not parsed:
        raise JournalError(f"{path} has no parsable header line")
    header = parsed[0]
    if header.get("kind") != JOURNAL_KIND:
        raise JournalError(f"{path} is not a difftest journal (kind={header.get('kind')!r})")
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path} has journal version {header.get('version')!r}; "
            f"this build reads version {JOURNAL_VERSION}"
        )
    state = JournalState(header=header, valid_bytes=offset,
                         corrupt_tail=data[offset:])
    for record in parsed[1:]:
        if record.get("kind") == STATS_KIND:
            state.stats_trailers.append(record)
            continue
        index = record.get("index")
        if not isinstance(index, int):
            raise JournalError(f"{path} carries a record without an integer index")
        state.records[index] = record
    return state


def truncate_to(path: str, valid_bytes: int) -> None:
    """Drop a recovered journal's torn tail in place."""
    with open(path, "rb+") as handle:
        handle.truncate(valid_bytes)

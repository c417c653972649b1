"""Property-style crash test: SIGKILL a JournalWriter between fsync batches.

A real child process appends records through a :class:`JournalWriter` (with
a small fsync batch), reporting each completed append on its stdout; the
parent SIGKILLs it at a chosen append count, then recovers the journal the
same way ``run_difftest --resume`` does.  The pinned properties, for every
kill point:

* the recovered records are a contiguous prefix ``0..m`` of the stream —
  a kill never punches a hole in the interior;
* the prefix covers at least everything up to the last fsync batch
  boundary the child reported (loss is bounded by the un-synced suffix);
* after truncate-and-complete — exactly the supervisor's resume cycle —
  the finished journal parses cleanly, and its records in index order are
  bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.difftest.journal import (
    JournalWriter,
    load_journal,
    make_header,
    truncate_to,
)

REPO = pathlib.Path(__file__).resolve().parent.parent

TOTAL = 40
FSYNC_EVERY = 4

#: deterministic "random" kill points: mid-batch, on-batch-boundary, first
#: record, and deep into the stream.
KILL_POINTS = (1, 5, 8, 17, 31)

#: lockstep protocol: the child appends one record, reports it on stdout,
#: and blocks for a parent ack on stdin before the next append — so the
#: parent knows *exactly* how many appends completed when it SIGKILLs.
_CHILD_SOURCE = """
import sys
from repro.difftest.journal import JournalWriter, make_header

path, total = sys.argv[1], int(sys.argv[2])
JournalWriter.FSYNC_EVERY = {fsync_every}
header = make_header(seed=0, count=total, models=("pdp11",), budget=1,
                     generator_version=1, analyze=False)
writer = JournalWriter.create(path, header)
for index in range(total):
    writer.append({{"index": index, "seed": index,
                    "classification": {{"pdp11": "agree"}},
                    "features": [], "metrics": {{}}}})
    print(index, flush=True)
    sys.stdin.readline()
writer.close()
print("done", flush=True)
"""


def _expected_record(index):
    return {"index": index, "seed": index,
            "classification": {"pdp11": "agree"}, "features": [],
            "metrics": {}}


@pytest.mark.parametrize("kill_after", KILL_POINTS)
def test_sigkill_between_fsync_batches_loses_at_most_the_unsynced_suffix(
        tmp_path, kill_after):
    journal = tmp_path / "sweep.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c",
         _CHILD_SOURCE.format(fsync_every=FSYNC_EVERY),
         str(journal), str(TOTAL)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
    appended = 0
    try:
        for line in child.stdout:
            assert line.strip() == str(appended)
            appended += 1
            if appended >= kill_after:
                break
            child.stdin.write("ack\n")
            child.stdin.flush()
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert appended == kill_after

    state = load_journal(str(journal))
    recovered = sorted(state.records)
    # Contiguous prefix: a SIGKILL can cost a tail, never an interior hole.
    assert recovered == list(range(len(recovered)))
    # The child completed exactly `appended` appends (lockstep), so at most
    # the un-fsynced suffix of those can be missing, and nothing beyond what
    # it wrote can exist.
    last_synced = (appended // FSYNC_EVERY) * FSYNC_EVERY
    assert last_synced <= len(recovered) <= appended
    for index in recovered:
        assert state.records[index] == _expected_record(index)

    # Resume cycle, exactly as the supervisor runs it: truncate the torn
    # tail (if any), append the missing records, and the finished journal
    # is indistinguishable from an uninterrupted run's record set.
    truncate_to(str(journal), state.valid_bytes)
    with JournalWriter.append_to(str(journal)) as writer:
        for index in range(len(recovered), TOTAL):
            writer.append(_expected_record(index))
    final = load_journal(str(journal))
    assert final.corrupt_tail == b""
    assert sorted(final.records) == list(range(TOTAL))

    records = [final.records[index] for index in sorted(final.records)]
    assert json.dumps(records, sort_keys=True) == json.dumps(
        [_expected_record(index) for index in range(TOTAL)], sort_keys=True)

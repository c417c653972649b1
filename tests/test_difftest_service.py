"""Recovery-path oracle for the sharded difftest service.

The contract under test is *bit-identity*: whatever the service survives —
parallel sharding, killed workers, hung programs, injected interpreter
bugs, torn journals, resume boundaries — the merged records must rebuild
exactly the artifacts a serial in-process sweep produces.  Transient faults
therefore have golden-output tests; persistent faults have quarantine
tests; the journal has its own corruption-semantics tests.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.common.errors import JournalError, ServiceError
from repro.difftest import (
    DifferentialRunner,
    Fault,
    FaultPlan,
    SweepService,
    cell_record,
    classify_sweep,
    corpus_document,
    corpus_document_from_records,
    generate_corpus,
    parse_inject_spec,
    summarize,
    summarize_records,
)
from repro.difftest.journal import JournalWriter, load_journal, make_header
from repro.difftest.oracle import (
    feature_breakdown,
    feature_breakdown_from_records,
    format_matrix,
)

SEED = 0
COUNT = 10
META = {"seed": SEED, "count": COUNT, "baseline": "pdp11"}


@pytest.fixture(scope="module")
def reference():
    """Serial in-process sweep: the golden artifacts every service run must hit."""
    programs = generate_corpus(SEED, COUNT)
    runner = DifferentialRunner()
    results = runner.sweep(programs)
    classifications = classify_sweep(results)
    matrix = format_matrix(summarize(classifications),
                           feature_breakdown(programs, classifications), meta=META)
    doc = json.dumps(corpus_document(programs, results, classifications, meta=META),
                     indent=2, sort_keys=True)
    records = [cell_record(p, r, c)
               for p, r, c in zip(programs, results, classifications)]
    return {"matrix": matrix, "doc": doc, "records": records}


def _artifacts(records):
    matrix = format_matrix(summarize_records(records),
                           feature_breakdown_from_records(records), meta=META)
    doc = json.dumps(corpus_document_from_records(records, meta=META),
                     indent=2, sort_keys=True)
    return matrix, doc


def _run(tmp_path, name="journal.jsonl", resume=False, **kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("count", COUNT)
    service = SweepService(journal_path=str(tmp_path / name), **kwargs)
    return service.run(resume=resume)


def _assert_bit_identical(records, reference):
    matrix, doc = _artifacts(records)
    assert matrix == reference["matrix"]
    assert doc == reference["doc"]


# ---------------------------------------------------------------------------
# Record path == legacy path (no subprocesses involved)
# ---------------------------------------------------------------------------


def test_record_rebuild_equals_legacy_document(reference):
    matrix, doc = _artifacts(reference["records"])
    assert matrix == reference["matrix"]
    assert doc == reference["doc"]


def test_records_survive_json_roundtrip(reference):
    round_tripped = [json.loads(json.dumps(record))
                     for record in reference["records"]]
    _assert_bit_identical(round_tripped, reference)


# ---------------------------------------------------------------------------
# Service identity: serial, parallel, fault-injected, resumed
# ---------------------------------------------------------------------------


def test_serial_service_matches_inprocess_sweep(tmp_path, reference):
    outcome = _run(tmp_path, jobs=1)
    assert outcome.stats["completed"] == COUNT
    _assert_bit_identical(outcome.records, reference)


def test_parallel_service_matches_inprocess_sweep(tmp_path, reference):
    outcome = _run(tmp_path, jobs=3)
    _assert_bit_identical(outcome.records, reference)


def test_injected_crash_hang_engine_journal_still_bit_identical(tmp_path, reference):
    """The acceptance-criteria core: one fault of every kind, outputs unmoved."""
    outcome = _run(tmp_path, jobs=2, timeout=3.0,
                   inject=parse_inject_spec("all", COUNT))
    stats = outcome.stats
    assert stats["respawns"] >= 2          # crash + hang each killed a worker
    assert stats["timeouts"] >= 1          # the hang hit the deadline
    assert stats["worker_errors"] >= 2     # the crash plus the engine error
    assert stats["journal_recoveries"] == 1
    assert stats["quarantined"] == 0       # transient faults never quarantine
    _assert_bit_identical(outcome.records, reference)


def test_resume_after_kill_and_torn_tail_is_bit_identical(tmp_path, reference):
    # Build the "killed at ~50%" journal: header + first half of the records,
    # then the torn bytes an append crash leaves behind.
    full = _run(tmp_path, name="full.jsonl", jobs=1)
    lines = (tmp_path / "full.jsonl").read_bytes().splitlines(keepends=True)
    partial = tmp_path / "partial.jsonl"
    partial.write_bytes(b"".join(lines[:1 + COUNT // 2]) + b'{"index": 5, "se')
    outcome = _run(tmp_path, name="partial.jsonl", jobs=2, resume=True)
    assert outcome.stats["resumed"] == COUNT // 2
    assert outcome.stats["journal_recoveries"] == 1
    assert outcome.stats["completed"] == COUNT - COUNT // 2
    _assert_bit_identical(outcome.records, reference)
    assert full.stats["completed"] == COUNT


def test_resume_reports_torn_tail_recovery_on_stderr(tmp_path, capfd, reference):
    full = _run(tmp_path, name="full.jsonl", jobs=1)
    data = (tmp_path / "full.jsonl").read_bytes()
    partial = tmp_path / "partial.jsonl"
    partial.write_bytes(data + b'{"index": 5, "se')
    capfd.readouterr()
    _run(tmp_path, name="partial.jsonl", jobs=1, resume=True)
    err = capfd.readouterr().err
    # The operator-facing crash diagnosis: which journal, where it was cut,
    # how much was dropped, and which program gets re-run.
    assert "recovered a torn tail" in err
    assert str(partial) in err
    assert f"byte offset {len(data)}" in err
    assert "dropping 16 corrupt trailing byte(s)" in err
    assert "program index 5 will be re-run" in err
    assert full.stats["completed"] == COUNT


def test_resume_rejects_journal_from_different_sweep(tmp_path):
    _run(tmp_path, jobs=1)
    with pytest.raises(ServiceError, match="different sweep"):
        _run(tmp_path, resume=True, seed=SEED + 1)
    with pytest.raises(ServiceError, match="different sweep"):
        _run(tmp_path, resume=True, count=COUNT + 5)
    with pytest.raises(ServiceError, match="does not exist"):
        _run(tmp_path, name="never-written.jsonl", resume=True)


# ---------------------------------------------------------------------------
# Quarantine: persistent faults become error:* cells, not aborts
# ---------------------------------------------------------------------------


def test_persistent_crash_quarantines_as_error_engine(tmp_path):
    plan = FaultPlan([Fault("crash", 1, always=True)])
    outcome = _run(tmp_path, count=4, jobs=2, retries=1, inject=plan)
    assert outcome.stats["quarantined"] == 1
    poisoned = outcome.records[1]
    assert set(poisoned["classification"].values()) == {"error:engine"}
    assert poisoned["metrics"] == {}
    # the other programs are untouched by the quarantine
    assert all(set(r["classification"].values()) != {"error:engine"}
               for i, r in enumerate(outcome.records) if i != 1)


def test_persistent_engine_fault_quarantines_as_error_engine(tmp_path):
    plan = FaultPlan([Fault("engine", 1, always=True)])
    outcome = _run(tmp_path, count=4, jobs=1, retries=1, inject=plan)
    assert outcome.stats["quarantined"] == 1
    assert outcome.stats["retries"] == 1
    assert set(outcome.records[1]["classification"].values()) == {"error:engine"}


def test_persistent_hang_quarantines_as_error_timeout(tmp_path):
    plan = FaultPlan([Fault("hang", 2, always=True)])
    outcome = _run(tmp_path, count=4, jobs=2, timeout=1.5, retries=0, inject=plan)
    assert outcome.stats["quarantined"] == 1
    assert outcome.stats["timeouts"] >= 1
    assert set(outcome.records[2]["classification"].values()) == {"error:timeout"}


def test_quarantined_records_flow_through_the_artifacts(tmp_path):
    plan = FaultPlan([Fault("crash", 0, always=True)])
    outcome = _run(tmp_path, count=4, jobs=1, retries=0, inject=plan)
    matrix, doc = _artifacts(outcome.records)
    assert "error:engine" in matrix
    document = json.loads(doc)
    assert document["summary"]["pdp11"]["error:engine"] == 1
    assert any(entry["index"] == 0 and "error:engine" in entry["kinds"]
               for entry in document["divergent"])


# ---------------------------------------------------------------------------
# Journal semantics
# ---------------------------------------------------------------------------


def _journal_header():
    return make_header(seed=1, count=2, models=["pdp11"], budget=100,
                       generator_version=2, analyze=True)


def test_journal_roundtrip_and_torn_tail_recovery(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with JournalWriter.create(path, _journal_header()) as writer:
        writer.append({"index": 0, "seed": 7})
        writer.append({"index": 1, "seed": 9})
    state = load_journal(path)
    assert state.header["seed"] == 1
    assert state.records == {0: {"index": 0, "seed": 7}, 1: {"index": 1, "seed": 9}}
    assert state.corrupt_tail == b""

    # a torn tail (no trailing newline) is recovered, not fatal — including
    # the nasty case where the torn bytes happen to be valid JSON
    with open(path, "ab") as handle:
        handle.write(b'{"index": 2, "seed": 11}')  # valid JSON, missing \n
    state = load_journal(path)
    assert sorted(state.records) == [0, 1]
    assert state.corrupt_tail == b'{"index": 2, "seed": 11}'
    from repro.difftest.journal import truncate_to
    truncate_to(path, state.valid_bytes)
    assert load_journal(path).corrupt_tail == b""


def test_journal_interior_corruption_is_fatal(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with JournalWriter.create(path, _journal_header()) as writer:
        writer.append({"index": 0})
        writer.write_raw(b"### not json ###\n")
        writer.append({"index": 1})
    with pytest.raises(JournalError, match="interior"):
        load_journal(path)


def test_journal_rejects_foreign_files(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(JournalError, match="not a difftest journal"):
        load_journal(str(path))
    path.write_text("")
    with pytest.raises(JournalError):
        load_journal(str(path))


# ---------------------------------------------------------------------------
# Fault-plan parsing
# ---------------------------------------------------------------------------


def test_parse_inject_all_schedules_every_kind_at_distinct_indices():
    plan = parse_inject_spec("all", 200)
    kinds = {fault.kind for fault in plan.faults}
    assert kinds == {"crash", "hang", "engine", "journal"}
    indices = [fault.index for fault in plan.faults]
    assert len(set(indices)) == 4
    assert all(0 <= index < 200 for index in indices)
    assert not any(fault.always for fault in plan.faults)


def test_parse_inject_spec_validation():
    with pytest.raises(ServiceError, match=">= 4 programs"):
        parse_inject_spec("all", 3)
    with pytest.raises(ServiceError, match="unknown fault kind"):
        parse_inject_spec("segfault", 10)
    with pytest.raises(ServiceError, match="outside the corpus"):
        parse_inject_spec("crash:99", 10)
    with pytest.raises(ServiceError, match="distinct programs"):
        parse_inject_spec("crash:3,hang:3", 10)
    with pytest.raises(ServiceError, match="modifier"):
        parse_inject_spec("crash:3:sometimes", 10)
    plan = parse_inject_spec("crash:3,hang:5:always", 10)
    assert plan.faults == (Fault("crash", 3), Fault("hang", 5, always=True))


def test_service_argument_validation(tmp_path):
    path = str(tmp_path / "j.jsonl")
    with pytest.raises(ServiceError, match="--jobs"):
        SweepService(seed=0, count=4, jobs=0, journal_path=path)
    with pytest.raises(ServiceError, match="--timeout"):
        SweepService(seed=0, count=4, timeout=0, journal_path=path)
    with pytest.raises(ServiceError, match="--retries"):
        SweepService(seed=0, count=4, retries=-1, journal_path=path)
    with pytest.raises(ServiceError, match="unknown models"):
        SweepService(seed=0, count=4, models=("pdp12",), journal_path=path)


# ---------------------------------------------------------------------------
# Internal engine errors (machine level, no subprocesses)
# ---------------------------------------------------------------------------


def test_unhandled_internal_error_still_propagates():
    """A handler's non-trap error is not classified as a trap: it leaves the
    machine, and recovery is the service's retry-then-quarantine."""
    from repro.interp.machine import AbstractMachine
    from repro.minic.irgen import compile_source

    module = compile_source("int main(void) { return 3; }\n")
    machine = AbstractMachine(module, "pdp11")
    code = machine._code_for(module.functions["main"])
    if code.paired:
        handler, cost = code.paired[0]

        def boom(frame):
            raise ZeroDivisionError("not a trap")

        code.paired[0] = (boom, cost)
    with pytest.raises(ZeroDivisionError):
        machine.run()


# ---------------------------------------------------------------------------
# CLI round-trip
# ---------------------------------------------------------------------------


def test_cli_injected_parallel_run_matches_serial_run(tmp_path):
    import importlib.util

    script = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "scripts", "run_difftest.py")
    spec = importlib.util.spec_from_file_location("run_difftest_cli", script)
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    serial_dir, faulty_dir = tmp_path / "serial", tmp_path / "faulty"
    base = ["--seed", "0", "--count", "8", "--reduce", "0", "--quiet",
            "--timeout", "5"]
    assert cli.main(base + ["--out-dir", str(serial_dir)]) == 0
    assert cli.main(base + ["--out-dir", str(faulty_dir), "--jobs", "2",
                            "--inject", "all"]) == 0
    for name in ("table5_differential_matrix.txt", "difftest_corpus.json"):
        assert ((serial_dir / name).read_bytes()
                == (faulty_dir / name).read_bytes()), name

    # validation surfaces as exit code 2, not a traceback
    assert cli.main(base + ["--out-dir", str(tmp_path / "x"),
                            "--inject", "bogus"]) == 2

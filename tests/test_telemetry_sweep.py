"""Telemetry integration with the sweep service: the never-changes-artifacts
contract, plus every telemetry surface end to end.

The load-bearing property is bit-identity: a sweep with every telemetry
surface enabled (trace + stats + status, serial or parallel, even under
fault injection) must journal exactly the records a telemetry-off serial
sweep produces.  Everything else — trace schema, status liveness, stats
trailers across resume, SIGKILL atomicity — is checked against
those same sweeps.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.difftest import SweepService, parse_inject_spec
from repro.difftest.generator import generate_corpus
from repro.difftest.journal import load_journal
from repro.difftest.oracle import cell_record, classify_sweep
from repro.difftest.runner import DifferentialRunner
from repro.telemetry.status import read_status, write_status

SEED = 0
COUNT = 10

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reference_records():
    """Telemetry-off serial in-process sweep: the golden record list."""
    programs = generate_corpus(SEED, COUNT)
    runner = DifferentialRunner()
    results = runner.sweep(programs)
    classifications = classify_sweep(results)
    return [cell_record(p, r, c)
            for p, r, c in zip(programs, results, classifications)]


def _run(tmp_path, name="journal.jsonl", resume=False, **kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("count", COUNT)
    service = SweepService(journal_path=str(tmp_path / name), **kwargs)
    return service.run(resume=resume), service


# ---------------------------------------------------------------------------
# bit-identity: telemetry never touches the records
# ---------------------------------------------------------------------------


def test_serial_sweep_with_all_telemetry_is_bit_identical(
        tmp_path, reference_records):
    trace = tmp_path / "trace.json"
    outcome, _ = _run(tmp_path, trace_path=str(trace), collect_stats=True,
                      status_interval=0.05)
    assert json.dumps(outcome.records, sort_keys=True) == \
        json.dumps(reference_records, sort_keys=True)


def test_parallel_injected_sweep_with_telemetry_is_bit_identical(
        tmp_path, reference_records):
    trace = tmp_path / "trace.json"
    outcome, _ = _run(tmp_path, jobs=2, timeout=10.0,
                      inject=parse_inject_spec("all", COUNT),
                      trace_path=str(trace), collect_stats=True,
                      status_interval=0.05)
    assert json.dumps(outcome.records, sort_keys=True) == \
        json.dumps(reference_records, sort_keys=True)
    # the injected journal tear must surface as a structured incident
    assert any(incident["type"] == "torn_tail_recovery"
               and incident["injected"]
               for incident in outcome.incidents)
    assert outcome.telemetry["counters"]["journal.torn_tail_recoveries"] >= 1


def test_telemetry_off_outcome_has_no_surfaces(tmp_path):
    outcome, service = _run(tmp_path, count=2, status_interval=0)
    assert outcome.telemetry is None
    assert not service.telemetry_on
    assert service.status_path is None
    assert not list(tmp_path.glob("*.status.json"))


# ---------------------------------------------------------------------------
# trace file schema
# ---------------------------------------------------------------------------


def test_trace_schema_and_tracks(tmp_path):
    trace = tmp_path / "trace.json"
    _run(tmp_path, jobs=2, trace_path=str(trace), status_interval=0)
    with open(trace, encoding="utf-8") as handle:
        document = json.load(handle)
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    events = document["traceEvents"]
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int) and event["dur"] >= 0
    # one "program" span per program, on worker tracks (pid >= 1)
    programs = [e for e in events if e["name"] == "program"]
    assert len(programs) == COUNT
    assert all(e["pid"] >= 1 for e in programs)
    assert {e["args"]["index"] for e in programs} == set(range(COUNT))
    # per-stage spans nest on the same tracks; per-model execute spans exist
    names = {e["name"] for e in events}
    assert {"stage.generate", "stage.parse", "stage.lower",
            "stage.predecode", "stage.classify", "stage.gc"} <= names
    assert any(name.startswith("stage.execute.") for name in names)
    # metadata names the supervisor and both workers
    metadata = [e for e in events if e["ph"] == "M"]
    named = {e["pid"]: e["args"]["name"] for e in metadata}
    assert named[0] == "difftest-supervisor"
    assert named[1] == "difftest-worker-0"


# ---------------------------------------------------------------------------
# status file
# ---------------------------------------------------------------------------


def test_status_file_reaches_done_with_worker_detail(tmp_path):
    outcome, service = _run(tmp_path, jobs=2, status_interval=0.05)
    status = read_status(service.status_path)
    assert status["kind"] == "repro-difftest-status"
    assert status["done"] is True
    assert status["completed"] == status["target"] == COUNT
    assert status["journal"] == str(tmp_path / "journal.jsonl")
    assert set(status["workers"]) == {"0", "1"}
    for worker in status["workers"].values():
        assert {"alive", "os_pid", "current_index", "busy_seconds",
                "respawns", "straggler"} <= set(worker)
    assert status["counters"]["completed"] == COUNT
    assert "artifact.hits" in status["cache"]


def test_status_interval_zero_disables_even_with_other_telemetry(tmp_path):
    outcome, service = _run(tmp_path, count=2, collect_stats=True,
                            status_interval=0)
    assert service.status_path is None
    assert outcome.telemetry is not None  # stats still collected
    assert not list(tmp_path.glob("*.status.json"))


def test_status_file_survives_sigkill_mid_write(tmp_path):
    """A reader never sees a torn document, even when the writer dies."""
    path = str(tmp_path / "victim.status.json")

    def writer_loop(path):
        i = 0
        while True:
            i += 1
            write_status(path, {"n": i, "pad": "x" * 4096})

    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    child = ctx.Process(target=writer_loop, args=(path,), daemon=True)
    child.start()
    try:
        deadline = time.monotonic() + 10.0
        while not os.path.exists(path):
            assert time.monotonic() < deadline, "writer never produced a file"
            time.sleep(0.005)
        reads = 0
        while reads < 50:
            status = read_status(path)  # must always parse completely
            assert status["pad"] == "x" * 4096
            reads += 1
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(5.0)
    status = read_status(path)  # still a complete document after the kill
    assert status["n"] >= 1 and status["pad"] == "x" * 4096


# ---------------------------------------------------------------------------
# stats: trailer, resume, worker and artifact counters
# ---------------------------------------------------------------------------


def test_stats_trailer_written_and_separated_from_records(tmp_path):
    outcome, service = _run(tmp_path, collect_stats=True, status_interval=0)
    state = load_journal(service.journal_path)
    assert len(state.records) == COUNT  # trailer never becomes a record
    (trailer,) = state.stats_trailers
    assert trailer["kind"] == "repro-difftest-stats"
    assert trailer["version"] == 1
    assert trailer["service"]["completed"] == COUNT
    snap = trailer["metrics"]
    assert snap["counters"]["service.completed"] == COUNT
    assert snap["histograms"]["stage.parse"]["count"] == COUNT
    # outcome telemetry is a later snapshot of the same registry: it also
    # sees the journal's close-time fsync
    assert outcome.telemetry["counters"]["journal.fsync_batches"] >= 1


def test_resume_after_trailer_replays_and_appends_second_trailer(tmp_path):
    _run(tmp_path, collect_stats=True, status_interval=0)
    outcome, service = _run(tmp_path, collect_stats=True, status_interval=0,
                            resume=True)
    assert len(outcome.records) == COUNT
    assert outcome.stats["resumed"] == COUNT
    state = load_journal(service.journal_path)
    assert len(state.stats_trailers) == 2  # one per completed session


def test_torn_tail_resume_records_structured_incident(tmp_path, capsys):
    _run(tmp_path, collect_stats=True, status_interval=0)
    journal = tmp_path / "journal.jsonl"
    with open(journal, "ab") as handle:
        handle.write(b'{"index":3,"torn":')  # crash mid-append
    outcome, _ = _run(tmp_path, collect_stats=True, status_interval=0,
                      resume=True)
    (incident,) = outcome.incidents
    assert incident["type"] == "torn_tail_recovery"
    assert incident["torn_index"] == 3
    assert incident["injected"] is False
    assert incident["dropped_bytes"] == len(b'{"index":3,"torn":')
    assert outcome.telemetry["counters"]["journal.torn_tail_recoveries"] == 1
    assert "recovered a torn tail" in capsys.readouterr().err


def test_worker_cache_stats_cross_the_fork_boundary(tmp_path):
    """With jobs > 0 the artifact counters come from the workers'
    registries via the result queue, not the supervisor's zeros."""
    outcome, _ = _run(tmp_path, jobs=2, collect_stats=True, status_interval=0)
    counters = outcome.telemetry["counters"]
    assert counters["cache.artifact.hits"] > 0
    assert counters["cache.artifact.misses"] > 0


def test_engine_counters_count_promotions():
    """The counters workers ship (``engine.*``) change only when a function
    is promoted (by its calls, by a hot loop, and by the pcs bound) or when
    tier 0 decodes a pc, never per instruction: a second machine running
    the same module decodes nothing again."""
    from repro.core.api import compile_for_model
    from repro.difftest.service import _process_counters
    from repro.interp.machine import AbstractMachine
    from repro.interp.models import get_model

    source = """
    int twice(int x) { return x * 2; }
    int main(void) {
        int i;
        long total = 0;
        for (i = 0; i < 300; i++) total += twice(i);
        return (int)(total & 1);
    }
    """
    module = compile_for_model(source, get_model("pdp11"))
    before = _process_counters()
    AbstractMachine(module, "pdp11").run()
    after = _process_counters()
    delta = {key: after[key] - before[key] for key in after
             if key.startswith("engine.")}
    sizes = sum(len(function.instrs) for function in module.functions.values()
                if function.name in ("twice", "main"))
    decoded = sum(entry is not None for function in module.functions.values()
                  for entry in function._artifact.decoded)
    # tier 0 ran all of ``twice`` and ``main`` up to its hot loop, not past it
    assert 0 < decoded < sizes
    assert delta == {"engine.promoted.call": 1, "engine.promoted.loop": 1,
                     "engine.pcs_bound": sizes, "engine.pcs_decoded": decoded}
    again = AbstractMachine(module, "pdp11").run()
    assert again.instructions > 0
    assert _process_counters()["engine.pcs_decoded"] == after["engine.pcs_decoded"]


def test_artifact_cache_reports_evictions():
    """An eviction is a stale artifact replaced on its function: mutating
    the function in place counts exactly one."""
    from repro.core.api import compile_for_model
    from repro.interp.artifact import ARTIFACTS, get_artifact
    from repro.interp.models import get_model

    module = compile_for_model("int main(void) { return 0; }", get_model("pdp11"))
    function = module.functions["main"]
    ARTIFACTS.clear()
    first = get_artifact(function, module.context)
    assert get_artifact(function, module.context) is first
    function.invalidate_label_index()  # what an in-place optimizer pass does
    replaced = get_artifact(function, module.context)
    assert replaced is not first
    assert get_artifact(function, module.context) is replaced
    assert ARTIFACTS.stats() == {"hits": 2, "misses": 2, "evictions": 1}
    ARTIFACTS.clear()
    assert ARTIFACTS.stats() == {"hits": 0, "misses": 0, "evictions": 0}


# ---------------------------------------------------------------------------
# CLI round-trip (one subprocess: sweep with every surface, then dashboard)
# ---------------------------------------------------------------------------


def test_cli_sweep_and_status_dashboard_roundtrip(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    journal = tmp_path / "journal.jsonl"
    trace = tmp_path / "trace.json"
    result = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_difftest.py"),
         "--count", "6", "--jobs", "2", "--reduce", "0",
         "--out-dir", str(tmp_path), "--journal", str(journal),
         "--trace", str(trace), "--stats", "--status-interval", "0.05",
         "--quiet"],
        capture_output=True, text=True, env=env, timeout=240)
    assert result.returncode == 0, result.stderr
    assert "sweep telemetry" in result.stdout
    assert "stage latency" in result.stdout
    json.load(open(trace, encoding="utf-8"))  # parses as a trace document
    dashboard = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "sweep_status.py"),
         str(journal), "--check-complete"],
        capture_output=True, text=True, env=env, timeout=60)
    assert dashboard.returncode == 0, dashboard.stderr
    assert "100.0%" in dashboard.stdout

    missing = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "sweep_status.py"),
         str(tmp_path / "no_such.jsonl"), "--check-complete"],
        capture_output=True, text=True, env=env, timeout=60)
    assert missing.returncode == 1

"""Unit tests for the telemetry primitives (repro.telemetry).

Coverage map: histogram ``le`` bucket semantics including every edge
(value equal to a bound, below the first bound, negative, overflow),
snapshot merging, the disabled no-op fast path (shared singletons — the
property the overhead guard relies on), trace event structure, the
``timed_span`` seam, atomic status writes, EMA/ETA math, status-writer
throttling, and the dashboard/summary renderers.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.telemetry import metrics
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Histogram,
    MetricsRegistry,
    format_summary,
    merge_snapshots,
)
from repro.telemetry.status import (
    STATUS_KIND,
    StatusWriter,
    ThroughputEMA,
    read_status,
    render_dashboard,
    render_status_line,
    write_status,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    _NOOP_SPAN,
    TraceBuffer,
    TraceWriter,
    timed_span,
)


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_histogram_value_equal_to_bound_lands_in_that_bucket():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    hist.observe(2.0)  # le semantics: == bound -> that bound's bucket
    assert hist.counts == [0, 1, 0, 0]


def test_histogram_below_first_bound_and_negative():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(0.5)
    hist.observe(-3.0)
    assert hist.counts == [2, 0, 0]
    assert hist.minimum == -3.0


def test_histogram_overflow_bucket():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(2.0001)
    hist.observe(999.0)
    assert hist.counts == [0, 0, 2]
    assert hist.maximum == 999.0
    assert hist.quantile_bound(0.5) == float("inf")


def test_histogram_between_bounds():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    hist.observe(1.5)
    assert hist.counts == [0, 1, 0, 0]


def test_histogram_sum_count_min_max():
    hist = Histogram("h", bounds=(1.0,))
    for value in (0.25, 0.5, 3.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == pytest.approx(3.75)
    assert (hist.minimum, hist.maximum) == (0.25, 3.0)


def test_histogram_quantile_bound():
    hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
    assert hist.quantile_bound(0.5) is None  # empty
    for _ in range(9):
        hist.observe(0.5)
    hist.observe(3.0)
    assert hist.quantile_bound(0.5) == 1.0
    assert hist.quantile_bound(0.95) == 4.0


def test_histogram_requires_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())


# ---------------------------------------------------------------------------
# registry: enabled/disabled and snapshots
# ---------------------------------------------------------------------------


def test_disabled_registry_hands_out_shared_null_singletons():
    registry = MetricsRegistry(enabled=False)
    assert registry.counter("a") is NULL_COUNTER
    assert registry.counter("b") is NULL_COUNTER
    assert registry.gauge("g") is NULL_GAUGE
    assert registry.histogram("h") is NULL_HISTOGRAM
    # mutators are no-ops, and nothing registers
    registry.counter("a").inc(5)
    registry.histogram("h").observe(1.0)
    assert registry.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": {}}


def test_enabled_registry_snapshot_roundtrip():
    registry = MetricsRegistry(enabled=True)
    registry.counter("c").inc(3)
    registry.gauge("g").set(1.5)
    registry.histogram("h", bounds=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 1.5}
    assert snap["histograms"]["h"]["counts"] == [1, 0]
    json.dumps(snap)  # JSON-safe by contract


def test_registry_absorb_and_counter_values():
    registry = MetricsRegistry(enabled=True)
    registry.counter("cache.artifact.hits").inc(2)
    registry.absorb({"cache.artifact.hits": 3, "cache.disk.misses": 1,
                     "zero": 0})
    assert registry.counter_values("cache.") == {
        "cache.artifact.hits": 5, "cache.disk.misses": 1}
    assert "zero" not in registry.counter_values()


def test_module_configure_swaps_registry():
    registry = metrics.configure(True)
    assert metrics.enabled()
    metrics.counter("x").inc()
    assert metrics.snapshot()["counters"] == {"x": 1}
    metrics.configure(False)
    assert not metrics.enabled()
    assert metrics.counter("x") is NULL_COUNTER
    assert registry.counter("x").value == 1  # old registry untouched


def test_merge_snapshots_adds_counters_and_histograms():
    left = MetricsRegistry(enabled=True)
    right = MetricsRegistry(enabled=True)
    for registry, n in ((left, 1), (right, 2)):
        registry.counter("c").inc(n)
        registry.gauge("g").set(float(n))
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        hist.observe(0.5 * n)
        hist.observe(5.0)
    merged = merge_snapshots(left.snapshot(), right.snapshot())
    assert merged["counters"] == {"c": 3}
    assert merged["gauges"] == {"g": 2.0}  # right wins
    hist = merged["histograms"]["h"]
    assert hist["counts"] == [2, 0, 2]
    assert hist["count"] == 4
    assert hist["sum"] == pytest.approx(0.5 + 1.0 + 10.0)
    assert (hist["min"], hist["max"]) == (0.5, 5.0)


def test_merge_snapshots_disjoint_and_empty():
    left = MetricsRegistry(enabled=True)
    left.counter("only_left").inc()
    merged = merge_snapshots(left.snapshot(), {})
    assert merged["counters"] == {"only_left": 1}
    merged = merge_snapshots({}, left.snapshot())
    assert merged["counters"] == {"only_left": 1}


def test_merge_snapshots_refuses_mismatched_bounds():
    left = MetricsRegistry(enabled=True)
    right = MetricsRegistry(enabled=True)
    left.histogram("h", bounds=(1.0,)).observe(0.5)
    right.histogram("h", bounds=(2.0,)).observe(0.5)
    with pytest.raises(ValueError, match="bucket bounds differ"):
        merge_snapshots(left.snapshot(), right.snapshot())


def test_merge_trailer_snapshots_folds_only_metrics_bearing_trailers():
    shard_a = MetricsRegistry(enabled=True)
    shard_a.counter("service.completed").inc(5)
    shard_b = MetricsRegistry(enabled=True)
    shard_b.counter("service.completed").inc(7)
    trailers = [{"metrics": shard_a.snapshot()},
                {"kind": "repro-difftest-stats"},  # swept without --stats
                {"metrics": shard_b.snapshot()}]
    combined, folded = metrics.merge_trailer_snapshots(trailers)
    assert folded == 2
    assert combined["counters"] == {"service.completed": 12}

    merge_host = MetricsRegistry(enabled=True)
    merge_host.counter("reduce.programs").inc(3)
    combined, folded = metrics.merge_trailer_snapshots(
        trailers, base=merge_host.snapshot())
    assert folded == 2
    assert combined["counters"] == {"reduce.programs": 3,
                                    "service.completed": 12}

    combined, folded = metrics.merge_trailer_snapshots([{}, {"metrics": {}}])
    assert (combined, folded) == ({}, 0)


def test_merge_snapshots_does_not_mutate_inputs():
    left = MetricsRegistry(enabled=True)
    left.histogram("h", bounds=(1.0,)).observe(0.5)
    left_snap = left.snapshot()
    before = json.dumps(left_snap, sort_keys=True)
    merge_snapshots(left_snap, left_snap)
    assert json.dumps(left_snap, sort_keys=True) == before


def test_format_summary_sections_and_determinism():
    registry = MetricsRegistry(enabled=True)
    registry.counter("cache.artifact.hits").inc(3)
    registry.counter("cache.artifact.misses").inc(1)
    registry.histogram("stage.parse").observe(0.004)
    registry.gauge("workers").set(4)
    snap = registry.snapshot()
    text = format_summary(snap)
    assert "cache.artifact: 3/4 hits (75.0%)" in text
    assert "stage.parse" in text and "n=1" in text
    assert "workers" in text
    assert text == format_summary(snap)  # deterministic


def test_latency_buckets_cover_fast_and_slow_ends():
    assert LATENCY_BUCKETS[0] <= 0.001
    assert LATENCY_BUCKETS[-1] >= 10.0
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_trace_span_event_structure():
    buffer = TraceBuffer(pid=3, tid=0)
    with buffer.span("program", index=7):
        pass
    (event,) = buffer.events
    assert event["name"] == "program"
    assert event["ph"] == "X"
    assert event["pid"] == 3 and event["tid"] == 0
    assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
    assert event["args"] == {"index": 7}


def test_trace_instant_and_drain():
    buffer = TraceBuffer(pid=0)
    buffer.instant("torn_tail_recovery", cat="recovery", dropped_bytes=12)
    events = buffer.drain()
    assert buffer.events == []
    (event,) = events
    assert event["ph"] == "i" and event["s"] == "t"
    assert event["args"]["dropped_bytes"] == 12


def test_timed_span_disabled_returns_shared_noop():
    # The overhead guard's contract: both off -> one shared object, reused.
    first = timed_span(NULL_TRACER, None, "stage.parse")
    second = timed_span(NULL_TRACER, None, "stage.lower")
    assert first is _NOOP_SPAN and second is _NOOP_SPAN


def test_timed_span_feeds_sink_and_buffer():
    buffer = TraceBuffer(pid=1)
    samples = []
    with timed_span(buffer, lambda n, s: samples.append((n, s)),
                    "stage.parse"):
        pass
    assert [e["name"] for e in buffer.events] == ["stage.parse"]
    ((name, seconds),) = samples
    assert name == "stage.parse" and seconds >= 0.0


def test_timed_span_sink_only_and_tracer_only():
    samples = []
    with timed_span(NULL_TRACER, lambda n, s: samples.append(n), "x"):
        pass
    assert samples == ["x"]
    buffer = TraceBuffer()
    with timed_span(buffer, None, "y"):
        pass
    assert [e["name"] for e in buffer.events] == ["y"]


def test_null_tracer_surface():
    assert NULL_TRACER.span("x") is _NOOP_SPAN
    NULL_TRACER.instant("x")
    assert NULL_TRACER.drain() == []


def test_trace_writer_document(tmp_path):
    path = str(tmp_path / "trace.json")
    writer = TraceWriter(path)
    buffer = TraceBuffer(pid=1)
    with buffer.span("program"):
        pass
    writer.add_events(buffer.drain())
    writer.set_process_name(1, "difftest-worker-0")
    assert writer.close() == path
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["displayTimeUnit"] == "ms"
    names = {event["name"] for event in document["traceEvents"]}
    assert names == {"program", "process_name"}
    meta = next(e for e in document["traceEvents"] if e["ph"] == "M")
    assert meta["args"]["name"] == "difftest-worker-0"
    assert not os.path.exists(path + ".tmp")


# ---------------------------------------------------------------------------
# status: atomic writes, EMA, throttling, dashboard
# ---------------------------------------------------------------------------


def test_write_status_atomic_and_readable(tmp_path):
    path = str(tmp_path / "s.status.json")
    write_status(path, {"completed": 1})
    write_status(path, {"completed": 2})
    assert read_status(path) == {"completed": 2}
    leftovers = [name for name in os.listdir(tmp_path)
                 if name.endswith(".tmp")]
    assert leftovers == []


def test_throughput_ema_windows_and_eta():
    now = [0.0]
    ema = ThroughputEMA(alpha=0.5, min_window=1.0, clock=lambda: now[0])
    ema.update(0)
    assert ema.rate is None
    now[0] = 0.5
    ema.update(5)          # inside the window: ignored
    assert ema.rate is None
    now[0] = 2.0
    ema.update(10)         # 10 programs / 2s
    assert ema.rate == pytest.approx(5.0)
    now[0] = 4.0
    ema.update(12)         # 1/s folded in with alpha 0.5
    assert ema.rate == pytest.approx(3.0)
    assert ema.eta_seconds(6) == pytest.approx(2.0)
    assert ema.eta_seconds(0) == 0.0
    assert ThroughputEMA().eta_seconds(5) is None


def test_status_writer_throttles_by_interval(tmp_path):
    now = [0.0]
    writer = StatusWriter(str(tmp_path / "s.json"), interval=2.0,
                          clock=lambda: now[0])
    calls = []

    def build():
        calls.append(now[0])
        return {"completed": len(calls)}

    assert writer.maybe_write(build)           # first write always lands
    assert not writer.maybe_write(build)       # throttled: build not called
    now[0] = 2.5
    assert writer.maybe_write(build)
    now[0] = 3.0
    assert writer.maybe_write(build, force=True)
    assert calls == [0.0, 2.5, 3.0]
    status = read_status(str(tmp_path / "s.json"))
    assert status["kind"] == STATUS_KIND and status["completed"] == 3


def _status(**overrides):
    base = {
        "kind": STATUS_KIND, "version": 1, "host_shard": None,
        "target": 10, "completed": 5, "throughput_programs_per_s": 2.5,
        "eta_seconds": 2.0, "done": False,
        "workers": {"0": {"alive": True, "current_index": 7,
                          "busy_seconds": 1.0, "respawns": 0,
                          "straggler": False}},
        "cache": {"artifact.hits": 8, "artifact.misses": 2},
        "recoveries": [],
    }
    base.update(overrides)
    return base


def test_render_status_line_contents():
    line = render_status_line(_status())
    assert "5/10" in line and "50.0%" in line
    assert "2.5 prog/s" in line and "artifact 80%" in line
    assert "workers 1/1" in line


def test_render_dashboard_details_and_total():
    shard0 = _status(host_shard=[0, 2])
    shard1 = _status(
        host_shard=[1, 2], completed=10, done=True,
        workers={"0": {"alive": False, "current_index": None,
                       "respawns": 2, "straggler": False}},
        recoveries=[{"type": "torn_tail_recovery", "torn_index": 4,
                     "dropped_bytes": 12}])
    text = render_dashboard([shard0, shard1])
    assert "shard 0/2" in text and "shard 1/2" in text
    assert "worker 0: program 7" in text
    assert "worker 0: dead" in text and "respawns 2" in text
    assert "recovery: torn_tail_recovery" in text
    assert "total" in text and "15/20" in text


def test_render_dashboard_straggler_flag():
    status = _status()
    status["workers"]["0"]["straggler"] = True
    assert "STRAGGLER" in render_dashboard([status])

"""Zero-dependency observability for the differential sweep pipeline.

A sweep through the service tier (worker subprocesses, a journal, retries
and resumes) runs for minutes; without telemetry a stalled worker, a cold
artifact cache or a straggler program is invisible until the final table
prints.  This package is the cross-cutting layer that makes those
runs operable, in three pieces that share one design rule — **telemetry
never touches the artifacts**: trace timestamps, status files and stats
trailers live beside the journal, and the Table-5 matrix + corpus JSON
stay byte-identical telemetry-on vs telemetry-off.

* :mod:`repro.telemetry.metrics` — a process-local registry of counters,
  gauges and fixed-bucket latency histograms with a no-op fast path when
  disabled (the instrumented seams cost a dict hit + branch only when a
  sweep opts in via ``--trace``/``--stats``/the status file).
* :mod:`repro.telemetry.trace` — span-based tracing emitting Chrome
  trace-event JSON loadable in Perfetto (``run_difftest --trace FILE``),
  with per-worker tracks and per-program/per-stage spans, clocked off the
  monotonic clock so tracing can never perturb record content.
* :mod:`repro.telemetry.status` — the live sweep status file: the service
  atomically rewrites ``<journal>.status.json`` every few seconds
  (progress, per-worker liveness, throughput EMA, cache hit rates,
  stragglers, ETA) and ``scripts/sweep_status.py`` renders one or many
  status files as a terminal dashboard.

Instrumented seams: the difftest service (completions, retries,
quarantines, respawns, journal fsync batches + flush latency, torn-tail
recoveries), the runner (generate/parse/lower/predecode/per-model
execute/classify/reduce stage spans), the predecode-artifact counters
(``cache.artifact.hits``/``misses``/``evictions``) and the engine's
tiering counters (``engine.promoted.call``/``promoted.loop``/
``pcs_bound``/``pcs_decoded``) — both aggregated from worker subprocesses through the
result queue, so fork can't zero them — and the staticcheck
cross-validation.  See ``docs/observability.md`` for the full
metric catalogue and span taxonomy.
"""

from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    configure,
    counter,
    enabled,
    format_summary,
    gauge,
    histogram,
    registry,
    snapshot,
)
from repro.telemetry.status import (
    StatusWriter,
    ThroughputEMA,
    read_status,
    render_dashboard,
    write_status,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    TraceBuffer,
    TraceWriter,
    timed_span,
)

__all__ = [
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "configure",
    "counter",
    "enabled",
    "format_summary",
    "gauge",
    "histogram",
    "registry",
    "snapshot",
    "StatusWriter",
    "ThroughputEMA",
    "read_status",
    "render_dashboard",
    "write_status",
    "NULL_TRACER",
    "TraceBuffer",
    "TraceWriter",
    "timed_span",
]

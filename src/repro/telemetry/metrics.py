"""Process-local metrics: counters, gauges and fixed-bucket histograms.

Design constraints, in priority order:

1. **Free when off.**  The sweep's bit-determinism tests run with telemetry
   disabled; the instrumented seams must cost nothing measurable there.
   When the module registry is disabled, :func:`counter` / :func:`gauge` /
   :func:`histogram` return shared no-op singletons whose mutators are
   empty methods — the per-call cost is one dict miss away from zero, and
   ``scripts/check_telemetry_overhead.py`` guards the bound in CI.
2. **JSON-safe snapshots.**  Worker subprocesses cannot share a registry
   with the supervisor (fork gives each child a private copy whose counts
   the parent never sees).  Instead everything aggregates through plain
   dicts: :func:`snapshot` serializes a registry, :func:`merge_snapshots`
   adds two snapshots, and the service ships per-program deltas through
   its result queue — which is also what lets the journal stats trailer
   and ``merge_journals`` recombine per-shard stats.
3. **Deterministic rendering.**  :func:`format_summary` sorts every
   section so two identical sweeps print identical reports.

Histogram buckets are fixed at registration (`le` semantics: an
observation equal to a bound lands in that bound's bucket, like
Prometheus), plus an overflow bucket; sum/count/min/max ride along so the
report can print a mean and exact extremes next to the quantile estimates.
"""

from __future__ import annotations

from bisect import bisect_left

#: default latency bucket bounds, in seconds: half-millisecond resolution
#: at the fast end (parse/predecode of small programs), decade coverage up
#: to the per-program timeout regime at the slow end.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket distribution with ``le`` bucket semantics."""

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str, bounds=LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(bounds))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        #: counts[i] observes bounds[i-1] < v <= bounds[i]; the final slot
        #: is the overflow bucket (v > bounds[-1]).
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def quantile_bound(self, q: float):
        """The smallest bucket upper bound covering quantile ``q``.

        Returns None for an empty histogram and ``float('inf')`` when the
        quantile lands in the overflow bucket — an estimate, not an exact
        order statistic, which is all fixed buckets can give.
        """
        if not self.count:
            return None
        threshold = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= threshold and bucket:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")


class _NullCounter:
    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: shared no-op instruments handed out by a disabled registry; callers
#: keep whatever handle they fetched, so fetch *after* configure().
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Name -> instrument map with a disabled fast path."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds=LATENCY_BUCKETS) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument (deterministic key order)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def absorb(self, delta: dict) -> None:
        """Add a flat ``{counter_name: int}`` delta (worker cache stats)."""
        for name, value in delta.items():
            if value:
                self.counter(name).inc(value)

    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """``{name: value}`` for counters under ``prefix`` (sorted)."""
        return {name: c.value for name, c in sorted(self._counters.items())
                if name.startswith(prefix)}


def merge_snapshots(left: dict, right: dict) -> dict:
    """Combine two :meth:`MetricsRegistry.snapshot` dicts.

    Counters and histogram counts add; gauges take the right-hand value
    (last write wins); histograms with mismatched bounds raise — shards of
    one sweep always run the same build, so a mismatch means the inputs do
    not belong together.
    """
    merged = {
        "counters": dict(left.get("counters", {})),
        "gauges": dict(left.get("gauges", {})),
        "histograms": {name: dict(h, bounds=list(h["bounds"]),
                                  counts=list(h["counts"]))
                       for name, h in left.get("histograms", {}).items()},
    }
    for name, value in right.get("counters", {}).items():
        merged["counters"][name] = merged["counters"].get(name, 0) + value
    merged["gauges"].update(right.get("gauges", {}))
    for name, other in right.get("histograms", {}).items():
        mine = merged["histograms"].get(name)
        if mine is None:
            merged["histograms"][name] = dict(other,
                                              bounds=list(other["bounds"]),
                                              counts=list(other["counts"]))
            continue
        if list(mine["bounds"]) != list(other["bounds"]):
            raise ValueError(
                f"histogram {name!r} bucket bounds differ between snapshots; "
                "refusing to merge stats from different builds")
        mine["counts"] = [a + b for a, b in zip(mine["counts"], other["counts"])]
        mine["count"] += other["count"]
        mine["sum"] += other["sum"]
        for key, pick in (("min", min), ("max", max)):
            values = [v for v in (mine[key], other[key]) if v is not None]
            mine[key] = pick(values) if values else None
    merged["counters"] = dict(sorted(merged["counters"].items()))
    merged["gauges"] = dict(sorted(merged["gauges"].items()))
    merged["histograms"] = dict(sorted(merged["histograms"].items()))
    return merged


def merge_trailer_snapshots(trailers: list[dict],
                            base: dict | None = None) -> tuple[dict, int]:
    """Fold journal stats trailers' ``metrics`` snapshots into one.

    ``base`` seeds the fold (e.g. the merge host's own snapshot, so its
    reduce/crossval stages join the shards' numbers).  Returns
    ``(combined, folded)`` where ``folded`` counts the trailers that
    carried a snapshot — 0 means the shards swept without ``--stats``.
    """
    combined = base if base is not None else {}
    folded = 0
    for trailer in trailers:
        snap = trailer.get("metrics")
        if snap:
            combined = merge_snapshots(combined, snap)
            folded += 1
    return combined, folded


def _format_seconds(value) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return ">max"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.2f}ms"


def _snapshot_quantile(hist: dict, q: float):
    count = hist["count"]
    if not count:
        return None
    threshold = q * count
    cumulative = 0
    bounds = hist["bounds"]
    for i, bucket in enumerate(hist["counts"]):
        cumulative += bucket
        if cumulative >= threshold and bucket:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")


def format_summary(snap: dict, *, title: str = "sweep telemetry") -> str:
    """Render a snapshot as the ``--stats`` end-of-sweep report.

    Deterministic for a given snapshot: sections and rows sort by name, and
    no wall-clock values beyond the snapshot's own appear.
    """
    lines = [title, "=" * len(title)]
    counters = snap.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    cache_lines = _cache_effectiveness(counters)
    if cache_lines:
        lines.append("")
        lines.append("cache effectiveness")
        lines.extend(cache_lines)
    histograms = snap.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("stage latency")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            hist = histograms[name]
            if not hist["count"]:
                continue
            mean = hist["sum"] / hist["count"]
            lines.append(
                f"  {name:<{width}}  n={hist['count']:<7} "
                f"mean={_format_seconds(mean):<9} "
                f"p50<={_format_seconds(_snapshot_quantile(hist, 0.5)):<9} "
                f"p90<={_format_seconds(_snapshot_quantile(hist, 0.9)):<9} "
                f"max={_format_seconds(hist['max'])}")
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {gauges[name]:g}")
    return "\n".join(lines)


def _cache_effectiveness(counters: dict) -> list[str]:
    """Hit-rate lines for every ``<tier>.hits``/``<tier>.misses`` pair."""
    lines = []
    for prefix in sorted({name.rsplit(".", 1)[0] for name in counters
                          if name.endswith((".hits", ".misses"))}):
        hits = counters.get(prefix + ".hits", 0)
        misses = counters.get(prefix + ".misses", 0)
        total = hits + misses
        if not total:
            continue
        lines.append(f"  {prefix}: {hits}/{total} hits "
                     f"({100.0 * hits / total:.1f}%)")
    return lines


# ---------------------------------------------------------------------------
# Module-level registry (what the sweep pipeline instruments against)
# ---------------------------------------------------------------------------

_REGISTRY = MetricsRegistry(enabled=False)


def configure(enabled: bool) -> MetricsRegistry:
    """Swap in a fresh registry (clearing old instruments) and return it.

    Instrument handles are bound at fetch time, so configure *before* the
    instrumented code fetches them — the service does this at the top of
    ``run()``, before any worker forks.
    """
    global _REGISTRY
    _REGISTRY = MetricsRegistry(enabled=enabled)
    return _REGISTRY


def registry() -> MetricsRegistry:
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY.enabled


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, bounds=LATENCY_BUCKETS) -> Histogram:
    return _REGISTRY.histogram(name, bounds)


def snapshot() -> dict:
    return _REGISTRY.snapshot()

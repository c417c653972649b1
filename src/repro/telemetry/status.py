"""Live sweep status: atomic status file + terminal dashboard rendering.

While a sweep runs, the service rewrites ``<journal>.status.json`` every
few seconds with everything an operator watching a long run needs:
progress, per-worker liveness and current program, a throughput EMA with
an ETA, cache hit rates, stragglers, and every recovery incident so far.
``scripts/sweep_status.py`` renders one or many of these files as a
terminal dashboard.

Atomicity is the load-bearing property: the file is rewritten via
write-temp-then-``os.replace`` in the same directory, so a reader — or a
SIGKILL mid-write — can never observe a torn document; every read of the
path yields either the previous complete status or the next one
(``tests`` kill a writer child mid-loop to pin this).  The status file is
advisory scratch beside the journal, never an artifact: it is gitignored,
carries wall-clock numbers, and has no influence on sweep records.
"""

from __future__ import annotations

import json
import os
import time

STATUS_KIND = "repro-difftest-status"
STATUS_VERSION = 1


class ThroughputEMA:
    """Exponential moving average of programs/second, fed by completions.

    Updates are windowed: rates are computed over at least
    ``min_window`` seconds of elapsed time so a burst of queue drains does
    not spike the estimate, then folded in with weight ``alpha``.
    """

    def __init__(self, alpha: float = 0.3, min_window: float = 0.5,
                 clock=time.monotonic) -> None:
        self.alpha = alpha
        self.min_window = min_window
        self._clock = clock
        self._last_time = None
        self._last_completed = 0
        self.rate = None

    def update(self, completed: int, now: float | None = None) -> None:
        if now is None:
            now = self._clock()
        if self._last_time is None:
            self._last_time = now
            self._last_completed = completed
            return
        elapsed = now - self._last_time
        if elapsed < self.min_window:
            return
        instantaneous = (completed - self._last_completed) / elapsed
        self.rate = (instantaneous if self.rate is None
                     else self.alpha * instantaneous
                     + (1.0 - self.alpha) * self.rate)
        self._last_time = now
        self._last_completed = completed

    def eta_seconds(self, remaining: int) -> float | None:
        if not self.rate or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        return remaining / self.rate


def write_status(path: str, payload: dict) -> None:
    """Atomically replace ``path`` with ``payload`` as JSON."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory,
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def read_status(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class StatusWriter:
    """Interval-throttled atomic status publisher.

    ``maybe_write(build)`` calls ``build()`` (which assembles the payload)
    only when the interval has elapsed — the service calls it from its
    poll loop, so payload assembly must stay off the fast path.
    """

    def __init__(self, path: str, *, interval: float = 2.0,
                 clock=time.monotonic) -> None:
        self.path = path
        self.interval = interval
        self._clock = clock
        self._last_write = None

    def maybe_write(self, build, *, force: bool = False) -> bool:
        now = self._clock()
        if (not force and self._last_write is not None
                and now - self._last_write < self.interval):
            return False
        payload = dict(build())
        payload.setdefault("kind", STATUS_KIND)
        payload.setdefault("version", STATUS_VERSION)
        write_status(self.path, payload)
        self._last_write = now
        return True


# ---------------------------------------------------------------------------
# Dashboard rendering (scripts/sweep_status.py and the merge runbook)
# ---------------------------------------------------------------------------

_BAR_WIDTH = 24


def _bar(fraction: float) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * _BAR_WIDTH))
    return "[" + "#" * filled + "." * (_BAR_WIDTH - filled) + "]"


def _format_eta(seconds) -> str:
    if seconds is None:
        return "ETA ?"
    if seconds <= 0:
        return "done"
    if seconds < 90:
        return f"ETA {seconds:.0f}s"
    if seconds < 5400:
        return f"ETA {seconds / 60:.0f}m"
    return f"ETA {seconds / 3600:.1f}h"


def _cache_rate(status: dict) -> str | None:
    cache = status.get("cache") or {}
    hits = cache.get("artifact.hits", 0)
    misses = cache.get("artifact.misses", 0)
    if hits + misses:
        return f"artifact {100.0 * hits / (hits + misses):.0f}%"
    return None


def render_status_line(status: dict, label: str = "sweep") -> str:
    """One dashboard row for one status document."""
    target = status.get("target") or 0
    completed = status.get("completed", 0)
    fraction = completed / target if target else 0.0
    parts = [
        f"{label:<11}",
        _bar(fraction),
        f"{completed}/{target}",
        f"{100.0 * fraction:5.1f}%",
    ]
    rate = status.get("throughput_programs_per_s")
    parts.append(f"{rate:.1f} prog/s" if rate is not None else "- prog/s")
    parts.append("done" if status.get("done")
                 else _format_eta(status.get("eta_seconds")))
    workers = status.get("workers") or {}
    if workers:
        alive = sum(1 for w in workers.values() if w.get("alive"))
        parts.append(f"workers {alive}/{len(workers)}")
    cache = _cache_rate(status)
    if cache:
        parts.append(cache)
    recoveries = status.get("recoveries") or []
    if recoveries:
        parts.append(f"recoveries {len(recoveries)}")
    return "  ".join(parts)


def render_dashboard(statuses: list[dict], *, detail: bool = True) -> str:
    """Render one or many status documents as a terminal dashboard."""
    lines = []
    for status in statuses:
        lines.append(render_status_line(status))
        if not detail:
            continue
        for worker_id in sorted((status.get("workers") or {}),
                                key=lambda w: int(w)):
            worker = status["workers"][worker_id]
            if not worker.get("alive"):
                state = "dead"
            elif worker.get("current_index") is None:
                state = "idle"
            else:
                state = (f"program {worker['current_index']} "
                         f"({worker.get('busy_seconds', 0.0):.1f}s)")
            flags = []
            if worker.get("respawns"):
                flags.append(f"respawns {worker['respawns']}")
            if worker.get("straggler"):
                flags.append("STRAGGLER")
            lines.append(f"    worker {worker_id}: {state}"
                         + ("  [" + ", ".join(flags) + "]" if flags else ""))
        for incident in (status.get("recoveries") or []):
            lines.append(f"    recovery: {incident.get('type', 'unknown')} "
                         f"(torn index {incident.get('torn_index')}, "
                         f"dropped {incident.get('dropped_bytes', 0)} bytes)")
    if len(statuses) > 1:
        target = sum(s.get("target") or 0 for s in statuses)
        completed = sum(s.get("completed", 0) for s in statuses)
        rates = [s.get("throughput_programs_per_s") for s in statuses]
        known = [r for r in rates if r is not None]
        total = {
            "target": target,
            "completed": completed,
            "throughput_programs_per_s": sum(known) if known else None,
            "done": all(s.get("done") for s in statuses),
        }
        if known and not total["done"]:
            remaining = target - completed
            total["eta_seconds"] = (remaining / total["throughput_programs_per_s"]
                                    if total["throughput_programs_per_s"] else None)
        total_line = render_status_line(total, label="total")
        lines.append("-" * len(total_line))
        lines.append(total_line)
    return "\n".join(lines)

#!/usr/bin/env python3
"""Terminal dashboard over live difftest sweep status files.

``run_difftest`` (unless ``--status-interval 0``) atomically rewrites
``<journal>.status.json`` every few seconds while sweeping.  This script
renders one or many of those documents (one per sweep, plus a total row
when there are several) as a terminal dashboard: progress bars, throughput
and ETA, per-worker liveness with straggler flags, cache hit rates, and
every recovery incident.  Reads are always safe: the writer replaces the file
atomically, so a reader can never observe a torn document.

Usage::

    PYTHONPATH=src python scripts/sweep_status.py results/difftest_journal.jsonl
    PYTHONPATH=src python scripts/sweep_status.py sweep*/difftest_journal.jsonl.status.json --watch 2
    PYTHONPATH=src python scripts/sweep_status.py sweep*/difftest_journal.jsonl --check-complete

Arguments may be status files or journal paths (``.status.json`` is
appended when the argument does not already end with it).  ``--watch SEC``
refreshes until every sweep reports done; ``--check-complete`` exits
non-zero unless every status document exists and reports ``done`` (the CI
telemetry-smoke job uses it as its completion assertion).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry.status import (  # noqa: E402  (sys.path setup above)
    STATUS_KIND,
    read_status,
    render_dashboard,
)


def status_path(argument: str) -> str:
    """Map a journal path to its status file; pass status files through."""
    if argument.endswith(".status.json"):
        return argument
    return argument + ".status.json"


def load_statuses(paths: list[str]) -> tuple[list[dict], list[str]]:
    """Read every status document; returns (documents, problems)."""
    statuses: list[dict] = []
    problems: list[str] = []
    for path in paths:
        try:
            status = read_status(path)
        except FileNotFoundError:
            problems.append(f"{path}: no status file (sweep not started, or "
                            f"run with --status-interval 0)")
            continue
        except ValueError as exc:
            problems.append(f"{path}: unreadable status file ({exc})")
            continue
        if status.get("kind") != STATUS_KIND:
            problems.append(f"{path}: not a sweep status document "
                            f"(kind={status.get('kind')!r})")
            continue
        statuses.append(status)
    return statuses, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="STATUS_OR_JOURNAL",
                        help="status files, or journal paths "
                             "(.status.json is appended)")
    parser.add_argument("--watch", type=float, default=None, metavar="SEC",
                        help="refresh every SEC seconds until all sweeps "
                             "report done")
    parser.add_argument("--no-detail", action="store_true",
                        help="one summary line per sweep (no worker or "
                             "recovery rows)")
    parser.add_argument("--check-complete", action="store_true",
                        help="exit non-zero unless every status document "
                             "exists and reports done")
    args = parser.parse_args(argv)
    paths = [status_path(p) for p in args.paths]

    while True:
        statuses, problems = load_statuses(paths)
        output = render_dashboard(statuses, detail=not args.no_detail)
        if output:
            print(output)
        for problem in problems:
            print(f"sweep_status: {problem}", file=sys.stderr)
        complete = (not problems and statuses
                    and all(s.get("done") for s in statuses))
        if args.check_complete and args.watch is None:
            return 0 if complete else 1
        if args.watch is None or complete:
            return 0 if not args.check_complete or complete else 1
        time.sleep(args.watch)
        print()


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Differential-execution sweep: generated mini-C corpora across all models.

Generates a seeded corpus of pointer-idiom-heavy programs, executes every
program under every requested memory model on a fault-tolerant sharded
worker pool (``repro.difftest.service``), classifies each (program, model)
outcome against the PDP-11 baseline, and writes:

* ``results/table5_differential_matrix.txt`` — the Table-5 outcome matrix
  plus a per-feature breakdown;
* ``results/difftest_corpus.json`` — sweep metadata, per-model summaries and
  every interesting (divergent) seed, plus delta-debugged minimal
  reproducers for the first ``--reduce`` divergent programs.

Both outputs are bit-deterministic for a given (seed, count, models,
budget): worker count, injected faults, retries, ``--resume`` boundaries
and multi-host sharding never change a byte.  Every sweep is
journaled (one JSON line per completed program); an interrupted run
continues with ``--resume``.

Multi-host: ``--host-shard i/N`` runs the deterministic interleaved slice
``index % N == i`` into a per-host journal; ``--merge`` (or
``scripts/merge_journals.py``) recombines the N journals into the same two
artifacts a single-host run writes, refusing on any gap, overlap or
conflict.  See ``docs/difftest.md``.

Usage::

    PYTHONPATH=src python scripts/run_difftest.py --seed 0 --count 1000
    PYTHONPATH=src python scripts/run_difftest.py --count 200 --jobs 4
    PYTHONPATH=src python scripts/run_difftest.py --count 200 --jobs 4 --resume
    PYTHONPATH=src python scripts/run_difftest.py --count 40 --jobs 2 --inject all
    PYTHONPATH=src python scripts/run_difftest.py --count 900 --host-shard 0/3
    PYTHONPATH=src python scripts/run_difftest.py --merge shard*.jsonl
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.common.errors import ServiceError  # noqa: E402  (sys.path setup above)
from repro.difftest import (  # noqa: E402
    GENERATOR_VERSION,
    SweepService,
    parse_inject_spec,
)
from repro.difftest import output as sweep_output  # noqa: E402
from repro.difftest.merge import merge_journals  # noqa: E402
from repro.difftest.runner import DEFAULT_BUDGET  # noqa: E402
from repro.interp.models import PAPER_MODEL_ORDER  # noqa: E402
from repro.telemetry import metrics  # noqa: E402


def _parse_host_shard(text: str) -> tuple[int, int]:
    shard, sep, nshards = text.partition("/")
    try:
        if not sep:
            raise ValueError
        return int(shard), int(nshards)
    except ValueError:
        raise ServiceError(f"--host-shard must look like i/N, got {text!r}") \
            from None


def _write_artifacts(records, out_dir, say, *, seed, count, models, budget,
                     reduce_limit, crossval=False,
                     generator_version=GENERATOR_VERSION) -> None:
    meta = sweep_output.sweep_meta(seed=seed, count=count, models=models,
                                   budget=budget,
                                   generator_version=generator_version)
    if crossval:
        # Static predictions are a pure function of (seed, index, models,
        # budget): recomputing them here keeps the journal format unchanged
        # and gives the serial, sharded and merged paths byte-identical
        # annotations.
        from repro.staticcheck import crossval as staticcheck_crossval
        staticcheck_crossval.annotate_records(
            records, seed=seed, models=models, budget=budget, say=say)
        summary = staticcheck_crossval.summarize_crossval(records)
        crossval_text = staticcheck_crossval.format_crossval(summary, meta=meta)
        crossval_path = (pathlib.Path(out_dir)
                         / staticcheck_crossval.CROSSVAL_NAME)
        crossval_path.parent.mkdir(parents=True, exist_ok=True)
        crossval_path.write_text(crossval_text + "\n", encoding="utf-8")
        say(f"wrote {crossval_path}")
        if summary.violations:
            print(f"run_difftest: static cross-validation found "
                  f"{len(summary.violations)} soundness violation(s); see "
                  f"{crossval_path}", file=sys.stderr)
    matrix_text, document = sweep_output.build_outputs(records, meta=meta)
    document["reductions"] = sweep_output.compute_reductions(
        records, seed=seed, models=models, budget=budget,
        limit=reduce_limit, say=say)
    if not reduce_limit:
        del document["reductions"]
    matrix_path, corpus_path = sweep_output.write_outputs(
        out_dir, matrix_text, document)
    say(f"wrote {matrix_path}")
    say(f"wrote {corpus_path}")
    say("")
    say(matrix_text)


def _merged_stats_summary(merged, say) -> None:
    """Aggregate per-shard stats trailers (+ this host's artifact stages)."""
    combined, folded = metrics.merge_trailer_snapshots(
        merged.stats_trailers, base=metrics.snapshot())
    if not folded:
        say("no stats trailers in the input journals "
            "(sweep the shards with --stats to record them)")
        return
    print()
    print(metrics.format_summary(
        combined,
        title=f"sweep telemetry ({folded} shard trailer(s) merged)"))


def _run_merge(args, say) -> int:
    if args.stats:
        # Enabled so the merge host's own artifact stages (stage.reduce,
        # stage.crossval) land in the combined report alongside the shards'.
        metrics.configure(True)
    merged = merge_journals(args.merge)
    for recovery in merged.recoveries:
        torn = recovery["torn_index"]
        print(f"run_difftest: recovered a torn tail in "
              f"{recovery['journal']} (in memory only; the file was not "
              f"modified): kept {recovery['valid_bytes']} bytes, dropped "
              f"{recovery['dropped_bytes']}; torn record was program index "
              f"{torn if torn is not None else 'unknown'}", file=sys.stderr)
    header = merged.header
    say(f"merged {len(merged.sources)} journal(s): {header['count']} "
        f"programs (seed={header['seed']}, generator "
        f"v{header['generator_version']})")
    reduce_limit = args.reduce
    if reduce_limit and header["generator_version"] != GENERATOR_VERSION:
        # Reductions regenerate programs from (seed, index) with *this*
        # build's generator; a version skew would replay different programs
        # than the sweep classified.
        raise ServiceError(
            f"cannot reduce: the journals were swept with generator "
            f"v{header['generator_version']} but this build has "
            f"v{GENERATOR_VERSION}; re-run with --reduce 0 to merge "
            f"without reductions")
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else \
        pathlib.Path(__file__).resolve().parent.parent / "results"
    _write_artifacts(merged.records, out_dir, say,
                     seed=header["seed"], count=header["count"],
                     models=tuple(header["models"]), budget=header["budget"],
                     reduce_limit=reduce_limit, crossval=args.crossval,
                     generator_version=header["generator_version"])
    if args.stats:
        _merged_stats_summary(merged, say)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--count", type=int, default=1000,
                        help="number of generated programs (default 1000)")
    parser.add_argument("--models", default=",".join(PAPER_MODEL_ORDER),
                        help="comma-separated model names (default: all seven)")
    parser.add_argument("--budget", type=int, default=None,
                        help="per-run instruction budget (default: runner default)")
    parser.add_argument("--reduce", type=int, default=3, metavar="N",
                        help="minimize the first N divergent programs into the "
                             "JSON corpus (default 3; 0 disables)")
    parser.add_argument("--crossval", action="store_true",
                        help="run the static predictor (repro.staticcheck) "
                             "over every program, annotate the corpus JSON "
                             "with per-cell static_prediction and write "
                             "results/staticcheck_crossval.txt")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: <repo>/results)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker subprocesses (default 1)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-program wall-clock timeout in seconds (default 30)")
    parser.add_argument("--retries", type=int, default=2,
                        help="attempts beyond the first before a program is "
                             "quarantined (default 2)")
    parser.add_argument("--resume", action="store_true",
                        help="continue from this sweep's journal instead of "
                             "starting over")
    parser.add_argument("--inject", default=None, metavar="SPEC",
                        help="fault-injection spec: 'all' or a comma list of "
                             "crash/hang/engine/journal[:index[:always]] "
                             "(exercises the supervisor's recovery paths)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="journal file (default: <out-dir>/difftest_journal"
                             "[.shardIofN].jsonl)")
    parser.add_argument("--host-shard", default=None, metavar="I/N",
                        help="run only the interleaved slice index %% N == I "
                             "of the sweep into a per-host journal; merge the "
                             "N journals afterwards with --merge")
    parser.add_argument("--merge", nargs="+", default=None, metavar="JOURNAL",
                        help="merge completed per-host shard journals into "
                             "the sweep artifacts instead of running programs")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event JSON of the sweep "
                             "(supervisor + per-worker tracks; load at "
                             "https://ui.perfetto.dev); never changes the "
                             "sweep artifacts")
    parser.add_argument("--stats", action="store_true",
                        help="print an end-of-sweep telemetry summary (stage "
                             "latency histograms, cache effectiveness) and "
                             "append it to the journal as a stats trailer so "
                             "--resume and --merge can aggregate it")
    parser.add_argument("--status-interval", type=float, default=2.0,
                        metavar="SEC",
                        help="rewrite <journal>.status.json atomically every "
                             "SEC seconds while sweeping (default 2; 0 "
                             "disables; render with scripts/sweep_status.py)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    say = (lambda *a, **k: None) if args.quiet else print

    try:
        if args.merge is not None:
            for flag, name in ((args.resume, "--resume"),
                               (args.inject, "--inject"),
                               (args.host_shard, "--host-shard"),
                               (args.journal, "--journal"),
                               (args.trace, "--trace")):
                if flag:
                    raise ServiceError(f"--merge cannot be combined with {name}")
            return _run_merge(args, say)

        models = tuple(name.strip() for name in args.models.split(",")
                       if name.strip())
        budget = args.budget if args.budget is not None else DEFAULT_BUDGET
        host_shard = (_parse_host_shard(args.host_shard)
                      if args.host_shard else None)
        out_dir = pathlib.Path(args.out_dir) if args.out_dir else \
            pathlib.Path(__file__).resolve().parent.parent / "results"
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.journal:
            journal_path = pathlib.Path(args.journal)
        elif host_shard:
            journal_path = out_dir / (f"difftest_journal.shard{host_shard[0]}"
                                      f"of{host_shard[1]}.jsonl")
        else:
            journal_path = out_dir / "difftest_journal.jsonl"

        t0 = time.perf_counter()

        def progress(done, total):
            if not args.quiet and done % 100 == 0:
                say(f"  swept {done}/{total} programs "
                    f"({time.perf_counter() - t0:.1f}s)")

        inject = parse_inject_spec(args.inject, args.count) if args.inject else None
        service = SweepService(
            seed=args.seed, count=args.count, models=models, budget=budget,
            jobs=args.jobs, timeout=args.timeout, retries=args.retries,
            inject=inject, journal_path=str(journal_path),
            host_shard=host_shard, progress=progress,
            trace_path=args.trace, collect_stats=args.stats,
            status_interval=args.status_interval,
        )
        shard_size = len(service.shard_indices())
        say(f"sweeping {shard_size} of {args.count} programs "
            f"(seed={args.seed}, generator v{GENERATOR_VERSION}) across "
            f"{args.jobs} worker(s)"
            + (f", host shard {host_shard[0]}/{host_shard[1]}"
               if host_shard else "")
            + (", resuming" if args.resume else ""))
        outcome = service.run(resume=args.resume)
    except ServiceError as exc:
        print(f"run_difftest: {exc}", file=sys.stderr)
        return 2
    records, stats = outcome.records, outcome.stats
    sweep_seconds = time.perf_counter() - t0
    runs = len(records) * len(models)
    say(f"swept {len(records)} programs x {len(models)} models in "
        f"{sweep_seconds:.1f}s ({runs / max(sweep_seconds, 1e-9):.0f} "
        f"program-runs/s)")
    noteworthy = {key: value for key, value in stats.items()
                  if value and key not in ("completed",)}
    if noteworthy:
        say("  service stats: " + ", ".join(f"{k}={v}"
                                            for k, v in sorted(noteworthy.items())))

    if args.trace:
        say(f"wrote trace {args.trace} (load at https://ui.perfetto.dev)")

    if host_shard:
        # A shard alone cannot produce the sweep artifacts (they summarize
        # all indices); its deliverable is the completed journal.
        say(f"shard journal complete: {journal_path}")
        say(f"merge all {host_shard[1]} shard journals with: "
            f"run_difftest.py --merge <journals...>")
        if args.stats:
            print()
            print(metrics.format_summary(metrics.snapshot()))
        return 0

    _write_artifacts(records, out_dir, say, seed=args.seed, count=args.count,
                     models=models, budget=budget, reduce_limit=args.reduce,
                     crossval=args.crossval)
    if args.stats:
        # A fresh snapshot, not outcome.telemetry: the registry has since
        # accumulated the artifact-build stages (stage.reduce,
        # stage.crossval) on top of the sweep's own metrics.
        print()
        print(metrics.format_summary(metrics.snapshot()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

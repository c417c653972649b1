#!/usr/bin/env python
"""Profile the abstract-machine interpreter over one workload/model pair.

Perf PRs should start from data, not guesses: this helper runs cProfile over
``AbstractMachine.run`` and prints the top functions by cumulative time, so
the next optimization target is visible immediately.  The front end (parse,
lowering, optimization) is excluded, but ``run()`` includes everything the
engine does: tier 0's per-pc decode, the predecode artifact and the binding
of every promoted function.  See PERFORMANCE.md ("Profiling workflow").

Usage::

    PYTHONPATH=src python scripts/profile_interp.py                    # treeadd/cheri_v3
    PYTHONPATH=src python scripts/profile_interp.py dhrystone pdp11
    PYTHONPATH=src python scripts/profile_interp.py tcpdump cheri_v3 --sort tottime
    PYTHONPATH=src python scripts/profile_interp.py treeadd pdp11 --top 40
    PYTHONPATH=src python scripts/profile_interp.py dhrystone pdp11 --blocks

``--blocks`` reports per-block dispatch residency instead of cProfile rows:
for every basic-block superinstruction, how often it ran, how many IR
instructions (entries) each execution covers, and the share of all executed
instructions it absorbed — i.e. where the dispatch loop no longer spends
round-trips.  The machine records this only when profiling is requested, so
benchmark runs stay instrumentation-free.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

from repro.core.api import compile_for_model
from repro.interp.machine import AbstractMachine
from repro.interp.models import get_model

#: workload name -> zero-argument callable producing mini-C source.  Confirm
#: what a profile suggests with the benchmark, ``perfbench/run.py``, whose
#: ``figures`` workload runs these kernels at the paper's sizes.
WORKLOADS = {
    "treeadd": lambda: _treeadd(),
    "bisort": lambda: _bisort(),
    "dhrystone": lambda: _dhrystone(),
    "tcpdump": lambda: _tcpdump(),
    "zlib_like": lambda: _zlib_like(),
}


def _treeadd() -> str:
    from repro.workloads.olden import treeadd

    return treeadd.source(depth=10, passes=3)


def _bisort() -> str:
    from repro.workloads.olden import bisort

    return bisort.source(count=bisort.DEFAULT_COUNT)


def _dhrystone() -> str:
    from repro.workloads import dhrystone

    return dhrystone.source(runs=dhrystone.DEFAULT_RUNS)


def _tcpdump() -> str:
    from repro.workloads import tcpdump

    return tcpdump.baseline_source(packets=tcpdump.DEFAULT_PACKETS)


def _zlib_like() -> str:
    from repro.workloads import zlib_like

    return zlib_like.source()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="treeadd", choices=sorted(WORKLOADS))
    parser.add_argument("model", nargs="?", default="cheri_v3")
    parser.add_argument("--top", type=int, default=25, help="rows to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--blocks", action="store_true",
                        help="report per-superinstruction dispatch residency "
                             "instead of cProfile output")
    args = parser.parse_args(argv)

    source = WORKLOADS[args.workload]()
    module = compile_for_model(source, args.model)
    machine = AbstractMachine(module, get_model(args.model), max_instructions=200_000_000)

    if args.blocks:
        machine.block_profile = {}

    profiler = cProfile.Profile()
    start = time.perf_counter()
    if not args.blocks:
        profiler.enable()
    result = machine.run()
    if not args.blocks:
        profiler.disable()
    elapsed = time.perf_counter() - start

    if result.trapped:
        print(f"workload trapped: {result.trap!r}", file=sys.stderr)
        return 1
    if args.blocks:
        return _report_blocks(args, machine, result, elapsed)
    print(f"{args.workload}/{args.model}: {result.instructions} instructions in "
          f"{elapsed:.3f}s under profiler "
          f"({result.instructions / elapsed:,.0f} insns/s; profiling overhead included)")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


def _report_blocks(args, machine, result, elapsed: float) -> int:
    """Print the per-block dispatch-residency table (``--blocks``)."""
    profile = machine.block_profile or {}
    total = result.instructions or 1
    rows = []
    for (function, pc), info in profile.items():
        executions = info["count"][0]
        covered = executions * info["entries"]
        rows.append((covered, function, pc, info["entries"], executions))
    rows.sort(reverse=True)
    covered_total = sum(row[0] for row in rows)
    print(f"{args.workload}/{args.model}: {result.instructions} instructions in "
          f"{elapsed:.3f}s ({result.instructions / elapsed:,.0f} insns/s)")
    print(f"superinstruction residency: {covered_total}/{total} instructions "
          f"({covered_total / total:.1%}) ran inside {len(rows)} compiled blocks\n")
    print(f"{'block':<28}{'entries':>8}{'execs':>12}{'insns':>12}{'share':>8}")
    print("-" * 68)
    for covered, function, pc, entries, executions in rows[: args.top]:
        print(f"{function + '+' + str(pc):<28}{entries:>8}"
              f"{executions:>12}{covered:>12}{covered / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Interpreter throughput benchmark: instructions/second on the hot workloads.

Unlike the figure/table benchmarks (which report *simulated cycles*), this
benchmark tracks how fast the abstract machine itself executes — the binding
constraint on growing workloads now that every figure is produced by the
interpreter.  It writes ``results/BENCH_interp.json`` so the performance
trajectory is tracked from the predecode PR onward; ``PERFORMANCE.md``
documents the workflow.

The ``SEED_IPS`` constants are the best-of-3 throughput of the original
opcode-chain interpreter (seed commit 607eec0) measured on the reference
container; ``speedup_vs_seed`` in the JSON is relative to them.  The assertion
uses a deliberately loose floor so that hardware variation does not produce
false failures, while a real dispatch-path regression still trips it.

The test is marked ``perf`` and excluded from the default (tier-1) pytest
run — wall-clock assertions do not belong in correctness CI.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_interp.py -m perf -q
"""

from __future__ import annotations

import json
import time

import pytest
from conftest import write_result

from repro.core.api import compile_for_model
from repro.interp.machine import AbstractMachine
from repro.interp.models import get_model
from repro.workloads import dhrystone, tcpdump, zlib_like
from repro.workloads.olden import bisort, treeadd

MODELS = ("pdp11", "cheri_v3")
ROUNDS = 3

WORKLOADS = {
    "treeadd": lambda: treeadd.source(depth=10, passes=3),
    "dhrystone": lambda: dhrystone.source(runs=dhrystone.DEFAULT_RUNS),
    "tcpdump": lambda: tcpdump.baseline_source(packets=tcpdump.DEFAULT_PACKETS),
    "zlib_like": lambda: zlib_like.source(),
    "bisort": lambda: bisort.source(count=bisort.DEFAULT_COUNT),
}

#: best-of-3 instructions/sec of the pre-predecode interpreter (seed commit
#: 607eec0); treeadd/dhrystone were recorded on the reference container for
#: PR 1, the other workloads were measured from a 607eec0 worktree on the
#: same container as PR 2.  See PERFORMANCE.md.
SEED_IPS = {
    "treeadd/pdp11": 139224,
    "treeadd/cheri_v3": 104400,
    "dhrystone/pdp11": 102809,
    "dhrystone/cheri_v3": 115634,
    "tcpdump/pdp11": 133744,
    "tcpdump/cheri_v3": 124827,
    "zlib_like/pdp11": 184451,
    "zlib_like/cheri_v3": 189111,
    "bisort/pdp11": 170732,
    "bisort/cheri_v3": 160231,
}

#: best-of-3 instructions/sec recorded by the PR 2 engine (unboxed registers
#: + pair fusion) in results/BENCH_interp.json before the basic-block
#: superinstruction PR; ``speedup_vs_pr2`` in the JSON tracks the block
#: engine against it.
PR2_IPS = {
    "treeadd/pdp11": 984881,
    "treeadd/cheri_v3": 880706,
    "dhrystone/pdp11": 1022995,
    "dhrystone/cheri_v3": 763562,
    "tcpdump/pdp11": 1038497,
    "tcpdump/cheri_v3": 1013122,
    "zlib_like/pdp11": 2082419,
    "zlib_like/cheri_v3": 1736845,
    "bisort/pdp11": 1495324,
    "bisort/cheri_v3": 1069904,
}

#: minimum acceptable speedup over the seed interpreter (the measured value
#: is ~5-8x after the unboxed-value/fusion PR; the floor leaves room for
#: slower/noisier machines).
MIN_SPEEDUP = 1.5


def _measure_all() -> dict:
    measurements = {}
    for workload, source in WORKLOADS.items():
        for model in MODELS:
            best_ips = 0.0
            best_seconds = 0.0
            instructions = 0
            for _ in range(ROUNDS):
                module = compile_for_model(source(), model)
                machine = AbstractMachine(module, get_model(model),
                                          max_instructions=200_000_000)
                # Per-instruction predecode outside the timer: the tracked
                # metric is execution throughput.  Basic blocks still bind
                # inside run(), at each function's HOT_CALL_THRESHOLD-th
                # call, so the timed run includes their (cached) binding.
                for function in module.functions.values():
                    if function.instrs:
                        machine._code_for(function)
                start = time.perf_counter()
                result = machine.run()
                elapsed = time.perf_counter() - start
                assert not result.trapped and result.exit_code == 0, (workload, model, result.trap)
                instructions = result.instructions
                ips = result.instructions / elapsed
                if ips > best_ips:
                    best_ips = ips
                    best_seconds = elapsed
            key = f"{workload}/{model}"
            measurements[key] = {
                "instructions": instructions,
                "wall_seconds": round(best_seconds, 4),
                "instructions_per_second": round(best_ips),
                "seed_instructions_per_second": SEED_IPS[key],
                "speedup_vs_seed": round(best_ips / SEED_IPS[key], 2),
                "pr2_instructions_per_second": PR2_IPS[key],
                "speedup_vs_pr2": round(best_ips / PR2_IPS[key], 2),
            }
    return measurements


@pytest.mark.perf
def test_perf_interp(benchmark, results_dir):
    measurements = benchmark.pedantic(_measure_all, rounds=1, iterations=1)

    payload = {
        "benchmark": "interpreter throughput (basic-block superinstructions + frame pool)",
        "workloads": measurements,
        "rounds": ROUNDS,
        "note": "best-of-N wall time of AbstractMachine.run (compilation excluded)",
    }
    write_result(results_dir, "BENCH_interp.json", json.dumps(payload, indent=1))

    for key, entry in measurements.items():
        assert entry["speedup_vs_seed"] >= MIN_SPEEDUP, (
            f"{key}: {entry['instructions_per_second']} insns/s is only "
            f"{entry['speedup_vs_seed']}x the seed interpreter ({SEED_IPS[key]}); "
            f"the dispatch path has regressed (floor {MIN_SPEEDUP}x)"
        )

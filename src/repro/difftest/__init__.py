"""Differential-execution fuzzing of the memory-safety models.

The paper's Table 3 asks one question — *how do real C idioms behave under
different interpretations of the C abstract machine?* — and answers it with
eight hand-extracted test cases.  This package turns the interpreter's
post-PR-3 speed into scenario diversity, in the spirit of TriCheck's
cross-layer litmus sweeps:

* :mod:`repro.difftest.generator` builds seeded, grammar-directed mini-C
  programs as :mod:`repro.minic.astnodes` trees, biased toward the paper's
  idiom catalogue (int<->pointer casts, out-of-bounds probes, sub-object
  arithmetic, union/memcpy aliasing, use-after-free);
* :mod:`repro.difftest.runner` compiles each program once per pointer layout
  and replays it under every registered memory model on the block-compiled
  engine;
* :mod:`repro.difftest.oracle` classifies every per-model outcome against
  the PDP-11 baseline into a total trap/corruption/benign taxonomy and
  renders the Table-5 matrix plus a JSON corpus of interesting seeds;
* :mod:`repro.difftest.reducer` delta-debugs any divergent program at the
  AST level down to a minimal reproducer with the same classification;
* :mod:`repro.difftest.service` shards the sweep across a fault-tolerant
  pool of worker subprocesses (timeouts, respawn, quarantine), journaled by
  :mod:`repro.difftest.journal` for ``--resume``, with deliberate failures
  supplied by :mod:`repro.difftest.faultinject`;
* :mod:`repro.difftest.output` renders the sweep artifacts from the
  journal's records, so serial, parallel and resumed sweeps write the same
  bytes.

``scripts/run_difftest.py`` is the command-line entry point;
``tests/test_difftest.py`` pins a 64-program sweep as a regression oracle
and ``tests/test_difftest_service.py`` pins the recovery paths.
"""

from repro.difftest.generator import (
    GENERATOR_VERSION,
    GeneratedProgram,
    ProgramGenerator,
    generate_corpus,
    generate_program,
)
from repro.difftest.faultinject import Fault, FaultPlan, parse_inject_spec
from repro.difftest.journal import JournalWriter, load_journal
from repro.difftest.oracle import (
    CATEGORIES,
    cell_record,
    classify_results,
    classify_sweep,
    corpus_document,
    corpus_document_from_records,
    feature_breakdown_from_records,
    format_matrix,
    summarize,
    summarize_records,
)
from repro.difftest.runner import DifferentialRunner, ProgramResult
from repro.difftest.reducer import reduce_program
from repro.difftest.service import SweepOutcome, SweepService

__all__ = [
    "GENERATOR_VERSION",
    "GeneratedProgram",
    "ProgramGenerator",
    "generate_corpus",
    "generate_program",
    "DifferentialRunner",
    "ProgramResult",
    "CATEGORIES",
    "cell_record",
    "classify_results",
    "classify_sweep",
    "corpus_document",
    "corpus_document_from_records",
    "feature_breakdown_from_records",
    "format_matrix",
    "summarize",
    "summarize_records",
    "reduce_program",
    "Fault",
    "FaultPlan",
    "parse_inject_spec",
    "JournalWriter",
    "load_journal",
    "SweepOutcome",
    "SweepService",
]

"""Sweep-artifact construction for ``scripts/run_difftest.py``.

A sweep must emit byte-identical ``table5_differential_matrix.txt`` and
``difftest_corpus.json`` whatever its worker count, retries, injected
faults or ``--resume`` boundaries.  This module builds them: metadata,
matrix text, corpus document, divergence reductions, and the final writes.

Everything here consumes the journal's ``cell_record`` dicts, never live
:class:`~repro.difftest.runner.ProgramResult` objects: records are what
survive process boundaries and journal files, so a resumed sweep and an
uninterrupted one hand this module the same input.
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.difftest.generator import generate_program
from repro.difftest.oracle import (
    BASELINE,
    corpus_document_from_records,
    feature_breakdown_from_records,
    format_matrix,
    is_divergent,
    summarize_records,
)
from repro.difftest.reducer import reduce_program
from repro.difftest.runner import DifferentialRunner
from repro.telemetry import metrics

#: artifact file names, shared so every entry point and test agrees on them.
MATRIX_NAME = "table5_differential_matrix.txt"
CORPUS_NAME = "difftest_corpus.json"


def sweep_meta(*, seed: int, count: int, models, budget: int,
               generator_version: int) -> dict:
    """The sweep-identity metadata block embedded in both artifacts."""
    return {
        "seed": seed,
        "count": count,
        "models": list(models),
        "budget": budget,
        "generator_version": generator_version,
        "baseline": BASELINE,
    }


def build_outputs(records, *, meta: dict) -> tuple[str, dict]:
    """Render ``(matrix_text, corpus_document)`` from index-ordered records."""
    matrix_text = format_matrix(summarize_records(records),
                                feature_breakdown_from_records(records),
                                meta=meta)
    document = corpus_document_from_records(records, meta=meta)
    return matrix_text, document


def compute_reductions(records, *, seed: int, models, budget: int,
                       limit: int, say=None) -> list[dict]:
    """Delta-debug the first ``limit`` divergent records into minimal sources.

    Reduction replays programs live (regenerated from ``(seed, index)`` —
    records carry no sources by design), so it runs once the supervisor
    holds the full record set.  Quarantined cells
    (``error:engine``/``error:timeout``) have nothing to replay and are
    skipped.

    Each reduction also carries the static predictor's verdict for the
    *reduced* source under the divergent model, plus a
    ``static_verdict_changed`` flag comparing it against the original
    program's static verdict: delta-debugging preserves the dynamic
    category by construction, so a changed static verdict means the
    reduction crossed into a region the analyzer models differently — those
    are the reductions worth a manual look before being trusted as minimal
    reproducers (see docs/staticcheck.md).
    """
    if not limit:
        return []
    # Imported lazily: repro.staticcheck's package init pulls in the
    # predictor, which imports repro.difftest.runner (already imported at
    # the top of this module — a module-level import would cycle during
    # package init).
    from repro.staticcheck.predict import predict_source
    models = tuple(models)
    runner = DifferentialRunner(models=models, budget=budget, analyze=False)
    reductions: list[dict] = []
    for record in records:
        if len(reductions) >= limit:
            break
        classification = record["classification"]
        if not is_divergent(classification):
            continue
        model = next(m for m in models
                     if classification[m] not in ("agree", "agree-trap"))
        category = classification[model]
        if category in ("error:engine", "error:timeout"):
            continue
        program = generate_program(seed, record["index"])
        begin = time.perf_counter()
        try:
            reduction = reduce_program(program, model, category, runner=runner)
        except ValueError:
            continue
        # Post-sweep stage: instrumented against the module registry (null
        # singletons when telemetry is off), never through the journal.
        metrics.histogram("stage.reduce").observe(time.perf_counter() - begin)
        metrics.counter("reduce.programs").inc()
        if say is not None:
            say(f"  reduced program {program.index} "
                f"({model}={category}): {reduction.original_statements} -> "
                f"{reduction.reduced_statements} statements "
                f"in {reduction.tests_run} runs")
        original_verdict = predict_source(
            program.source, models=(model,), budget=budget).get(model)
        reduced_verdict = predict_source(
            reduction.source, models=(model,), budget=budget).get(model)
        reductions.append({
            "index": program.index,
            "model": model,
            "category": category,
            "statements_before": reduction.original_statements,
            "statements_after": reduction.reduced_statements,
            "source": reduction.source,
            "static_prediction": reduced_verdict,
            "static_verdict_changed": reduced_verdict != original_verdict,
        })
    return reductions


def write_outputs(out_dir, matrix_text: str, document: dict
                  ) -> tuple[pathlib.Path, pathlib.Path]:
    """Write both artifacts with the canonical serialization settings."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix_path = out_dir / MATRIX_NAME
    corpus_path = out_dir / CORPUS_NAME
    matrix_path.write_text(matrix_text + "\n", encoding="utf-8")
    corpus_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    return matrix_path, corpus_path

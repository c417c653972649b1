"""Static checker: crossval goldens and totality.

Two layers of guarantees, mirroring ``docs/staticcheck.md``:

* **Crossval goldens** — the 64-program mini-sweep's static-vs-dynamic
  confusion matrix is pinned exactly (semantic-diff style, like the Table 5
  goldens in test_difftest.py).  Zero soundness violations — a dynamically
  trapping cell predicted safe — is an acceptance invariant, not a target.

* **Totality** — the predictor is a *static* analyzer: it must return a
  verdict from the taxonomy for every generated program and every model,
  never raise, across the full scenario-template space (all 24 generator
  features, both pointer layouts via the seven-model sweep).  Tier-1 checks
  the 64-program mini-sweep and the 5000-program sweep.
"""

from __future__ import annotations

import pytest

from repro.difftest.generator import generate_program
from repro.difftest.oracle import cell_record, classify_results
from repro.difftest.output import sweep_meta
from repro.difftest.runner import DifferentialRunner
from repro.interp.models import PAPER_MODEL_ORDER
from repro.staticcheck import PREDICTION_CATEGORIES
from repro.staticcheck.crossval import (
    format_crossval,
    is_soundness_violation,
    prediction_matches,
    summarize_crossval,
)
from repro.staticcheck.predict import predict_source, predict_source_report

MINI_SWEEP_COUNT = 64

#: pinned (static prediction, dynamic oracle) -> count over the 64-program
#: mini-sweep, all seven models.  Every off-diagonal pair that appears is
#: itself meaningful: ``corrupt-possible``/``corrupt`` is the taxonomy's one
#: deliberate alias.  Re-pin only with a written justification for every
#: moved cell (a moved trap row means the *analyzer* changed its model of a
#: template, not just a count).
GOLDEN_CONFUSION = {
    ("agree", "agree"): 137,
    ("benign", "benign"): 1,
    ("corrupt-possible", "corrupt"): 3,
    ("trap:bounds", "trap:bounds"): 131,
    ("trap:permission", "trap:permission"): 12,
    ("trap:ptrdiff", "trap:ptrdiff"): 6,
    ("trap:tag", "trap:tag"): 107,
    ("trap:uaf", "trap:uaf"): 51,
}


@pytest.fixture(scope="module")
def crossval_records():
    runner = DifferentialRunner(analyze=False)
    records = []
    for index in range(MINI_SWEEP_COUNT):
        program = generate_program(0, index)
        result = runner.run_program(program)
        prediction = predict_source_report(program.source)
        records.append(cell_record(program, result,
                                   classify_results(result),
                                   static_prediction=prediction.verdicts))
    return records


@pytest.fixture(scope="module")
def crossval_summary(crossval_records):
    return summarize_crossval(crossval_records)


# ---------------------------------------------------------------------------
# Crossval goldens (mini-sweep)
# ---------------------------------------------------------------------------


def test_mini_sweep_confusion_matrix_is_golden(crossval_summary):
    actual = dict(crossval_summary.confusion)
    if actual != GOLDEN_CONFUSION:
        moved = {cell: (GOLDEN_CONFUSION.get(cell, 0), actual.get(cell, 0))
                 for cell in set(actual) | set(GOLDEN_CONFUSION)
                 if actual.get(cell, 0) != GOLDEN_CONFUSION.get(cell, 0)}
        pytest.fail(f"confusion cells moved (golden, actual): {moved}")


def test_mini_sweep_has_zero_soundness_violations(crossval_summary):
    # The acceptance invariant: no dynamically trapping cell may ever be
    # predicted definitely-safe.  An imprecise analyzer says "unknown" or a
    # conservative trap — never "agree" for a trap.
    assert crossval_summary.violations == []


def test_mini_sweep_per_model_agreement(crossval_summary):
    assert crossval_summary.per_model == {
        model: (MINI_SWEEP_COUNT, MINI_SWEEP_COUNT)
        for model in PAPER_MODEL_ORDER
    }


def test_mini_sweep_trap_precision_and_recall_are_total(crossval_summary):
    assert crossval_summary.trap_precision() == 1.0
    assert crossval_summary.trap_recall() == 1.0


def test_crossval_artifact_text_is_deterministic(crossval_records,
                                                 crossval_summary):
    # Predictions are a pure function of (seed, index, models, budget):
    # recomputing every static verdict from scratch must reproduce the
    # rendered artifact byte-for-byte (the CI smoke job asserts the same
    # property across two full process invocations).
    meta = sweep_meta(seed=0, count=MINI_SWEEP_COUNT,
                      models=PAPER_MODEL_ORDER, budget=200_000,
                      generator_version=2)
    first = format_crossval(crossval_summary, meta=meta)
    records = []
    for record in crossval_records:
        program = generate_program(0, record["index"])
        again = dict(record)
        again["static_prediction"] = predict_source(program.source)
        records.append(again)
    second = format_crossval(summarize_crossval(records), meta=meta)
    assert first == second


def test_match_and_violation_predicates():
    assert prediction_matches("agree", "agree")
    assert prediction_matches("corrupt-possible", "corrupt")
    assert not prediction_matches("corrupt-possible", "agree")
    assert not prediction_matches("agree", "trap:bounds")
    assert is_soundness_violation("agree", "trap:tag")
    assert is_soundness_violation("benign", "trap:bounds")
    assert not is_soundness_violation("unknown", "trap:bounds")
    assert not is_soundness_violation("trap:uaf", "trap:bounds")
    assert not is_soundness_violation("agree", "corrupt")


# ---------------------------------------------------------------------------
# Totality: the analyzer never raises, over the full template space
# ---------------------------------------------------------------------------

TOTALITY_CHUNK = 1250
TOTALITY_CHUNKS = 4

#: every feature tag the generator can emit; the mini-sweep and chunk 0
#: each cover all of them (asserted below), so template coverage cannot
#: silently rot.
ALL_GENERATOR_FEATURES = frozenset({
    "abi_assume", "arith", "container", "deconst", "gc_churn", "helper",
    "helper_oob", "int_arith", "int_roundtrip", "layout_probe", "loop",
    "mask", "memcpy_alias", "memcpy_self", "oob_read", "oob_write",
    "ptr_launder_copy", "qualified", "stack_escape", "string_ops",
    "subobject", "uaf", "union_pun", "wide",
})


def _assert_predictor_total(indices) -> set:
    """A verdict for every (program, model) cell, never an exception, walk
    step counts inside the budget mirror; returns the features seen."""
    seen_features = set()
    for index in indices:
        program = generate_program(0, index)
        seen_features.update(program.features)
        report = predict_source_report(program.source)
        assert set(report.verdicts) == set(PAPER_MODEL_ORDER), program.name
        for model, verdict in report.verdicts.items():
            assert verdict in PREDICTION_CATEGORIES, \
                (program.name, model, verdict)
        for layout, steps in report.steps.items():
            assert 0 <= steps <= 200_000, (program.name, layout, steps)
    return seen_features


def test_static_predictor_is_total_over_mini_sweep():
    """The tier-1 cut of the property: the 64-program mini-sweep already
    reaches every generator feature."""
    assert _assert_predictor_total(range(MINI_SWEEP_COUNT)) \
        == ALL_GENERATOR_FEATURES


@pytest.mark.parametrize("chunk", range(TOTALITY_CHUNKS))
def test_static_predictor_is_total_over_seeded_corpus(chunk):
    """5000 programs in 4 chunks."""
    seen_features = _assert_predictor_total(
        range(chunk * TOTALITY_CHUNK, (chunk + 1) * TOTALITY_CHUNK))
    if chunk == 0:
        assert seen_features == ALL_GENERATOR_FEATURES

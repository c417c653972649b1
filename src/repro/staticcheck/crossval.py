"""Static <-> dynamic cross-validation: matrix, metrics and record annotation.

The cross-validation contract: for every (program, model) cell the dynamic
oracle classified, the static predictor emits a verdict from
:data:`~repro.staticcheck.predict.PREDICTION_CATEGORIES`, and the pair is
tallied into a confusion matrix (rows: static prediction, columns: dynamic
oracle).  Two notions of correctness matter:

* **match** — the prediction equals the dynamic cell, with the single
  deliberate alias ``corrupt-possible`` ~ ``corrupt`` (the static taxonomy
  hedges the name, not the content);
* **soundness** — a dynamically trapping cell (``trap:*``) must never be
  predicted as definitely-safe (``agree`` / ``benign`` / ``escape``).
  Conservative answers (the same or another trap, ``corrupt-possible``,
  ``unknown``, ``budget``) keep the predictor sound even when imprecise.

Predictions are a pure function of ``(corpus seed, index, models, budget)``
— they are *recomputed* at artifact-build time rather than journaled, so
the parallel service, a resumed sweep and the serial sweep all produce
byte-identical annotations and matrices without any journal-format change.
Cells the service quarantined (``error:engine`` / ``error:timeout``) are
infrastructure outcomes with no dynamic verdict to validate against; they
appear in the matrix but are excluded from the match and soundness metrics.
"""

from __future__ import annotations

import time

from collections import Counter
from dataclasses import dataclass, field

from repro.difftest.generator import generate_program
from repro.staticcheck.predict import PREDICTION_CATEGORIES, predict_source
from repro.telemetry import metrics

#: canonical artifact name (mirrors output.MATRIX_NAME / CORPUS_NAME).
CROSSVAL_NAME = "staticcheck_crossval.txt"

#: predictions that assert the model definitely does not trap.
SAFE_PREDICTIONS = ("agree", "benign", "escape")

#: dynamic cells with no program-level verdict to validate against.
QUARANTINE_CELLS = ("error:engine", "error:timeout")


def prediction_matches(predicted: str, dynamic: str) -> bool:
    """Exact match, plus the deliberate corrupt-possible ~ corrupt alias."""
    return predicted == dynamic or (predicted == "corrupt-possible"
                                    and dynamic == "corrupt")


def is_soundness_violation(predicted: str, dynamic: str) -> bool:
    """A dynamically trapping cell predicted as definitely safe."""
    return dynamic.startswith("trap:") and predicted in SAFE_PREDICTIONS


def annotate_records(records, *, seed: int, models, budget: int,
                     say=None) -> None:
    """Attach ``static_prediction`` to every cell record, in place.

    Programs are regenerated from ``(seed, index)`` exactly like the
    reducer does — records carry no sources by design.
    """
    models = tuple(models)
    hist = metrics.histogram("stage.crossval")
    predicted_counter = metrics.counter("crossval.programs")
    for position, record in enumerate(records):
        program = generate_program(seed, record["index"])
        begin = time.perf_counter()
        record["static_prediction"] = predict_source(
            program.source, models=models, budget=budget)
        hist.observe(time.perf_counter() - begin)
        predicted_counter.inc()
        if say is not None and (position + 1) % 100 == 0:
            say(f"  statically predicted {position + 1}/{len(records)} programs")


@dataclass
class CrossvalSummary:
    """Everything the rendered matrix and the CI floor checks need."""

    #: (predicted, dynamic) -> count over all validated cells.
    confusion: Counter = field(default_factory=Counter)
    #: model -> (matched cells, validated cells).
    per_model: dict = field(default_factory=dict)
    #: programs whose record carried a static prediction.
    programs: int = 0
    #: cells excluded from metrics (service quarantine).
    quarantined: int = 0
    #: [(index, model, predicted, dynamic)] soundness violations.
    violations: list = field(default_factory=list)

    @property
    def cells(self) -> int:
        return sum(self.confusion.values())

    @property
    def matched(self) -> int:
        return sum(count for (predicted, dynamic), count
                   in self.confusion.items()
                   if prediction_matches(predicted, dynamic))

    def trap_metrics(self) -> dict:
        """Per-``trap:*`` category (plus the ``trap:*`` aggregate):
        ``{category: (predicted, dynamic, correct)}``."""
        predicted_totals: Counter = Counter()
        dynamic_totals: Counter = Counter()
        correct: Counter = Counter()
        for (predicted, dynamic), count in self.confusion.items():
            if predicted.startswith("trap:"):
                predicted_totals[predicted] += count
                predicted_totals["trap:*"] += count
            if dynamic.startswith("trap:"):
                dynamic_totals[dynamic] += count
                dynamic_totals["trap:*"] += count
            if predicted == dynamic and predicted.startswith("trap:"):
                correct[predicted] += count
                correct["trap:*"] += count
        return {category: (predicted_totals[category],
                           dynamic_totals[category], correct[category])
                for category in sorted(set(predicted_totals)
                                       | set(dynamic_totals))}

    def trap_precision(self) -> float | None:
        """Aggregate ``trap:*`` precision, or None with no trap predictions."""
        predicted, _, correct = self.trap_metrics().get("trap:*", (0, 0, 0))
        if not predicted:
            return None
        return correct / predicted

    def trap_recall(self) -> float | None:
        _, dynamic, correct = self.trap_metrics().get("trap:*", (0, 0, 0))
        if not dynamic:
            return None
        return correct / dynamic


def summarize_crossval(records) -> CrossvalSummary:
    """Tally annotated records (``classification`` x ``static_prediction``)."""
    summary = CrossvalSummary()
    for record in records:
        static_prediction = record.get("static_prediction")
        if static_prediction is None:
            continue
        summary.programs += 1
        for model, dynamic in record["classification"].items():
            predicted = static_prediction.get(model, "unknown")
            if dynamic in QUARANTINE_CELLS:
                summary.quarantined += 1
                continue
            summary.confusion[(predicted, dynamic)] += 1
            matched, total = summary.per_model.get(model, (0, 0))
            summary.per_model[model] = (
                matched + (1 if prediction_matches(predicted, dynamic) else 0),
                total + 1)
            if is_soundness_violation(predicted, dynamic):
                summary.violations.append(
                    (record["index"], model, predicted, dynamic))
    return summary


def _category_order(categories) -> list[str]:
    """Canonical-then-alphabetical order for matrix axes (deterministic for
    any category set, including future taxonomy growth)."""
    canonical = {name: position
                 for position, name in enumerate(PREDICTION_CATEGORIES)}
    extra = len(canonical)
    return sorted(categories,
                  key=lambda name: (canonical.get(name, extra), name))


def _percent(numerator: int, denominator: int) -> str:
    if not denominator:
        return "n/a"
    return f"{100.0 * numerator / denominator:.2f}%"


def format_crossval(summary: CrossvalSummary, *, meta: dict) -> str:
    """Render the deterministic ``staticcheck_crossval.txt`` artifact."""
    lines = ["# staticcheck cross-validation — static predictions vs "
             "dynamic oracle"]
    lines.append("# " + " ".join(
        f"{key}={','.join(map(str, value)) if isinstance(value, (list, tuple)) else value}"
        for key, value in sorted(meta.items())))
    lines.append(f"# programs={summary.programs} cells={summary.cells} "
                 f"matched={summary.matched} "
                 f"({_percent(summary.matched, summary.cells)})"
                 + (f" quarantined={summary.quarantined}"
                    if summary.quarantined else ""))
    lines.append(f"# soundness violations (trap predicted safe): "
                 f"{len(summary.violations)}")
    for index, model, predicted, dynamic in summary.violations[:20]:
        lines.append(f"#   program {index} model {model}: "
                     f"predicted {predicted}, dynamic {dynamic}")
    lines.append("")

    rows = _category_order({predicted for predicted, _ in summary.confusion})
    columns = _category_order({dynamic for _, dynamic in summary.confusion})
    label_width = max([len("predicted \\ dynamic")]
                      + [len(row) for row in rows])
    widths = [max(len(column), 5) for column in columns]
    lines.append("confusion matrix (rows: static prediction; columns: "
                 "dynamic oracle)")
    header = "predicted \\ dynamic".ljust(label_width)
    for column, width in zip(columns, widths):
        header += "  " + column.rjust(width)
    lines.append(header)
    for row in rows:
        text = row.ljust(label_width)
        for column, width in zip(columns, widths):
            count = summary.confusion.get((row, column), 0)
            text += "  " + (str(count) if count else ".").rjust(width)
        lines.append(text)
    lines.append("")

    lines.append("per-model agreement")
    for model in sorted(summary.per_model):
        matched, total = summary.per_model[model]
        lines.append(f"  {model:<12} {matched}/{total} "
                     f"({_percent(matched, total)})")
    lines.append("")

    lines.append("trap precision/recall")
    lines.append(f"  {'category':<18} {'predicted':>9} {'dynamic':>9} "
                 f"{'correct':>9} {'precision':>9} {'recall':>9}")
    for category, (predicted, dynamic, correct) \
            in summary.trap_metrics().items():
        lines.append(f"  {category:<18} {predicted:>9} {dynamic:>9} "
                     f"{correct:>9} {_percent(correct, predicted):>9} "
                     f"{_percent(correct, dynamic):>9}")
    return "\n".join(lines)

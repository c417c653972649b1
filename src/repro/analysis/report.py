"""Survey execution and table formatting (Table 1, and Table 5's matrix).

Table 1 is the paper's idiom survey over the synthetic corpus.  Table 5 is
this reproduction's extension of the paper's Table 3: instead of eight
hand-extracted idiom test cases, machine-generated programs from
:mod:`repro.difftest` are executed under every memory model and each
(program, model) outcome is classified against the PDP-11 baseline.  The
formatter lives here — next to the other report renderers — so the
differential subsystem stays a producer of plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.corpus import CorpusGenerator, PackageProfile
from repro.analysis.detector import analyze_source
from repro.analysis.idioms import PAPER_TABLE1, TABLE_IDIOMS, Idiom, PackageSurvey

_COLUMNS = ("DECONST", "CONTAINER", "SUB", "II", "INT", "IA", "MASK", "WIDE")


@dataclass
class SurveyRow:
    """Measured idiom counts for one synthetic package."""

    package: str
    counts: dict[Idiom, int] = field(default_factory=dict)
    expected: dict[Idiom, int] = field(default_factory=dict)
    lines_of_code: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def matches_expected(self) -> bool:
        """True when every measured count equals the planted count."""
        return all(self.counts.get(idiom, 0) == self.expected.get(idiom, 0)
                   for idiom in TABLE_IDIOMS)


def survey_corpus(*, idiom_scale: float = 0.1, loc_scale: float = 0.01,
                  packages: tuple[str, ...] | None = None) -> list[SurveyRow]:
    """Generate the synthetic corpus and run the detector over every package."""
    rows: list[SurveyRow] = []
    selected = {name for name in packages} if packages else None
    for paper in PAPER_TABLE1:
        if selected is not None and paper.package not in selected:
            continue
        profile = PackageProfile(name=paper.package, survey=paper,
                                 idiom_scale=idiom_scale, loc_scale=loc_scale)
        source = CorpusGenerator(profile).generate()
        analysis = analyze_source(source, pointer_bytes=8)
        row = SurveyRow(
            package=paper.package,
            counts={idiom: analysis.count(idiom) for idiom in TABLE_IDIOMS},
            expected={idiom: profile.scaled_count(idiom) for idiom in TABLE_IDIOMS},
            lines_of_code=analysis.lines_of_code,
        )
        rows.append(row)
    return rows


def format_table1(rows: list[SurveyRow], *, include_paper: bool = True) -> str:
    """Render the survey results in the layout of the paper's Table 1."""
    paper_by_name = {row.package: row for row in PAPER_TABLE1}
    header = f"{'PROGRAM':<14}" + "".join(f"{c:>10}" for c in _COLUMNS) + f"{'LOC':>10}"
    lines = [header, "-" * len(header)]
    totals = {idiom: 0 for idiom in TABLE_IDIOMS}
    paper_totals = {idiom: 0 for idiom in TABLE_IDIOMS}
    total_loc = 0
    for row in rows:
        measured = "".join(f"{row.counts.get(idiom, 0):>10}" for idiom in TABLE_IDIOMS)
        lines.append(f"{row.package:<14}{measured}{row.lines_of_code:>10}")
        if include_paper and row.package in paper_by_name:
            paper: PackageSurvey = paper_by_name[row.package]
            reference = "".join(f"{paper.count(idiom):>10}" for idiom in TABLE_IDIOMS)
            lines.append(f"{'  (paper)':<14}{reference}{paper.loc:>10}")
            for idiom in TABLE_IDIOMS:
                paper_totals[idiom] += paper.count(idiom)
        for idiom in TABLE_IDIOMS:
            totals[idiom] += row.counts.get(idiom, 0)
        total_loc += row.lines_of_code
    lines.append("-" * len(header))
    lines.append(f"{'TOTAL':<14}" + "".join(f"{totals[idiom]:>10}" for idiom in TABLE_IDIOMS)
                 + f"{total_loc:>10}")
    if include_paper:
        lines.append(f"{'TOTAL (paper)':<14}"
                     + "".join(f"{paper_totals[idiom]:>10}" for idiom in TABLE_IDIOMS)
                     + f"{sum(r.loc for r in PAPER_TABLE1):>10}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 5: the differential-execution matrix
# ---------------------------------------------------------------------------

#: compressed outcome letters for the per-feature breakdown.
_FEATURE_LETTER = {"agree": "A", "agree-trap": "A", "benign": "B", "corrupt": "C"}


def _letter(category: str) -> str:
    if category in _FEATURE_LETTER:
        return _FEATURE_LETTER[category]
    if category.startswith("trap:"):
        return "T"
    return "O"


def format_table5(summary: dict[str, dict[str, int]], features: dict, *,
                  meta: dict, category_order: tuple[str, ...]) -> str:
    """Render a differential sweep as the Table-5 matrix.

    ``summary`` is ``{model: {category: count}}``, ``features`` is
    ``{feature: {model: {category: count}}}`` (both as produced by
    :mod:`repro.difftest.oracle`); ``meta`` carries seed/count/budget and the
    model order of the sweep.  Only observed categories get columns, so the
    service-quarantine cells (``error:engine``/``error:timeout``) appear
    exactly when a sharded sweep actually quarantined a program — a
    fault-free matrix is rendered identically by serial and sharded runs.
    """
    models = list(meta.get("models") or summary)
    seen = {category for model in models for category in summary.get(model, {})}
    observed = [category for category in category_order if category in seen]
    # never silently drop a count: categories outside the canonical order
    # (future trap causes) are appended rather than hidden
    observed += sorted(seen.difference(category_order))
    count = meta.get("count", "?")
    lines = [
        f"Table 5: differential execution of {count} generated mini-C programs "
        f"under {len(models)} memory models",
        f"seed={meta.get('seed')}  budget={meta.get('budget')} instructions/run  "
        f"generator=v{meta.get('generator_version')}  baseline={meta.get('baseline', 'pdp11')}",
        "(each cell: programs whose outcome vs the baseline falls in the category)",
        "",
    ]
    labels = [category.replace("trap:", "t:") for category in observed]
    width = max([10] + [len(label) + 2 for label in labels])
    header = f"{'MODEL':<12}" + "".join(f"{label:>{width}}" for label in labels)
    lines.append(header)
    lines.append("-" * len(header))
    for model in models:
        row = summary.get(model, {})
        cells = "".join(f"{row.get(category, 0):>{width}}" for category in observed)
        lines.append(f"{model:<12}{cells}")
    lines.append("")
    lines.append("Outcome mix by generator feature "
                 "(A=agree, T=trap, C=silent-corruption, B=benign-difference, O=other):")
    lines.append("")
    rows: dict[str, list[str]] = {}
    for feature in sorted(features):
        cells = []
        for model in models:
            counts: dict[str, int] = {}
            for category, n in features[feature].get(model, {}).items():
                letter = _letter(category)
                counts[letter] = counts.get(letter, 0) + n
            cells.append("/".join(f"{counts[letter]}{letter}"
                                  for letter in ("A", "T", "C", "B", "O")
                                  if letter in counts))
        rows[feature] = cells
    widths = [max([len(model)] + [cells[i] and len(cells[i]) or 0
                                  for cells in rows.values()]) + 2
              for i, model in enumerate(models)]
    fheader = f"{'FEATURE':<18}" + "".join(f"{model:>{widths[i]}}"
                                           for i, model in enumerate(models))
    lines.append(fheader)
    lines.append("-" * len(fheader))
    for feature, cells in rows.items():
        lines.append(f"{feature:<18}" + "".join(f"{cell:>{widths[i]}}"
                                                for i, cell in enumerate(cells)))
    return "\n".join(lines)

"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  The
interesting quantity is almost always *simulated cycles* (the workloads run
on a simulated memory hierarchy), so each benchmark:

* runs the experiment exactly once via ``benchmark.pedantic`` (the runs are
  seconds long; statistical repetition happens inside the simulation), and
* writes the regenerated table to ``results/<experiment>.txt`` so the
  paper-vs-measured comparison is easy to archive (the files are committed,
  and an unchanged simulation leaves them byte-identical).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a regenerated table/figure and echo it to the captured log."""
    path = results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n==== {name} ====\n{text}\n")

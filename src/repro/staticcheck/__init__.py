"""Static memory-safety prediction for the difftest oracle.

``repro.staticcheck`` is the static half of the static<->dynamic
cross-validation story (see ``docs/staticcheck.md``): a flow-sensitive
abstract interpreter over the typed mini-C IR that predicts, per program and
per memory model, the verdict the dynamic 7-model oracle will reach —
without running the differential machines.

Package map:

* :mod:`repro.staticcheck.domain`  — the abstract value domain and the
  per-model walk outcome vocabulary;
* :mod:`repro.staticcheck.absint`  — the multi-model abstract walk (one
  shared store per pointer layout, per-model metadata planes);
* :mod:`repro.staticcheck.predict` — per-program verdict assembly in the
  oracle's taxonomy;
* :mod:`repro.staticcheck.crossval` — the static-vs-dynamic sweep, confusion
  matrix and corpus annotation used by ``scripts/run_staticcheck.py``.
"""

from repro.staticcheck.domain import Bail, ModelOutcome, WalkOutcome
from repro.staticcheck.predict import PREDICTION_CATEGORIES, predict_source

__all__ = [
    "Bail",
    "ModelOutcome",
    "WalkOutcome",
    "PREDICTION_CATEGORIES",
    "predict_source",
]

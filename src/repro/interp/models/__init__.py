"""Memory-model registry.

Each model is one interpretation of the C abstract machine's memory, in the
sense of Table 3 of the paper.  :func:`get_model` constructs a fresh model
instance by name; :data:`MODEL_REGISTRY` maps names to classes.
:func:`field_pointer` and :func:`qualifier_mask` are the machine semantics
that read a model's flags (see :mod:`repro.interp.models.base`).
"""

from __future__ import annotations

from repro.interp.models.base import MemoryModel, field_pointer, qualifier_mask
from repro.interp.models.pdp11 import Pdp11Model
from repro.interp.models.hardbound import HardBoundModel
from repro.interp.models.mpx import MpxModel
from repro.interp.models.relaxed import RelaxedModel
from repro.interp.models.strict import StrictModel
from repro.interp.models.cheri_v2 import CheriV2Model
from repro.interp.models.cheri_v3 import CheriV3Model

MODEL_REGISTRY: dict[str, type[MemoryModel]] = {
    Pdp11Model.name: Pdp11Model,
    HardBoundModel.name: HardBoundModel,
    MpxModel.name: MpxModel,
    RelaxedModel.name: RelaxedModel,
    StrictModel.name: StrictModel,
    CheriV2Model.name: CheriV2Model,
    CheriV3Model.name: CheriV3Model,
}

#: The order in which the paper's Table 3 lists the models.
PAPER_MODEL_ORDER = (
    "pdp11",
    "hardbound",
    "mpx",
    "relaxed",
    "strict",
    "cheri_v2",
    "cheri_v3",
)


def model_names() -> tuple[str, ...]:
    """All registered model names in the paper's presentation order."""
    return PAPER_MODEL_ORDER


def get_model(name: str, **kwargs) -> MemoryModel:
    """Instantiate a memory model by name (e.g. ``"cheri_v3"``)."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown memory model {name!r}; known models: {known}") from None
    return cls(**kwargs)


__all__ = [
    "MemoryModel",
    "Pdp11Model",
    "HardBoundModel",
    "MpxModel",
    "RelaxedModel",
    "StrictModel",
    "CheriV2Model",
    "CheriV3Model",
    "MODEL_REGISTRY",
    "PAPER_MODEL_ORDER",
    "model_names",
    "get_model",
    "field_pointer",
    "qualifier_mask",
]

"""Tier 0 against bound code.

A function runs in tier 0 (``interp/tier0.py``) — straight from its
predecode artifact, one generic operation and one charge per pc — until it
is promoted at its ``HOT_CALL_THRESHOLD``-th call or at the head of a loop
whose back edges one activation has taken ``HOT_LOOP_THRESHOLD`` times;
promotion binds it with its block plans installed and continues the same
frame in bound code.  These tests pin that the tiers are observationally
identical: the golden workloads under every tiering, and instruction
budgets that land inside tier 0, right around a back-edge promotion and
inside blocks, which must trap at the same instruction with the same text.
"""

from __future__ import annotations

import pytest

from repro.core.api import compile_for_model
from repro.interp import machine as machine_module
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER, get_model
from repro.interp.tier0 import ENGINE

from test_metrics_golden import GOLDEN, WORKLOADS
from test_predecode_cache import observables
from test_superinstructions import WORKLOADS as ENGINE_WORKLOADS

#: a promotion threshold no test run reaches.
NEVER = 1 << 62

#: (HOT_CALL_THRESHOLD, HOT_LOOP_THRESHOLD) per tiering.
TIERINGS = {
    "tier0_only": (NEVER, NEVER),
    "promote_at_first_call": (1, NEVER),
    "promote_at_first_back_edge": (NEVER, 1),
}


def set_thresholds(monkeypatch, calls: int, loops: int) -> None:
    monkeypatch.setattr(machine_module, "HOT_CALL_THRESHOLD", calls)
    monkeypatch.setattr(machine_module, "HOT_LOOP_THRESHOLD", loops)


@pytest.mark.parametrize("tiering", sorted(TIERINGS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_golden_metrics_hold_under_every_tiering(tiering: str, workload: str,
                                                 model: str, monkeypatch) -> None:
    set_thresholds(monkeypatch, *TIERINGS[tiering])
    resolved = get_model(model)
    machine = AbstractMachine(compile_for_model(WORKLOADS[workload](), resolved), resolved)
    observed = observables(machine.run())
    observed.pop("trap_text")
    assert observed == GOLDEN[f"{workload}/{model}"]
    if tiering == "tier0_only":
        assert not machine._code_cache, "tier 0 must bind nothing"


def _promotion_points(module, model) -> list[int]:
    """Instruction counts at which the tiered run promoted a function."""
    points: list[int] = []
    machine = AbstractMachine(module, get_model(model))
    original = machine_module.compile_function

    def recording(machine_, function):
        points.append(machine_.instructions)
        return original(machine_, function)

    machine_module.compile_function = recording
    try:
        machine.run()
    finally:
        machine_module.compile_function = original
    return points


@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_budget_exhaustion_matches_tier0_around_promotions(model: str, monkeypatch) -> None:
    """``scalar_loop`` under a low loop threshold: ``accumulate`` is
    promoted by a back edge in its first activation and ``main`` by its
    first loop.  Budgets spread over the run (in tier 0 and inside blocks)
    and at every instruction right around each promotion must trap exactly
    where the tier-0 reference engine traps."""
    module = compile_for_model(ENGINE_WORKLOADS["scalar_loop"], get_model(model))
    set_thresholds(monkeypatch, NEVER, NEVER)
    total = AbstractMachine(module, get_model(model)).run().instructions

    set_thresholds(monkeypatch, 4, 3)
    before = ENGINE.stats()
    points = _promotion_points(module, model)
    after = ENGINE.stats()
    # non-vacuity: both functions were promoted, at least one by a back edge
    assert len(points) == 2
    assert after["promoted.loop"] > before["promoted.loop"]

    budgets = set(range(1, total + 2, 41))
    for point in points:
        budgets.update(range(max(1, point - 3), point + 4))
    for budget in sorted(budgets):
        set_thresholds(monkeypatch, NEVER, NEVER)
        reference = AbstractMachine(module, get_model(model), max_instructions=budget).run()
        set_thresholds(monkeypatch, 4, 3)
        tiered = AbstractMachine(module, get_model(model), max_instructions=budget).run()
        assert observables(tiered) == observables(reference), budget
        if budget < total:
            assert "instruction budget" in str(reference.trap), budget


def test_tier0_binds_nothing_and_a_finished_run_unbinds_promoted_code(monkeypatch) -> None:
    """Tier 0 binds nothing; a promoted function's handlers (which close
    over the machine) are dropped when the run ends, and a second run on
    the same machine binds afresh."""
    source = ENGINE_WORKLOADS["scalar_loop"]
    model = get_model("cheri_v3")
    module = compile_for_model(source, model)
    set_thresholds(monkeypatch, NEVER, NEVER)
    cold = AbstractMachine(module, model)
    assert cold.run().exit_code == 0
    assert not cold._code_cache
    set_thresholds(monkeypatch, 2, NEVER)
    warm = AbstractMachine(module, get_model("cheri_v3"))
    first = warm.run()
    promoted = list(warm._code_cache.values())
    assert [code.function.name for code in promoted] == ["accumulate"]
    assert promoted[0].blocks and promoted[0].paired == []
    second = warm.run()
    assert second.output == first.output + first.output
    assert list(warm._code_cache.values()) != promoted  # bound afresh
    warm.release()
    assert not warm._code_cache


def test_hot_loop_after_a_nested_promotion_continues_in_the_bound_code(monkeypatch) -> None:
    """The outer tier-0 activation of a recursive function gets hot after
    a nested call promoted the function: it continues in that bound code,
    and the promotion is counted once."""
    source = r"""
    long walk(int depth) {
        long total = 0;
        int i;
        if (depth > 0) total = walk(depth - 1);
        for (i = 0; i < 100; i++) total += i;
        return total;
    }
    int main(void) { mini_output_int(walk(3)); return 0; }
    """
    module = compile_for_model(source, get_model("strict"))
    set_thresholds(monkeypatch, NEVER, NEVER)
    expected = observables(AbstractMachine(module, get_model("strict")).run())
    set_thresholds(monkeypatch, 2, 64)
    before = ENGINE.stats()
    machine = AbstractMachine(module, get_model("strict"))
    assert observables(machine.run()) == expected
    after = ENGINE.stats()
    assert after["promoted.call"] - before["promoted.call"] == 1
    assert after["promoted.loop"] == before["promoted.loop"]
    assert [code.function.name for code in machine._code_cache.values()] == ["walk"]

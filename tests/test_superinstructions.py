"""Engine-equivalence tests for basic-block superinstructions.

Block handlers batch instruction-count/cycle charges per charge group and
thread raw register values through generated locals.  These tests pin
that this is **observationally identical** to single-step dispatch — same
counters, output, traps — on every memory model, including the two places
where batching could plausibly diverge:

* a trap raised by a mid-block entry (a load/store/call/division charge
  point) must surface with the exact single-step counter values;
* instruction-budget exhaustion landing *inside* a block must trap at the
  same instruction, with the same counts, as the single-step loop (the
  generated handlers fall back to per-entry charge replay for this).

Blocks normally bind at a function's ``HOT_CALL_THRESHOLD``-th call, so a
``main`` that runs once would stay single-step and the comparison would be
vacuous; every test here lowers the threshold to 1 so every function binds.
"""

from __future__ import annotations

import pytest

from repro.core.api import compile_for_model
from repro.interp import machine as machine_module
from repro.interp import predecode
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER, get_model


@pytest.fixture(autouse=True)
def blocks_at_first_call(monkeypatch):
    """Every function binds its block plans on its first call."""
    monkeypatch.setattr(machine_module, "HOT_CALL_THRESHOLD", 1)

#: arithmetic + memory + calls + a trap under CHERIv2 (pointer subtraction).
WORKLOADS = {
    "scalar_loop": r"""
    int accumulate(int limit) {
        int total = 0;
        int i;
        for (i = 0; i < limit; i++) {
            total = total + (i ^ 3) * 2 - (i >> 1);
        }
        return total;
    }
    int main(void) {
        int buffer[16];
        int i;
        for (i = 0; i < 16; i++) { buffer[i] = accumulate(i + 4); }
        long sum = 0;
        for (i = 0; i < 16; i++) { sum = sum + buffer[i]; }
        mini_output_int(sum);
        return 0;
    }
    """,
    "sub_idiom": r"""
    int main(void) {
        int arr[8];
        int i;
        for (i = 0; i < 8; i++) { arr[i] = i * 3; }
        int *p = &arr[6];
        int *q = &arr[1];
        long d = p - q;
        mini_output_int(d);
        mini_output_int(arr[(int)d]);
        return 0;
    }
    """,
    "pointer_chase": r"""
    struct node { struct node *next; long value; };
    int main(void) {
        struct node nodes[10];
        int i;
        for (i = 0; i < 10; i++) {
            nodes[i].value = i * 7;
            nodes[i].next = i + 1 < 10 ? &nodes[i + 1] : 0;
        }
        long total = 0;
        struct node *cursor = &nodes[0];
        while (cursor) { total = total + cursor->value; cursor = cursor->next; }
        mini_output_int(total);
        return 0;
    }
    """,
}


def _run(source: str, model: str, *, blocks: bool, max_instructions: int = 10_000_000):
    predecode.SUPERINSTRUCTIONS = blocks
    try:
        module = compile_for_model(source, model)
        machine = AbstractMachine(module, get_model(model),
                                  max_instructions=max_instructions)
        result = machine.run()
    finally:
        predecode.SUPERINSTRUCTIONS = True
    return result, machine


def _observables(result) -> dict:
    return dict(
        instructions=result.instructions,
        cycles=result.cycles,
        memory_accesses=result.memory_accesses,
        allocations=result.allocations,
        output=bytes(result.output),
        exit_code=result.exit_code,
        trap_type=type(result.trap).__name__ if result.trap else None,
        trap_text=str(result.trap) if result.trap else None,
        checkpoints=result.checkpoints,
    )


@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_blocks_match_single_step(workload: str, model: str) -> None:
    source = WORKLOADS[workload]
    stepped, _ = _run(source, model, blocks=False)
    blocked, machine = _run(source, model, blocks=True)
    assert _observables(blocked) == _observables(stepped)
    # non-vacuity: the block engine actually compiled superinstructions
    assert any(code.blocks for code in machine._code_cache.values()), (
        "no superinstructions were installed; the equivalence test is vacuous")


@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_budget_exhaustion_inside_blocks_is_exact(model: str) -> None:
    """Budgets landing mid-block must trap at the single-step point."""
    source = WORKLOADS["scalar_loop"]
    full, _ = _run(source, model, blocks=False)
    total = full.instructions
    assert total > 100
    # Budgets spread across the run: most land inside some charge group.
    for budget in sorted({total // 7 * step + 3 for step in range(1, 7)}):
        stepped, _ = _run(source, model, blocks=False, max_instructions=budget)
        blocked, _ = _run(source, model, blocks=True, max_instructions=budget)
        assert _observables(blocked) == _observables(stepped), (
            f"budget {budget} diverged under model {model}")
        assert stepped.trap is not None  # the budget really was exhausted
        assert stepped.instructions == budget + 1


def test_frame_pool_releases_reset_frames() -> None:
    """Released frames are reset to the prototype with the alloca list kept."""
    source = WORKLOADS["scalar_loop"]
    result, machine = _run(source, "pdp11", blocks=True)
    assert result.exit_code == 0
    pooled = 0
    for code in machine._code_cache.values():
        for frame in code.pool:
            pooled += 1
            allocas = frame[1]
            reference = list(code.frame_proto)
            if allocas is not None:
                assert list(allocas) == [None] * code.nallocas
                reference[1] = allocas
            assert frame == reference
    assert pooled > 0  # completed calls actually released their frames

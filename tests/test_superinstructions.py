"""Engine-equivalence tests for basic-block superinstructions.

Block handlers batch instruction-count/cycle charges per charge group and
thread raw register values through generated locals.  These tests pin
that this is **observationally identical** to instruction-at-a-time
dispatch — same counters, output, traps — on every memory model.  The
reference is the tier-0 engine with promotion switched off
(``interp/tier0.py``: one generic operation and one charge per pc), and
the two places where batching could plausibly diverge are covered:

* a trap raised by a mid-block entry (a load/store/call/division charge
  point) must surface with the exact per-instruction counter values;
* instruction-budget exhaustion landing *inside* a block must trap at the
  same instruction, with the same counts, as the tier-0 loop (the
  generated handlers fall back to per-entry charge replay for this).

Functions are normally promoted to bound code with blocks at their
``HOT_CALL_THRESHOLD``-th call, so a ``main`` that runs once would stay in
tier 0 and the comparison would be vacuous; the block engine here lowers
the threshold to 1 so every function is promoted at its first call.
"""

from __future__ import annotations

import pytest

from repro.core.api import compile_for_model
from repro.interp import machine as machine_module
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER, get_model

#: a promotion threshold no test run reaches (the tier-0 reference engine).
NEVER = 1 << 62

#: arithmetic + memory + calls + a trap under CHERIv2 (pointer subtraction);
#: ``intptr_arith`` runs provenance-carrying boxed arithmetic and
#: pointer-pointer comparisons in a hot helper, and traps on its last call
#: under the models that reject a modified provenance.  ``generic_ops``
#: runs, in a helper called twice, the ops bound code takes from tier 0's
#: generic operations: an alloca re-executed in a loop, an inttoptr of a
#: non-null integer, a const-qualifying bitcast, intcasts of a
#: pointer-sized integer holding a pointer, a boxed unop, intrinsic calls
#: with results and pointer subtractions (last, so CHERIv2 traps after the
#: rest ran).  A pointer subtraction always writes a raw register from C
#: source: every temp has one writer.
WORKLOADS = {
    "generic_ops": r"""
    long probe(int *base, int n) {
        long total = 0;
        int i;
        for (i = 0; i < n; i++) {
            int cell[2];
            cell[0] = i;
            cell[1] = base[i];
            total = total + cell[0] * cell[1];
        }
        int *end = base + n;
        intptr_t bits = (intptr_t)end;
        int *back = (int *)(bits - 4);
        const int *view = (const int *)back;
        long wide = (long)bits;
        int narrow = (int)bits;
        long flip = -labs(total);
        long size = strlen("probe");
        if (view == &base[n - 1]) { total = total + 100; }
        if (wide != 0 && narrow != 0) { total = total + 1000; }
        long span = end - base;
        long gap = n > 1 ? end - &base[1] : labs(n);
        return total + flip + size + span + gap;
    }
    int main(void) {
        int data[6];
        int i;
        for (i = 0; i < 6; i++) { data[i] = i + 1; }
        long sum = probe(data, 6) + probe(&data[2], 3);
        mini_output_int(sum);
        return 0;
    }
    """,
    "intptr_arith": r"""
    long probe(int *base, int i, int last) {
        intptr_t bits = (intptr_t)&base[i];
        intptr_t aligned = (bits + 3) & ~(intptr_t)3;
        int *p = (int *)aligned;
        int *q = &base[i];
        long r = *(int *)bits;
        if (p < q) { r = r + 100; }
        if (p >= q) { r = r + 1000; }
        if (p == &base[last]) { r = r + 10000; }
        if (i == last) { r = r + *p; }
        return r;
    }
    int main(void) {
        int data[8];
        int i;
        for (i = 0; i < 8; i++) { data[i] = i * 5; }
        long total = 0;
        for (i = 0; i < 8; i++) { total = total + probe(data, i, 7); }
        mini_output_int(total);
        return 0;
    }
    """,
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
    """Run on the block engine (every function promoted at its first call)
    or on the tier-0 reference engine (nothing ever promoted)."""
    saved = machine_module.HOT_CALL_THRESHOLD, machine_module.HOT_LOOP_THRESHOLD
    machine_module.HOT_CALL_THRESHOLD = 1 if blocks else NEVER
    machine_module.HOT_LOOP_THRESHOLD = NEVER
    try:
        module = compile_for_model(source, model)
        machine = AbstractMachine(module, get_model(model),
                                  max_instructions=max_instructions)
        result = machine.run()
    finally:
        machine_module.HOT_CALL_THRESHOLD, machine_module.HOT_LOOP_THRESHOLD = saved
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
    expected, reference = _run(source, model, blocks=False)
    blocked, machine = _run(source, model, blocks=True)
    assert _observables(blocked) == _observables(expected)
    # non-vacuity: every function that ran was promoted, with its blocks
    # installed, on the block engine, and none on the reference engine
    promoted = {code.function.name for code in machine._code_cache.values()}
    assert "main" in promoted and promoted <= set(machine.module.functions)
    assert any(code.blocks for code in machine._code_cache.values()), (
        "no superinstructions were installed; the equivalence test is vacuous")
    assert not reference._code_cache


@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_budget_exhaustion_inside_blocks_is_exact(model: str) -> None:
    """Budgets landing mid-block must trap at the tier-0 point."""
    source = WORKLOADS["scalar_loop"]
    full, _ = _run(source, model, blocks=False)
    total = full.instructions
    assert total > 100
    # Budgets spread across the run: most land inside some charge group.
    for budget in sorted({total // 7 * step + 3 for step in range(1, 7)}):
        expected, _ = _run(source, model, blocks=False, max_instructions=budget)
        blocked, _ = _run(source, model, blocks=True, max_instructions=budget)
        assert _observables(blocked) == _observables(expected), (
            f"budget {budget} diverged under model {model}")
        assert expected.trap is not None  # the budget really was exhausted
        assert expected.instructions == budget + 1


def test_frame_pool_releases_reset_frames() -> None:
    """Released frames of promoted functions are reset to the prototype
    with the alloca list kept."""
    source = WORKLOADS["scalar_loop"]
    result, machine = _run(source, "pdp11", blocks=True)
    assert result.exit_code == 0
    assert {code.function.name for code in machine._code_cache.values()} == {
        "main", "accumulate"}
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

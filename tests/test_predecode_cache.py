"""Guardrails for the predecode-artifact cache and shared block binding.

Execution is split into a model-independent artifact (``interp/artifact.py``,
stored on the IR function it describes) that tier 0 runs directly, plus a
per-machine binding step (``interp/predecode.py::compile_function``) with
shared superinstruction plans, run only for functions promoted once hot.
These tests pin the three contracts that make the split safe:

* **observational identity** — the golden-metrics observables hold with
  every function block-bound, and every instruction budget traps exactly
  where the tier-0 reference engine (promotion switched off) traps, across
  all seven models;
* **the cache actually hits** — a differential mini-sweep reuses one
  artifact per (function, layout) across every model of that layout;
* **no cross-machine leakage** — two machines with different models bound
  against the same artifact produce exactly what they produce alone.
"""

from __future__ import annotations

import pytest

from repro.core.api import compile_for_model
from repro.difftest import DifferentialRunner, classify_sweep, generate_corpus, summarize
from repro.interp import machine as machine_module
from repro.interp.artifact import ARTIFACTS, get_artifact
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER, get_model
from repro.interp.tier0 import ENGINE, HOT_CALL_THRESHOLD, HOT_LOOP_THRESHOLD

from test_metrics_golden import GOLDEN, WORKLOADS


def observables(result) -> dict:
    return dict(
        instructions=result.instructions,
        cycles=result.cycles,
        memory_accesses=result.memory_accesses,
        allocations=result.allocations,
        output=result.output.decode("latin-1"),
        exit_code=result.exit_code,
        trap=type(result.trap).__name__ if result.trap else None,
        trap_text=str(result.trap) if result.trap else None,
        checkpoints=result.checkpoints,
    )


def run_source(source: str, model_name: str, **kwargs):
    model = get_model(model_name)
    module = compile_for_model(source, model)
    return AbstractMachine(module, model, **kwargs).run()


def run_tier0_only(module, model, **kwargs):
    """Run on the tier-0 reference engine (no function is ever promoted)."""
    saved = machine_module.HOT_CALL_THRESHOLD, machine_module.HOT_LOOP_THRESHOLD
    machine_module.HOT_CALL_THRESHOLD = machine_module.HOT_LOOP_THRESHOLD = 1 << 62
    try:
        return AbstractMachine(module, model, **kwargs).run()
    finally:
        machine_module.HOT_CALL_THRESHOLD, machine_module.HOT_LOOP_THRESHOLD = saved


# ---------------------------------------------------------------------------
# Observational identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_shared_blocks_match_golden_metrics(workload: str, model: str,
                                           monkeypatch) -> None:
    """The goldens hold verbatim with every function block-bound (same
    counters, output, traps, checkpoints).  ``test_metrics_golden`` runs
    tiered, where code that runs once stays in tier 0; promotion at the
    first call puts every function's body through the shared block
    plans."""
    monkeypatch.setattr(machine_module, "HOT_CALL_THRESHOLD", 1)
    expected = GOLDEN[f"{workload}/{model}"]
    observed = observables(run_source(WORKLOADS[workload](), model))
    observed.pop("trap_text")
    assert observed == expected


#: helper runs often enough to cross HOT_CALL_THRESHOLD, so the shared
#: block plans are exercised (not just tier 0).
HOT_SOURCE = r"""
int accumulate(int *p, int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) acc += p[i] * 2;
    return acc;
}

int main(void) {
    int data[6];
    int i;
    long total = 0;
    for (i = 0; i < 6; i++) data[i] = i * 5 - 3;
    for (i = 0; i < 8; i++) total += accumulate(data, 6);
    mini_checkpoint((int)total);
    mini_output_int(total);
    return (int)(total & 63);
}
"""


@pytest.mark.parametrize("model", PAPER_MODEL_ORDER)
def test_budget_exhaustion_identical_in_both_modes(model: str, monkeypatch) -> None:
    """Budgets landing at *every* point of the program — including inside
    block-bound code, mid-charge-group, where a batched charge must be
    replayed one entry at a time — must trap with the tier-0 reference
    engine's counters."""
    from repro.difftest import generate_program

    source = generate_program(7, 3).source
    resolved = get_model(model)
    module = compile_for_model(source, resolved)
    full = AbstractMachine(module, get_model(model)).run().instructions
    # exhaustive on three distinct binding shapes (pdp11's check policy
    # without shadow, strict's base check with shadow, cheri_v2's
    # model-specific pointer moves on the 32-byte layout); strided
    # elsewhere to keep tier-1 fast.  Every function is promoted at its
    # first call, so one-shot code is block-bound too.
    stride = 1 if model in ("pdp11", "strict", "cheri_v2") else 7
    with monkeypatch.context() as patch:
        patch.setattr(machine_module, "HOT_CALL_THRESHOLD", 1)
        for budget in range(1, full + 2, stride):
            stepped = run_tier0_only(module, get_model(model), max_instructions=budget)
            blocked = AbstractMachine(module, get_model(model),
                                      max_instructions=budget).run()
            assert observables(stepped) == observables(blocked), budget

    # and the hot-helper case under tiered execution: the trap lands inside
    # block plans bound mid-run
    hot_full = run_source(HOT_SOURCE, model)
    budget = hot_full.instructions // 2
    stepped = run_tier0_only(compile_for_model(HOT_SOURCE, resolved), get_model(model),
                             max_instructions=budget)
    blocked = run_source(HOT_SOURCE, model, max_instructions=budget)
    assert observables(stepped) == observables(blocked)
    assert blocked.trap is not None and "instruction budget" in str(blocked.trap)


def test_hot_functions_get_blocks_and_cold_ones_do_not() -> None:
    """The helper called 8 times is promoted by its calls, with its blocks
    installed at once; ``main`` runs once and its loops (14 back edges) stay
    below the loop threshold, so it never leaves tier 0."""
    assert HOT_CALL_THRESHOLD <= 8 and HOT_LOOP_THRESHOLD > 14
    model = get_model("pdp11")
    module = compile_for_model(HOT_SOURCE, model)
    machine = AbstractMachine(module, model)
    before = ENGINE.stats()
    machine.run()
    after = ENGINE.stats()
    by_name = {code.function.name: code
               for code in machine._code_cache.values()}
    assert set(by_name) == {"accumulate"}, "main ran once: it stays in tier 0"
    helper = by_name["accumulate"]
    assert helper.blocks, "hot helper should have bound its shared block plans"
    assert after["promoted.call"] - before["promoted.call"] == 1
    assert after["promoted.loop"] == before["promoted.loop"]
    assert after["pcs_bound"] - before["pcs_bound"] == helper.size


def test_hot_loop_promotes_a_function_that_runs_once() -> None:
    """A ``main`` that runs once but drives a long loop is promoted at the
    loop head and finishes in bound code."""
    source = r"""
    int main(void) {
        int i;
        long total = 0;
        for (i = 0; i < 500; i++) total += i * 3;
        mini_output_int(total);
        return 0;
    }
    """
    model = get_model("pdp11")
    machine = AbstractMachine(compile_for_model(source, model), model)
    before = ENGINE.stats()["promoted.loop"]
    result = machine.run()
    assert result.output_text() == f"{sum(i * 3 for i in range(500))}\n"
    assert ENGINE.stats()["promoted.loop"] == before + 1
    (main,) = machine._code_cache.values()
    assert main.function.name == "main" and main.blocks


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


def test_artifact_cache_hits_across_the_model_replay() -> None:
    """One program, seven models: every model of a layout binds the same
    artifact, so the replay is all hits after the first machine per layout."""
    ARTIFACTS.clear()
    runner = DifferentialRunner(analyze=False)
    result = runner.run_source(HOT_SOURCE)
    assert not result.compile_errors and len(result.results) == 7
    stats = ARTIFACTS.stats()
    # 2 layouts x (accumulate, main): 4 misses; the other machines hit.
    assert stats["misses"] == 4
    # 5 models share the 8-byte artifacts, 2 share the capability ones:
    # (5-1)*2 + (2-1)*2 = 10 hits at minimum (reruns only add more).
    assert stats["hits"] >= 10


def test_hot_function_binds_one_plan_set_per_layout() -> None:
    """All seven models over one module per pointer layout: the hot
    ``accumulate`` holds one shared block-plan set per layout, whatever each
    model's pointer-move policy."""
    layouts: dict[tuple[int, int], list[str]] = {}
    for name in PAPER_MODEL_ORDER:
        model = get_model(name)
        layouts.setdefault((model.pointer_bytes, model.pointer_align), []).append(name)
    assert sorted(len(names) for names in layouts.values()) == [2, 5]
    for names in layouts.values():
        module = compile_for_model(HOT_SOURCE, get_model(names[0]))
        for name in names:
            assert not AbstractMachine(module, get_model(name)).run().trapped, name
        plans = module.functions["accumulate"]._artifact._plans
        assert len(plans) == 1, (names, sorted(plans))


def test_mini_sweep_with_cold_and_warm_cache_classifies_identically() -> None:
    programs = generate_corpus(7, 6)
    runner = DifferentialRunner(analyze=False)
    ARTIFACTS.clear()
    cold = summarize(classify_sweep(runner.sweep(programs)))
    hits_after_cold = ARTIFACTS.stats()["hits"]
    warm = summarize(classify_sweep(runner.sweep(programs)))
    assert cold == warm
    assert hits_after_cold > 0


def test_artifact_identity_is_verified_not_assumed() -> None:
    """An artifact is only ever reused by the very function it lives on."""
    model = get_model("pdp11")
    module = compile_for_model(HOT_SOURCE, model)
    function = module.functions["accumulate"]
    first = get_artifact(function, module.context)
    assert get_artifact(function, module.context) is first
    other_module = compile_for_model(HOT_SOURCE, model)
    other = get_artifact(other_module.functions["accumulate"], other_module.context)
    assert other is not first


# ---------------------------------------------------------------------------
# Cross-machine isolation
# ---------------------------------------------------------------------------


def test_no_cross_machine_state_leakage() -> None:
    """Two machines with *different models* bound against the same shared
    artifacts, run interleaved, behave exactly like solo runs."""
    source = WORKLOADS["sub_idiom"]()
    solo = {name: observables(run_source(source, name))
            for name in ("pdp11", "strict", "cheri_v2")}

    # Interleaved: one module per layout, machines sharing artifacts.
    module8 = compile_for_model(source, get_model("pdp11"))
    module32 = compile_for_model(source, get_model("cheri_v2"))
    machines = {
        "pdp11": AbstractMachine(module8, get_model("pdp11")),
        "strict": AbstractMachine(module8, get_model("strict")),
        "cheri_v2": AbstractMachine(module32, get_model("cheri_v2")),
    }
    interleaved = {name: observables(machine.run())
                   for name, machine in machines.items()}
    assert interleaved == solo
    # and running a second strict machine against the now-warm artifacts
    # still reproduces the solo observables
    again = run_source(source, "strict")
    assert observables(again) == solo["strict"]


def test_reoptimizing_a_function_invalidates_its_artifact() -> None:
    """In-place optimizer passes bump Function.mutations (via
    invalidate_label_index), which the cache verifies on every hit."""
    from repro.minic.optimizer import optimize_module

    model = get_model("pdp11")
    module = compile_for_model(HOT_SOURCE, model)
    function = module.functions["main"]
    before = get_artifact(function, module.context)
    optimize_module(module)  # mutates in place even when nothing folds anew
    after = get_artifact(function, module.context)
    assert after is not before

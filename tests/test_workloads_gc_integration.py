"""Workload correctness (at reduced scale), the garbage collector, and
whole-system integration tests."""

from __future__ import annotations

import pytest

from repro.core import run_under_model
from repro.core.api import compile_for_model
from repro.gc import CapabilityGarbageCollector
from repro.interp import AbstractMachine, get_model
from repro.interp.models import field_pointer
from repro.workloads import dhrystone, tcpdump, zlib_like
from repro.workloads.harness import run_workload
from repro.workloads.olden import bisort, mst, perimeter, treeadd

SMALL = {"treeadd": dict(depth=5, passes=2), "bisort": dict(count=48),
         "mst": dict(vertices=20), "perimeter": dict(depth=3)}


class TestOldenKernels:
    @pytest.mark.parametrize("model", ["pdp11", "cheri_v2", "cheri_v3"])
    def test_treeadd(self, model):
        run = treeadd.run(model, **SMALL["treeadd"])
        assert run.ok and run.result.exit_code == 0
        assert run.result.checkpoints == [2 * 31]  # passes * nodes

    @pytest.mark.parametrize("model", ["pdp11", "cheri_v2", "cheri_v3"])
    def test_bisort(self, model):
        run = bisort.run(model, **SMALL["bisort"])
        assert run.ok and run.result.exit_code == 0

    @pytest.mark.parametrize("model", ["pdp11", "cheri_v2", "cheri_v3"])
    def test_mst(self, model):
        run = mst.run(model, **SMALL["mst"])
        assert run.ok and run.result.exit_code == 0
        assert run.result.checkpoints[0] > 0

    @pytest.mark.parametrize("model", ["pdp11", "cheri_v2", "cheri_v3"])
    def test_perimeter(self, model):
        run = perimeter.run(model, **SMALL["perimeter"])
        assert run.ok and run.result.exit_code == 0

    def test_results_identical_across_models(self):
        """Functional behaviour must not depend on the memory model."""
        for module, params in ((treeadd, SMALL["treeadd"]), (mst, SMALL["mst"])):
            checkpoints = {model: module.run(model, **params).result.checkpoints
                           for model in ("pdp11", "cheri_v3")}
            assert checkpoints["pdp11"] == checkpoints["cheri_v3"]

    def test_capability_runs_cost_at_least_as_much(self):
        baseline = treeadd.run("pdp11", depth=7, passes=2)
        capability = treeadd.run("cheri_v3", depth=7, passes=2)
        assert capability.cycles >= baseline.cycles
        assert capability.instructions == baseline.instructions


class TestDhrystoneAndTcpdump:
    def test_dhrystone_self_check(self):
        run = dhrystone.run("pdp11", runs=20)
        assert run.ok and run.result.exit_code == 0
        assert dhrystone.dhrystones_per_second(run, runs=20) > 0

    def test_dhrystone_capability_parity(self):
        a = dhrystone.run("pdp11", runs=30)
        b = dhrystone.run("cheri_v3", runs=30)
        assert abs(b.overhead_vs(a)) < 0.10

    def test_tcpdump_baseline_parses_all_packets(self):
        run = tcpdump.run("pdp11", packets=25)
        assert run.ok and run.result.exit_code == 0
        assert run.result.checkpoints[0] == 25

    def test_tcpdump_cheri_v2_port_matches_baseline_counts(self):
        baseline = tcpdump.run("pdp11", packets=25)
        ported = tcpdump.run("cheri_v2", packets=25)
        assert ported.result.checkpoints == baseline.result.checkpoints

    def test_tcpdump_baseline_source_breaks_on_cheri_v2(self):
        """The unported dissector relies on pointer subtraction, which the
        CHERIv2 model cannot express — this is exactly why the paper's port
        needed ~1.6 kLoC of changes."""
        from repro.common.errors import InterpreterError

        with pytest.raises(InterpreterError):
            run_workload("tcpdump-unported", tcpdump.baseline_source(packets=5), "cheri_v2")

    def test_malicious_truncated_packet_is_contained_by_cheri(self):
        """A dissector missing one bounds check reads past the packet: the
        PDP-11 model silently reads adjacent memory, CHERIv3 traps."""
        source = """
        unsigned char packet[16];
        int parse(const unsigned char *p, long length) {
            /* BUG: no check that length >= 20 */
            return p[18];
        }
        int main(void) {
            unsigned char *heap_packet = (unsigned char *)malloc(16);
            long i;
            for (i = 0; i < 16; i++) heap_packet[i] = (unsigned char)i;
            return parse(heap_packet, 16);
        }
        """
        assert not run_under_model(source, "pdp11").trapped
        assert run_under_model(source, "cheri_v3").trapped


class TestZlib:
    def test_round_trip_annotated(self):
        run = zlib_like.run("pdp11", file_bytes=256)
        assert run.ok and run.result.exit_code == 0
        compressed = run.result.checkpoints[0]
        # the naive LZ77 format can expand incompressible small inputs, but
        # never beyond 2 bytes per literal
        assert 0 < compressed <= 2 * 256

    def test_round_trip_copying_abi(self):
        run = zlib_like.run("cheri_v3", file_bytes=256, copying=True)
        assert run.ok and run.result.exit_code == 0

    def test_copying_abi_produces_identical_output(self):
        annotated = zlib_like.run("cheri_v3", file_bytes=256)
        copying = zlib_like.run("cheri_v3", file_bytes=256, copying=True)
        assert annotated.result.checkpoints == copying.result.checkpoints

    def test_copying_abi_costs_more(self):
        annotated = zlib_like.run("cheri_v3", file_bytes=256)
        copying = zlib_like.run("cheri_v3", file_bytes=256, copying=True)
        assert copying.cycles > annotated.cycles


class TestGarbageCollector:
    def _machine_with_garbage(self):
        source = """
        struct node { struct node *next; long value; };
        struct node *retained;
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) {
                struct node *fresh = (struct node *)malloc(sizeof(struct node));
                fresh->value = i;
                fresh->next = 0;
                if (i % 2 == 0) {
                    fresh->next = retained;
                    retained = fresh;          /* reachable from a global */
                }                              /* odd nodes become garbage */
            }
            return 0;
        }
        """
        model = get_model("cheri_v3")
        module = compile_for_model(source, model)
        machine = AbstractMachine(module, model)
        result = machine.run()
        assert result.exit_code == 0
        return machine

    def test_collects_only_unreachable_objects(self):
        machine = self._machine_with_garbage()
        collector = CapabilityGarbageCollector(machine)
        stats = collector.collect()
        assert stats.swept_objects == 5
        assert stats.live_objects == 5

    def test_collection_is_idempotent(self):
        machine = self._machine_with_garbage()
        collector = CapabilityGarbageCollector(machine)
        collector.collect()
        again = collector.collect()
        assert again.swept_objects == 0

    def test_relocation_preserves_list_contents(self):
        machine = self._machine_with_garbage()
        collector = CapabilityGarbageCollector(machine)
        stats = collector.collect(relocate=True)
        assert stats.relocated_objects == 5
        assert stats.rewritten_references >= 5
        # Walk the relocated list through the machine's own loads: the values
        # 8, 6, 4, 2, 0 must still be reachable through rewritten capabilities.
        cursor = machine.globals_value("retained") if hasattr(machine, "globals_value") else None
        values = []
        pointer = machine._load_scalar(machine.globals["retained"],
                                       machine.module.globals["retained"].ctype)
        while not pointer.is_null:
            node_type = machine.module.globals["retained"].ctype.pointee
            value_field = node_type.field_named("value", machine.ctx)
            next_field = node_type.field_named("next", machine.ctx)
            value_ptr = field_pointer(machine.model, pointer, value_field.offset, 8)
            values.append(machine._load_scalar(value_ptr, value_field.ctype).value)
            next_ptr = field_pointer(machine.model, pointer, next_field.offset,
                                     machine.model.pointer_bytes)
            pointer = machine._load_scalar(next_ptr, next_field.ctype)
        assert values == [8, 6, 4, 2, 0]

    def test_requires_tagged_model(self):
        from repro.common.errors import InterpreterError

        model = get_model("pdp11")
        module = compile_for_model("int main(void){return 0;}", model)
        machine = AbstractMachine(module, model)
        machine.run()
        with pytest.raises(InterpreterError):
            CapabilityGarbageCollector(machine)

    def test_integer_hoarding_does_not_retain_under_precise_gc(self):
        """§3.6: with tags, an address hidden in a plain integer does not keep
        the object alive (unlike a conservative collector)."""
        source = """
        long stash;
        int main(void) {
            int *p = (int *)malloc(sizeof(int));
            *p = 1;
            stash = (long)p;      /* plain integer: no capability stored */
            return 0;
        }
        """
        model = get_model("cheri_v3")
        module = compile_for_model(source, model)
        machine = AbstractMachine(module, model)
        assert machine.run().exit_code == 0
        stats = CapabilityGarbageCollector(machine).collect()
        assert stats.swept_objects == 1


class TestEndToEndScenarios:
    def test_same_program_timed_under_all_models(self):
        source = """
        int main(void) {
            long total = 0;
            long i;
            long *data = (long *)malloc(sizeof(long) * 64);
            for (i = 0; i < 64; i++) data[i] = i;
            for (i = 0; i < 64; i++) total += data[i];
            return total == 2016 ? 0 : 1;
        }
        """
        for model in ("pdp11", "hardbound", "mpx", "relaxed", "strict", "cheri_v2", "cheri_v3"):
            result = run_under_model(source, model)
            assert not result.trapped and result.exit_code == 0, model
            assert result.cycles > 0

    def test_isa_and_interpreter_agree_on_capability_semantics(self):
        """The ISA simulator and the abstract machine enforce the same rule:
        an out-of-bounds store through a 64-byte capability traps."""
        from repro.isa.assembler import Assembler
        from repro.sim.cpu import CheriCpu

        asm_state = CheriCpu(Assembler().assemble("""
        .text
        li $t0, 64
        csetbounds $c1, $c0, $t0
        li $t1, 80
        csetoffset $c1, $c1, $t1
        csb $t0, 0, $c1
        """)).run()
        assert asm_state.memory_safety_violation is not None

        c_result = run_under_model(
            "int main(void){ char *p = (char *)malloc(64); p[80] = 1; return 0; }",
            "cheri_v3",
        )
        assert c_result.trapped

    def test_documented_quickstart_example_runs(self):
        from repro import MemorySafeMachine

        machine = MemorySafeMachine(model="cheri_v3")
        result = machine.run("int main(void) { return 0; }")
        assert result.ok

"""Reproduction of "Beyond the PDP-11: Architectural Support for a Memory-Safe
C Abstract Machine" (Chisnall et al., ASPLOS 2015).

The package is organised as the paper's system is:

* :mod:`repro.minic` — a C front end producing a typed IR;
* :mod:`repro.interp` — the abstract-machine interpreter with pluggable
  memory models (PDP-11, HardBound, MPX, Relaxed, Strict, CHERIv2, CHERIv3);
* :mod:`repro.isa` / :mod:`repro.sim` — the capability model, tagged memory
  and cache timing model, plus the CHERI-MIPS instruction subset and CPU that
  run the Table 2 validation program;
* :mod:`repro.analysis` — the pointer-idiom survey tooling (Table 1);
* :mod:`repro.core` — the public API, idiom test cases, compatibility matrix
  (Table 3) and porting analysis (Table 4);
* :mod:`repro.workloads` — Olden, Dhrystone, tcpdump-style and zlib-style
  workloads (Figures 1-4);
* :mod:`repro.gc` — the tag-precise relocating garbage collector (§4.2).

Quick start::

    from repro.core import MemorySafeMachine

    machine = MemorySafeMachine(model="cheri_v3")
    result = machine.run('int main(void) { return 0; }')
    assert result.ok
"""

__version__ = "1.0.0"

from repro.core.api import MemorySafeMachine, run_under_model

__all__ = ["MemorySafeMachine", "run_under_model", "__version__"]

#!/usr/bin/env python3
"""Precise, relocating garbage collection on top of capability tags (§4.2).

The program builds a linked structure, deliberately leaks half of its
allocations, and hides one pointer inside a plain integer.  The collector
then shows the two properties the paper attributes to tagged capabilities:

* collection is *precise*: the pointer hidden in an integer does not keep its
  object alive (a conservative collector would hoard it, §3.6);
* collection can *relocate*: surviving objects are moved and every capability
  that referred to them — including ones stored inside other objects — is
  rewritten, which is impossible if addresses can hide in integers.
"""

from repro.core.api import compile_for_model
from repro.gc import CapabilityGarbageCollector
from repro.interp import AbstractMachine, get_model
from repro.interp.models import field_pointer

PROGRAM = r"""
struct node { struct node *next; long value; };

struct node *keep_list;     /* reachable root */
long hidden_address;        /* a pointer laundered into a plain integer */

int main(void) {
    int i;
    for (i = 0; i < 8; i++) {
        struct node *fresh = (struct node *)malloc(sizeof(struct node));
        fresh->value = i * 100;
        fresh->next = 0;
        if (i % 2 == 0) {
            fresh->next = keep_list;
            keep_list = fresh;                 /* kept alive via the global */
        } else if (i == 1) {
            hidden_address = (long)fresh;      /* only an integer remembers it */
        }                                      /* the rest are plain garbage */
    }
    return 0;
}
"""


def main() -> None:
    model = get_model("cheri_v3")
    machine = AbstractMachine(compile_for_model(PROGRAM, model), model)
    result = machine.run()
    assert result.exit_code == 0

    collector = CapabilityGarbageCollector(machine)
    live_before = machine.allocator.live_heap_bytes()
    stats = collector.collect(relocate=True)
    live_after = machine.allocator.live_heap_bytes()

    print(f"heap before collection : {live_before} bytes in 8 allocations")
    print(f"swept                  : {stats.swept_objects} objects "
          f"({stats.swept_bytes} bytes) — including the one hidden in an integer")
    print(f"survivors relocated    : {stats.relocated_objects} objects, "
          f"{stats.rewritten_references} capabilities rewritten")
    print(f"heap after collection  : {live_after} bytes")

    # Walk the relocated list through the machine to prove the rewritten
    # capabilities still lead to the right values.
    node_type = machine.module.globals["keep_list"].ctype.pointee
    value_field = node_type.field_named("value", machine.ctx)
    next_field = node_type.field_named("next", machine.ctx)
    pointer = machine._load_scalar(machine.globals["keep_list"],
                                   machine.module.globals["keep_list"].ctype)
    values = []
    while not pointer.is_null:
        value_ptr = field_pointer(machine.model, pointer, value_field.offset, 8)
        values.append(machine._load_scalar(value_ptr, value_field.ctype).value)
        next_ptr = field_pointer(machine.model, pointer, next_field.offset,
                                 machine.model.pointer_bytes)
        pointer = machine._load_scalar(next_ptr, next_field.ctype)
    print(f"list walked after move : {values}")


if __name__ == "__main__":
    main()

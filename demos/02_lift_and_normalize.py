#!/usr/bin/env python3
"""Lift stack bytecode to register IR and normalize compiler differences.

The same source logic is emitted twice the way two different compilers
would: opposite branch polarity, different local slots, nop padding.
After normalization both variants print byte-identical IR.
"""

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class
from jarscan.classfile.model import resolved_code
from jarscan.ir import dump, lift
from jarscan.normalize import normalize

VARIANT_A = [
    "iload_0", ("push_int", 10), ("if_icmpge", "BIG"),
    ("push_int", 1), "istore_1", ("goto", "DONE"),
    "BIG:", ("push_int", 2), "istore_1",
    "DONE:", "iload_1", "ireturn",
]

# Same function, other compiler: flipped comparison, arms swapped,
# a different local slot, and some nop padding.
VARIANT_B = [
    "nop", "iload_0", ("push_int", 10), ("if_icmplt", "SMALL"),
    ("push_int", 2), ("istore", 2), ("goto", "DONE"), "nop",
    "SMALL:", ("push_int", 1), ("istore", 2),
    "DONE:", ("iload", 2), "nop", "ireturn",
]


def lift_variant(code):
    model = ClassModel("demo.V", methods=[MethodModel("f", "(I)I", 0x09, code=code)])
    cf = parse_class(emit_class(model))
    return lift(resolved_code(cf.methods[0], cf.constant_pool))


for name, code in (("variant A", VARIANT_A), ("variant B", VARIANT_B)):
    ir = lift_variant(code)
    print(f"--- {name}: lifted ---")
    print(dump(ir))

norm_a = normalize(lift_variant(VARIANT_A))
norm_b = normalize(lift_variant(VARIANT_B))
print("--- normalized (both variants) ---")
print(dump(norm_a))
print("normalized IR identical:", dump(norm_a) == dump(norm_b))

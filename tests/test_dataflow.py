"""Reaching definitions and control dependence against brute-force oracles."""

import random

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class
from jarscan.classfile.model import resolved_code
from jarscan.ir import (
    build_cfg,
    control_dependent_blocks,
    dependencies,
    lift,
    postdominators,
    reaching_data_edges,
)
from oracles import (
    brute_control_deps,
    brute_postdominators,
    brute_reaching_edges,
    node_sets,
)
from randgen import random_method_ir


def lift_method(code, desc="(I)I"):
    model = ClassModel("t.T", methods=[MethodModel("f", desc, 0x09, code=code)])
    cf = parse_class(emit_class(model))
    ir = lift(resolved_code(cf.methods[0], cf.constant_pool))
    return ir, build_cfg(ir)


def test_single_def_single_use():
    ir, cfg = lift_method(["iconst_1", "ireturn"], desc="()I")
    uses, _ = dependencies(ir, cfg)
    ((u, reg, defs),) = uses
    assert u == 1 and defs == 1 << 0


def test_diamond_redefinition_yields_two_edges():
    ir, cfg = lift_method([
        "iload_0", ("ifeq", "Z"),
        ("push_int", 5), ("goto", "M"),
        "Z:", ("push_int", 9),
        "M:", "ireturn"])
    uses, _ = dependencies(ir, cfg)
    ret = len(ir.statements) - 1
    [join_defs] = [defs for u, r, defs in uses if u == ret and r.startswith("j")]
    assert join_defs.bit_count() == 2


def test_if_arm_statements_control_dependent_on_branch():
    ir, cfg = lift_method([
        "iload_0", ("ifeq", "SKIP"),
        ("push_int", 1), ("istore", 1),
        "SKIP:", "iload_0", "ireturn"])
    _, ctrl = dependencies(ir, cfg)
    branch_index = next(i for i, s in enumerate(ir.statements)
                        if type(s).__name__ == "Branch")
    # Bit b is block b: the arm (block 1) depends on the branch, the exit
    # (block 2) does not.
    assert ctrl[branch_index] >> 1 & 1
    assert not ctrl[branch_index] >> 2 & 1


def test_loop_self_dependence():
    ir, cfg = lift_method([
        "iconst_0", "istore_1",
        "H:", "iload_1", "iload_0", ("if_icmpge", "OUT"),
        ("iinc", 1, 1), ("goto", "H"),
        "OUT:", "iload_1", "ireturn"])
    uses, _ = dependencies(ir, cfg)
    iinc_index = next(i for i, s in enumerate(ir.statements)
                      if type(s).__name__ == "Assign"
                      and type(s.expr).__name__ == "Bin")
    # The increment's definition flows around the loop into its own use.
    assert any(u == iinc_index and defs >> iinc_index & 1 for u, _, defs in uses)


def test_random_cfgs_match_brute_force_small():
    rng = random.Random(7)
    for _ in range(60):
        ir = random_method_ir(rng, max_blocks=8)
        cfg = build_cfg(ir)
        assert reaching_data_edges(ir, cfg) == brute_reaching_edges(ir, cfg)
        assert node_sets(postdominators(cfg)) == brute_postdominators(cfg)
        assert control_dependent_blocks(cfg) == brute_control_deps(cfg)


def test_lifted_methods_match_brute_force():
    rng = random.Random(31)
    from randgen import assemble_method, random_int_method
    for _ in range(25):
        code = random_int_method(rng, params=2, segments=rng.randint(2, 7))
        cf, method = assemble_method(code)
        ir = lift(resolved_code(method, cf.constant_pool))
        cfg = build_cfg(ir)
        assert reaching_data_edges(ir, cfg) == brute_reaching_edges(ir, cfg)
        assert node_sets(postdominators(cfg)) == brute_postdominators(cfg)

"""Normalization: idempotence, compiler-variant convergence, semantics."""

import random

import pytest

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class
from jarscan.classfile.model import resolved_code
from jarscan.ir import dump, lift
from jarscan.ir.model import Assign, Bin, Block, Caught, Concat, DynInvoke, MethodIr, Return
from jarscan.normalize import normalize
from ir_interp import run_ir
from oracle_interp import run_bytecode
from randgen import assemble_method, random_int_method


def lift_code(code, desc="(I)I", handlers=()):
    model = ClassModel("t.T", methods=[MethodModel("f", desc, 0x09, code=code,
                                                   handlers=list(handlers))])
    cf = parse_class(emit_class(model))
    return lift(resolved_code(cf.methods[0], cf.constant_pool))


# Pairs that different compilation environments produce for the same source.
VARIANT_PAIRS = {
    "slot-permutation": (
        ["iload_0", "istore_1", ("push_int", 9), ("istore", 2),
         "iload_1", ("iload", 2), "iadd", "ireturn"],
        ["iload_0", ("istore", 2), ("push_int", 9), "istore_1",
         ("iload", 2), "iload_1", "iadd", "ireturn"],
    ),
    "branch-polarity": (
        ["iload_0", ("push_int", 10), ("if_icmpge", "L"),
         ("push_int", 1), ("goto", "M"),
         "L:", ("push_int", 2),
         "M:", "ireturn"],
        ["iload_0", ("push_int", 10), ("if_icmplt", "L"),
         ("push_int", 2), ("goto", "M"),
         "L:", ("push_int", 1),
         "M:", "ireturn"],
    ),
    "redundant-goto": (
        ["iload_0", ("ifne", "A"), ("goto", "HOP"),
         "A:", ("push_int", 3), "ireturn",
         "HOP:", ("goto", "B"),
         "B:", ("push_int", 4), "ireturn"],
        ["iload_0", ("ifne", "A"), ("goto", "B"),
         "A:", ("push_int", 3), "ireturn",
         "B:", ("push_int", 4), "ireturn"],
    ),
    "nop-padding": (
        ["nop", "iload_0", "nop", "nop", "iconst_2", "imul", "nop", "ireturn"],
        ["iload_0", "iconst_2", "imul", "ireturn"],
    ),
    "constant-forms": (
        [("push_int", 1), "iload_0", "iadd", "ireturn"],       # iconst_1
        [("ldc_int", 1), "iload_0", "iadd", "ireturn"],        # ldc
    ),
    "duplicate-returns": (
        ["iload_0", ("ifeq", "A"), "iload_0", ("ifgt", "B"),
         ("push_int", 7), "ireturn",
         "A:", ("push_int", 7), "ireturn",
         "B:", ("push_int", 7), "ireturn"],
        ["iload_0", ("ifeq", "A"), "iload_0", ("ifgt", "A"),
         ("push_int", 7), "ireturn",
         "A:", ("push_int", 7), "ireturn"],
    ),
}


def test_variant_pairs_converge():
    for name, (a, b) in VARIANT_PAIRS.items():
        na = normalize(lift_code(a))
        nb = normalize(lift_code(b))
        assert dump(na) == dump(nb), f"{name} variants did not converge"


def test_variant_pairs_preserve_semantics():
    rng = random.Random(17)
    for name, (a, b) in VARIANT_PAIRS.items():
        ra, rb = lift_code(a), lift_code(b)
        na, nb = normalize(ra), normalize(rb)
        for _ in range(25):
            x = rng.randint(-500, 500)
            results = {run_ir(ir, [x]) for ir in (ra, rb, na, nb)}
            assert len(results) == 1, f"{name} diverged on input {x}"


def test_idempotence_on_fixtures():
    for a, b in VARIANT_PAIRS.values():
        for code in (a, b):
            n1 = normalize(lift_code(code))
            n2 = normalize(n1)
            assert dump(n1) == dump(n2)


def test_idempotence_on_random_methods():
    rng = random.Random(404)
    for _ in range(30):
        code = random_int_method(rng, params=2, segments=rng.randint(1, 8))
        cf, method = assemble_method(code)
        ir = lift(resolved_code(method, cf.constant_pool))
        n1 = normalize(ir)
        assert dump(normalize(n1)) == dump(n1)


def test_normalization_preserves_semantics_random():
    rng = random.Random(777)
    checked = 0
    for _ in range(25):
        params = rng.randint(1, 3)
        code = random_int_method(rng, params=params, segments=rng.randint(2, 8))
        cf, method = assemble_method(code, params=params)
        ir = lift(resolved_code(method, cf.constant_pool))
        n = normalize(ir)
        for _ in range(8):
            args = [rng.randint(-999, 999) for _ in range(params)]
            expected = run_bytecode(method.code, args)
            assert run_ir(n, args) == expected
            checked += 1
    assert checked == 200


def starts_with_caught(ir, bid: int) -> bool:
    """Whether block ``bid`` of ``ir`` opens with a ``caught`` statement."""
    block = ir.blocks[bid]
    first = ir.statements[block.start] if block.end > block.start else None
    return isinstance(first, Assign) and isinstance(first.expr, Caught)


@pytest.mark.parametrize("hop", [True, False])
def test_handler_table_follows_dropped_blocks(hop):
    # The try range ends with a nop-only block, which nop elimination
    # empties: the block after it must not become covered. With ``hop``
    # the try body is entered through a goto-only block, which jump
    # threading drops although it is numbered below the handler head.
    entry = ["iload_0", ("ifeq", "HOP"), "iconst_0", "ireturn", "HOP:", ("goto", "TRY")]
    if not hop:
        entry = ["iload_0", ("ifeq", "TRY"), "iconst_0", "ireturn"]
    code = [*entry,
            "TRY:", ("push_int", 100), "iload_0", "idiv", "istore_1", ("goto", "PAD"),
            "PAD:", "nop",
            "END:", "iload_1", "ireturn",
            "H:", "pop", "iconst_m1", "istore_1", ("goto", "END")]
    ir = lift_code(code, handlers=[("TRY", "END", "H", "java.lang.ArithmeticException")])
    n = normalize(ir)
    [(head, _catch)] = n.handlers
    [covered] = n.covered_blocks()
    assert starts_with_caught(n, head)
    divides = {b.bid for b in n.blocks
               if any(isinstance(s, Assign) and isinstance(s.expr, Bin)
                      and s.expr.op == "div" for s in n.statements[b.start:b.end])}
    assert set(covered) == divides and len(divides) == 1
    assert dump(normalize(n)) == dump(n)


def test_builder_chain_rewrites_to_concat():
    code = [
        ("new", "java.lang.StringBuilder"),
        "dup",
        ("invokespecial", "java.lang.StringBuilder", "<init>", "()V"),
        ("ldc_string", "id="),
        ("invokevirtual", "java.lang.StringBuilder", "append",
         "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
        ("aload", 0),
        ("invokevirtual", "java.lang.StringBuilder", "append",
         "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
        ("invokevirtual", "java.lang.StringBuilder", "toString",
         "()Ljava/lang/String;"),
        "areturn",
    ]
    ir = lift_code(code, desc="(Ljava/lang/String;)Ljava/lang/String;")
    n = normalize(ir)
    concats = [s for s in n.statements
               if isinstance(s, Assign) and isinstance(s.expr, Concat)]
    assert len(concats) == 1
    assert len(concats[0].expr.args) == 2
    assert not any("StringBuilder" in dump(n).splitlines()[i]
                   for i in range(len(dump(n).splitlines())))


def test_indirect_concat_factory_rewrites_to_concat():
    statements = [
        DynInvoke(result="t0", name="makeConcatWithConstants",
                  desc="(Ljava/lang/String;)Ljava/lang/String;", args=("p0",)),
        Return("t0", "ref"),
    ]
    ir = MethodIr(params=(("p0", "ref"),), is_static=True,
                  statements=statements, blocks=[Block(0, 0, 2)], handlers=())
    n = normalize(ir)
    concats = [s for s in n.statements
               if isinstance(s, Assign) and isinstance(s.expr, Concat)]
    assert len(concats) == 1


def test_partial_builder_chain_left_alone():
    # The builder escapes through a second use; no rewrite may happen.
    code = [
        ("new", "java.lang.StringBuilder"),
        "dup",
        ("invokespecial", "java.lang.StringBuilder", "<init>", "()V"),
        "dup",
        ("astore", 1),
        ("invokevirtual", "java.lang.StringBuilder", "toString",
         "()Ljava/lang/String;"),
        "areturn",
    ]
    ir = lift_code(code, desc="()Ljava/lang/String;")
    n = normalize(ir)
    assert not any(isinstance(s, Assign) and isinstance(s.expr, Concat)
                   for s in n.statements)


def test_builder_chains_in_two_blocks_feeding_each_other():
    # The first chain's toString result is appended into a second chain in
    # another block; the expected dump is the one normalize gave when it
    # recounted uses on every pass.
    sb = "java.lang.StringBuilder"
    append = ("invokevirtual", sb, "append",
              "(Ljava/lang/String;)Ljava/lang/StringBuilder;")
    chain_start = [("new", sb), "dup", ("invokespecial", sb, "<init>", "()V")]
    to_string = ("invokevirtual", sb, "toString", "()Ljava/lang/String;")
    code = [
        *chain_start, ("ldc_string", "a="), append, ("aload", 0), append,
        to_string, ("astore", 2),
        ("iload", 1), ("ifeq", "L"),
        *chain_start, ("aload", 2), append, ("ldc_string", "!"), append,
        to_string, "areturn",
        "L:", ("aload", 2), "areturn",
    ]
    ir = lift_code(code, desc="(Ljava/lang/String;I)Ljava/lang/String;")
    assert dump(normalize(ir)) == "\n".join([
        "params(p0:ref, p1:int) static",
        "B0:",
        '  0: v0 := asgn const string:"a="',
        "  1: v1 := asgn concat(v0, p0)",
        "  2: v2 := asgn copy v1",
        "  3: if_eq_int(p1, int:0) -> B1, B2",
        "B1:",
        '  4: v3 := asgn const string:"!"',
        "  5: v4 := asgn concat(v2, v3)",
        "  6: return_ref(v4)",
        "B2:",
        "  7: return_ref(v2)",
        "",
    ])

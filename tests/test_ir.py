"""Lifting, CFG construction and the semantic oracle."""

import inspect
import random

import pytest

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class, parse_jar
from jarscan.classfile.model import resolved_code
from jarscan.errors import (InconsistentStackDepthAtJoin, LiftError, StackUnderflow,
                            UnsupportedInstruction)
from jarscan.ir import ENTRY, EXIT, build_cfg, dump, lift, model
from jarscan.ir.model import (ArrayGet, ArrayPut, Assign, Bin, Branch, Cast, Caught, CmpExpr,
                              Concat, Const, Copy, DynInvoke, FieldGet, FieldPut, Goto,
                              InstOf, Invoke, Lit, Monitor, NewArr, NewObj, Nop, Return,
                              Switch, Throw, Un, stmt_def, stmt_uses)
from jarscan.normalize import _map_registers, normalize
from ir_interp import run_ir
from oracle_interp import run_bytecode, w32
from randgen import assemble_method, random_int_method, random_ref_jar


def lift_method(code, desc="(I)I", handlers=None, static=True,
                max_stack=None, max_locals=None):
    model = ClassModel("t.T", methods=[
        MethodModel("f", desc, 0x09 if static else 0x01, code=code,
                    handlers=handlers or [], max_stack=max_stack,
                    max_locals=max_locals)])
    cf = parse_class(emit_class(model))
    return lift(resolved_code(cf.methods[0], cf.constant_pool)), cf


# ----------------------------------------------------------------- examples

def test_lift_constant_return():
    ir, _ = lift_method(["iconst_1", "ireturn"], desc="()I")
    assert len(ir.statements) == 2
    assign, ret = ir.statements
    assert isinstance(assign, Assign) and assign.expr == Const(1, "int")
    assert isinstance(ret, Return) and ret.value == assign.target


def test_lift_param_addition():
    ir, _ = lift_method(["iload_0", "iload_1", "iadd", "ireturn"], desc="(II)I")
    assert [r for r, _t in ir.params] == ["p0", "p1"]
    assign, ret = ir.statements
    assert assign.expr == Bin("add", "int", "p0", "p1")
    assert ret.value == assign.target


def test_lift_if_else_value_joins_in_one_register():
    ir, _ = lift_method([
        "iload_0", ("ifeq", "Z"),
        ("push_int", 5), ("goto", "M"),
        "Z:", ("push_int", 9),
        "M:", "ireturn"])
    join_defs = [s.target for s in ir.statements
                 if isinstance(s, Assign) and s.target.startswith("j")]
    assert len(join_defs) == 2
    assert len(set(join_defs)) == 1
    ret = ir.statements[-1]
    assert isinstance(ret, Return) and ret.value == join_defs[0]


def test_lift_receiver_and_this():
    ir, _ = lift_method([("aload", 0), "areturn"], desc="()Ljava/lang/Object;",
                        static=False)
    assert ir.params[0] == ("p0", "ref")
    assert ir.statements[-1].value == "p0"


def test_lift_rejects_jsr():
    with pytest.raises(UnsupportedInstruction):
        lift_method([("jsr", "S"), "return", "S:", ("astore", 1), ("ret", 1)],
                    desc="()V")


def test_lift_stack_underflow():
    with pytest.raises(StackUnderflow):
        lift_method(["pop", "return"], desc="()V", max_stack=2, max_locals=2)


def test_lift_inconsistent_join_depth():
    # One path brings a value to M, the other does not.
    with pytest.raises(InconsistentStackDepthAtJoin):
        lift_method([
            "iload_0", ("ifeq", "A"),
            ("push_int", 1), ("goto", "M"),
            "A:", ("goto", "M"),
            "M:", "ireturn"], max_stack=2, max_locals=2)


def test_lift_dead_code_dropped():
    ir, _ = lift_method([
        ("goto", "END"),
        ("push_int", 42), "ireturn",   # unreachable
        "END:", "iload_0", "ireturn"])
    after_throw, _ = lift_method([
        "aload_0", "athrow",
        ("push_int", 42), "ireturn"], desc="(Ljava/lang/Throwable;)I")   # unreachable
    for lifted in (ir, after_throw):
        consts = [s for s in lifted.statements
                  if isinstance(s, Assign) and s.expr == Const(42, "int")]
        assert consts == []


def test_lift_category_2_locals():
    ir, cf = lift_method([
        ("dload", 0), ("dstore", 2), "lconst_1", ("lstore", 4),
        "dload_2", "dreturn"], desc="(D)D")
    code = cf.methods[0].code
    assert (code.max_stack, code.max_locals) == (2, 6)
    assert ir.statements[-1] == Return("l2", "double")


def test_lift_deterministic():
    rng = random.Random(5)
    for _ in range(10):
        code = random_int_method(rng, params=2, segments=6)
        cf, method = assemble_method(code)
        a = lift(resolved_code(method, cf.constant_pool))
        b = lift(resolved_code(method, cf.constant_pool))
        assert dump(a) == dump(b)


def test_local_spilled_before_store():
    # The first iload_0 leaves p0 on the stack; istore_0 must not clobber
    # the pending value.
    ir, _ = lift_method([
        "iload_0", "iload_0", "iconst_1", "iadd", "istore_0",
        "iload_0", "iadd", "ireturn"])
    assert run_ir(ir, [10]) == 21  # 10 + (10 + 1)


def test_iinc_spills_stack_copies():
    ir, _ = lift_method(["iload_0", ("iinc", 0, 5), "iload_0", "iadd", "ireturn"])
    assert run_ir(ir, [7]) == 19  # 7 + 12


# --------------------------------------------------------------------- CFG

def test_cfg_straight_line():
    ir, _ = lift_method(["iconst_1", "ireturn"], desc="()I")
    cfg = build_cfg(ir)
    edges = {(n, s) for n in cfg.nodes for s in cfg.successors(n)}
    assert edges == {(ENTRY, 0), (0, EXIT)}
    assert {(p, n) for n in cfg.nodes for p in cfg.predecessors(n)} == edges


def test_cfg_diamond():
    ir, _ = lift_method([
        "iload_0", ("ifeq", "Z"),
        ("push_int", 5), ("goto", "M"),
        "Z:", ("push_int", 9),
        "M:", "ireturn"])
    cfg = build_cfg(ir)
    assert len(cfg.block_nodes()) == 4
    assert set(cfg.successors(0)) == {1, 2}
    assert cfg.successors(1) == [3]
    assert cfg.successors(2) == [3]
    assert cfg.successors(3) == [EXIT]


def test_cfg_loop_with_two_exits():
    ir, _ = lift_method([
        "iconst_0", "istore_1",
        "H:", "iload_1", "iload_0", ("if_icmpge", "OUT"),
        "iload_1", ("push_int", 100), ("if_icmpgt", "OUT2"),
        ("iinc", 1, 3), ("goto", "H"),
        "OUT:", "iload_1", "ireturn",
        "OUT2:", "iload_1", "ineg", "ireturn"])
    cfg = build_cfg(ir)
    succ = {n: cfg.successors(n) for n in cfg.block_nodes()}
    # Back edge exists.
    back_edges = [(a, b) for a, bs in succ.items() for b in bs if b <= a and b != EXIT]
    assert back_edges
    # Both returns reach EXIT: enumerate all simple paths from entry.
    exits = set()
    stack = [(0, {0})]
    while stack:
        node, seen = stack.pop()
        for s in cfg.successors(node):
            if s == EXIT:
                exits.add(node)
            elif s not in seen:
                stack.append((s, seen | {s}))
    assert len(exits) == 2


def test_cfg_exception_edges_cover_all_protected_blocks():
    ir, _ = lift_method(
        ["TRY:", "iload_0", ("ifeq", "MID"), "iconst_1", "istore_1",
         "MID:", "iload_0", "istore_1", "CATCH_END:", "iload_1", "ireturn",
         "H:", ("astore", 2), "iconst_m1", "ireturn"],
        handlers=[("TRY", "CATCH_END", "H", "java.lang.Exception")])
    cfg = build_cfg(ir)
    [(head, _catch)] = ir.handlers
    [covered] = ir.covered_blocks()
    assert all(head in cfg.successors(b) for b in covered)
    assert cfg.predecessors(head) == sorted(covered)
    assert len(covered) >= 2


# ------------------------------------------------------------ semantic oracle

def test_interpreters_agree_on_random_methods():
    rng = random.Random(2024)
    cases = 0
    for _ in range(40):
        params = rng.randint(1, 3)
        code = random_int_method(rng, params=params, segments=rng.randint(2, 8))
        cf, method = assemble_method(code, params=params)
        ir = lift(resolved_code(method, cf.constant_pool))
        for _ in range(5):
            args = [rng.randint(-1000, 1000) for _ in range(params)]
            expected = run_bytecode(method.code, args)
            assert run_ir(ir, args) == expected
            cases += 1
    assert cases == 200


def test_wrap32_matches_reference():
    for x in (0, 1, -1, 2**31 - 1, -2**31, 2**31, 2**33 + 17):
        from ir_interp import wrap32
        assert wrap32(x) == w32(x)


# ------------------------------------------------------------ operand protocol

_NODES = [c for c in vars(model).values()
          if isinstance(c, type) and issubclass(c, model.Node) and c is not model.Node]

# One of each node, with registers, Lits and absent operands.
_EXAMPLES = [
    Assign("t0", Const(3, "int")), Assign("t1", Copy("p0")),
    Assign("t2", Bin("add", "int", "t0", Lit(1, "int"))), Assign("t3", Un("neg_int", "t2")),
    Assign("t4", CmpExpr("lcmp", "p0", "p1")),
    Assign("t5", FieldGet("a.B", "f", "int", "p0")), Assign("t6", FieldGet("a.B", "s", "int", None)),
    Assign("t7", ArrayGet("int", "p0", "t0")), Assign("t8", NewObj("a.B")),
    Assign("t9", NewArr("int[][]", ("t0", Lit(2, "int")))), Assign("t10", Cast("a.B", "p0")),
    Assign("t11", InstOf("a.B", "p0")), Assign("t12", Caught(None)),
    Assign("t13", Concat(("p0", Lit("x", "string"), "t1"))),
    Invoke("t14", "virtual", "a.B", "m", "(I)I", ("p0", "t0")),
    Invoke(None, "static", "a.B", "n", "()V", ()),
    DynInvoke("t15", "makeConcatWithConstants", "(I)Ljava/lang/String;", ("t0",)),
    FieldPut("a.B", "f", "int", "p0", "t0"), FieldPut("a.B", "s", "int", None, Lit(0, "int")),
    ArrayPut("int", "p0", Lit(0, "int"), "t0"),
    Branch("eq", "ref", ("p0", Lit(None, "ref")), 2, 1), Goto(3),
    Switch("t0", ((1, 2), (5, 3)), 1), Return("t0", "int"), Return(),
    Throw("p0"), Monitor("enter", "p0"), Nop(),
]


def test_every_node_declares_its_operands():
    """Each expression and statement class names its fields, in constructor
    order, and its operand fields, in field order, and the statements that
    define a register name it."""
    assert len(_NODES) == 25
    assert {type(n) for n in _EXAMPLES} | {type(n.expr) for n in _EXAMPLES
                                          if isinstance(n, Assign)} == set(_NODES)
    for cls in _NODES:
        assert "OPERANDS" in vars(cls) and "__slots__" in vars(cls), cls
        fields = list(cls.__slots__)
        assert list(inspect.signature(cls).parameters) == fields, cls
        assert [f for f in fields if f in cls.OPERANDS] == list(cls.OPERANDS), cls
        assert cls.DEFINES in (None, *fields), cls
    assert {c for c in _NODES if c.DEFINES} == {Assign, Invoke, DynInvoke}


def _lifted_and_normalized(corpus) -> list:
    """The statements of every liftable method of the corpus and of seeded
    random classes, as lifted and after normalization."""
    classes = [parse_class(data) for cve in corpus.cve_ids
               for side in (corpus.pre_classes, corpus.post_classes)
               for _name, data in side[cve]]
    rng = random.Random(11)
    for _ in range(6):
        classes.extend(parse_jar(random_ref_jar(rng)).class_files())
        classes.append(assemble_method(random_int_method(rng))[0])
    out = []
    for cf in classes:
        for m in cf.methods:
            if m.code is None:
                continue
            try:
                ir = lift(resolved_code(m, cf.constant_pool))
            except LiftError:
                continue
            out += ir.statements + normalize(ir).statements
    return out


def test_register_renaming_follows_uses_and_defs(corpus):
    """Renaming every register renames exactly the registers stmt_uses
    and stmt_def report, in the same order; the identity rebuilds the
    statement unchanged."""
    statements = _EXAMPLES + _lifted_and_normalized(corpus)
    assert len(statements) > 2000
    prime = lambda r: r + "'"
    for s in statements:
        assert _map_registers(s, lambda r: r) == s
        renamed = _map_registers(s, prime)
        assert stmt_uses(renamed) == [prime(r) for r in stmt_uses(s)], s
        d = stmt_def(s)
        assert stmt_def(renamed) == (None if d is None else prime(d)), s

"""The successor-list CFG, the bitset dependence analysis, the
label-grouped CPG, linear jump threading and the one-scan concat rewrite
against the versions they replaced, kept in tests/reference_stages.py.

The two normalize passes are compared by running ``normalize`` with the
references swapped in, so that changes to the other passes move both
sides alike. Every normalized method is also checked to compare only
with eq, lt and le, and ``compare_jdk_methods`` returns the methods whose
dump a second normalize changes. It is also run over every java.xml and
java.sql method by CI.
"""

from __future__ import annotations

import random
import sys
import zipfile

import pytest

import reference_stages as ref
from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class, parse_jar
from jarscan.classfile.model import resolved_code
from jarscan.cpg import build_cpg, extract_triplets
from jarscan.errors import LiftError
from jarscan.ir import build_cfg, dependencies, lift, postdominators
from jarscan.ir.model import Assign, Concat, dump
from jarscan.normalize import normalize
from oracles import node_sets
from randgen import assemble_method, random_int_method, random_method_ir
from test_classfile import _jdk_jmod
from test_dataflow import control_dependent_blocks, reaching_data_edges
from test_normalize import ORIENTED, branch_ops

_normalize_module = sys.modules[normalize.__module__]


def normalize_with_reference_passes(ir):
    passes = ("_rewrite_concat", "_thread_jumps")
    saved = [getattr(_normalize_module, name) for name in passes]
    for name in passes:
        setattr(_normalize_module, name, getattr(ref, name))
    try:
        return normalize(ir)
    finally:
        for name, f in zip(passes, saved):
            setattr(_normalize_module, name, f)


def assert_cfg_matches(ir, where):
    """The CFG of ``ir`` against the reference, node by node; returns it.
    The brute-force oracles in tests/oracles.py read the CFG as their
    input, so only this comparison can catch a wrong one."""
    cfg, want = build_cfg(ir), ref.build_cfg(ir)
    assert cfg.nodes == want.nodes, where
    for n in want.nodes:
        assert cfg.successors(n) == want.successors(n), (where, n)
        assert cfg.predecessors(n) == want.predecessors(n), (where, n)
    return cfg


def assert_dependences_match(ir, where) -> None:
    """The CFG, dependences and the triplet set of ``ir``, against the
    reference."""
    cfg = assert_cfg_matches(ir, where)
    assert reaching_data_edges(ir, cfg) == ref.reaching_data_edges(ir, cfg), where
    pdom = postdominators(cfg)
    assert node_sets(pdom) == ref.postdominators(cfg), where
    assert control_dependent_blocks(cfg, pdom) == ref.control_dependent_blocks(cfg), where
    assert extract_triplets(build_cpg(ir, cfg, dependencies(ir, cfg))) \
        == ref.extract_triplets(ref.build_cpg(ir, cfg, ref.dependencies(ir, cfg))), where


def assert_lifted_matches(ir, where):
    """Normalize both ways and compare the CFG, dependences and triplets
    before and after, and check that every conditional in the normalized
    IR compares with eq, lt or le; returns the normalized IR."""
    n = normalize(ir)
    assert dump(n) == dump(normalize_with_reference_passes(ir)), where
    assert branch_ops(n) <= ORIENTED, where
    assert_dependences_match(ir, where)
    assert_dependences_match(n, where)
    return n


def concat_count(ir) -> int:
    return sum(isinstance(s, Assign) and isinstance(s.expr, Concat) for s in ir.statements)


def compare_jdk_methods(jmod, sample: int | None = None,
                        seed: int = 0) -> tuple[int, int, list[str]]:
    """Check every method that lifts in the classes of ``jmod``, or in
    ``sample`` of them drawn with ``random.Random(seed)``; the first
    difference fails, naming the method. Returns the number of methods
    checked, the number of concat expressions they normalize to, and the
    methods (``Class.name`` and descriptor) whose dump a second normalize
    changes."""
    methods = concats = 0
    unstable: list[str] = []
    with zipfile.ZipFile(jmod) as zf:     # a jmod is a zip behind a 4-byte header
        names = sorted(n for n in zf.namelist() if n.endswith(".class"))
        if sample is not None:
            names = random.Random(seed).sample(names, sample)
        for name in names:
            cf = parse_class(zf.read(name))
            for m in cf.methods:
                if m.code is None:
                    continue
                try:
                    ir = lift(resolved_code(m, cf.constant_pool))
                except LiftError:
                    continue
                n = assert_lifted_matches(ir, f"{name} {m.name}{m.descriptor}")
                concats += concat_count(n)
                if dump(normalize(n)) != dump(n):
                    unstable.append(f"{cf.this_class}.{m.name}{m.descriptor}")
                methods += 1
    return methods, concats, unstable


BUILDER = "java.lang.StringBuilder"
_APPEND = {"aload_0": "Ljava/lang/String;", "iload_1": "I", "aload_2": "Ljava/lang/Object;"}


def _append(rng) -> list:
    arg = rng.choice(list(_APPEND))
    return [arg, ("invokevirtual", BUILDER, "append", f"({_APPEND[arg]})L{BUILDER.replace('.', '/')};")]


def random_concat_method(rng: random.Random, segments: int) -> MethodModel:
    """A static (String, int) -> String method of builder chains, some
    broken (an append result kept, a builder stored in a local), some
    nested, between goto chains and branches into goto-only cycles."""
    to_string = ("invokevirtual", BUILDER, "toString", "()Ljava/lang/String;")
    code = ["aconst_null", "astore_2", "aconst_null", "astore_3"]
    tail: list = []
    for n in range(segments):
        kind = rng.randrange(5)
        if kind == 0:                          # a chain, possibly broken by a dup
            code += [("new", BUILDER), "dup"]
            code += rng.choice([[("invokespecial", BUILDER, "<init>", "()V")],
                                ["aload_0", ("invokespecial", BUILDER, "<init>",
                                             "(Ljava/lang/String;)V")]])
            for _ in range(rng.randrange(4)):
                code += _append(rng)
                if rng.random() < 0.2:
                    code += ["dup", "astore_2"]
            code += [to_string, rng.choice(["astore_3", "pop"])]
        elif kind == 1:                        # a builder kept in a local
            code += [("new", BUILDER), "dup", ("invokespecial", BUILDER, "<init>", "()V"),
                     "astore_2", "aload_2", *_append(rng), "pop", "aload_2", to_string, "astore_3"]
        elif kind == 2:                        # a chain nested in another's append
            code += [("new", BUILDER), "dup", ("invokespecial", BUILDER, "<init>", "()V"),
                     ("new", BUILDER), "dup", ("invokespecial", BUILDER, "<init>", "()V"),
                     *_append(rng), to_string,
                     ("invokevirtual", BUILDER, "append",
                      "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
                     to_string, "astore_3"]
        elif kind == 3:                        # a forward goto chain
            hops = rng.randint(1, 4)
            for k in range(hops):
                code += [("goto", f"G{n}_{k}"), f"G{n}_{k}:"]
        else:                                  # a branch into a tail or a goto cycle
            size = rng.randint(1, 3)
            code += ["iload_1", (rng.choice(["ifeq", "ifne"]), f"C{n}_{rng.randrange(size + 1)}")]
            tail += [f"C{n}_0:", ("goto", f"C{n}_1")]
            tail += [item for k in range(1, size + 1)
                     for item in (f"C{n}_{k}:", ("goto", f"C{n}_{k % size + 1}"))]
    code += ["aload_3", "areturn", *tail]
    return MethodModel("f", "(Ljava/lang/String;I)Ljava/lang/String;", 0x09, code=code)


def test_random_method_ir_dependences_match_reference():
    rng = random.Random(2024)
    for k in range(300):
        assert_dependences_match(random_method_ir(rng, max_blocks=12), k)


def test_random_int_methods_match_reference():
    rng = random.Random(77)
    for k in range(60):
        cf, method = assemble_method(random_int_method(rng, params=2, segments=rng.randint(2, 8)))
        assert_lifted_matches(lift(resolved_code(method, cf.constant_pool)), k)


def test_random_concat_methods_match_reference():
    rng = random.Random(5)
    concats = 0
    for k in range(100):
        cf = parse_class(emit_class(ClassModel("t.C", methods=[
            random_concat_method(rng, rng.randint(1, 8))])))
        ir = lift(resolved_code(cf.methods[0], cf.constant_pool))
        concats += concat_count(assert_lifted_matches(ir, k))
    assert concats > 100


def test_corpus_methods_match_reference(corpus):
    methods = 0
    for jar in [*corpus.pre_jars.values(), *corpus.post_jars.values()]:
        for entry, cf in parse_jar(jar).classes:
            for m in cf.methods:
                if m.code is not None:
                    assert_lifted_matches(lift(resolved_code(m, cf.constant_pool)),
                                          f"{entry} {m.name}")
                    methods += 1
    assert methods > 100


def test_jdk_sample_matches_reference():
    """A seeded sample of java.base, which is compiled with inline
    StringBuilder concatenation, so the chain rewrite is exercised; a
    second normalize changes none of its methods."""
    jmod = _jdk_jmod("java.base")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.base.jmod")
    methods, concats, unstable = compare_jdk_methods(jmod, sample=120, seed=1)
    assert methods > 500
    assert concats > 20
    assert unstable == []

"""Legal methods at the size limits: each IR stage's time follows what it
outputs, and the shapes whose output is quadratic keep their meaning.

The methods are emitted with ``emit_class``, as tests/corpus.py builds
its classes, and stay under the JVM's 65,535-byte code limit. The time
bounds are loose enough for a slow CI machine; the set-based dependence
analysis, the restarting concat rewrite and per-block goto-chain walks
took several times the bound on each shape. On the shapes whose
statement-level dependences are quadratic, the triplet stages
(``dependencies``, ``build_cpg``, ``extract_triplets``) follow the
distinct triplets; expanded to statement pairs, as the reference stages
in tests/reference_stages.py do, they took several times the bound.
"""

import time

import pytest

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class
from jarscan.classfile.emitter import encode_instruction
from jarscan.classfile.model import resolved_code
from jarscan.cpg import build_cpg, extract_triplets, method_triplets
from jarscan.ir import build_cfg, dependencies, lift
from jarscan.normalize import normalize
from oracles import brute_control_deps
from test_dataflow import control_dependent_blocks
from test_reference_stages import assert_dependences_match

BUILDER = "java.lang.StringBuilder"


def branch_blocks(n: int) -> list:
    """``n`` times ``iload_0; ifeq L; push_int i; istore 1+i%50; L:``."""
    code = []
    for i in range(n):
        code += ["iload_0", ("ifeq", f"L{i}"), ("push_int", i), ("istore", 1 + i % 50), f"L{i}:"]
    return code + ["return"]


def concat_chains(n: int) -> list:
    """``n`` builder chains ``new; dup; <init>; aload_0; append; toString;
    astore_1`` in one block."""
    code = []
    for _ in range(n):
        code += [("new", BUILDER), "dup", ("invokespecial", BUILDER, "<init>", "()V"),
                 "aload_0",
                 ("invokevirtual", BUILDER, "append",
                  "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
                 ("invokevirtual", BUILDER, "toString", "()Ljava/lang/String;"),
                 "astore_1"]
    return code + ["return"]


def try_ranges(n: int) -> tuple[list, list]:
    """``n`` divisions, each in its own try range with its own handler,
    which returns."""
    code, handlers = [], []
    for i in range(n):
        code += [f"S{i}:", "iload_0", ("push_int", i + 1), "idiv", "istore_1",
                 f"E{i}:", ("goto", f"N{i}"), f"H{i}:", "pop", "return", f"N{i}:"]
        handlers.append((f"S{i}", f"E{i}", f"H{i}", "java.lang.ArithmeticException"))
    return code + ["return"], handlers


def vacuous_branches(n: int) -> list:
    """``n`` times ``iload_0; ifne S_i``, then ``return``, then each
    ``S_i: goto S_i``: n blocks that cannot reach EXIT."""
    code = []
    for i in range(n):
        code += ["iload_0", ("ifne", f"S{i}")]
    code.append("return")
    for i in range(n):
        code += [f"S{i}:", ("goto", f"S{i}")]
    return code


def wide_handlers(h: int) -> tuple[list, list]:
    """``branch_blocks(200)``, covered by ``h`` catch-all handlers, each
    ``pop; push_int i+7; ireturn``, then ``return x`` outside them."""
    code = ["S:", *branch_blocks(200)[:-1], "E:", "iload_0", "ireturn"]
    handlers = []
    for i in range(h):
        code += [f"H{i}:", "pop", ("push_int", i + 7), "ireturn"]
        handlers.append(("S", "E", f"H{i}", None))
    return code, handlers


def guarded_stores(n: int) -> list:
    """``n`` times ``iload_0; ifeq L_i; push_int i; istore_1; L_i:``, then
    ``n`` times ``iload_1; iload_0; iadd; istore_0``, then ``return x``:
    each of the n later uses of register 1 is reached by all n stores."""
    code = []
    for i in range(n):
        code += ["iload_0", ("ifeq", f"L{i}"), ("push_int", i), "istore_1", f"L{i}:"]
    for _ in range(n):
        code += ["iload_1", "iload_0", "iadd", "istore_0"]
    return code + ["iload_0", "ireturn"]


def goto_chain(n: int) -> list:
    """``n`` gotos, each to the next instruction, then ``return x + 1``."""
    code = []
    for i in range(n):
        code += [("goto", f"L{i}"), f"L{i}:"]
    return code + ["iload_0", "iconst_1", "iadd", "ireturn"]


def emitted(code: list, desc: str, handlers=()):
    """The class t.Big holding ``static f`` with ``code``, parsed back, and
    its one method, whose code must fit the JVM's limit."""
    model = ClassModel("t.Big", methods=[MethodModel("f", desc, 0x09, code=code,
                                                      handlers=list(handlers))])
    cf = parse_class(emit_class(model))
    [method] = cf.methods
    last = method.code.instructions[-1]
    assert last[0] + len(encode_instruction(last)) < 65_536
    return cf, method


def _assert_triplets_within(cf, method, seconds: float):
    start = time.perf_counter()
    triplets = method_triplets(cf, method)
    elapsed = time.perf_counter() - start
    assert triplets
    assert elapsed < seconds, f"method_triplets took {elapsed:.1f} s"


# Each shape whose statement-level dependences grow quadratically, as a
# function of its size to (code, handlers, descriptor).
QUADRATIC_SHAPES = {
    "vacuous": lambda n: (vacuous_branches(n), (), "(I)V"),
    "wide": lambda h: (*wide_handlers(h), "(I)I"),
    "guarded": lambda n: (guarded_stores(n), (), "(II)I"),
}


def _lifted(shape: str, n: int):
    code, handlers, desc = QUADRATIC_SHAPES[shape](n)
    cf, method = emitted(code, desc, handlers)
    return lift(resolved_code(method, cf.constant_pool))


def _normalized(shape: str, n: int):
    return normalize(_lifted(shape, n))


# build_cfg's bound on each shape. On the wide one, the normalized IR's
# 400 covered blocks each list all 1,000 handler heads (400,000 entries):
# a CFG that built an edge object per block and successor took three times
# its bound.
CFG_SECONDS = {"vacuous": 0.1, "wide": 0.5, "guarded": 0.1}

# normalize's bound on the wide shape at 1,000 handlers. Its blocks share
# one coverage tuple, so each pass maps that tuple once; a normalize that
# listed the handlers of each block afresh, three times per method, took
# 0.59-0.92 s.
NORMALIZE_SECONDS = 0.25


@pytest.mark.parametrize("shape, n, distinct, seconds", [
    ("vacuous", 400, 8, 0.25),
    ("wide", 1000, 6634, 2.5),
    ("guarded", 1000, 5016, 0.5),
])
def test_quadratic_shapes_triplets_in_bounded_time(shape, n, distinct, seconds):
    """``build_cfg`` and the triplet stages each within their bound."""
    ir = _normalized(shape, n)
    start = time.perf_counter()
    cfg = build_cfg(ir)
    cfg_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    triplets = extract_triplets(build_cpg(ir, cfg, dependencies(ir, cfg)))
    elapsed = time.perf_counter() - start
    assert len(triplets) == distinct
    assert cfg_elapsed < CFG_SECONDS[shape], f"build_cfg took {cfg_elapsed:.2f} s"
    assert elapsed < seconds, f"the triplet stages took {elapsed:.2f} s"


def test_wide_handlers_normalize_in_bounded_time():
    ir = _lifted("wide", 1000)
    start = time.perf_counter()
    normalized = normalize(ir)
    elapsed = time.perf_counter() - start
    assert sum(map(len, normalized.covered_blocks())) == 400_000
    assert elapsed < NORMALIZE_SECONDS, f"normalize took {elapsed:.2f} s"


@pytest.mark.parametrize("shape, n", [("vacuous", 30), ("wide", 20), ("guarded", 30)])
def test_quadratic_shapes_match_reference_triplets(shape, n):
    assert_dependences_match(_normalized(shape, n), shape)


def test_thousand_branch_blocks_in_bounded_time():
    cf, method = emitted(branch_blocks(1000), "(I)V")
    _assert_triplets_within(cf, method, 5.0)


def test_3700_concat_chains_in_bounded_time():
    cf, method = emitted(concat_chains(3700), "(Ljava/lang/String;)V")
    _assert_triplets_within(cf, method, 10.0)


def test_2000_try_ranges_in_bounded_time():
    code, handlers = try_ranges(2000)
    cf, method = emitted(code, "(I)V", handlers)
    _assert_triplets_within(cf, method, 5.0)


def test_20000_goto_chain_in_bounded_time():
    cf, method = emitted(goto_chain(20_000), "(I)I")
    _assert_triplets_within(cf, method, 5.0)


def test_vacuous_postdominance_is_kept():
    """Blocks that cannot reach EXIT are post-dominated by every node. So
    each looping block is control dependent on every branch that has a
    looping successor, and so is the first branch block, on the second
    branch: Ferrante, Ottenstein and Warren's definition read literally,
    as the brute-force oracle reads it. This pins the vacuous case before
    any redesign of it."""
    cf, method = emitted(vacuous_branches(2), "(I)V")
    ir = lift(resolved_code(method, cf.constant_pool))
    cfg = build_cfg(ir)
    # Blocks 0 and 1 branch, 2 returns, 3 and 4 loop on themselves.
    assert [cfg.successors(b) for b in range(5)] == [[1, 3], [2, 4], [-2], [3], [4]]
    pairs = control_dependent_blocks(cfg)
    assert pairs == brute_control_deps(cfg)
    assert pairs == {(0, 3), (0, 4), (1, 0), (1, 3), (1, 4)}

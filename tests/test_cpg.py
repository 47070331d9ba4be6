"""CPG construction, triplet extraction, and the set algebra."""

import random
import zipfile

import pytest
from hypothesis import given, strategies as st

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class, strip_packages
from jarscan.classfile.model import resolved_code
from jarscan.cpg import (
    Cpg,
    Triplet,
    build_cpg,
    diff,
    extract_triplets,
    method_triplets,
    serialize_triplets,
    deserialize_triplets,
    unqualify,
)
from jarscan.errors import LiftError
from jarscan.ir import build_cfg, dependencies, dump, lift, render_stmt
from jarscan.normalize import normalize
from oracles import brute_signature
from test_classfile import _jdk_jmod


def triplets_for(code, desc="(I)I", cls="t.T"):
    model = ClassModel(cls, methods=[MethodModel("f", desc, 0x09, code=code)])
    cf = parse_class(emit_class(model))
    return method_triplets(cf, cf.methods[0])


def graph_for(code, desc="(I)I"):
    model = ClassModel("t.T", methods=[MethodModel("f", desc, 0x09, code=code)])
    cf = parse_class(emit_class(model))
    ir = normalize(lift(resolved_code(cf.methods[0], cf.constant_pool)))
    cfg = build_cfg(ir)
    return build_cpg(ir, cfg, dependencies(ir, cfg)), ir


# ----------------------------------------------------------------- building

def test_empty_void_method_single_node_no_data():
    # One statement, labelled return_void, and no edge of any kind.
    cpg, ir = graph_for(["return"], desc="()V")
    assert [render_stmt(s) for s in ir.statements] == ["return_void"]
    assert cpg.edges == set()


def test_addition_has_data_edge_to_return():
    cpg, ir = graph_for(["iload_0", "iload_1", "iadd", "ireturn"], desc="(II)I")
    assert [render_stmt(s) for s in ir.statements] == ["v0 := asgn add_int(p0, p1)",
                                                      "return_int(v0)"]
    data = {(s, d) for s, label, d in cpg.edges if label == "DATA"}
    assert data == {("asgn add_int(p0, p1)", "return_int(%)")}


def test_diamond_has_two_ctrl_edges_from_branch():
    cpg, ir = graph_for([
        "iload_0", ("ifeq", "Z"),
        ("push_int", 5), ("istore", 1), ("goto", "M"),
        "Z:", ("push_int", 9), ("istore", 1),
        "M:", ("iload", 1), "ireturn"])
    nodes = {n for s, _, d in cpg.edges for n in (s, d)}
    [branch] = [n for n in nodes if n.startswith("if_")]
    targets = {d for s, label, d in cpg.edges if label == "CTRL" and s == branch}
    # Both arms are control-dependent on the branch; the join is not.
    assert {"asgn const int:5", "asgn const int:9"} <= targets
    assert not [t for t in targets if t.startswith("return")]


def test_const_return_fixture_hand_enumerated():
    # v0 := const 1; return v0  (normalized names)
    cpg, _ = graph_for(["iconst_1", "ireturn"], desc="()I")
    expected = {
        ("asgn const int:1", "AST:0", "lit:int:1"),
        ("asgn const int:1", "CFG", "return_int(%)"),
        ("asgn const int:1", "DATA", "return_int(%)"),
        ("return_int(%)", "AST:0", "reg:%"),
    }
    assert cpg.edges == expected


def test_five_edge_fixture_hand_enumerated():
    # v0 := p0 + p0; return v0 yields exactly five edges and five triplets.
    cpg, _ = graph_for(["iload_0", "iload_0", "iadd", "ireturn"])
    assert len(cpg.edges) == 5
    expected = frozenset({
        Triplet("asgn add_int(p0, p0)", "AST:0", "reg:p0"),
        Triplet("asgn add_int(p0, p0)", "AST:1", "reg:p0"),
        Triplet("asgn add_int(p0, p0)", "CFG", "return_int(%)"),
        Triplet("asgn add_int(p0, p0)", "DATA", "return_int(%)"),
        Triplet("return_int(%)", "AST:0", "reg:%"),
    })
    assert extract_triplets(cpg) == expected


def test_extract_dedupes_parallel_identical_edges():
    edges = [("a", "CFG", "b"), ("a", "CFG", "b")]
    ts = extract_triplets(Cpg(edges=edges))
    assert ts == frozenset({Triplet("a", "CFG", "b")})


def test_zero_edges_empty_set():
    assert extract_triplets(Cpg(edges=set())) == frozenset()


def test_triplet_count_bounded_by_edges():
    cpg, _ = graph_for(["iload_0", ("ifge", "A"), "iconst_0", "ireturn",
                        "A:", "iload_0", "ireturn"])
    assert len(extract_triplets(cpg)) <= len(cpg.edges)


def test_cpg_determinism():
    code = ["iload_0", ("ifge", "A"), "iconst_0", "ireturn",
            "A:", "iload_0", "iconst_2", "imul", "ireturn"]
    a = serialize_triplets(triplets_for(code))
    b = serialize_triplets(triplets_for(code))
    assert a == b


# -------------------------------------------------------------- set algebra

def _random_triplet_set(rng, universe, max_size=12):
    return frozenset(rng.sample(universe, rng.randint(0, max_size)))


def test_dump_determines_triplets(corpus):
    """Methods whose normalized IR dumps alike have one triplet set: the
    dump carries every word of every label, so comparing IR by dump
    cannot miss a change that moves triplets. Over methods that differ
    in one literal, the corpus and a seeded sample of java.base."""
    # Methods that differ in one literal alone.
    twins = [(["iconst_1", "ireturn"], "()I"), (["iconst_2", "ireturn"], "()I"),
             ([("ldc_float", 0.0), "freturn"], "()F"), ([("ldc_float", -0.0), "freturn"], "()F"),
             ([("ldc_string", "a"), "areturn"], "()Ljava/lang/String;"),
             ([("ldc_string", "b"), "areturn"], "()Ljava/lang/String;")]
    classes = [emit_class(ClassModel("t.Twins", methods=[
        MethodModel(f"f{i}", desc, 0x09, code=code) for i, (code, desc) in enumerate(twins)]))]
    classes += [data for cve in corpus.cve_ids
                for side in (corpus.pre_classes, corpus.post_classes)
                for _name, data in side[cve]]
    jmod = _jdk_jmod("java.base")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.base.jmod")
    with zipfile.ZipFile(jmod) as zf:
        names = sorted(n for n in zf.namelist() if n.endswith(".class"))
        classes += [zf.read(n) for n in random.Random(23).sample(names, 100)]
    by_dump: dict[str, set] = {}
    for cf in map(parse_class, classes):
        for m in cf.methods:
            if m.code is None:
                continue
            try:
                text = dump(normalize(lift(resolved_code(m, cf.constant_pool))))
            except LiftError:
                continue
            by_dump.setdefault(text, set()).add(method_triplets(cf, m))
    assert len(by_dump) > 500
    assert [text for text, sets in by_dump.items() if len(sets) != 1] == []


def test_diff_identity_fix():
    t = frozenset({Triplet("a", "CFG", "b")})
    sig = diff(t, t)
    assert sig.pt == frozenset() and sig.nt == frozenset() and sig.ct == t


def test_diff_small_example():
    a, b, c = (Triplet(x, "CFG", x) for x in "abc")
    sig = diff(frozenset({a, b}), frozenset({b, c}))
    assert sig.ct == {b} and sig.pt == {c} and sig.nt == {a}


def test_diff_matches_brute_force_1000():
    rng = random.Random(123)
    universe = [Triplet(f"n{i}", k, f"n{j}")
                for i in range(6) for j in range(6)
                for k in ("CFG", "DATA")]
    for _ in range(1000):
        t_vul = _random_triplet_set(rng, universe)
        t_fix = _random_triplet_set(rng, universe)
        sig = diff(t_vul, t_fix)
        ct, pt, nt = brute_signature(t_vul, t_fix)
        assert sig.ct == ct and sig.pt == pt and sig.nt == nt
        # Reconstruction identities and disjointness.
        assert sig.ct | sig.pt == t_fix
        assert sig.ct | sig.nt == t_vul
        assert not (sig.ct & sig.pt) and not (sig.ct & sig.nt) \
            and not (sig.pt & sig.nt)


# ------------------------------------------------------------- unqualify

def test_unqualify_strips_packages_in_labels():
    t = Triplet("invoke_virtual r.a.b.X#bar():int(%)", "AST:0",
                "callee:r.a.b.X#bar")
    (u,) = unqualify({t})
    assert u.source == "invoke_virtual X#bar():int(%)"
    assert u.target == "callee:X#bar"


def test_unqualify_idempotent_on_real_sets():
    code = [("getstatic", "a.b.X", "F", "I"), "ireturn"]
    ts = triplets_for(code, desc="()I", cls="a.C")
    once = unqualify(ts)
    assert unqualify(once) == once


def test_unqualify_collapses_prefix_only_differences():
    t1 = Triplet("new a.b.X", "CFG", "goto")
    t2 = Triplet("new other.pkg.a.b.X", "CFG", "goto")
    assert len(unqualify({t1, t2})) == 1


@given(st.sets(st.tuples(st.sampled_from(["a.b.C#m", "x.Y", "p0", "%"]),
                         st.sampled_from(["CFG", "DATA"]),
                         st.sampled_from(["q.r.S#n", "lit:int:1"])),
               max_size=8))
def test_unqualify_commutes_with_union(pairs):
    ts = frozenset(Triplet(*p) for p in pairs)
    half = len(ts) // 2
    items = sorted(ts)
    a, b = frozenset(items[:half]), frozenset(items[half:])
    assert unqualify(a | b) == unqualify(a) | unqualify(b)


_LABELS = st.one_of(
    st.sampled_from(["CFG", "DATA", "AST:0", "p0", "%", "goto", "lit:int:1",
                     "new a.b.X", "new r.a.b.X", "callee:q.r.S#n",
                     "invoke_static a.C#f(int):x.Y(%)"]),
    st.text(alphabet="ab.:$# ()_", max_size=12))


@given(st.lists(st.sets(st.tuples(_LABELS, _LABELS, _LABELS), max_size=6),
                max_size=5))
def test_memoized_unqualify_equals_plain(calls):
    """One memo shared across calls gives what unqualify gives without
    it, and what stripping every label gives, for labels with and without
    dots."""
    memo = {}
    for triples in calls:
        ts = frozenset(Triplet(*t) for t in triples)
        expected = frozenset(Triplet(*map(strip_packages, t)) for t in ts)
        assert unqualify(ts, memo) == unqualify(ts) == expected
    assert all(memo[label] == strip_packages(label) for label in memo)


def test_relocation_invariance_of_unqualified_triplets():
    code = lambda owner: [
        ("getstatic", owner, "F", "I"),
        ("invokestatic", owner, "helper", "(I)I"),
        "ireturn"]
    original = triplets_for(code("a.b.X"), desc="()I", cls="a.C")
    relocated = triplets_for(code("r.a.b.X"), desc="()I", cls="r.a.C")
    assert original != relocated
    assert unqualify(original) == unqualify(relocated)


def test_serialization_roundtrip_and_canonical_order():
    ts = frozenset({Triplet("b", "CFG", "c"), Triplet("a", "DATA", "z")})
    text = serialize_triplets(ts)
    assert text.splitlines() == sorted(text.splitlines())
    assert deserialize_triplets(text) == ts


def test_serialization_escapes_only_what_splits_lines_and_labels():
    plain = frozenset({Triplet("a\r", "DATA", "b\u2028\x1e")})
    assert serialize_triplets(plain) == "a\r\x1fDATA\x1fb\u2028\x1e"
    assert deserialize_triplets(serialize_triplets(plain)) == plain
    odd = frozenset({Triplet("x\ny", "CFG", "p\x1fq"), Triplet("\x10J", "DATA", "\n")})
    text = serialize_triplets(odd)
    assert text.count("\n") == 1 and text.count("\x1f") == 4
    assert deserialize_triplets(text) == odd
    for bad in ("a\x10Q\x1fb\x1fc", "a\x1fb\x1fc\x10", "a\x1fb"):
        with pytest.raises(ValueError):
            deserialize_triplets(bad)

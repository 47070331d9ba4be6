"""Type 1-4 modification harness."""

import io
import random
import zipfile

import pytest

from jarscan.classfile import (
    ClassModel,
    MethodModel,
    class_entry_path,
    default_constructor,
    emit_class,
    list_constructs,
    parse_class,
    parse_jar,
    write_jar,
)
from jarscan.errors import RelocationCollision
from jarscan.classfile.model import resolved_code
from jarscan.ir import dump, lift
from jarscan.modharness import compiler_variant, modify, read_entries
from jarscan.normalize import normalize
from ir_interp import run_ir
from randgen import random_int_method


def _listing1_jar():
    c = ClassModel("a.C", methods=[
        default_constructor(),
        MethodModel("foo", "(La/b/X;)V", code=[
            ("aload", 1),
            ("invokevirtual", "a.b.X", "bar", "()I"),
            ("istore", 2),
            "return"]),
    ])
    x = ClassModel("a.b.X", methods=[
        default_constructor(),
        MethodModel("bar", "()I", code=["iconst_1", "ireturn"]),
    ])
    return write_jar([(class_entry_path(m.name), emit_class(m)) for m in (c, x)])


def _int_lib_jar(name="m.Lib"):
    rng = random.Random(8)
    methods = [default_constructor()]
    for k in range(3):
        methods.append(MethodModel(
            f"f{k}", "(II)I", 0x09,
            code=random_int_method(rng, params=2, segments=4)))
    model = ClassModel(name, methods=methods)
    return write_jar([(class_entry_path(name), emit_class(model))]), model


def test_type3_strips_metadata_keeps_class_bytes():
    jar = _listing1_jar()
    out = modify([jar], 3)
    archive = parse_jar(out)
    assert not archive.metadata_present
    original_classes = {p: d for p, d in read_entries(jar) if p.endswith(".class")}
    modified_classes = {p: d for p, d in read_entries(out) if p.endswith(".class")}
    assert original_classes == modified_classes


def test_type2_keeps_metadata_of_each_input():
    jar1 = _listing1_jar()
    jar2, _ = _int_lib_jar()
    out = modify([jar1, jar2], 2)
    archive = parse_jar(out)
    assert archive.metadata_present
    bundled = [p for p in archive.other_entries if p.startswith("META-INF/bundled/")]
    assert {p.split("/")[2] for p in bundled} == {"0", "1"}
    assert len(archive.classes) == 3


@pytest.mark.parametrize("kind", [2, 3])
def test_merge_moves_only_whole_pom_files(kind):
    """A resource whose name merely ends in "pom.properties" stays where
    it is; a pom.properties outside META-INF is metadata."""
    jar = write_jar([("res/app-pom.properties", b"a=1\n"), ("lib/pom.properties", b"b=2\n")])
    paths = [p for p, _d in read_entries(modify([jar], kind))]
    assert "res/app-pom.properties" in paths
    assert "lib/pom.properties" not in paths
    assert ("META-INF/bundled/0/lib/pom.properties" in paths) is (kind == 2)


@pytest.mark.parametrize("kind", [2, 3])
def test_merge_keeps_the_first_copy_of_a_duplicated_entry(kind):
    """Each copy of a duplicated path reads as its own bytes, and a merge
    keeps the first copy, the one a scan reads."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf, pytest.warns(UserWarning, match="Duplicate"):
        zf.writestr("res/a.txt", b"first")
        zf.writestr("res/a.txt", b"second")
    jar = buf.getvalue()
    assert read_entries(jar) == [("res/a.txt", b"first"), ("res/a.txt", b"second")]
    assert [(p, d) for p, d in read_entries(modify([jar], kind)) if p == "res/a.txt"] == [
        ("res/a.txt", b"first")]


def test_type4_listing1_renames_match_paper_example():
    out = modify([_listing1_jar()], 4, prefix="r.")
    archive = parse_jar(out)
    by_path = dict(archive.classes)
    assert set(by_path) == {"r/a/C.class", "r/a/b/X.class"}
    cf = by_path["r/a/C.class"]
    fqns = [c.fqn for c in list_constructs(cf)]
    assert "r.a.C: void foo(r.a.b.X)" in fqns
    unqs = [c.unqualified for c in list_constructs(cf)]
    assert "C: void foo(X)" in unqs


def test_type4_preserves_unqualified_signatures():
    jar, _model = _int_lib_jar()
    out = modify([jar], 4, prefix="deep.r.")
    before = parse_jar(jar)
    after = parse_jar(out)
    unq = lambda a: sorted(c.unqualified for _p, cf in a.classes
                           for c in list_constructs(cf))
    assert unq(before) == unq(after)


def test_type4_collision_detected():
    a = ClassModel("p.C", methods=[default_constructor()])
    b = ClassModel("r.p.C", methods=[default_constructor()])
    jar = write_jar([
        (class_entry_path(a.name), emit_class(a)),
        (class_entry_path(b.name), emit_class(b)),
    ])
    with pytest.raises(RelocationCollision):
        modify([jar], 4, prefix="r.")


def test_type1_changes_bytes_but_normalized_ir_converges():
    jar, model = _int_lib_jar()
    out = modify([jar], 1, seed=42)
    before = parse_jar(jar).classes[0][1]
    after = parse_jar(out).classes[0][1]
    changed = False
    for pre_m, post_m in zip(before.methods, after.methods):
        if pre_m.code is None:
            continue
        if pre_m.code != post_m.code:
            changed = True
        n_pre = normalize(lift(resolved_code(pre_m, before.constant_pool)))
        n_post = normalize(lift(resolved_code(post_m, after.constant_pool)))
        assert dump(n_pre) == dump(n_post), pre_m.name
    assert changed


def test_type1_semantic_equivalence_on_random_inputs():
    jar, _ = _int_lib_jar()
    out = modify([jar], 1, seed=11)
    before = parse_jar(jar).classes[0][1]
    after = parse_jar(out).classes[0][1]
    rng = random.Random(3)
    for pre_m, post_m in zip(before.methods, after.methods):
        if pre_m.code is None or pre_m.name == "<init>":
            continue
        ir_pre = lift(resolved_code(pre_m, before.constant_pool))
        ir_post = lift(resolved_code(post_m, after.constant_pool))
        for _ in range(20):
            args = [rng.randint(-100, 100), rng.randint(-100, 100)]
            assert run_ir(ir_pre, args) == run_ir(ir_post, args)


def test_type1_permutes_every_access_to_a_slot():
    """Short and explicit loads and stores and iinc of a permuted slot all
    move with it."""
    model = ClassModel("m.Slots", methods=[MethodModel("f", "(I)I", 0x09, code=[
        ("push_int", 3), "istore_1", ("push_int", 10), ("istore", 2), ("iinc", 1, 5),
        "iload_1", ("iload", 2), "isub", "ireturn"])])
    stored = set()
    for seed in range(8):
        cf = parse_class(compiler_variant(emit_class(model), random.Random(seed)))
        code = cf.methods[0].code
        stored.add(next(ops for _at, m, ops in code.instructions if m == "istore"))
        ir = lift(resolved_code(cf.methods[0], cf.constant_pool))
        assert run_ir(ir, [0]) == (3 + 5) - 10
    assert stored == {(1,), (2,)}


def test_modify_deterministic_given_seed():
    jar, _ = _int_lib_jar()
    assert modify([jar], 1, seed=5) == modify([jar], 1, seed=5)
    assert modify([jar], 4, prefix="r.") == modify([jar], 4, prefix="r.")


def test_compiler_variant_single_class_roundtrips():
    _, model = _int_lib_jar()
    data = emit_class(model)
    variant = compiler_variant(data, random.Random(1))
    cf = parse_class(variant)
    assert cf.this_class == model.name

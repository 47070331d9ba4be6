"""Stripped code keys: relocation-invariant, and never more stripped than
``unqualify`` strips from triplet labels."""

import random

from hypothesis import given, settings, strategies as st

from jarscan.classfile import ClassModel, MethodModel, emit_class, parse_class, parse_jar
from jarscan.classfile.model import key_digest, resolved_code, stripped_code
from jarscan.cpg import method_triplets, unqualify
from jarscan.modharness import modify
from randgen import random_ref_jar


def stripped_digest(cf, method):
    key = stripped_code(resolved_code(method, cf.constant_pool))
    return None if key is None else key_digest(key)


def generated_bodies(jar: bytes) -> list:
    """(class, method) of every generated body in a random_ref_jar, by
    method name."""
    return sorted(((cf, m) for cf in parse_jar(jar).class_files()
                   for m in cf.methods if m.name.startswith("f")),
                  key=lambda pair: pair[1].name)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       prefix=st.sampled_from(["r.", "shaded.lib.", "x1.", "lib.", "9v."]))
def test_equal_stripped_digest_implies_equal_unqualified_triplets(seed, prefix):
    """Over generated bodies and their kind-4 relocations, any two with
    equal stripped digests lift to triplets with equal ``unqualify``;
    relocation under a prefix strip_packages removes keeps the digest."""
    jar = random_ref_jar(random.Random(seed))
    original = generated_bodies(jar)
    relocated = generated_bodies(modify([jar], 4, prefix=prefix))
    bodies = original + relocated
    digests = [stripped_digest(cf, m) for cf, m in bodies]
    unqualified = [unqualify(method_triplets(cf, m)) for cf, m in bodies]
    for i in range(len(bodies)):
        for j in range(i):
            if digests[i] is not None and digests[i] == digests[j]:
                assert unqualified[i] == unqualified[j]
    if not prefix[0].isdigit():
        assert digests[:len(original)] == digests[len(original):]
        assert None not in digests


def _body(code, desc="()Ljava/lang/Object;", cls="t.T", handlers=()):
    model = ClassModel(cls, methods=[MethodModel("f", desc, 0x09, code=code,
                                                 handlers=list(handlers))])
    cf = parse_class(emit_class(model))
    return cf, cf.methods[0]


def _build(builder):
    return _body([("new", builder), "dup", ("invokespecial", builder, "<init>", "()V"),
                  "aload_0", ("invokevirtual", builder, "append",
                              f"(Ljava/lang/Object;)L{builder.replace('.', '/')};"),
                  ("invokevirtual", builder, "toString", "()Ljava/lang/String;"),
                  "areturn"], desc="(Ljava/lang/Object;)Ljava/lang/Object;")


def _new(cls):
    return _body([("new", cls), "dup", ("invokespecial", cls, "<init>", "()V"), "areturn"])


def _same_unqualified(a, b):
    return unqualify(method_triplets(*a)) == unqualify(method_triplets(*b))


def test_look_alike_builder_is_not_the_jdk_builder():
    """normalize rewrites a java.lang.StringBuilder chain into a concat,
    and leaves a look-alike's calls alone: the stripped key keeps the JDK
    name qualified, so the two digests differ."""
    jdk, look_alike = _build("java.lang.StringBuilder"), _build("x.StringBuilder")
    assert not _same_unqualified(jdk, look_alike)
    assert stripped_digest(*jdk) != stripped_digest(*look_alike)
    relocated = _build("r.x.StringBuilder")
    assert _same_unqualified(look_alike, relocated)
    assert stripped_digest(*look_alike) == stripped_digest(*relocated)


def test_digit_led_package_segment_is_not_stripped():
    """strip_packages leaves "a.1b.C" alone, so a key that strips it to "C"
    (as a split on slashes would) would equate it with z.C."""
    odd, other, relocated = _new("a.1b.C"), _new("z.C"), _new("r.a.1b.C")
    assert not _same_unqualified(odd, other)
    assert stripped_digest(*odd) != stripped_digest(*other)
    assert _same_unqualified(odd, relocated)
    assert stripped_digest(*odd) == stripped_digest(*relocated)


def test_string_constants_are_not_stripped():
    text = lambda value: _body([("ldc_string", value), "areturn"])
    klass = lambda value: _body([("ldc_class", value), "areturn"])
    assert stripped_digest(*text("a.b.C")) != stripped_digest(*text("x.y.C"))
    assert stripped_digest(*klass("a.b.C")) == stripped_digest(*klass("x.y.C"))


def test_names_map_one_to_one():
    """Two classes that share a simple name stay two classes: normalize
    compares qualified names, so the key keeps which occurrences name the
    same class."""
    def pair(first, second):
        return _body([("new", first), "pop", ("new", second), "areturn"])
    assert stripped_digest(*pair("p.X", "q.X")) == stripped_digest(*pair("s.X", "t.u.X"))
    assert stripped_digest(*pair("p.X", "q.X")) != stripped_digest(*pair("r.X", "r.X"))


def test_stripped_key_covers_catch_types_and_descriptors():
    def guarded(catch, arg):
        return _body(["TRY:", "aload_0", ("invokestatic", "u.V", "check", f"(L{arg};)V"),
                      "END:", "aconst_null", "areturn", "H:", "areturn"],
                     desc="(Ljava/lang/Object;)Ljava/lang/Object;",
                     handlers=[("TRY", "END", "H", catch)])
    base = stripped_digest(*guarded("p.Oops", "p/Arg"))
    assert base == stripped_digest(*guarded("q.r.Oops", "q/r/Arg"))
    assert base != stripped_digest(*guarded("p.Other", "p/Arg"))
    assert base != stripped_digest(*guarded("p.Oops", "p/Other"))
    assert base != stripped_digest(*guarded(None, "p/Arg"))


def test_name_outside_identifier_segments_has_no_stripped_key():
    dotted_in_descriptor = _body([
        ("new", "a.b.C"), "pop", "aconst_null",
        ("invokestatic", "u.V", "check", "(La.b/C;)V"), "aconst_null", "areturn"])
    # The parser checks no Fieldref's descriptor: an unterminated or
    # trailing-junk object type has no key rather than raising.
    unterminated = [_body([("getstatic", "a.b.C", "F", desc), "areturn"])
                    for desc in ("La/b/C", "[La/b/C", "La/b/C;junk")]
    for cf, m in (_new("a.b#c.D"), dotted_in_descriptor, *unterminated):
        assert stripped_code(resolved_code(m, cf.constant_pool)) is None


def test_stripped_digest_is_pinned():
    # Stripped digests are compared with digests other processes wrote into
    # KB files, so the key must not drift: not with the hash seed, not with
    # the package the body was relocated into.
    for pkg in ("a.b", "shaded.a.b"):
        cf, m = _body([
            ("new", f"{pkg}.X"), "dup", ("invokespecial", f"{pkg}.X", "<init>", "()V"),
            ("getstatic", f"{pkg}.Y", "F", f"L{pkg.replace('.', '/')}/X;"),
            ("invokevirtual", f"{pkg}.X", "with", f"(L{pkg.replace('.', '/')}/X;)V"),
            ("ldc_string", "a.b.X"), "areturn"], cls=f"{pkg}.T")
        assert stripped_digest(cf, m) == "36284efb9ef46d67bba318dc8882df7b", pkg

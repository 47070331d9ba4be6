"""Knowledge-base building, persistence and queries."""

import pytest

import jarscan.cpg
import jarscan.kb
from jarscan.classfile import (
    ClassModel,
    FieldModel,
    MethodModel,
    default_constructor,
    emit_class,
    parse_class,
    strip_packages,
)
from jarscan.cpg import Triplet, method_triplets, unqualify
from jarscan.classfile.descriptors import method_signature
from jarscan.classfile.model import code_digest, key_digest, resolved_code, stripped_code
from jarscan.errors import (BadConstantPoolRef, CorruptFile, EmptyDiff, KbFormatError,
                            LiftError, VersionMismatch)
from jarscan.kb import (
    KnowledgeBase,
    build_entry,
    build_from_manifest,
    load,
    parse_manifest,
    query_fqn,
    query_unqualified,
    save,
)
from corpus import build_corpus, materialize_manifest


def _cls(name, methods, fields=()):
    return parse_class(emit_class(ClassModel(
        name,
        fields=[FieldModel(n, d) for n, d in fields],
        methods=[default_constructor()] + methods)))


PRE = _cls("a.C", [
    MethodModel("check", "(I)I", 0x09, code=["iload_0", "ireturn"]),
    MethodModel("legacy", "()V", 0x09, code=["return"]),
], fields=[("limit", "I")])

POST = _cls("a.C", [
    MethodModel("check", "(I)I", 0x09, code=[
        "iload_0", ("ifge", "OK"), "iconst_0", "ireturn",
        "OK:", "iload_0", "ireturn"]),
    MethodModel("fresh", "(I)Z", 0x09, code=["iconst_1", "ireturn"]),
], fields=[("limit", "I")])


def test_build_entry_change_kinds():
    records = build_entry("CVE-X", [PRE], [POST])
    by_change = {r.change: r for r in records}
    assert set(by_change) == {"added", "removed", "changed"}
    assert by_change["removed"].construct.fqn == "a.C: void legacy()"
    assert by_change["added"].construct.fqn == "a.C: boolean fresh(int)"
    changed = by_change["changed"]
    assert changed.construct.fqn == "a.C: int check(int)"
    assert changed.signature is not None
    assert changed.signature.pt  # the guard adds triplets


def test_build_entry_signature_only_for_changed_methods():
    for r in build_entry("CVE-X", [PRE], [POST]):
        if r.change == "changed" and r.construct.kind == "method":
            assert r.signature is not None
        else:
            assert r.signature is None


def test_build_entry_class_context_is_post_fix_and_unqualified():
    records = build_entry("CVE-X", [PRE], [POST])
    changed = next(r for r in records if r.change == "changed")
    assert "C: boolean fresh(int)" in changed.class_context
    assert "C: int check(int)" not in changed.class_context  # not its own sibling
    assert "C#limit:int" in changed.class_context


def test_build_entry_added_and_removed_classes():
    extra = _cls("a.New", [MethodModel("x", "()V", 0x09, code=["return"])])
    gone = _cls("a.Old", [MethodModel("y", "()V", 0x09, code=["return"])])
    records = build_entry("CVE-Y", [PRE, gone], [POST, extra])
    changes = {(r.construct.fqn, r.change) for r in records}
    assert ("a.New", "added") in changes
    assert ("a.Old", "removed") in changes


def test_build_entry_empty_diff():
    with pytest.raises(EmptyDiff):
        build_entry("CVE-Z", [PRE], [PRE])


def test_branch_added_fix_yields_expected_triplets():
    # Fix adds a guard in front of a one-statement body: the negative set
    # stays empty and the positive set holds exactly the guard's new edges.
    pre = _cls("g.H", [MethodModel("f", "(I)I", 0x09,
                                   code=["iload_0", "ireturn"])])
    post = _cls("g.H", [MethodModel("f", "(I)I", 0x09, code=[
        "iload_0", ("ifge", "OK"), "iconst_0", "ireturn",
        "OK:", "iload_0", "ireturn"])])
    (record,) = build_entry("CVE-G", [pre], [post])
    sig = record.signature
    assert sig.nt == frozenset()
    assert sig.pt
    # Normalization orients the guard as if_lt with swapped arms.
    pt_sources = {t.source for t in sig.pt}
    assert "if_lt_int(p0, int:0)" in pt_sources
    assert any(t.source == "asgn const int:0" for t in sig.pt)
    # The original return of the parameter is the shared context.
    assert sig.ct == {Triplet("return_int(p0)", "AST:0", "reg:p0")}


def test_clinit_only_change_is_captured():
    make = lambda value: _cls("a.S", [
        MethodModel("<clinit>", "()V", 0x08, code=[
            ("push_int", value), ("putstatic", "a.S", "MAX", "I"), "return"]),
    ], fields=[("MAX", "I")])
    records = build_entry("CVE-C", [make(3)], [make(5)])
    assert [r.construct.fqn for r in records] == ["a.S: void <clinit>()"]
    assert records[0].change == "changed"
    assert records[0].signature is not None


# ------------------------------------------------- unchanged-code shortcut

def _relaid_fix():
    """A fix that changes ``fix`` and adds ``first`` ahead of ``keep``, so
    every constant ``keep`` uses moves to another pool index."""
    keep = MethodModel("keep", "()I", 0x09, code=[
        ("ldc_string", "k"), ("invokestatic", "a.R", "h", "(Ljava/lang/String;)I"),
        ("getstatic", "a.R", "n", "I"), "iadd", "ireturn"])
    first = MethodModel("first", "()V", 0x09, code=[
        ("ldc_string", "z"), ("putstatic", "a.R", "s", "Ljava/lang/String;"),
        ("ldc_float", 2.5), "pop", "return"])
    pre = _cls("a.R", [keep, MethodModel("fix", "(I)I", 0x09, code=[
        "iload_0", "ireturn"])], fields=[("n", "I"), ("s", "Ljava/lang/String;")])
    post = _cls("a.R", [first, keep, MethodModel("fix", "(I)I", 0x09, code=[
        "iload_0", "ineg", "ireturn"])], fields=[("n", "I"), ("s", "Ljava/lang/String;")])
    return pre, post


def _method(cf, name):
    return next(m for m in cf.methods if m.name == name)


def _shortcut_off(monkeypatch):
    """Every pair takes the lift path, as if no pool reference resolved."""
    monkeypatch.setattr(jarscan.kb, "_same_code", lambda *args: None)


def test_relaid_pool_moves_indices_but_not_resolved_code():
    pre, post = _relaid_fix()
    pre_m, post_m = _method(pre, "keep"), _method(post, "keep")
    assert pre_m.code != post_m.code
    assert (resolved_code(pre_m, pre.constant_pool)
            == resolved_code(post_m, post.constant_pool))


def test_only_changed_methods_are_lifted(monkeypatch):
    lifted = []
    real = jarscan.cpg.method_triplets

    def counting(cf, method):
        lifted.append(method.name)
        return real(cf, method)

    monkeypatch.setattr(jarscan.cpg, "method_triplets", counting)
    pre, post = _relaid_fix()
    records = build_entry("CVE-R", [pre], [post])
    assert lifted == ["fix", "fix"]
    assert [(r.construct.fqn, r.change) for r in records] == [
        ("a.R: int fix(int)", "changed"), ("a.R: void first()", "added")]


def _saved(tmp_path, name, records):
    path = tmp_path / name
    save(KnowledgeBase(records=records), path)
    return path.read_bytes()


def test_shortcut_leaves_kb_bytes_unchanged(tmp_path, monkeypatch, corpus):
    def build_all():
        fixes = {cve: ([parse_class(b) for _n, b in corpus.pre_classes[cve]],
                       [parse_class(b) for _n, b in corpus.post_classes[cve]])
                 for cve in corpus.cve_ids}
        fixes["CVE-R"] = tuple([cf] for cf in _relaid_fix())
        return {cve: build_entry(cve, pre, post) for cve, (pre, post) in fixes.items()}

    with_shortcut = _saved(tmp_path, "on.kb", build_all())
    _shortcut_off(monkeypatch)
    assert _saved(tmp_path, "off.kb", build_all()) == with_shortcut


def test_float_zero_signs_are_different_code():
    make = lambda value: _cls("a.F", [MethodModel("z", "()F", 0x09, code=[
        ("ldc_float", value), "freturn"])])
    pre, post = make(0.0), make(-0.0)
    assert (resolved_code(_method(pre, "z"), pre.constant_pool)
            != resolved_code(_method(post, "z"), post.constant_pool))
    (record,) = build_entry("CVE-F", [pre], [post])
    assert record.change == "changed" and record.signature is not None


def test_unliftable_unchanged_method_is_not_recorded(monkeypatch):
    def unliftable(cf, method):
        raise LiftError("forced")

    monkeypatch.setattr(jarscan.cpg, "method_triplets", unliftable)
    pre, post = _relaid_fix()
    records = build_entry("CVE-U", [pre], [post])
    assert [(r.construct.fqn, r.change, r.signature) for r in records] == [
        ("a.R: int fix(int)", "changed", None), ("a.R: void first()", "added", None)]
    # A constant that changes in place is a change, though no index moved.
    make = lambda text: _cls("a.T", [MethodModel("t", "()Ljava/lang/String;", 0x09,
                                                code=[("ldc_string", text), "areturn"])])
    (record,) = build_entry("CVE-T", [make("old")], [make("new")])
    assert (record.construct.fqn, record.change) == ("a.T: java.lang.String t()", "changed")
    # Comparing pool indices instead recorded the re-laid methods as changed.
    _shortcut_off(monkeypatch)
    spurious = {r.construct.fqn for r in build_entry("CVE-U", [pre], [post])}
    assert "a.R: int keep()" in spurious


def test_code_digest_follows_resolved_code():
    pre, post = _relaid_fix()
    assert (code_digest(_method(pre, "keep"), pre.constant_pool)
            == code_digest(_method(post, "keep"), post.constant_pool))
    make = lambda value: _cls("a.F", [MethodModel("z", "()F", 0x09, code=[
        ("ldc_float", value), "freturn"])])
    zero, minus_zero = make(0.0), make(-0.0)
    assert (code_digest(_method(zero, "z"), zero.constant_pool)
            != code_digest(_method(minus_zero, "z"), minus_zero.constant_pool))


def test_code_digest_is_pinned():
    # A digest is compared with digests other processes wrote into KB
    # files, so its definition must not drift: not with the hash seed, not
    # with the declaring class's name.
    for name in ("a.F", "b.c.Renamed"):
        cf = _cls(name, [MethodModel("z", "(Ljava/lang/String;)I", 0x09, code=[
            "aload_0", ("invokevirtual", "java.lang.String", "length", "()I"),
            ("ldc_float", 2.5), "pop", ("ldc_string", "na\u00efve \u2603"), "pop",
            "ireturn"])])
        assert code_digest(_method(cf, "z"), cf.constant_pool) == \
            "528f0c537b2b978da98c24a253612097"


def test_signed_records_carry_each_side_digest(corpus, corpus_kb):
    """For a signed changed record, the pre-fix body has the record's pre
    digest and lifts to CT | NT, the post-fix body the post digest and
    CT | PT; triplets_for_code gives those same sets. The stripped digests
    are those of each side's stripped key, and give the unqualified sets."""
    checked = 0
    for cve in corpus.cve_ids:
        sides = {side: {cf.this_class: cf for cf in
                        (parse_class(b) for _n, b in classes[cve])}
                 for side, classes in (("pre", corpus.pre_classes),
                                       ("post", corpus.post_classes))}
        for rec in corpus_kb.records[cve]:
            if rec.signature is None:
                assert rec.code is None and rec.stripped is None
                continue
            sig = rec.signature
            for i, side, expected in ((0, "pre", sig.ct | sig.nt),
                                      (1, "post", sig.ct | sig.pt)):
                cf = sides[side][rec.declaring_class]
                [m] = [m for m in cf.methods if method_signature(
                    cf.this_class, m.name, m.descriptor) == rec.construct.fqn]
                key = resolved_code(m, cf.constant_pool)
                assert key_digest(key) == code_digest(m, cf.constant_pool) == rec.code[i]
                assert key_digest(stripped_code(key)) == rec.stripped[i]
                assert method_triplets(cf, m) == expected
                assert corpus_kb.triplets_for_code(rec.code[i]) == expected
                assert (corpus_kb.triplets_for_code(rec.code[i], unqualified=True)
                        == corpus_kb.triplets_for_stripped_code(rec.stripped[i])
                        == unqualify(expected))
                checked += 1
    assert checked > 0
    assert corpus_kb.triplets_for_code("0" * 32) is None
    assert corpus_kb.triplets_for_stripped_code("0" * 32) is None


def test_unqualified_signature_is_built_once(corpus_kb):
    sig = next(r.signature for records in corpus_kb.records.values()
               for r in records if r.signature is not None)
    unq = corpus_kb.unqualified_signature(sig)
    assert (unq.ct, unq.pt, unq.nt) == (unqualify(sig.ct), unqualify(sig.pt),
                                        unqualify(sig.nt))
    assert corpus_kb.unqualified_signature(sig) is unq


def test_each_method_pair_is_resolved_once(monkeypatch):
    """kb-build compares, and digests, each pair present on both sides
    from one resolution per side."""
    resolved = []
    real = jarscan.kb.resolved_code
    monkeypatch.setattr(jarscan.kb, "resolved_code",
                        lambda m, pool: resolved.append(m.name) or real(m, pool))
    pre, post = _relaid_fix()
    (fix, _added) = build_entry("CVE-R", [pre], [post])
    assert fix.code is not None and fix.stripped is not None
    assert sorted(resolved) == sorted(2 * ["<init>", "fix", "keep"])


def test_unresolvable_pool_reference_means_no_digest(corpus, out_of_range_beta_pre):
    [post] = [parse_class(b) for _n, b in corpus.post_classes["CVE-9000-0002"]]
    pre = parse_class(out_of_range_beta_pre[1])
    with pytest.raises(BadConstantPoolRef):
        code_digest(_method(pre, "token"), pre.constant_pool)
    keys = jarscan.kb._resolved_pair(pre, _method(pre, "token"),
                                     post, _method(post, "token"))
    assert keys is None and jarscan.kb._code_digests(keys) == (None, None)


def test_code_digest_covers_catch_types():
    make = lambda catch: _cls("a.H", [MethodModel(
        "h", "(I)I", 0x09,
        code=["TRY:", "iload_0", "iconst_1", "idiv", "END:", "ireturn",
              "H:", "pop", "iconst_m1", "ireturn"],
        handlers=[("TRY", "END", "H", catch)])])
    digests = {code_digest(_method(cf, "h"), cf.constant_pool)
               for cf in (make("java.lang.ArithmeticException"),
                          make("java.lang.Exception"), make(None))}
    assert len(digests) == 3


# ---------------------------------------------------------------- persistence

def test_code_digests_survive_save_and_load(tmp_path, corpus_kb,
                                            corpus_kb_without_code):
    p = tmp_path / "kb.txt"
    save(corpus_kb, p)
    assert '"code":["' in p.read_text()
    loaded = load(p)
    codes = lambda kb: {(cve, r.construct.fqn, r.change): r.code
                        for cve, records in kb.records.items() for r in records}
    assert any(codes(corpus_kb).values()) and loaded.has_code_digests
    assert codes(loaded) == codes(corpus_kb)
    # Without the optional field the KB loads, with the same records
    # otherwise and no digest to look up.
    assert not corpus_kb_without_code.has_code_digests
    assert set(codes(corpus_kb_without_code).values()) == {None}
    assert codes(corpus_kb_without_code).keys() == codes(corpus_kb).keys()


def test_stripped_digests_survive_save_and_load(tmp_path, corpus_kb,
                                               corpus_kb_without_stripped):
    p = tmp_path / "kb.txt"
    save(corpus_kb, p)
    assert '"stripped":["' in p.read_text()
    loaded = load(p)
    stripped = lambda kb: {(cve, r.construct.fqn, r.change): r.stripped
                           for cve, records in kb.records.items() for r in records}
    assert loaded == corpus_kb and loaded.has_stripped_digests
    assert any(stripped(corpus_kb).values())
    assert stripped(loaded) == stripped(corpus_kb)
    # Without the optional field the KB loads, with the code digests kept.
    assert not corpus_kb_without_stripped.has_stripped_digests
    assert corpus_kb_without_stripped.has_code_digests
    assert set(stripped(corpus_kb_without_stripped).values()) == {None}


def test_empty_kb_roundtrip(tmp_path):
    kb = KnowledgeBase(records={})
    p = tmp_path / "kb.txt"
    save(kb, p)
    assert load(p) == kb


def test_ten_cve_kb_roundtrip_and_determinism(tmp_path, corpus_kb):
    p1, p2 = tmp_path / "kb1.txt", tmp_path / "kb2.txt"
    save(corpus_kb, p1)
    save(corpus_kb, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load(p1)
    assert loaded == corpus_kb
    save(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_flipped_checksum_byte_is_corrupt(tmp_path):
    kb = KnowledgeBase(records={"CVE-X": build_entry("CVE-X", [PRE], [POST])})
    p = tmp_path / "kb.txt"
    save(kb, p)
    lines = p.read_text().splitlines(keepends=True)
    digest = lines[-1].strip().removeprefix("sha256=")
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    lines[-1] = f"sha256={flipped}\n"
    p.write_text("".join(lines))
    with pytest.raises(CorruptFile):
        load(p)


def test_flipped_body_byte_is_corrupt(tmp_path):
    kb = KnowledgeBase(records={"CVE-X": build_entry("CVE-X", [PRE], [POST])})
    p = tmp_path / "kb.txt"
    save(kb, p)
    data = bytearray(p.read_bytes())
    idx = len(data) // 2
    data[idx] = data[idx] ^ 0x01
    p.write_bytes(bytes(data))
    with pytest.raises((CorruptFile, KbFormatError)):
        load(p)


def test_version_mismatch(tmp_path):
    p = tmp_path / "kb.txt"
    p.write_text("jarscan-kb 999\n{}\nsha256=x\n")
    with pytest.raises(VersionMismatch):
        load(p)


def test_not_a_kb_file(tmp_path):
    p = tmp_path / "kb.txt"
    p.write_text("something else entirely\nmore\nlines\n")
    with pytest.raises(KbFormatError):
        load(p)


# -------------------------------------------------------------------- queries

def _two_cve_kb():
    pre2 = _cls("x.D", [MethodModel("check", "(I)I", 0x09,
                                    code=["iload_0", "ireturn"])])
    post2 = _cls("x.D", [MethodModel("check", "(I)I", 0x09,
                                     code=["iload_0", "ineg", "ireturn"])])
    shared_pre = _cls("a.C", [MethodModel("check", "(I)I", 0x09,
                                          code=["iload_0", "ireturn"])])
    shared_post = _cls("a.C", [MethodModel("check", "(I)I", 0x09,
                                           code=["iload_0", "iconst_2", "imul",
                                                 "ireturn"])])
    return KnowledgeBase(records={
        "CVE-A": build_entry("CVE-A", [PRE], [POST]),
        "CVE-B": build_entry("CVE-B", [shared_pre], [shared_post]),
        "CVE-D": build_entry("CVE-D", [pre2], [post2]),
    })


def test_query_fqn_unknown_empty():
    assert query_fqn(_two_cve_kb(), "no.Such: void thing()") == set()


def test_query_fqn_two_cves():
    kb = _two_cve_kb()
    assert query_fqn(kb, "a.C: int check(int)") == {"CVE-A", "CVE-B"}


def test_class_and_method_fqns_resolve_independently():
    extra = _cls("a.New", [MethodModel("x", "()V", 0x09, code=["return"])])
    kb = KnowledgeBase(records={
        "CVE-CLS": build_entry("CVE-CLS", [PRE], [POST, extra]),
    })
    assert "CVE-CLS" in query_fqn(kb, "a.New")
    assert query_fqn(kb, "a.New: void x()") == set()


def test_query_unqualified_paper_example():
    kb = KnowledgeBase(records={"CVE-L": build_entry(
        "CVE-L",
        [_cls("a.C", [MethodModel("foo", "(La/b/X;)V", 0x01, code=["return"])])],
        [_cls("a.C", [MethodModel("foo", "(La/b/X;)V", 0x01, code=[
            ("aload", 1),
            ("invokevirtual", "a.b.X", "bar", "()I"),
            ("istore", 2), "return"]),
              MethodModel("extra", "()V", 0x01, code=["return"])])])})
    hits = query_unqualified(kb, "C: void foo(X)")
    assert hits == {("CVE-L", "a.C: void foo(a.b.X)")}


def test_query_unqualified_ambiguity_two_packages():
    p1 = _cls("p1.C", [MethodModel("m", "()I", 0x09, code=["iconst_1", "ireturn"])])
    q1 = _cls("p1.C", [MethodModel("m", "()I", 0x09, code=["iconst_2", "ireturn"])])
    p2 = _cls("p2.C", [MethodModel("m", "()I", 0x09, code=["iconst_3", "ireturn"])])
    q2 = _cls("p2.C", [MethodModel("m", "()I", 0x09, code=["iconst_4", "ireturn"])])
    kb = KnowledgeBase(records={
        "CVE-1": build_entry("CVE-1", [p1], [q1]),
        "CVE-2": build_entry("CVE-2", [p2], [q2]),
    })
    hits = query_unqualified(kb, "C: int m()")
    assert hits == {("CVE-1", "p1.C: int m()"), ("CVE-2", "p2.C: int m()")}


def test_query_unqualified_ignores_class_records():
    extra = _cls("a.New", [MethodModel("x", "()V", 0x09, code=["return"])])
    kb = KnowledgeBase(records={
        "CVE-CLS": build_entry("CVE-CLS", [PRE], [POST, extra]),
    })
    assert query_unqualified(kb, "New") == set()


def test_query_unqualified_no_hit():
    assert query_unqualified(_two_cve_kb(), "Nope: void nothing()") == set()


def test_index_coherence(corpus_kb):
    for cve, records in corpus_kb.records.items():
        for rec in records:
            assert cve in query_fqn(corpus_kb, rec.construct.fqn)
            if rec.construct.kind == "method":
                hits = query_unqualified(corpus_kb, rec.construct.unqualified)
                assert (cve, rec.construct.fqn) in hits
            assert cve in corpus_kb.candidate_cves_for_class(rec.declaring_class)
            assert cve in corpus_kb.candidate_cves_for_unqualified_class(
                strip_packages(rec.declaring_class))


def test_asks_about_method_only_for_changed_method_records():
    records = build_entry("CVE-X", [PRE], [POST])
    kb = KnowledgeBase(records={"CVE-X": records})
    assert kb.asks_about_method("a.C", "check", "(I)I")
    assert kb.asks_about_method("shaded.a.C", "check", "(I)I")     # unqualified
    assert not kb.asks_about_method("a.C", "check", "(J)I")
    assert not kb.asks_about_method("a.C", "fresh", "(I)Z")        # added
    assert not kb.asks_about_method("a.C", "legacy", "()V")        # removed
    assert not kb.asks_about_method("a.C", "<init>", "()V")
    # Unchecked method names with ".", " " or "(" render signatures whose
    # unqualified form can match a record under another name.
    assert kb.asks_about_method("b.C", "x.check", "(I)I")
    assert not kb.asks_about_method("b.C", "x.other", "(I)I")


def test_manifest_build(tmp_path, corpus):
    manifest = materialize_manifest(corpus, tmp_path)
    entries = parse_manifest(manifest)
    assert len(entries) == 10
    kb, stats = build_from_manifest(manifest)
    assert sorted(stats.built) == corpus.cve_ids
    assert not stats.empty_diff and not stats.errors
    for cve in corpus.cve_ids:
        assert kb.records[cve]


def test_manifest_build_reports_mistyped_pool_reference(tmp_path, corpus,
                                                       mistyped_beta_pre):
    """A fix class whose changed method names a pool entry of the wrong
    kind lands in the build errors; the other entries are still built."""
    manifest = materialize_manifest(corpus, tmp_path)
    name, data = mistyped_beta_pre
    (tmp_path / "CVE-9000-0002" / "pre" / (name.replace(".", "/") + ".class")
     ).write_bytes(data)
    kb, stats = build_from_manifest(manifest)
    [(cve, message)] = stats.errors
    assert cve == "CVE-9000-0002" and "found Utf8" in message
    assert sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]
    assert sorted(kb.records) == sorted(stats.built) and not stats.empty_diff


def test_manifest_rejects_duplicates(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("CVE-1 a b\nCVE-1 c d\n")
    with pytest.raises(KbFormatError):
        parse_manifest(p)

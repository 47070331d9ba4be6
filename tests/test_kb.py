"""Knowledge-base building, persistence and queries."""

import errno
import hashlib
import itertools
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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
from jarscan.cpg import FixSignature, Triplet, method_triplets, unqualify
from jarscan.classfile.descriptors import method_signature
from jarscan.classfile.model import key_digest, resolved_code, stripped_code
from jarscan.errors import (BadConstantPoolRef, CorruptFile, EmptyDiff, KbFormatError,
                            LiftError, VersionMismatch)
from jarscan.classfile.constructs import ConstructId
from jarscan.kb import (
    FORMAT_VERSION,
    ConstructRecord,
    KnowledgeBase,
    _classes_in_dir,
    build_entry,
    build_from_manifest,
    load,
    parse_manifest,
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

def _relaid_fix(bodies=None):
    """A fix that changes ``fix`` and adds ``first`` ahead of ``keep``, so
    every constant ``keep`` uses moves to another pool index; parsed with
    ``bodies`` as ``parse_class`` takes it."""
    keep = MethodModel("keep", "()I", 0x09, code=[
        ("ldc_string", "k"), ("invokestatic", "a.R", "h", "(Ljava/lang/String;)I"),
        ("getstatic", "a.R", "n", "I"), "iadd", "ireturn"])
    first = MethodModel("first", "()V", 0x09, code=[
        ("ldc_string", "z"), ("putstatic", "a.R", "s", "Ljava/lang/String;"),
        ("ldc_float", 2.5), "pop", "return"])
    fields = [FieldModel("n", "I"), FieldModel("s", "Ljava/lang/String;")]
    return tuple(parse_class(emit_class(ClassModel("a.R", fields=fields, methods=[
        default_constructor(), *methods, MethodModel("fix", "(I)I", 0x09, code=fix)])), bodies)
        for methods, fix in (([keep], ["iload_0", "ireturn"]),
                             ([first, keep], ["iload_0", "ineg", "ireturn"])))


def _method(cf, name):
    return next(m for m in cf.methods if m.name == name)


def _shortcut_off(monkeypatch):
    """Every pair takes the lift path, as if its two raw codes and its two
    resolved codes differed."""
    monkeypatch.setattr(jarscan.kb, "same_raw_code", lambda *args: False)
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
    pre, post = _relaid_fix(bodies=())
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
        fixes = {cve: ([parse_class(b, ()) for _n, b in corpus.pre_classes[cve]],
                       [parse_class(b, ()) for _n, b in corpus.post_classes[cve]])
                 for cve in corpus.cve_ids}
        fixes["CVE-R"] = tuple([cf] for cf in _relaid_fix(bodies=()))
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
    pre, post = _relaid_fix(bodies=())
    records = build_entry("CVE-U", [pre], [post])
    assert [(r.construct.fqn, r.change, r.signature) for r in records] == [
        ("a.R: int fix(int)", "changed", None), ("a.R: void first()", "added", None)]
    # A constant that changes in place is a change, though no index moved.
    make = lambda text: _cls("a.T", [MethodModel("t", "()Ljava/lang/String;", 0x09,
                                                code=[("ldc_string", text), "areturn"])])
    (record,) = build_entry("CVE-T", [make("old")], [make("new")])
    assert (record.construct.fqn, record.change) == ("a.T: java.lang.String t()", "changed")
    # Without the comparison, the re-laid methods are recorded as changed.
    _shortcut_off(monkeypatch)
    spurious = {r.construct.fqn for r in build_entry("CVE-U", [pre], [post])}
    assert "a.R: int keep()" in spurious


def test_code_digest_follows_resolved_code():
    pre, post = _relaid_fix()
    assert (key_digest(resolved_code(_method(pre, "keep"), pre.constant_pool))
            == key_digest(resolved_code(_method(post, "keep"), post.constant_pool)))
    make = lambda value: _cls("a.F", [MethodModel("z", "()F", 0x09, code=[
        ("ldc_float", value), "freturn"])])
    zero, minus_zero = make(0.0), make(-0.0)
    assert (key_digest(resolved_code(_method(zero, "z"), zero.constant_pool))
            != key_digest(resolved_code(_method(minus_zero, "z"),
                                        minus_zero.constant_pool)))


def test_code_digest_is_pinned():
    # A digest is compared with digests other processes wrote into KB
    # files, so its definition must not drift: not with the hash seed, not
    # with the declaring class's name.
    for name in ("a.F", "b.c.Renamed"):
        cf = _cls(name, [MethodModel("z", "(Ljava/lang/String;)I", 0x09, code=[
            "aload_0", ("invokevirtual", "java.lang.String", "length", "()I"),
            ("ldc_float", 2.5), "pop", ("ldc_string", "na\u00efve \u2603"), "pop",
            "ireturn"])])
        assert key_digest(resolved_code(_method(cf, "z"), cf.constant_pool)) == \
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
                assert key_digest(key) == rec.code[i]
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
    """A body whose code names a pool entry past the end of the pool has no
    resolved key: no digest, nothing to lift, and no entry to build."""
    [post] = [parse_class(b) for _n, b in corpus.post_classes["CVE-9000-0002"]]
    pre = parse_class(out_of_range_beta_pre[1])
    with pytest.raises(BadConstantPoolRef):
        resolved_code(_method(pre, "token"), pre.constant_pool)
    with pytest.raises(BadConstantPoolRef):
        method_triplets(pre, _method(pre, "token"))
    with pytest.raises(BadConstantPoolRef):
        build_entry("CVE-9000-0002", [pre], [post])


def test_code_digest_covers_catch_types():
    make = lambda catch: _cls("a.H", [MethodModel(
        "h", "(I)I", 0x09,
        code=["TRY:", "iload_0", "iconst_1", "idiv", "END:", "ireturn",
              "H:", "pop", "iconst_m1", "ireturn"],
        handlers=[("TRY", "END", "H", catch)])])
    digests = {key_digest(resolved_code(_method(cf, "h"), cf.constant_pool))
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
    assert any(codes(corpus_kb).values())
    assert codes(loaded) == codes(corpus_kb)
    # Without the optional field the KB loads, with the same records
    # otherwise and no digest to look up.
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
    codes = lambda kb: [r.code for records in kb.records.values() for r in records]
    assert loaded == corpus_kb
    assert any(stripped(corpus_kb).values())
    assert stripped(loaded) == stripped(corpus_kb)
    # Without the optional field the KB loads, with the code digests kept.
    assert set(stripped(corpus_kb_without_stripped).values()) == {None}
    assert codes(corpus_kb_without_stripped) == codes(corpus_kb)


@pytest.mark.parametrize("name", ["we\nird", "we\x1fird", "we\x10ird", "we\x10Jird",
                                  "we\rird\u2028"],
                         ids=["newline", "separator", "escape", "escape-then-J",
                              "other-line-breaks"])
def test_labels_with_line_breaks_and_separators_survive_save_and_load(tmp_path, name):
    """A member name may hold line breaks, U+001F and U+0010 (JVMS
    §4.2.2), and so may the labels of a signature; they load back."""
    def cls(extra):
        return _cls("a.C", [MethodModel("check", "(I)I", 0x09, code=[
            "iload_0", ("invokestatic", "a.C", name, "(I)I"), *extra, "ireturn"])])
    kb = KnowledgeBase(records={"CVE-X": build_entry("CVE-X", [cls([])], [cls(["ineg"])])})
    [rec] = [r for r in kb.records["CVE-X"] if r.signature is not None]
    sig = rec.signature
    assert any(name in label for t in sig.ct | sig.pt | sig.nt for label in t)
    p = tmp_path / "kb.txt"
    save(kb, p)
    assert load(p) == kb


# Labels JSON must escape, or that a line- or label-splitting encoding
# would have had to: line breaks, U+001F, U+0010, "" and lone surrogates,
# the low ones the class-file decoder gives for bytes that are not UTF-8
# (JSON would read a high one before a low one as one character).
_ODD_LABELS = st.text(alphabet=["\n", "\x1f", "\x10", "J", "\r", "\u2028", "\udc80",
                                "\udcff", "a", "."], max_size=3)
_ODD_TRIPLETS = st.frozensets(st.builds(Triplet, _ODD_LABELS, _ODD_LABELS, _ODD_LABELS),
                              max_size=5)


def _signed_kb(sig) -> KnowledgeBase:
    return KnowledgeBase(records={"CVE-X": [ConstructRecord(
        ConstructId("method", "a.C: int check(int)"), "changed", sig)]})


@given(_ODD_TRIPLETS, _ODD_TRIPLETS, _ODD_TRIPLETS, _ODD_LABELS)
def test_signatures_survive_save_and_load(tmp_path_factory, ct, pt, nt, shared):
    """Any labels load back as they were saved, one label shared by CT, PT
    and NT included, and each distinct label is one string object."""
    sig = FixSignature(ct=ct | {Triplet(shared, "CFG", "c")},
                       pt=pt | {Triplet("p", "DATA", shared)},
                       nt=nt | {Triplet(shared, shared, shared)})
    p = tmp_path_factory.mktemp("sig") / "kb.txt"
    save(_signed_kb(sig), p)
    [rec] = load(p).records["CVE-X"]
    assert rec.signature == sig
    labels = [label for part in (rec.signature.ct, rec.signature.pt, rec.signature.nt)
              for t in part for label in t]
    assert len(set(map(id, labels))) == len(set(labels))


def test_signature_is_stored_as_label_indices(tmp_path):
    """A signature is its record's distinct labels, sorted, and each part
    as the flat label indices of its sorted triplets."""
    sig = FixSignature(ct=frozenset({Triplet("b", "CFG", "a"), Triplet("a", "CFG", "b")}),
                       pt=frozenset(), nt=frozenset({Triplet("b", "DATA", "b")}))
    p = tmp_path / "kb.txt"
    save(_signed_kb(sig), p)
    [rec] = json.loads(p.read_text(encoding="utf-8").splitlines()[1])["CVE-X"]
    assert rec["signature"] == {"labels": ["CFG", "DATA", "a", "b"],
                                "ct": [2, 0, 3, 3, 0, 2], "pt": [], "nt": [3, 1, 3]}


def _without(obj: dict, name: str) -> dict:
    return {k: v for k, v in obj.items() if k != name}


@pytest.mark.parametrize("edit, named", [
    (lambda s: {**s, "ct": [True, *s["ct"][1:]]}, "ct is not a list of label index"),
    (lambda s: {**s, "ct": [0.0, *s["ct"][1:]]}, "ct is not a list of label index"),
    (lambda s: {**s, "ct": ["0", *s["ct"][1:]]}, "ct is not a list of label index"),
    (lambda s: {**s, "pt": [-1, *s["pt"][1:]]}, "pt is not a list of label index"),
    (lambda s: {**s, "nt": [*s["nt"][:2], len(s["labels"])]}, "nt is not a list of label index"),
    (lambda s: {**s, "ct": s["ct"] + [0]}, "ct is not a list of label index"),
    (lambda s: {**s, "pt": {"0": 0}}, "pt is not a list of label index"),
    (lambda s: _without(s, "nt"), "nt is not a list of label index"),
    (lambda s: {**s, "labels": [7, *s["labels"][1:]]}, "labels is not a list of strings"),
    (lambda s: {**s, "labels": "CFG"}, "labels is not a list of strings"),
    (lambda s: _without(s, "labels"), "labels is not a list of strings"),
    (lambda s: list(s), "is not an object"),
], ids=["bool-index", "float-index", "string-index", "negative-index", "index-out-of-range",
        "length-not-a-multiple-of-3", "part-not-a-list", "missing-part",
        "label-not-a-string", "labels-not-a-list", "missing-labels", "not-an-object"])
def test_malformed_signature_is_a_kb_format_error(tmp_path, edit, named):
    """Each part of a signature must be a flat list of label index triples
    and its labels a list of strings; any other shape is refused, naming
    the signature and the part."""
    sig = FixSignature(ct=frozenset({Triplet("a", "CFG", "b")}),
                       pt=frozenset({Triplet("b", "CFG", "c")}),
                       nt=frozenset({Triplet("c", "DATA", "a")}))
    saved = tmp_path / "kb.txt"
    save(_signed_kb(sig), saved)
    body = json.loads(saved.read_text(encoding="utf-8").splitlines()[1])
    [rec] = body["CVE-X"]
    rec["signature"] = edit(rec["signature"])
    p = tmp_path / "edited.txt"
    p.write_bytes(_with_checksum(f"jarscan-kb {FORMAT_VERSION}\n{json.dumps(body)}\n".encode()))
    with pytest.raises(KbFormatError) as caught:
        load(p)
    assert caught.type is KbFormatError
    assert str(caught.value).startswith(f"{p}: record signature {named}")


def test_kb_body_is_an_object_of_record_lists(tmp_path, corpus_kb):
    """Line 2 of a saved KB is one JSON object mapping each CVE id to its
    records, each with a string ``fqn`` and ``change``: a reader may take
    the records a fix built without loading the KB."""
    p = tmp_path / "kb.txt"
    save(corpus_kb, p)
    body = json.loads(p.read_text(encoding="utf-8").splitlines()[1])
    assert isinstance(body, dict) and sorted(body) == corpus_kb.cve_ids()
    for cve, records in body.items():
        assert isinstance(records, list)
        assert [(r["fqn"], r["change"]) for r in records] == [
            (r.construct.fqn, r.change) for r in sorted(
                corpus_kb.records[cve], key=lambda r: (r.construct.fqn, r.change))]


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


def _one_dumps_file(kb):
    """The KB file as one ``json.dumps`` of the whole body gives it."""
    body = json.dumps(
        {cve: [jarscan.kb._record_to_json(r) for r in sorted(
            records, key=lambda r: (r.construct.fqn, r.change))]
         for cve, records in kb.records.items()},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return _with_checksum(f"jarscan-kb {jarscan.kb.FORMAT_VERSION}\n{body}\n".encode())


def _with_checksum(payload: bytes) -> bytes:
    return payload + b"sha256=" + hashlib.sha256(payload).hexdigest().encode() + b"\n"


@pytest.mark.parametrize("which", ["corpus", "empty", "escaped"])
def test_save_writes_one_dumps_of_the_body(tmp_path, corpus_kb, which):
    records = build_entry("CVE-X", [PRE], [POST])
    kb = {"corpus": lambda: corpus_kb,
          "empty": KnowledgeBase,
          "escaped": lambda: KnowledgeBase(records={
              'CVE "quoted" \\ back\nslash': records, "CVE-\xe9\u2028\U0001f600": records,
              "CVE-\x00\x1f": list(reversed(records)), "": [], "CVE-/": records})}[which]()
    p, again = tmp_path / "kb.txt", tmp_path / "again.txt"
    save(kb, p)
    assert p.read_bytes() == _one_dumps_file(kb)
    save(load(p), again)
    assert again.read_bytes() == p.read_bytes()


def _file_cases():
    kb = KnowledgeBase(records={"CVE-X": build_entry("CVE-X", [PRE], [POST])})
    saved = _one_dumps_file(kb)
    recs = json.dumps(json.loads(saved.splitlines()[1])["CVE-X"])
    some = json.dumps(json.loads(recs)[:1])
    pretty = f"jarscan-kb {FORMAT_VERSION}\n{json.dumps({'CVE-X': json.loads(recs)}, indent=2)}\n"
    one_digest = [{**r, "code": r["code"][:1]} if "code" in r else r for r in json.loads(recs)]
    flipped_sum = bytearray(saved)
    flipped_sum[-2] ^= 0x01
    flipped_body = bytearray(saved)
    flipped_body[len(saved) // 2] ^= 0x01

    def checked(body, header=f"jarscan-kb {FORMAT_VERSION}\n", end="\n"):
        return _with_checksum(f"{header}{body}{end}".encode())

    return {
        "saved": saved,
        "pretty": _with_checksum(pretty.encode()),
        "pretty-crlf": _with_checksum(pretty.encode()).replace(b"\n", b"\r\n"),
        "pretty-cr": _with_checksum(pretty.encode()).replace(b"\n", b"\r"),
        "crlf-summed-as-crlf": _with_checksum(pretty.replace("\n", "\r\n").encode()),
        "duplicate": checked(f'{{"CVE-B":{recs},"CVE-A":[],"CVE-B":{some}}}'),
        "duplicate-bad-first": checked(f'{{"CVE-B":[{{"kind":"class"}}],"CVE-B":{recs}}}'),
        "duplicate-bad-last": checked(f'{{"CVE-B":{recs},"CVE-B":[{{"kind":"class"}}]}}'),
        "list": checked("[]"),
        "string": checked('"CVE-X"'),
        "missing-fqn": checked('{"CVE-X":[{"kind":"class","change":"added"}]}'),
        "record-not-object": checked('{"CVE-X":[5]}'),
        "code-one-digest": checked(json.dumps({"CVE-X": one_digest})),
        "value-empty-string": checked('{"CVE-X":""}'),
        "value-nan": checked('{"CVE-X":NaN}'),
        "trailing-comma": checked('{"CVE-X":[],}'),
        "extra-data": checked("{} {}"),
        "unclosed": checked('{"CVE-X":[]'),
        "key-not-string": checked("{1:[]}"),
        "deeply-nested": checked('{"CVE-X":' + "[" * 200_000 + "]" * 200_000 + "}"),
        "json-whitespace": checked(' \t{ "CVE-X" :\t[ ] ,"CVE-Y": [] } \t'),
        "bom-body": checked("\ufeff{}"),
        "bom-file": b"\xef\xbb\xbf" + checked("{}"),
        "form-feed-ends-header": checked("{}", header=f"jarscan-kb {FORMAT_VERSION}\x0c"),
        "line-separator-in-id": checked('{"CVE-\u2028X":[]}'),
        "line-separator-ends-header": checked("{}", header=f"jarscan-kb {FORMAT_VERSION}\u2028"),
        "next-line-ends-header": checked("{}", header=f"jarscan-kb {FORMAT_VERSION}\x85"),
        "line-separator-ends-body": checked("{}", end="\u2028"),
        "header-extras": checked("{}", header=f"jarscan-kb {FORMAT_VERSION} extra\n"),
        "header-no-version": checked("{}", header="jarscan-kb \n"),
        "header-bad-version": checked("{}", header="jarscan-kb one\n"),
        "header-version-1": checked("{}", header="jarscan-kb 1\n"),
        "no-final-newline": saved[:-1],
        "blank-line-after-checksum": saved + b"\n",
        "two-lines": _with_checksum(f"jarscan-kb {FORMAT_VERSION}\n".encode()),
        "empty": b"",
        "not-utf-8": _with_checksum(f"jarscan-kb {FORMAT_VERSION}\n".encode()
                                + b'{"CVE-\xff":[]}\n'),
        "flipped-checksum-byte": bytes(flipped_sum),
        "flipped-body-byte": bytes(flipped_body),
        "version-mismatch": b"jarscan-kb 999\n{}\nsha256=x\n",
        "not-a-kb-file": b"something else entirely\nmore\nlines\n",
    }


@pytest.mark.parametrize("name", list(_file_cases()))
def test_load_agrees_with_the_whole_file_reader(tmp_path, name):
    """Each crafted file loads to the records it was written from, CVE
    ids in the file's order, or is refused with the error named for it."""
    p = tmp_path / "kb.txt"
    p.write_bytes(_file_cases()[name])
    records = build_entry("CVE-X", [PRE], [POST])
    accepted = {
        "saved": {"CVE-X": records},
        "pretty": {"CVE-X": records},
        "pretty-crlf": {"CVE-X": records},
        "pretty-cr": {"CVE-X": records},
        "duplicate": {"CVE-B": records[:1], "CVE-A": []},
        "duplicate-bad-first": {"CVE-B": records},
        "value-empty-string": {"CVE-X": []},
        "json-whitespace": {"CVE-X": [], "CVE-Y": []},
        "form-feed-ends-header": {},
        "line-separator-in-id": {"CVE-\u2028X": []},
        "line-separator-ends-header": {},
        "next-line-ends-header": {},
        "header-extras": {},
        "no-final-newline": {"CVE-X": records},
    }
    if name not in accepted:
        refused = {"crlf-summed-as-crlf": CorruptFile,
                   "blank-line-after-checksum": CorruptFile,
                   "flipped-checksum-byte": CorruptFile,
                   "flipped-body-byte": CorruptFile,
                   "header-version-1": VersionMismatch,
                   "version-mismatch": VersionMismatch}.get(name, KbFormatError)
        with pytest.raises(KbFormatError) as caught:
            load(p)
        assert caught.type is refused
        return
    got = load(p)
    assert got == KnowledgeBase(records=accepted[name])
    assert list(got.records) == list(accepted[name])
    if name == "duplicate":
        # The last value of a repeated CVE id, in the id's first place.
        assert list(got.records) == ["CVE-B", "CVE-A"]
        assert len(got.records["CVE-B"]) == 1


_EDIT_CHARS = list('{}[]":,\\ \t\n\r\x0b\x0c\x1c\x85\u2028\ufeffaZ0-')


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                          st.text(alphabet=_EDIT_CHARS, max_size=3)), max_size=4))
def test_load_agrees_with_the_whole_file_reader_on_edited_bodies(tmp_path_factory, edits):
    """Edits anywhere in a checksummed body, line breaks of every kind
    included, leave a file that loads or is refused with KbFormatError,
    never with another exception."""
    kb = KnowledgeBase(records={"CVE-X": build_entry("CVE-X", [PRE], [POST])})
    body = _one_dumps_file(kb).decode().splitlines()[1]
    for at, cut, text in edits:
        at %= len(body) + 1
        body = body[:at] + text + body[at + cut:]
    p = tmp_path_factory.mktemp("edit") / "kb.txt"
    p.write_bytes(_with_checksum(f"jarscan-kb {FORMAT_VERSION}\n{body}\n".encode()))
    try:
        load(p)
    except KbFormatError:
        pass


@pytest.mark.parametrize("body", [
    "[]",
    '{"CVE-X":[{"kind":"class","change":"added","context":[],"signature":null}]}',
])
def test_malformed_body_with_valid_checksum_is_a_kb_format_error(tmp_path, body):
    """A body that is JSON but not an object of record lists is refused
    as a KB, not left to fail in the reader (here: a list body, and a
    record without its ``fqn``)."""
    p = tmp_path / "kb.txt"
    p.write_bytes(_with_checksum(f"jarscan-kb {FORMAT_VERSION}\n{body}\n".encode()))
    with pytest.raises(KbFormatError):
        load(p)


@pytest.mark.parametrize("edit, named", [
    ({"kind": "Method"}, "kind 'Method'"),
    ({"change": "modified"}, "change 'modified'"),
    ({"kind": "Method", "change": "modified"}, "kind 'Method'"),
    ({"kind": ["method"]}, "kind ['method']"),
])
def test_record_of_unknown_kind_or_change_is_a_kb_format_error(tmp_path, corpus_kb, edit, named):
    """A record whose kind is not class, interface or method, or whose
    change is not added, removed or changed, is refused, naming the field
    and its value: the scanner's rules know no other value, so such a
    record would drop its CVE from every scan."""
    saved = tmp_path / "kb.txt"
    save(corpus_kb, saved)
    body = json.loads(saved.read_text(encoding="utf-8").splitlines()[1])
    body["CVE-9000-0001"] = [{**r, **edit} for r in body["CVE-9000-0001"]]
    p = tmp_path / "edited.txt"
    p.write_bytes(_with_checksum(f"jarscan-kb {FORMAT_VERSION}\n{json.dumps(body)}\n".encode()))
    with pytest.raises(KbFormatError) as caught:
        load(p)
    assert caught.type is KbFormatError
    assert str(caught.value).startswith(f"{p}: record {named} is not one of ")
    assert load(saved) == corpus_kb


@pytest.mark.parametrize("edit, field", [
    ({"fqn": 7}, "fqn"),
    ({"fqn": ["a.C"]}, "fqn"),
    ({"context": "C: int f(int)"}, "context"),
    ({"context": [1, 2]}, "context"),
    ({"context": None}, "context"),
    ({"code": "ab"}, "code"),
    ({"code": ["ab"]}, "code"),
    ({"code": ["a", 2]}, "code"),
    ({"stripped": "ab"}, "stripped"),
    ({"stripped": ["a", "b", "c"]}, "stripped"),
])
def test_record_field_of_the_wrong_type_is_a_kb_format_error(tmp_path, corpus_kb, edit, field):
    """fqn must be a string, context a list of strings, and code and
    stripped, where present, a list of two strings. A string context
    would load as the set of its characters and a string digest pair as
    its characters, so each is refused, naming the field."""
    saved = tmp_path / "kb.txt"
    save(corpus_kb, saved)
    body = json.loads(saved.read_text(encoding="utf-8").splitlines()[1])
    body["CVE-9000-0001"] = [{**r, **edit} for r in body["CVE-9000-0001"]]
    p = tmp_path / "edited.txt"
    p.write_bytes(_with_checksum(f"jarscan-kb {FORMAT_VERSION}\n{json.dumps(body)}\n".encode()))
    with pytest.raises(KbFormatError) as caught:
        load(p)
    assert caught.type is KbFormatError
    assert str(caught.value).startswith(f"{p}: record {field} is not a ")


def test_failed_save_keeps_the_previous_kb(tmp_path, corpus_kb):
    """The last CVE cannot be encoded, so the write fails after the
    others are written; the old file is as it was and nothing is left
    beside it."""
    p = tmp_path / "kb.txt"
    save(corpus_kb, p)
    before = p.read_bytes()
    bad = ConstructRecord(ConstructId("class", "z.Z"), "added", None,
                          frozenset({b"not text"}))
    with pytest.raises(TypeError):
        save(KnowledgeBase(records={**corpus_kb.records, "CVE-ZZZZ": [bad]}), p)
    assert p.read_bytes() == before
    assert os.listdir(tmp_path) == ["kb.txt"]


def test_save_keeps_the_mode_and_the_symlink_of_the_target(tmp_path, corpus_kb):
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old")
    real.chmod(0o640)
    link.symlink_to(real)
    save(corpus_kb, link)
    assert link.is_symlink() and stat.S_IMODE(real.stat().st_mode) == 0o640
    assert real.read_bytes() == _one_dumps_file(corpus_kb)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root writes a file without write permission")
def test_save_refuses_a_kb_it_may_not_write(tmp_path, corpus_kb):
    p = tmp_path / "kb.txt"
    p.write_text("old")
    p.chmod(0o444)
    with pytest.raises(PermissionError):
        save(corpus_kb, p)
    assert p.read_text() == "old" and os.listdir(tmp_path) == ["kb.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_save_writes_a_fifo_in_place(tmp_path, corpus_kb):
    fifo = tmp_path / "kb.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        save(corpus_kb, fifo)
    finally:
        reader.join(timeout=10)
    assert got == [_one_dumps_file(corpus_kb)]
    assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["kb.fifo"]


_SAVE_PEAK = """\
import json, sys
from pathlib import Path
from jarscan.classfile.constructs import ConstructId
from jarscan.kb import ConstructRecord, KnowledgeBase, _record_to_json, save
context = frozenset(f"C: void member{i}(java.lang.String, int)" for i in range(2000))
kb = KnowledgeBase(records={
    f"CVE-{n:04}": [ConstructRecord(ConstructId("class", f"p.C{n}"), "changed",
                                    None, context)]
    for n in range(100)})
if sys.argv[1] == "save":
    save(kb, sys.argv[2])
elif sys.argv[1] == "dumps":
    body = json.dumps({cve: [_record_to_json(r) for r in records]
                       for cve, records in kb.records.items()})
status = Path("/proc/self/status").read_text()
print([int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")][0])
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self")
def test_save_memory_does_not_grow_with_the_kb(tmp_path):
    """Saving a KB of 100 CVEs that share one large class context (a
    9 MB file) raises the process's peak RSS by far less than the file's
    size. Each figure is a fresh child's VmHWM: one that only builds the
    KB, one that saves it, and one that encodes its body whole, which
    shows the measurement sees a KB-sized string when one is held."""
    kb_path = tmp_path / "kb.txt"

    def peak_kb(mode):
        out = subprocess.run(
            [sys.executable, "-c", _SAVE_PEAK, mode, str(kb_path)],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        return int(out.stdout)

    baseline = peak_kb("build")
    saved = peak_kb("save")
    size_kb = kb_path.stat().st_size // 1024
    assert size_kb >= 8 * 1024
    assert saved - baseline <= size_kb // 8
    assert peak_kb("dumps") - baseline >= size_kb * 3 // 4


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


def _changed(kb, cls, name, desc) -> bool:
    """Whether a scan decodes this method's body: its unqualified
    signature is one of the KB's changed methods."""
    return strip_packages(method_signature(cls, name, desc)) in kb.changed_methods


def test_query_fqn_unknown_empty():
    kb = _two_cve_kb()
    assert kb.candidate_cves_for_class("no.Such") == set()
    assert not _changed(kb, "no.Such", "thing", "()V")


def test_query_fqn_two_cves():
    """A CVE is a candidate for each class it has a record in, by FQN;
    two CVEs with records in one class are both candidates for it."""
    kb = _two_cve_kb()
    assert kb.candidate_cves_for_class("a.C") == {"CVE-A", "CVE-B"}
    assert kb.candidate_cves_for_unqualified_class("C") == {"CVE-A", "CVE-B"}
    assert _changed(kb, "a.C", "check", "(I)I")


def test_query_unqualified_ambiguity_two_packages():
    """One unqualified name can stand for classes of several packages,
    and so for several CVEs."""
    p1 = _cls("p1.C", [MethodModel("m", "()I", 0x09, code=["iconst_1", "ireturn"])])
    q1 = _cls("p1.C", [MethodModel("m", "()I", 0x09, code=["iconst_2", "ireturn"])])
    p2 = _cls("p2.C", [MethodModel("m", "()I", 0x09, code=["iconst_3", "ireturn"])])
    q2 = _cls("p2.C", [MethodModel("m", "()I", 0x09, code=["iconst_4", "ireturn"])])
    kb = KnowledgeBase(records={
        "CVE-1": build_entry("CVE-1", [p1], [q1]),
        "CVE-2": build_entry("CVE-2", [p2], [q2]),
    })
    assert kb.candidate_cves_for_unqualified_class("C") == {"CVE-1", "CVE-2"}
    assert kb.candidate_cves_for_class("p1.C") == {"CVE-1"}
    assert kb.candidate_cves_for_class("p2.C") == {"CVE-2"}
    assert _changed(kb, "r.C", "m", "()I")


def test_query_unqualified_ignores_class_records():
    """An added class's methods are not changed methods: no scan lifts
    them under its unqualified name."""
    extra = _cls("a.New", [MethodModel("x", "()V", 0x09, code=["return"])])
    kb = KnowledgeBase(records={
        "CVE-CLS": build_entry("CVE-CLS", [PRE], [POST, extra]),
    })
    assert kb.candidate_cves_for_unqualified_class("New") == {"CVE-CLS"}
    assert not _changed(kb, "shaded.New", "x", "()V")


def test_query_unqualified_no_hit():
    kb = _two_cve_kb()
    assert kb.candidate_cves_for_unqualified_class("Nope") == set()
    assert not _changed(kb, "r.Nope", "nothing", "()V")


def test_class_and_method_fqns_resolve_independently():
    """An added class is a candidate by its name; its methods are not
    changed methods, so no scan lifts them."""
    extra = _cls("a.New", [MethodModel("x", "()V", 0x09, code=["return"])])
    kb = KnowledgeBase(records={
        "CVE-CLS": build_entry("CVE-CLS", [PRE], [POST, extra]),
    })
    assert "CVE-CLS" in kb.candidate_cves_for_class("a.New")
    assert not _changed(kb, "a.New", "x", "()V")
    assert not _changed(kb, "r.New", "x", "()V")


def test_relocated_changed_method_is_asked_about():
    """The paper's example: a.C's foo(a.b.X) changed, so a relocated
    r.C: void foo(r.b.X) is a body a repack scan may lift."""
    kb = KnowledgeBase(records={"CVE-L": build_entry(
        "CVE-L",
        [_cls("a.C", [MethodModel("foo", "(La/b/X;)V", 0x01, code=["return"])])],
        [_cls("a.C", [MethodModel("foo", "(La/b/X;)V", 0x01, code=[
            ("aload", 1),
            ("invokevirtual", "a.b.X", "bar", "()I"),
            ("istore", 2), "return"]),
              MethodModel("extra", "()V", 0x01, code=["return"])])])})
    [changed] = [r for r in kb.records["CVE-L"] if r.change == "changed"]
    assert changed.construct.unqualified == "C: void foo(X)"
    assert kb.candidate_cves_for_unqualified_class("C") == {"CVE-L"}
    assert _changed(kb, "r.C", "foo", "(Lr/b/X;)V")
    assert not _changed(kb, "r.C", "extra", "()V")      # added


def test_index_coherence(corpus_kb):
    for cve, records in corpus_kb.records.items():
        for rec in records:
            assert rec.construct.unqualified == strip_packages(rec.construct.fqn)
            assert cve in corpus_kb.candidate_cves_for_class(rec.declaring_class)
            assert cve in corpus_kb.candidate_cves_for_unqualified_class(
                strip_packages(rec.declaring_class))


def test_asks_about_method_only_for_changed_method_records():
    records = build_entry("CVE-X", [PRE], [POST])
    kb = KnowledgeBase(records={"CVE-X": records})
    assert _changed(kb, "a.C", "check", "(I)I")
    assert _changed(kb, "shaded.a.C", "check", "(I)I")     # unqualified
    assert not _changed(kb, "a.C", "check", "(J)I")
    assert not _changed(kb, "a.C", "fresh", "(I)Z")        # added
    assert not _changed(kb, "a.C", "legacy", "()V")        # removed
    assert not _changed(kb, "a.C", "<init>", "()V")
    # Unchecked method names with ".", " " or "(" render signatures whose
    # unqualified form can match a record under another name.
    assert _changed(kb, "b.C", "x.check", "(I)I")
    assert not _changed(kb, "b.C", "x.other", "(I)I")


def test_simple_class_names_hold_every_class_the_kb_asks_about():
    """Over every name of up to five characters from an alphabet with a
    non-ASCII letter and a character outside Java identifiers, a class
    a scan can look up (some record lives in it by FQN or by unqualified
    name) has a simple name in simple_class_names, where strip_packages
    leaves a package in ("\xe9.F") or cuts one out of the middle of a
    name ("-a.F" strips to "-F")."""
    by_stripped = {}
    for name in ("".join(chars) for n in range(1, 6)
                 for chars in itertools.product("aF\xe9.-$", repeat=n)):
        by_stripped.setdefault(strip_packages(name), []).append(name)
    checked = 0
    for group in by_stripped.values():
        for cls in group:
            kb = KnowledgeBase(records={"CVE-X": [ConstructRecord(
                ConstructId("class", cls), "removed", None)]})
            for fqn in group:
                assert (kb.candidate_cves_for_class(fqn)
                        or kb.candidate_cves_for_unqualified_class(strip_packages(fqn)))
                assert fqn.rpartition(".")[2] in kb.simple_class_names, (cls, fqn)
                checked += fqn.rpartition(".")[2] != cls.rpartition(".")[2]
    assert checked > 100            # pairs whose simple names differ


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


def test_manifest_build_reports_unreachable_unresolvable_reference(
        tmp_path, corpus, unreachable_out_of_range_beta_pre):
    """A fix class whose method names a pool entry past the end of the pool,
    even in code no path reaches, is a malformed class: the method has no
    resolved code, and so nothing to lift."""
    manifest = materialize_manifest(corpus, tmp_path)
    name, data = unreachable_out_of_range_beta_pre
    (tmp_path / "CVE-9000-0002" / "pre" / (name.replace(".", "/") + ".class")
     ).write_bytes(data)
    kb, stats = build_from_manifest(manifest)
    [(cve, message)] = stats.errors
    assert cve == "CVE-9000-0002"
    assert message == "malformed class: constant pool index 65535 out of range"
    assert sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_manifest_build_reports_an_unparsable_fix_class(tmp_path, corpus):
    """A fix class that does not parse makes its CVE a build error with no
    records; the copy on the other side is not recorded as added or
    removed."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve, other = corpus.cve_ids[:2]
    name, data = corpus.pre_classes[other][0]       # not part of cve's fix
    copies = {side: tmp_path / cve / side / "extra" / (name.replace(".", "/") + ".class")
              for side in ("pre", "post")}
    for side, copy in copies.items():
        copy.parent.mkdir(parents=True)
        copy.write_bytes(data[:6] + struct.pack(">H", 70 if side == "post" else 49)
                         + data[8:])
    kb, stats = build_from_manifest(manifest)
    [(bad, message)] = stats.errors
    assert bad == cve
    assert message.startswith(f"malformed class: {copies['post'].resolve()}: ")
    assert "major version 70" in message
    assert cve not in kb.records and cve not in stats.built
    assert sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_manifest_build_reports_an_invalid_newarray_type(tmp_path, corpus, newarray_class):
    """A fix class whose newarray names no element type is a malformed
    class; the other entries are still built."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = corpus.cve_ids[0]
    bad, fixed = (tmp_path / cve / side / "p" / "A.class" for side in ("pre", "post"))
    for path, data in ((bad, newarray_class(3)), (fixed, newarray_class(10, 2))):
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
    kb, stats = build_from_manifest(manifest)
    assert stats.errors == [(cve, f"malformed class: {bad.resolve()}: "
                                  "newarray@1 of invalid element type 3")]
    assert sorted(kb.records) == sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def _keep_and_fix(keep: MethodModel, fix_code: list) -> bytes:
    """A class p.F with the method ``keep`` and ``int fix(int)`` of
    ``fix_code``."""
    return emit_class(ClassModel("p.F", methods=[
        default_constructor(), keep, MethodModel("fix", "(I)I", 0x09, code=fix_code)]))


def _replace_once(data: bytes, old: bytes, new: bytes) -> bytes:
    assert data.count(old) == 1 and len(old) == len(new)
    return data.replace(old, new)


# A fault the decoder rejects, each in the body of a method a fix does not
# change: the method's code and handlers, the bytes to find in its Code
# attribute and what to put there, and the decoder's message.
_HANDLED = (["T:", ("push_int", 100), "pop", "E:", "return", "H:", "pop", "return"],
            [("T", "E", "H", None)])
_TABLE = struct.pack(">H4H", 1, 0, 3, 4, 0)     # [0, 3) handled at 4, any type
_UNCHANGED_BODY_FAULTS = {
    "branch target": ((["iconst_0", ("ifeq", "L"), "iconst_1", "pop", "L:", "return"], []),
                      bytes.fromhex("03990005"), bytes.fromhex("03990002"),
                      "branch target 3 of ifeq@1 is not an instruction boundary"),
    "handler pc": (_HANDLED, _TABLE, struct.pack(">H4H", 1, 0, 3, 1, 0),
                   "exception handler pc 1 is not a boundary"),
    "empty range": (_HANDLED, _TABLE, struct.pack(">H4H", 1, 2, 2, 4, 0),
                    "bad exception range [2, 2)"),
    "newarray type": (([("push_int", 1), ("newarray", 10), "pop", "return"], []),
                      bytes.fromhex("04bc0a57"), bytes.fromhex("04bc0357"),
                      "newarray@1 of invalid element type 3"),
    "unknown opcode": ((["nop", "nop", "return"], []), bytes.fromhex("000000030000b1"),
                       bytes.fromhex("0000000300e0b1"), "unknown opcode 0xe0 at offset 1"),
    "sub-attribute": ((["aconst_null", "pop", "return"], []),
                      bytes.fromhex("0157b100000000"), bytes.fromhex("0157b100000001"),
                      "class file ends inside an attribute at 15"),
}


@pytest.mark.parametrize("fault", sorted(_UNCHANGED_BODY_FAULTS))
def test_a_fault_in_an_unchanged_method_is_still_a_malformed_class(tmp_path, corpus, fault):
    """A body the decoder rejects makes its fix a malformed class naming
    the pre-fix file, as parsing each class whole did, though the fix
    leaves that body as it is; the other entries are still built."""
    (code, handlers), old, new, message = _UNCHANGED_BODY_FAULTS[fault]
    keep = MethodModel("keep", "()V", 0x09, code=code, handlers=handlers)
    manifest = materialize_manifest(corpus, tmp_path)
    cve = corpus.cve_ids[0]
    paths = {side: tmp_path / cve / side / "p" / "F.class" for side in ("pre", "post")}
    for side, fix_code in (("pre", ["iload_0", "ireturn"]),
                           ("post", ["iload_0", "ineg", "ireturn"])):
        paths[side].parent.mkdir(parents=True)
        paths[side].write_bytes(_replace_once(_keep_and_fix(keep, fix_code), old, new))
    kb, stats = build_from_manifest(manifest)
    assert stats.errors == [(cve, f"malformed class: {paths['pre'].resolve()}: {message}")]
    assert sorted(kb.records) == sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_only_bodies_not_proven_equal_are_decoded(tmp_path, corpus, monkeypatch):
    """Building the corpus KB decodes the bodies without a counterpart
    and both sides of each pair ``same_raw_code`` did not prove equal,
    once each, and nothing else; the KB is the one built from classes
    decoded whole."""
    bodies = proven = 0
    for cve in corpus.cve_ids:
        pre, post = ({cf.this_class: cf for cf in (parse_class(b, ()) for _n, b in side[cve])}
                     for side in (corpus.pre_classes, corpus.post_classes))
        bodies += sum(m.code is not None for side in (pre, post) for cf in side.values()
                      for m in cf.methods)
        for name in pre.keys() & post.keys():
            post_keys = {(m.name, m.descriptor): j for j, m in enumerate(post[name].methods)}
            for i, m in enumerate(pre[name].methods):
                j = post_keys.get((m.name, m.descriptor))
                proven += 2 * (j is not None
                               and jarscan.kb.same_raw_code(pre[name], i, post[name], j))
    expected = bodies - proven
    assert 0 < expected < bodies / 2

    decoded = []
    parser = sys.modules["jarscan.classfile.parser"]
    real = parser.decode_instructions
    monkeypatch.setattr(parser, "decode_instructions", lambda code: decoded.append(code)
                        or real(code))
    kb, stats = build_from_manifest(materialize_manifest(corpus, tmp_path))
    assert len(decoded) == expected and not stats.errors
    monkeypatch.undo()
    assert kb == KnowledgeBase(records={
        cve: build_entry(cve, [parse_class(b) for _n, b in corpus.pre_classes[cve]],
                         [parse_class(b) for _n, b in corpus.post_classes[cve]])
        for cve in corpus.cve_ids})


def test_a_class_declared_twice_on_one_side_is_a_build_error(tmp_path, corpus):
    """Two class files on one side of a fix that declare the same class
    make that CVE a build error naming the class and both files, in path
    order; the other entries are still built."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = corpus.cve_ids[0]
    name, data = corpus.post_classes[cve][0]
    rel = name.replace(".", "/") + ".class"
    first = tmp_path / cve / "post" / rel
    second = tmp_path / cve / "post" / "META-INF" / "versions" / "11" / rel
    second.parent.mkdir(parents=True)
    second.write_bytes(data)
    kb, stats = build_from_manifest(manifest)
    assert stats.errors == [(cve, f"class {name} declared twice: "
                                  f"{second.resolve()}, {first.resolve()}")]
    assert sorted(kb.records) == sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_manifest_build_reports_an_unreadable_fix_class(tmp_path, corpus):
    """A fix class file that cannot be read (here a dangling symlink) makes
    its CVE a build error; the other entries are still built."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = "CVE-9000-0006"
    dangling = tmp_path / cve / "post" / "Dangling.class"
    dangling.symlink_to(tmp_path / "missing.class")
    kb, stats = build_from_manifest(manifest)
    [(bad, message)] = stats.errors
    assert bad == cve
    path = dangling.parent.resolve() / dangling.name
    assert message == f"unreadable class: {path}: No such file or directory"
    assert cve not in kb.records and cve not in stats.built
    assert sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]
    assert sorted(kb.records) == sorted(stats.built) and not stats.empty_diff


_BUILD_ERRORS = """\
import json, sys
from jarscan.kb import build_from_manifest
print(json.dumps(build_from_manifest(sys.argv[1])[1].errors))
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_manifest_build_reports_a_fix_class_that_is_a_fifo(tmp_path, corpus):
    """A ``*.class`` that is not a regular file (here a FIFO, whose read
    would wait for a writer) makes its CVE a build error naming it. The
    build runs in a child with a timeout, so a read that blocks fails the
    test instead of hanging it."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = "CVE-9000-0006"
    fifo = tmp_path / cve / "pre" / "Fifo.class"
    os.mkfifo(fifo)
    out = subprocess.run([sys.executable, "-c", _BUILD_ERRORS, manifest],
                         check=True, capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    path = fifo.parent.resolve() / fifo.name
    assert json.loads(out.stdout) == [[cve, f"unreadable class: {path}: not a regular file"]]


def test_manifest_build_reports_a_fix_directory_that_is_a_file(tmp_path, corpus):
    """A pre or post directory that cannot be listed (here a regular file)
    is a build error naming it, not a directory with no classes."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = "CVE-9000-0006"
    pre = tmp_path / cve / "pre"
    shutil.rmtree(pre)
    pre.write_bytes(b"not a directory")
    kb, stats = build_from_manifest(manifest)
    assert stats.errors == [(cve, f"unreadable class: {pre.resolve()}: Not a directory")]
    assert sorted(kb.records) == sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_manifest_build_reports_an_unlistable_package_directory(tmp_path, corpus, monkeypatch):
    """A package directory that cannot be listed is a build error naming
    it; its classes are not dropped, which would record them as removed
    (or added) classes."""
    manifest = materialize_manifest(corpus, tmp_path)
    cve = "CVE-9000-0006"
    name, _data = corpus.post_classes[cve][0]
    locked = (tmp_path / cve / "post" / name.replace(".", "/")).parent.resolve()
    scandir = os.scandir

    def refusing_scandir(path="."):
        if os.fspath(path) == str(locked):
            raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing_scandir)
    kb, stats = build_from_manifest(manifest)
    assert stats.errors == [(cve, f"unreadable class: {locked}: Permission denied")]
    assert sorted(kb.records) == sorted(stats.built) == [c for c in corpus.cve_ids if c != cve]


def test_fix_directory_walk(tmp_path):
    """Fix classes are read in ``sorted(Path)`` order, which compares path
    parts ("a/b" before "a-c/x"); a directory named ``*.class`` is walked,
    not read, a symlinked directory is not followed, and a symlinked class
    is read."""
    names = {"a.class": "p.A", "a/b.class": "p.B", "a-c/x.class": "p.X",
             "d.class/e.class": "p.E"}
    for rel, name in names.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(emit_class(ClassModel(name)))
    (tmp_path / "link").symlink_to(tmp_path / "a", target_is_directory=True)
    (tmp_path / "link.class").symlink_to(tmp_path / "a.class")
    assert [cf.this_class for cf in _classes_in_dir(tmp_path)] == [
        "p.B", "p.X", "p.A", "p.E", "p.A"]


def test_manifest_rejects_duplicates(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("CVE-1 a b\nCVE-1 c d\n")
    with pytest.raises(KbFormatError):
        parse_manifest(p)

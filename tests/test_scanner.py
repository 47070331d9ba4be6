"""Scanner decision rules, aggregation, modes and invariance properties."""

import io
import json
import struct
import zipfile
import zlib

import pytest

from jarscan.classfile import (
    ClassModel,
    MethodModel,
    class_entry_path,
    default_constructor,
    emit_class,
    parse_class,
    parse_jar,
    strip_packages,
    write_jar,
)
import jarscan.cpg
from jarscan import scanner as scanner_mod
from jarscan.classfile import parser as parser_mod
from jarscan.classfile.descriptors import method_signature
from jarscan.classfile.model import UNDECODED
from jarscan.cpg import FixSignature, Triplet
from jarscan.errors import CodeNotDecoded
from jarscan.kb import ConstructRecord, KnowledgeBase, build_entry, class_member_context
from jarscan.classfile.constructs import ConstructId
from jarscan.modharness import modify
from jarscan.scanner import (
    FIXED,
    NOT_FLAGGED,
    SKIPPED,
    VULNERABLE,
    ConstructVerdict,
    JarView,
    ScanConfig,
    aggregate,
    match_class_context,
    match_triplets,
    report_to_json,
    retrieve_dependencies,
    scan,
    scan_jar_bytes,
)


def T(*names):
    return frozenset(Triplet(n, "CFG", n) for n in names)


def _verdict(v):
    return ConstructVerdict(fqn="x", kind="method", change="changed",
                            cve_id="CVE", verdict=v, mode="default")


# ------------------------------------------------------------ match_triplets

def test_nt_majority_vulnerable():
    sig = FixSignature(ct=T(), pt=T("p1", "p2", "p3"), nt=T("n1", "n2"))
    tm = T("n1", "n2", "p1")     # |NT∩Tm|=2 >= |PT∩Tm|=1
    v, counts = match_triplets(tm, sig, ScanConfig())
    assert v == VULNERABLE
    assert counts.nt_hit == 2 and counts.pt_hit == 1


def test_nt_equality_is_vulnerable():
    sig = FixSignature(ct=T(), pt=T("p1", "p2"), nt=T("n1", "n2"))
    tm = T("n1", "n2", "p1", "p2")   # 2 >= 2
    v, _ = match_triplets(tm, sig, ScanConfig())
    assert v == VULNERABLE


def test_exact_post_fix_method_is_fixed():
    ct, pt = T("c1", "c2"), T("p1")
    sig = FixSignature(ct=ct, pt=pt, nt=T("n1"))
    tm = ct | pt                     # the fixed body
    v, counts = match_triplets(tm, sig, ScanConfig())
    assert v == FIXED
    assert counts.nt_hit == 0 and counts.pt_hit == 1


def test_nt_empty_ratio_below_threshold_vulnerable():
    sig = FixSignature(ct=T("c"), pt=T("p1", "p2", "p3", "p4"), nt=T())
    tm = T("c", "p1")                # ratio 0.25 < 0.5
    v, counts = match_triplets(tm, sig, ScanConfig())
    assert v == VULNERABLE
    assert counts.pt_hit == 1 and counts.pt_size == 4


def test_nt_empty_ratio_exactly_half_is_fixed():
    sig = FixSignature(ct=T("c"), pt=T("p1", "p2", "p3", "p4"), nt=T())
    tm = T("c", "p1", "p2")          # ratio 0.5 >= 0.5
    v, _ = match_triplets(tm, sig, ScanConfig())
    assert v == FIXED


def test_repack_ct_gate_fails_closed():
    sig = FixSignature(ct=T("c1", "c2", "c3", "c4"), pt=T(), nt=T("n1"))
    tm = T("n1", "c1")               # ct ratio 0.25 <= 0.3: gate not passed
    v, _ = match_triplets(tm, sig, ScanConfig(), mode="repack")
    assert v == FIXED


def test_repack_ct_gate_passes_then_matches():
    sig = FixSignature(ct=T("c1", "c2", "c3"), pt=T(), nt=T("n1"))
    tm = T("n1", "c1", "c2")         # ct ratio 2/3 > 0.3, NT hit
    v, _ = match_triplets(tm, sig, ScanConfig(), mode="repack")
    assert v == VULNERABLE


def test_repack_empty_ct_fails_closed():
    sig = FixSignature(ct=T(), pt=T("p"), nt=T("n"))
    tm = T("n")
    v, _ = match_triplets(tm, sig, ScanConfig(), mode="repack")
    assert v == FIXED


def test_repack_unqualifies_both_sides():
    sig = FixSignature(
        ct=frozenset({Triplet("new a.b.X", "CFG", "goto")}),
        pt=frozenset(),
        nt=frozenset({Triplet("invoke_virtual a.b.X#evil():int(%)", "CFG", "goto")}),
    )
    tm = frozenset({
        Triplet("new r.a.b.X", "CFG", "goto"),
        Triplet("invoke_virtual r.a.b.X#evil():int(%)", "CFG", "goto"),
    })
    v, counts = match_triplets(tm, sig, ScanConfig(), mode="repack")
    assert v == VULNERABLE
    assert counts.ct_hit == 1 and counts.nt_hit == 1


# ------------------------------------------------------- class context gate

def _context_class(members):
    methods = [default_constructor()] + [
        MethodModel(n, "(I)I", 0x09, code=["iload_0", "ireturn"]) for n in members]
    return parse_class(emit_class(ClassModel("p.C", methods=methods)))


def test_class_context_identical_class_full_ratio():
    cf = _context_class(["m1", "m2", "m3"])
    ctx = class_member_context(cf)
    assert match_class_context(ctx, cf) == 1.0


def test_class_context_disjoint_zero():
    cf = _context_class(["m1", "m2"])
    other = _context_class([])
    other_ctx = frozenset({"Z: int zz(int)"})
    assert match_class_context(other_ctx, cf) == 0.0


def test_class_context_one_of_three_accepted_at_default():
    scanned = _context_class(["m1"])
    kb_ctx = frozenset({
        "C: int m1(int)", "C: int gone(int)", "C: int gone2(int)"})
    ratio = match_class_context(kb_ctx, scanned)
    assert ratio == pytest.approx(1 / 3)
    assert ratio > ScanConfig().theta_cc


def test_class_context_empty_rejected():
    assert match_class_context(frozenset(), _context_class(["m"])) == 0.0


# ----------------------------------------------------------------- aggregate

def test_aggregate_majority_vulnerable():
    assert aggregate([_verdict(VULNERABLE)] * 2 + [_verdict(FIXED)]) == VULNERABLE


def test_aggregate_tie_is_vulnerable():
    assert aggregate([_verdict(VULNERABLE), _verdict(FIXED)]) == VULNERABLE


def test_aggregate_fixed_majority_not_flagged():
    assert aggregate([_verdict(FIXED)] * 3) == NOT_FLAGGED


def test_aggregate_skipped_do_not_vote():
    votes = [_verdict(SKIPPED), _verdict(SKIPPED), _verdict(VULNERABLE),
             _verdict(FIXED), _verdict(FIXED)]
    assert aggregate(votes) == NOT_FLAGGED
    assert aggregate([_verdict(SKIPPED), _verdict(VULNERABLE)]) == VULNERABLE


def test_aggregate_all_skipped_not_flagged():
    assert aggregate([_verdict(SKIPPED)] * 3) == NOT_FLAGGED


# ------------------------------------------------------- retrieve dependencies

def test_retrieve_empty_dir(tmp_path):
    assert retrieve_dependencies(directory=tmp_path) == []


def test_retrieve_dir_with_jars(tmp_path):
    for name in ("a.jar", "b.jar", "sub/c.jar"):
        p = tmp_path / name
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(b"x")
    (tmp_path / "notajar.txt").write_text("no")
    paths = retrieve_dependencies(directory=tmp_path)
    assert [p.rsplit("/", 1)[-1] for p in paths] == ["a.jar", "b.jar", "c.jar"]


def test_retrieve_command_mode(tmp_path):
    a, b = tmp_path / "x.jar", tmp_path / "y.jar"
    a.write_bytes(b"x")
    b.write_bytes(b"y")
    paths = retrieve_dependencies(command=f"printf '{a}\\n{b}\\n'")
    assert paths == [str(a), str(b)]


def test_retrieve_deduplicates(tmp_path):
    a = tmp_path / "x.jar"
    a.write_bytes(b"x")
    assert retrieve_dependencies(paths=[a, a, str(a)]) == [str(a)]


# -------------------------------------------------------------- construct rules

def _kb_one(record):
    return KnowledgeBase(records={"CVE-R": [record]})


def _jar_with(*models):
    return write_jar([(class_entry_path(m.name), emit_class(m)) for m in models])


def _record(kind, fqn, change, context=(), signature=None):
    return ConstructRecord(
        construct=ConstructId(kind, fqn, strip_packages(fqn)),
        change=change, signature=signature, class_context=frozenset(context))


def _scan_one(jar, kb, modes=("default",)):
    return scan_jar_bytes("test.jar", jar, kb, ScanConfig(modes=modes))


def test_rule1_removed_present_vulnerable():
    holder = ClassModel("a.C", methods=[
        default_constructor(),
        MethodModel("legacy", "()V", 0x09, code=["return"])])
    kb = _kb_one(_record("method", "a.C: void legacy()", "removed"))
    res = _scan_one(_jar_with(holder), kb)
    (finding,) = res.findings
    assert finding.verdict == VULNERABLE
    assert finding.constructs[0].reason == "removed construct present"


def test_rule1_removed_absent_fixed():
    holder = ClassModel("a.C", methods=[default_constructor()])
    kb = _kb_one(_record("method", "a.C: void legacy()", "removed"))
    res = _scan_one(_jar_with(holder), kb)
    (finding,) = res.findings
    assert finding.verdict == NOT_FLAGGED
    assert finding.constructs[0].verdict == FIXED


def test_rule2_added_absent_class_present_vulnerable():
    holder = ClassModel("a.C", methods=[default_constructor()])
    kb = _kb_one(_record("method", "a.C: void guard()", "added"))
    res = _scan_one(_jar_with(holder), kb)
    (finding,) = res.findings
    assert finding.verdict == VULNERABLE
    assert "declaring class present" in finding.constructs[0].reason


def test_rule2_added_present_fixed():
    holder = ClassModel("a.C", methods=[
        default_constructor(),
        MethodModel("guard", "()V", 0x09, code=["return"])])
    kb = _kb_one(_record("method", "a.C: void guard()", "added"))
    res = _scan_one(_jar_with(holder), kb)
    (finding,) = res.findings
    assert finding.verdict == NOT_FLAGGED
    assert finding.constructs[0].verdict == FIXED


def test_changed_method_missing_counts_vulnerable():
    holder = ClassModel("a.C", methods=[default_constructor()])
    sig = FixSignature(ct=T("c"), pt=T("p"), nt=T("n"))
    kb = _kb_one(_record("method", "a.C: int gone(int)", "changed", signature=sig))
    res = _scan_one(_jar_with(holder), kb)
    (finding,) = res.findings
    assert finding.constructs[0].verdict == VULNERABLE


def test_changed_record_with_class_absent_is_skipped():
    bystander = ClassModel("a.C", methods=[default_constructor()])
    sig = FixSignature(ct=T("c"), pt=T("p"), nt=T("n"))
    kb = KnowledgeBase(records={"CVE-R": [
        _record("method", "a.C: void seen()", "removed"),
        _record("method", "a.Other: int gone(int)", "changed", signature=sig),
    ]})
    res = _scan_one(_jar_with(bystander), kb)
    (finding,) = res.findings
    verdicts = {v.fqn: v.verdict for v in finding.constructs}
    assert verdicts["a.Other: int gone(int)"] == SKIPPED


# ------------------------------------------------------------------- end to end

def test_scan_corpus_pre_and_post(corpus, corpus_kb):
    config = ScanConfig(modes=("default",))
    for cve in corpus.cve_ids:
        pre = scan_jar_bytes("pre.jar", corpus.pre_jars[cve], corpus_kb, config)
        flagged = {f.cve_id for f in pre.findings if f.verdict == VULNERABLE}
        assert flagged == {cve}
        post = scan_jar_bytes("post.jar", corpus.post_jars[cve], corpus_kb, config)
        assert {f.cve_id for f in post.findings if f.verdict == VULNERABLE} == set()


def test_pre_fix_full_detection_per_construct(corpus, corpus_kb):
    config = ScanConfig(modes=("default",))
    for cve in corpus.cve_ids:
        res = scan_jar_bytes("pre.jar", corpus.pre_jars[cve], corpus_kb, config)
        finding = next(f for f in res.findings if f.cve_id == cve)
        assert all(v.verdict == VULNERABLE for v in finding.constructs), cve


def test_post_fix_null_result_per_construct(corpus, corpus_kb):
    config = ScanConfig(modes=("default", "repack"))
    for cve in corpus.cve_ids:
        res = scan_jar_bytes("post.jar", corpus.post_jars[cve], corpus_kb, config)
        for finding in res.findings:
            assert all(v.verdict != VULNERABLE for v in finding.constructs), cve


def test_type23_invariance_merged_and_bare(corpus, corpus_kb):
    config = ScanConfig(modes=("default",))
    separate = set()
    for cve in corpus.cve_ids:
        res = scan_jar_bytes("j.jar", corpus.pre_jars[cve], corpus_kb, config)
        for f in res.findings:
            for v in f.constructs:
                separate.add((f.cve_id, v.fqn, v.change, v.verdict))
    jars = [corpus.pre_jars[c] for c in corpus.cve_ids]
    for kind in (2, 3):
        merged = modify(jars, kind)
        res = scan_jar_bytes("merged.jar", merged, corpus_kb, config)
        got = {(f.cve_id, v.fqn, v.change, v.verdict)
               for f in res.findings for v in f.constructs}
        assert got == separate, f"type {kind} changed per-construct verdicts"


def test_monotone_modes(corpus, corpus_kb):
    for cve in corpus.cve_ids:
        jar = corpus.pre_jars[cve]
        d = scan_jar_bytes("j.jar", jar, corpus_kb, ScanConfig(modes=("default",)))
        both = scan_jar_bytes("j.jar", jar, corpus_kb,
                              ScanConfig(modes=("default", "repack")))
        flagged_d = {f.cve_id for f in d.findings if f.verdict == VULNERABLE}
        flagged_b = {f.cve_id for f in both.findings if f.verdict == VULNERABLE}
        assert flagged_d <= flagged_b


def test_relocation_soundness(corpus, corpus_kb):
    for prefix in ("r.", "shaded.deep."):
        for cve in corpus.cve_ids:
            original = scan_jar_bytes(
                "o.jar", corpus.pre_jars[cve], corpus_kb,
                ScanConfig(modes=("default",)))
            relocated_jar = modify([corpus.pre_jars[cve]], 4, prefix=prefix)
            relocated = scan_jar_bytes(
                "r.jar", relocated_jar, corpus_kb, ScanConfig(modes=("repack",)))
            orig_flagged = {f.cve_id for f in original.findings
                            if f.verdict == VULNERABLE}
            rel_flagged = {f.cve_id for f in relocated.findings
                           if f.verdict == VULNERABLE}
            assert rel_flagged == orig_flagged, (prefix, cve)


def test_default_mode_alone_misses_relocated(corpus, corpus_kb):
    jar = modify([corpus.pre_jars["CVE-9000-0001"]], 4, prefix="r.")
    res = scan_jar_bytes("r.jar", jar, corpus_kb, ScanConfig(modes=("default",)))
    assert {f.cve_id for f in res.findings if f.verdict == VULNERABLE} == set()


def test_scan_report_deterministic(corpus, corpus_kb, tmp_path):
    paths = []
    for cve in corpus.cve_ids[:3]:
        p = tmp_path / f"{cve}.jar"
        p.write_bytes(corpus.pre_jars[cve])
        paths.append(str(p))
    r1 = report_to_json(scan(paths, corpus_kb, ScanConfig()))
    r2 = report_to_json(scan(paths, corpus_kb, ScanConfig()))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


# ------------------------------------------------- lazy parse vs eager parse

def _report_bytes(paths, kb) -> str:
    return json.dumps(report_to_json(scan(paths, kb, ScanConfig())),
                      indent=2, sort_keys=True)


def test_lazy_scan_report_matches_eager(corpus, corpus_kb, tmp_path, monkeypatch):
    """Classes no KB record names are only header-checked, and only the
    bodies of methods a changed record names are decoded; with every
    class and every method body fully parsed instead, the report is
    byte-identical."""
    jars = {}
    for cve in corpus.cve_ids:
        jars[f"{cve}-pre"] = corpus.pre_jars[cve]
        jars[f"{cve}-post"] = corpus.post_jars[cve]
    for side in ("pre_jars", "post_jars"):
        inputs = [getattr(corpus, side)[c] for c in corpus.cve_ids]
        for kind in (2, 3, 4):
            jars[f"{side}-kind{kind}"] = modify(inputs, kind)
    paths = []
    for name, data in jars.items():
        p = tmp_path / f"{name}.jar"
        p.write_bytes(data)
        paths.append(str(p))
    partial_kb = KnowledgeBase(records={c: corpus_kb.records[c]
                                        for c in corpus.cve_ids[:5]})
    assert parse_jar(jars["pre_jars-kind2"], partial_kb.asks_about_class).unparsed
    lazy_archive = parse_jar(jars["pre_jars-kind2"], corpus_kb.asks_about_class,
                             corpus_kb.asks_about_method)
    assert any(m.code is UNDECODED for cf in lazy_archive.class_files()
               for m in cf.methods)

    lazy = [_report_bytes(paths, kb) for kb in (corpus_kb, partial_kb)]
    monkeypatch.setattr(KnowledgeBase, "asks_about_class", lambda self, fqn: True)
    monkeypatch.setattr(KnowledgeBase, "asks_about_method",
                        lambda self, cls, name, desc: True)
    eager = [_report_bytes(paths, kb) for kb in (corpus_kb, partial_kb)]
    assert lazy == eager


# ------------------------------------------------------- exact-code path

def _variant_jars(corpus) -> dict:
    """The corpus pre/post JARs, and modify kinds 1-4 of them."""
    jars = {}
    for i, cve in enumerate(corpus.cve_ids):
        for side in ("pre", "post"):
            jar = getattr(corpus, f"{side}_jars")[cve]
            jars[f"{cve}-{side}"] = jar
            jars[f"{cve}-{side}-kind1"] = modify([jar], 1, seed=300 + i)
    for side in ("pre_jars", "post_jars"):
        inputs = [getattr(corpus, side)[c] for c in corpus.cve_ids]
        for kind in (2, 3, 4):
            jars[f"{side}-kind{kind}"] = modify(inputs, kind)
    return jars


def test_code_digests_leave_reports_unchanged(corpus, corpus_kb, corpus_kb_without_code,
                                              corpus_kb_without_stripped, tmp_path):
    """Taking triplets from the KB for recorded bodies, exact or up to
    relocation, gives the report that lifting every method gives, in
    default and repack mode."""
    assert corpus_kb.has_code_digests and corpus_kb.has_stripped_digests
    assert not corpus_kb_without_code.has_code_digests
    assert not corpus_kb_without_stripped.has_stripped_digests
    paths = []
    for name, data in _variant_jars(corpus).items():
        p = tmp_path / f"{name}.jar"
        p.write_bytes(data)
        paths.append(str(p))
    report = _report_bytes(paths, corpus_kb)
    assert '"mode": "repack"' in report
    assert report == _report_bytes(paths, corpus_kb_without_stripped)
    assert report == _report_bytes(paths, corpus_kb_without_code)


def test_recorded_bodies_are_not_lifted(corpus, corpus_kb, corpus_kb_without_stripped,
                                       monkeypatch):
    """The corpus pre- and post-fix JARs hold only recorded bodies, so a
    scan lifts nothing. Relocated bodies are recorded ones up to package
    prefixes: repack mode takes them from the KB's stripped digests, and
    lifts them only without. Recompiled bodies are lifted."""
    lifted = []
    real = jarscan.cpg.method_triplets
    monkeypatch.setattr(jarscan.cpg, "method_triplets",
                        lambda cf, m: lifted.append(m) or real(cf, m))

    def lifts(jar, kb=corpus_kb):
        lifted.clear()
        scan_jar_bytes("j.jar", jar, kb, ScanConfig())
        return len(lifted)

    jars = _variant_jars(corpus)
    for cve in corpus.cve_ids:
        assert lifts(jars[f"{cve}-pre"]) == lifts(jars[f"{cve}-post"]) == 0, cve
    for side in ("pre_jars", "post_jars"):
        assert lifts(jars[f"{side}-kind4"]) == 0, side
        assert lifts(jars[f"{side}-kind4"], corpus_kb_without_stripped) > 0, side
    assert lifts(jars["CVE-9000-0002-pre-kind1"]) > 0


def _with_broken_descriptor(model: ClassModel) -> bytes:
    """Emit the class, then corrupt its marker method's descriptor: the
    header pass still accepts the bytes, parse_class does not."""
    data = emit_class(model)
    assert data.count(b"(Lzz/Mark;)V") == 1
    return data.replace(b"(Lzz/Mark;)V", b"(Lzz/Mark;)Q")


def test_malformed_class_counts_by_candidacy():
    """A malformed class the KB names is a parse failure and its records
    see no declaring class; a malformed class no record names is only
    header-checked, so it counts as a class."""
    mark = MethodModel("mark", "(Lzz/Mark;)V", 0x09, code=["return"])

    def klass(name, ret):
        return ClassModel(name, methods=[
            default_constructor(), mark,
            MethodModel("run", "(I)I", 0x09, code=["iload_0", ret, "ireturn"])])

    records = build_entry(
        "CVE-TEST",
        [parse_class(emit_class(klass(n, "iconst_1"))) for n in ("mal.A", "mal.B")],
        [parse_class(emit_class(klass(n, "iconst_2"))) for n in ("mal.A", "mal.B")])
    kb = KnowledgeBase(records={"CVE-TEST": records})
    jar = write_jar([
        (class_entry_path("mal.A"), _with_broken_descriptor(klass("mal.A", "iconst_1"))),
        (class_entry_path("mal.B"), emit_class(klass("mal.B", "iconst_1"))),
        (class_entry_path("other.Util"), _with_broken_descriptor(klass("other.Util", "iconst_1"))),
    ])
    assert kb.asks_about_class("mal.A") and not kb.asks_about_class("other.Util")
    assert len(parse_jar(jar).failures) == 2           # eager: both fail

    res = scan_jar_bytes("mal.jar", jar, kb, ScanConfig(modes=("default",)))
    assert (res.classes, res.parse_failures) == (2, 1)
    [finding] = res.findings
    reasons = {v.fqn: v.reason for v in finding.constructs}
    assert reasons["mal.A: int run(int)"] == "declaring class not in archive"
    assert reasons["mal.B: int run(int)"] is None      # matched on triplets


@pytest.mark.parametrize("modes", [("default",), ("repack",), ("default", "repack")])
def test_scan_decodes_only_bodies_changed_records_name(corpus, corpus_kb,
                                                       monkeypatch, modes):
    """Each scan decodes exactly the Code attributes of the methods that
    changed method records name, by FQN or unqualified signature."""
    changed = [rec.construct for records in corpus_kb.records.values()
               for rec in records
               if rec.construct.kind == "method" and rec.change == "changed"]

    def named(cls, m):
        sig = method_signature(cls, m.name, m.descriptor)
        return any(sig == c.fqn or strip_packages(sig) == c.unqualified
                   for c in changed)

    jars = [corpus.pre_jars[c] for c in corpus.cve_ids]
    jars += [corpus.post_jars[c] for c in corpus.cve_ids]
    jars.append(modify([corpus.pre_jars[c] for c in corpus.cve_ids], 4, prefix="r."))
    expected = [sum(1 for cf in parse_jar(jar).class_files() for m in cf.methods
                    if m.code is not None and named(cf.this_class, m))
                for jar in jars]
    assert expected[-1] == sum(expected[:len(corpus.cve_ids)]) > 0

    decoded = []
    real = parser_mod.decode_instructions
    monkeypatch.setattr(parser_mod, "decode_instructions",
                        lambda code: decoded.append(code) or real(code))
    got = []
    for jar in jars:
        decoded.clear()
        scan_jar_bytes("j.jar", jar, corpus_kb, ScanConfig(modes=modes))
        got.append(len(decoded))
    assert got == expected


def _with_broken_code(data: bytes, marker: int) -> bytes:
    """Replace the one ``sipush marker`` in the class with a goto into its
    own operand bytes: the header pass still accepts the class, decoding
    that Code attribute does not."""
    old = bytes([0x11]) + marker.to_bytes(2, "big")
    assert data.count(old) == 1
    return data.replace(old, bytes([0xA7, 0x00, 0x01]))


def test_broken_body_counts_by_whether_a_record_names_it():
    """In a class the KB names, a broken Code attribute of a method no
    changed record names is not decoded, so the class counts under
    classes; a broken Code attribute of the named method is still a parse
    failure."""
    def klass(name, k):
        return ClassModel(name, methods=[
            default_constructor(),
            MethodModel("helper", "(I)I", 0x09,
                        code=["iload_0", ("push_int", 4660), "iadd", "ireturn"]),
            MethodModel("run", "(I)I", 0x09,
                        code=["iload_0", ("push_int", k), "iadd", "ireturn"])])

    records = build_entry(
        "CVE-TEST",
        [parse_class(emit_class(klass(n, 4661))) for n in ("bb.A", "bb.B")],
        [parse_class(emit_class(klass(n, 4662))) for n in ("bb.A", "bb.B")])
    assert {r.construct.fqn for r in records} == {"bb.A: int run(int)",
                                                  "bb.B: int run(int)"}
    kb = KnowledgeBase(records={"CVE-TEST": records})
    jar = write_jar([
        (class_entry_path("bb.A"), _with_broken_code(emit_class(klass("bb.A", 4661)), 4660)),
        (class_entry_path("bb.B"), _with_broken_code(emit_class(klass("bb.B", 4661)), 4661)),
    ])
    assert len(parse_jar(jar).failures) == 2           # eager: both fail

    res = scan_jar_bytes("bb.jar", jar, kb, ScanConfig(modes=("default",)))
    assert (res.classes, res.parse_failures) == (1, 1)
    [finding] = res.findings
    by_fqn = {v.fqn: v for v in finding.constructs}
    assert by_fqn["bb.A: int run(int)"].verdict == VULNERABLE
    assert by_fqn["bb.A: int run(int)"].counts is not None
    assert by_fqn["bb.B: int run(int)"].reason == "declaring class not in archive"


def test_undecoded_body_raises_when_read(corpus):
    jar = corpus.pre_jars["CVE-9000-0002"]
    archive = parse_jar(jar, lambda fqn: True, lambda cls, name, desc: False)
    [cf] = archive.class_files()
    token = next(m for m in cf.methods if m.name == "token")
    assert token.code is UNDECODED and token.code is not None
    with pytest.raises(CodeNotDecoded):
        token.code.instructions
    with pytest.raises(CodeNotDecoded):
        JarView(archive).method_triplet_set("beta.net.Http: int token(int)")


def test_mistyped_pool_reference_skips_the_method(corpus, corpus_kb, tmp_path,
                                                  mistyped_beta_pre, caplog):
    """A lifted method whose putstatic names a Utf8 entry gives a skipped
    verdict with a warning, not an exception; the other JAR is still
    scanned and flagged."""
    name, data = mistyped_beta_pre
    bad = tmp_path / "beta-mistyped.jar"
    bad.write_bytes(write_jar([(class_entry_path(name), data)]))
    good = tmp_path / "alpha-pre.jar"
    good.write_bytes(corpus.pre_jars["CVE-9000-0001"])
    report = scan([str(bad), str(good)], corpus_kb, ScanConfig())

    bad_res, good_res = report.jars
    assert bad_res.error is None and bad_res.parse_failures == 0
    [finding] = bad_res.findings
    token = [v for v in finding.constructs if v.fqn == "beta.net.Http: int token(int)"]
    assert {(v.mode, v.verdict, v.reason) for v in token} == {
        ("default", SKIPPED, "method body could not be lifted"),
        ("repack", SKIPPED, "method body could not be lifted")}
    assert "skipping beta.net.Http: int token(int)" in caplog.text
    assert {f.cve_id for f in good_res.findings
            if f.verdict == VULNERABLE} == {"CVE-9000-0001"}


def _damaged_entry(jar: bytes, path: str, damage: str) -> bytes:
    """Re-pack the JAR, then damage ``path``'s entry.

    crc: stored, one byte flipped mid-data, so its CRC fails; inflate:
    deflated, a reserved block type in its first byte; sizes: its sizes
    in the central directory run past the end of the archive; encrypted:
    its encryption flag set; method: compression method 99 (AES), which
    zipfile does not implement.
    """
    compression = zipfile.ZIP_DEFLATED if damage == "inflate" else zipfile.ZIP_STORED
    src = zipfile.ZipFile(io.BytesIO(jar))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as out:
        for info in src.infolist():
            raw = src.read(info)
            info.compress_type = compression
            out.writestr(info, raw)
    data = bytearray(buf.getvalue())
    info = zipfile.ZipFile(io.BytesIO(data)).getinfo(path)
    local = info.header_offset
    name_len, extra_len = struct.unpack_from("<HH", data, local + 26)
    start = local + 30 + name_len + extra_len
    name = path.encode()
    central = data.find(b"PK\x01\x02")
    while data[central + 46:central + 46 + len(name)] != name:
        central = data.find(b"PK\x01\x02", central + 46)
    if damage == "crc":
        data[start + info.compress_size // 2] ^= 0xFF
    elif damage == "inflate":
        data[start] |= 0x06
    elif damage == "sizes":
        struct.pack_into("<II", data, central + 20,
                         info.compress_size + 100_000, info.file_size + 100_000)
    elif damage == "encrypted":
        data[local + 6] |= 1
        data[central + 8] |= 1
    else:
        struct.pack_into("<H", data, local + 8, 99)
        struct.pack_into("<H", data, central + 10, 99)
    return bytes(data)


@pytest.mark.parametrize("damage, error", [
    ("crc", zipfile.BadZipFile), ("inflate", zlib.error), ("sizes", EOFError),
    ("encrypted", RuntimeError), ("method", NotImplementedError)])
def test_unreadable_entry_is_a_parse_failure(corpus, corpus_kb, tmp_path,
                                             damage, error):
    """A class entry zipfile cannot read counts under parse_failures; the
    scan goes on, and the next JAR is still flagged."""
    entry = "alpha/core/Parser.class"
    jar = _damaged_entry(corpus.pre_jars["CVE-9000-0001"], entry, damage)
    with pytest.raises(error):
        zipfile.ZipFile(io.BytesIO(jar)).read(entry)
    [failure] = parse_jar(jar).failures
    assert failure.path == entry and failure.error.startswith("unreadable entry: ")

    bad = tmp_path / "alpha-corrupt.jar"
    bad.write_bytes(jar)
    good = tmp_path / "beta-pre.jar"
    good.write_bytes(corpus.pre_jars["CVE-9000-0002"])
    bad_res, good_res = scan([str(bad), str(good)], corpus_kb, ScanConfig()).jars
    assert bad_res.error is None and bad_res.parse_failures == 1
    assert {f.cve_id for f in good_res.findings
            if f.verdict == VULNERABLE} == {"CVE-9000-0002"}


def test_unresolvable_pool_reference_skips_the_method(corpus, corpus_kb,
                                                      out_of_range_beta_pre):
    """A named method whose code names a pool entry past the end of the
    pool has no code digest; it falls through to lifting, which skips it."""
    name, data = out_of_range_beta_pre
    jar = write_jar([(class_entry_path(name), data)])
    res = scan_jar_bytes("beta.jar", jar, corpus_kb, ScanConfig())
    assert res.error is None and res.parse_failures == 0
    [finding] = res.findings
    token = [v for v in finding.constructs if v.fqn == "beta.net.Http: int token(int)"]
    assert {(v.mode, v.verdict, v.reason) for v in token} == {
        ("default", SKIPPED, "method body could not be lifted"),
        ("repack", SKIPPED, "method body could not be lifted")}


@pytest.mark.parametrize("bad_desc", ["Lr/sh/Cfg", "Lr/sh/Cfg;junk", "[Lr/sh/Cfg"])
def test_malformed_fieldref_descriptor_skips_a_relocated_body(tmp_path, bad_desc):
    """The parser checks the descriptors of a class's own members, not those
    of the fields its code names. A relocated body whose getstatic names a
    malformed object descriptor has no stripped key: repack mode lifts it,
    which skips it, and the other JAR of the scan is still flagged."""
    def klass(name, desc, ret):
        return ClassModel(name, methods=[
            default_constructor(),
            MethodModel("run", "(I)I", 0x09, code=[
                ("getstatic", name, "ref", desc), "pop",
                "iload_0", ret, "ireturn"])])

    records = build_entry("CVE-TEST", [parse_class(emit_class(klass("sh.Cfg", "Lsh/Cfg;", "iconst_1")))],
                          [parse_class(emit_class(klass("sh.Cfg", "Lsh/Cfg;", "iconst_2")))])
    kb = KnowledgeBase(records={"CVE-TEST": records})
    assert kb.has_stripped_digests
    bad = tmp_path / "bad.jar"
    bad.write_bytes(write_jar([(class_entry_path("r.sh.Cfg"),
                                emit_class(klass("r.sh.Cfg", bad_desc, "iconst_1")))]))
    good = tmp_path / "good.jar"
    good.write_bytes(write_jar([(class_entry_path("q.sh.Cfg"),
                                 emit_class(klass("q.sh.Cfg", "Lq/sh/Cfg;", "iconst_1")))]))
    bad_res, good_res = scan([str(bad), str(good)], kb,
                             ScanConfig(modes=("repack",))).jars
    assert bad_res.error is None and bad_res.parse_failures == 0
    [finding] = bad_res.findings
    assert {(v.verdict, v.reason) for v in finding.constructs
            if v.fqn == "sh.Cfg: int run(int)"} == {
        (SKIPPED, "method body could not be lifted")}
    assert {f.cve_id for f in good_res.findings
            if f.verdict == VULNERABLE} == {"CVE-TEST"}


def test_scan_isolates_bad_archives(tmp_path, corpus_kb):
    good = tmp_path / "good.jar"
    good.write_bytes(write_jar([]))
    bad = tmp_path / "bad.jar"
    bad.write_bytes(b"not a zip at all")
    report = scan([str(bad), str(good)], corpus_kb, ScanConfig())
    assert report.jars[0].error is not None
    assert report.jars[1].error is None


def test_shipped_defaults():
    config = ScanConfig()
    assert config.theta_pt == 0.5
    assert config.theta_cc == 0.3
    assert config.theta_ct == 0.3

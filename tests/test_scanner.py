"""Scanner decision rules, aggregation, modes and invariance properties."""

import io
import json
import struct
import zipfile

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
from jarscan.classfile import descriptors as descriptors_mod
from jarscan.classfile.descriptors import method_signature, render_method_types
from jarscan.classfile.model import UNDECODED
from jarscan.cpg import FixSignature, Triplet, unqualify
from jarscan.errors import CodeNotDecoded
from jarscan.kb import ConstructRecord, KnowledgeBase, build_entry, class_member_context
from jarscan.classfile.constructs import ConstructId
from jarscan.modharness import modify
from jar_damage import ENTRY_DAMAGES, damaged_central_directory, damaged_entry
from jarscan.scanner import (
    FIXED,
    NOT_FLAGGED,
    SKIPPED,
    VULNERABLE,
    ConstructVerdict,
    JarView,
    ScanConfig,
    ScanReport,
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
    """Repack callers pass both sides unqualified, so a relocated body
    matches the recorded one."""
    sig = FixSignature(
        ct=unqualify(frozenset({Triplet("new a.b.X", "CFG", "goto")})),
        pt=frozenset(),
        nt=unqualify(frozenset({Triplet("invoke_virtual a.b.X#evil():int(%)", "CFG", "goto")})),
    )
    tm = unqualify(frozenset({
        Triplet("new r.a.b.X", "CFG", "goto"),
        Triplet("invoke_virtual r.a.b.X#evil():int(%)", "CFG", "goto"),
    }))
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
        construct=ConstructId(kind, fqn),
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


# ------------------------------------------------------- rule table, both modes

_SIBLING = MethodModel("helper", "()V", 0x09, code=["return"])
_TARGET = MethodModel("check", "(I)I", 0x09, code=["iload_0", "ireturn"])
_UNLIFTABLE = MethodModel("check", "(I)I", 0x09, code=["pop", "iload_0", "ireturn"],
                          max_stack=2, max_locals=2)
_STATES = ("class absent", "class without method", "method present", "lift fails",
           "no signature", "context below θCC", "two candidates")


def _rule_class(name, *methods):
    return ClassModel(name, methods=[default_constructor(), _SIBLING, *methods])


def _rule_jar(state: str, cls: str) -> bytes:
    """A JAR for one state of the record's class ``cls``, next to a
    bystander class that makes the CVE a candidate in both modes."""
    models = {
        "class absent": [],
        "class without method": [_rule_class(cls)],
        "lift fails": [_rule_class(cls, _UNLIFTABLE)],
        "two candidates": [_rule_class("q." + cls), _rule_class(cls, _TARGET)],
    }.get(state, [_rule_class(cls, _TARGET)])
    return _jar_with(ClassModel("z.Bystander", methods=[default_constructor()]), *models)


# (mode, kind, change, state) -> (verdict, reason, scanned_fqn, counts), as
# scan_jar_bytes reports them, with counts as (nt_hit, pt_hit, ct_hit,
# nt_size, pt_size, ct_size). Default mode scans a.C, repack mode r.a.C.
_RULE_TABLE = {
    ("default", "class", "added", "class absent"):
        (VULNERABLE, "added construct absent", None, None),
    ("default", "class", "added", "class without method"):
        (FIXED, "added construct present", None, None),
    ("default", "class", "added", "lift fails"):
        (FIXED, "added construct present", None, None),
    ("default", "class", "added", "method present"):
        (FIXED, "added construct present", None, None),
    ("default", "class", "added", "no signature"):
        (FIXED, "added construct present", None, None),
    ("default", "class", "changed", "class absent"):
        (SKIPPED, "class-level change carries no signature", None, None),
    ("default", "class", "changed", "class without method"):
        (SKIPPED, "class-level change carries no signature", None, None),
    ("default", "class", "changed", "lift fails"):
        (SKIPPED, "class-level change carries no signature", None, None),
    ("default", "class", "changed", "method present"):
        (SKIPPED, "class-level change carries no signature", None, None),
    ("default", "class", "changed", "no signature"):
        (SKIPPED, "class-level change carries no signature", None, None),
    ("default", "class", "removed", "class absent"):
        (FIXED, "removed construct absent", None, None),
    ("default", "class", "removed", "class without method"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "class", "removed", "lift fails"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "class", "removed", "method present"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "class", "removed", "no signature"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "method", "added", "class absent"):
        (FIXED, "declaring class absent", None, None),
    ("default", "method", "added", "class without method"):
        (VULNERABLE, "added method absent while declaring class present", None, None),
    ("default", "method", "added", "lift fails"):
        (FIXED, "added method present", None, None),
    ("default", "method", "added", "method present"):
        (FIXED, "added method present", None, None),
    ("default", "method", "added", "no signature"):
        (FIXED, "added method present", None, None),
    ("default", "method", "changed", "class absent"):
        (SKIPPED, "declaring class not in archive", None, None),
    ("default", "method", "changed", "class without method"):
        (VULNERABLE, "changed method missing from declaring class", None, None),
    ("default", "method", "changed", "lift fails"):
        (SKIPPED, "method body could not be lifted", None, None),
    ("default", "method", "changed", "method present"):
        (VULNERABLE, None, None, (0, 0, 1, 1, 1, 1)),
    ("default", "method", "changed", "no signature"):
        (SKIPPED, "no signature recorded for changed method", None, None),
    ("default", "method", "removed", "class absent"):
        (FIXED, "removed construct absent", None, None),
    ("default", "method", "removed", "class without method"):
        (FIXED, "removed construct absent", None, None),
    ("default", "method", "removed", "lift fails"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "method", "removed", "method present"):
        (VULNERABLE, "removed construct present", None, None),
    ("default", "method", "removed", "no signature"):
        (VULNERABLE, "removed construct present", None, None),
    ("repack", "class", "added", "class absent"):
        (FIXED, "declaring class absent", None, None),
    ("repack", "class", "added", "class without method"):
        (FIXED, "added class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "added", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "class", "added", "lift fails"):
        (FIXED, "added class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "added", "method present"):
        (FIXED, "added class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "added", "no signature"):
        (FIXED, "added class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "added", "two candidates"):
        (FIXED, "added class present (unqualified match)", "q.r.a.C", None),
    ("repack", "class", "changed", "class absent"):
        (SKIPPED, "no class with matching unqualified name", None, None),
    ("repack", "class", "changed", "class without method"):
        (SKIPPED, "class-level change carries no signature", "r.a.C", None),
    ("repack", "class", "changed", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "class", "changed", "lift fails"):
        (SKIPPED, "class-level change carries no signature", "r.a.C", None),
    ("repack", "class", "changed", "method present"):
        (SKIPPED, "class-level change carries no signature", "r.a.C", None),
    ("repack", "class", "changed", "no signature"):
        (SKIPPED, "class-level change carries no signature", "r.a.C", None),
    ("repack", "class", "changed", "two candidates"):
        (SKIPPED, "class-level change carries no signature", "q.r.a.C", None),
    ("repack", "class", "removed", "class absent"):
        (FIXED, "removed construct absent", None, None),
    ("repack", "class", "removed", "class without method"):
        (VULNERABLE, "removed class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "removed", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "class", "removed", "lift fails"):
        (VULNERABLE, "removed class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "removed", "method present"):
        (VULNERABLE, "removed class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "removed", "no signature"):
        (VULNERABLE, "removed class present (unqualified match)", "r.a.C", None),
    ("repack", "class", "removed", "two candidates"):
        (VULNERABLE, "removed class present (unqualified match)", "q.r.a.C", None),
    ("repack", "method", "added", "class absent"):
        (FIXED, "declaring class absent", None, None),
    ("repack", "method", "added", "class without method"):
        (VULNERABLE, "added method absent while declaring class present", "r.a.C", None),
    ("repack", "method", "added", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "method", "added", "lift fails"):
        (FIXED, "added method present", "r.a.C: int check(int)", None),
    ("repack", "method", "added", "method present"):
        (FIXED, "added method present", "r.a.C: int check(int)", None),
    ("repack", "method", "added", "no signature"):
        (FIXED, "added method present", "r.a.C: int check(int)", None),
    ("repack", "method", "added", "two candidates"):
        (VULNERABLE, "added method absent while declaring class present", "q.r.a.C", None),
    ("repack", "method", "changed", "class absent"):
        (SKIPPED, "no class with matching unqualified name", None, None),
    ("repack", "method", "changed", "class without method"):
        (VULNERABLE, "changed method missing from declaring class", "r.a.C", None),
    ("repack", "method", "changed", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "method", "changed", "lift fails"):
        (SKIPPED, "method body could not be lifted", "r.a.C: int check(int)", None),
    ("repack", "method", "changed", "method present"):
        (VULNERABLE, None, "r.a.C: int check(int)", (0, 0, 1, 1, 1, 1)),
    ("repack", "method", "changed", "no signature"):
        (SKIPPED, "no signature recorded for changed method", "r.a.C: int check(int)", None),
    ("repack", "method", "changed", "two candidates"):
        (VULNERABLE, "changed method missing from declaring class", "q.r.a.C", None),
    ("repack", "method", "removed", "class absent"):
        (FIXED, "removed construct absent", None, None),
    ("repack", "method", "removed", "class without method"):
        (FIXED, "removed construct absent", "r.a.C", None),
    ("repack", "method", "removed", "context below θCC"):
        (SKIPPED, "class context below threshold", None, None),
    ("repack", "method", "removed", "lift fails"):
        (VULNERABLE, "removed construct present", "r.a.C: int check(int)", None),
    ("repack", "method", "removed", "method present"):
        (VULNERABLE, "removed construct present", "r.a.C: int check(int)", None),
    ("repack", "method", "removed", "no signature"):
        (VULNERABLE, "removed construct present", "r.a.C: int check(int)", None),
    ("repack", "method", "removed", "two candidates"):
        (VULNERABLE, "removed construct present", "r.a.C: int check(int)", None),
}


_CELLS = [(mode, kind, change, state)
          for mode in ("default", "repack") for kind in ("class", "method")
          for change in ("added", "removed", "changed") for state in _STATES
          if mode == "repack" or state not in ("context below θCC", "two candidates")]


@pytest.mark.parametrize("mode, kind, change, state", _CELLS)
def test_rule_table(mode, kind, change, state):
    """Every (kind, change, JAR state) cell of the construct rules, in both
    modes: verdict, reason, the scanned construct and the match counts."""
    fqn = "a.C" if kind == "class" else "a.C: int check(int)"
    signature = None
    if change == "changed" and state != "no signature":
        cf = parse_class(emit_class(_rule_class("a.C", _TARGET)))
        [check] = [m for m in cf.methods if m.name == "check"]
        signature = FixSignature(ct=jarscan.cpg.method_triplets(cf, check),
                                 pt=T("p"), nt=T("n"))
    context = ["C: void gone()"] if state == "context below θCC" else ["C: void helper()"]
    kb = KnowledgeBase(records={"CVE-R": [
        _record("method", "z.Bystander: void <init>()", "removed"),
        _record(kind, fqn, change, context, signature)]})
    jar = _rule_jar(state, "a.C" if mode == "default" else "r.a.C")
    (finding,) = _scan_one(jar, kb, modes=(mode,)).findings
    [v] = [v for v in finding.constructs if v.fqn == fqn]
    got = (v.verdict, v.reason, v.scanned_fqn,
           None if v.counts is None else tuple(vars(v.counts).values()))
    assert got == _RULE_TABLE[mode, kind, change, state]


# ------------------------------------------------------------------- end to end

def test_scan_corpus_pre_and_post(corpus, corpus_kb):
    config = ScanConfig(modes=("default",))
    for cve in corpus.cve_ids:
        pre = scan_jar_bytes("pre.jar", corpus.pre_jars[cve], corpus_kb, config)
        flagged = {f.cve_id for f in pre.findings if f.verdict == VULNERABLE}
        assert flagged == {cve}
        post = scan_jar_bytes("post.jar", corpus.post_jars[cve], corpus_kb, config)
        assert {f.cve_id for f in post.findings if f.verdict == VULNERABLE} == set()


def _restamped(jar: bytes, major: int) -> bytes:
    """The JAR with every class file's major version set to ``major``."""
    with zipfile.ZipFile(io.BytesIO(jar)) as zf:
        entries = [(info.filename, zf.read(info)) for info in zf.infolist()]
    return write_jar([(name, data[:6] + struct.pack(">H", major) + data[8:]
                       if name.endswith(".class") else data)
                      for name, data in entries], manifest=False)


def test_newest_class_versions_scan_alike(corpus, corpus_kb):
    """Java SE 22-25 (major 66-69) added no constant-pool tag and changed
    nothing in Code, so corpus classes re-stamped as 66 and as 69 get the
    verdicts they get at 61 (Java SE 17)."""
    jars = [(f"{cve}-{side}.jar", getattr(corpus, f"{side}_jars")[cve])
            for cve in corpus.cve_ids for side in ("pre", "post")]
    config = ScanConfig()
    reports = {major: report_to_json(ScanReport(config, [
        scan_jar_bytes(path, _restamped(jar, major), corpus_kb, config)
        for path, jar in jars])) for major in (61, 66, 69)}
    assert reports[66] == reports[61] == reports[69]
    jar_reports = reports[61]["jars"]
    assert all(j["parse_failures"] == 0 and j["classes"] > 0 for j in jar_reports)
    assert sum(f["verdict"] == VULNERABLE for j in jar_reports for f in j["findings"]) \
        >= len(corpus.cve_ids)


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
    """Class entries whose stem no KB record's class can have are not
    opened, and only the bodies of methods a changed record names are
    decoded; with every entry opened and every method body decoded
    instead, the report is byte-identical."""
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
    assert parse_jar(jars["pre_jars-kind2"], stems=partial_kb.simple_class_names).unopened
    lazy_archive = parse_jar(jars["pre_jars-kind2"], corpus_kb.changed_methods)
    assert any(m.code is UNDECODED for cf in lazy_archive.class_files()
               for m in cf.methods)

    lazy = [_report_bytes(paths, kb) for kb in (corpus_kb, partial_kb)]
    for kb in (corpus_kb, partial_kb):
        monkeypatch.setattr(kb, "changed_methods", None)        # decode every body
        monkeypatch.setattr(kb, "simple_class_names", None)     # open every entry
    eager = [_report_bytes(paths, kb) for kb in (corpus_kb, partial_kb)]
    assert lazy == eager


# ------------------------------------------------------- exact-code path

def test_code_digests_leave_reports_unchanged(variant_jars, corpus_kb, corpus_kb_without_code,
                                              corpus_kb_without_stripped, tmp_path):
    """Taking triplets from the KB for recorded bodies, exact or up to
    relocation, gives the report that lifting every method gives, in
    default and repack mode."""
    def digests(kb, name):
        return {getattr(r, name) for records in kb.records.values() for r in records}
    assert digests(corpus_kb, "code") - {None} and digests(corpus_kb, "stripped") - {None}
    assert digests(corpus_kb_without_code, "code") == {None}
    assert digests(corpus_kb_without_stripped, "stripped") == {None}
    paths = []
    for name, data in variant_jars.items():
        p = tmp_path / f"{name}.jar"
        p.write_bytes(data)
        paths.append(str(p))
    report = _report_bytes(paths, corpus_kb)
    assert '"mode": "repack"' in report
    assert report == _report_bytes(paths, corpus_kb_without_stripped)
    assert report == _report_bytes(paths, corpus_kb_without_code)


def test_recorded_bodies_are_not_lifted(corpus, variant_jars, corpus_kb,
                                       corpus_kb_without_stripped, monkeypatch):
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

    jars = variant_jars
    for cve in corpus.cve_ids:
        assert lifts(jars[f"{cve}-pre"]) == lifts(jars[f"{cve}-post"]) == 0, cve
    for side in ("pre_jars", "post_jars"):
        assert lifts(jars[f"{side}-kind4"]) == 0, side
        assert lifts(jars[f"{side}-kind4"], corpus_kb_without_stripped) > 0, side
    assert lifts(jars["CVE-9000-0002-pre-kind1"]) > 0
    # Repack mode reuses what default mode lifted.
    assert len({id(m) for m in lifted}) == len(lifted)


def _with_broken_descriptor(model: ClassModel) -> bytes:
    """Emit the class, then corrupt its marker method's descriptor, which
    parse_class rejects."""
    data = emit_class(model)
    assert data.count(b"(Lzz/Mark;)V") == 1
    return data.replace(b"(Lzz/Mark;)V", b"(Lzz/Mark;)Q")


def test_malformed_class_counts_by_candidacy():
    """A malformed class the KB names is a parse failure and its records
    see no declaring class; a malformed class no record names, under a
    stem no record's class has, is not opened, so it counts as a class."""
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
    assert kb.candidate_cves_for_class("mal.A") and not kb.candidate_cves_for_class("other.Util")
    assert "Util" not in kb.simple_class_names
    assert len(parse_jar(jar).failures) == 2           # eager: both fail

    res = scan_jar_bytes("mal.jar", jar, kb, ScanConfig(modes=("default",)))
    assert (res.classes, res.parse_failures) == (2, 1)
    [finding] = res.findings
    reasons = {v.fqn: v.reason for v in finding.constructs}
    assert reasons["mal.A: int run(int)"] == "declaring class not in archive"
    assert reasons["mal.B: int run(int)"] is None      # matched on triplets


def test_newarray_of_invalid_element_type_is_a_parse_failure(newarray_class):
    """A class the KB asks about whose newarray names no element type is
    counted under parse_failures, and the scan completes."""
    records = build_entry("CVE-TEST", [parse_class(newarray_class(10, 1))],
                          [parse_class(newarray_class(10, 2))])
    kb = KnowledgeBase(records={"CVE-TEST": records})
    jar = write_jar([(class_entry_path("p.A"), newarray_class(3))])
    res = scan_jar_bytes("bad.jar", jar, kb, ScanConfig())
    assert res.error is None
    assert (res.classes, res.parse_failures) == (0, 1)


@pytest.mark.parametrize("path, name", [
    ("other/A.class", "other.Util"),    # misnamed: stored under a KB class's stem
    ("q/Foo.class", "q.Foo"),           # "Foo" is a tail of the KB class "x-Foo"
])
def test_opened_class_no_record_names_is_fully_parsed(path, name):
    """An opened class no KB record names is parsed like a class the KB
    names, so a bad descriptor in it is a parse failure, not a class."""
    def klass(cls_name):
        return ClassModel(cls_name, methods=[
            default_constructor(), MethodModel("mark", "(Lzz/Mark;)V", 0x09, code=["return"])])

    kb = KnowledgeBase(records={"CVE-TEST": [
        ConstructRecord(ConstructId("class", cls), "removed", None)
        for cls in ("mal.A", "x-Foo")]})
    assert path.rpartition("/")[2][:-6] in kb.simple_class_names
    assert not (kb.candidate_cves_for_class(name)
                or kb.candidate_cves_for_unqualified_class(strip_packages(name)))
    jar = write_jar([(path, _with_broken_descriptor(klass(name)))])
    res = scan_jar_bytes("odd.jar", jar, kb, ScanConfig())
    assert (res.classes, res.parse_failures) == (0, 1)
    good = scan_jar_bytes("odd.jar", write_jar([(path, emit_class(klass(name)))]),
                          kb, ScanConfig())
    assert (good.classes, good.parse_failures) == (1, 0)


@pytest.mark.parametrize("kb_name, jar_name, mode", [
    ("été.Foo", "été.Foo", "default"),  # strip_packages keeps a non-ASCII package
    ("x-Foo", "x-a.Foo", "repack"),      # strip_packages("x-a.Foo") == "x-Foo"
])
def test_class_under_an_odd_name_is_opened_and_flagged(kb_name, jar_name, mode):
    """A class the KB asks about is opened whatever its name: its stem is
    one of the KB's simple class names even where strip_packages leaves a
    package in, or cuts one out of, the record's class name."""
    def klass(name, k):
        return ClassModel(name, methods=[
            default_constructor(),
            MethodModel("run", "(I)I", 0x09, code=["iload_0", ("push_int", k), "iadd",
                                                   "ireturn"])])

    records = build_entry("CVE-ODD", [parse_class(emit_class(klass(kb_name, 4661)))],
                          [parse_class(emit_class(klass(kb_name, 4662)))])
    kb = KnowledgeBase(records={"CVE-ODD": records})
    assert (kb.candidate_cves_for_class(jar_name)
            or kb.candidate_cves_for_unqualified_class(strip_packages(jar_name)))
    jar = write_jar([(class_entry_path(jar_name), emit_class(klass(jar_name, 4661)))])
    assert not parse_jar(jar, stems=kb.simple_class_names).unopened
    res = scan_jar_bytes("odd.jar", jar, kb, ScanConfig())
    assert (res.classes, res.parse_failures) == (1, 0)
    [finding] = res.findings
    assert finding.verdict == VULNERABLE and mode in finding.modes_fired


def test_damaged_class_counts_by_whether_a_record_names_its_stem():
    """A damaged class entry whose stem no KB record's class has is not
    opened, so it counts under classes; one whose stem some record's
    class has is opened, and is a parse failure."""
    kb = KnowledgeBase(records={"CVE-TEST": [
        ConstructRecord(ConstructId("class", "dmg.Named"), "removed", None)]})
    junk = b"\xca\xfe\xba\xbe junk"
    jar = write_jar([("dmg/Named.class", junk), ("dmg/Unnamed.class", junk)])
    assert len(parse_jar(jar).failures) == 2           # every entry opened: both fail
    res = scan_jar_bytes("dmg.jar", jar, kb, ScanConfig())
    assert (res.classes, res.parse_failures) == (1, 1)


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


@pytest.mark.parametrize("modes", [("default",), ("repack",)])
def test_scan_renders_each_method_of_each_opened_class_once(corpus, corpus_kb,
                                                          monkeypatch, modes):
    """A scan parses each distinct method descriptor at most once in the
    process, and names each method of each class it opens as
    ``method_signature`` renders it, and that text with packages stripped:
    deciding which bodies to decode, indexing the JAR and matching read
    those names."""
    jars = [corpus.pre_jars[c] for c in corpus.cve_ids]
    jars.append(modify([corpus.pre_jars[c] for c in corpus.cve_ids], 4, prefix="r."))
    expected = sorted(cf.this_class for jar in jars
                      for cf in parse_jar(jar, stems=corpus_kb.simple_class_names).class_files())
    render_method_types.cache_clear()
    descriptors_mod._signature_parts.cache_clear()
    parsed, opened = [], []
    parse_descriptor = descriptors_mod.parse_method_descriptor

    def opening(data, bodies=None):
        opened.append(parse_class(data, bodies))
        return opened[-1]
    monkeypatch.setattr(descriptors_mod, "parse_method_descriptor",
                        lambda desc: parsed.append(desc) or parse_descriptor(desc))
    monkeypatch.setattr(parser_mod, "parse_class", opening)
    for jar in jars:
        scan_jar_bytes("j.jar", jar, corpus_kb, ScanConfig(modes=modes))
    assert sorted(cf.this_class for cf in opened) == expected and expected
    assert len(parsed) == len(set(parsed))
    assert {m.descriptor for cf in opened for m in cf.methods} <= set(parsed)
    for cf in opened:
        whole = [method_signature(cf.this_class, m.name, m.descriptor) for m in cf.methods]
        assert cf.method_fqns == tuple(whole)
        assert cf.unqualified_method_fqns == tuple(map(strip_packages, whole))


def _odd_class(name: str, odd: int, plain: int) -> ClassModel:
    return ClassModel("odd.C", methods=[
        default_constructor(),
        MethodModel(name, "(I)I", 0x09,
                    code=["iload_0", ("push_int", odd), "iadd", "ireturn"]),
        MethodModel("plain", "(I)I", 0x09,
                    code=["iload_0", ("push_int", plain), "imul", "ireturn"])])


@pytest.mark.parametrize("name", ["odd name", "call(me", "x.check"])
def test_odd_method_names_are_decoded_when_a_record_names_them(name):
    """The parser accepts a method name with a space, "(" or "." (JVMS
    4.2.2 forbids only the last). Such a method's body is decoded when a
    changed record names it, and the pre-fix class is flagged; when no
    record names it, the body reads UNDECODED."""
    pre = parse_class(emit_class(_odd_class(name, 4661, 3)))
    named = KnowledgeBase(records={"CVE-ODD": build_entry(
        "CVE-ODD", [pre], [parse_class(emit_class(_odd_class(name, 4662, 3)))])})
    unnamed = KnowledgeBase(records={"CVE-ODD": build_entry(
        "CVE-ODD", [pre], [parse_class(emit_class(_odd_class(name, 4661, 5)))])})
    fqn = method_signature("odd.C", name, "(I)I")
    assert [r.construct.fqn for r in named.records["CVE-ODD"]] == [fqn]
    assert [r.construct.fqn for r in unnamed.records["CVE-ODD"]] == ["odd.C: int plain(int)"]
    jar = write_jar([(class_entry_path("odd.C"), emit_class(_odd_class(name, 4661, 3)))])

    def code_by_name(kb):
        [cf] = parse_jar(jar, kb.changed_methods).class_files()
        return {m.name: m.code for m in cf.methods}
    assert code_by_name(named)[name] is not UNDECODED
    assert code_by_name(named)["plain"] is UNDECODED
    assert code_by_name(unnamed)[name] is UNDECODED
    assert code_by_name(unnamed)["plain"] is not UNDECODED
    for modes in [("default",), ("repack",)]:
        [finding] = scan_jar_bytes("odd.jar", jar, named, ScanConfig(modes=modes)).findings
        [verdict] = finding.constructs
        assert (finding.verdict, verdict.fqn, verdict.verdict) == (VULNERABLE, fqn, VULNERABLE)


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
    archive = parse_jar(jar, set())
    [cf] = archive.class_files()
    token = next(m for m in cf.methods if m.name == "token")
    assert token.code is UNDECODED and token.code is not None
    with pytest.raises(CodeNotDecoded):
        token.code.instructions
    with pytest.raises(CodeNotDecoded):
        JarView(archive, KnowledgeBase()).method_triplet_set("beta.net.Http: int token(int)")


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


def _scan_next_to_a_good_jar(tmp_path, corpus, kb, jar: bytes):
    """Scan ``jar`` and then the corpus CVE-9000-0002 pre JAR; check that
    the second is flagged, and return the first one's result."""
    bad, good = tmp_path / "alpha-corrupt.jar", tmp_path / "beta-pre.jar"
    bad.write_bytes(jar)
    good.write_bytes(corpus.pre_jars["CVE-9000-0002"])
    bad_res, good_res = scan([str(bad), str(good)], kb, ScanConfig()).jars
    assert {f.cve_id for f in good_res.findings
            if f.verdict == VULNERABLE} == {"CVE-9000-0002"}
    return bad_res


# Why a scan cannot read the entry ``damaged_entry`` damaged, by damage.
_BAD_CRC = "Bad CRC-32 for file 'alpha/core/Parser.class'"
_UNREADABLE_REASONS = {
    "crc": _BAD_CRC, "short": _BAD_CRC, "short-inflated": _BAD_CRC,
    "inflate": "Error -3 while decompressing data: invalid block type",
    "sizes": "EOFError",
    "encrypted": "encrypted or patched entry (flags 0x0001)",
    "method": "compression method 99",
}


@pytest.mark.parametrize("damage, error", sorted(ENTRY_DAMAGES.items()))
def test_unreadable_entry_is_a_parse_failure(corpus, corpus_kb, tmp_path,
                                             damage, error):
    """A class entry zipfile cannot read counts under parse_failures, with
    the same reason on every Python version; the scan goes on, and the
    next JAR is still flagged."""
    entry = "alpha/core/Parser.class"
    jar = damaged_entry(corpus.pre_jars["CVE-9000-0001"], entry, damage)
    # zipfile refuses the entry too, on 3.13 the sizes damage as BadZipFile.
    with pytest.raises((error, zipfile.BadZipFile)):
        zipfile.ZipFile(io.BytesIO(jar)).read(entry)
    [failure] = parse_jar(jar).failures
    assert failure.path == entry
    assert failure.error == f"unreadable entry: {_UNREADABLE_REASONS[damage]}"
    res = _scan_next_to_a_good_jar(tmp_path, corpus, corpus_kb, jar)
    assert res.error is None and res.parse_failures == 1


def test_zip64_size_past_ssize_t_reads_as_zipfile(corpus, corpus_kb, tmp_path):
    """A deflated entry whose ZIP64 extra field states a size of 2**64 - 1
    is read by zipfile to the end of its stream; the class parses as
    before, and the next JAR is still flagged."""
    entry, jar = "alpha/core/Parser.class", corpus.pre_jars["CVE-9000-0001"]
    damaged = damaged_entry(jar, entry, "zip64-size")
    zf = zipfile.ZipFile(io.BytesIO(damaged))
    assert zf.getinfo(entry).file_size == 2**64 - 1
    assert zf.read(entry) == zipfile.ZipFile(io.BytesIO(jar)).read(entry)
    archive = parse_jar(damaged)
    assert not archive.failures
    assert [p for p, _ in archive.classes] == [p for p, _ in parse_jar(jar).classes]
    res = _scan_next_to_a_good_jar(tmp_path, corpus, corpus_kb, damaged)
    assert res.error is None and res.parse_failures == 0


def test_unsupported_zip_version_is_a_jar_error(corpus, corpus_kb, tmp_path):
    """A central directory that asks for a newer zip version than zipfile
    reads makes the archive unreadable: the JAR gets an error, and the
    next JAR is still flagged."""
    jar = damaged_central_directory(corpus.pre_jars["CVE-9000-0001"], "version")
    with pytest.raises(NotImplementedError):
        zipfile.ZipFile(io.BytesIO(jar))
    res = _scan_next_to_a_good_jar(tmp_path, corpus, corpus_kb, jar)
    assert res.error == "zip file version 7.2" and not res.findings


def test_local_header_before_the_archive_is_a_parse_failure(corpus, corpus_kb, tmp_path):
    """A central directory whose offsets put local headers before the start
    of the archive makes those entries unreadable (a negative seek in
    zipfile), not the scan: each class is an unreadable-entry parse
    failure, and the next JAR is still flagged. In the scan, every class
    is a failure only because the corpus KB names every corpus class, so
    every entry is opened; an entry whose stem no record's class has is
    not read, and counts under classes."""
    jar = damaged_central_directory(corpus.pre_jars["CVE-9000-0001"], "offset")
    zf = zipfile.ZipFile(io.BytesIO(jar))
    classes = [i for i in zf.infolist() if i.filename.endswith(".class")]
    assert all(i.filename.rpartition("/")[2][:-6] in corpus_kb.simple_class_names
               for i in classes)
    assert any(i.header_offset < 0 for i in classes)
    with pytest.raises(ValueError, match="negative seek"):
        zf.read(min(classes, key=lambda i: i.header_offset))
    archive = parse_jar(jar)
    assert not archive.classes and len(archive.failures) == len(classes)
    assert all(f.error.startswith("unreadable entry: ") for f in archive.failures)
    res = _scan_next_to_a_good_jar(tmp_path, corpus, corpus_kb, jar)
    assert res.error is None and res.parse_failures == len(classes)


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


def test_unresolvable_reference_in_unreachable_code_skips_the_method(
        corpus_kb, unreachable_out_of_range_beta_pre):
    """Lifting reads a method's resolved code, all of it: a pool entry past
    the end of the pool makes the method unliftable even in code that no
    path reaches."""
    name, data = unreachable_out_of_range_beta_pre
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
    assert any(r.stripped for r in records)
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

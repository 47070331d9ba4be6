"""Stage-2 scanning: match JAR constructs against the knowledge base and
classify each as vulnerable or fixed, per CVE, in default and
re-packaging-detection modes.

Decision rules for a matched method with triplet set Tm and fix signature
(CT, PT, NT):

  * NT nonempty: vulnerable iff |NT ∩ Tm| >= |PT ∩ Tm|
  * NT empty (fix only added code): vulnerable iff |PT ∩ Tm| / |PT| < θPT
  * repack mode gate, applied first on unqualified sets: the method is
    considered at all only when |CT ∩ Tm| / |CT| > θCT (fails closed)

A JAR is reported vulnerable to a CVE when vulnerable construct verdicts
are greater than or equal to fixed ones (skipped verdicts do not vote).
"""

from __future__ import annotations

import logging
import shlex
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from .classfile.constructs import strip_packages
from .classfile.descriptors import method_signature
from .classfile.model import ClassFile, MethodInfo, code_digest
from .classfile.parser import parse_jar
from .cpg import FixSignature, method_triplets, unqualify
from .errors import (BadConstantPoolRef, ClassParseError, JarscanError, LiftError,
                     MalformedArchive)
from .kb import KnowledgeBase, class_member_context

log = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1

DEFAULT_THETA_PT = 0.5
DEFAULT_THETA_CC = 0.3
DEFAULT_THETA_CT = 0.3

VULNERABLE = "vulnerable"
FIXED = "fixed"
SKIPPED = "skipped"
NOT_FLAGGED = "not-flagged"


@dataclass(frozen=True)
class ScanConfig:
    theta_pt: float = DEFAULT_THETA_PT
    theta_cc: float = DEFAULT_THETA_CC
    theta_ct: float = DEFAULT_THETA_CT
    modes: tuple = ("default", "repack")


@dataclass(frozen=True)
class MatchCounts:
    nt_hit: int
    pt_hit: int
    ct_hit: int
    nt_size: int
    pt_size: int
    ct_size: int


@dataclass(frozen=True)
class ConstructVerdict:
    fqn: str
    kind: str
    change: str
    cve_id: str
    verdict: str                      # vulnerable | fixed | skipped
    mode: str                         # default | repack
    counts: MatchCounts | None = None
    reason: str | None = None         # presence/absence evidence
    scanned_fqn: str | None = None    # repack: the construct actually matched


@dataclass
class CveFinding:
    cve_id: str
    verdict: str                      # vulnerable | not-flagged
    modes_fired: list
    constructs: list


@dataclass
class JarResult:
    path: str
    error: str | None = None
    classes: int = 0
    parse_failures: int = 0
    findings: list = field(default_factory=list)
    elapsed_ms: float = 0.0           # excluded from the JSON report


@dataclass
class ScanReport:
    config: ScanConfig
    jars: list

    def vulnerable_cves(self) -> set:
        out = set()
        for jar in self.jars:
            for finding in jar.findings:
                if finding.verdict == VULNERABLE:
                    out.add((jar.path, finding.cve_id))
        return out


# ------------------------------------------------------------ dependency input

def retrieve_dependencies(directory=None, list_file=None, command=None,
                          paths=()) -> list[str]:
    """Resolve the JARs to scan from a directory, a list file, an external
    command printing paths, or explicit paths; deduplicated, absolute."""
    found: list[str] = []
    if directory is not None:
        found.extend(str(p) for p in sorted(Path(directory).rglob("*.jar")))
    if list_file is not None:
        for line in Path(list_file).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                found.append(line)
    if command is not None:
        proc = subprocess.run(shlex.split(command), capture_output=True,
                              text=True, check=True)
        found.extend(l.strip() for l in proc.stdout.splitlines() if l.strip())
    found.extend(str(p) for p in paths)
    out: list[str] = []
    seen = set()
    for p in found:
        ap = str(Path(p).resolve())
        if ap not in seen:
            seen.add(ap)
            out.append(ap)
    if not out:
        log.warning("no JAR files found to scan")
    return out


# ------------------------------------------------------------------ jar view

_LIFT_FAILED = object()


class JarView:
    """Indexed view of one parsed archive, with a triplet cache and the
    package-stripped form of each triplet label repack mode has met.

    With a KB that records code digests, a method body that is a recorded
    pre- or post-fix body takes its triplets from the KB, unlifted.
    """

    def __init__(self, archive, kb: KnowledgeBase | None = None):
        self.archive = archive
        self._kb = kb if kb is not None and kb.has_code_digests else None
        self.class_by_fqn: dict[str, ClassFile] = {}
        self.methods: dict[str, tuple[ClassFile, MethodInfo]] = {}
        self.by_unq_class: dict[str, list[ClassFile]] = {}
        for _path, cf in archive.classes:
            self.class_by_fqn.setdefault(cf.this_class, cf)
            self.by_unq_class.setdefault(strip_packages(cf.this_class), []).append(cf)
            for m in cf.methods:
                fqn = method_signature(cf.this_class, m.name, m.descriptor)
                self.methods.setdefault(fqn, (cf, m))
        self._triplets: dict[str, object] = {}
        self.stripped_labels: dict[str, str] = {}

    def method_triplet_set(self, fqn: str):
        """Triplets of the method with this FQN, or None when it has no
        code or its code cannot be lifted (a LiftError, or a pool
        reference of the wrong kind)."""
        cached = self._triplets.get(fqn)
        if cached is None:
            cf, m = self.methods[fqn]
            if m.code is None:
                cached = _LIFT_FAILED
            else:
                cached = self._known_triplets(cf, m)
            if cached is None:
                try:
                    cached = method_triplets(cf, m)
                except (LiftError, ClassParseError) as exc:
                    log.warning("skipping %s: %s", fqn, exc)
                    cached = _LIFT_FAILED
            self._triplets[fqn] = cached
        return None if cached is _LIFT_FAILED else cached

    def _known_triplets(self, cf: ClassFile, m: MethodInfo):
        """The KB's triplets for a body whose pool-resolved code is a
        recorded pre- or post-fix body; None on a miss, or when a pool
        reference does not resolve (lifting then reports it)."""
        if self._kb is None:
            return None
        try:
            return self._kb.triplets_for_code(code_digest(m, cf.constant_pool))
        except BadConstantPoolRef:
            return None


# ------------------------------------------------------------- triplet match

def match_triplets(t_m, sig: FixSignature, config: ScanConfig,
                   mode: str = "default",
                   memo: dict | None = None) -> tuple[str, MatchCounts]:
    """Classify one matched method body against a fix signature.

    ``memo`` is the label memo repack mode passes to ``unqualify``.
    """
    if mode == "repack":
        ct, pt, nt = (unqualify(sig.ct, memo), unqualify(sig.pt, memo),
                      unqualify(sig.nt, memo))
        tm = unqualify(t_m, memo)
    else:
        ct, pt, nt, tm = sig.ct, sig.pt, sig.nt, frozenset(t_m)
    counts = MatchCounts(nt_hit=len(nt & tm), pt_hit=len(pt & tm),
                         ct_hit=len(ct & tm), nt_size=len(nt),
                         pt_size=len(pt), ct_size=len(ct))
    if mode == "repack":
        # Without sufficient unchanged context there is no evidence this is
        # the same method; fail closed.
        if not ct or counts.ct_hit / len(ct) <= config.theta_ct:
            return FIXED, counts
    if nt:
        return (VULNERABLE if counts.nt_hit >= counts.pt_hit else FIXED), counts
    if not pt:
        return FIXED, counts
    return (VULNERABLE if counts.pt_hit / len(pt) < config.theta_pt else FIXED), counts


def match_class_context(kb_context: frozenset, scanned_class: ClassFile) -> float:
    """Fraction of KB-recorded siblings found (unqualified) in the class."""
    if not kb_context:
        return 0.0
    scanned = class_member_context(scanned_class)
    return len(kb_context & scanned) / len(kb_context)


# ----------------------------------------------------------- classification

def classify_construct(record, view: JarView, cve_id: str,
                       config: ScanConfig) -> ConstructVerdict:
    """Default mode: rules keyed on the record's change kind.

    removed: present in the JAR means the fix is not applied.
    added: a method missing while its declaring class is present means the
    fix is not applied; a missing declaring class counts as fixed.
    changed: the method body is lifted, normalized and triplet-matched.
    """
    fqn = record.construct.fqn
    kind = record.construct.kind

    def verdict(v, counts=None, reason=None):
        return ConstructVerdict(fqn=fqn, kind=kind, change=record.change,
                                cve_id=cve_id, verdict=v, mode="default",
                                counts=counts, reason=reason)

    if kind in ("class", "interface"):
        present = fqn in view.class_by_fqn
        if record.change == "removed":
            return verdict(VULNERABLE if present else FIXED,
                           reason="removed construct present" if present
                           else "removed construct absent")
        if record.change == "added":
            return verdict(FIXED if present else VULNERABLE,
                           reason="added construct present" if present
                           else "added construct absent")
        return verdict(SKIPPED, reason="class-level change carries no signature")

    declaring = record.declaring_class
    class_present = declaring in view.class_by_fqn
    method_present = fqn in view.methods

    if record.change == "removed":
        return verdict(VULNERABLE if method_present else FIXED,
                       reason="removed construct present" if method_present
                       else "removed construct absent")
    if record.change == "added":
        if method_present:
            return verdict(FIXED, reason="added method present")
        if class_present:
            return verdict(VULNERABLE,
                           reason="added method absent while declaring class present")
        return verdict(FIXED, reason="declaring class absent")

    # changed
    if not class_present:
        return verdict(SKIPPED, reason="declaring class not in archive")
    if not method_present:
        return verdict(VULNERABLE, reason="changed method missing from declaring class")
    if record.signature is None:
        return verdict(SKIPPED, reason="no signature recorded for changed method")
    t_m = view.method_triplet_set(fqn)
    if t_m is None:
        return verdict(SKIPPED, reason="method body could not be lifted")
    v, counts = match_triplets(t_m, record.signature, config, mode="default")
    return verdict(v, counts=counts)


def classify_construct_repack(record, view: JarView, cve_id: str,
                              config: ScanConfig) -> ConstructVerdict:
    """Repack mode: locate the declaring class by unqualified name, gate on
    class context, then apply the same rules on unqualified names."""
    fqn = record.construct.fqn
    kind = record.construct.kind

    def verdict(v, counts=None, reason=None, scanned_fqn=None):
        return ConstructVerdict(fqn=fqn, kind=kind, change=record.change,
                                cve_id=cve_id, verdict=v, mode="repack",
                                counts=counts, reason=reason,
                                scanned_fqn=scanned_fqn)

    unq_class = strip_packages(record.declaring_class)
    candidates = view.by_unq_class.get(unq_class, [])
    if not candidates:
        if record.change == "removed":
            return verdict(FIXED, reason="removed construct absent")
        if record.change == "added":
            return verdict(FIXED, reason="declaring class absent")
        return verdict(SKIPPED, reason="no class with matching unqualified name")
    confirmed = [cf for cf in candidates
                 if match_class_context(record.class_context, cf) > config.theta_cc]
    if not confirmed:
        return verdict(SKIPPED, reason="class context below threshold")

    results = [_classify_record_in_class(record, view, cf, config)
               for cf in confirmed]
    for v, counts, reason, scanned in results:
        if v == VULNERABLE:
            return verdict(v, counts, reason, scanned)
    for v, counts, reason, scanned in results:
        if v == FIXED:
            return verdict(v, counts, reason, scanned)
    v, counts, reason, scanned = results[0]
    return verdict(v, counts, reason, scanned)


def _classify_record_in_class(record, view: JarView, cf: ClassFile,
                              config: ScanConfig):
    """Evaluate one record against one context-confirmed scanned class."""
    kind = record.construct.kind
    if kind in ("class", "interface"):
        if record.change == "removed":
            return (VULNERABLE, None, "removed class present (unqualified match)",
                    cf.this_class)
        if record.change == "added":
            return (FIXED, None, "added class present (unqualified match)",
                    cf.this_class)
        return (SKIPPED, None, "class-level change carries no signature", cf.this_class)

    target_unq = record.construct.unqualified
    match = None
    for m in cf.methods:
        scanned_fqn = method_signature(cf.this_class, m.name, m.descriptor)
        if strip_packages(scanned_fqn) == target_unq:
            match = scanned_fqn
            break
    if record.change == "removed":
        if match is not None:
            return (VULNERABLE, None, "removed construct present", match)
        return (FIXED, None, "removed construct absent", cf.this_class)
    if record.change == "added":
        if match is not None:
            return (FIXED, None, "added method present", match)
        return (VULNERABLE, None,
                "added method absent while declaring class present", cf.this_class)
    # changed
    if match is None:
        return (VULNERABLE, None, "changed method missing from declaring class",
                cf.this_class)
    if record.signature is None:
        return (SKIPPED, None, "no signature recorded for changed method", match)
    t_m = view.method_triplet_set(match)
    if t_m is None:
        return (SKIPPED, None, "method body could not be lifted", match)
    v, counts = match_triplets(t_m, record.signature, config, mode="repack",
                               memo=view.stripped_labels)
    return (v, counts, None, match)


def aggregate(verdicts: list) -> str:
    """Majority rule: vulnerable when vulnerable verdicts >= fixed ones;
    skipped verdicts do not vote; all-skipped means not flagged."""
    vuln = sum(1 for v in verdicts if v.verdict == VULNERABLE)
    fixed = sum(1 for v in verdicts if v.verdict == FIXED)
    if vuln + fixed == 0:
        return NOT_FLAGGED
    return VULNERABLE if vuln >= fixed else NOT_FLAGGED


# -------------------------------------------------------------------- scan

def _candidate_cves(kb: KnowledgeBase, view: JarView, mode: str) -> list[str]:
    out = set()
    if mode == "default":
        for fqn in view.class_by_fqn:
            out |= kb.candidate_cves_for_class(fqn)
    else:
        for unq in view.by_unq_class:
            out |= kb.candidate_cves_for_unqualified_class(unq)
    return sorted(out)


def scan_jar_bytes(path: str, data: bytes, kb: KnowledgeBase,
                   config: ScanConfig) -> JarResult:
    start = time.perf_counter()
    try:
        archive = parse_jar(data, kb.asks_about_class, kb.asks_about_method)
    except MalformedArchive as exc:
        return JarResult(path=path, error=str(exc))
    view = JarView(archive, kb)
    findings: dict[str, CveFinding] = {}

    for mode in config.modes:
        classify = classify_construct if mode == "default" else classify_construct_repack
        for cve in _candidate_cves(kb, view, mode):
            verdicts = [classify(rec, view, cve, config) for rec in kb.records[cve]]
            outcome = aggregate(verdicts)
            if outcome == NOT_FLAGGED and all(v.verdict == SKIPPED for v in verdicts):
                log.warning("%s: %s evaluated in %s mode but every construct "
                            "was skipped", path, cve, mode)
            finding = findings.get(cve)
            if finding is None:
                finding = CveFinding(cve_id=cve, verdict=NOT_FLAGGED,
                                     modes_fired=[], constructs=[])
                findings[cve] = finding
            finding.constructs.extend(verdicts)
            if outcome == VULNERABLE:
                finding.verdict = VULNERABLE
                finding.modes_fired.append(mode)

    result = JarResult(
        path=path,
        classes=len(archive.classes) + len(archive.unparsed),
        parse_failures=len(archive.failures),
        findings=[findings[c] for c in sorted(findings)],
    )
    result.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return result


def scan_jar(path: str, kb: KnowledgeBase, config: ScanConfig) -> JarResult:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return JarResult(path=path, error=str(exc))
    return scan_jar_bytes(path, data, kb, config)


def scan(jar_paths: list, kb: KnowledgeBase,
         config: ScanConfig | None = None) -> ScanReport:
    """Scan JARs against the KB, in input order; per-JAR failures become
    error entries."""
    config = config or ScanConfig()
    return ScanReport(config=config, jars=[scan_jar(p, kb, config) for p in jar_paths])


# ------------------------------------------------------------------ reports

def counts_to_json(c: MatchCounts | None):
    if c is None:
        return None
    return {"nt_hit": c.nt_hit, "pt_hit": c.pt_hit, "ct_hit": c.ct_hit,
            "nt_size": c.nt_size, "pt_size": c.pt_size, "ct_size": c.ct_size}


def report_to_json(report: ScanReport) -> dict:
    """Stable JSON form; timings are deliberately excluded so identical
    inputs produce byte-identical reports."""
    return {
        "format_version": REPORT_FORMAT_VERSION,
        "config": {
            "theta_pt": report.config.theta_pt,
            "theta_cc": report.config.theta_cc,
            "theta_ct": report.config.theta_ct,
            "modes": list(report.config.modes),
        },
        "jars": [
            {
                "path": jar.path,
                "error": jar.error,
                "classes": jar.classes,
                "parse_failures": jar.parse_failures,
                "findings": [
                    {
                        "cve": f.cve_id,
                        "verdict": f.verdict,
                        "modes_fired": sorted(set(f.modes_fired)),
                        "constructs": [
                            {
                                "fqn": v.fqn,
                                "kind": v.kind,
                                "change": v.change,
                                "mode": v.mode,
                                "verdict": v.verdict,
                                "counts": counts_to_json(v.counts),
                                "reason": v.reason,
                                "scanned_fqn": v.scanned_fqn,
                            }
                            for v in sorted(f.constructs,
                                            key=lambda v: (v.mode, v.fqn, v.change))
                        ],
                    }
                    for f in jar.findings
                ],
            }
            for jar in report.jars
        ],
    }


def render_table(report: ScanReport) -> str:
    """Human-readable summary, one line per (jar, cve)."""
    lines = []
    lines.append(f"{'JAR':40} {'CVE':18} {'VERDICT':12} MODES")
    for jar in report.jars:
        name = Path(jar.path).name
        if jar.error:
            lines.append(f"{name:40} {'-':18} {'error':12} {jar.error}")
            continue
        if not jar.findings:
            lines.append(f"{name:40} {'-':18} {'clean':12} -")
            continue
        for f in jar.findings:
            modes = ",".join(sorted(set(f.modes_fired))) or "-"
            lines.append(f"{name:40} {f.cve_id:18} {f.verdict:12} {modes}")
    vuln = sum(1 for j in report.jars for f in j.findings if f.verdict == VULNERABLE)
    lines.append(f"-- {vuln} vulnerable finding(s) across {len(report.jars)} jar(s)")
    return "\n".join(lines)

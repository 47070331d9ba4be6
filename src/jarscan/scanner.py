"""Stage-2 scanning: match JAR constructs against the knowledge base and
classify each as vulnerable or fixed, per CVE, in default and
re-packaging-detection modes.

Both modes apply one table of construct rules (``_rules``) and differ only
in how they find a record's declaring class and method in the JAR:

  * default mode by exact FQN, comparing triplets as they are;
  * repack mode by unqualified name: each class of the record's
    unqualified class name whose class context passes θCC, and its method
    of the record's unqualified signature, comparing triplets unqualified.
    Of several such classes the first vulnerable verdict is reported, else
    the first fixed one, else the first.

The rules, by the record's change:

  * removed: the construct present is vulnerable, absent fixed;
  * added: the construct present is fixed; a method missing from its
    present declaring class is vulnerable; with the declaring class
    absent, a method is fixed, and a class-level construct vulnerable in
    default mode but fixed in repack mode;
  * changed: a method missing from its present declaring class is
    vulnerable; the body's triplets are matched against the fix
    signature; an absent class, a record without signature, a body that
    cannot be lifted and a class-level change are skipped.

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
import os
import stat
from pathlib import Path
from typing import BinaryIO, NamedTuple

from ._record import Record
from .classfile.constructs import strip_packages
from .classfile.model import ClassFile, MethodInfo, key_digest, resolved_code, stripped_code
from .classfile.parser import parse_jar
from .errors import (BadConstantPoolRef, ClassParseError, JarscanError, LiftError,
                     MalformedArchive)
from .kb import KnowledgeBase, class_member_context
from .triplets import FixSignature, unqualify

log = logging.getLogger(__name__)

REPORT_FORMAT_VERSION = 1

DEFAULT_THETA_PT = 0.5
DEFAULT_THETA_CC = 0.3
DEFAULT_THETA_CT = 0.3

VULNERABLE = "vulnerable"
FIXED = "fixed"
SKIPPED = "skipped"
NOT_FLAGGED = "not-flagged"

MODES = ("default", "repack")    # the order a scan runs them in


class ScanConfig(NamedTuple):
    theta_pt: float = DEFAULT_THETA_PT
    theta_cc: float = DEFAULT_THETA_CC
    theta_ct: float = DEFAULT_THETA_CT
    modes: tuple = MODES


class MatchCounts(NamedTuple):
    nt_hit: int
    pt_hit: int
    ct_hit: int
    nt_size: int
    pt_size: int
    ct_size: int


class ConstructVerdict(NamedTuple):
    fqn: str
    kind: str
    change: str
    cve_id: str
    verdict: str                      # vulnerable | fixed | skipped
    mode: str                         # default | repack
    counts: MatchCounts | None = None
    reason: str | None = None         # presence/absence evidence
    scanned_fqn: str | None = None    # repack: the construct actually matched


class CveFinding(Record):
    __slots__ = ("cve_id", "verdict", "modes_fired", "constructs")

    def __init__(self, cve_id: str, verdict: str, modes_fired: list, constructs: list):
        self.cve_id = cve_id
        self.verdict = verdict            # vulnerable | not-flagged
        self.modes_fired = modes_fired
        self.constructs = constructs


class JarResult(Record):
    __slots__ = ("path", "error", "classes", "parse_failures", "findings")

    def __init__(self, path: str, error: str | None = None, classes: int = 0,
                 parse_failures: int = 0, findings: list | None = None):
        self.path = path
        self.error = error
        self.classes = classes
        self.parse_failures = parse_failures
        self.findings = [] if findings is None else findings


class ScanReport(Record):
    __slots__ = ("config", "jars")

    def __init__(self, config: ScanConfig, jars: list):
        self.config = config
        self.jars = jars


# ------------------------------------------------------------ dependency input

def retrieve_dependencies(directory=None, list_file=None, command=None,
                          paths=()) -> list[str]:
    """Resolve the JARs to scan from a directory, a list file, an external
    command printing paths, or explicit paths; deduplicated, absolute.
    Raises ValueError for a directory that is not one, a list file that
    cannot be read or is not UTF-8, a command that does not split into
    words, or one whose output is not text."""
    found: list[str] = []
    if directory is not None:
        if not Path(directory).is_dir():
            raise ValueError(f"{directory} is not a directory")
        found.extend(str(p) for p in sorted(Path(directory).rglob("*.jar")))
    if list_file is not None:
        try:
            text = Path(list_file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{list_file} is not UTF-8: {exc}") from None
        except OSError as exc:
            raise ValueError(f"cannot read {list_file}: {exc.strerror or exc}") from None
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                found.append(line)
    if command is not None:
        import shlex
        import subprocess
        try:
            argv = shlex.split(command)
        except ValueError as exc:
            raise ValueError(f"cannot split command {command!r}: {exc}") from None
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        except UnicodeDecodeError as exc:
            raise ValueError(f"output of command {command!r} is not text: {exc}") from None
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
    """Indexed view of one parsed archive, with a triplet cache.

    A method body that is a recorded pre- or post-fix body takes its
    triplets from the KB, unlifted; unqualified, so does a body that is
    one up to package relocation. A KB without code digests just misses,
    and the body is lifted.
    """

    def __init__(self, archive, kb: KnowledgeBase):
        self.archive = archive
        self.kb = kb
        self.class_by_fqn: dict[str, ClassFile] = {}
        self.methods: dict[str, tuple[ClassFile, MethodInfo]] = {}
        self.by_unq_class: dict[str, list[ClassFile]] = {}
        for _path, cf in archive.classes:
            self.class_by_fqn.setdefault(cf.this_class, cf)
            self.by_unq_class.setdefault(strip_packages(cf.this_class), []).append(cf)
            for m, fqn in zip(cf.methods, cf.method_fqns):
                self.methods.setdefault(fqn, (cf, m))
        self._triplets: dict[tuple[str, bool], object] = {}
        self._code: dict[str, tuple | None] = {}

    def method_triplet_set(self, fqn: str, unqualified: bool = False):
        """Triplets of the method with this FQN, ``unqualify``-ed with
        ``unqualified``; None when it has no code or its code cannot be
        lifted (a LiftError, or a pool reference that does not resolve or
        is of the wrong kind). Both forms share one lift."""
        cached = self._triplets.get((fqn, unqualified))
        if cached is None:
            cached = self._recorded(fqn, unqualified)
            if cached is None:
                # A miss here is a miss qualified too: lift once for both.
                cached = self._triplets.get((fqn, False))
                if cached is None:
                    cached = self._triplets[fqn, False] = self._lift(fqn)
                if unqualified and cached is not _LIFT_FAILED:
                    cached = unqualify(cached)
            self._triplets[fqn, unqualified] = cached
        return None if cached is _LIFT_FAILED else cached

    def _lift(self, fqn: str):
        """The triplets of one body through the full pipeline, or
        _LIFT_FAILED for a method without code or one that does not lift."""
        from .cpg import method_triplets
        cf, m = self.methods[fqn]
        if m.code is None:
            return _LIFT_FAILED
        try:
            return method_triplets(cf, m)
        except (LiftError, ClassParseError) as exc:
            log.warning("skipping %s: %s", fqn, exc)
            return _LIFT_FAILED

    def _recorded(self, fqn: str, unqualified: bool):
        """The KB's triplets for a body whose pool-resolved code is a
        recorded pre- or post-fix body's, or, unqualified, whose stripped
        code is; None on a miss."""
        code = self._resolved(fqn)
        if code is None:
            return None
        key, digest = code
        hit = self.kb.triplets_for_code(digest, unqualified)
        if hit is None and unqualified:
            stripped = stripped_code(key)
            if stripped is not None:
                hit = self.kb.triplets_for_stripped_code(key_digest(stripped))
        return hit

    def _resolved(self, fqn: str):
        """(``resolved_code``, its digest) of a method body, kept for the
        other mode; None for a method without code, or when a pool
        reference does not resolve (lifting then reports it)."""
        if fqn not in self._code:
            cf, m = self.methods[fqn]
            try:
                key = resolved_code(m, cf.constant_pool)
            except BadConstantPoolRef:
                key = None
            self._code[fqn] = None if key is None else (key, key_digest(key))
        return self._code[fqn]


# ------------------------------------------------------------- triplet match

def match_triplets(t_m, sig: FixSignature, config: ScanConfig,
                   mode: str = "default") -> tuple[str, MatchCounts]:
    """Classify one matched method body against a fix signature.

    Callers pass both sides as they are to be compared; repack mode's
    pass the body's triplets and the signature unqualified (``unqualify``,
    ``KnowledgeBase.unqualified_signature``). ``mode`` only decides
    whether the θCT gate on unchanged context applies.
    """
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
    """Default mode: the record's declaring class and method by exact FQN."""
    fqn = record.construct.fqn
    method = fqn if fqn in view.methods else None
    verdict, counts, reason = _rules(record, "default", view, config,
                                     record.declaring_class in view.class_by_fqn, method)
    return _construct_verdict(record, cve_id, "default", verdict, counts, reason)


def classify_construct_repack(record, view: JarView, cve_id: str,
                              config: ScanConfig) -> ConstructVerdict:
    """Repack mode: each class of the record's unqualified class name whose
    class context passes θCC, and its method of the record's unqualified
    signature. Of several such classes the first vulnerable verdict is
    reported, else the first fixed one, else the first."""
    candidates = view.by_unq_class.get(strip_packages(record.declaring_class), [])
    if not candidates:
        return _construct_verdict(record, cve_id, "repack",
                                  *_rules(record, "repack", view, config, False, None))
    confirmed = [cf for cf in candidates
                 if match_class_context(record.class_context, cf) > config.theta_cc]
    if not confirmed:
        return _construct_verdict(record, cve_id, "repack", SKIPPED, None,
                                  "class context below threshold")
    results = []
    for cf in confirmed:
        method = None
        if record.construct.kind == "method":
            method = _method_by_unqualified(cf, record.construct.unqualified)
        results.append((*_rules(record, "repack", view, config, True, method),
                        cf.this_class if method is None else method))
    chosen = next((r for r in results if r[0] == VULNERABLE),
                  next((r for r in results if r[0] == FIXED), results[0]))
    return _construct_verdict(record, cve_id, "repack", *chosen)


def _method_by_unqualified(cf: ClassFile, unqualified: str) -> str | None:
    """FQN of the class's first method whose unqualified signature is this."""
    for fqn, unq in zip(cf.method_fqns, cf.unqualified_method_fqns):
        if unq == unqualified:
            return fqn
    return None


def _construct_verdict(record, cve_id: str, mode: str, verdict: str, counts, reason,
                       scanned_fqn=None) -> ConstructVerdict:
    return ConstructVerdict(fqn=record.construct.fqn, kind=record.construct.kind,
                            change=record.change, cve_id=cve_id, verdict=verdict,
                            mode=mode, counts=counts, reason=reason,
                            scanned_fqn=scanned_fqn)


def _rules(record, mode: str, view: JarView, config: ScanConfig,
           class_found: bool, method: str | None) -> tuple:
    """The added/removed/changed rules for one record, against the class
    (``class_found``) and method (``method``, its FQN in the JAR, or None)
    that the mode's resolver found. Returns (verdict, counts, reason).

    Default mode compares the method's triplets with the record's
    signature as they are, repack mode both unqualified.
    """
    change = record.change
    repack = mode == "repack"
    if record.construct.kind in ("class", "interface"):
        if change == "removed":
            if not class_found:
                return FIXED, None, "removed construct absent"
            return VULNERABLE, None, ("removed class present (unqualified match)"
                                      if repack else "removed construct present")
        if change == "added":
            if class_found:
                return FIXED, None, ("added class present (unqualified match)"
                                     if repack else "added construct present")
            if repack:
                return FIXED, None, "declaring class absent"
            return VULNERABLE, None, "added construct absent"
        if repack and not class_found:
            return SKIPPED, None, "no class with matching unqualified name"
        return SKIPPED, None, "class-level change carries no signature"

    if change == "removed":
        if method is not None:
            return VULNERABLE, None, "removed construct present"
        return FIXED, None, "removed construct absent"
    if change == "added":
        if method is not None:
            return FIXED, None, "added method present"
        if class_found:
            return VULNERABLE, None, "added method absent while declaring class present"
        return FIXED, None, "declaring class absent"
    # changed
    if not class_found:
        return SKIPPED, None, ("no class with matching unqualified name" if repack
                               else "declaring class not in archive")
    if method is None:
        return VULNERABLE, None, "changed method missing from declaring class"
    if record.signature is None:
        return SKIPPED, None, "no signature recorded for changed method"
    t_m = view.method_triplet_set(method, unqualified=repack)
    if t_m is None:
        return SKIPPED, None, "method body could not be lifted"
    sig = view.kb.unqualified_signature(record.signature) if repack else record.signature
    verdict, counts = match_triplets(t_m, sig, config, mode)
    return verdict, counts, None


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


def scan_jar_bytes(path: str, data: bytes | BinaryIO, kb: KnowledgeBase,
                   config: ScanConfig) -> JarResult:
    """Scan the JAR ``data``: its bytes or an open seekable binary file
    (see ``parse_jar``)."""
    try:
        archive = parse_jar(data, kb.changed_methods, kb.simple_class_names)
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

    return JarResult(
        path=path,
        classes=len(archive.classes) + len(archive.unopened),
        parse_failures=len(archive.failures),
        findings=[findings[c] for c in sorted(findings)],
    )


def scan_jar(path: str, kb: KnowledgeBase, config: ScanConfig) -> JarResult:
    """Scan the JAR at ``path``; a path that cannot be opened or read is
    an error entry.

    A regular file is read in place as an open file (see ``parse_jar``),
    so only its central directory and the entries opened are read, not
    the whole archive. Anything else (a FIFO, a device) is read whole.
    """
    try:
        file = open(path, "rb")
    except OSError as exc:
        return JarResult(path=path, error=str(exc))
    with file:
        if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
            return scan_jar_bytes(path, file, kb, config)
        try:
            data = file.read()
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

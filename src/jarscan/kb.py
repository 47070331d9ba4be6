"""Knowledge base: CVE ids mapped to construct-level fix signatures.

Built once from pre/post-fix compiled classes, persisted as a single
versioned text file (sorted JSON body, trailing checksum), and queried by
fully qualified or unqualified construct names during scans.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .classfile.constructs import ConstructId, strip_packages
from .classfile.descriptors import method_signature, render_type
from .classfile.model import ClassFile, MethodInfo, key_digest, resolved_code, stripped_code
from .classfile.parser import parse_class
from .triplets import FixSignature, deserialize_triplets, serialize_triplets, unqualify
from .errors import (BadConstantPoolRef, ClassParseError, CorruptFile, EmptyDiff,
                     KbFormatError, LiftError, VersionMismatch)

log = logging.getLogger(__name__)

FORMAT_VERSION = 1
_HEADER = "jarscan-kb"

# Each run that method_signature could have rendered as a method name: a
# space before, "(" after. A name with no space, "(" or "." is found this
# way in the record's FQN and in its unqualified form.
_SIGNATURE_NAMES = re.compile(r"(?<= )[^ (]+(?=\()")
_ODD_NAME_CHARS = frozenset(" (.")


@dataclass(frozen=True)
class ManifestEntry:
    cve_id: str
    pre_dir: Path
    post_dir: Path
    provenance: str = ""


@dataclass(frozen=True)
class ConstructRecord:
    """One construct touched by a fix: its identity, how it changed,
    the triplet signature (changed methods only), the declaring class's
    post-fix member context and, for a signed changed method, the
    ``code_digest`` of its pre- and post-fix bodies and the digests of
    their ``stripped_code``."""

    construct: ConstructId
    change: str                       # added | removed | changed
    signature: FixSignature | None
    class_context: frozenset = frozenset()
    code: tuple[str, str] | None = None       # (pre, post) code digests
    stripped: tuple[str, str] | None = None   # (pre, post) stripped digests

    @property
    def declaring_class(self) -> str:
        fqn = self.construct.fqn
        return fqn.split(":", 1)[0] if self.construct.kind == "method" else fqn


@dataclass
class KnowledgeBase:
    format_version: int = FORMAT_VERSION
    records: dict = field(default_factory=dict)   # cve_id -> [ConstructRecord]

    def __post_init__(self):
        self._reindex()

    def _reindex(self):
        self._class_candidates: dict[str, set] = {}
        self._unq_class_candidates: dict[str, set] = {}
        self._changed_fqns: set[str] = set()
        self._changed_unqualified: set[str] = set()
        self._changed_names: set[str] = set()
        self._code_sides: dict[str, tuple[FixSignature, str]] = {}
        self._stripped_sides: dict[str, tuple[FixSignature, str]] = {}
        self._unqualified: dict[FixSignature, FixSignature] = {}
        self._stripped_labels: dict[str, str] = {}
        for cve, records in self.records.items():
            for rec in records:
                cls = rec.declaring_class
                self._class_candidates.setdefault(cls, set()).add(cve)
                self._unq_class_candidates.setdefault(
                    strip_packages(cls), set()).add(cve)
                if rec.construct.kind == "method" and rec.change == "changed":
                    fqn, unq = rec.construct.fqn, rec.construct.unqualified
                    self._changed_fqns.add(fqn)
                    self._changed_unqualified.add(unq)
                    self._changed_names.update(_SIGNATURE_NAMES.findall(fqn))
                    self._changed_names.update(_SIGNATURE_NAMES.findall(unq))
                if rec.signature is None:
                    continue
                # Equal code lifts to equal triplets, and equal stripped
                # code to equal unqualified triplets, so whichever record
                # a digest is first seen under will do.
                for sides, digests in ((self._code_sides, rec.code),
                                       (self._stripped_sides, rec.stripped)):
                    if digests is not None:
                        pre, post = digests
                        sides.setdefault(pre, (rec.signature, "pre"))
                        sides.setdefault(post, (rec.signature, "post"))

    def cve_ids(self) -> list[str]:
        return sorted(self.records)

    def candidate_cves_for_class(self, class_fqn: str) -> set:
        """CVEs whose records live in the given class (by FQN)."""
        return set(self._class_candidates.get(class_fqn, ()))

    def candidate_cves_for_unqualified_class(self, unq_name: str) -> set:
        return set(self._unq_class_candidates.get(unq_name, ()))

    def asks_about_class(self, class_fqn: str) -> bool:
        """Whether a scan in any mode can look up this class: some record
        lives in it by FQN or by unqualified name."""
        return (class_fqn in self._class_candidates
                or strip_packages(class_fqn) in self._unq_class_candidates)

    def asks_about_method(self, class_fqn: str, name: str, descriptor: str) -> bool:
        """Whether a scan in any mode can lift this method's body: a
        ``changed`` method record names it by FQN or by unqualified
        signature. Most methods are answered by their name alone."""
        if name not in self._changed_names and _ODD_NAME_CHARS.isdisjoint(name):
            return False
        fqn = method_signature(class_fqn, name, descriptor)
        return (fqn in self._changed_fqns
                or strip_packages(fqn) in self._changed_unqualified)

    @property
    def has_code_digests(self) -> bool:
        return bool(self._code_sides)

    @property
    def has_stripped_digests(self) -> bool:
        return bool(self._stripped_sides)

    def triplets_for_code(self, digest: str, unqualified: bool = False) -> frozenset | None:
        """The triplet set of a method body whose ``code_digest`` is a
        signed record's pre- or post-fix digest, or None. ``diff`` split
        that record's T_pre into CT and NT and its T_post into CT and PT,
        so a pre-fix body has CT | NT and a post-fix body CT | PT. With
        ``unqualified``, the set as ``unqualify`` gives it."""
        return self._side(self._code_sides.get(digest), unqualified)

    def triplets_for_stripped_code(self, digest: str) -> frozenset | None:
        """The unqualified triplet set of a method body whose stripped
        digest (the ``key_digest`` of its ``stripped_code``) is a signed
        record's pre- or post-fix one, or None."""
        return self._side(self._stripped_sides.get(digest), True)

    def unqualified_signature(self, sig: FixSignature) -> FixSignature:
        """``unqualify`` of each part of a recorded signature, built on
        first use and kept; labels shared by records are stripped once."""
        got = self._unqualified.get(sig)
        if got is None:
            labels = self._stripped_labels
            got = self._unqualified[sig] = FixSignature(
                ct=unqualify(sig.ct, labels), pt=unqualify(sig.pt, labels),
                nt=unqualify(sig.nt, labels))
        return got

    def _side(self, hit, unqualified: bool) -> frozenset | None:
        if hit is None:
            return None
        sig, side = hit
        if unqualified:
            sig = self.unqualified_signature(sig)
        return sig.ct | (sig.nt if side == "pre" else sig.pt)

    def __eq__(self, other):
        return (isinstance(other, KnowledgeBase)
                and self.format_version == other.format_version
                and self.records == other.records)


def query_fqn(kb: KnowledgeBase, fqn: str) -> set:
    """CVE ids whose fix touched the construct with this exact FQN."""
    cls = fqn.split(":", 1)[0]
    return {cve for cve in kb.candidate_cves_for_class(cls)
            if any(rec.construct.fqn == fqn for rec in kb.records[cve])}


def query_unqualified(kb: KnowledgeBase, unqualified_sig: str) -> set:
    """(cve_id, fqn) pairs of method records matching the unqualified
    signature; ambiguity is expected and resolved later by class context."""
    unq_cls = unqualified_sig.split(":", 1)[0]
    return {(cve, rec.construct.fqn)
            for cve in kb.candidate_cves_for_unqualified_class(unq_cls)
            for rec in kb.records[cve]
            if rec.construct.kind == "method"
            and rec.construct.unqualified == unqualified_sig}


# ------------------------------------------------------------------ building

def class_member_context(cf: ClassFile, exclude_method: tuple | None = None) -> frozenset:
    """Unqualified sibling signatures and field names of a class.

    exclude_method is a (name, descriptor) pair left out of the set (the
    matched construct itself is not its own sibling).
    """
    items = set()
    for m in cf.methods:
        if exclude_method and (m.name, m.descriptor) == exclude_method:
            continue
        items.add(strip_packages(method_signature(cf.this_class, m.name, m.descriptor)))
    unq_cls = strip_packages(cf.this_class)
    for f in cf.fields:
        items.add(f"{unq_cls}#{f.name}:{strip_packages(render_type(f.descriptor))}")
    return frozenset(items)


def _method_triplets_or_none(cf: ClassFile, method: MethodInfo):
    from .cpg import method_triplets
    if method.code is None:
        return None
    try:
        return method_triplets(cf, method)
    except LiftError as exc:
        log.warning("cannot lift %s.%s%s: %s", cf.this_class, method.name,
                    method.descriptor, exc)
        return None


def _resolved_pair(pre_cf: ClassFile, pre_m: MethodInfo,
                   post_cf: ClassFile, post_m: MethodInfo) -> tuple | None:
    """The ``resolved_code`` of a method pair; None when a pool reference
    on either side does not resolve."""
    try:
        return (resolved_code(pre_m, pre_cf.constant_pool),
                resolved_code(post_m, post_cf.constant_pool))
    except BadConstantPoolRef:
        return None


def _same_code(keys: tuple | None) -> bool | None:
    """Whether a resolved pair's two sides are equal; None when the pair
    did not resolve."""
    return None if keys is None else keys[0] == keys[1]


def _code_digests(keys: tuple | None) -> tuple:
    """The (pre, post) code digests of a resolved pair and the (pre, post)
    digests of its ``stripped_code``: (None, None) when the pair did not
    resolve, and no stripped digests when either side has no stripped key."""
    if keys is None:
        return None, None
    stripped = tuple(map(stripped_code, keys))
    return (tuple(map(key_digest, keys)),
            None if None in stripped else tuple(map(key_digest, stripped)))


def build_entry(cve_id: str, pre_classes: list[ClassFile],
                post_classes: list[ClassFile]) -> list[ConstructRecord]:
    """Diff pre/post-fix classes into construct records.

    A method present on both sides is first compared by its pool-resolved
    code (``resolved_code``: descriptor, ``is_static``, exception table,
    and every instruction's offset, mnemonic and operands with pool
    indices replaced by the constants they name). Equal methods are
    neither lifted nor recorded, so only the methods a fix changed pay
    for the pipeline. The others are lifted and recorded as ``changed``
    when their triplets differ; when either side cannot be lifted, the
    same comparison decides alone. A pool reference that does not
    resolve falls back to lifting and, failing that, to comparing the
    decoded code as is. A signed ``changed`` record also carries both
    sides' ``code_digest`` and stripped digest, from the keys the
    comparison built, unless a pool reference does not resolve, so a scan
    can recognise either body, or a relocated copy of it, without lifting.

    Raises EmptyDiff when nothing differs after normalization.
    """
    pre = {cf.this_class: cf for cf in pre_classes}
    post = {cf.this_class: cf for cf in post_classes}
    records: list[ConstructRecord] = []

    for name in sorted(pre.keys() | post.keys()):
        pre_cf, post_cf = pre.get(name), post.get(name)
        if pre_cf is None or post_cf is None:
            present = post_cf or pre_cf
            kind = "interface" if present.is_interface else "class"
            change = "added" if pre_cf is None else "removed"
            cid = ConstructId(kind, name, strip_packages(name))
            records.append(ConstructRecord(
                construct=cid, change=change, signature=None,
                class_context=class_member_context(present)))
            continue

        pre_methods = {(m.name, m.descriptor): m for m in pre_cf.methods}
        post_methods = {(m.name, m.descriptor): m for m in post_cf.methods}
        for key in sorted(pre_methods.keys() | post_methods.keys()):
            mname, mdesc = key
            fqn = method_signature(name, mname, mdesc)
            cid = ConstructId("method", fqn, strip_packages(fqn))
            pre_m, post_m = pre_methods.get(key), post_methods.get(key)
            if post_m is None:
                records.append(ConstructRecord(
                    construct=cid, change="removed", signature=None,
                    class_context=class_member_context(post_cf, exclude_method=key)))
                continue
            if pre_m is None:
                records.append(ConstructRecord(
                    construct=cid, change="added", signature=None,
                    class_context=class_member_context(post_cf, exclude_method=key)))
                continue
            keys = _resolved_pair(pre_cf, pre_m, post_cf, post_m)
            same = _same_code(keys)
            if same:
                continue
            t_pre = _method_triplets_or_none(pre_cf, pre_m)
            t_post = _method_triplets_or_none(post_cf, post_m)
            if t_pre is not None and t_post is not None:
                if t_pre == t_post:
                    continue
                code, stripped = _code_digests(keys)
                records.append(ConstructRecord(
                    construct=cid, change="changed",
                    signature=_diff_signature(t_pre, t_post),
                    class_context=class_member_context(post_cf, exclude_method=key),
                    code=code, stripped=stripped))
            else:
                # Unliftable on at least one side: the code differs, so the
                # method is recorded without a signature and presence/absence
                # rules apply at scan. Only an unresolvable pool reference
                # leaves the decoded code itself to compare.
                if same is None and pre_m.code == post_m.code:
                    continue
                records.append(ConstructRecord(
                    construct=cid, change="changed", signature=None,
                    class_context=class_member_context(post_cf, exclude_method=key)))

    if not records:
        raise EmptyDiff(f"{cve_id}: pre and post classes are identical after normalization")
    records.sort(key=lambda r: (r.construct.fqn, r.change))
    return records


def _diff_signature(t_pre, t_post) -> FixSignature:
    from .cpg import diff
    return diff(t_pre, t_post)


# ---------------------------------------------------------------- persistence

def _record_to_json(rec: ConstructRecord) -> dict:
    out = {
        "kind": rec.construct.kind,
        "fqn": rec.construct.fqn,
        "change": rec.change,
        "context": sorted(rec.class_context),
        "signature": None,
    }
    if rec.signature is not None:
        out["signature"] = {
            "ct": serialize_triplets(rec.signature.ct),
            "pt": serialize_triplets(rec.signature.pt),
            "nt": serialize_triplets(rec.signature.nt),
        }
    if rec.code is not None:
        out["code"] = list(rec.code)
    if rec.stripped is not None:
        out["stripped"] = list(rec.stripped)
    return out


def _record_from_json(obj: dict) -> ConstructRecord:
    sig = None
    if obj.get("signature") is not None:
        s = obj["signature"]
        sig = FixSignature(ct=deserialize_triplets(s["ct"]),
                           pt=deserialize_triplets(s["pt"]),
                           nt=deserialize_triplets(s["nt"]))
    fqn = obj["fqn"]
    cid = ConstructId(obj["kind"], fqn, strip_packages(fqn))
    code, stripped = obj.get("code"), obj.get("stripped")
    return ConstructRecord(construct=cid, change=obj["change"], signature=sig,
                           class_context=frozenset(obj.get("context", ())),
                           code=None if code is None else tuple(code),
                           stripped=None if stripped is None else tuple(stripped))


def save(kb: KnowledgeBase, path) -> None:
    """Write the versioned, checksummed, byte-deterministic KB file."""
    body = json.dumps(
        {cve: [_record_to_json(r) for r in sorted(
            records, key=lambda r: (r.construct.fqn, r.change))]
         for cve, records in kb.records.items()},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    payload = f"{_HEADER} {kb.format_version}\n{body}\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    Path(path).write_text(payload + f"sha256={digest}\n", encoding="utf-8")


def load(path) -> KnowledgeBase:
    """Read a KB file; raises VersionMismatch or CorruptFile."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    if len(lines) < 3 or not lines[0].startswith(_HEADER + " "):
        raise KbFormatError(f"{path}: not a knowledge-base file")
    try:
        version = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise KbFormatError(f"{path}: unreadable version header") from exc
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {version}, expected {FORMAT_VERSION}")
    checksum_line = lines[-1].strip()
    payload = "".join(lines[:-1])
    if not checksum_line.startswith("sha256="):
        raise CorruptFile(f"{path}: missing checksum")
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if checksum_line != f"sha256={digest}":
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        data = json.loads("".join(lines[1:-1]))
    except json.JSONDecodeError as exc:
        raise KbFormatError(f"{path}: body is not valid JSON") from exc
    records = {cve: [_record_from_json(o) for o in objs]
               for cve, objs in data.items()}
    return KnowledgeBase(format_version=version, records=records)


# ------------------------------------------------------------------ manifest

def parse_manifest(path) -> list[ManifestEntry]:
    """Line format: cve_id pre_dir post_dir provenance-free-text."""
    entries = []
    base = Path(path).parent
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=3)
        if len(parts) < 3:
            raise KbFormatError(f"{path}:{lineno}: expected 'cve pre_dir post_dir [provenance]'")
        cve, pre_dir, post_dir = parts[:3]
        provenance = parts[3] if len(parts) > 3 else ""
        entries.append(ManifestEntry(
            cve, (base / pre_dir).resolve(), (base / post_dir).resolve(), provenance))
    seen = set()
    for e in entries:
        if e.cve_id in seen:
            raise KbFormatError(f"duplicate manifest entry {e.cve_id}")
        seen.add(e.cve_id)
    return entries


def _classes_in_dir(directory: Path) -> list[ClassFile]:
    out = []
    for p in sorted(directory.rglob("*.class")):
        try:
            out.append(parse_class(p.read_bytes()))
        except ClassParseError as exc:
            log.warning("skipping %s: %s", p, exc)
    return out


@dataclass
class BuildStats:
    built: list = field(default_factory=list)
    empty_diff: list = field(default_factory=list)
    errors: list = field(default_factory=list)   # (cve, message)


def build_from_manifest(manifest_path) -> tuple[KnowledgeBase, BuildStats]:
    """Build a KnowledgeBase from compiled pre/post class directories."""
    stats = BuildStats()
    records: dict[str, list] = {}
    for entry in parse_manifest(manifest_path):
        pre = _classes_in_dir(entry.pre_dir)
        post = _classes_in_dir(entry.post_dir)
        if not pre or not post:
            stats.errors.append((entry.cve_id, "pre or post directory has no classes"))
            continue
        try:
            records[entry.cve_id] = build_entry(entry.cve_id, pre, post)
            stats.built.append(entry.cve_id)
        except EmptyDiff as exc:
            log.warning("%s", exc)
            stats.empty_diff.append(entry.cve_id)
        except ClassParseError as exc:
            log.warning("%s: %s", entry.cve_id, exc)
            stats.errors.append((entry.cve_id, f"malformed class: {exc}"))
    return KnowledgeBase(records=records), stats

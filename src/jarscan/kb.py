"""Knowledge base: CVE ids mapped to construct-level fix signatures.

Built once from pre/post-fix compiled classes and persisted as a single
versioned text file (sorted JSON body, trailing checksum). A scan asks it:

  * which CVEs have records in a class, by FQN or by unqualified name;
  * which simple class names a scan may have to open
    (``simple_class_names``), and by which unqualified signatures the
    methods whose bodies it may have to lift (``changed_methods``);
  * which triplets a body has whose code, or, unqualified, whose stripped
    code, is a recorded pre- or post-fix body's;
  * what a recorded signature is once unqualified.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path

from .classfile.constructs import ConstructId, class_construct, strip_packages
from .classfile.descriptors import render_type
from .classfile.model import ClassFile, MethodInfo, key_digest, resolved_code, stripped_code
from .classfile.parser import parse_class
from .triplets import FixSignature, deserialize_triplets, serialize_triplets, unqualify
from .errors import (ClassParseError, CorruptFile, EmptyDiff, KbFormatError, LiftError,
                     VersionMismatch)

log = logging.getLogger(__name__)

FORMAT_VERSION = 2
_HEADER = "jarscan-kb"

# Where strip_packages can have cut a package out of a simple name: after
# a character outside [\w$.], before an ASCII letter, "_" or "$".
_PACKAGE_CUTS = re.compile(r"(?<![\w$.])(?=[A-Za-z_$])")


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
    ``key_digest`` of its pre- and post-fix bodies' ``resolved_code``
    and of their ``stripped_code``."""

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
    records: dict = field(default_factory=dict)   # cve_id -> [ConstructRecord]

    def __post_init__(self):
        self._reindex()

    def _reindex(self):
        self._class_candidates: dict[str, set] = {}
        self._unq_class_candidates: dict[str, set] = {}
        self.simple_class_names: set[str] = set()
        # The unqualified signature of each ``changed`` method record: the
        # bodies a scan decodes, in either mode (a record's FQN strips to
        # its unqualified signature).
        self.changed_methods: set[str] = set()
        self._code_sides: dict[str, tuple[FixSignature, str]] = {}
        self._stripped_sides: dict[str, tuple[FixSignature, str]] = {}
        self._unqualified: dict[FixSignature, FixSignature] = {}
        self._stripped_labels: dict[str, str] = {}
        for cve, records in self.records.items():
            for rec in records:
                cls = rec.declaring_class
                self._class_candidates.setdefault(cls, set()).add(cve)
                unq_cls = strip_packages(cls)
                self._unq_class_candidates.setdefault(unq_cls, set()).add(cve)
                # A class whose name strips to unq_cls has as its simple
                # name the simple name of unq_cls, or the tail of it after
                # a place where strip_packages cut out a package.
                simple = unq_cls[unq_cls.rfind(".") + 1:]
                self.simple_class_names.add(simple)
                self.simple_class_names.update(
                    simple[m.start():] for m in _PACKAGE_CUTS.finditer(simple))
                if rec.construct.kind == "method" and rec.change == "changed":
                    self.changed_methods.add(rec.construct.unqualified)
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

    def triplets_for_code(self, digest: str, unqualified: bool = False) -> frozenset | None:
        """The triplet set of a method body whose ``resolved_code`` digest
        is a signed record's pre- or post-fix digest, or None. ``diff``
        split that record's T_pre into CT and NT and its T_post into CT and PT,
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


# ------------------------------------------------------------------ building

def class_member_context(cf: ClassFile, exclude_method: tuple | None = None) -> frozenset:
    """Unqualified sibling signatures and field names of a class.

    exclude_method is a (name, descriptor) pair left out of the set (the
    matched construct itself is not its own sibling).
    """
    items = set()
    for m, unq in zip(cf.methods, cf.unqualified_method_fqns):
        if exclude_method and (m.name, m.descriptor) == exclude_method:
            continue
        items.add(unq)
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


def _same_code(keys: tuple) -> bool:
    """Whether the two sides of a (pre, post) ``resolved_code`` pair are
    equal, so that both would lift to the same IR."""
    return keys[0] == keys[1]


def _code_digests(keys: tuple) -> tuple:
    """The (pre, post) code digests of a resolved pair and the (pre, post)
    digests of its ``stripped_code``; no stripped digests when either side
    has no stripped key."""
    stripped = tuple(map(stripped_code, keys))
    return (tuple(map(key_digest, keys)),
            None if None in stripped else tuple(map(key_digest, stripped)))


def _methods_by_key(cf: ClassFile) -> dict[tuple[str, str], tuple[MethodInfo, str]]:
    """Each method of a class and its FQN, by (name, descriptor)."""
    return {(m.name, m.descriptor): (m, fqn) for m, fqn in zip(cf.methods, cf.method_fqns)}


def build_entry(cve_id: str, pre_classes: list[ClassFile],
                post_classes: list[ClassFile]) -> list[ConstructRecord]:
    """Diff pre/post-fix classes into construct records.

    A method present on both sides is first compared by its pool-resolved
    code (``resolved_code``: descriptor, ``is_static``, exception table,
    and every instruction's offset, mnemonic and operands with pool
    indices replaced by the constants they name), which is what lifting
    reads. Equal methods are neither lifted nor recorded, so only the
    methods a fix changed pay for the pipeline. The others are lifted and
    recorded as ``changed`` when their triplets differ; when either side
    cannot be lifted, the same comparison decides alone. A signed
    ``changed`` record also carries the digests of both sides' resolved
    and stripped keys, from the keys the comparison built, so a scan can
    recognise either body, or a relocated copy of it, without lifting.

    Raises EmptyDiff when nothing differs after normalization, and
    BadConstantPoolRef when a pool operand of a method on both sides does
    not resolve.
    """
    pre = {cf.this_class: cf for cf in pre_classes}
    post = {cf.this_class: cf for cf in post_classes}
    records: list[ConstructRecord] = []

    for name in sorted(pre.keys() | post.keys()):
        pre_cf, post_cf = pre.get(name), post.get(name)
        if pre_cf is None or post_cf is None:
            present = post_cf or pre_cf
            change = "added" if pre_cf is None else "removed"
            records.append(ConstructRecord(
                construct=class_construct(present), change=change, signature=None,
                class_context=class_member_context(present)))
            continue

        pre_methods = _methods_by_key(pre_cf)
        post_methods = _methods_by_key(post_cf)
        for key in sorted(pre_methods.keys() | post_methods.keys()):
            if key not in post_methods:
                records.append(ConstructRecord(
                    construct=ConstructId("method", pre_methods[key][1]),
                    change="removed", signature=None,
                    class_context=class_member_context(post_cf, exclude_method=key)))
                continue
            post_m, fqn = post_methods[key]
            if key not in pre_methods:
                records.append(ConstructRecord(
                    construct=ConstructId("method", fqn), change="added", signature=None,
                    class_context=class_member_context(post_cf, exclude_method=key)))
                continue
            pre_m = pre_methods[key][0]
            keys = (resolved_code(pre_m, pre_cf.constant_pool),
                    resolved_code(post_m, post_cf.constant_pool))
            if _same_code(keys):
                continue
            cid = ConstructId("method", fqn)
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
                # rules apply at scan.
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


# The values a record's "kind" and "change" may take (docs/kb-format.md).
_RECORD_VALUES = (("kind", ("class", "interface", "method")),
                  ("change", ("added", "removed", "changed")))


def _strings(obj: dict, name: str, absent, count: int | None = None):
    """Record field ``name``, a list of strings (``count`` of them if
    given), as a tuple, or ``absent`` if the field is not there."""
    value = obj.get(name, absent)
    if value is not absent and not (isinstance(value, list) and len(value) == (count or len(value))
                                    and all(isinstance(v, str) for v in value)):
        raise KbFormatError(f"record {name} is not a list of {count or 'any number of'} strings")
    return value if value is absent else tuple(value)


def _record_from_json(obj: dict) -> ConstructRecord:
    for name, allowed in _RECORD_VALUES:
        if obj[name] not in allowed:
            raise KbFormatError(f"record {name} {obj[name]!r} is not one of "
                                + ", ".join(allowed))
    if not isinstance(obj["fqn"], str):
        raise KbFormatError("record fqn is not a string")
    sig = None
    if obj.get("signature") is not None:
        s = obj["signature"]
        sig = FixSignature(ct=deserialize_triplets(s["ct"]),
                           pt=deserialize_triplets(s["pt"]),
                           nt=deserialize_triplets(s["nt"]))
    return ConstructRecord(construct=ConstructId(obj["kind"], obj["fqn"]),
                           change=obj["change"], signature=sig,
                           class_context=frozenset(_strings(obj, "context", ())),
                           code=_strings(obj, "code", None, 2),
                           stripped=_strings(obj, "stripped", None, 2))


def _file_chunks(kb: KnowledgeBase):
    """The KB file before its checksum line, one CVE at a time: together
    the header line and ``json.dumps(body, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True)`` with a newline."""
    yield f"{_HEADER} {FORMAT_VERSION}\n{{"
    for i, cve in enumerate(sorted(kb.records)):
        records = sorted(kb.records[cve], key=lambda r: (r.construct.fqn, r.change))
        yield ("," if i else "") + json.dumps(cve) + ":" + json.dumps(
            [_record_to_json(r) for r in records],
            sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    yield "}\n"


def _write_kb(kb: KnowledgeBase, out) -> None:
    digest = hashlib.sha256()
    for chunk in _file_chunks(kb):
        data = chunk.encode("utf-8")
        digest.update(data)
        out.write(data)
    out.write(f"sha256={digest.hexdigest()}\n".encode("ascii"))


def _open_sibling(target: str, mode: int) -> tuple[str, int]:
    """Create a new file next to ``target`` (permissions ``mode`` less the
    umask); return its path and descriptor."""
    head, tail = os.path.split(target)
    for n in range(100):
        tmp = os.path.join(head, f".{tail}.{os.getpid()}-{n}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        except FileExistsError:
            continue
    raise FileExistsError(f"{target}: no free temporary name beside it")


def save(kb: KnowledgeBase, path) -> None:
    """Write the versioned, checksummed, byte-deterministic KB file.

    The file is written one CVE at a time, in sorted order, and hashed
    as it is written, so no KB-sized string or bytes is built. A regular
    or absent target (through any symlinks) is replaced only once the new
    file is complete: it is written beside the target and renamed over
    it, keeping an existing file's permission bits, so a failed write
    leaves the old KB in place. Any other target, such as a FIFO or a
    terminal, is written in place."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as out:
            _write_kb(kb, out)
        return
    target = os.path.realpath(path)
    if st is not None:
        # Refuse, as writing in place would, a file that may not be written.
        open(target, "ab").close()
    mode = 0o666 if st is None else stat.S_IMODE(st.st_mode)
    tmp, fd = _open_sibling(target, mode)
    try:
        with open(fd, "wb") as out:
            _write_kb(kb, out)
        if st is not None:
            os.chmod(tmp, mode)   # exactly, not less the umask
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load(path) -> KnowledgeBase:
    """Read a KB file; raises VersionMismatch, CorruptFile or, for any
    other file it cannot use, KbFormatError.

    The file is read as text, lines as ``str.splitlines`` splits them;
    once the checksum over every line but the last holds, the body is
    parsed with one ``json.loads``. Of a CVE id given twice, the last
    value counts."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    except UnicodeDecodeError as exc:
        raise KbFormatError(f"{path}: not UTF-8 text") from exc
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
    if not checksum_line.startswith("sha256="):
        raise CorruptFile(f"{path}: missing checksum")
    digest = hashlib.sha256("".join(lines[:-1]).encode("utf-8")).hexdigest()
    if checksum_line != f"sha256={digest}":
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        body = json.loads("".join(lines[1:-1]))
        records = {cve: [_record_from_json(o) for o in objs]
                   for cve, objs in body.items()}
        return KnowledgeBase(records=records)
    except KbFormatError as exc:
        raise KbFormatError(f"{path}: {exc}") from None
    except (KeyError, AttributeError, TypeError, ValueError, RecursionError) as exc:
        # RecursionError: a body nested deeper than json.loads can decode.
        raise KbFormatError(f"{path}: malformed body: {exc!r}") from exc


# ------------------------------------------------------------------ manifest

def parse_manifest(path) -> list[ManifestEntry]:
    """Line format: cve_id pre_dir post_dir provenance-free-text."""
    entries = []
    base = Path(path).parent
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise KbFormatError(f"{path} is not UTF-8: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(maxsplit=3)
        if len(parts) < 3:
            raise KbFormatError(f"{path}:{lineno}: expected 'cve pre_dir post_dir [provenance]'")
        cve, pre_dir, post_dir = parts[:3]
        provenance = parts[3] if len(parts) > 3 else ""
        try:
            pre, post = (base / pre_dir).resolve(), (base / post_dir).resolve()
        except ValueError as exc:   # a NUL byte in a directory
            raise KbFormatError(f"{path}:{lineno}: {exc}") from None
        entries.append(ManifestEntry(cve, pre, post, provenance))
    seen = set()
    for e in entries:
        if e.cve_id in seen:
            raise KbFormatError(f"duplicate manifest entry {e.cve_id}")
        seen.add(e.cve_id)
    return entries


def _classes_in_dir(directory: Path) -> list[ClassFile]:
    """Every ``*.class`` file under ``directory``, parsed, in ``sorted(Path)``
    order (by path parts). Symlinked directories are not followed. Raises
    ClassParseError, naming the file, for one that does not parse, and
    OSError for one that cannot be read."""
    paths = [os.path.join(root, name) for root, _dirs, names in os.walk(directory)
             for name in names if name.endswith(".class")]
    out = []
    for path in sorted(paths, key=lambda p: p.split(os.sep)):
        try:
            out.append(parse_class(Path(path).read_bytes()))
        except ClassParseError as exc:
            raise ClassParseError(f"{path}: {exc}") from exc
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
        try:
            pre = _classes_in_dir(entry.pre_dir)
            post = _classes_in_dir(entry.post_dir)
            if not pre or not post:
                stats.errors.append((entry.cve_id, "pre or post directory has no classes"))
                continue
            records[entry.cve_id] = build_entry(entry.cve_id, pre, post)
            stats.built.append(entry.cve_id)
        except EmptyDiff as exc:
            log.warning("%s", exc)
            stats.empty_diff.append(entry.cve_id)
        except ClassParseError as exc:
            log.warning("%s: %s", entry.cve_id, exc)
            stats.errors.append((entry.cve_id, f"malformed class: {exc}"))
        except OSError as exc:
            log.warning("%s: %s", entry.cve_id, exc)
            stats.errors.append(
                (entry.cve_id, f"unreadable class: {exc.filename}: {exc.strerror}"))
    return KnowledgeBase(records=records), stats

"""Pinned digests of what jarscan writes on the synthetic corpus.

A refactor must leave all four unchanged: the KB file that kb-build
writes, the normalized IR of every liftable method, the JSON scan report
in both modes, and the bytes of every JAR the emitter and ``modify``
write for the ``variant_jars`` fixture. A change that moves one on
purpose re-pins it and says why.
"""

import hashlib
import json

from corpus import materialize_manifest

from jarscan.classfile import parse_class
from jarscan.errors import LiftError
from jarscan.classfile.model import resolved_code
from jarscan.ir import dump, lift
from jarscan.kb import build_from_manifest, load, save
from jarscan.normalize import normalize
from jarscan.scanner import ScanConfig, ScanReport, report_to_json, scan_jar_bytes

# KB format version 2: the body bytes are those of version 1; the header
# and checksum lines differ.
KB_SHA256 = "cdd2038b3ad68f5ef9bdb3f1bff54477b4c81f6203622eced3b1dd779d55de59"
DUMP_SHA256 = "9d27f472ee0b867168c5dfd3e766ca2d47805b5fef5b592cf0cb84a10bc0a76a"
REPORT_SHA256 = "c13f09a3bda29f47524c74c5ea1581aaa1159eb9b8bebe91c19590c7f22fbe0e"
VARIANT_JARS_SHA256 = "3a30c62829a07dd501578c7677aabd33019dfe212d6a5b746e1bde378283e01d"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _normalized_dumps(corpus) -> str:
    """Every liftable method of every corpus class, pre and post, as the
    ``dump`` of its normalized IR under its class, name and descriptor."""
    out = []
    for cve in corpus.cve_ids:
        for side in (corpus.pre_classes, corpus.post_classes):
            for _name, data in side[cve]:
                cf = parse_class(data)
                for m in cf.methods:
                    if m.code is None:
                        continue
                    try:
                        ir = lift(resolved_code(m, cf.constant_pool))
                    except LiftError:
                        continue
                    out.append(f"{cf.this_class}.{m.name}{m.descriptor}\n"
                               f"{dump(normalize(ir))}")
    return "".join(out)


def test_pinned_goldens(corpus, variant_jars, tmp_path):
    kb_path = tmp_path / "kb.txt"
    built, _stats = build_from_manifest(materialize_manifest(corpus, tmp_path))
    save(built, kb_path)
    kb, config = load(kb_path), ScanConfig()
    report = ScanReport(config, [scan_jar_bytes(name, data, kb, config)
                                 for name, data in sorted(variant_jars.items())])
    text = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
    assert '"mode": "repack"' in text
    assert (_sha256(kb_path.read_bytes()),
            _sha256(_normalized_dumps(corpus).encode()),
            _sha256(text.encode())) == (KB_SHA256, DUMP_SHA256, REPORT_SHA256)


def test_pinned_emitted_jars(variant_jars):
    """The exact bytes of the corpus pre/post JARs and of ``modify`` kinds
    1-4 of them: the emitted constant pools, code and ZIP layout, which
    the digests above see only through what they parse."""
    listing = "".join(f"{name} {_sha256(data)}\n" for name, data in sorted(variant_jars.items()))
    assert len(variant_jars) == 46
    assert _sha256(listing.encode()) == VARIANT_JARS_SHA256

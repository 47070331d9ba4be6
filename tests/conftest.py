import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import build_corpus  # noqa: E402

from jarscan.kb import KnowledgeBase, build_entry, load, save  # noqa: E402
from jarscan.classfile import parse_class  # noqa: E402
from jarscan.classfile.constant_pool import TAG_UTF8  # noqa: E402


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_kb(corpus):
    records = {}
    for cve in corpus.cve_ids:
        pre = [parse_class(b) for _n, b in corpus.pre_classes[cve]]
        post = [parse_class(b) for _n, b in corpus.post_classes[cve]]
        records[cve] = build_entry(cve, pre, post)
    return KnowledgeBase(records=records)


def _saved_without(kb, path, fields):
    """``kb`` saved with ``fields`` removed from every record in the file
    and the checksum recomputed, then loaded back."""
    save(kb, path)
    header, body, _checksum = path.read_text(encoding="utf-8").splitlines()
    data = json.loads(body)
    for objs in data.values():
        for obj in objs:
            for name in fields:
                obj.pop(name, None)
    payload = f"{header}\n{json.dumps(data, sort_keys=True, separators=(',', ':'))}\n"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path.write_text(payload + f"sha256={digest}\n", encoding="utf-8")
    return load(path)


@pytest.fixture(scope="session")
def corpus_kb_without_code(corpus_kb, tmp_path_factory):
    """The corpus KB as a file without the optional code and stripped
    digests, loaded back."""
    return _saved_without(corpus_kb, tmp_path_factory.mktemp("kb") / "kb.txt",
                          ("code", "stripped"))


@pytest.fixture(scope="session")
def corpus_kb_without_stripped(corpus_kb, tmp_path_factory):
    """The corpus KB as a file without the optional stripped digests,
    loaded back."""
    return _saved_without(corpus_kb, tmp_path_factory.mktemp("kb") / "kb.txt",
                          ("stripped",))


def _beta_pre_putstatic_at(corpus, index: int):
    """The corpus class beta.net.Http (CVE-9000-0002, pre-fix) with the
    putstatic in ``int token(int)`` pointed at pool entry ``index``."""
    [(name, data)] = corpus.pre_classes["CVE-9000-0002"]
    cf = parse_class(data)
    [token] = [m for m in cf.methods if m.name == "token"]
    [put] = [i for i in token.code.instructions if i.mnemonic == "putstatic"]
    old = bytes([0x1B, 0xB3]) + put.operands[0].to_bytes(2, "big")
    assert data.count(old) == 1
    return name, data.replace(old, bytes([0x1B, 0xB3]) + index.to_bytes(2, "big"))


@pytest.fixture(scope="session")
def mistyped_beta_pre(corpus):
    """beta.net.Http with token's putstatic pointed at pool entry 1, a Utf8
    entry: the class parses, but lifting that method fails on the pool
    reference."""
    [(_name, data)] = corpus.pre_classes["CVE-9000-0002"]
    assert parse_class(data).constant_pool.entry(1).tag == TAG_UTF8
    return _beta_pre_putstatic_at(corpus, 1)


@pytest.fixture(scope="session")
def out_of_range_beta_pre(corpus):
    """beta.net.Http with token's putstatic pointed past the end of the
    pool: the class parses, but that method's code neither resolves nor
    lifts."""
    [(_name, data)] = corpus.pre_classes["CVE-9000-0002"]
    assert 0xFFFF not in parse_class(data).constant_pool
    return _beta_pre_putstatic_at(corpus, 0xFFFF)

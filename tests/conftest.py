import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import build_corpus  # noqa: E402

from jarscan.kb import KnowledgeBase, build_entry  # noqa: E402
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


@pytest.fixture(scope="session")
def mistyped_beta_pre(corpus):
    """The corpus class beta.net.Http (CVE-9000-0002, pre-fix) with the
    putstatic in ``int token(int)`` pointed at pool entry 1, a Utf8 entry:
    the class parses, but lifting that method fails on the pool reference."""
    [(name, data)] = corpus.pre_classes["CVE-9000-0002"]
    cf = parse_class(data)
    assert cf.constant_pool.entry(1).tag == TAG_UTF8
    [token] = [m for m in cf.methods if m.name == "token"]
    [put] = [i for i in token.code.instructions if i.mnemonic == "putstatic"]
    old = bytes([0x1B, 0xB3]) + put.operands[0].to_bytes(2, "big")
    assert data.count(old) == 1
    return name, data.replace(old, bytes([0x1B, 0xB3, 0x00, 0x01]))

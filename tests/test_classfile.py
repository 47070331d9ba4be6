"""Class-file parsing, emission round-trips, and construct extraction."""

import io
import os
import random
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO

import pytest
from hypothesis import given, strategies as st

from jarscan.classfile import (
    ClassModel,
    FieldModel,
    MethodModel,
    class_entry_path,
    default_constructor,
    emit_class,
    emit_class_resolved,
    list_constructs,
    parse_class,
    parse_jar,
    strip_packages,
    write_jar,
)
from jarscan.classfile import parser as parser_mod
from jarscan.classfile.constructs import ConstructId
from jarscan.classfile.descriptors import method_signature, parse_method_descriptor, render_type
from jarscan.classfile.emitter import encode_instruction
from jarscan.classfile.model import ClassFile, ParseFailure, resolved_code, stripped_code
from jarscan.classfile.opcodes import (
    EFFECTS,
    FORMAT_OF,
    LOCALS,
    OPCODES,
    SHUFFLES,
    WIDE,
    branch_targets,
)
from jarscan.classfile.parser import MAX_ENTRY_BYTES, ZipReader, decode_instructions
from jarscan.ir import lift
from jarscan.normalize import normalize
from jarscan.errors import (
    BadConstantPoolRef,
    BadMagic,
    ClassParseError,
    LiftError,
    MalformedArchive,
    TruncatedInput,
    UnsupportedFeature,
    UnsupportedVersion,
)
from jarscan.kb import ConstructRecord, KnowledgeBase
from jarscan.modharness import read_entries
from jarscan.scanner import ScanConfig, ScanReport, report_to_json, scan_jar_bytes
import eager_parser
from jar_damage import repacked
from randgen import random_int_method, random_ref_method
from test_normalize import starts_with_caught

DATA = Path(__file__).parent / "data"


def _empty_zip() -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w"):
        pass
    return buf.getvalue()


# ------------------------------------------------------------------ parsing

def test_parse_jar_empty_zip():
    archive = parse_jar(_empty_zip())
    assert archive.classes == []
    assert archive.other_entries == []
    assert not archive.metadata_present


def test_parse_jar_manifest_only():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("META-INF/MANIFEST.MF", "Manifest-Version: 1.0\n")
    archive = parse_jar(buf.getvalue())
    assert archive.classes == []
    assert archive.metadata_present


@pytest.mark.parametrize("path, metadata", [
    ("pom.properties", True), ("pom.xml", True), ("a/b/pom.properties", True),
    ("res/app-pom.properties", False), ("res/mypom.xml", False), ("pom.properties/x", False)])
def test_parse_jar_metadata_is_a_whole_pom_file_name(path, metadata):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr(path, "x=1\n")
    assert parse_jar(buf.getvalue()).metadata_present is metadata


def test_parse_jar_three_classes_roundtrip():
    models = [ClassModel(f"fix.p{i}.C{i}", methods=[default_constructor()])
              for i in range(3)]
    jar = write_jar([(class_entry_path(m.name), emit_class(m)) for m in models])
    archive = parse_jar(jar)
    assert [cf.this_class for _p, cf in archive.classes] == \
        ["fix.p0.C0", "fix.p1.C1", "fix.p2.C2"]
    for path, cf in archive.classes:
        assert path == class_entry_path(cf.this_class)
    assert archive.metadata_present  # write_jar adds a manifest


def test_parse_jar_not_a_zip():
    with pytest.raises(MalformedArchive):
        parse_jar(b"certainly not a zip container")


def test_parse_jar_collects_bad_class_entries():
    jar = write_jar([("bad/Broken.class", b"\xde\xad\xbe\xef junk")])
    archive = parse_jar(jar)
    assert archive.classes == []
    assert [f.path for f in archive.failures] == ["bad/Broken.class"]


def test_parse_jar_skips_nested_jars():
    inner = write_jar([])
    jar = write_jar([("lib/inner.jar", inner)])
    archive = parse_jar(jar)
    assert "lib/inner.jar" in archive.other_entries
    assert archive.classes == []


def test_parse_jar_duplicate_entry_reads_the_first_copy():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf, pytest.warns(UserWarning, match="Duplicate"):
        for name in ("p.First", "p.Second"):
            zf.writestr("p/C.class", emit_class(ClassModel(name)))
    jar = buf.getvalue()
    for archive in (parse_jar(jar), parse_jar(jar, stems={"C"})):
        assert [(path, cf.this_class) for path, cf in archive.classes] == \
            [("p/C.class", "p.First")]
        assert archive.failures == []


# A Spring Boot prefix, a multi-release prefix, an inner class and the
# default package: each entry is opened by its stem alone.
_STEM_ENTRIES = [("BOOT-INF/classes/p/A.class", "p.A"),
                 ("META-INF/versions/9/p/B.class", "p.B"),
                 ("p/Outer$1.class", "p.Outer$1"),
                 ("Top.class", "Top")]


def test_parse_jar_opens_class_entries_by_stem():
    jar = write_jar([(path, emit_class(ClassModel(name)))
                     for path, name in [*_STEM_ENTRIES, ("p/Other.class", "p.Other")]])
    archive = parse_jar(jar, stems={"A", "B", "Outer$1", "Top"})
    assert [(path, cf.this_class) for path, cf in archive.classes] == _STEM_ENTRIES
    assert archive.unopened == ["p/Other.class"]
    assert archive.misnamed == [] and archive.failures == []


def test_parse_jar_records_a_misnamed_class(caplog):
    """A class stored under a stem that is not its simple name is logged
    and listed in ``misnamed``, and otherwise read as any other; its own
    simple name does not open it."""
    jar = write_jar([("p/Foo.class", emit_class(ClassModel("p.Bar")))])
    for archive in (parse_jar(jar), parse_jar(jar, stems={"Foo"})):
        assert [cf.this_class for cf in archive.class_files()] == ["p.Bar"]
        assert archive.misnamed == [("p/Foo.class", "p.Bar")]
    assert "p/Foo.class holds class p.Bar" in caplog.text
    assert parse_jar(jar, stems={"Bar"}).unopened == ["p/Foo.class"]


def test_parse_class_bad_magic():
    with pytest.raises(BadMagic):
        parse_class(b"\xde\xad\xbe\xef" + b"\x00" * 20)


def test_parse_class_truncated():
    data = emit_class(ClassModel("t.T", methods=[default_constructor()]))
    with pytest.raises(TruncatedInput):
        parse_class(data[: len(data) // 2])


@pytest.mark.parametrize("major", [44, 70, 99])
def test_parse_class_unsupported_version(major):
    data = bytearray(emit_class(ClassModel("t.T")))
    data[6:8] = struct.pack(">H", major)
    with pytest.raises(UnsupportedVersion):
        parse_class(bytes(data))


def test_parse_class_version_bounds_accepted():
    for major in (45, 69):
        data = bytearray(emit_class(ClassModel("t.T")))
        data[6:8] = struct.pack(">H", major)
        assert parse_class(bytes(data)).major_version == major


# ------------------------------------------------- the eager parser, as oracle

def _outcome(read, *args):
    """What ``read(*args)`` returns, or the ClassParseError subclass it
    raises; any other exception escapes."""
    try:
        return read(*args)
    except ClassParseError as exc:
        return type(exc)


def _same_as_eager(data: bytes) -> ClassFile | None:
    """parse_class and the eager parser it replaced (tests/eager_parser.py)
    raise the same ClassParseError subclass, or return equal classes whose
    pools give the same decoded (tag, payload) entry, ``resolve`` and
    ``in`` for every index from 0 to count + 1: index 0, the index just
    past the pool and the second slot of a Long or Double included.
    Returns the parsed class, or None."""
    want, got = _outcome(eager_parser.parse_class, data), _outcome(parse_class, data)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return None
    assert got == want
    new, old = got.constant_pool, want.constant_pool
    assert len(new) == len(old)
    for index in range(struct.unpack_from(">H", data, 8)[0] + 2):
        assert (index in new) == (index in old)
        entries = _outcome(new._read, index), _outcome(lambda i: tuple(old.entry(i)), index)
        # by repr where unequal, since a NaN constant is not equal to itself
        assert entries[0] == entries[1] or repr(entries[0]) == repr(entries[1])
        assert _outcome(new.resolve, index) == _outcome(old.resolve, index)
    return got


def _random_class(seed: int) -> bytes:
    rng = random.Random(seed)
    methods = [default_constructor()]
    for k in range(rng.randint(1, 3)):
        params = rng.randint(1, 3)
        methods.append(MethodModel(f"m{k}", "(" + "I" * params + ")I", 0x09,
                                   code=random_int_method(rng, params=params)))
    fields = [FieldModel(f"f{k}", rng.choice(["I", "J", "Ljava/lang/String;"]))
              for k in range(rng.randint(0, 3))]
    return emit_class(ClassModel(f"rnd.p{seed % 7}.H{seed}", fields=fields,
                                 methods=methods))


def _random_ref_class(seed: int) -> bytes:
    """A class of randgen methods that name classes, members, strings and
    catch types, so its pool holds every kind the emitter writes."""
    rng = random.Random(seed)
    return emit_class(ClassModel(f"rnd.R{seed}", methods=[default_constructor()] + [
        random_ref_method(rng, f"f{i}") for i in range(rng.randint(1, 3))]))


def _with_class_attribute(data: bytes) -> bytes:
    """Replace the emitter's empty class-attribute table with one opaque
    attribute, as javac's SourceFile would be."""
    assert data.endswith(b"\x00\x00")
    return data[:-2] + struct.pack(">HHI", 1, 1, 4) + b"\x00\x01\x02\x03"


def _pool_layout(data: bytes) -> tuple[list[int], int]:
    """Offsets of the constant-pool tag bytes of a well-formed class, and
    the offset just past the pool."""
    count = struct.unpack_from(">H", data, 8)[0]
    tags, pos, index = [], 10, 1
    while index < count:
        tags.append(pos)
        tag = data[pos]
        if tag == 1:
            pos += 3 + struct.unpack_from(">H", data, pos + 1)[0]
        else:
            pos += {5: 9, 6: 9, 7: 3, 8: 3, 15: 4, 16: 3, 19: 3, 20: 3}.get(tag, 5)
        index += 2 if tag in (5, 6) else 1
    return tags, pos


def _corpus_blobs(corpus) -> list[bytes]:
    return [b for cve in corpus.cve_ids
            for side in (corpus.pre_classes, corpus.post_classes)
            for _n, b in side[cve]]


@pytest.mark.parametrize("bad_tag", [0, 2, 13, 14, 21, 255])
def test_header_rejects_bad_pool_tags(bad_tag):
    """An unknown tag at any constant-pool entry is rejected, as the eager
    parser rejects it."""
    data = emit_class(_listing1_class())
    for offset in _pool_layout(data)[0]:
        mutated = bytearray(data)
        mutated[offset] = bad_tag
        assert not _same_as_eager(bytes(mutated))


def test_header_rejects_this_class_not_a_class_entry():
    data = bytearray(emit_class(ClassModel("t.T")))
    tags, pool_end = _pool_layout(bytes(data))
    this_at = pool_end + 2                          # after access_flags
    utf8_index = next(i for i, off in enumerate(tags, 1) if data[off] == 1)
    for bad_index in (0, utf8_index, 0xFFFF):
        data[this_at:this_at + 2] = struct.pack(">H", bad_index)
        with pytest.raises(BadConstantPoolRef):
            parse_class(bytes(data))
        assert not _same_as_eager(bytes(data))


@given(st.integers(min_value=0, max_value=10_000))
def test_parser_matches_eager_on_generated_classes(seed):
    assert _same_as_eager(_random_class(seed))
    assert _same_as_eager(_random_ref_class(seed))


def test_parser_matches_eager_on_every_truncation_prefix(corpus):
    blobs = _corpus_blobs(corpus) + [_handcrafted_switch_class(),
                                     _with_class_attribute(_handcrafted_switch_class())]
    for data in blobs:
        assert _same_as_eager(data)
        for cut in range(len(data)):
            assert not _same_as_eager(data[:cut])


@given(st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_parser_matches_eager_on_mutated_classes(corpus, seed, edits):
    """Edits anywhere in a generated or corpus class, and edits past the
    constant pool only, where the member and attribute tables are, of a
    generated class with a class-level attribute."""
    blobs = _corpus_blobs(corpus)
    for data in (_random_ref_class(seed), blobs[seed % len(blobs)]):
        data = bytearray(data)
        for pos, byte in edits:
            data[pos % len(data)] = byte
        _same_as_eager(bytes(data))
    data = _with_class_attribute(_random_class(seed))
    pool_end = _pool_layout(data)[1]
    tables = bytearray(data)
    for pos, byte in edits:
        tables[pool_end + pos % (len(data) - pool_end)] = byte
    _same_as_eager(bytes(tables))


def _jdk_jmod(module: str) -> Path | None:
    """``jmods/<module>.jmod`` of the JDK that JAVA_HOME or the java on
    PATH names, or None."""
    homes = [os.environ.get("JAVA_HOME")]
    if shutil.which("java"):
        homes.append(str(Path(os.path.realpath(shutil.which("java"))).parent.parent))
    for home in filter(None, homes):
        jmod = Path(home) / "jmods" / f"{module}.jmod"
        if jmod.is_file():
            return jmod
    return None


def _assert_key_atoms(key) -> None:
    """The code key is tuples of str, int, bytes, bool and None alone, of
    exactly those types: what makes ``key_digest``'s ``ascii()`` canonical."""
    parts = [key]
    while parts:
        part = parts.pop()
        if type(part) is tuple:
            parts.extend(part)
        else:
            assert type(part) in (str, int, bytes, bool, type(None)), repr(part)


def test_parser_matches_eager_on_jdk_classes():
    """Every java.xml class parses as the eager parser parses it, and each
    method's ``resolved_code`` and ``stripped_code`` keys hold only the
    types ``key_digest`` is canonical for. Each method with an exception
    table that lifts keeps, once normalized, a catch block at the head
    of every handler."""
    jmod = _jdk_jmod("java.xml")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.xml.jmod")
    keys = handled = 0
    with zipfile.ZipFile(jmod) as zf:     # a jmod is a zip behind a 4-byte header
        names = [n for n in zf.namelist() if n.endswith(".class")]
        assert len(names) > 2000
        for name in names:
            cf = _same_as_eager(zf.read(name))
            assert cf, name
            for m in cf.methods:
                if m.code is not None:
                    key = resolved_code(m, cf.constant_pool)
                    _assert_key_atoms(key)
                    _assert_key_atoms(stripped_code(key))
                    keys += 1
                    if key[2]:
                        try:
                            ir = normalize(lift(key))
                        except LiftError:
                            continue
                        for head, _catch in ir.handlers:
                            assert starts_with_caught(ir, head), (name, m.name, m.descriptor)
                        handled += 1
    assert keys > 10_000
    assert handled > 900


def handler_class() -> tuple[bytes, bytes]:
    """The class p.A, whose static ``int f()`` protects [0, 6) of its 10
    bytes of code: sipush@0, bipush@3, iadd@5, ireturn@6, handler pop@7,
    iconst_0@8, ireturn@9. Returns its bytes and its handler table entry."""
    data = emit_class(ClassModel("p.A", methods=[MethodModel("f", "()I", 0x09, code=[
        "s:", ("push_int", 300), ("push_int", 7), "iadd", "e:", "ireturn",
        "h:", "pop", "iconst_0", "ireturn"], handlers=[("s", "e", "h", None)])]))
    entry = struct.pack(">HHHH", 0, 6, 7, 0)
    assert data.count(entry) == 1
    return data, entry


@pytest.mark.parametrize("start, end, ok", [
    (0, 6, True), (0, 10, True), (3, 5, True),
    (0, 1, False), (0, 2, False), (0, 11, False), (0, 200, False),
    (0, 0, False), (3, 3, False), (5, 3, False), (1, 6, False)])
def test_handler_range_follows_jvms(start, end, ok):
    """A protected range [start, end) is not empty, starts at an
    instruction and ends at one or at the end of the code (JVMS 4.7.3);
    the eager parser, which shares the check, agrees."""
    data, entry = handler_class()
    data = data.replace(entry, struct.pack(">HHHH", start, end, 7, 0))
    if ok:
        [f] = _same_as_eager(data).methods
        assert f.code.exception_table == ((start, end, 7, None),)
    else:
        with pytest.raises(ClassParseError, match=rf"bad exception range \[{start}, {end}\)"):
            parse_class(data)
        assert _same_as_eager(data) is None


def test_decoder_matches_reference_on_damaged_jdk_code(monkeypatch):
    """On java.xml code arrays with random byte edits, and cut at random
    points, ``decode_instructions`` and the reference decoder in
    tests/eager_parser.py raise the same ClassParseError subclass or
    return equal instruction tuples."""
    jmod = _jdk_jmod("java.xml")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.xml.jmod")
    codes = []
    decode = parser_mod.decode_instructions
    monkeypatch.setattr(parser_mod, "decode_instructions",
                        lambda code: codes.append(code) or decode(code))
    with zipfile.ZipFile(jmod) as zf:
        for name in sorted(n for n in zf.namelist() if n.endswith(".class")):
            parse_class(zf.read(name))
    assert len(codes) > 10_000
    rng = random.Random(0)
    for code in rng.sample(codes, 3000):
        edited = bytearray(code)
        for _ in range(rng.randint(1, 4)):
            edited[rng.randrange(len(edited))] = rng.randrange(256)
        for data in (bytes(edited), code[:rng.randrange(len(code))]):
            assert _outcome(decode, data) == _outcome(eager_parser.decode_instructions, data)


# ------------------------------------ reading JAR entries, zipfile the oracle

def _classes(jar: bytes) -> list:
    archive = parse_jar(jar)
    assert not archive.failures
    return archive.classes


@pytest.mark.parametrize("compression", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
def test_entry_reader_leaves_bzip2_and_lzma_to_zipfile(corpus, corpus_kb, compression):
    """Only zipfile reads a bzip2 or LZMA entry: the reader, like
    java.util.zip and so every class loader, reads STORED and DEFLATED
    alone, and each such class entry is an unreadable-entry parse failure
    that a scan counts."""
    jar = corpus.pre_jars["CVE-9000-0001"]
    packed = repacked(jar, compression)
    archive = parse_jar(packed)
    assert not archive.classes
    assert [f.path for f in archive.failures] == [p for p, _ in _classes(jar)]
    assert {f.error for f in archive.failures} == {
        f"unreadable entry: compression method {compression}"}
    res = scan_jar_bytes("packed.jar", packed, corpus_kb, ScanConfig())
    assert res.error is None and res.parse_failures == len(archive.failures)


def test_scanner_imports_without_lzma():
    """A Python built without the lzma module still runs the scanner."""
    code = "import sys; sys.modules['lzma'] = None; import jarscan.cli"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_entry_reader_reads_data_descriptor_entries(corpus):
    jar = corpus.pre_jars["CVE-9000-0001"]
    packed = repacked(jar, seekable=False)
    assert all(info.flag_bits & 0x08 for info in zipfile.ZipFile(io.BytesIO(packed)).infolist())
    assert _classes(packed) == _classes(jar)


def test_entry_reader_reads_non_ascii_names():
    """zipfile flags a non-ASCII name it writes as UTF-8; a name without
    the flag reads as cp437."""
    data = emit_class(ClassModel("p.U"))
    utf8 = write_jar([("p/Ünïcödé.class", data)])
    cp437 = write_jar([("p/X.class", data)]).replace(b"p/X.class", b"p/\x81.class")
    for jar, path, flagged in ((utf8, "p/Ünïcödé.class", True), (cp437, "p/ü.class", False)):
        [info] = [i for i in zipfile.ZipFile(io.BytesIO(jar)).infolist() if i.filename == path]
        assert bool(info.flag_bits & 0x800) == flagged
        assert [(p, cf.this_class) for p, cf in _classes(jar)] == [(path, "p.U")]


def test_entry_reader_leaves_a_renamed_local_header_to_zipfile(corpus):
    jar = bytearray(corpus.pre_jars["CVE-9000-0001"])
    entry = "alpha/core/Parser.class"
    local = zipfile.ZipFile(io.BytesIO(bytes(jar))).getinfo(entry).header_offset
    jar[local + 30] = ord("A")          # the first byte of the local name
    with pytest.raises(zipfile.BadZipFile, match="differ"):
        zipfile.ZipFile(io.BytesIO(bytes(jar))).read(entry)
    [failure] = parse_jar(bytes(jar)).failures
    assert failure.path == entry and failure.error.startswith("unreadable entry: ")


def test_entry_reader_reads_an_archive_behind_a_prefix(corpus):
    """Bytes before the archive, as in a jmod or a self-extracting JAR,
    shift every offset; zipfile corrects them."""
    jar = corpus.pre_jars["CVE-9000-0001"]
    prefixed = b"#!/bin/sh\nexec java -jar \"$0\" \"$@\"\n" + jar
    assert _classes(prefixed) == _classes(jar)


def _assert_reads_like_zipfile(archive: BinaryIO) -> int:
    """ZipReader gives the (path, bytes) of every entry that zipfile's
    ``infolist`` and ``read`` give, in order; returns the entry count."""
    with zipfile.ZipFile(archive) as zf:
        reader = ZipReader(archive)
        infos = zf.infolist()
        assert [e[0] for e in reader.entries] == [i.filename for i in infos]
        for entry, info in zip(reader.entries, infos):
            assert reader.read(entry) == zf.read(info), info.filename
    return len(infos)


@pytest.mark.parametrize("module", ["java.base", "java.sql", "java.xml"])
def test_zip_reader_reads_jdk_jmods_as_zipfile_does(module):
    """Every entry of a jmod, a zip behind a 4-byte header, read from the
    open file."""
    jmod = _jdk_jmod(module)
    if jmod is None:
        pytest.skip(f"no JDK with jmods/{module}.jmod")
    with open(jmod, "rb") as f:
        assert _assert_reads_like_zipfile(f) > 10


def test_zip_reader_reads_corpus_jars_as_zipfile_does(corpus):
    for cve in corpus.cve_ids:
        for jar in (corpus.pre_jars[cve], corpus.post_jars[cve]):
            assert _assert_reads_like_zipfile(io.BytesIO(jar)) > 1
            zf = zipfile.ZipFile(io.BytesIO(jar))
            assert read_entries(jar) == [(i.filename, zf.read(i))
                                         for i in zf.infolist() if not i.is_dir()]


def _zip64_jar(corpus, monkeypatch, case: str) -> bytes:
    """The corpus CVE-9000-0001 pre JAR written again by zipfile in a
    ZIP64 form: force-zip64, each entry with a local ZIP64 extra field;
    zip64-fields, every size and offset past a lowered ZIP64 limit, so
    each central record states them in a ZIP64 extra field and the
    archive ends with a ZIP64 end record; zip64-end, a ZIP64 end record
    for an entry count past a lowered limit; comment, no ZIP64 record but
    a comment of the longest length, 65,535 bytes."""
    src = zipfile.ZipFile(io.BytesIO(corpus.pre_jars["CVE-9000-0001"]))
    if case == "zip64-fields":
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 10)
    if case == "zip64-end":
        monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 1)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as dst:
        for info in src.infolist():
            if case == "force-zip64":
                with dst.open(info.filename, "w", force_zip64=True) as out:
                    out.write(src.read(info))
            else:
                dst.writestr(info.filename, src.read(info))
        if case == "comment":
            dst.comment = b"c" * 0xFFFF
    monkeypatch.undo()
    return buf.getvalue()


@pytest.mark.parametrize("prefix", [b"", b"JM\x01\x00"])
@pytest.mark.parametrize("case", ["force-zip64", "zip64-fields", "zip64-end", "comment"])
def test_zip_reader_reads_zip64_and_commented_archives(corpus, monkeypatch, case, prefix):
    jar = _zip64_jar(corpus, monkeypatch, case)
    assert (b"PK\x06\x06" in jar) == (case in ("zip64-fields", "zip64-end"))
    infos = zipfile.ZipFile(io.BytesIO(jar)).infolist()
    assert all(i.extra.startswith(b"\x01\x00") for i in infos) == (case == "zip64-fields")
    assert _assert_reads_like_zipfile(io.BytesIO(prefix + jar)) == len(infos)
    assert _classes(prefix + jar) == _classes(corpus.pre_jars["CVE-9000-0001"])


def _deflate_bomb(size: int) -> bytes:
    """A JAR of one deflated class entry of ``size`` zero bytes, its CRC
    and sizes true. Each MiB of zeros is deflated to the same bytes after
    a full flush, so the stream is one such segment repeated."""
    chunk = bytes(1 << 20)
    deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
    segment = deflate.compress(chunk) + deflate.flush(zlib.Z_FULL_FLUSH)
    data = segment * (size >> 20) + deflate.flush()
    crc = 0
    for _ in range(size >> 20):
        crc = zlib.crc32(chunk, crc)
    name = b"p/Bomb.class"
    fields = (8, 0, 0, crc, len(data), size, len(name), 0)   # deflated
    local = struct.pack("<IHH" + "HHHIIIHH", 0x04034B50, 20, 0, *fields) + name
    central = struct.pack("<IHHH" + "HHHIIIHH" + "HHHII", 0x02014B50, 20, 20, 0, *fields,
                          0, 0, 0, 0, 0) + name
    end = struct.pack("<IHHHHIIH", 0x06054B50, 0, 0, 1, 1, len(central),
                      len(local) + len(data), 0)
    return local + data + central + end


def test_deflate_bomb_hits_the_entry_limit():
    """An entry that inflates to four times MAX_ENTRY_BYTES is an
    unreadable entry naming the limit, found without inflating past it:
    its time and memory (at most about twice the limit, while zlib joins
    its output) follow the limit, not the entry's size."""
    bomb = _deflate_bomb(4 * MAX_ENTRY_BYTES)
    with zipfile.ZipFile(io.BytesIO(bomb)) as zf:
        [info] = zf.infolist()
        assert info.file_size == 4 * MAX_ENTRY_BYTES and len(bomb) < 1 << 20
        assert zf.open(info).read(1 << 20) == bytes(1 << 20)
    limit = f"entry inflates past the {MAX_ENTRY_BYTES}-byte limit"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        archive = parse_jar(bomb)
        elapsed = time.perf_counter() - start
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert archive.failures == [ParseFailure("p/Bomb.class", f"unreadable entry: {limit}")]
    assert elapsed < 5 and peak < 2.5 * MAX_ENTRY_BYTES
    with pytest.raises(MalformedArchive, match=f"^p/Bomb.class: {limit}$"):
        read_entries(bomb)


@given(st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_entry_reader_on_edited_jars(corpus, compression, edits):
    """On byte edits of a corpus JAR parse_jar raises nothing but
    MalformedArchive."""
    data = bytearray(repacked(corpus.pre_jars["CVE-9000-0003"], compression))
    for pos, byte in edits:
        data[pos % len(data)] = byte
    data = bytes(data)
    try:
        parse_jar(data)
    except MalformedArchive:
        pass


def test_jdk_classes_are_stored_under_their_own_names(corpus, corpus_kb):
    """Every class entry of java.base has its class's simple name as its
    stem, so opening entries by stem loses none; and a scan with the KB's
    stems gives the report a scan that opens every entry gives."""
    jmod = _jdk_jmod("java.base")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.base.jmod")
    data = jmod.read_bytes()         # a zip behind a 4-byte header
    archive = parse_jar(data, bodies=())
    assert len(archive.classes) > 6000 and not archive.failures
    assert archive.misnamed == []

    kb = KnowledgeBase(records={**corpus_kb.records, "CVE-JDK": [
        ConstructRecord(ConstructId("class", name), "removed", None)
        # sun.misc.Unsafe is not in java.base; repack mode finds
        # jdk.internal.misc.Unsafe by its unqualified name.
        for name in ("java.lang.String", "java.util.HashMap",
                     "java.util.HashMap$Node", "sun.misc.Unsafe", "org.example.Absent")]})
    config = ScanConfig()

    def report():
        result = scan_jar_bytes("java.base.jmod", data, kb, config)
        return report_to_json(ScanReport(config, [result]))

    assert parse_jar(data, stems=kb.simple_class_names).unopened
    prefiltered = report()
    kb.simple_class_names = None         # open every entry
    assert prefiltered == report()
    [finding] = [f for f in prefiltered["jars"][0]["findings"] if f["cve"] == "CVE-JDK"]
    assert finding["verdict"] == "vulnerable"


def assert_names_as_rendered(cf: ClassFile, where: str) -> int:
    """``parse_class`` puts each method's names together from its class
    name and its descriptor's cached rendering; they must equal the whole
    signature rendered from the descriptor's tokens, as ``method_signature``
    writes it, and that text with packages stripped. Fails on the first
    method whose names differ, naming it; returns the number checked."""
    for m, fqn, unqualified in zip(cf.methods, cf.method_fqns, cf.unqualified_method_fqns,
                                   strict=True):
        params, ret = parse_method_descriptor(m.descriptor)
        whole = (f"{cf.this_class}: {render_type(ret)} {m.name}"
                 f"({', '.join(map(render_type, params))})")
        assert (fqn, unqualified, method_signature(cf.this_class, m.name, m.descriptor)) == (
            whole, strip_packages(whole), whole), f"{where} {m.name}{m.descriptor}"
    return len(cf.methods)


def compare_method_names(jmod: Path, sample: int | None = None, seed: int = 0) -> int:
    """``assert_names_as_rendered`` on every class of ``jmod``, or on
    ``sample`` of them drawn with ``random.Random(seed)``, bodies left
    undecoded. Returns the number of methods checked."""
    with zipfile.ZipFile(jmod) as zf:     # a jmod is a zip behind a 4-byte header
        names = sorted(n for n in zf.namelist() if n.endswith(".class"))
        if sample is not None:
            names = random.Random(seed).sample(names, sample)
        return sum(assert_names_as_rendered(parse_class(zf.read(n), bodies=()), n)
                   for n in names)


def test_method_signatures_rendered_once_per_class(corpus):
    data = _corpus_blobs(corpus)[0]
    cf, fresh = parse_class(data), parse_class(data)
    assert cf.method_fqns == tuple(method_signature(cf.this_class, m.name, m.descriptor)
                                   for m in cf.methods)
    assert cf.method_fqns is cf.method_fqns
    assert cf.unqualified_method_fqns == tuple(map(strip_packages, cf.method_fqns))
    assert cf == fresh and hash(cf) == hash(fresh)      # the cache is no field
    assert sum(assert_names_as_rendered(parse_class(blob), "corpus")
               for blob in _corpus_blobs(corpus)) > 100


def test_method_names_compose_as_rendered_on_jdk_classes():
    """A seeded sample of java.base; CI checks every method of java.base,
    java.xml and java.sql."""
    jmod = _jdk_jmod("java.base")
    if jmod is None:
        pytest.skip("no JDK with jmods/java.base.jmod")
    assert compare_method_names(jmod, sample=400, seed=26) > 2000


# Method names the parser accepts though the JVM forbids some of them: each
# holds a character of the signature's own syntax. Only for those with "."
# does stripping each part alone differ from stripping the whole text.
_ODD_METHOD_NAMES = ["odd name", "a:b", ": java.util.List", "call(me", "f(java.lang.String",
                     "x,y", "x, java.io.File", "x.check", "java.lang.String", "a. b.c",
                     ".x", "x.", "p.q r", "a.b(c.d", "int[] q.r"]


@pytest.mark.parametrize("cls", ["odd.p.C", "odd.p.My Class", "odd p.q.C", "C"])
def test_odd_method_and_class_names_compose_as_rendered(cls):
    """Names with a space, ":", "(", "," or ".", in classes whose name may
    hold a space, under a descriptor whose types have packages to strip."""
    descs = ["()V", "(I)I", "(Ljava/lang/String;[Ljava/util/Map$Entry;J)Ljava/util/List;",
             "([[La/b/C;)[Lx/Y;"]
    cf = parse_class(emit_class(ClassModel(cls, methods=[
        MethodModel(name, desc, 0x0101) for name in _ODD_METHOD_NAMES for desc in descs])))
    assert assert_names_as_rendered(cf, cls) == len(_ODD_METHOD_NAMES) * len(descs)
    assert cf.unqualified_method_fqns[_ODD_METHOD_NAMES.index("x.check") * len(descs)] == (
        f"{strip_packages(cls)}: void check()")


# --------------------------------------------------------------- round trips

def test_minimal_class_roundtrip():
    model = ClassModel("a.C", methods=[MethodModel("f", "()V", 0x09, code=["return"])])
    data, resolved = emit_class_resolved(model)
    cf = parse_class(data)
    assert cf.this_class == "a.C"
    assert cf.super_class == "java.lang.Object"
    assert len(cf.methods) == 1
    assert cf.methods[0].code == resolved[0]


def test_int_method_roundtrip():
    model = ClassModel("a.D", methods=[
        MethodModel("one", "()I", 0x09, code=["iconst_1", "ireturn"])])
    data, resolved = emit_class_resolved(model)
    cf = parse_class(data)
    code = cf.methods[0].code
    assert [m for _at, m, _ops in code.instructions] == ["iconst_1", "ireturn"]
    assert code == resolved[0]


def _sample_operands(fmt: str, at: int) -> list[tuple]:
    """Decoded-form operands of one format for an instruction at offset
    ``at``: the limits of each field, and values that need the wide prefix."""
    return {
        "": [()],
        "i8": [(-128,), (127,)],
        "i16": [(-32768,), (32767,)],
        "u8": [(0,), (255,)],
        "cp8": [(1,), (255,)],
        "cp16": [(1,), (65535,)],
        "local": [(0,), (255,), (256,), (65535,)],
        "iinc": [(0, -128), (255, 127), (256, 0), (3, 128), (3, -129), (65535, -32768)],
        "br16": [(at - 32768,), (at + 32767,)],
        "br32": [(at - 2**31,), (at + 2**31 - 1,)],
        "table": [(at + 9, -1, 1, (at, at + 4, at + 100)), (at - 2, 5, 5, (at + 1,))],
        "lookup": [(at + 9, ()), (at - 3, ((-7, at + 1), (2**31 - 1, at + 40)))],
        "iface": [(1, 1), (65535, 255)],
        "indy": [(1,), (65535,)],
        "multi": [(1, 1), (65535, 255)],
    }[fmt]


def test_every_opcode_roundtrips_through_both_decoders():
    """Each OPCODES entry, encoded at offsets 0-3 (so each switch padding
    occurs) after that many nops, decodes back to the same instruction
    through the package's decoder and the reference one. A local slot
    past 255, or an increment past a byte, takes the wide prefix."""
    wide = 0
    for op, (mnemonic, fmt) in OPCODES.items():
        for at in range(4):
            for operands in _sample_operands(fmt, at):
                ins = (at, mnemonic, operands)
                code = bytes(at) + encode_instruction(ins)
                assert code[at + (code[at] == WIDE)] == op
                wide += code[at] == WIDE
                assert decode_instructions(code)[at] == ins
                assert eager_parser.decode_instructions(code)[at] == ins
    assert wide == 4 * (11 * 2 + 4)        # 11 local-slot mnemonics, and iinc
    with pytest.raises(UnsupportedFeature, match="beyond 16 bits"):
        encode_instruction((0, "goto", (32768,)))
    with pytest.raises(struct.error):
        encode_instruction((0, "iload", (65536,)))


def test_local_access_table():
    """LOCALS names every short and explicit-slot load and store, with the
    slot the short forms imply."""
    assert sorted(LOCALS) == sorted(m for m in FORMAT_OF if m[1:] in ("load", "store") or
                                    m[1:-2] in ("load", "store"))
    assert LOCALS["iload_1"] == ("iload", 1, 1, False)
    assert LOCALS["lstore"] == ("lstore", None, 2, True)
    assert LOCALS["dload_3"].slot_of(()) == 3 and LOCALS["astore"].slot_of((300,)) == 300
    for access in LOCALS.values():
        assert FORMAT_OF[access.base] == "local"


def test_every_mnemonic_has_one_semantics_row():
    """Each mnemonic is in one of LOCALS, SHUFFLES and EFFECTS, except the
    pool-dependent ops, whose stack effect follows from their constant."""
    pool_dependent = {"ldc", "ldc_w", "ldc2_w", "getstatic", "putstatic", "getfield",
                      "putfield", "invokevirtual", "invokespecial", "invokestatic",
                      "invokeinterface", "invokedynamic", "multianewarray"}
    for m in FORMAT_OF:
        assert sum(m in table for table in (LOCALS, SHUFFLES, EFFECTS)) == (
            m not in pool_dependent), m


@pytest.mark.parametrize("atype, ok", [(3, False), (4, True), (11, True), (12, False)])
def test_newarray_element_type_is_checked_at_parse(newarray_class, atype, ok):
    """A newarray type code outside 4-11 is a ClassParseError naming the
    offset, in the package's parser and the reference one alike."""
    data = newarray_class(atype)
    for parse in (parse_class, eager_parser.parse_class):
        if ok:
            assert parse(data).methods[0].code.instructions[1] == (1, "newarray", (atype,))
        else:
            with pytest.raises(ClassParseError,
                               match=f"^newarray@1 of invalid element type {atype}$"):
                parse(data)


@pytest.mark.parametrize("code", [["athrow"], ["pop", "return"]])
def test_frame_sizing_refuses_a_pop_from_an_empty_stack(code):
    """Frame sizing reads each instruction's pops from the opcode tables,
    so an athrow, like a pop, needs a value on the stack."""
    model = ClassModel("a.E", methods=[MethodModel("f", "()V", 0x09, code=code)])
    with pytest.raises(UnsupportedFeature, match="^stack underflow while sizing at item 0$"):
        emit_class(model)


def test_unsupported_constant_kind_raises():
    model = ClassModel("a.E", methods=[
        MethodModel("f", "()V", 0x09, code=[("invokedynamic", "x"), "return"])])
    with pytest.raises(UnsupportedFeature):
        emit_class(model)


def test_roundtrip_randomized_models():
    rng = random.Random(1234)
    for trial in range(60):
        n_methods = rng.randint(1, 3)
        methods = [default_constructor()]
        for k in range(n_methods):
            params = rng.randint(1, 3)
            code = random_int_method(rng, params=params,
                                     segments=rng.randint(1, 8))
            methods.append(MethodModel(f"m{k}", "(" + "I" * params + ")I",
                                       0x09, code=code))
        fields = [FieldModel(f"f{k}", rng.choice(["I", "J", "Ljava/lang/String;"]))
                  for k in range(rng.randint(0, 3))]
        model = ClassModel(f"rnd.T{trial}", fields=fields, methods=methods)
        data, resolved = emit_class_resolved(model)
        cf = parse_class(data)
        assert cf.this_class == model.name
        assert [f.name for f in cf.fields] == [f.name for f in model.fields]
        assert [f.descriptor for f in cf.fields] == [f.descriptor for f in model.fields]
        assert [m.name for m in cf.methods] == [m.name for m in model.methods]
        for parsed, expected in zip(cf.methods, resolved):
            assert parsed.code == expected


def test_offset_integrity_on_random_models():
    rng = random.Random(99)
    for _ in range(30):
        code = random_int_method(rng, params=2, segments=rng.randint(2, 8))
        model = ClassModel("rnd.O", methods=[MethodModel("f", "(II)I", 0x09, code=code)])
        cf = parse_class(emit_class(model))
        _assert_targets_are_offsets(cf.methods[0].code)


def _assert_targets_are_offsets(code) -> None:
    offsets = {at for at, _m, _ops in code.instructions}
    for _at, m, ops in code.instructions:
        for t in branch_targets(m, ops):
            assert t in offsets


# ----------------------------------------------------------- golden switches

def _handcrafted_switch_class() -> bytes:
    """A class file with tableswitch and lookupswitch, assembled by hand
    (independent of the emitter)."""
    pool = b""
    pool += b"\x01" + struct.pack(">H", 8) + b"t/Golden"          # 1 Utf8
    pool += b"\x07" + struct.pack(">H", 1)                         # 2 Class
    pool += b"\x01" + struct.pack(">H", 16) + b"java/lang/Object"  # 3 Utf8
    pool += b"\x07" + struct.pack(">H", 3)                         # 4 Class
    pool += b"\x01" + struct.pack(">H", 4) + b"pick"               # 5 Utf8
    pool += b"\x01" + struct.pack(">H", 4) + b"(I)I"               # 6 Utf8
    pool += b"\x01" + struct.pack(">H", 4) + b"Code"               # 7 Utf8

    code = bytearray()
    code += b"\x1a"                       # 0: iload_0
    code += b"\xaa" + b"\x00\x00"         # 1: tableswitch + 2 pad bytes
    code += struct.pack(">iii", 27, 1, 2)  # default=+27 -> 28, low=1, high=2
    code += struct.pack(">ii", 23, 25)     # targets -> 24, 26
    code += b"\x04\xac"                   # 24: iconst_1, 25: ireturn
    code += b"\x05\xac"                   # 26: iconst_2, 27: ireturn
    code += b"\x1a"                       # 28: iload_0
    code += b"\xab" + b"\x00\x00"         # 29: lookupswitch + 2 pad bytes
    code += struct.pack(">ii", 19, 1)      # default=+19 -> 48, npairs=1
    code += struct.pack(">ii", 5, 21)      # match 5 -> 50
    code += b"\x03\xac"                   # 48: iconst_0, 49: ireturn
    code += b"\x08\xac"                   # 50: iconst_5, 51: ireturn
    assert len(code) == 52

    code_attr = struct.pack(">HHI", 1, 1, len(code)) + bytes(code)
    code_attr += struct.pack(">H", 0)     # no exception handlers
    code_attr += struct.pack(">H", 0)     # no sub-attributes
    method = struct.pack(">HHHH", 0x0009, 5, 6, 1)
    method += struct.pack(">HI", 7, len(code_attr)) + code_attr

    out = struct.pack(">IHH", 0xCAFEBABE, 0, 49)
    out += struct.pack(">H", 8) + pool
    out += struct.pack(">HHH", 0x0021, 2, 4)
    out += struct.pack(">H", 0)           # interfaces
    out += struct.pack(">H", 0)           # fields
    out += struct.pack(">H", 1) + method
    out += struct.pack(">H", 0)           # class attributes
    return bytes(out)


def _dump_instructions(code) -> str:
    lines = []
    for at, m, ops in code.instructions:
        if m == "tableswitch":
            default, low, high, targets = ops
            lines.append(f"{at} tableswitch default={default} "
                         f"low={low} high={high} "
                         f"targets={','.join(str(t) for t in targets)}")
        elif m == "lookupswitch":
            default, pairs = ops
            pair_s = ",".join(f"{v}:{t}" for v, t in pairs)
            lines.append(f"{at} lookupswitch default={default} pairs={pair_s}")
        elif ops:
            lines.append(f"{at} {m} {' '.join(str(o) for o in ops)}")
        else:
            lines.append(f"{at} {m}")
    return "\n".join(lines) + "\n"


def test_switch_decoding_matches_checked_in_dump():
    cf = parse_class(_handcrafted_switch_class())
    code = cf.methods[0].code
    _assert_targets_are_offsets(code)
    golden = (DATA / "golden_switch.dump").read_text()
    assert _dump_instructions(code) == golden


# ---------------------------------------------------------------- constructs

def _listing1_class() -> ClassModel:
    return ClassModel("a.C", fields=[FieldModel("baz", "I")], methods=[
        default_constructor(),
        MethodModel("foo", "(La/b/X;)V", code=[
            ("aload", 1),
            ("invokevirtual", "a.b.X", "bar", "()I"),
            ("istore", 2),
            "return",
        ]),
    ])


def test_listing1_constructs():
    cf = parse_class(emit_class(_listing1_class()))
    fqns = [c.fqn for c in list_constructs(cf)]
    assert fqns == ["a.C", "a.C: void <init>()", "a.C: void foo(a.b.X)"]


def test_relocated_constructs_unqualify():
    model = _listing1_class()
    model.name = "r.a.C"
    model.methods[1].descriptor = "(Lr/a/b/X;)V"
    cf = parse_class(emit_class(model))
    constructs = list_constructs(cf)
    foo = constructs[-1]
    assert foo.fqn == "r.a.C: void foo(r.a.b.X)"
    assert foo.unqualified == "C: void foo(X)"


def test_interface_yields_single_construct():
    model = ClassModel("a.I", access=0x0601, super_name="java.lang.Object")
    cf = parse_class(emit_class(model))
    constructs = list_constructs(cf)
    assert len(constructs) == 1
    assert constructs[0].kind == "interface"


def test_synthetic_methods_flagged():
    model = ClassModel("a.S", methods=[
        MethodModel("bridge", "()V", 0x1041, code=["return"])])
    cf = parse_class(emit_class(model))
    method = list_constructs(cf)[1]
    assert method.synthetic


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               max_size=60))
def test_strip_packages_idempotent(text):
    assert strip_packages(strip_packages(text)) == strip_packages(text)


def test_strip_packages_examples():
    assert strip_packages("a.b.C") == "C"
    assert strip_packages("a.C: void foo(a.b.X, int)") == "C: void foo(X, int)"
    assert strip_packages("r.a.b.X#bar") == "X#bar"
    assert strip_packages("int[]") == "int[]"
    assert strip_packages("a.b.C$D") == "C$D"
    assert strip_packages("double:1.5") == "double:1.5"

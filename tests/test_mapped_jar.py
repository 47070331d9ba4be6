"""Scanning a JAR by path: a regular file is mapped read-only, anything
else is read whole, and either way the result is what scanning the file's
bytes gives."""

import mmap
import os
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import pytest

from jar_damage import (ENTRY_DAMAGES, damaged_central_directory, damaged_entry,
                        reads_like_zipfile, repacked)
from jarscan import scanner as scanner_mod
from jarscan.classfile import class_entry_path, write_jar
from jarscan.classfile import parser as parser_mod
from jarscan.kb import save
from jarscan.scanner import JarResult, ScanConfig, scan_jar, scan_jar_bytes

ENTRY = "alpha/core/Parser.class"
LINUX_PROC = pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                                reason="reads /proc/self")


def _read_whole(path, kb, config) -> JarResult:
    """What scan_jar gave before it mapped JARs: the file read whole."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return JarResult(path=path, error=str(exc))
    return scan_jar_bytes(path, data, kb, config)


def _mapped_now(path) -> bool:
    return str(path) in Path("/proc/self/maps").read_text()


@pytest.fixture()
def parse_inputs(monkeypatch):
    """The type of what scan_jar hands parse_jar, one per call."""
    seen = []
    parse_jar = scanner_mod.parse_jar

    def recording(data, *args):
        seen.append(type(data))
        return parse_jar(data, *args)

    monkeypatch.setattr(scanner_mod, "parse_jar", recording)
    return seen


def _jars(corpus) -> dict:
    """Every corpus JAR, every damaged copy jar_damage makes of one, one
    behind a prefix and one whose class is cut short, by name."""
    jar = corpus.pre_jars["CVE-9000-0001"]
    jars = {f"{cve}-{side}": getattr(corpus, f"{side}_jars")[cve]
            for cve in corpus.cve_ids for side in ("pre", "post")}
    jars.update({f"entry-{d}": damaged_entry(jar, ENTRY, d)
                 for d in [*ENTRY_DAMAGES, "zip64-size"]})
    jars.update({f"central-{d}": damaged_central_directory(jar, d)
                 for d in ("version", "offset")})
    jars["prefixed"] = b"#!/bin/sh\nexec java -jar \"$0\" \"$@\"\n" + jar
    [(name, data)] = corpus.pre_classes["CVE-9000-0001"]
    jars["truncated-class"] = write_jar([(class_entry_path(name), data[:len(data) // 2])])
    return jars


def test_mapped_scan_equals_scanning_the_bytes(corpus, corpus_kb, tmp_path, parse_inputs):
    config = ScanConfig()
    for name, data in _jars(corpus).items():
        path = tmp_path / f"{name}.jar"
        path.write_bytes(data)
        res = scan_jar(str(path), corpus_kb, config)
        assert parse_inputs == [mmap.mmap], name
        assert res == scan_jar_bytes(str(path), data, corpus_kb, config), name
        parse_inputs.clear()
        if name != "central-version":
            assert reads_like_zipfile(data, path) == reads_like_zipfile(data), name


@LINUX_PROC
@pytest.mark.parametrize("name, error, failures", [
    ("CVE-9000-0001-pre", None, 0),
    ("central-version", "zip file version 7.2", 0),
    ("truncated-class", None, 1),
    ("central-offset", None, 1),
])
def test_map_is_released_when_scan_jar_returns(corpus, corpus_kb, tmp_path, monkeypatch,
                                               name, error, failures):
    """The JAR is mapped while it is parsed and unmapped once scan_jar
    returns: after a good JAR, an archive zipfile cannot open, a class
    that does not parse and entries only zipfile reads (and refuses)."""
    path = tmp_path / f"{name}.jar"
    path.write_bytes(_jars(corpus)[name])
    during = []
    parse_jar = scanner_mod.parse_jar

    def watched(*args):
        during.append(_mapped_now(path))
        return parse_jar(*args)

    monkeypatch.setattr(scanner_mod, "parse_jar", watched)
    res = scan_jar(str(path), corpus_kb, ScanConfig())
    assert (res.error, res.parse_failures) == (error, failures)
    assert during == [True]
    assert not _mapped_now(path)


@LINUX_PROC
@pytest.mark.parametrize("module, name", [(parser_mod.zlib, "decompressobj"),
                                          (parser_mod, "parse_class_header")])
def test_map_is_released_when_parsing_raises(corpus, corpus_kb, tmp_path, monkeypatch,
                                             module, name):
    """An exception parse_jar does not expect, raised while an entry is
    inflated or once it is read, reaches the caller as it is, and the map
    is closed."""
    path = tmp_path / "deflated.jar"
    path.write_bytes(repacked(corpus.pre_jars["CVE-9000-0001"]))

    class Broken(Exception):
        pass

    def broken(*args):
        raise Broken

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(Broken):
        scan_jar(str(path), corpus_kb, ScanConfig())
    assert not _mapped_now(path)


def test_unmappable_inputs_read_as_before(corpus_kb, tmp_path, parse_inputs):
    """An empty file, a directory and a missing path give the result and
    error text reading the file whole gives; nothing is mapped."""
    config = ScanConfig()
    empty = tmp_path / "empty.jar"
    empty.write_bytes(b"")
    for path in (empty, tmp_path, tmp_path / "missing.jar"):
        res = scan_jar(str(path), corpus_kb, config)
        assert res == _read_whole(str(path), corpus_kb, config)
        assert res.error and not res.classes
    assert scan_jar(str(empty), corpus_kb, config).error == "File is not a zip file"
    assert "[Errno" in scan_jar(str(tmp_path), corpus_kb, config).error
    assert set(parse_inputs) == {bytes}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_jar_through_a_fifo_is_read_whole(corpus, corpus_kb, tmp_path, parse_inputs):
    jar = corpus.pre_jars["CVE-9000-0001"]
    fifo = tmp_path / "pipe.jar"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(jar,))
    writer.start()
    try:
        res = scan_jar(str(fifo), corpus_kb, ScanConfig())
    finally:
        writer.join(timeout=10)
    assert parse_inputs == [bytes]
    assert res.findings and res == scan_jar_bytes(str(fifo), jar, corpus_kb, ScanConfig())


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="root reads a file without read permission")
def test_unreadable_file_is_an_error_entry(corpus, corpus_kb, tmp_path):
    path = tmp_path / "locked.jar"
    path.write_bytes(corpus.pre_jars["CVE-9000-0001"])
    path.chmod(0)
    try:
        res = scan_jar(str(path), corpus_kb, ScanConfig())
        assert res == _read_whole(str(path), corpus_kb, ScanConfig())
        assert "Permission denied" in res.error
    finally:
        path.chmod(0o600)


_PEAK = """\
import sys
from pathlib import Path
from jarscan.kb import load
from jarscan.scanner import ScanConfig, scan_jar, scan_jar_bytes
kb, jar = load(sys.argv[1]), sys.argv[3]
if sys.argv[2] == "map":
    res = scan_jar(jar, kb, ScanConfig())
elif sys.argv[2] == "read":
    res = scan_jar_bytes(jar, Path(jar).read_bytes(), kb, ScanConfig())
if sys.argv[2] != "kb":
    assert res.error is None and res.classes == int(sys.argv[4]), res
status = Path("/proc/self/status").read_text()
print([int(line.split()[1]) for line in status.splitlines() if line.startswith("VmHWM:")][0])
"""


@LINUX_PROC
def test_scan_memory_does_not_grow_with_the_archive(corpus_kb, tmp_path):
    """A 24 MiB JAR of stored classes the KB does not name raises the
    scanning process's peak RSS by far less than its size. Each figure is
    a fresh child's VmHWM: a child that only loads the KB, one that scans
    the JAR, and one that reads it whole and scans the bytes, which shows
    the measurement sees the archive when it is held."""
    kb_path, jar_path = tmp_path / "kb.txt", tmp_path / "big.jar"
    save(corpus_kb, kb_path)
    block = bytes(range(256)) * 384
    count = 256
    with zipfile.ZipFile(jar_path, "w", zipfile.ZIP_STORED) as zf:
        for i in range(count):
            name = f"big/Unnamed{i}.class"
            assert f"Unnamed{i}" not in corpus_kb.simple_class_names
            zf.writestr(name, block)
    assert jar_path.stat().st_size >= 24 * 2**20

    def peak_kb(mode):
        out = subprocess.run(
            [sys.executable, "-c", _PEAK, str(kb_path), mode, str(jar_path), str(count)],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        return int(out.stdout)

    baseline = peak_kb("kb")
    assert peak_kb("map") - baseline <= 8 * 1024
    assert peak_kb("read") - baseline >= 20 * 1024

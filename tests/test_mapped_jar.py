"""Scanning a JAR by path: a regular file is handed to zipfile as an open
file, anything else is read whole, and either way the result is what
scanning the file's bytes gives."""

import io
import os
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import pytest

from jar_damage import ENTRY_DAMAGES, damaged_central_directory, damaged_entry
from jarscan import scanner as scanner_mod
from jarscan.classfile import class_entry_path, write_jar
from jarscan.kb import save
from jarscan.scanner import JarResult, ScanConfig, scan_jar, scan_jar_bytes

ENTRY = "alpha/core/Parser.class"
LINUX_PROC = pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                                reason="reads /proc/self")


def _read_whole(path, kb, config) -> JarResult:
    """The JAR's file read whole, and its bytes scanned."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return JarResult(path=path, error=str(exc))
    return scan_jar_bytes(path, data, kb, config)


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
        assert parse_inputs == [io.BufferedReader], name
        assert res == scan_jar_bytes(str(path), data, corpus_kb, config), name
        parse_inputs.clear()


def test_unmappable_inputs_read_as_before(corpus_kb, tmp_path, parse_inputs):
    """An empty file, a directory and a missing path give the result and
    error text reading the file whole gives; only the empty file, a
    regular one, reaches zipfile, as an open file."""
    config = ScanConfig()
    empty = tmp_path / "empty.jar"
    empty.write_bytes(b"")
    for path, inputs in ((empty, [io.BufferedReader]), (tmp_path, []),
                         (tmp_path / "missing.jar", [])):
        res = scan_jar(str(path), corpus_kb, config)
        assert parse_inputs == inputs
        assert res == _read_whole(str(path), corpus_kb, config)
        assert res.error and not res.classes
        parse_inputs.clear()
    assert scan_jar(str(empty), corpus_kb, config).error == "File is not a zip file"
    assert "[Errno" in scan_jar(str(tmp_path), corpus_kb, config).error


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


class _CutAtFirstLookup:
    """A KB's stems that truncate a file at the first lookup, when zipfile
    has read the archive's central directory and no entry yet."""

    def __init__(self, stems, path, size):
        self.stems, self.path, self.size = stems, path, size

    def __contains__(self, stem):
        if self.path is not None:
            os.truncate(self.path, self.size)
            self.path = None
        return stem in self.stems


def test_jar_cut_short_during_its_scan(corpus, corpus_kb, tmp_path, monkeypatch):
    """A JAR truncated while it is scanned ends no scan: each class entry
    the cut reaches is an unreadable-entry parse failure, and the entries
    before it read as usual."""
    jar = write_jar([(class_entry_path(name), data) for cve in corpus.cve_ids
                     for name, data in corpus.pre_classes[cve]])
    classes = [i for i in zipfile.ZipFile(io.BytesIO(jar)).infolist()
               if i.filename.endswith(".class")]
    middle = len(classes) // 2
    # Inside the middle entry, past its local header.
    cut = (classes[middle].header_offset + classes[middle + 1].header_offset) // 2
    path = tmp_path / "cut.jar"
    path.write_bytes(jar)
    monkeypatch.setattr(corpus_kb, "simple_class_names",
                        _CutAtFirstLookup(corpus_kb.simple_class_names, path, cut))
    archives = []
    parse_jar = scanner_mod.parse_jar
    monkeypatch.setattr(scanner_mod, "parse_jar",
                        lambda *args: archives.append(parse_jar(*args)) or archives[-1])
    res = scan_jar(str(path), corpus_kb, ScanConfig())
    assert path.stat().st_size == cut
    [archive] = archives
    assert res.error is None and res.parse_failures == len(classes) - middle
    assert [f.path for f in archive.failures] == [i.filename for i in classes[middle:]]
    assert all(f.error.startswith("unreadable entry: ") for f in archive.failures)
    assert archive.failures[0].error == "unreadable entry: EOFError"   # cut inside its data
    assert sorted(p for p, _ in archive.classes) == sorted(i.filename for i in classes[:middle])


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
if sys.argv[2] == "open":
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
    assert peak_kb("open") - baseline <= 8 * 1024
    assert peak_kb("read") - baseline >= 20 * 1024

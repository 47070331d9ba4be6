"""CLI exit codes, report formats and schema validation."""

import gc
import hashlib
import importlib
import io
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import jarscan
from jarscan import cli
from jarscan.classfile import class_entry_path, write_jar
from jarscan.cli import _write_json, main
from jarscan.kb import FORMAT_VERSION, load
from jarscan.scanner import ScanConfig, render_table, report_to_json, scan
from corpus import materialize_manifest
from jar_damage import ENTRY_DAMAGES, damaged_entry

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report-schema.json").read_text())


@pytest.fixture()
def kb_file(tmp_path, corpus):
    manifest = materialize_manifest(corpus, tmp_path)
    out = tmp_path / "kb.txt"
    assert main(["kb-build", manifest, "-o", str(out)]) == 0
    return out


def _write_jars(corpus, tmp_path, which):
    jars = getattr(corpus, which)
    paths = []
    for cve in corpus.cve_ids:
        p = tmp_path / which / f"{cve}.jar"
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(jars[cve])
        paths.append(str(p))
    return paths


# ------------------------------------------------------------------ kb-build

def test_kb_build_success(tmp_path, corpus, capsys):
    manifest = materialize_manifest(corpus, tmp_path)
    out = tmp_path / "kb.txt"
    assert main(["kb-build", manifest, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "built 10 entries" in err
    assert out.exists()


def test_kb_build_identical_dirs_exit_1(tmp_path, corpus, capsys):
    manifest = materialize_manifest(corpus, tmp_path)
    lines = []
    for raw in Path(manifest).read_text().splitlines():
        cve, pre, _post, *rest = raw.split()
        lines.append(f"{cve} {pre} {pre} same-dirs")
    bad = tmp_path / "same.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["kb-build", str(bad), "-o", str(tmp_path / 'kb.txt')]) == 1
    assert "empty diff" in capsys.readouterr().err


def test_kb_build_missing_manifest_exit_2(tmp_path):
    assert main(["kb-build", str(tmp_path / "nope.txt"),
                 "-o", str(tmp_path / "kb.txt")]) == 2


def test_kb_build_manifest_not_utf8_exit_2(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"CVE-9000-0001 pr\xe9 post\n")
    assert main(["kb-build", str(manifest), "-o", str(tmp_path / "kb.txt")]) == 2
    assert f"error: {manifest} is not UTF-8: " in capsys.readouterr().err
    assert not (tmp_path / "kb.txt").exists()


def test_kb_build_manifest_nul_byte_exit_2(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"CVE-1 pre\x01\x00x post\n")
    assert main(["kb-build", str(manifest), "-o", str(tmp_path / "kb.txt")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}:1: embedded null byte\n"
    assert not (tmp_path / "kb.txt").exists()


def test_kb_build_unwritable_output_exit_2(tmp_path, corpus, capsys):
    manifest = materialize_manifest(corpus, tmp_path)
    out = tmp_path / "nonexistent" / "kb.txt"
    assert main(["kb-build", manifest, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "built 10 entries" in err
    assert f"error: cannot write {out}: No such file or directory" in err
    assert not out.parent.exists()


# ---------------------------------------------------------------------- scan

def test_scan_fixed_corpus_exit_0(tmp_path, corpus, kb_file, capsys):
    paths = _write_jars(corpus, tmp_path, "post_jars")
    rc = main(["scan", "--kb", str(kb_file), "--format", "json", *paths])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert all(f["verdict"] == "not-flagged"
               for j in report["jars"] for f in j["findings"])


def test_scan_vulnerable_corpus_exit_3(tmp_path, corpus, kb_file, capsys):
    paths = _write_jars(corpus, tmp_path, "pre_jars")
    rc = main(["scan", "--kb", str(kb_file), "--format", "json", *paths])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    flagged = {f["cve"] for j in report["jars"] for f in j["findings"]
               if f["verdict"] == "vulnerable"}
    assert flagged == set(corpus.cve_ids)


def test_scan_table_output(tmp_path, corpus, kb_file, capsys):
    paths = _write_jars(corpus, tmp_path, "pre_jars")[:2]
    rc = main(["scan", "--kb", str(kb_file), "--format", "table", *paths])
    assert rc == 3
    out = capsys.readouterr().out
    assert "VERDICT" in out and "vulnerable" in out


def test_scan_dir_input_and_out_file(tmp_path, corpus, kb_file):
    _write_jars(corpus, tmp_path, "post_jars")
    out = tmp_path / "report.json"
    rc = main(["scan", "--kb", str(kb_file), "--dir", str(tmp_path / "post_jars"),
               "--format", "json", "--out", str(out)])
    assert rc == 0
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_scan_report_bytes_on_stdout_and_in_out_file(tmp_path, corpus, kb_file, capsys, fmt):
    """The JSON report is written as it is encoded, yet its bytes are one
    ``json.dumps(..., indent=2, sort_keys=True)`` of the report and a
    newline, on stdout and in ``--out`` alike; so are the table's."""
    paths = _write_jars(corpus, tmp_path, "pre_jars")
    report = scan(paths, load(kb_file), ScanConfig())
    text = (json.dumps(report_to_json(report), indent=2, sort_keys=True)
            if fmt == "json" else render_table(report))
    assert main(["scan", "--kb", str(kb_file), "--format", fmt, *paths]) == 3
    assert capsys.readouterr().out == text + "\n"
    out = tmp_path / "report"
    assert main(["scan", "--kb", str(kb_file), "--format", fmt, "--out", str(out), *paths]) == 3
    assert out.read_bytes() == (text + "\n").encode()


def test_json_written_in_batches_is_one_dumps():
    """A report of many batches of encoder chunks reads as one dumps."""
    obj = {"jars": [{"path": f"j{i}.jar", "error": None, "findings": [i, 0.5, "é"]}
                    for i in range(2000)]}
    assert sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)) > 3 * 4096
    out = io.StringIO()
    _write_json(out, obj)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True)


def test_scan_threshold_flags_echoed_in_report(tmp_path, corpus, kb_file, capsys):
    paths = _write_jars(corpus, tmp_path, "post_jars")[:1]
    rc = main(["scan", "--kb", str(kb_file), "--format", "json",
               "--theta-pt", "0.75", "--theta-cc", "0.4", "--theta-ct", "0.2",
               "--mode", "default", *paths])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"theta_pt": 0.75, "theta_cc": 0.4,
                                "theta_ct": 0.2, "modes": ["default"]}


def test_scan_env_overrides(tmp_path, corpus, kb_file, capsys, monkeypatch):
    monkeypatch.setenv("JARSCAN_THETA_PT", "0.9")
    paths = _write_jars(corpus, tmp_path, "post_jars")[:1]
    rc = main(["scan", "--kb", str(kb_file), "--format", "json", *paths])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["theta_pt"] == 0.9


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
def test_scan_threshold_outside_unit_interval_exit_2(kb_file, capsys, monkeypatch,
                                                     value, via):
    """A threshold that is not a finite number in [0, 1] would write a
    report that is not JSON (NaN) or fails the schema; it is refused."""
    argv = ["scan", "--kb", str(kb_file), "--format", "json"]
    if via == "flag":
        argv += ["--theta-ct", value]
    else:
        monkeypatch.setenv("JARSCAN_THETA_CT", value)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --theta-ct (JARSCAN_THETA_CT) must be a number in [0, 1]")


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("name", ["pt", "cc", "ct"])
def test_scan_threshold_not_a_number_exit_2(kb_file, capsys, monkeypatch, name, via):
    """A threshold that does not read as a number is refused, from the
    environment as from the flag, rather than replaced by the default."""
    argv = ["scan", "--kb", str(kb_file), "--format", "json"]
    if via == "flag":
        argv += [f"--theta-{name}", "abc"]
    else:
        monkeypatch.setenv(f"JARSCAN_THETA_{name.upper()}", "abc")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --theta-{name} (JARSCAN_THETA_{name.upper()}) "
                   "must be a number in [0, 1], not abc\n")


def test_scan_threshold_bounds_accepted(tmp_path, corpus, kb_file, capsys):
    paths = _write_jars(corpus, tmp_path, "post_jars")[:1]
    for bound in ("0", "1"):
        rc = main(["scan", "--kb", str(kb_file), "--format", "json", "--theta-pt", bound,
                   "--theta-cc", bound, "--theta-ct", bound, *paths])
        assert rc in (0, 3)
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["config"]["theta_cc"] == float(bound)


@pytest.mark.parametrize("where", ["missing-dir", "full-device"])
def test_scan_unwritable_out_exit_2(tmp_path, corpus, kb_file, capsys, where):
    paths = _write_jars(corpus, tmp_path, "post_jars")[:1]
    if where == "missing-dir":
        out, reason = tmp_path / "nonexistent" / "r.json", "No such file or directory"
    else:
        out, reason = Path("/dev/full"), "No space left on device"
        if not out.exists():
            pytest.skip("no /dev/full")
    assert main(["scan", "--kb", str(kb_file), "--format", "json", "--out", str(out),
                 *paths]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_scan_unknown_flag_exit_2(kb_file):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--kb", str(kb_file), "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_scan_bad_mode_exit_2(tmp_path, kb_file):
    rc = main(["scan", "--kb", str(kb_file), "--mode", "nonsense"])
    assert rc == 2


@pytest.mark.parametrize("via, value", [("flag", ","), ("env", ""), ("flag", "defualt")])
def test_scan_bad_mode_names_the_value(kb_file, capsys, monkeypatch, via, value):
    """The error shows the value given, where it may come from, and the
    modes there are."""
    if via == "env":
        monkeypatch.setenv("JARSCAN_MODE", value)
        assert main(["scan", "--kb", str(kb_file)]) == 2
    else:
        assert main(["scan", "--kb", str(kb_file), "--mode", value]) == 2
    assert capsys.readouterr().err == (
        "error: --mode (JARSCAN_MODE) must name one or more of default, repack, "
        f"comma-separated, not {value!r}\n")


def _scan_json(kb_file, paths, capsys, *args):
    assert main(["scan", "--kb", str(kb_file), "--format", "json", *args, *paths]) == 3
    return capsys.readouterr().out


def test_scan_mode_named_twice_runs_once(tmp_path, corpus, kb_file, capsys):
    """Each construct verdict is reported once, however often its mode is
    named."""
    paths = _write_jars(corpus, tmp_path, "pre_jars")
    once = _scan_json(kb_file, paths, capsys, "--mode", "default")
    assert _scan_json(kb_file, paths, capsys, "--mode", "default,default") == once
    assert _scan_json(kb_file, paths, capsys, "--mode", " default ,,default") == once


@pytest.mark.parametrize("via", ["flag", "env"])
def test_scan_mode_order_does_not_change_the_report(tmp_path, corpus, kb_file, capsys,
                                                    monkeypatch, via):
    """Modes run default first whatever order they are named in, from
    --mode or JARSCAN_MODE, so the report bytes are the same."""
    paths = _write_jars(corpus, tmp_path, "pre_jars")

    def report(mode):
        if via == "flag":
            return _scan_json(kb_file, paths, capsys, "--mode", mode)
        monkeypatch.setenv("JARSCAN_MODE", mode)
        return _scan_json(kb_file, paths, capsys)

    canonical = report("default,repack")
    assert json.loads(canonical)["config"]["modes"] == ["default", "repack"]
    assert report("repack,default") == canonical
    assert report("repack,default,repack") == canonical


def test_scan_unreadable_kb_exit_2(tmp_path):
    rc = main(["scan", "--kb", str(tmp_path / "missing.txt")])
    assert rc == 2


def test_scan_malformed_kb_with_valid_checksum_exit_2(tmp_path, capsys):
    payload = f"jarscan-kb {FORMAT_VERSION}\n[]\n".encode()
    kb = tmp_path / "kb.txt"
    kb.write_bytes(payload + f"sha256={hashlib.sha256(payload).hexdigest()}\n".encode())
    assert main(["scan", "--kb", str(kb)]) == 2
    assert "error: " in capsys.readouterr().err


def test_scan_deeply_nested_kb_exit_2(tmp_path, capsys):
    payload = (f'jarscan-kb {FORMAT_VERSION}\n{{"CVE-X":'.encode()
               + b"[" * 200_000 + b"]" * 200_000 + b"}\n")
    kb = tmp_path / "kb.txt"
    kb.write_bytes(payload + f"sha256={hashlib.sha256(payload).hexdigest()}\n".encode())
    assert main(["scan", "--kb", str(kb)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {kb}: malformed body: RecursionError(")


def test_scan_failing_command_exit_1(kb_file, capsys):
    rc = main(["scan", "--kb", str(kb_file), "--command", f"{sys.executable} -c 'exit(3)'"])
    assert rc == 1
    assert "returned non-zero exit status 3" in capsys.readouterr().err


def test_scan_command_that_does_not_split_exit_2(kb_file, capsys):
    assert main(["scan", "--kb", str(kb_file), "--command", "echo 'x"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot split command \"echo 'x\": No closing quotation\n")


def test_scan_command_output_not_text_exit_2(kb_file, capsys):
    command = "printf '\\377.jar\\n'"
    assert main(["scan", "--kb", str(kb_file), "--command", command]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: output of command {command!r} is not text: ")


def test_scan_list_not_utf8_exit_2(tmp_path, kb_file, capsys):
    listing = tmp_path / "jars.txt"
    listing.write_bytes(b"libs/caf\xe9.jar\n")
    assert main(["scan", "--kb", str(kb_file), "--list", str(listing)]) == 2
    assert f"error: {listing} is not UTF-8: " in capsys.readouterr().err


def test_scan_missing_list_exit_2(tmp_path, kb_file, capsys):
    listing = tmp_path / "missing.txt"
    assert main(["scan", "--kb", str(kb_file), "--list", str(listing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {listing}: No such file or directory\n")


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_scan_dir_that_is_not_a_directory_exit_2(tmp_path, kb_file, capsys, kind):
    """A mistyped --dir is an input error, not a clean scan of no JARs."""
    target = tmp_path / "jars"
    if kind == "file":
        target.write_bytes(b"")
    assert main(["scan", "--kb", str(kb_file), "--dir", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {target} is not a directory\n"


def test_scan_every_jar_failed_exit_1(tmp_path, kb_file, capsys):
    bad = tmp_path / "bad.jar"
    bad.write_bytes(b"not a zip at all")
    rc = main(["scan", "--kb", str(kb_file), "--format", "json",
               str(bad), str(tmp_path / "missing.jar")])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert all(j["error"] for j in report["jars"])


def test_scan_some_jars_failed_keeps_verdict_exit_code(tmp_path, corpus, kb_file):
    paths = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    rc = main(["scan", "--kb", str(kb_file), str(tmp_path / "missing.jar"), *paths])
    assert rc == 3


def test_scan_no_jars_exit_0(tmp_path, kb_file, capsys):
    (tmp_path / "empty").mkdir()
    for given in ([], ["--dir", str(tmp_path / "empty")]):
        rc = main(["scan", "--kb", str(kb_file), "--format", "json", *given])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["jars"] == []


# -------------------------------------------------------------------- modify

def test_modify_type2_merges(tmp_path, corpus):
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:3]
    out = tmp_path / "merged.jar"
    assert main(["modify", "--kind", "2", "-o", str(out), *ins]) == 0
    from jarscan.classfile import parse_jar
    archive = parse_jar(out.read_bytes())
    assert len(archive.classes) >= 3


def test_modify_type4_prefix(tmp_path, corpus):
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    out = tmp_path / "reloc.jar"
    assert main(["modify", "--kind", "4", "--prefix", "r.", "-o", str(out), *ins]) == 0
    from jarscan.classfile import parse_jar
    archive = parse_jar(out.read_bytes())
    assert all(cf.this_class.startswith("r.") for _p, cf in archive.classes)


@pytest.mark.parametrize("prefix", ["", ".", "a..b", "1bad", "r.2x", "r..", "a b"])
def test_modify_type4_bad_prefix_exit_2(tmp_path, corpus, capsys, prefix):
    """A prefix whose dot-separated segments are not each an identifier
    strip_packages strips is refused before anything is written."""
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    out = tmp_path / "reloc.jar"
    rc = main(["modify", "--kind", "4", "--prefix", prefix, "-o", str(out), *ins])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: --prefix {prefix!r} ")
    assert not out.exists()


def test_modify_type4_prefix_without_final_dot(tmp_path, corpus):
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    out = tmp_path / "reloc.jar"
    assert main(["modify", "--kind", "4", "--prefix", "x$1._y", "-o", str(out), *ins]) == 0
    from jarscan.classfile import parse_jar, strip_packages
    classes = [cf.this_class for _p, cf in parse_jar(out.read_bytes()).classes]
    assert classes and all(c.startswith("x$1._y.") for c in classes)
    assert all(strip_packages(c) == c.rpartition(".")[2] for c in classes)


@pytest.mark.parametrize("kind", ["1", "2", "4"])
def test_modify_input_not_a_zip_exit_1(tmp_path, corpus, capsys, kind):
    """An input that is not a ZIP archive is named in the error, and
    nothing is written."""
    good = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    bad = tmp_path / "notajar.jar"
    bad.write_bytes(b"x")
    ins = [str(bad)] if kind == "1" else [*good, str(bad)]
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", kind, "-o", str(out), *ins]) == 1
    assert capsys.readouterr().err == f"error: {bad}: File is not a zip file\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["1", "2", "4"])
@pytest.mark.parametrize("damage", sorted(ENTRY_DAMAGES))
def test_modify_unreadable_entry_exit_1(tmp_path, corpus, capsys, kind, damage):
    """An entry zipfile cannot read is named, with its input, in the
    error, and nothing is written."""
    good = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    entry = "alpha/core/Parser.class"
    bad = tmp_path / "damaged.jar"
    bad.write_bytes(damaged_entry(corpus.pre_jars["CVE-9000-0001"], entry, damage))
    ins = [str(bad)] if kind == "1" else [*good, str(bad)]
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", kind, "-o", str(out), *ins]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {entry}: ") and err.count("\n") == 1
    assert not out.exists()


def test_modify_class_with_invalid_newarray_type_exit_1(tmp_path, capsys, newarray_class):
    """A class whose newarray names no element type is named, with its
    input, in the error, and nothing is written."""
    bad = tmp_path / "bad.jar"
    bad.write_bytes(write_jar([("p/A.class", newarray_class(3))]))
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", "1", "-o", str(out), str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: p/A.class: newarray@1 of invalid element type 3\n")
    assert not out.exists()


def test_modify_type1_given_two_inputs_exit_2(tmp_path, corpus, capsys):
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:2]
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", "1", "-o", str(out), *ins]) == 2
    assert capsys.readouterr().err == "error: type 1 operates on exactly one JAR\n"
    assert not out.exists()


def _bad_handler_range_jar(tmp_path) -> Path:
    """A JAR whose one class, p.A, has a handler range that ends inside
    an instruction."""
    from jarscan.classfile import class_entry_path, write_jar
    from test_classfile import handler_class
    data, table_entry = handler_class()
    bad = data.replace(table_entry, struct.pack(">HHHH", 0, 1, 7, 0))
    jar = tmp_path / "in.jar"
    jar.write_bytes(write_jar([(class_entry_path("p.A"), bad)]))
    return jar


def test_modify_type1_bad_handler_range_exit_1(tmp_path, capsys):
    """A class whose handler range ends inside an instruction is refused
    by the parser, so type 1 ends in an error, not a traceback, naming
    the input and the class entry."""
    jar = _bad_handler_range_jar(tmp_path)
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", "1", "-o", str(out), str(jar)]) == 1
    assert capsys.readouterr().err == f"error: {jar}: p/A.class: bad exception range [0, 1)\n"
    assert not out.exists()


def test_modify_type4_bad_handler_range_exit_1(tmp_path, capsys):
    """A merged JAR's entries come from several inputs, so type 4 names
    the class entry alone."""
    jar = _bad_handler_range_jar(tmp_path)
    out = tmp_path / "o.jar"
    assert main(["modify", "--kind", "4", "-o", str(out), str(jar)]) == 1
    assert capsys.readouterr().err == "error: p/A.class: bad exception range [0, 1)\n"
    assert not out.exists()


def test_modify_collision_exit_1(tmp_path, capsys):
    from jarscan.classfile import (ClassModel, class_entry_path,
                                   default_constructor, emit_class, write_jar)
    a = ClassModel("p.C", methods=[default_constructor()])
    b = ClassModel("r.p.C", methods=[default_constructor()])
    jar = tmp_path / "in.jar"
    jar.write_bytes(write_jar([
        (class_entry_path(a.name), emit_class(a)),
        (class_entry_path(b.name), emit_class(b)),
    ]))
    rc = main(["modify", "--kind", "4", "--prefix", "r.",
               "-o", str(tmp_path / "out.jar"), str(jar)])
    assert rc == 1
    assert "already exists" in capsys.readouterr().err


def test_modify_unwritable_output_exit_2(tmp_path, corpus, capsys):
    ins = _write_jars(corpus, tmp_path, "pre_jars")[:1]
    out = tmp_path / "nonexistent" / "out.jar"
    assert main(["modify", "--kind", "1", "-o", str(out), *ins]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: No such file or directory\n")
    assert not out.parent.exists()


# Modules a scan whose bodies all hit the KB never runs, and those only a
# scan given --command imports.
_NOT_NEEDED = ("jarscan.ir.model", "jarscan.ir.lift", "jarscan.ir.cfg",
               "jarscan.ir.dataflow", "jarscan.normalize", "jarscan.cpg",
               "jarscan.modharness", "jarscan.classfile.emitter", "subprocess", "shlex")

_IMPORT_PROBE = """
import sys, types
import jarscan.cli
# A module registered for first use is in sys.modules, but is a plain
# ModuleType only once its code has run.
print([n for n in sys.argv[1:] if type(sys.modules.get(n)) is types.ModuleType])
lift = sys.modules["jarscan.ir.lift"]
print(callable(lift.lift), type(lift) is types.ModuleType)
"""


def test_cli_import_leaves_the_ir_pipeline_unloaded():
    """``import jarscan.cli`` runs no IR, normalize, CPG, modification
    harness or emitter code, and imports neither subprocess nor shlex;
    the pipeline modules are still in sys.modules, to be wrapped, and
    load on first attribute access."""
    src = str(Path(jarscan.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *_NOT_NEEDED],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines() == ["[]", "True True"]


_DATACLASSES_PROBE = """
import sys, types
import jarscan.cli, jarscan.modharness
sys.modules["jarscan.cpg"].method_triplets
sys.modules["jarscan.normalize"].normalize
sys.modules["jarscan.ir.lift"].lift
print(all(type(sys.modules[n]) is types.ModuleType
          for n in ("jarscan.cpg", "jarscan.normalize", "jarscan.ir.lift")))
print("dataclasses" in sys.modules)
"""


def test_no_module_imports_dataclasses():
    """Neither ``import jarscan.cli`` nor running the deferred IR
    pipeline's code imports ``dataclasses``, whose import and generated
    code each command would pay for (see ``jarscan._record``). ``-S``
    keeps a ``.pth`` file in site-packages from importing it first."""
    src = str(Path(jarscan.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", _DATACLASSES_PROBE],
                         capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True).stdout
    assert out.splitlines() == ["True", "False"]


@pytest.mark.parametrize("package", ["jarscan", "jarscan.ir", "jarscan.classfile"])
def test_every_export_resolves(package):
    """Each name a package lists in ``__all__`` is importable from it:
    the lazy export tables name only what their submodules define."""
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ------------------------------------------------------- cyclic collector

def _cyclic_garbage(argv) -> tuple[int, Counter]:
    """``main(argv)``'s exit code, and the objects it left in reference
    cycles, counted by type: ``gc.DEBUG_SAVEALL`` keeps what a collection
    finds instead of freeing it."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        status = main(argv)
        gc.collect()
        return status, Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _census_inputs(tmp_path, corpus, unliftable) -> dict[str, tuple[list, list, int]]:
    """Per command, the arguments of a run on one input and of a run on
    many, and both runs' exit code. The many-input scans and kb-build add
    damaged inputs and a body that does not lift."""
    manifest = Path(materialize_manifest(corpus, tmp_path))
    lines = manifest.read_text(encoding="utf-8").splitlines()
    name, data = unliftable
    for path, blob in ((f"junk/pre/{name.replace('.', '/')}.class", b"\xca\xfe\xba\xbe junk"),
                       (f"unliftable/pre/{name.replace('.', '/')}.class", data)):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_bytes(blob)
    lines += ["CVE-9100-0001 junk/pre CVE-9000-0002/post damaged",
              "CVE-9100-0002 unliftable/pre CVE-9000-0002/post unliftable"]
    many_manifest = tmp_path / "many.txt"
    many_manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    one_manifest = tmp_path / "one.txt"
    one_manifest.write_text(lines[0] + "\n", encoding="utf-8")
    kb = tmp_path / "kb.txt"
    assert main(["kb-build", str(manifest), "-o", str(kb)]) == 0

    jars = _write_jars(corpus, tmp_path, "pre_jars") + _write_jars(corpus, tmp_path, "post_jars")
    damaged = []
    for damage in sorted(ENTRY_DAMAGES):
        p = tmp_path / "damaged" / f"{damage}.jar"
        p.parent.mkdir(exist_ok=True)
        p.write_bytes(damaged_entry(corpus.pre_jars["CVE-9000-0001"],
                                    "alpha/core/Parser.class", damage))
        damaged.append(str(p))
    unliftable_jar = tmp_path / "unliftable.jar"
    unliftable_jar.write_bytes(write_jar([(class_entry_path(name), data)]))
    merged = tmp_path / "merged.jar"
    assert main(["modify", "--kind", "2", *jars, "-o", str(merged)]) == 0
    out = str(tmp_path / "out")
    scan = ["scan", "--kb", str(kb), "--out", out]
    return {
        "scan-json": ([*scan, "--format", "json", jars[0]],
                      [*scan, "--format", "json", *jars, *damaged, str(unliftable_jar)], 3),
        "scan-table": ([*scan, "--format", "table", jars[0]],
                       [*scan, "--format", "table", *jars, *damaged, str(unliftable_jar)], 3),
        "kb-build": (["kb-build", str(one_manifest), "-o", out],
                     ["kb-build", str(many_manifest), "-o", out], 0),
        "modify-1": (["modify", "--kind", "1", jars[0], "-o", out],
                     ["modify", "--kind", "1", str(merged), "-o", out], 0),
        "modify-2": (["modify", "--kind", "2", jars[0], "-o", out],
                     ["modify", "--kind", "2", *jars, "-o", out], 0),
        "modify-4": (["modify", "--kind", "4", jars[0], "-o", out],
                     ["modify", "--kind", "4", *jars[:len(corpus.cve_ids)], "-o", out], 0),
    }


@pytest.mark.parametrize("command", ["scan-json", "scan-table", "kb-build",
                                     "modify-1", "modify-2", "modify-4"])
def test_commands_leave_cyclic_garbage_that_does_not_grow_with_input(
        tmp_path, corpus, out_of_range_beta_pre, capsys, command):
    """main runs with the cyclic collector off, which holds only while
    jarscan builds no reference cycles per input: a run on many inputs,
    damaged and unliftable ones among them, leaves the same cyclic objects
    (argparse's, the JSON encoder's) as a run on one."""
    one, many, status = _census_inputs(tmp_path, corpus, out_of_range_beta_pre)[command]
    assert main(many) == status         # warm-up: imports and first-use caches
    one_status, one_garbage = _cyclic_garbage(one)
    many_status, many_garbage = _cyclic_garbage(many)
    capsys.readouterr()
    assert (one_status, many_status) == (status, status)
    assert many_garbage == one_garbage


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_without_the_cyclic_collector_and_restores_it(kb_file, tmp_path,
                                                                monkeypatch, capsys, enabled):
    """The collector is off while a command runs, and main leaves it as its
    caller had it after a normal return, an error exit code and a raised
    exception."""
    during = []
    real_load = cli.load_kb

    def load(path):
        during.append(gc.isenabled())
        if path == "raise":
            raise RuntimeError(path)
        return real_load(path)
    monkeypatch.setattr(cli, "load_kb", load)
    statuses, after = [], []
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        statuses.append(main(["scan", "--kb", str(kb_file)]))
        after.append(gc.isenabled())
        statuses.append(main(["scan", "--kb", str(tmp_path / "missing.txt")]))
        after.append(gc.isenabled())
        with pytest.raises(RuntimeError):
            main(["scan", "--kb", "raise"])
        after.append(gc.isenabled())
        with pytest.raises(SystemExit):
            main(["scan"])                # argparse: --kb is required
        after.append(gc.isenabled())
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert statuses == [0, 2]
    assert during == [False, False, False]
    assert after == [enabled] * 4

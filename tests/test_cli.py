"""CLI exit codes, report formats and schema validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import jarscan
from jarscan.cli import main
from corpus import materialize_manifest

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


def test_scan_unknown_flag_exit_2(kb_file):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--kb", str(kb_file), "--definitely-not-a-flag"])
    assert exc.value.code == 2


def test_scan_bad_mode_exit_2(tmp_path, kb_file):
    rc = main(["scan", "--kb", str(kb_file), "--mode", "nonsense"])
    assert rc == 2


def test_scan_unreadable_kb_exit_2(tmp_path):
    rc = main(["scan", "--kb", str(tmp_path / "missing.txt")])
    assert rc == 2


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


def test_scan_no_jars_exit_0(kb_file, capsys):
    rc = main(["scan", "--kb", str(kb_file), "--format", "json"])
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


# Modules a scan whose bodies all hit the KB never runs.
_NOT_NEEDED = ("jarscan.ir.model", "jarscan.ir.lift", "jarscan.ir.cfg",
               "jarscan.ir.dataflow", "jarscan.normalize", "jarscan.cpg",
               "jarscan.modharness", "jarscan.classfile.emitter")

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
    harness or emitter code; the pipeline modules are still in
    sys.modules, to be wrapped, and load on first attribute access."""
    src = str(Path(jarscan.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *_NOT_NEEDED],
                         capture_output=True, text=True, env=env, check=True).stdout
    assert out.splitlines() == ["[]", "True True"]


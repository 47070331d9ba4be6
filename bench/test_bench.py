"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py"""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def java_xml_classes():
    """The whole java.xml module parsed and held in this process's memory."""
    inputs.require_source()
    try:
        jmods = inputs.find_jmods()
        jdk = inputs.jdk_jars(inputs.inputs_dir(run.WORK, jmods), jmods)
    except inputs.BenchError as exc:
        pytest.skip(str(exc))
    from jarscan.classfile.parser import parse_class
    with zipfile.ZipFile(jdk / "java.xml.jar") as zf:
        return [parse_class(zf.read(n)) for n in zf.namelist() if n.endswith(".class")]


def _own_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    pytest.skip("no /proc/self/status")


def test_child_peak_rss_excludes_parent_memory(java_xml_classes, tmp_path):
    assert len(java_xml_classes) > 2000
    parent_mb = _own_rss_mb()
    assert parent_mb > 128, "this process should hold the java.xml corpus"

    res = run.launch([sys.executable, "-c", "pass"],
                     tmp_path / "out.txt", tmp_path / "err.txt")
    assert res["status"] == 0
    assert res["maxrss_kb"] / 1024 < 64, (res, parent_mb)
    assert res["speed"] > 0

    # The pitfall the launcher avoids: waiting on a child spawned straight
    # from this process reports this process's high-water mark.
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    _, _, usage = os.wait4(proc.pid, 0)
    proc.returncode = 0
    print(f"parent {parent_mb:.0f} MB; lean {res['maxrss_kb'] / 1024:.0f} MB; "
          f"direct {usage.ru_maxrss / 1024:.0f} MB")


def test_child_env_scrubs_jarscan_settings(monkeypatch):
    monkeypatch.setenv("JARSCAN_JOBS", "4")
    monkeypatch.setenv("JARSCAN_MODE", "repack")
    env = inputs.child_env()
    assert not [k for k in env if k.startswith("JARSCAN_")]
    assert env["PYTHONPATH"] == str(inputs.SRC)


def test_missing_jdk_is_an_error(monkeypatch):
    monkeypatch.delenv("JAVA_HOME", raising=False)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(inputs.BenchError, match="no JDK"):
        inputs.find_jmods()


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    empty = {"spans": {}, "counts": {}, "hook_s": 0.0}
    res = {"wall_s": 1.0, "speed": 1.0}
    layer = run.layer_metrics(empty, res, res)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layer.values()]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)

"""Seeded input generation for the jarscan benchmark, with ground truth.

Everything is built locally: JARs packed from the JDK's ``jmods/``, the
synthetic corpus of ``tests/corpus.py``, and synthetic fixes applied to
real java.xml classes through jarscan's own emitter and ``modify``
harness. The generator, not the scanner, fixes the expected verdict of
every (JAR, CVE) pair and the expected exit code, and writes them to
``expected.json`` next to the inputs.

Inputs are cached under one directory of the work directory per
``inputs_key``: a hash of the JDK, the jarscan sources, the benchmark's
own code and the synthetic corpus. The KBs, the java.xml qualification
list and the re-emitted post-fix classes all come from the sources, so a
checkout whose sources differ never reads inputs another one wrote.
Within that directory the packed JDK JARs are seed-independent and
everything else is keyed by seed. A cache entry is published by renaming
a finished temporary directory, so an interrupted run never leaves a
partial one.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import random
import shutil
import subprocess
import sys
import zipfile
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fixes drawn per seed for scan-dense and kb-build.
N_FIXES = 300
TAKE_ALL_INSTRUCTIONS = 1000  # classes this large are in every draw
# Fix shapes and their shares in percent. guard-entry leaves NT empty
# (the θPT branch of match_triplets), guard-return usually removes an edge
# into the return (the NT branch); added and removed exercise the presence
# rules.
SHAPES = (("guard-entry", 35), ("guard-return", 35), ("added", 15), ("removed", 15))
GUARD = ("invokestatic", "bench.Guard", "check", "()V")
ADDED_METHOD = "benchGuard"
GUARD_TARGET_ITEMS = 40       # assembler items (instructions and labels)
RETURNS = {"return", "ireturn", "lreturn", "freturn", "dreturn", "areturn"}
SHADE_PREFIX = "shaded."
CVE_FORMAT = "CVE-9100-{:04d}"

MODULES = ("java.base", "java.sql", "java.xml")

VULNERABLE = "vulnerable"
NOT_FLAGGED = "not-flagged"


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


# ------------------------------------------------------------------ toolchain

def require_source() -> None:
    if not (SRC / "jarscan" / "cli.py").is_file():
        raise BenchError(f"jarscan sources not found under {SRC}; run the "
                         "benchmark from a full checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def find_jmods() -> Path:
    """The JDK's jmods/ directory, from JAVA_HOME or the java on PATH."""
    tried = []
    home = os.environ.get("JAVA_HOME")
    if home:
        tried.append(Path(home) / "jmods")
    java = shutil.which("java")
    if java:
        tried.append(Path(os.path.realpath(java)).parent.parent / "jmods")
    for jmods in tried:
        if all((jmods / f"{m}.jmod").is_file() for m in MODULES):
            return jmods
    raise BenchError(
        "no JDK with jmods/ found (looked in: "
        + (", ".join(str(t) for t in tried) or "JAVA_HOME unset, no java on PATH")
        + "); install a JDK 17 and set JAVA_HOME. The benchmark does not fall "
        "back to a smaller workload.")


def child_env() -> dict:
    """Environment for jarscan children: JARSCAN_* scrubbed, src importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JARSCAN_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def jarscan_cmd(*args) -> list:
    return [sys.executable, "-m", "jarscan.cli", *map(str, args)]


# ------------------------------------------------------------ cache helpers

def _publish(tmp: Path, final: Path) -> None:
    if final.exists():
        shutil.rmtree(tmp)
    else:
        tmp.rename(final)


def _fresh_tmp(final: Path) -> Path:
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    return tmp


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- JDK JARs

def _pack_module(jmod: Path, out: Path) -> int:
    """Repack a jmod's classes/ tree as a plain JAR; returns the class count."""
    count = 0
    with zipfile.ZipFile(jmod) as src, zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as dst:
        for info in sorted(src.infolist(), key=lambda i: i.filename):
            name = info.filename
            if (not name.startswith("classes/") or not name.endswith(".class")
                    or name.endswith("module-info.class")):
                continue
            entry = zipfile.ZipInfo(name[len("classes/"):], date_time=(2020, 1, 1, 0, 0, 0))
            entry.external_attr = 0o644 << 16
            entry.compress_type = zipfile.ZIP_DEFLATED
            dst.writestr(entry, src.read(info))
            count += 1
    return count


def inputs_key(jmods: Path) -> str:
    """Hash of everything the cached inputs and digest records depend on."""
    h = hashlib.sha256(str(jmods.resolve()).encode())
    for m in MODULES:
        h.update(f"|{m}:{(jmods / f'{m}.jmod').stat().st_size}".encode())
    code = [*sorted(SRC.rglob("*.py")), *sorted(BENCH.glob("*.py")),
            ROOT / "tests" / "corpus.py"]
    for path in code:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def inputs_dir(work: Path, jmods: Path) -> Path:
    """This checkout's inputs directory. The first run with new sources
    deletes the directories that older sources made."""
    base = work / f"inputs-{inputs_key(jmods)}"
    if not base.exists():
        for stale in work.glob("inputs-*"):
            shutil.rmtree(stale, ignore_errors=True)
    return base


def jdk_jars(base: Path, jmods: Path) -> Path:
    """java.base/java.sql/java.xml JARs plus the java.xml qualification list."""
    final = base / "jdk"
    if (final / "qualify.json").is_file():
        return final
    tmp = _fresh_tmp(final)
    counts = {m: _pack_module(jmods / f"{m}.jmod", tmp / f"{m}.jar") for m in MODULES}
    qualify = _qualify_xml(tmp / "java.xml.jar")
    qualify["class_counts"] = counts
    (tmp / "qualify.json").write_text(json.dumps(qualify, indent=1), encoding="utf-8")
    _publish(tmp, final)
    return final


def _qualify_xml(jar: Path) -> dict:
    """java.xml classes the emitter can re-emit and that have code to edit.

    The emitter's subset rejects invokeinterface, invokedynamic,
    multianewarray and array class operands, so only part of java.xml can
    carry a synthetic fix; the rejection reasons are recorded.
    """
    from jarscan.classfile.emitter import emit_class
    from jarscan.classfile.parser import parse_class
    from jarscan.errors import UnsupportedFeature
    from jarscan.modharness import model_from_classfile

    ok, reasons = [], Counter()
    with zipfile.ZipFile(jar) as zf:
        names = sorted(n for n in zf.namelist() if n.endswith(".class"))
        for name in names:
            cf = parse_class(zf.read(name))
            try:
                emit_class(model_from_classfile(cf))
            except UnsupportedFeature as exc:
                reasons[str(exc).split(" of ")[0]] += 1
                continue
            size = sum(len(m.code.instructions) for m in cf.methods if m.code)
            if size == 0:
                reasons["no method with code"] += 1
                continue
            ok.append([name, size])
    return {"xml_classes": len(names), "qualified": ok,
            "rejected": dict(sorted(reasons.items()))}


# ------------------------------------------------------------- scan-sparse

def _load_corpus_module():
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", ROOT / "tests" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sparse_inputs(base: Path, jdk: Path, seed: int) -> dict:
    """java.base + java.sql + the 20 synthetic corpus JARs, 10-CVE KB.

    The JAR contents are fixed by the JDK and the corpus; the seed orders
    the JARs on the command line.
    """
    final = base / f"sparse-{seed}"
    if (final / "expected.json").is_file():
        return json.loads((final / "expected.json").read_text(encoding="utf-8"))
    from jarscan.kb import build_from_manifest, save

    tmp = _fresh_tmp(final)
    corpus_mod = _load_corpus_module()
    corpus = corpus_mod.build_corpus()
    fixes = tmp / "fixes"
    fixes.mkdir()
    kb, stats = build_from_manifest(corpus_mod.materialize_manifest(corpus, fixes))
    if len(stats.built) != len(corpus.cve_ids):
        raise BenchError(f"synthetic KB built only {stats.built}")
    save(kb, tmp / "kb.txt")

    jars = {}
    for cve in corpus.cve_ids:
        for side, blobs in (("pre", corpus.pre_jars), ("post", corpus.post_jars)):
            name = f"{cve}-{side}.jar"
            (tmp / name).write_bytes(blobs[cve])
            jars[name] = {c: VULNERABLE if (side == "pre" and c == cve) else NOT_FLAGGED
                          for c in corpus.cve_ids}
    for module in ("java.base", "java.sql"):
        name = f"{module}.jar"
        os.link(jdk / name, tmp / name)
        jars[name] = {c: NOT_FLAGGED for c in corpus.cve_ids}
    order = sorted(jars)
    random.Random(seed).shuffle(order)
    expected = {
        "workload": "scan-sparse", "seed": seed, "kb": "kb.txt",
        "jars": order, "expected": jars, "exit_code": 3,
    }
    (tmp / "expected.json").write_text(json.dumps(expected, indent=1), encoding="utf-8")
    _publish(tmp, final)
    return expected


# ------------------------------------------------------ java.xml fixes

def draw_classes(qualified: list, n: int, rng: random.Random) -> list:
    """Stratified draw: every class of TAKE_ALL_INSTRUCTIONS or more, then
    the rest sorted by code size, cut into strata, one class from each.

    A plain draw lets the few very large classes (XMLChar's tables,
    XPath$Scanner) swing the total work, the KB size and the kb-build peak
    RSS (32 to 46 MB) from seed to seed. Taking all of them, and one class
    per size stratum of the rest, keeps every size band represented and
    the totals steady.
    """
    big = sorted(q[0] for q in qualified if q[1] >= TAKE_ALL_INSTRUCTIONS)
    ranked = sorted((q for q in qualified if q[1] < TAKE_ALL_INSTRUCTIONS),
                    key=lambda q: (q[1], q[0]))
    k = n - len(big)
    picks = big
    for i in range(k):
        lo, hi = i * len(ranked) // k, (i + 1) * len(ranked) // k
        picks.append(ranked[rng.randrange(lo, hi)][0])
    return sorted(picks)


def _guard_method(model):
    """The method a guard goes into: length closest to GUARD_TARGET_ITEMS.

    The edited method's triplets make up most of the KB. A seeded or
    median pick among a class's methods lets a few very large methods swing
    the KB size and the scan work by 13% from seed to seed; a common target
    keeps both steadier. Classes whose methods are all tiny still get tiny
    edits.
    """
    return min((m for m in model.methods if m.code),
               key=lambda m: (abs(len(m.code) - GUARD_TARGET_ITEMS), len(m.code),
                              m.name, m.descriptor))


def assign_shapes(models: list, rng: random.Random) -> list:
    """One shape per class, in exactly the SHAPES shares.

    Classes are ranked by the length of their guard method and cut into
    blocks of one SHAPES pattern each (7/7/3/3 for 35/35/15/15); each
    block gets a seeded permutation of the pattern. Every size band then
    carries the same mix, so which classes get a signature (guard shapes)
    and which only a presence rule does not move the KB size.
    """
    step = math.gcd(*(w for _, w in SHAPES))
    pattern = [s for s, w in SHAPES for _ in range(w // step)]
    order = sorted(range(len(models)),
                   key=lambda i: (len(_guard_method(models[i]).code), models[i].name))
    shapes = [None] * len(models)
    for start in range(0, len(order), len(pattern)):
        block = pattern[:]
        rng.shuffle(block)
        for i, shape in zip(order[start:start + len(pattern)], block):
            shapes[i] = shape
    return shapes


def _apply_fix(model, shape: str, rng: random.Random):
    """Edit a ClassModel in place; returns (shape, method name, descriptor).

    The shape falls back when the class cannot take it: removed needs a
    method other than a constructor, added needs a free method name,
    guard-return needs a return instruction.
    """
    from jarscan.classfile.emitter import MethodModel

    removable = [m for m in model.methods if m.name not in ("<init>", "<clinit>")]
    if shape == "removed" and not removable:
        shape = "added"
    if shape == "added" and any(m.name == ADDED_METHOD for m in model.methods):
        shape = "guard-entry"
    if shape == "added":
        model.methods.append(MethodModel(ADDED_METHOD, "()V", 0x0009,
                                         code=[GUARD, "return"]))
        return shape, ADDED_METHOD, "()V"
    if shape == "removed":
        victim = rng.choice(removable)
        model.methods.remove(victim)
        return shape, victim.name, victim.descriptor
    method = _guard_method(model)
    at = 0
    if shape == "guard-return":
        at = next((i for i, it in enumerate(method.code)
                   if isinstance(it, str) and it in RETURNS), None)
        if at is None:
            shape, at = "guard-entry", 0
    method.code.insert(at, GUARD)
    return shape, method.name, method.descriptor


def xml_inputs(base: Path, jdk: Path, seed: int, with_kb: bool) -> dict:
    """N synthetic fixes on real java.xml classes, plus the scanned JARs.

    Pre side: javac's original bytes. Post side: the class rebuilt with
    model_from_classfile, edited, and re-emitted. xml-shaded.jar is the
    type-4 (relocated uber-JAR) variant of xml-pre.jar. With with_kb the
    N-CVE KB is built too (a CLI kb-build child, done once per seed).
    """
    final = base / f"xml-{seed}"
    if not (final / "expected.json").is_file():
        _generate_xml(final, jdk, seed)
    expected = json.loads((final / "expected.json").read_text(encoding="utf-8"))
    if with_kb and not (final / "kb.txt").is_file():
        tmp_kb = final / f"kb.txt.tmp{os.getpid()}"
        proc = subprocess.run(jarscan_cmd("kb-build", final / "manifest.txt", "-o", tmp_kb),
                              env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"kb-build for scan-dense inputs failed: {proc.stderr[-2000:]}")
        tmp_kb.rename(final / "kb.txt")
    return expected


def _generate_xml(final: Path, jdk: Path, seed: int) -> None:
    from jarscan.classfile.descriptors import method_signature
    from jarscan.classfile.emitter import emit_class, write_jar
    from jarscan.classfile.parser import parse_class
    from jarscan.modharness import model_from_classfile, modify

    qualify = json.loads((jdk / "qualify.json").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    picks = draw_classes(qualify["qualified"], N_FIXES, rng)
    with zipfile.ZipFile(jdk / "java.xml.jar") as zf:
        originals = [zf.read(entry) for entry in picks]
    classes = [parse_class(data) for data in originals]
    models = [model_from_classfile(cf) for cf in classes]
    shapes = assign_shapes(models, rng)
    tmp = _fresh_tmp(final)
    lines, fixes, pre_entries, post_entries = [], {}, [], []
    rows = zip(picks, originals, classes, models, shapes)
    for i, (entry, pre, cf, model, shape) in enumerate(rows, 1):
        cve = CVE_FORMAT.format(i)
        shape, mname, mdesc = _apply_fix(model, shape, rng)
        post = emit_class(model)
        for side, data in (("pre", pre), ("post", post)):
            path = tmp / "fixes" / cve / side / entry
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        pre_entries.append((entry, pre))
        post_entries.append((entry, post))
        lines.append(f"{cve} fixes/{cve}/pre fixes/{cve}/post java.xml {entry} {shape}")
        change = {"added": "added", "removed": "removed"}.get(shape, "changed")
        fixes[cve] = {"class": cf.this_class, "shape": shape,
                      "record": [method_signature(cf.this_class, mname, mdesc), change]}
    (tmp / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    pre_jar = write_jar(pre_entries)
    (tmp / "xml-pre.jar").write_bytes(pre_jar)
    (tmp / "xml-post.jar").write_bytes(write_jar(post_entries))
    (tmp / "xml-shaded.jar").write_bytes(modify([pre_jar], 4, prefix=SHADE_PREFIX))

    cves = sorted(fixes)
    expected = {
        "workload": "xml", "seed": seed, "kb": "kb.txt", "manifest": "manifest.txt",
        "jars": ["xml-pre.jar", "xml-post.jar", "xml-shaded.jar"],
        "expected": {
            "xml-pre.jar": {c: VULNERABLE for c in cves},
            "xml-post.jar": {c: NOT_FLAGGED for c in cves},
            "xml-shaded.jar": {c: VULNERABLE for c in cves},
        },
        "exit_code": 3,
        "fixes": fixes,
        "shape_mix": dict(sorted(Counter(f["shape"] for f in fixes.values()).items())),
        "yield": {"xml_classes": qualify["xml_classes"],
                  "qualified": len(qualify["qualified"]),
                  "rejected": qualify["rejected"]},
    }
    (tmp / "expected.json").write_text(json.dumps(expected, indent=1), encoding="utf-8")
    _publish(tmp, final)

"""jarscan benchmark: three workloads through the real CLI, with ground truth.

Usage (from the repository root):

    python3 bench/run.py --workload scan-sparse --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

    scan-sparse  jarscan scan of java.base + java.sql + the 20 synthetic
                 corpus JARs against the 10-CVE synthetic KB
    scan-dense   jarscan scan of xml-pre/xml-post/xml-shaded against the
                 KB of N seeded synthetic fixes on real java.xml classes
    kb-build     jarscan kb-build of those N fixes

Each measured operation is one closed-loop, single-process CLI child
with CLI defaults (--mode default,repack, one job), spawned through the
lean launcher so peak RSS is the child's own. The launcher pins each
child to one CPU and measures that CPU's speed while the child runs;
times are reported at a reference CPU speed (wall x speed, see
launch.py), because on a shared host the raw wall swings up to 1.8x.
Invocations repeat while one more, as long as the last, still ends
within --seconds (at least one runs); times are medians. Set-up time is
the median of eleven set-up-only invocations.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced invocations (bench/tracer.py) and prints the per-layer
metrics, the tracing overhead and the ten slowest methods. Every run
checks each verdict against the generator's expected.json and checks
that kb_sha256, report_sha256 and (traced) triplets_sha256 repeat across
invocations and across runs of the same sources and seed.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. ``correct`` is false when an invocation produced no readable
output, a digest did not repeat, or a run could not complete; wrong
verdicts, JAR errors, unbuilt KB entries and wrong exit codes are
counted in ``failed``. ``attempted`` and ``failed`` are those of one
invocation, so they depend on the seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
from inputs import BenchError, NOT_FLAGGED, ROOT  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
MB = 1024 * 1024
END_TO_END = ("ref_wall_s", "ref_classes_per_s", "peak_rss_mb", "setup_s", "kb_mb")


# ----------------------------------------------------------------- launching

def launch(cmd, out: Path, err: Path) -> dict:
    """Run cmd through the lean launcher; returns wall_s, cpu_s, maxrss_kb,
    status and speed (CPU speed relative to the reference, see launch.py). The launcher and its child share a new process group, which
    is killed if the child outlives its timeout or this process is stopped."""
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", str(BENCH / "launch.py"), str(out), str(err), "--", *cmd],
        env=inputs.child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(map(str, cmd[:4]))} ... ran over {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"launcher failed: {stderr[-2000:]}")
    return json.loads(stdout)


def normalized_sha(path: Path, base: Path) -> str:
    """sha256 of a text output with the input directory made relative."""
    text = path.read_bytes().replace(str(base).encode() + b"/", b"")
    return hashlib.sha256(text).hexdigest()


# ----------------------------------------------------------------- workloads

class Workload:
    """Inputs, the measured command, the set-up command and the checker."""

    def __init__(self, name: str, base: Path, expected: dict):
        self.name = name
        self.base = base
        self.expected = expected

    def argv(self, out_dir: Path) -> list:
        raise NotImplementedError

    def setup_cmd(self, out_dir: Path) -> list:
        raise NotImplementedError

    def check(self, out_dir: Path, status: int) -> dict:
        raise NotImplementedError


class ScanWorkload(Workload):
    @property
    def kb(self) -> Path:
        return self.base / self.expected["kb"]

    def argv(self, out_dir):
        return ["scan", "--kb", self.kb,
                *[self.base / j for j in self.expected["jars"]],
                "--format", "json", "--out", out_dir / "report.json"]

    def setup_cmd(self, out_dir):
        return inputs.jarscan_cmd("scan", "--kb", self.kb,
                                  "--format", "json", "--out", out_dir / "setup.json")

    def check(self, out_dir, status):
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        by_name = {Path(j["path"]).name: j for j in report["jars"]}
        failures, attempted, classes = [], 1, 0
        if status != self.expected["exit_code"]:
            failures.append(f"exit code {status}, expected {self.expected['exit_code']}")
        for jar, truth in self.expected["expected"].items():
            got = by_name.get(jar)
            attempted += len(truth)
            if got is None or got["error"]:
                why = got["error"] if got else "missing from report"
                failures.extend(f"{jar} {cve}: {why}" for cve in truth)
                continue
            classes += got["classes"] + got["parse_failures"]
            findings = {f["cve"]: f for f in got["findings"]}
            for cve, want in truth.items():
                have = findings.get(cve, {}).get("verdict", NOT_FLAGGED)
                if have != want:
                    failures.append(f"{jar} {cve}: {have}, expected {want}; "
                                    + _cause(findings.get(cve)))
        return {"attempted": attempted, "failures": failures, "classes": classes,
                "kb_bytes": self.kb.stat().st_size,
                "digests": {"kb_sha256": inputs.sha256_file(self.kb),
                            "report_sha256": normalized_sha(out_dir / "report.json",
                                                            self.base)}}


def _cause(finding) -> str:
    """The report's own evidence for a wrong verdict, for the failure list."""
    if finding is None:
        return "no KB candidate class in the JAR"
    notes = []
    for c in finding["constructs"]:
        counts = c["counts"]
        if c["verdict"] == "vulnerable" and finding["verdict"] == "vulnerable":
            notes.append(f"{c['mode']} vulnerable via {c['scanned_fqn'] or c['fqn']}")
        elif c["reason"]:
            notes.append(f"{c['mode']} {c['verdict']}: {c['reason']}")
        elif counts:
            notes.append(f"{c['mode']} {c['verdict']}: " + ", ".join(
                f"{k.upper()} {counts[k + '_hit']}/{counts[k + '_size']}"
                for k in ("ct", "nt", "pt")))
    return "; ".join(sorted(set(notes)))


class KbBuildWorkload(Workload):
    def argv(self, out_dir):
        return ["kb-build", self.base / self.expected["manifest"],
                "-o", out_dir / "kb.txt"]

    def setup_cmd(self, _out_dir):
        return [sys.executable, "-c", "import jarscan.cli"]

    def check(self, out_dir, status):
        kb_file = out_dir / "kb.txt"
        failures = []
        if status != 0:
            failures.append(f"exit code {status}, expected 0")
        built = {}
        if kb_file.is_file():
            built = json.loads(kb_file.read_text(encoding="utf-8").splitlines()[1])
        for cve, fix in self.expected["fixes"].items():
            records = {(r["fqn"], r["change"]) for r in built.get(cve, ())}
            if cve not in built:
                failures.append(f"{cve}: not built ({fix['shape']})")
            elif tuple(fix["record"]) not in records:
                failures.append(f"{cve}: no {fix['record'][1]} record for {fix['record'][0]}")
        return {"attempted": 1 + len(self.expected["fixes"]), "failures": failures,
                "classes": 2 * len(self.expected["fixes"]),
                "kb_bytes": kb_file.stat().st_size if kb_file.is_file() else 0,
                "digests": {"kb_sha256": inputs.sha256_file(kb_file) if kb_file.is_file()
                            else "missing",
                            "report_sha256": normalized_sha(out_dir / "stderr.txt",
                                                            self.base)}}


def make_workload(name: str, base: Path, jdk: Path, seed: int) -> Workload:
    if name == "scan-sparse":
        expected = inputs.sparse_inputs(base, jdk, seed)
        return ScanWorkload(name, base / f"sparse-{seed}", expected)
    expected = inputs.xml_inputs(base, jdk, seed, with_kb=(name == "scan-dense"))
    cls = ScanWorkload if name == "scan-dense" else KbBuildWorkload
    return cls(name, base / f"xml-{seed}", expected)


# --------------------------------------------------------------- measuring

class Run:
    """One benchmark run: invocations, their checks and the digest gate."""

    def __init__(self, workload: Workload, seed: int):
        self.wl = workload
        self.out = WORK / f"run-{workload.name}-{seed}"
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        self.attempted = 0            # operations of one invocation
        self.failures = None          # failures of the first invocation
        self.problems = []            # anything that makes the run incorrect
        self.digests = {}

    def invoke(self, traced: bool) -> tuple[dict, dict]:
        """One measured CLI child; returns (launch result, check result)."""
        for stale in ("report.json", "kb.txt", "trace.json"):
            (self.out / stale).unlink(missing_ok=True)
        argv = [str(a) for a in self.wl.argv(self.out)]
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(self.out / "trace.json"),
                   "--", *argv]
        else:
            cmd = inputs.jarscan_cmd(*argv)
        res = launch(cmd, self.out / "stdout.txt", self.out / "stderr.txt")
        try:
            chk = self.wl.check(self.out, res["status"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"unreadable output ({exc!r}); stderr: "
                                 + (self.out / "stderr.txt").read_text()[-500:])
            return res, None
        self.note_failures(chk["attempted"], sorted(chk["failures"]))
        self.note_digests(chk["digests"])
        return res, chk

    def note_failures(self, attempted: int, failures: list):
        """Every invocation of a run does the same operations on the same
        inputs, so attempted and failed are those of one invocation: they
        depend on the seed alone, not on how many invocations fit in the
        run. An invocation that fails differently is a problem."""
        if self.failures is None:
            self.attempted, self.failures = attempted, failures
        elif (attempted, failures) != (self.attempted, self.failures):
            self.problems.append(
                f"verdicts differ between invocations: {len(self.failures)} of "
                f"{self.attempted} failed, then {len(failures)} of {attempted}")

    def note_digests(self, digests: dict):
        for key, value in digests.items():
            seen = self.digests.setdefault(key, value)
            if seen != value:
                self.problems.append(f"{key} differs between invocations: {seen} vs {value}")

    def gate_across_runs(self, base: Path, seed: int):
        """Compare digests with earlier runs on the same inputs directory,
        which is keyed by the sources, the benchmark code and the JDK."""
        record = base / "digests" / f"{self.wl.name}-{seed}.json"
        earlier = {}
        if record.is_file():
            earlier = json.loads(record.read_text(encoding="utf-8"))
        for key, value in self.digests.items():
            if key in earlier and earlier[key] != value:
                self.problems.append(f"{key} differs from an earlier run of the same "
                                     f"sources: {earlier[key]} vs {value}")
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({**earlier, **self.digests}, indent=1), encoding="utf-8")

    def measure_setup(self) -> float:
        walls = []
        for _ in range(SETUP_REPEATS):
            res = launch(self.wl.setup_cmd(self.out), self.out / "setup-stdout.txt",
                         self.out / "setup-stderr.txt")
            if res["status"] != 0:
                self.problems.append(f"set-up command exited {res['status']}: "
                                     + (self.out / "setup-stderr.txt").read_text()[-500:])
            walls.append(res["wall_s"] * res["speed"])
        return statistics.median(walls)


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more child, as long as the last, ends within the run."""
    return time.perf_counter() - start + last <= seconds


def end_to_end(run: Run, seconds: float) -> dict:
    setup = run.measure_setup()
    walls, speeds, rss, chk = [], [], [], None
    start = time.perf_counter()
    while not walls or fits(start, walls[-1], seconds):
        res, chk = run.invoke(traced=False)
        if chk is None:
            break
        walls.append(res["wall_s"])
        speeds.append(res["speed"])
        rss.append(res["maxrss_kb"] / 1024)
    if not walls or chk is None:
        return {}
    wall = statistics.median(walls)
    ref_wall = statistics.median(w * s for w, s in zip(walls, speeds))
    print(f"  invocations: {len(walls)}; wall_s/speed each: "
          + ", ".join(f"{w:.3f}/{s:.3f}" for w, s in zip(walls, speeds)))
    print(f"  wall_s {wall:.4f} s, classes_per_s {chk['classes'] / wall:.1f} 1/s "
          "(at the measured CPU speed)")
    metrics = {
        "ref_wall_s": (ref_wall, "s"),
        "ref_classes_per_s": (chk["classes"] / ref_wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (setup, "s"),
        "kb_mb": (chk["kb_bytes"] / MB, "MB"),
    }
    assert tuple(metrics) == END_TO_END
    return metrics


LIFT_ERRORS = ("StackUnderflow", "InconsistentStackDepthAtJoin",
               "UnsupportedInstruction", "LiftError")


def layer_metrics(trace: dict, traced_res: dict, untraced_res: dict) -> dict:
    """Per-layer metrics of one traced child. traced_res and untraced_res
    are the launcher results of the traced child and the untraced one
    before it; their walls are compared at the reference CPU speed."""
    spans, counts = trace["spans"], trace["counts"]
    traced_wall = traced_res["wall_s"] * traced_res["speed"]
    untraced_wall = untraced_res["wall_s"] * untraced_res["speed"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    classes, decoded, lifts = calls("classfile.parse"), calls("classfile.decode"), calls("ir.lift")
    classfile_s = self_s("classfile.inflate", "classfile.parse", "classfile.decode")
    # Every method_triplets call during a scan is a triplet-cache miss.
    lookups, misses = calls("scanner.triplet_lookup"), calls("cpg.method_triplets")
    failed = {e: counts.get(f"ir.lift.failed.{e}", 0) for e in LIFT_ERRORS}
    covered = sum(s["self_s"] for s in spans.values())
    return {
        "classfile.inflate_s": (self_s("classfile.inflate"), "s"),
        "classfile.parse_s": (self_s("classfile.parse"), "s"),
        "classfile.decode_s": (self_s("classfile.decode"), "s"),
        "classfile.classes": (classes, "count"),
        "classfile.methods_decoded": (decoded, "count"),
        "classfile.us_per_class": (per(classfile_s, classes, 1e6), "us"),
        "classfile.useful_class_ratio": (
            per(counts.get("classfile.useful_classes", 0), classes), "ratio"),
        "classfile.useful_code_ratio": (per(lifts, decoded), "ratio"),
        "ir.lift.s": (self_s("ir.lift"), "s"),
        "ir.lift.calls": (lifts, "count"),
        "ir.lift.failed": (sum(failed.values()), "count"),
        **{f"ir.lift.failed.{e}": (n, "count") for e, n in failed.items()},
        "ir.lift.ms_per_method": (per(self_s("ir.lift"), lifts, 1e3), "ms"),
        "normalize.s": (self_s("normalize"), "s"),
        "normalize.ms_per_method": (per(self_s("normalize"), calls("normalize"), 1e3), "ms"),
        "normalize.stmts_in": (counts.get("normalize.stmts_in", 0), "count"),
        "normalize.stmts_out": (counts.get("normalize.stmts_out", 0), "count"),
        "ir.cfg.s": (self_s("ir.cfg"), "s"),
        "ir.dataflow.s": (self_s("ir.dataflow"), "s"),
        "ir.dataflow.ms_per_method": (
            per(self_s("ir.dataflow"), calls("ir.dataflow"), 1e3), "ms"),
        "cpg.build_s": (self_s("cpg.build"), "s"),
        "cpg.triplets_s": (self_s("cpg.triplets"), "s"),
        "cpg.triplets": (counts.get("cpg.triplets", 0), "count"),
        "cpg.pipeline_s": (self_s("cpg.method_triplets", "cpg.diff"), "s"),
        "cpg.unqualify_s": (self_s("cpg.unqualify"), "s"),
        "cpg.unqualify_calls": (calls("cpg.unqualify"), "count"),
        "scanner.scan_s": (self_s("scanner.scan_jar", "scanner.candidates",
                                  "scanner.classify", "scanner.triplet_lookup"), "s"),
        "scanner.jarview_s": (self_s("scanner.jarview"), "s"),
        "scanner.context_s": (self_s("scanner.context"), "s"),
        "scanner.context_calls": (calls("scanner.context"), "count"),
        "scanner.match_s": (self_s("scanner.match"), "s"),
        "scanner.match_calls": (calls("scanner.match"), "count"),
        "scanner.records_evaluated": (calls("scanner.classify"), "count"),
        "scanner.triplet_cache_hit_ratio": (per(lookups - misses, lookups), "ratio"),
        "kb.load_s": (self_s("kb.load"), "s"),
        "kb.manifest_s": (self_s("kb.manifest"), "s"),
        "kb.build_entry_s": (self_s("kb.build_entry"), "s"),
        "kb.save_s": (self_s("kb.save"), "s"),
        "cli.report_s": (self_s("cli.report"), "s"),
        "cli.main_s": (self_s("cli.main"), "s"),
        "cli.import_s": (self_s("cli.import"), "s"),
        "trace.ref_wall_s": (traced_wall, "s"),
        "trace.untraced_ref_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.hook_s": (trace["hook_s"], "s"),
        "trace.coverage": (per(covered, traced_res["wall_s"]), "ratio"),
    }


def traced(run: Run, seconds: float) -> dict:
    """Alternate untraced and traced invocations; per-layer medians."""
    rows, last_trace, last_walls = [], None, 0.0
    start = time.perf_counter()
    while not rows or fits(start, last_walls, seconds):
        res, chk = run.invoke(traced=False)
        if chk is None:
            return {}
        res_t, chk_t = run.invoke(traced=True)
        if chk_t is None:
            return {}
        trace = json.loads((run.out / "trace.json").read_text(encoding="utf-8"))
        run.note_digests({"triplets_sha256": trace["triplets_sha256"]})
        rows.append(layer_metrics(trace, res_t, res))
        last_walls = res["wall_s"] + res_t["wall_s"]
        last_trace = trace
    metrics = {k: (statistics.median(r[k][0] for r in rows), unit)
               for k, (_v, unit) in rows[0].items()}
    traced_wall = metrics["trace.ref_wall_s"][0]
    untraced = metrics["trace.untraced_ref_wall_s"][0]
    print(f"  traced invocations: {len(rows)}; at the reference CPU speed, traced wall "
          f"{traced_wall:.3f} s beside untraced wall {untraced:.3f} s "
          f"(overhead {traced_wall - untraced:+.3f} s)")
    print("  ten slowest methods (lift + normalize + cfg + dataflow + cpg):")
    for row in last_trace["slowest"]:
        print(f"    {row['seconds'] * 1e3:9.1f} ms  {row['method']}")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan-sparse", "scan-dense", "kb-build"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so launch() can reap its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        inputs.require_source()
        jmods = inputs.find_jmods()
        base = inputs.inputs_dir(WORK, jmods)
        jdk = inputs.jdk_jars(base, jmods)
        workload = make_workload(args.workload, base, jdk, args.seed)
        run = Run(workload, args.seed)
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        if args.trace:
            metrics = traced(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
        run.gate_across_runs(base, args.seed)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not metrics:
        for problem in run.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:14.6g} {unit}")
    share = len(run.failures) / run.attempted
    print(f"  {'failed_share':36} {share:14.6g} ratio ({len(run.failures)} of "
          f"{run.attempted} operations)")
    for failure in run.failures:
        print(f"    failed: {failure}")
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")
    print("  digests: " + " ".join(f"{k}={v}" for k, v in sorted(run.digests.items())))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

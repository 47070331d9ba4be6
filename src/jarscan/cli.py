"""Command-line front end.

Subcommands: kb-build (stage 1), scan (stage 2), modify (fixture
modification harness). Exit codes are a stable contract:

  kb-build: 0 at least one entry built, 1 none buildable, 2 unreadable input
            or unwritable output (the file already there is kept)
  scan:     0 completed with zero findings, 3 completed with findings,
            1 operational failure (including every given JAR erroring),
            2 usage/unreadable input or unwritable --out (including a
            threshold outside [0, 1], a --dir that is not a directory, a
            --list file that cannot be read or is not UTF-8 and a --command
            that does not split into words)
  modify:   0 written, 1 relocation collision or bad input (including an
            input that is not a ZIP archive or holds an unreadable entry),
            2 usage (including a type 4 --prefix that is not dot-separated
            identifiers, or type 1 given other than one input), unreadable
            input or unwritable output

Threshold flags override the shipped defaults. Four scan flags have an
environment variable that sets their default: --mode (JARSCAN_MODE) and
--theta-pt, --theta-cc, --theta-ct (JARSCAN_THETA_PT, _CC, _CT). --mode
names a set: each mode runs once, default mode first.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import logging
import os
import re
import sys
from pathlib import Path

from . import __version__
from .classfile.constructs import SEGMENT
from .errors import JarscanError, KbFormatError, MalformedArchive, RelocationCollision
from .kb import build_from_manifest, load as load_kb, save as save_kb
from .scanner import (
    DEFAULT_THETA_CC,
    DEFAULT_THETA_CT,
    DEFAULT_THETA_PT,
    MODES,
    ScanConfig,
    VULNERABLE,
    render_table,
    report_to_json,
    retrieve_dependencies,
    scan,
)

# A type 4 --prefix: dot-separated segments, each one that strip_packages
# strips, so relocated classes stay matchable; the final dot is optional.
_PREFIX = re.compile(rf"{SEGMENT}(?:\.{SEGMENT})*\.?")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jarscan",
        description="Bytecode-centric scanner for known-vulnerable JVM dependencies.")
    parser.add_argument("--version", action="version", version=f"jarscan {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress and skip reasons to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    kb = sub.add_parser("kb-build", help="build a knowledge base from a manifest")
    kb.add_argument("manifest", help="lines: cve_id pre_dir post_dir [provenance]")
    kb.add_argument("-o", "--out", required=True, help="knowledge-base output path")

    sc = sub.add_parser("scan", help="scan JARs against a knowledge base")
    sc.add_argument("--kb", required=True, help="knowledge-base file")
    sc.add_argument("jars", nargs="*", help="explicit JAR paths")
    sc.add_argument("--dir", help="directory searched recursively for *.jar")
    sc.add_argument("--list", dest="list_file", help="text file of JAR paths")
    sc.add_argument("--command", help="external command whose stdout lists JAR paths")
    sc.add_argument("--mode", default=os.environ.get("JARSCAN_MODE", "default,repack"),
                    help="comma-separated subset of: default,repack")
    # Thresholds stay text here; cmd_scan reads and checks them.
    for name, default in (("PT", DEFAULT_THETA_PT), ("CC", DEFAULT_THETA_CC),
                          ("CT", DEFAULT_THETA_CT)):
        sc.add_argument(f"--theta-{name.lower()}",
                        default=os.environ.get(f"JARSCAN_THETA_{name}", default))
    sc.add_argument("--format", choices=("json", "table"), default="table")
    sc.add_argument("--out", help="write the report here instead of stdout")

    mo = sub.add_parser("modify", help="produce type 1-4 modified JAR variants")
    mo.add_argument("--kind", type=int, required=True, choices=(1, 2, 3, 4))
    mo.add_argument("inputs", nargs="+", help="input JAR paths")
    mo.add_argument("-o", "--out", required=True, help="output JAR path")
    mo.add_argument("--prefix", default="r.", help="relocation prefix for type 4")
    mo.add_argument("--seed", type=int, default=0, help="type-1 transform seed")
    return parser


def cmd_kb_build(args) -> int:
    try:
        kb, stats = build_from_manifest(args.manifest)
    except (OSError, KbFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for cve, msg in stats.errors:
        print(f"{cve}: {msg}", file=sys.stderr)
    for cve in stats.empty_diff:
        print(f"{cve}: rejected, empty diff after normalization", file=sys.stderr)
    print(f"built {len(stats.built)} entries "
          f"({len(stats.empty_diff)} empty-diff rejects, "
          f"{len(stats.errors)} errors)", file=sys.stderr)
    if not stats.built:
        return 1
    try:
        save_kb(kb, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def _write_json(out, obj) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)``
    would, as it is encoded: the text is never held whole. The encoder's
    chunks are joined 4,096 at a time, since one write per chunk costs
    about a sixth more than the encoding itself."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    for batch in iter(lambda: "".join(itertools.islice(chunks, 4096)), ""):
        out.write(batch)


def _write_report(out, report, fmt: str) -> None:
    if fmt == "json":
        _write_json(out, report_to_json(report))
    else:
        out.write(render_table(report))
    out.write("\n")


def cmd_scan(args) -> int:
    named = [m.strip() for m in args.mode.split(",") if m.strip()]
    if not named or not set(named) <= set(MODES):
        print(f"error: --mode (JARSCAN_MODE) must name one or more of "
              f"{', '.join(MODES)}, comma-separated, not {args.mode!r}", file=sys.stderr)
        return 2
    modes = tuple(m for m in MODES if m in named)
    thresholds = {}
    for name in ("theta_pt", "theta_cc", "theta_ct"):
        raw = getattr(args, name)
        try:
            value = float(raw)
        except ValueError:
            value = float("nan")
        if not 0 <= value <= 1:             # false for NaN too
            print(f"error: --{name.replace('_', '-')} (JARSCAN_{name.upper()}) "
                  f"must be a number in [0, 1], not {raw}", file=sys.stderr)
            return 2
        thresholds[name] = value
    try:
        kb = load_kb(args.kb)
    except (OSError, KbFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failures = (OSError,)
    if args.command is not None:
        import subprocess
        failures += (subprocess.CalledProcessError,)
    try:
        jars = retrieve_dependencies(directory=args.dir, list_file=args.list_file,
                                     command=args.command, paths=args.jars)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except failures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    config = ScanConfig(**thresholds, modes=modes)
    report = scan(jars, kb, config)

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                _write_report(out, report, args.format)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        _write_report(sys.stdout, report, args.format)
    findings = sum(1 for j in report.jars for f in j.findings
                   if f.verdict == VULNERABLE)
    # A scan of zero JARs completed; one where every JAR errored did not.
    if report.jars and all(j.error for j in report.jars):
        return 1
    return 3 if findings else 0


def cmd_modify(args) -> int:
    if args.kind == 4 and not _PREFIX.fullmatch(args.prefix):
        print(f"error: --prefix {args.prefix!r} is not dot-separated identifiers "
              "that each start with an ASCII letter, _ or $", file=sys.stderr)
        return 2
    if args.kind == 1 and len(args.inputs) != 1:
        print("error: type 1 operates on exactly one JAR", file=sys.stderr)
        return 2
    try:
        inputs = [Path(p).read_bytes() for p in args.inputs]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .modharness import modify, read_entries
    try:
        out = modify(inputs, args.kind, prefix=args.prefix, seed=args.seed)
    except MalformedArchive:
        # modify stops at the first input it cannot read; name that one.
        for path, data in zip(args.inputs, inputs):
            try:
                read_entries(data)
            except MalformedArchive as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 1
        raise
    except (RelocationCollision, JarscanError, ValueError) as exc:
        # A merged JAR's entries come from several inputs; type 1's from one.
        where = f"{args.inputs[0]}: " if args.kind == 1 else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1
    try:
        Path(args.out).write_bytes(out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    # jarscan's data holds no reference cycles: each command leaves the
    # same few cyclic objects (argparse's, the JSON encoder's) whatever its
    # input, so the cyclic collector would only re-walk the KB and the
    # parsed classes. It is off for the command and restored after.
    # tests/test_cli.py's cycle census guards both.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
        if args.subcommand == "kb-build":
            return cmd_kb_build(args)
        if args.subcommand == "scan":
            return cmd_scan(args)
        return cmd_modify(args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

"""Traced jarscan CLI run: per-layer self time and counts, from outside src/.

Usage: python3 tracer.py TRACE_JSON -- <jarscan CLI arguments>

Wraps the public functions of each jarscan module in spans, runs
``jarscan.cli.main`` with the given arguments, and writes the aggregated
spans, counters, the ten slowest methods and ``triplets_sha256`` to
TRACE_JSON. The exit code is the CLI's.

A span's self time is its duration minus the time of the spans it
caused. Spans are aggregated by name as they close, so memory does not
grow with the number of classes. Wrapping follows how each caller binds
the callee:

* names a module imported by value (``from .x import f``) are wrapped in
  the importing module: scanner.parse_jar, scanner.unqualify,
  scanner.method_triplets, scanner.class_member_context, kb.parse_class,
  cli.load_kb, cli.save_kb, cli.build_from_manifest, cli.report_to_json;
* names looked up at call time are wrapped on their defining module,
  reached through sys.modules because ``jarscan/__init__`` re-exports
  functions that shadow submodules (``jarscan.normalize`` is a function).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import sys
import time
import types
import weakref
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    """Span stack plus per-name aggregates (calls, total, self time)."""

    def __init__(self):
        self.stack = []                        # child time of each open span
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.slowest = []                      # min-heap of (seconds, method)
        self.method_digests = []
        self.hook_s = 0.0

    def wrap(self, name, fn, before=None, after=None):
        """Span around fn. Hooks: before(args) -> state and
        after(state, args, result, seconds), for counters."""
        stack = self.stack

        def traced(*args, **kwargs):
            state = self._hook(before, args) if before else None
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after:
                self._hook(after, state, args, result, elapsed)
            return result

        return traced

    def _hook(self, fn, *args):
        """Run a counting hook; its time is charged to no layer."""
        start = perf()
        result = fn(*args)
        elapsed = perf() - start
        self.hook_s += elapsed
        if self.stack:
            self.stack[-1] += elapsed
        return result

    def record_method(self, cf, method, triplets, elapsed):
        key = f"{cf.this_class}.{method.name}{method.descriptor}"
        item = (elapsed, key)
        if len(self.slowest) < 10:
            heapq.heappush(self.slowest, item)
        else:
            heapq.heappushpop(self.slowest, item)
        body = "\n".join("\x1f".join(t) for t in sorted(triplets))
        self.method_digests.append(
            hashlib.sha256(f"{key}\n{body}".encode("utf-8")).hexdigest())

    def dump(self):
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total[n],
                          "self_s": self.self_time[n]} for n in sorted(self.calls)},
            "counts": dict(sorted(self.counts.items())),
            "slowest": [{"seconds": s, "method": m}
                        for s, m in sorted(self.slowest, reverse=True)],
            "triplets_sha256": hashlib.sha256(
                "\n".join(sorted(self.method_digests)).encode()).hexdigest(),
            "methods_lifted": len(self.method_digests),
            "hook_s": self.hook_s,
        }


def install(tracer: Tracer):
    """Wrap jarscan's layers in place; returns the wrapped cli.main."""
    start = perf()
    import jarscan.cli  # noqa: F401  (loads every module wrapped below)
    tracer.calls["cli.import"] += 1
    tracer.total["cli.import"] = tracer.self_time["cli.import"] = perf() - start
    from jarscan.errors import LiftError

    mods = sys.modules
    parser = mods["jarscan.classfile.parser"]
    lift_mod = mods["jarscan.ir.lift"]
    norm_mod = mods["jarscan.normalize"]
    cfg_mod = mods["jarscan.ir.cfg"]
    flow_mod = mods["jarscan.ir.dataflow"]
    cpg = mods["jarscan.cpg"]
    kb = mods["jarscan.kb"]
    scanner = mods["jarscan.scanner"]
    cli = mods["jarscan.cli"]
    counts = tracer.counts

    # classfile: parse_jar's self time is inflate + zip bookkeeping.
    scanner.parse_jar = tracer.wrap("classfile.inflate", scanner.parse_jar)
    raw_parse = parser.parse_class
    parser.parse_class = tracer.wrap("classfile.parse", raw_parse)

    def kb_parsed(_s, _a, _r, _e):
        counts["classfile.useful_classes"] += 1    # every kb-build class is a fix's
    kb.parse_class = tracer.wrap("classfile.parse", raw_parse, after=kb_parsed)
    parser.decode_instructions = tracer.wrap(
        "classfile.decode", parser.decode_instructions)

    # ir.lift, counting failures by LiftError subclass.
    raw_lift = lift_mod.lift

    def lift_guarded(*args, **kwargs):
        try:
            return raw_lift(*args, **kwargs)
        except LiftError as exc:
            counts[f"ir.lift.failed.{type(exc).__name__}"] += 1
            raise
    lift_mod.lift = tracer.wrap("ir.lift", lift_guarded)

    def norm_after(_s, args, result, _e):
        counts["normalize.stmts_in"] += len(args[0].statements)
        counts["normalize.stmts_out"] += len(result.statements)
    norm_mod.normalize = tracer.wrap("normalize", norm_mod.normalize, after=norm_after)
    cfg_mod.build_cfg = tracer.wrap("ir.cfg", cfg_mod.build_cfg)
    flow_mod.dependencies = tracer.wrap("ir.dataflow", flow_mod.dependencies)

    # cpg: method_triplets is the per-method pipeline; its own self time is
    # small, its inclusive time ranks the slowest methods.
    cpg.build_cpg = tracer.wrap("cpg.build", cpg.build_cpg)
    cpg.extract_triplets = tracer.wrap("cpg.triplets", cpg.extract_triplets)
    cpg.diff = tracer.wrap("cpg.diff", cpg.diff)

    def triplets_after(_s, args, result, elapsed):
        counts["cpg.triplets"] += len(result)
        tracer.record_method(args[0], args[1], result, elapsed)
    method_triplets = tracer.wrap("cpg.method_triplets", cpg.method_triplets,
                                  after=triplets_after)
    cpg.method_triplets = method_triplets
    scanner.method_triplets = method_triplets
    scanner.unqualify = tracer.wrap("cpg.unqualify", scanner.unqualify)

    # kb
    cli.load_kb = tracer.wrap("kb.load", cli.load_kb)
    cli.save_kb = tracer.wrap("kb.save", cli.save_kb)
    cli.build_from_manifest = tracer.wrap("kb.manifest", cli.build_from_manifest)
    kb.build_entry = tracer.wrap("kb.build_entry", kb.build_entry)

    # scanner. classfile.useful_classes counts the distinct classes of each
    # JAR for which the scanner's own candidate lookups return a CVE.
    # A weak reference, so the JarView is freed where the scanner drops it.
    view, useful = [0, None], set()            # [JAR number, its JarView]

    def view_after(_s, args, _r, _e):
        view[:] = [view[0] + 1, weakref.ref(args[0])]
    scanner.scan_jar = tracer.wrap("scanner.scan_jar", scanner.scan_jar)
    scanner.JarView.__init__ = tracer.wrap("scanner.jarview", scanner.JarView.__init__,
                                           after=view_after)

    def by_fqn_after(_s, args, result, _e):
        if result:
            useful.add((view[0], args[1]))

    def by_unq_after(_s, args, result, _e):
        if result:
            useful.update((view[0], cf.this_class)
                          for cf in view[1]().by_unq_class[args[1]])
    kb.KnowledgeBase.candidate_cves_for_class = tracer.wrap(
        "scanner.candidates", kb.KnowledgeBase.candidate_cves_for_class,
        after=by_fqn_after)
    kb.KnowledgeBase.candidate_cves_for_unqualified_class = tracer.wrap(
        "scanner.candidates", kb.KnowledgeBase.candidate_cves_for_unqualified_class,
        after=by_unq_after)
    scanner.JarView.method_triplet_set = tracer.wrap(
        "scanner.triplet_lookup", scanner.JarView.method_triplet_set)
    scanner.classify_construct = tracer.wrap(
        "scanner.classify", scanner.classify_construct)
    scanner.classify_construct_repack = tracer.wrap(
        "scanner.classify", scanner.classify_construct_repack)
    scanner.match_triplets = tracer.wrap("scanner.match", scanner.match_triplets)
    scanner.class_member_context = tracer.wrap(
        "scanner.context", scanner.class_member_context)

    # cli: report building plus its serialization. cli gets its own copy
    # of the json namespace, so only its dumps is timed.
    cli.report_to_json = tracer.wrap("cli.report", cli.report_to_json)
    cli.json = types.SimpleNamespace(**vars(json))
    cli.json.dumps = tracer.wrap("cli.report", json.dumps)

    def main_after(_s, _a, _r, _e):
        counts["classfile.useful_classes"] += len(useful)
    return tracer.wrap("cli.main", cli.main, after=main_after)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <jarscan arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    rc = cli_main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""jarscan: bytecode-centric detection of known-vulnerable JVM dependencies.

The package lifts JVM bytecode to a register IR, normalizes away
compiler-induced differences, builds per-method code property graphs, and
matches their edge triplets against a knowledge base of vulnerability-fix
signatures. Works on re-compiled, re-bundled, metadata-stripped and
package-relocated JARs alike.

High-level entry points:

    parse_jar / parse_class      decode archives and class files
    lift / normalize             bytecode -> canonical register IR
    method_triplets / diff       fix signatures from pre/post methods
    build_entry / save / load    knowledge-base lifecycle
    scan / ScanConfig            stage-2 scanning
    modify                       type 1-4 modification harness
"""

from ._lazy import defer_submodule, lazy_exports

__version__ = "0.1.0"

# Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    **dict.fromkeys(("list_constructs", "parse_class", "parse_jar", "strip_packages"),
                    "classfile"),
    **dict.fromkeys(("FixSignature", "Triplet", "diff", "unqualify"), "triplets"),
    **dict.fromkeys(("extract_triplets", "method_triplets"), "cpg"),
    **dict.fromkeys(("build_cfg", "dependencies", "lift"), "ir"),
    **dict.fromkeys(("KnowledgeBase", "build_entry", "build_from_manifest", "load",
                     "query_fqn", "query_unqualified", "save"), "kb"),
    "modify": "modharness",
    "normalize": "normalize",
    **dict.fromkeys(("ScanConfig", "ScanReport", "match_triplets", "report_to_json",
                     "retrieve_dependencies", "scan"), "scanner"),
}

__all__ = [*sorted(_EXPORTS), "__version__"]

__getattr__ = lazy_exports(__name__, _EXPORTS)

# The IR pipeline runs only for method bodies the knowledge base holds no
# digest of, so a scan can finish without it. Its modules are in
# sys.modules from the start, for tools that wrap their functions right
# after ``import jarscan.cli`` (bench/tracer.py), but run on first use.
for _name in ("cpg", "normalize", "ir.cfg", "ir.dataflow", "ir.lift"):
    defer_submodule(f"{__name__}.{_name}")

"""JVM class-file and JAR parsing, plus a small emitter for synthetic classes.

A decoded body is plain tuples, read and written in this one form by the
parser, the emitter and the code keys: (offset, mnemonic, operands) per
instruction, (start, end, handler, catch type) per exception handler.
"""

from .._lazy import lazy_exports
from .constructs import ConstructId, class_construct, list_constructs, strip_packages
from .model import (
    ClassFile,
    CodeAttribute,
    FieldInfo,
    JarArchive,
    MethodInfo,
    ParseFailure,
)
from .parser import parse_class, parse_jar

# The emitter builds synthetic classes (tests, demos, ``jarscan modify``);
# a scan never needs it, so its names import it on first use.
_EXPORTS = dict.fromkeys(("ClassModel", "FieldModel", "MethodModel", "class_entry_path",
                          "default_constructor", "emit_class", "emit_class_resolved",
                          "write_jar"), "emitter")

__all__ = [
    "ClassFile", "ClassModel", "CodeAttribute", "ConstructId", "FieldInfo",
    "FieldModel", "JarArchive", "MethodInfo", "MethodModel", "ParseFailure",
    "class_construct", "class_entry_path", "default_constructor", "emit_class",
    "emit_class_resolved", "list_constructs", "parse_class", "parse_jar",
    "strip_packages", "write_jar",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)

"""JVM class-file and JAR parsing, plus a small emitter for synthetic classes."""

from .._lazy import lazy_exports
from .constructs import ConstructId, class_construct, list_constructs, method_construct, strip_packages
from .model import (
    ClassFile,
    CodeAttribute,
    ExceptionHandler,
    FieldInfo,
    Instruction,
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
    "ClassFile", "ClassModel", "CodeAttribute", "ConstructId", "ExceptionHandler",
    "FieldInfo", "FieldModel", "Instruction", "JarArchive", "MethodInfo",
    "MethodModel", "ParseFailure", "class_construct", "class_entry_path",
    "default_constructor", "emit_class", "emit_class_resolved",
    "list_constructs", "method_construct", "parse_class", "parse_jar",
    "strip_packages", "write_jar",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)

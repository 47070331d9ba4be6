"""Constructs (classes, interfaces, methods) and name unqualification.

A construct is identified by its fully qualified name; methods render as
"pkg.Cls: ret name(arg, arg)". The unqualified form strips every
dot-separated package prefix while keeping class names, so it is invariant
under package relocation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .descriptors import method_signature

if TYPE_CHECKING:    # model imports strip_packages from here
    from .model import ClassFile

# A package prefix: one or more dot-terminated identifier segments that are
# not preceded by another identifier char or a dot (i.e. token starts only).
_PACKAGE_PREFIX = re.compile(r"(?<![\w$.])(?:[A-Za-z_$][\w$]*\.)+(?=[A-Za-z_$])")


def strip_packages(text: str) -> str:
    """Remove dotted package prefixes from every qualified token in text."""
    return _PACKAGE_PREFIX.sub("", text)


@dataclass(frozen=True)
class ConstructId:
    kind: str        # "class" | "interface" | "method"
    fqn: str
    unqualified: str
    synthetic: bool = field(default=False, compare=False)


def class_construct(cf: ClassFile) -> ConstructId:
    kind = "interface" if cf.is_interface else "class"
    return ConstructId(kind, cf.this_class, strip_packages(cf.this_class))


def method_construct(class_dotted: str, name: str, descriptor: str,
                     synthetic: bool = False) -> ConstructId:
    fqn = method_signature(class_dotted, name, descriptor)
    return ConstructId("method", fqn, strip_packages(fqn), synthetic)


def list_constructs(cf: ClassFile) -> list[ConstructId]:
    """The class-or-interface construct plus one construct per method.

    Constructors and static initializers are included under their JVM
    names; synthetic and bridge methods are included but flagged.
    """
    out = [class_construct(cf)]
    for m in cf.methods:
        out.append(method_construct(cf.this_class, m.name, m.descriptor,
                                    synthetic=m.is_synthetic))
    return out

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

if TYPE_CHECKING:    # model imports strip_packages from here
    from .model import ClassFile

# One package or class name segment, as strip_packages reads names.
SEGMENT = r"[A-Za-z_$][\w$]*"

# A package prefix: one or more dot-terminated identifier segments that are
# not preceded by another identifier char or a dot (i.e. token starts only).
_PACKAGE_PREFIX = re.compile(rf"(?<![\w$.])(?:{SEGMENT}\.)+(?=[A-Za-z_$])")


def strip_packages(text: str) -> str:
    """Remove dotted package prefixes from every qualified token in text."""
    return _PACKAGE_PREFIX.sub("", text)


@dataclass(frozen=True)
class ConstructId:
    kind: str        # "class" | "interface" | "method"
    fqn: str
    unqualified: str = field(init=False)     # strip_packages(fqn)
    synthetic: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "unqualified", strip_packages(self.fqn))


def class_construct(cf: ClassFile) -> ConstructId:
    return ConstructId("interface" if cf.is_interface else "class", cf.this_class)


def list_constructs(cf: ClassFile) -> list[ConstructId]:
    """The class-or-interface construct plus one construct per method.

    Constructors and static initializers are included under their JVM
    names; synthetic and bridge methods are included but flagged.
    """
    return [class_construct(cf)] + [ConstructId("method", fqn, m.is_synthetic)
                                    for m, fqn in zip(cf.methods, cf.method_fqns)]

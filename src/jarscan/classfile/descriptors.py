"""Field/method descriptor grammar: parsing, rendering, method signatures,
slot arithmetic."""

from __future__ import annotations

import functools

from ..errors import ClassParseError
from .constructs import strip_packages

_BASE_TYPES = {
    "B": "byte", "C": "char", "D": "double", "F": "float",
    "I": "int", "J": "long", "S": "short", "Z": "boolean", "V": "void",
}

# Computation kind used by the lifter/interpreter; byte/char/short/boolean
# all compute as int on the operand stack.
_JTYPE = {
    "B": "int", "C": "int", "S": "int", "Z": "int", "I": "int",
    "J": "long", "F": "float", "D": "double",
}


def split_field_descriptor(desc: str, pos: int = 0) -> tuple[str, int]:
    """Consume one field descriptor starting at pos; return (token, next_pos)."""
    start = pos
    n = len(desc)
    while pos < n and desc[pos] == "[":
        pos += 1
    if pos >= n:
        raise ClassParseError(f"truncated descriptor {desc!r}")
    ch = desc[pos]
    if ch in _BASE_TYPES and ch != "V":
        return desc[start:pos + 1], pos + 1
    if ch == "L":
        end = desc.find(";", pos)
        if end < 0:
            raise ClassParseError(f"unterminated object type in {desc!r}")
        return desc[start:end + 1], end + 1
    raise ClassParseError(f"bad descriptor char {ch!r} in {desc!r}")


def parse_method_descriptor(desc: str) -> tuple[list[str], str]:
    """Split "(T1T2)R" into ([T1, T2], R); raises on malformed input."""
    if not desc.startswith("("):
        raise ClassParseError(f"method descriptor must start with '(': {desc!r}")
    params = []
    pos = 1
    while pos < len(desc) and desc[pos] != ")":
        token, pos = split_field_descriptor(desc, pos)
        params.append(token)
    if pos >= len(desc) or desc[pos] != ")":
        raise ClassParseError(f"unterminated parameter list in {desc!r}")
    ret = desc[pos + 1:]
    if ret == "V":
        return params, ret
    token, end = split_field_descriptor(ret)
    if end != len(ret):
        raise ClassParseError(f"trailing junk after return type in {desc!r}")
    return params, token


def validate_field_descriptor(desc: str) -> None:
    token, end = split_field_descriptor(desc)
    if end != len(desc) or token.lstrip("[") == "V":
        raise ClassParseError(f"bad field descriptor {desc!r}")


def render_type(desc: str) -> str:
    """Human form of one descriptor token: "La/b/C;" -> "a.b.C", "[I" -> "int[]"."""
    dims = 0
    while desc.startswith("["):
        dims += 1
        desc = desc[1:]
    if desc in _BASE_TYPES:
        base = _BASE_TYPES[desc]
    elif desc.startswith("L") and desc.endswith(";"):
        base = desc[1:-1].replace("/", ".")
    else:
        raise ClassParseError(f"bad descriptor token {desc!r}")
    return base + "[]" * dims


def jtype_of(desc: str) -> str:
    """Computation kind for one descriptor token: int/long/float/double/ref."""
    if desc.startswith("[") or desc.startswith("L"):
        return "ref"
    kind = _JTYPE.get(desc)
    if kind is None:
        raise ClassParseError(f"no computation kind for {desc!r}")
    return kind


def category(desc: str) -> int:
    """Operand-stack category: 2 for long/double, 1 otherwise."""
    return 2 if desc in ("J", "D") else 1


def param_slots(params: list[str]) -> int:
    """Number of local-variable slots the parameter list occupies."""
    return sum(category(p) for p in params)


@functools.cache
def render_method_types(desc: str) -> tuple[tuple[str, ...], str]:
    """A method descriptor's parameter types and return type, each as
    ``render_type`` writes it ("V" as "void").

    Cached for the process, as methods share descriptors: the 58,107
    methods of JDK 17's java.base have 12,167 distinct ones. A malformed
    descriptor raises each time, as an exception is not cached."""
    params, ret = parse_method_descriptor(desc)
    return tuple(map(render_type, params)), render_type(ret)


@functools.cache
def _signature_parts(desc: str) -> tuple[str, str, str, str]:
    """A method descriptor's return type and parameter list as
    ``method_signature`` writes them, then each with packages stripped;
    cached like ``render_method_types``."""
    args, ret = render_method_types(desc)
    args = ", ".join(args)
    return ret, args, strip_packages(ret), strip_packages(args)


def method_signature(class_dotted: str, name: str, desc: str) -> str:
    """Render "pkg.Cls: ret name(arg, arg)" for a method descriptor."""
    ret, args, _unq_ret, _unq_args = _signature_parts(desc)
    return f"{class_dotted}: {ret} {name}({args})"


def method_names(class_dotted: str, unqualified_class: str, name: str,
                 desc: str) -> tuple[str, str]:
    """``method_signature`` of a method, and that text with packages
    stripped, given its class's name stripped as ``unqualified_class``.

    A ``strip_packages`` match is names and dots, and its look-around
    reads ":", " ", "(" and ")" as it reads a text's start or end; so the
    class name, return type and parameter list, which those separate, are
    each stripped alone. A method name holds nothing to strip unless it
    holds a "." (the JVM forbids one there, the parser accepts it): then
    the whole text is stripped."""
    ret, args, unq_ret, unq_args = _signature_parts(desc)
    fqn = f"{class_dotted}: {ret} {name}({args})"
    if "." in name:
        return fqn, strip_packages(fqn)
    return fqn, f"{unqualified_class}: {unq_ret} {name}({unq_args})"

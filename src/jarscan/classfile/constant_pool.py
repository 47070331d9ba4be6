"""Constant-pool representation with tag-checked accessors, decoding each
entry from the class-file bytes the first time it is read."""

from __future__ import annotations

import struct

from ..errors import BadConstantPoolRef

TAG_UTF8 = 1
TAG_INTEGER = 3
TAG_FLOAT = 4
TAG_LONG = 5
TAG_DOUBLE = 6
TAG_CLASS = 7
TAG_STRING = 8
TAG_FIELDREF = 9
TAG_METHODREF = 10
TAG_INTERFACE_METHODREF = 11
TAG_NAME_AND_TYPE = 12
TAG_METHOD_HANDLE = 15
TAG_METHOD_TYPE = 16
TAG_DYNAMIC = 17
TAG_INVOKE_DYNAMIC = 18
TAG_MODULE = 19
TAG_PACKAGE = 20

TAG_NAMES = {
    TAG_UTF8: "Utf8",
    TAG_INTEGER: "Integer",
    TAG_FLOAT: "Float",
    TAG_LONG: "Long",
    TAG_DOUBLE: "Double",
    TAG_CLASS: "Class",
    TAG_STRING: "String",
    TAG_FIELDREF: "Fieldref",
    TAG_METHODREF: "Methodref",
    TAG_INTERFACE_METHODREF: "InterfaceMethodref",
    TAG_NAME_AND_TYPE: "NameAndType",
    TAG_METHOD_HANDLE: "MethodHandle",
    TAG_METHOD_TYPE: "MethodType",
    TAG_DYNAMIC: "Dynamic",
    TAG_INVOKE_DYNAMIC: "InvokeDynamic",
    TAG_MODULE: "Module",
    TAG_PACKAGE: "Package",
}

# Long and Double occupy two pool slots.
WIDE_TAGS = frozenset({TAG_LONG, TAG_DOUBLE})

_UTF8_REF = frozenset({TAG_UTF8})
MEMBER_TAGS = frozenset({TAG_FIELDREF, TAG_METHODREF, TAG_INTERFACE_METHODREF})
_MEMBER_REF = (frozenset({TAG_CLASS}), frozenset({TAG_NAME_AND_TYPE}))
_BOOTSTRAP_REF = (None, frozenset({TAG_NAME_AND_TYPE}))

# For each tag that refers to other entries: the tags each of its payload
# slots may point at, or None for a slot that is a plain number. Every
# reference leads strictly down this table, so resolving cannot cycle.
_REFERENCES = {
    TAG_CLASS: (_UTF8_REF,),
    TAG_STRING: (_UTF8_REF,),
    TAG_METHOD_TYPE: (_UTF8_REF,),
    TAG_MODULE: (_UTF8_REF,),
    TAG_PACKAGE: (_UTF8_REF,),
    TAG_NAME_AND_TYPE: (_UTF8_REF, _UTF8_REF),
    TAG_FIELDREF: _MEMBER_REF,
    TAG_METHODREF: _MEMBER_REF,
    TAG_INTERFACE_METHODREF: _MEMBER_REF,
    TAG_METHOD_HANDLE: (None, MEMBER_TAGS),
    TAG_DYNAMIC: _BOOTSTRAP_REF,
    TAG_INVOKE_DYNAMIC: _BOOTSTRAP_REF,
}


# Layout of the bytes after the tag of each fixed-size entry; an entry's
# payload is the one field, or the tuple of fields.
CP_PAYLOAD = {
    TAG_INTEGER: struct.Struct(">i"),
    TAG_FLOAT: struct.Struct(">f"),
    TAG_LONG: struct.Struct(">q"),
    TAG_DOUBLE: struct.Struct(">d"),
    **dict.fromkeys((TAG_CLASS, TAG_STRING, TAG_METHOD_TYPE, TAG_MODULE, TAG_PACKAGE),
                    struct.Struct(">H")),
    **dict.fromkeys((TAG_FIELDREF, TAG_METHODREF, TAG_INTERFACE_METHODREF,
                     TAG_NAME_AND_TYPE, TAG_DYNAMIC, TAG_INVOKE_DYNAMIC),
                    struct.Struct(">HH")),
    TAG_METHOD_HANDLE: struct.Struct(">BH"),
}


def decode_utf8(raw: bytes) -> str:
    # Modified UTF-8; surrogate escapes keep odd bytes round-trippable.
    return raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogateescape")


class ConstantPool:
    """Indexed table of constant-pool entries, 1-based like the class-file
    format, each read as (tag, payload).

    Payload by tag:
      Utf8                -> str
      Integer/Float/Long/Double -> int or float
      Class/String/MethodType/Module/Package -> referenced index (int)
      NameAndType         -> (name_index, descriptor_index)
      Fieldref/Methodref/InterfaceMethodref -> (class_index, name_and_type_index)
      MethodHandle        -> (reference_kind, reference_index)
      Dynamic/InvokeDynamic -> (bootstrap_method_attr_index, name_and_type_index)

    It holds the class file's bytes and the offset of each entry's tag
    byte (-1 where no entry starts: index 0 and the slot after a Long or
    Double), as the parser's walk found them; that walk checked every tag
    and length. An entry is decoded the first time it is read.
    """

    def __init__(self, data: bytes, offsets: list[int]):
        self._data = data
        self._offsets = offsets
        self._decoded: dict[int, tuple] = {}
        self._resolved: dict[int, tuple] = {}

    def __len__(self) -> int:
        return sum(offset >= 0 for offset in self._offsets)

    def __contains__(self, index: int) -> bool:
        return 0 <= index < len(self._offsets) and self._offsets[index] >= 0

    def _read(self, index: int, expected_tag: int | None = None) -> tuple:
        """(tag, payload) of entry ``index``, decoded on first read; raises
        BadConstantPoolRef when there is no such entry or, given
        ``expected_tag``, it carries another tag."""
        got = self._decoded.get(index)
        if got is None:
            offsets = self._offsets
            pos = offsets[index] if 0 <= index < len(offsets) else -1
            if pos < 0:
                raise BadConstantPoolRef(f"constant pool index {index} out of range")
            data = self._data
            tag = data[pos]
            if tag == TAG_UTF8:
                end = pos + 3 + ((data[pos + 1] << 8) | data[pos + 2])
                value = decode_utf8(data[pos + 3:end])
            else:
                value = CP_PAYLOAD[tag].unpack_from(data, pos + 1)
                if len(value) == 1:
                    value = value[0]
            got = self._decoded[index] = (tag, value)
        if expected_tag is not None and got[0] != expected_tag:
            raise BadConstantPoolRef(
                f"constant pool index {index}: expected {TAG_NAMES.get(expected_tag)}, "
                f"found {TAG_NAMES.get(got[0], got[0])}"
            )
        return got

    def resolve(self, index: int, allowed: frozenset | None = None) -> tuple:
        """The entry with every pool reference replaced, recursively, by
        the entry it names: (tag, payload), equal across two pools exactly
        when the constants are the same, wherever they sit.

        Float and Double payloads are their bit patterns, so -0.0 and 0.0
        stay apart and a NaN equals itself. Raises BadConstantPoolRef for
        an index out of range or a reference to an entry of the wrong kind.
        """
        tag, value = self._read(index)
        if allowed is not None and tag not in allowed:
            raise BadConstantPoolRef(
                f"constant pool index {index}: unexpected "
                f"{TAG_NAMES.get(tag, tag)} reference")
        got = self._resolved.get(index)
        if got is None:
            slots = _REFERENCES.get(tag)
            if slots is None:
                if tag in (TAG_FLOAT, TAG_DOUBLE):
                    value = struct.pack(">d", value)
            else:
                refs = value if isinstance(value, tuple) else (value,)
                value = tuple(ref if kinds is None else self.resolve(ref, kinds)
                              for ref, kinds in zip(refs, slots))
            got = self._resolved[index] = (tag, value)
        return got

    def utf8(self, index: int) -> str:
        return self._read(index, TAG_UTF8)[1]

    def class_name(self, index: int) -> str:
        """Internal binary name of a Class entry ("a/b/C" or array descriptor)."""
        return self.utf8(self._read(index, TAG_CLASS)[1])


# Readers of the entries ``ConstantPool.resolve`` returns: the one place
# that knows their nested shape. Each raises BadConstantPoolRef for an
# entry of a kind it does not read.

# ldc operand kinds by tag; any other tag is "other".
_LOADABLE = {TAG_INTEGER: "int", TAG_LONG: "long", TAG_FLOAT: "float",
             TAG_DOUBLE: "double", TAG_STRING: "string", TAG_CLASS: "class"}


def _payload(entry: tuple, tags, expected: str):
    if entry[0] not in tags:
        raise BadConstantPoolRef(
            f"expected {expected}, found {TAG_NAMES.get(entry[0], entry[0])}")
    return entry[1]


def resolved_class(entry: tuple) -> str:
    """Internal binary name ("a/b/C" or an array descriptor) of a resolved
    Class entry."""
    return _payload(entry, (TAG_CLASS,), "Class")[0][1]


def resolved_member(entry: tuple, indy: bool = False) -> tuple[object, str, str]:
    """(owner, name, descriptor) of a resolved Fieldref, Methodref or
    InterfaceMethodref, the owner being its class's internal name; with
    ``indy``, (bootstrap method index, name, descriptor) of a resolved
    InvokeDynamic."""
    owner, (_, ((_, name), (_, desc))) = (
        _payload(entry, (TAG_INVOKE_DYNAMIC,), "InvokeDynamic") if indy
        else _payload(entry, MEMBER_TAGS, "a member ref"))
    return (owner if indy else resolved_class(owner)), name, desc


def resolved_loadable(entry: tuple) -> tuple[str, object]:
    """A resolved ldc/ldc_w/ldc2_w operand as (kind, value): kind is one of
    int/long/float/double/string/class, a class's value being its internal
    name; MethodType, MethodHandle and Dynamic entries come back as
    ("other", tag)."""
    tag, value = entry
    kind = _LOADABLE.get(tag, "other")
    if kind in ("float", "double"):
        value = struct.unpack(">d", value)[0]
    elif kind in ("string", "class"):
        value = value[0][1]
    return kind, tag if kind == "other" else value

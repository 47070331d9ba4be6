"""Constant-pool representation with tag-checked accessors."""

from __future__ import annotations

import struct
from dataclasses import dataclass

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
_MEMBER_TAGS = frozenset({TAG_FIELDREF, TAG_METHODREF, TAG_INTERFACE_METHODREF})
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
    TAG_METHOD_HANDLE: (None, _MEMBER_TAGS),
    TAG_DYNAMIC: _BOOTSTRAP_REF,
    TAG_INVOKE_DYNAMIC: _BOOTSTRAP_REF,
}


@dataclass(frozen=True)
class CpEntry:
    """One constant-pool entry: a tag plus its decoded payload.

    Payload layout by tag:
      Utf8                -> str
      Integer/Float/Long/Double -> int or float
      Class/String/MethodType/Module/Package -> referenced index (int)
      NameAndType         -> (name_index, descriptor_index)
      Fieldref/Methodref/InterfaceMethodref -> (class_index, name_and_type_index)
      MethodHandle        -> (reference_kind, reference_index)
      Dynamic/InvokeDynamic -> (bootstrap_method_attr_index, name_and_type_index)
    """

    tag: int
    value: object


class ConstantPool:
    """Indexed table of CpEntry, 1-based like the class-file format."""

    def __init__(self, entries: dict[int, CpEntry]):
        self._entries = entries
        self._resolved: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, index: int) -> bool:
        return index in self._entries

    def entry(self, index: int, expected_tag: int | None = None) -> CpEntry:
        ent = self._entries.get(index)
        if ent is None:
            raise BadConstantPoolRef(f"constant pool index {index} out of range")
        if expected_tag is not None and ent.tag != expected_tag:
            raise BadConstantPoolRef(
                f"constant pool index {index}: expected {TAG_NAMES.get(expected_tag)}, "
                f"found {TAG_NAMES.get(ent.tag, ent.tag)}"
            )
        return ent

    def resolve(self, index: int, allowed: frozenset | None = None) -> tuple:
        """The entry with every pool reference replaced, recursively, by
        the entry it names: (tag, payload), equal across two pools exactly
        when the constants are the same, wherever they sit.

        Float and Double payloads are their bit patterns, so -0.0 and 0.0
        stay apart and a NaN equals itself. Raises BadConstantPoolRef for
        an index out of range or a reference to an entry of the wrong kind.
        """
        ent = self.entry(index)
        if allowed is not None and ent.tag not in allowed:
            raise BadConstantPoolRef(
                f"constant pool index {index}: unexpected "
                f"{TAG_NAMES.get(ent.tag, ent.tag)} reference")
        got = self._resolved.get(index)
        if got is None:
            slots = _REFERENCES.get(ent.tag)
            if slots is None:
                value = ent.value
                if ent.tag in (TAG_FLOAT, TAG_DOUBLE):
                    value = struct.pack(">d", value)
            else:
                refs = ent.value if isinstance(ent.value, tuple) else (ent.value,)
                value = tuple(ref if kinds is None else self.resolve(ref, kinds)
                              for ref, kinds in zip(refs, slots))
            got = self._resolved[index] = (ent.tag, value)
        return got

    def utf8(self, index: int) -> str:
        return self.entry(index, TAG_UTF8).value  # type: ignore[return-value]

    def class_name(self, index: int) -> str:
        """Internal binary name of a Class entry ("a/b/C" or array descriptor)."""
        name_index = self.entry(index, TAG_CLASS).value
        return self.utf8(name_index)

    def name_and_type(self, index: int) -> tuple[str, str]:
        name_idx, desc_idx = self.entry(index, TAG_NAME_AND_TYPE).value
        return self.utf8(name_idx), self.utf8(desc_idx)

    def member_ref(self, index: int) -> tuple[str, str, str]:
        """(owner internal name, member name, descriptor) for any *ref entry."""
        ent = self.entry(index)
        if ent.tag not in (TAG_FIELDREF, TAG_METHODREF, TAG_INTERFACE_METHODREF):
            raise BadConstantPoolRef(
                f"constant pool index {index}: expected a member ref, "
                f"found {TAG_NAMES.get(ent.tag, ent.tag)}"
            )
        class_idx, nat_idx = ent.value
        name, desc = self.name_and_type(nat_idx)
        return self.class_name(class_idx), name, desc

    def invoke_dynamic(self, index: int) -> tuple[int, str, str]:
        """(bootstrap index, name, descriptor) of an InvokeDynamic entry."""
        bsm_idx, nat_idx = self.entry(index, TAG_INVOKE_DYNAMIC).value
        name, desc = self.name_and_type(nat_idx)
        return bsm_idx, name, desc

    def loadable(self, index: int) -> tuple[str, object]:
        """Decode an ldc/ldc_w/ldc2_w operand to (kind, value).

        kind is one of int/long/float/double/string/class; MethodType,
        MethodHandle and Dynamic entries come back as ("other", tag).
        """
        ent = self.entry(index)
        if ent.tag == TAG_INTEGER:
            return "int", ent.value
        if ent.tag == TAG_LONG:
            return "long", ent.value
        if ent.tag == TAG_FLOAT:
            return "float", ent.value
        if ent.tag == TAG_DOUBLE:
            return "double", ent.value
        if ent.tag == TAG_STRING:
            return "string", self.utf8(ent.value)
        if ent.tag == TAG_CLASS:
            return "class", self.utf8(ent.value)
        return "other", ent.tag

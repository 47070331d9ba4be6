"""Reference oracle for ``jarscan.classfile.parser.parse_class``: the eager
parser it replaced, kept for differential tests.

It decodes every constant-pool entry while walking the pool, into a
dict-backed pool, and reads the rest of the class through a bounds-checked
cursor, in file order. The package's parser walks the pool once, decodes
entries on first read and reads tables at offsets; on any input the two
must raise the same ClassParseError subclass or return equal classes whose
pools give the same decoded (tag, payload) entries and answer ``resolve``
and ``in`` alike.

The version bounds and ``_validate_targets`` are the package's own: they
are not what the two parsers differ in.

``decode_instructions`` is the oracle for the package's decoder, which
reads each instruction's operands through the layout tables of
``jarscan.classfile.opcodes``. This copy is the decoder as it was before
those tables: one ``if`` branch per operand format, each with its own
struct format string. The emitter encodes through the same tables the
package's decoder reads, so a layout error that is symmetric in the two
would round-trip unseen; against this copy it shows. On any code array
the two must raise the same ClassParseError subclass or return equal
instruction tuples.

Both give a method body in the package's one form: (offset, mnemonic,
operands) instruction tuples and (start, end, handler, catch type)
handler tuples. Only how each reaches it differs.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from jarscan.classfile.constant_pool import (
    _REFERENCES,
    TAG_CLASS,
    TAG_DOUBLE,
    TAG_DYNAMIC,
    TAG_FIELDREF,
    TAG_FLOAT,
    TAG_INTEGER,
    TAG_INTERFACE_METHODREF,
    TAG_INVOKE_DYNAMIC,
    TAG_LONG,
    TAG_METHOD_HANDLE,
    TAG_METHOD_TYPE,
    TAG_METHODREF,
    TAG_MODULE,
    TAG_NAME_AND_TYPE,
    TAG_NAMES,
    TAG_PACKAGE,
    TAG_STRING,
    TAG_UTF8,
    WIDE_TAGS,
)
from jarscan.classfile.constructs import strip_packages
from jarscan.classfile.descriptors import (method_signature, parse_method_descriptor,
                                         validate_field_descriptor)
from jarscan.classfile.model import ClassFile, CodeAttribute, FieldInfo, MethodInfo
from jarscan.classfile.opcodes import OPCODES, WIDE
from jarscan.classfile.parser import (
    MAGIC,
    MAX_MAJOR,
    MIN_MAJOR,
    _validate_targets,
)
from jarscan.errors import (
    BadConstantPoolRef,
    BadMagic,
    ClassParseError,
    TruncatedInput,
    UnsupportedVersion,
)

_U2 = struct.Struct(">H").unpack_from
_U4 = struct.Struct(">I").unpack_from

_CP_PAYLOAD = {
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


class CpEntry(NamedTuple):
    """One decoded entry: its tag and payload, the pair the package's
    pool reads (see ``jarscan.classfile.constant_pool.ConstantPool``)."""

    tag: int
    value: object


class EagerConstantPool:
    """Dict of decoded CpEntry, 1-based like the class-file format."""

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
        return self.entry(index, TAG_UTF8).value

    def class_name(self, index: int) -> str:
        return self.utf8(self.entry(index, TAG_CLASS).value)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _advance(self, n: int) -> int:
        pos = self.pos
        if pos + n > len(self.data):
            raise TruncatedInput(
                f"needed {n} bytes at offset {pos}, have {len(self.data) - pos}"
            )
        self.pos = pos + n
        return pos

    def u2(self) -> int:
        return _U2(self.data, self._advance(2))[0]

    def u4(self) -> int:
        return _U4(self.data, self._advance(4))[0]

    def raw(self, n: int) -> bytes:
        pos = self._advance(n)
        return self.data[pos:pos + n]


def _decode_utf8(raw: bytes) -> str:
    return raw.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogateescape")


def _parse_constant_pool(r: _Reader) -> EagerConstantPool:
    count = r.u2()
    data, pos, n = r.data, r.pos, len(r.data)
    entries: dict[int, CpEntry] = {}
    index = 1
    while index < count:
        if pos >= n:
            raise TruncatedInput(f"constant pool ends before entry {index}")
        tag = data[pos]
        if tag == TAG_UTF8:
            if pos + 3 > n:
                raise TruncatedInput(f"constant pool ends inside entry {index}")
            end = pos + 3 + ((data[pos + 1] << 8) | data[pos + 2])
            if end > n:
                raise TruncatedInput(f"constant pool ends inside entry {index}")
            value = _decode_utf8(data[pos + 3:end])
        else:
            payload = _CP_PAYLOAD.get(tag)
            if payload is None:
                raise ClassParseError(f"unknown constant pool tag {tag} at index {index}")
            end = pos + 1 + payload.size
            if end > n:
                raise TruncatedInput(f"constant pool ends inside entry {index}")
            value = payload.unpack_from(data, pos + 1)
            if len(value) == 1:
                value = value[0]
        entries[index] = CpEntry(tag, value)
        pos = end
        index += 2 if tag in WIDE_TAGS else 1
    r.pos = pos
    return EagerConstantPool(entries)


def decode_instructions(code: bytes) -> tuple[tuple[int, str, tuple], ...]:
    """Decode a Code array into (offset, mnemonic, operands) tuples, each
    branch operand an absolute offset."""
    out: list[tuple[int, str, tuple]] = []
    pos = 0
    n = len(code)

    def need(k: int):
        if pos + k > n:
            raise TruncatedInput(f"code array ends inside instruction at {start}")

    while pos < n:
        start = pos
        op = code[pos]
        pos += 1
        wide = False
        if op == WIDE:
            need(1)
            wide = True
            op = code[pos]
            pos += 1
        info = OPCODES.get(op)
        if info is None:
            raise ClassParseError(f"unknown opcode 0x{op:02x} at offset {start}")
        mnemonic, fmt = info
        if wide and fmt not in ("local", "iinc"):
            raise ClassParseError(f"wide prefix before {mnemonic} at offset {start}")

        if fmt == "":
            operands: tuple = ()
        elif fmt == "i8":
            need(1)
            operands = (struct.unpack_from(">b", code, pos)[0],)
            pos += 1
        elif fmt == "i16":
            need(2)
            operands = (struct.unpack_from(">h", code, pos)[0],)
            pos += 2
        elif fmt == "u8":
            need(1)
            operands = (code[pos],)
            pos += 1
        elif fmt == "cp8":
            need(1)
            operands = (code[pos],)
            pos += 1
        elif fmt == "cp16":
            need(2)
            operands = (struct.unpack_from(">H", code, pos)[0],)
            pos += 2
        elif fmt == "local":
            if wide:
                need(2)
                operands = (struct.unpack_from(">H", code, pos)[0],)
                pos += 2
            else:
                need(1)
                operands = (code[pos],)
                pos += 1
        elif fmt == "iinc":
            if wide:
                need(4)
                slot, delta = struct.unpack_from(">Hh", code, pos)
                pos += 4
            else:
                need(2)
                slot, delta = struct.unpack_from(">Bb", code, pos)
                pos += 2
            operands = (slot, delta)
        elif fmt == "br16":
            need(2)
            rel = struct.unpack_from(">h", code, pos)[0]
            pos += 2
            operands = (start + rel,)
        elif fmt == "br32":
            need(4)
            rel = struct.unpack_from(">i", code, pos)[0]
            pos += 4
            operands = (start + rel,)
        elif fmt == "iface":
            need(4)
            idx, count = struct.unpack_from(">HB", code, pos)
            pos += 4
            operands = (idx, count)
        elif fmt == "indy":
            need(4)
            idx = struct.unpack_from(">H", code, pos)[0]
            pos += 4
            operands = (idx,)
        elif fmt == "multi":
            need(3)
            idx, dims = struct.unpack_from(">HB", code, pos)
            pos += 3
            operands = (idx, dims)
        elif fmt == "table":
            pad = (4 - (pos % 4)) % 4
            need(pad + 12)
            pos += pad
            default, low, high = struct.unpack_from(">iii", code, pos)
            pos += 12
            if low > high:
                raise ClassParseError(f"tableswitch low > high at offset {start}")
            count = high - low + 1
            need(count * 4)
            targets = struct.unpack_from(f">{count}i", code, pos)
            pos += count * 4
            operands = (start + default, low, high,
                        tuple(start + t for t in targets))
        elif fmt == "lookup":
            pad = (4 - (pos % 4)) % 4
            need(pad + 8)
            pos += pad
            default, npairs = struct.unpack_from(">ii", code, pos)
            pos += 8
            if npairs < 0:
                raise ClassParseError(f"lookupswitch npairs < 0 at offset {start}")
            need(npairs * 8)
            pairs = []
            for _ in range(npairs):
                match, offset = struct.unpack_from(">ii", code, pos)
                pos += 8
                pairs.append((match, start + offset))
            operands = (start + default, tuple(pairs))
        else:  # pragma: no cover - table is exhaustive
            raise ClassParseError(f"unhandled operand format {fmt}")

        out.append((start, mnemonic, operands))
    return tuple(out)


def _parse_code_attribute(data: bytes, pool: EagerConstantPool) -> CodeAttribute:
    r = _Reader(data)
    max_stack = r.u2()
    max_locals = r.u2()
    code = r.raw(r.u4())
    instructions = decode_instructions(code)
    table = []
    for _ in range(r.u2()):
        start, end, handler, catch_idx = r.u2(), r.u2(), r.u2(), r.u2()
        catch = pool.class_name(catch_idx).replace("/", ".") if catch_idx else None
        table.append((start, end, handler, catch))
    for _ in range(r.u2()):
        r.u2()
        r.raw(r.u4())
    table = tuple(table)
    _validate_targets(instructions, table, len(code))
    return CodeAttribute(max_stack, max_locals, instructions, table)


def _member_attributes(r: _Reader, pool: EagerConstantPool) -> list[tuple[str, bytes]]:
    return [(pool.utf8(r.u2()), r.raw(r.u4())) for _ in range(r.u2())]


def parse_class(data: bytes) -> ClassFile:
    """Decode one class file eagerly, every Code attribute included."""
    r = _Reader(data)
    if len(data) < 4 or r.u4() != MAGIC:
        raise BadMagic("class file does not start with 0xCAFEBABE")
    r.u2()  # minor
    major = r.u2()
    if not MIN_MAJOR <= major <= MAX_MAJOR:
        raise UnsupportedVersion(f"class file major version {major}")
    pool = _parse_constant_pool(r)
    access = r.u2()
    this_class = pool.class_name(r.u2()).replace("/", ".")
    super_idx = r.u2()
    super_class = pool.class_name(super_idx).replace("/", ".") if super_idx else None
    interfaces = tuple(pool.class_name(r.u2()).replace("/", ".")
                       for _ in range(r.u2()))
    fields = []
    for _ in range(r.u2()):
        acc, name, desc = r.u2(), pool.utf8(r.u2()), pool.utf8(r.u2())
        _member_attributes(r, pool)
        validate_field_descriptor(desc)
        fields.append(FieldInfo(name, desc, acc))
    methods = []
    for _ in range(r.u2()):
        acc, name, desc = r.u2(), pool.utf8(r.u2()), pool.utf8(r.u2())
        attributes = _member_attributes(r, pool)
        parse_method_descriptor(desc)
        code = None
        for attr_name, payload in attributes:
            if attr_name == "Code":
                code = _parse_code_attribute(payload, pool)
        methods.append(MethodInfo(name, desc, acc, code))
    for _ in range(r.u2()):
        r.u2()
        r.raw(r.u4())
    fqns = tuple(method_signature(this_class, m.name, m.descriptor) for m in methods)
    return ClassFile(
        major_version=major,
        access_flags=access,
        this_class=this_class,
        super_class=super_class,
        interfaces=interfaces,
        fields=tuple(fields),
        methods=tuple(methods),
        method_fqns=fqns,
        unqualified_method_fqns=tuple(map(strip_packages, fqns)),
        constant_pool=pool,
    )


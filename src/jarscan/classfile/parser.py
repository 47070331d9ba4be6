"""Binary decoding of JVM class files and JAR containers.

Each class file's constant pool is walked once (``_walk_pool``). The walk
checks the magic number, the 45..69 major-version range and every
constant-pool tag and length, and records where each entry starts; the
``ConstantPool`` it returns decodes an entry from there the first time the
entry is read, and checks a reference's tag and range then. On that walk
a class is checked at one of two depths:

* ``parse_class_header`` decodes only the class's own name: this_class
  must name a Class entry whose name is a Utf8 entry. It walks fields,
  methods and attributes by length, so truncation anywhere is caught. It
  checks no other pool reference, no descriptor and nothing inside a Code
  attribute. Its checks are a subset of ``parse_class``'s: bytes
  ``parse_class`` accepts, it accepts with the same name; bytes it
  rejects, ``parse_class`` rejects too.
* ``parse_class`` reads the rest in file order, each table at its offset,
  and checks each read as it goes: the class, super-class and interface
  names; each field's and method's name and descriptor (Utf8 entries that
  must parse as descriptors); each field and method attribute's name (a
  Utf8 entry); and every Code attribute (instructions, exception tables,
  branch targets). Class-level attributes are skipped by length. Given
  the header's walk it does not walk the pool again.

``parse_class`` given a predicate on methods decodes the Code attribute
only of the methods it accepts; every other body reads as ``UNDECODED``,
which raises CodeNotDecoded when read, never as "no code". Everything
else, every method's descriptor included, is checked as without it.

``parse_jar`` given a predicate on class names fully parses only the
classes the predicate accepts and header-checks the rest; a second
predicate, on methods, is passed on to ``parse_class``. A scan asks for
the classes its knowledge base names and for the bodies of the methods
its ``changed`` method records name. So a class no KB record names whose
only defect is one the header does not check (a bad descriptor, Code
attribute or other pool reference) counts as a class, not as a parse
failure, and so does a class the KB names whose only defect is inside
the Code attribute of a method no ``changed`` record names. A defect that
could hide which class it is (an unreadable name, a bad pool, truncation,
an unsupported version) is a failure either way.
"""

from __future__ import annotations

import io
import logging
import struct
import zipfile
import zlib
from typing import Callable

from ..errors import (
    BadMagic,
    ClassParseError,
    MalformedArchive,
    TruncatedInput,
    UnsupportedVersion,
)
from .constant_pool import CP_PAYLOAD, TAG_UTF8, WIDE_TAGS, ConstantPool
from .descriptors import parse_method_descriptor, validate_field_descriptor
from .model import (
    UNDECODED,
    ClassFile,
    CodeAttribute,
    ExceptionHandler,
    FieldInfo,
    Instruction,
    JarArchive,
    MethodInfo,
    ParseFailure,
)
from .opcodes import OPCODES, WIDE

log = logging.getLogger(__name__)

MAGIC = 0xCAFEBABE
MIN_MAJOR = 45
MAX_MAJOR = 69

_U2 = struct.Struct(">H").unpack_from
_U4 = struct.Struct(">I").unpack_from
_LENGTH = struct.Struct(">I")             # an attribute's length
_CODE_HEADER = struct.Struct(">HHI")      # max_stack, max_locals, code_length
_HANDLER = struct.Struct(">4H")           # start, end, handler, catch_type
# this_class and interfaces_count, skipping access_flags and super_class.
_THIS_AND_INTERFACES = struct.Struct(">2xH2xH").unpack_from

# Size in bytes, tag included, of each fixed-size entry, indexed by tag;
# 0 for Utf8 (sized by its length field) and unknown tags.
_CP_ENTRY_SIZE = bytes(1 + CP_PAYLOAD[tag].size if tag in CP_PAYLOAD else 0
                       for tag in range(256))


def _read(fmt: struct.Struct, data: bytes, pos: int) -> tuple:
    """The fields of ``fmt`` at ``pos``, which must all lie inside ``data``."""
    if pos + fmt.size > len(data):
        raise TruncatedInput(
            f"needed {fmt.size} bytes at offset {pos}, have {len(data) - pos}")
    return fmt.unpack_from(data, pos)


def _u2(data: bytes, pos: int) -> int:
    """``_read`` of one u2, inlined: this is the parser's most frequent read."""
    if pos + 2 > len(data):
        raise TruncatedInput(f"needed 2 bytes at offset {pos}, have {len(data) - pos}")
    return (data[pos] << 8) | data[pos + 1]


def _table(data: bytes, pos: int) -> tuple[range, int]:
    """The entries of the table whose u2 count is at ``pos``, and the
    offset of its first entry."""
    return range(_u2(data, pos)), pos + 2


def _walk_pool(data: bytes) -> tuple[int, ConstantPool, int]:
    """The one walk of a class file's constant pool: check the magic
    number, the major version and every entry's tag and length. Returns
    the major version, the pool and the offset just past it."""
    n = len(data)
    if n < 4 or _U4(data, 0)[0] != MAGIC:
        raise BadMagic("class file does not start with 0xCAFEBABE")
    major = _u2(data, 6)
    if not MIN_MAJOR <= major <= MAX_MAJOR:
        raise UnsupportedVersion(
            f"class file major version {major} outside supported {MIN_MAJOR}..{MAX_MAJOR}"
        )
    count = _u2(data, 8)
    # offsets[i] is where pool entry i's tag byte sits; -1 marks no entry.
    offsets = [-1] * max(count, 1)
    pos = 10
    index = 1
    try:            # reading past the end raises IndexError
        while index < count:
            tag = data[pos]
            offsets[index] = pos
            if tag == TAG_UTF8:
                pos += 3 + ((data[pos + 1] << 8) | data[pos + 2])
                index += 1
            else:
                size = _CP_ENTRY_SIZE[tag]
                if not size:
                    raise ClassParseError(f"unknown constant pool tag {tag} at index {index}")
                pos += size
                index += 2 if tag in WIDE_TAGS else 1
    except IndexError:
        raise TruncatedInput(f"constant pool ends inside entry {index}") from None
    if pos > n:
        raise TruncatedInput(f"constant pool entry {count - 1} runs past the end")
    return major, ConstantPool(data, offsets), pos


def decode_instructions(code: bytes) -> tuple[Instruction, ...]:
    """Decode a Code array into instructions with absolute branch targets."""
    out: list[Instruction] = []
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

        out.append(Instruction(start, mnemonic, operands))
    return tuple(out)


def branch_targets(ins: Instruction) -> tuple[int, ...]:
    """All absolute branch targets of one instruction (empty if none)."""
    m = ins.mnemonic
    if m == "tableswitch":
        default, _low, _high, targets = ins.operands
        return (default, *targets)
    if m == "lookupswitch":
        default, pairs = ins.operands
        return (default, *(t for _, t in pairs))
    if m in ("goto", "goto_w", "jsr", "jsr_w") or m.startswith("if"):
        return (ins.operands[0],)
    return ()


def _validate_targets(instructions: tuple[Instruction, ...],
                      table: tuple[ExceptionHandler, ...]) -> None:
    offsets = {ins.offset for ins in instructions}
    for ins in instructions:
        for t in branch_targets(ins):
            if t not in offsets:
                raise ClassParseError(
                    f"branch target {t} of {ins.mnemonic}@{ins.offset} "
                    f"is not an instruction boundary"
                )
    for h in table:
        if h.handler not in offsets:
            raise ClassParseError(f"exception handler pc {h.handler} is not a boundary")
        if h.start > h.end or h.start not in offsets:
            raise ClassParseError(f"bad exception range [{h.start}, {h.end})")


def _parse_code_attribute(data: bytes, pool: ConstantPool) -> CodeAttribute:
    """Decode the payload of one Code attribute."""
    max_stack, max_locals, code_len = _read(_CODE_HEADER, data, 0)
    pos = 8 + code_len
    if pos > len(data):
        raise TruncatedInput(f"code array of {code_len} bytes runs past its attribute")
    instructions = decode_instructions(data[8:pos])
    table = []
    entries, pos = _table(data, pos)
    for _ in entries:
        start, end, handler, catch_idx = _read(_HANDLER, data, pos)
        pos += 8
        catch = pool.class_name(catch_idx).replace("/", ".") if catch_idx else None
        table.append(ExceptionHandler(start, end, handler, catch))
    # Code sub-attributes (LineNumberTable, StackMapTable, ...) are skipped.
    _skip_attributes(data, pos)
    attr = CodeAttribute(max_stack, max_locals, instructions, tuple(table))
    _validate_targets(instructions, attr.exception_table)
    return attr


def _member_attributes(data: bytes, pos: int,
                       pool: ConstantPool) -> tuple[int, list[tuple[str, int, int]]]:
    """Walk the attribute table of one field or method at ``pos``; each
    name must be a Utf8 entry. Returns the offset just past the table and
    each attribute's (name, payload start, payload end)."""
    entries, pos = _table(data, pos)
    attributes = []
    for _ in entries:
        name = pool.utf8(_u2(data, pos))
        start = pos + 6
        pos = start + _read(_LENGTH, data, pos + 2)[0]
        if pos > len(data):
            raise TruncatedInput(f"attribute {name} runs past the end of the class file")
        attributes.append((name, start, pos))
    return pos, attributes


def parse_class(data: bytes,
                wanted_body: Callable[[str, str, str], bool] | None = None,
                walk: tuple | None = None) -> ClassFile:
    """Decode one class file; raises ClassParseError subclasses on bad input.

    With ``wanted_body``, a method's Code attribute is decoded only if
    ``wanted_body(class name, method name, descriptor)`` accepts it; the
    others read as ``UNDECODED``. Without it every body is decoded.
    ``walk`` is the pool walk ``parse_class_header`` returned for these
    bytes; without it the pool is walked here.
    """
    major, pool, pos = walk or _walk_pool(data)
    access = _u2(data, pos)
    this_class = pool.class_name(_u2(data, pos + 2)).replace("/", ".")
    super_idx = _u2(data, pos + 4)
    super_class = pool.class_name(super_idx).replace("/", ".") if super_idx else None
    interfaces = tuple(pool.class_name(_u2(data, pos + 8 + 2 * i)).replace("/", ".")
                       for i in range(_u2(data, pos + 6)))
    entries, pos = _table(data, pos + 8 + 2 * len(interfaces))
    fields = []
    for _ in entries:
        acc, name = _u2(data, pos), pool.utf8(_u2(data, pos + 2))
        desc = pool.utf8(_u2(data, pos + 4))
        pos, _attributes = _member_attributes(data, pos + 6, pool)
        validate_field_descriptor(desc)
        fields.append(FieldInfo(name, desc, acc))
    entries, pos = _table(data, pos)
    methods = []
    for _ in entries:
        acc, name = _u2(data, pos), pool.utf8(_u2(data, pos + 2))
        desc = pool.utf8(_u2(data, pos + 4))
        pos, attributes = _member_attributes(data, pos + 6, pool)
        parse_method_descriptor(desc)
        decode = wanted_body is None or wanted_body(this_class, name, desc)
        code = None
        for attr_name, start, end in attributes:
            if attr_name == "Code":
                code = _parse_code_attribute(data[start:end], pool) if decode else UNDECODED
        methods.append(MethodInfo(name, desc, acc, code))
    # Class-level attributes skipped by length.
    _skip_attributes(data, pos)
    return ClassFile(
        major_version=major,
        access_flags=access,
        this_class=this_class,
        super_class=super_class,
        interfaces=interfaces,
        fields=tuple(fields),
        methods=tuple(methods),
        constant_pool=pool,
    )


def _skip_attributes(data: bytes, pos: int) -> int:
    """Offset just past the attribute table (u2 count, then u2 name, u4
    length and payload per attribute) that starts at ``pos``."""
    n = len(data)
    if pos + 2 > n:
        raise TruncatedInput(f"class file ends before the attribute table at {pos}")
    count = _U2(data, pos)[0]
    pos += 2
    for _ in range(count):
        if pos + 6 > n:
            raise TruncatedInput(f"class file ends inside an attribute at {pos}")
        pos += 6 + _U4(data, pos + 2)[0]
    if pos > n:
        raise TruncatedInput("attribute runs past the end of the class file")
    return pos


def parse_class_header(data: bytes) -> tuple[str, tuple]:
    """Check a class file's layout without decoding it; return its dotted
    this_class name and the pool walk, for ``parse_class``.

    The checks are listed in the module docstring; each is one
    ``parse_class`` makes on the same bytes. Raises ClassParseError
    subclasses on bad input.
    """
    _major, pool, pos = walk = _walk_pool(data)
    n = len(data)
    if pos + 8 > n:
        raise TruncatedInput("class file ends inside its class header")
    this_idx, interface_count = _THIS_AND_INTERFACES(data, pos)
    name = pool.class_name(this_idx)
    pos += 8 + 2 * interface_count
    for _table_name in ("fields", "methods"):
        if pos + 2 > n:
            raise TruncatedInput("class file ends before a member table")
        member_count = _U2(data, pos)[0]
        pos += 2
        for _ in range(member_count):
            pos = _skip_attributes(data, pos + 6)   # after access, name, descriptor
    _skip_attributes(data, pos)
    return name.replace("/", "."), walk


# What ZipFile.read raises for one bad entry: a failed CRC or bad header
# (BadZipFile), data that does not inflate (zlib.error), sizes that run
# past the archive (EOFError), and an encrypted entry or an unsupported
# compression method (RuntimeError, NotImplementedError).
_UNREADABLE_ENTRY = (zipfile.BadZipFile, zlib.error, EOFError, RuntimeError)


def parse_jar(data: bytes, wanted: Callable[[str], bool] | None = None,
              wanted_body: Callable[[str, str, str], bool] | None = None) -> JarArchive:
    """Decode a JAR; per-entry class failures are collected, never fatal.

    A class entry zipfile cannot read (a failed CRC, data that does not
    inflate, sizes past the end, encryption, an unsupported compression
    method) is such a failure too ("unreadable entry: ...").

    Without ``wanted`` every class is fully parsed. With it, a class is
    header-checked first and fully parsed only if ``wanted`` accepts its
    dotted name, with the header's pool walk; the others go to
    ``unparsed`` and their bytes are dropped. ``wanted_body`` is passed on
    to ``parse_class`` for the classes fully parsed.
    """
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise MalformedArchive(str(exc)) from exc

    classes: list[tuple[str, ClassFile]] = []
    unparsed: list[tuple[str, str]] = []
    others: list[str] = []
    failures: list[ParseFailure] = []
    metadata = False
    seen: set[str] = set()
    for info in zf.infolist():
        path = info.filename
        if path in seen:
            log.warning("duplicate JAR entry %s ignored", path)
            continue
        seen.add(path)
        if path.startswith("META-INF/") or path == "pom.xml" or path.endswith("/pom.xml"):
            metadata = True
        if path.endswith("/"):
            continue
        if path.endswith(".jar"):
            log.warning("nested archive %s not recursed into", path)
            others.append(path)
            continue
        if not path.endswith(".class"):
            others.append(path)
            continue
        try:
            raw = zf.read(info)
        except _UNREADABLE_ENTRY as exc:
            log.warning("cannot read %s: %s", path, exc)
            failures.append(ParseFailure(path, f"unreadable entry: {exc}"))
            continue
        try:
            walk = None
            if wanted is not None:
                fqn, walk = parse_class_header(raw)
                if not wanted(fqn):
                    unparsed.append((path, fqn))
                    continue
            classes.append((path, parse_class(raw, wanted_body, walk)))
        except ClassParseError as exc:
            log.warning("failed to parse %s: %s", path, exc)
            failures.append(ParseFailure(path, str(exc)))
    return JarArchive(classes=classes, other_entries=others,
                      failures=failures, metadata_present=metadata,
                      unparsed=unparsed)

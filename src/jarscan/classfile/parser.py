"""Binary decoding of JVM class files and JAR containers.

Each class file's constant pool is walked once (``_walk_pool``). The walk
checks the magic number, the 45..69 major-version range and every
constant-pool tag and length, and records where each entry starts; the
``ConstantPool`` it returns decodes an entry from there the first time the
entry is read, and checks a reference's tag and range then. ``parse_class``
reads the rest in file order, each table at its offset, and checks each
read as it goes: the class, super-class and interface names; each
field's and method's name and descriptor (Utf8 entries that must parse as
descriptors); each field and method attribute's name (a Utf8 entry); and
every Code attribute (instructions, exception tables, branch targets).
Class-level attributes are skipped by length.

``parse_class`` names each method once, by ``method_names``: its
``method_signature`` and that text with packages stripped, both kept on
the ``ClassFile``. Each distinct descriptor is parsed and rendered once
per process, with and without packages, and that rendering is the check
of the descriptor; a method's names are put together from it, the
method's name and the class's name, stripped once per class. Given a
set of unqualified signatures, ``parse_class`` decodes the Code
attribute only of the methods whose stripped signature is in the set;
every other body reads as ``UNDECODED``, which raises CodeNotDecoded
when read, never as "no code". Everything else, every method's
descriptor included, is checked as without it.

``parse_jar`` given a set of stems opens a class entry only if its stem,
the simple name of the class a class loader finds at the entry's path,
is in the set; the others are listed as unopened and never read. Every
entry it opens is parsed by ``parse_class``, with the set of
signatures passed on. An opened class whose simple name is not its stem
is listed as misnamed. A scan gives the simple names the classes its
knowledge base names can have, and asks for the bodies of the methods
its ``changed`` method records name. So:

* an entry under a stem no KB record's class can have counts as a
  class whatever its bytes; a class the KB names stored under such a
  stem is missed, as a class loader looking it up by name misses it;
* an opened class whose only defect is inside the Code attribute of a
  method no ``changed`` record names counts as a class;
* any other defect of an opened class is a parse failure, whether or
  not a KB record names the class.

``parse_jar`` reads the archive, its bytes or an open seekable file, with
``ZipReader``: the central directory in one read and one walk, with no
object per entry beyond a tuple, then each class entry it opens with one
read of its local header and one of its data. Only STORED and DEFLATED
entries are read, as by ``java.util.zip``, and no entry's data may pass
``MAX_ENTRY_BYTES``, stored or inflated.
"""

from __future__ import annotations

import io
import logging
import struct
import zlib
from typing import BinaryIO, Container

from ..errors import (
    BadMagic,
    ClassParseError,
    MalformedArchive,
    TruncatedInput,
    UnsupportedVersion,
)
from .constant_pool import CP_PAYLOAD, TAG_UTF8, WIDE_TAGS, ConstantPool
from .constructs import strip_packages
from .descriptors import method_names, validate_field_descriptor
from .model import (
    UNDECODED,
    ClassFile,
    CodeAttribute,
    FieldInfo,
    JarArchive,
    MethodInfo,
    ParseFailure,
)
from .opcodes import (
    LAYOUT,
    LOOKUPSWITCH,
    NEWARRAY_TYPES,
    OPCODES,
    RELATIVE_FORMATS,
    TABLESWITCH,
    WIDE,
    WIDE_LAYOUT,
    branch_targets,
)

log = logging.getLogger(__name__)

MAGIC = 0xCAFEBABE
MIN_MAJOR = 45
MAX_MAJOR = 69

_U2 = struct.Struct(">H").unpack_from
_U4 = struct.Struct(">I").unpack_from
_LENGTH = struct.Struct(">I")             # an attribute's length
_CODE_HEADER = struct.Struct(">HHI")      # max_stack, max_locals, code_length
_HANDLER = struct.Struct(">4H")           # start, end, handler, catch_type

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


# Per opcode: mnemonic, operand layout (None for a switch) and whether the
# operand is a relative branch; None for an undefined opcode.
_DECODE = tuple((OPCODES[op][0], LAYOUT.get(OPCODES[op][1]), OPCODES[op][1] in RELATIVE_FORMATS)
                if op in OPCODES else None for op in range(256))
_WIDE_DECODE = {op: (mnemonic, WIDE_LAYOUT[fmt], False)
                for op, (mnemonic, fmt) in OPCODES.items() if fmt in WIDE_LAYOUT}


def _cut(start: int) -> TruncatedInput:
    return TruncatedInput(f"code array ends inside instruction at {start}")


def decode_instructions(code: bytes) -> tuple[tuple[int, str, tuple], ...]:
    """Decode a Code array into (offset, mnemonic, operands) tuples, each
    branch operand an absolute offset."""
    out: list[tuple[int, str, tuple]] = []
    pos = 0
    n = len(code)
    while pos < n:
        start = pos
        op = code[pos]
        if op == WIDE:
            if pos + 1 == n:
                raise _cut(start)
            op = code[pos + 1]
            pos += 2
            shape = _WIDE_DECODE.get(op)
            if shape is None and op in OPCODES:
                raise ClassParseError(f"wide prefix before {OPCODES[op][0]} at offset {start}")
        else:
            pos += 1
            shape = _DECODE[op]
        if shape is None:
            raise ClassParseError(f"unknown opcode 0x{op:02x} at offset {start}")
        mnemonic, layout, relative = shape
        if layout is None:
            operands, pos = _decode_switch(code, start, pos, mnemonic)
        else:
            end = pos + layout.size
            if end > n:
                raise _cut(start)
            operands = layout.unpack_from(code, pos)
            if relative:
                operands = (start + operands[0],)
            pos = end
        out.append((start, mnemonic, operands))
    return tuple(out)


def _decode_switch(code: bytes, start: int, pos: int, mnemonic: str) -> tuple[tuple, int]:
    """The operands of the switch at ``start`` whose padding begins at
    ``pos``, and the offset just past it."""
    pos += -pos % 4
    if mnemonic == "tableswitch":
        if pos + TABLESWITCH.size > len(code):
            raise _cut(start)
        default, low, high = TABLESWITCH.unpack_from(code, pos)
        if low > high:
            raise ClassParseError(f"tableswitch low > high at offset {start}")
        count = high - low + 1
        pos += TABLESWITCH.size
    else:
        if pos + LOOKUPSWITCH.size > len(code):
            raise _cut(start)
        default, npairs = LOOKUPSWITCH.unpack_from(code, pos)
        if npairs < 0:
            raise ClassParseError(f"lookupswitch npairs < 0 at offset {start}")
        count = 2 * npairs
        pos += LOOKUPSWITCH.size
    end = pos + 4 * count
    if end > len(code):
        raise _cut(start)
    words = struct.unpack_from(f">{count}i", code, pos)
    if mnemonic == "tableswitch":
        return (start + default, low, high, tuple(start + t for t in words)), end
    pairs = tuple(zip(words[0::2], [start + t for t in words[1::2]]))
    return (start + default, pairs), end


def _validate_targets(instructions: tuple[tuple[int, str, tuple], ...],
                      table: tuple[tuple[int, int, int, str | None], ...],
                      code_length: int) -> None:
    """Each branch target and handler is an instruction's offset, each
    protected range [start, end) is not empty and runs from an
    instruction's offset to one or to the code's end (JVMS 4.7.3), and
    each newarray names an element type (JVMS 4.9.1)."""
    offsets = {offset for offset, _m, _ops in instructions}
    for offset, m, ops in instructions:
        for t in branch_targets(m, ops):
            if t not in offsets:
                raise ClassParseError(
                    f"branch target {t} of {m}@{offset} is not an instruction boundary")
        if m == "newarray" and ops[0] not in NEWARRAY_TYPES:
            raise ClassParseError(f"newarray@{offset} of invalid element type {ops[0]}")
    for start, end, handler, _catch in table:
        if handler not in offsets:
            raise ClassParseError(f"exception handler pc {handler} is not a boundary")
        if (not start < end or start not in offsets
                or end not in offsets and end != code_length):
            raise ClassParseError(f"bad exception range [{start}, {end})")


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
        table.append((start, end, handler, catch))
    # Code sub-attributes (LineNumberTable, StackMapTable, ...) are skipped.
    _skip_attributes(data, pos)
    table = tuple(table)
    _validate_targets(instructions, table, code_len)
    return CodeAttribute(max_stack, max_locals, instructions, table)


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


def parse_class(data: bytes, bodies: Container[str] | None = None) -> ClassFile:
    """Decode one class file; raises ClassParseError subclasses on bad input.

    Each method's ``method_signature`` and its package-stripped form are
    put together by ``method_names`` from the class's name and the
    descriptor's cached rendering, which checks the descriptor. With
    ``bodies``, a method's Code attribute is decoded only if its unqualified
    signature is in ``bodies``; the others read as ``UNDECODED``. Without
    it every body is decoded.
    """
    major, pool, pos = _walk_pool(data)
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
    methods, fqns, unqualified = [], [], []
    unq_class = strip_packages(this_class)
    for _ in entries:
        acc, name = _u2(data, pos), pool.utf8(_u2(data, pos + 2))
        desc = pool.utf8(_u2(data, pos + 4))
        pos, attributes = _member_attributes(data, pos + 6, pool)
        fqn, unq = method_names(this_class, unq_class, name, desc)
        fqns.append(fqn)
        unqualified.append(unq)
        decode = bodies is None or unq in bodies
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
        method_fqns=tuple(fqns),
        unqualified_method_fqns=tuple(unqualified),
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


# The most bytes one entry's data may take, stored or inflated: past it
# the entry is unreadable, so inflating a zip bomb stops there. The
# largest JDK 17 class, sun/nio/cs/GB18030.class, is 298,455 bytes.
MAX_ENTRY_BYTES = 64 << 20

# An end of central directory record: central directory size and offset.
# It is the archive's last record, before a comment of at most 65,535
# bytes.
_END = struct.Struct("<12xII2x")
_END_SEARCH = _END.size + 0xFFFF
# A ZIP64 end record (central directory size and offset) and the 20-byte
# locator after it, both just before the end record when present.
_ZIP64_END = struct.Struct("<40xQQ")
_ZIP64_LOCATOR_SIZE = 20
# A central directory record: signature, version needed to extract (its
# low byte), flags, compression method, CRC-32, compressed size, size,
# name, extra field and comment lengths, and local header offset.
_CENTRAL = struct.Struct("<4s2xBxHH4xIIIHHH8xI")
# A local file header: signature, name and extra field lengths.
_LOCAL = struct.Struct("<4s22xHH")
_EXTRA_HEADER = struct.Struct("<HH")
_U8 = struct.Struct("<Q").unpack_from
_ZIP64_MARK = 0xFFFFFFFF
_MAX_VERSION = 63
_STORED, _DEFLATED = 0, 8
# Flags that make the data unreadable without more than the archive:
# encrypted (0x1), compressed patch data (0x20), strong encryption (0x40).
_ENCRYPTED_OR_PATCHED = 0x61
_UTF8_NAME = 0x800

# What ``ZipReader.read`` raises for one bad entry: a record that does not
# check out (MalformedArchive), data that does not inflate (zlib.error),
# data cut short by the end of the file (EOFError) or an I/O error.
_UNREADABLE_ENTRY = (MalformedArchive, zlib.error, EOFError, OSError)


def _zip64_fields(extra: bytes, fields: list[int]) -> list[int]:
    """``fields`` (size, compressed size, local header offset), each one
    that reads 0xFFFFFFFF taken in turn from the ZIP64 extra field."""
    pos = 0
    while pos + 4 <= len(extra):
        tag, length = _EXTRA_HEADER.unpack_from(extra, pos)
        pos += 4
        if tag == 1:
            end = pos + length
            for i, value in enumerate(fields):
                if value == _ZIP64_MARK:
                    if pos + 8 > min(end, len(extra)):
                        raise MalformedArchive("ZIP64 extra field cut short")
                    fields[i] = _U8(extra, pos)[0]
                    pos += 8
            break
        pos += length
    return fields


class ZipReader:
    """A ZIP archive read in place: its central directory in one read and
    one walk, then each entry's data only when it is read.

    ``entries`` holds, per central directory record and in its order, the
    entry's (name, flags, compression method, CRC-32, compressed size,
    size, local header offset), the offset corrected for any bytes before
    the archive (a jmod's ``JM\x01\x00``, a launcher script). A name is
    UTF-8 if the record's flag 0x800 says so, cp437 otherwise. An archive
    with no end record, a central directory that is cut short or holds a
    bad record, or an entry that needs zip version 6.4 or later raises
    MalformedArchive, as does an I/O error reading it.
    """

    __slots__ = ("_file", "entries", "_directory_start")

    def __init__(self, data: bytes | BinaryIO):
        self._file = file = data if hasattr(data, "read") else io.BytesIO(data)
        try:
            self._read_directory(file)
        except (OSError, UnicodeDecodeError) as exc:
            raise MalformedArchive(str(exc)) from exc

    def _read_directory(self, file: BinaryIO) -> None:
        size = file.seek(0, 2)
        base = max(0, size - _END_SEARCH - _ZIP64_END.size - _ZIP64_LOCATOR_SIZE)
        file.seek(base)
        tail = file.read()
        at = tail.rfind(b"PK\x05\x06", max(0, len(tail) - _END_SEARCH),
                        len(tail) - _END.size + 4)
        if at < 0:
            raise MalformedArchive("File is not a zip file")
        cd_size, cd_offset = _END.unpack_from(tail, at)
        zip64 = at - _ZIP64_LOCATOR_SIZE - _ZIP64_END.size
        if (zip64 >= 0 and tail.startswith(b"PK\x06\x07", at - _ZIP64_LOCATOR_SIZE)
                and tail.startswith(b"PK\x06\x06", zip64)):
            cd_size, cd_offset = _ZIP64_END.unpack_from(tail, zip64)
            at = zip64
        # The central directory ends where the end records start; every
        # offset the archive states is short of its place in the file by
        # what comes before the archive.
        self._directory_start = start = base + at - cd_size
        if start < 0:
            raise MalformedArchive("Bad offset for central directory")
        prefix = start - cd_offset
        file.seek(start)
        cd = file.read(cd_size)
        if len(cd) != cd_size:
            raise MalformedArchive("Truncated central directory")
        entries = []
        pos = 0
        while pos < cd_size:
            if pos + _CENTRAL.size > cd_size:
                raise MalformedArchive("Truncated central directory")
            (sig, version, flags, method, crc, csize, usize,
             name_len, extra_len, comment_len, offset) = _CENTRAL.unpack_from(cd, pos)
            if sig != b"PK\x01\x02":
                raise MalformedArchive("Bad magic number for central directory")
            if version > _MAX_VERSION:
                raise MalformedArchive(f"zip file version {version / 10:.1f}")
            name_at = pos + _CENTRAL.size
            extra_at = name_at + name_len
            pos = extra_at + extra_len + comment_len
            if pos > cd_size:
                raise MalformedArchive("Truncated central directory")
            name = cd[name_at:extra_at]
            # An ASCII name reads the same in cp437, and decodes faster as UTF-8.
            name = name.decode("utf-8" if flags & _UTF8_NAME or name.isascii() else "cp437")
            if usize == _ZIP64_MARK or csize == _ZIP64_MARK or offset == _ZIP64_MARK:
                usize, csize, offset = _zip64_fields(cd[extra_at:extra_at + extra_len],
                                                     [usize, csize, offset])
            entries.append((name, flags, method, crc, csize, usize, offset + prefix))
        self.entries = entries

    def read(self, entry: tuple) -> bytes:
        """The bytes of one of ``entries``; raises what ``_UNREADABLE_ENTRY``
        names for an entry that cannot be read.

        Only STORED and DEFLATED entries are read, as by ``java.util.zip``.
        The local header must start with its signature and hold the
        central name. Deflated data is inflated to at most the stated size
        plus one byte, the output cut to the stated size, and the CRC-32
        checked; data past ``MAX_ENTRY_BYTES`` is refused.
        """
        name, flags, method, crc, csize, size, offset = entry
        if method != _DEFLATED and method != _STORED:
            raise MalformedArchive(f"compression method {method}")
        if flags & _ENCRYPTED_OR_PATCHED:
            raise MalformedArchive(f"encrypted or patched entry (flags 0x{flags:04x})")
        if csize > MAX_ENTRY_BYTES:
            raise MalformedArchive(f"entry data past the {MAX_ENTRY_BYTES}-byte limit")
        if not 0 <= offset <= self._directory_start:
            raise MalformedArchive(f"local header offset {offset} outside the archive")
        encoded = name.encode("utf-8" if flags & _UTF8_NAME else "cp437")
        file = self._file
        file.seek(offset)
        header = file.read(_LOCAL.size + len(encoded))
        if len(header) < _LOCAL.size:
            raise MalformedArchive("Truncated file header")
        sig, name_len, extra_len = _LOCAL.unpack_from(header)
        if sig != b"PK\x03\x04":
            raise MalformedArchive("Bad magic number for file header")
        if name_len != len(encoded) or header[_LOCAL.size:] != encoded:
            raise MalformedArchive(f"local header names another entry than {name!r}")
        file.seek(extra_len, 1)
        data = file.read(csize)
        if len(data) < csize:
            raise EOFError
        if method == _DEFLATED:
            data = zlib.decompressobj(-15).decompress(data, min(size, MAX_ENTRY_BYTES) + 1)
        if len(data) > size:
            data = data[:size]
        if len(data) > MAX_ENTRY_BYTES:
            raise MalformedArchive(f"entry inflates past the {MAX_ENTRY_BYTES}-byte limit")
        if zlib.crc32(data) != crc:
            raise MalformedArchive(f"Bad CRC-32 for file {name!r}")
        return data


def is_metadata(path: str) -> bool:
    """Whether a JAR entry is packaging metadata: anything under
    META-INF/, and a Maven pom.xml or pom.properties in any directory."""
    return (path.startswith("META-INF/") or path in ("pom.xml", "pom.properties")
            or path.endswith(("/pom.xml", "/pom.properties")))


def parse_jar(data: bytes | BinaryIO, bodies: Container[str] | None = None,
              stems: Container[str] | None = None) -> JarArchive:
    """Decode a JAR; per-entry class failures are collected, never fatal.

    ``data`` is the archive's bytes or an open seekable binary file, which
    ``ZipReader`` reads in place: the central directory, then only the
    entries opened.

    An archive whose central directory cannot be read raises
    MalformedArchive. A class entry that cannot be read (a failed CRC,
    data that does not inflate, sizes or offsets outside the archive, a
    local header that does not match, encryption, a compression method
    other than STORED and DEFLATED, data past ``MAX_ENTRY_BYTES``, a file
    cut short) is a per-entry failure ("unreadable entry: ...").

    With ``stems``, a class entry is opened only if its stem (the text
    after the last "/" or "." of its path without ".class": the simple
    name of the class a class loader finds there) is in ``stems``; the
    others go to ``unopened``, unread. Every opened class is parsed by
    ``parse_class``, which is passed ``bodies``: with it, only the Code
    attributes of methods whose unqualified signature is in ``bodies``
    are decoded. A class whose simple name is not its entry's stem is
    logged and listed in ``misnamed`` as well.
    """
    archive = ZipReader(data)
    classes: list[tuple[str, ClassFile]] = []
    unopened: list[str] = []
    misnamed: list[tuple[str, str]] = []
    others: list[str] = []
    failures: list[ParseFailure] = []
    metadata = False
    seen: set[str] = set()
    for entry in archive.entries:
        path = entry[0]
        if path in seen:
            log.warning("duplicate JAR entry %s ignored", path)
            continue
        seen.add(path)
        metadata = metadata or is_metadata(path)
        if not path.endswith(".class"):
            if path.endswith(".jar"):
                log.warning("nested archive %s not recursed into", path)
                others.append(path)
            elif not path.endswith("/"):
                others.append(path)
            continue
        stem = path[max(path.rfind("/"), path.rfind(".", 0, -6)) + 1:-6]
        if stems is not None and stem not in stems:
            unopened.append(path)
            continue
        try:
            raw = archive.read(entry)
        except _UNREADABLE_ENTRY as exc:
            reason = str(exc) or type(exc).__name__     # EOFError has no text
            log.warning("cannot read %s: %s", path, reason)
            failures.append(ParseFailure(path, f"unreadable entry: {reason}"))
            continue
        try:
            cf = parse_class(raw, bodies)
        except ClassParseError as exc:
            log.warning("failed to parse %s: %s", path, exc)
            failures.append(ParseFailure(path, str(exc)))
            continue
        fqn = cf.this_class
        if fqn[fqn.rfind(".") + 1:] != stem:
            log.warning("%s holds class %s", path, fqn)
            misnamed.append((path, fqn))
        classes.append((path, cf))
    return JarArchive(classes=classes, other_entries=others,
                      failures=failures, metadata_present=metadata,
                      unopened=unopened, misnamed=misnamed)

"""Structured model of parsed JAR archives and class files."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import CodeNotDecoded
from .constant_pool import ConstantPool
from .opcodes import FORMAT_OF

ACC_STATIC = 0x0008
ACC_INTERFACE = 0x0200
ACC_ABSTRACT = 0x0400
ACC_SYNTHETIC = 0x1000
ACC_BRIDGE = 0x0040
ACC_NATIVE = 0x0100


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: absolute offset, mnemonic, decoded operands.

    Branch operands are absolute bytecode offsets, never relative ones.
    """

    offset: int
    mnemonic: str
    operands: tuple = ()


@dataclass(frozen=True)
class ExceptionHandler:
    """Protected range [start, end) with handler target and catch type.

    catch_type is a dotted class name, or None for catch-all.
    """

    start: int
    end: int
    handler: int
    catch_type: str | None


@dataclass(frozen=True)
class CodeAttribute:
    max_stack: int
    max_locals: int
    instructions: tuple[Instruction, ...]
    exception_table: tuple[ExceptionHandler, ...] = ()

    def offsets(self) -> set[int]:
        return {ins.offset for ins in self.instructions}


class _Undecoded:
    """The Code attribute of a method ``parse_class`` did not decode.

    It is not None, so such a method never reads as having no code, and
    reading any field of it raises CodeNotDecoded.
    """

    __slots__ = ()

    def __getattr__(self, name):
        if name.startswith("__"):      # copy and pickle probe for these
            raise AttributeError(name)
        raise CodeNotDecoded(f"method body was not decoded (reading {name})")

    def __repr__(self) -> str:
        return "UNDECODED"


UNDECODED = _Undecoded()


@dataclass(frozen=True)
class FieldInfo:
    name: str
    descriptor: str
    access_flags: int


@dataclass(frozen=True)
class MethodInfo:
    name: str
    descriptor: str
    access_flags: int
    code: CodeAttribute | _Undecoded | None = None    # None: no Code attribute

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)

    @property
    def is_synthetic(self) -> bool:
        return bool(self.access_flags & (ACC_SYNTHETIC | ACC_BRIDGE))


# Operand formats whose first operand is a constant-pool index.
_POOL_FORMATS = frozenset({"cp8", "cp16", "iface", "indy", "multi"})


def resolved_code(method: MethodInfo, pool: ConstantPool) -> tuple | None:
    """A method's code with pool indices replaced by what they name.

    The key holds the descriptor, ``is_static``, the exception table as
    (start, end, handler, catch type) tuples and, per instruction,
    (offset, mnemonic, operands) with each pool operand resolved by
    ``ConstantPool.resolve``: every input lifting reads, and nothing else
    (not ``max_stack`` or ``max_locals``). Two methods with equal keys
    lift to the same IR even when their pools are laid out differently.
    None for a method without code. Raises BadConstantPoolRef when a pool
    operand does not resolve.
    """
    code = method.code
    if code is None:
        return None
    return (method.descriptor, method.is_static,
            tuple((h.start, h.end, h.handler, h.catch_type)
                  for h in code.exception_table),
            tuple((ins.offset, ins.mnemonic,
                   (pool.resolve(ins.operands[0]),) + ins.operands[1:]
                   if FORMAT_OF[ins.mnemonic] in _POOL_FORMATS else ins.operands)
                  for ins in code.instructions))


def code_digest(method: MethodInfo, pool: ConstantPool) -> str | None:
    """A 16-byte blake2b, as hex, of ``resolved_code``.

    The key is built only of str, int, bytes, bool, None and tuples, so
    its ``ascii()`` is a canonical serialization: the same in every
    process, under every hash seed and every Unicode database, and
    independent of the declaring class's name. Equal digests stand for
    equal keys, hence equal lifted IR. None for a method without code;
    raises BadConstantPoolRef as ``resolved_code`` does.
    """
    key = resolved_code(method, pool)
    if key is None:
        return None
    return hashlib.blake2b(ascii(key).encode("ascii"), digest_size=16).hexdigest()


@dataclass(frozen=True)
class ClassFile:
    major_version: int
    access_flags: int
    this_class: str                      # dotted FQN
    super_class: str | None              # dotted FQN, None for java.lang.Object itself
    interfaces: tuple[str, ...]          # dotted FQNs
    fields: tuple[FieldInfo, ...]
    methods: tuple[MethodInfo, ...]
    constant_pool: ConstantPool = field(compare=False, repr=False, default=None)

    @property
    def is_interface(self) -> bool:
        return bool(self.access_flags & ACC_INTERFACE)


@dataclass
class ParseFailure:
    """A JAR entry that looked like a class but did not decode."""

    path: str
    error: str


@dataclass
class JarArchive:
    """Decoded JAR: class entries parsed, everything else kept opaque.

    Classes only header-checked (see ``parse_jar``'s ``wanted``) are in
    ``unparsed``, never in ``classes``: listed there with no methods, every
    method of theirs would read as absent.
    """

    classes: list[tuple[str, ClassFile]]          # (entry path, parsed class)
    other_entries: list[str]                      # paths of non-class entries
    failures: list[ParseFailure]
    metadata_present: bool
    unparsed: list[tuple[str, str]] = field(default_factory=list)  # (entry path, dotted name)

    def class_files(self) -> list[ClassFile]:
        return [cf for _, cf in self.classes]

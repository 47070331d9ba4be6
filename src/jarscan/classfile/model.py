"""Structured model of parsed JAR archives and class files."""

from __future__ import annotations

from dataclasses import dataclass, field

from .constant_pool import ConstantPool

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
    code: CodeAttribute | None = None

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & ACC_STATIC)

    @property
    def is_synthetic(self) -> bool:
        return bool(self.access_flags & (ACC_SYNTHETIC | ACC_BRIDGE))


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

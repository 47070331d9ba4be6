"""Structured model of parsed JAR archives and class files."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from ..errors import ClassParseError, CodeNotDecoded
from .constant_pool import (TAG_CLASS, TAG_FIELDREF, TAG_INTERFACE_METHODREF,
                            TAG_INVOKE_DYNAMIC, TAG_METHODREF, ConstantPool)
from .constructs import strip_packages
from .descriptors import parse_method_descriptor, render_type
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


# Mnemonics whose first operand is a constant-pool index.
_POOL_MNEMONICS = frozenset(m for m, fmt in FORMAT_OF.items()
                            if fmt in ("cp8", "cp16", "iface", "indy", "multi"))


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
                   if ins.mnemonic in _POOL_MNEMONICS else ins.operands)
                  for ins in code.instructions))


def key_digest(key: tuple) -> str:
    """A 16-byte blake2b, as hex, of a code key's ``ascii()``.

    The keys (``resolved_code``, ``stripped_code``) are built only of str,
    int, bytes, bool, None and tuples, so ``ascii()`` is a canonical
    serialization: the same in every process, under every hash seed and
    every Unicode database. Equal digests stand for equal keys.
    """
    return hashlib.blake2b(ascii(key).encode("ascii"), digest_size=16).hexdigest()


def code_digest(method: MethodInfo, pool: ConstantPool) -> str | None:
    """The ``key_digest`` of ``resolved_code``: equal digests lift to
    equal IR, independent of the declaring class's name. None for a
    method without code; raises BadConstantPoolRef as ``resolved_code``
    does."""
    key = resolved_code(method, pool)
    return None if key is None else key_digest(key)


# Classes the IR pipeline recognises by name: normalize rewrites their
# append chains into one concat. A stripped key keeps them qualified.
STRING_BUILDERS = ("java.lang.StringBuilder", "java.lang.StringBuffer")

# Internal class names a stripped key can stand for: slash-separated
# identifier segments, so no name can run into a label's separators.
_PLAIN_NAME = re.compile(r"[\w$]+(?:/[\w$]+)*")

_MEMBER_TAGS = frozenset({TAG_FIELDREF, TAG_METHODREF, TAG_INTERFACE_METHODREF})

# Class operands lifting shows as a type ("a.b.C[]"), where an array class
# is otherwise shown as its descriptor with dots ("[La.b.C;").
_RENDERED_CLASS_OPS = frozenset({"anewarray", "multianewarray"})


class _NoStrippedKey(Exception):
    """A class name or descriptor a stripped key cannot stand for."""


class _Stripper:
    """Builds one stripped key. Each class name becomes the package-stripped
    text its CPG label carries, paired with the order in which the name
    first occurred, so equal keys map names one to one."""

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.texts: dict[str, object] = {}     # label text -> its key part
        self.descriptors: dict[str, tuple] = {}

    def name(self, internal: str, text: str):
        if not _PLAIN_NAME.fullmatch(internal):
            raise _NoStrippedKey(internal)
        got = self.texts.get(text)     # a plain name's text names it alone
        if got is None:
            if internal.replace("/", ".") in STRING_BUILDERS:
                got = text
            else:
                got = strip_packages(text), self.ids.setdefault(internal, len(self.ids))
            self.texts[text] = got
        return got

    def field_type(self, token: str):
        """One field-descriptor token, shown as ``render_type`` shows it;
        a primitive one stays as it is. The parser checks no descriptor a
        Fieldref names, so an unterminated object type is checked here."""
        elem = token.lstrip("[")
        if not elem.startswith("L"):
            return token
        if not elem.endswith(";"):
            raise _NoStrippedKey(token)
        return self.name(elem[1:-1], render_type(token))

    def descriptor(self, desc: str) -> tuple:
        got = self.descriptors.get(desc)
        if got is None:
            try:
                params, ret = parse_method_descriptor(desc)
            except ClassParseError:
                raise _NoStrippedKey(desc) from None
            got = self.descriptors[desc] = (tuple(map(self.field_type, params)),
                                            self.field_type(ret))
        return got

    def class_ref(self, internal: str, rendered: bool):
        """A Class constant: a class name or an array descriptor; an array
        of primitives, or a malformed one, stays as it is."""
        elem = internal.lstrip("[")
        if elem == internal:
            return self.name(internal, internal.replace("/", "."))
        if not (elem.startswith("L") and elem.endswith(";")):
            return internal
        text = render_type(internal) if rendered else internal.replace("/", ".")
        return self.name(elem[1:-1], text)

    def operand(self, entry: tuple, rendered: bool):
        """One ``ConstantPool.resolve`` operand. Lifting reads a class, a
        member's owner, name and descriptor, or an invokedynamic's name and
        descriptor; other constants stay as they are."""
        tag, value = entry
        if tag == TAG_CLASS:
            return tag, self.class_ref(value[0][1], rendered)
        if tag in _MEMBER_TAGS:
            (_, ((_, owner),)), (_, ((_, name), (_, desc))) = value
            typ = self.field_type(desc) if tag == TAG_FIELDREF else self.descriptor(desc)
            return tag, self.class_ref(owner, False), name, typ
        if tag == TAG_INVOKE_DYNAMIC:
            bootstrap, (_, ((_, name), (_, desc))) = value
            return tag, bootstrap, name, self.descriptor(desc)
        return entry


def stripped_code(key: tuple) -> tuple | None:
    """A ``resolved_code`` key made invariant under package relocation.

    Every class name, whether a Class constant, a member's owner, a catch
    type or inside a descriptor, becomes the text its CPG label carries
    (dotted, or as ``render_type`` renders it) run through
    ``strip_packages``, plus the order of the name's first occurrence.
    ``STRING_BUILDERS`` stay qualified. String constants, numbers and
    member names stay verbatim. So the key strips no more than
    ``unqualify`` strips from labels: two bodies with equal stripped keys
    differ by a one-to-one renaming of classes that ``strip_packages``
    cannot see, and lift to triplet sets with equal ``unqualify``. None
    when a class name is not plain identifier segments or a method
    descriptor does not parse.
    """
    desc, is_static, handlers, instructions = key
    stripper = _Stripper()
    try:
        return (stripper.descriptor(desc), is_static,
                tuple((start, end, handler,
                       None if catch is None
                       else stripper.class_ref(catch.replace(".", "/"), False))
                      for start, end, handler, catch in handlers),
                tuple((offset, mnemonic,
                       (stripper.operand(ops[0], mnemonic in _RENDERED_CLASS_OPS),)
                       + ops[1:] if mnemonic in _POOL_MNEMONICS else ops)
                      for offset, mnemonic, ops in instructions))
    except _NoStrippedKey:
        return None


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

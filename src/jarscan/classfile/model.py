"""Structured model of parsed JAR archives and class files."""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from ..errors import ClassParseError, CodeNotDecoded
from .constant_pool import (MEMBER_TAGS, TAG_CLASS, TAG_FIELDREF, TAG_INVOKE_DYNAMIC,
                            ConstantPool, resolved_class, resolved_member)
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
class CodeAttribute:
    """A decoded Code attribute.

    Each instruction is an (offset, mnemonic, operands) tuple, its branch
    operands absolute offsets; each handler is a (start, end, handler,
    catch type) tuple, the protected range [start, end) and the catch type
    a dotted class name, or None for catch-all.
    """

    max_stack: int
    max_locals: int
    instructions: tuple[tuple[int, str, tuple], ...]
    exception_table: tuple[tuple[int, int, int, str | None], ...] = ()


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

    The key holds the descriptor, ``is_static``, the parser's exception
    table and its instruction tuples, each pool operand resolved by
    ``ConstantPool.resolve``: the decoder's output types are part of
    ``key_digest``'s contract. It is lifting's only input (``lift`` takes
    it and nothing else; not ``max_stack``, ``max_locals`` or the pool),
    so two methods with equal keys lift to the same IR even when their
    pools are laid out differently. None for a method without code.
    Raises BadConstantPoolRef when a pool operand does not resolve, even
    in unreachable code: such a body has no key and does not lift.
    """
    code = method.code
    if code is None:
        return None
    return (method.descriptor, method.is_static, code.exception_table,
            tuple((offset, m, (pool.resolve(ops[0]),) + ops[1:]
                   if m in _POOL_MNEMONICS else ops)
                  for offset, m, ops in code.instructions))


def key_digest(key: tuple) -> str:
    """A 16-byte blake2b, as hex, of a code key's ``ascii()``.

    The keys (``resolved_code``, ``stripped_code``) are built only of str,
    int, bytes, bool, None and tuples, so ``ascii()`` is a canonical
    serialization: the same in every process, under every hash seed and
    every Unicode database. Equal digests stand for equal keys, so equal
    digests of ``resolved_code`` are equal lifting inputs, hence equal IR.
    """
    return hashlib.blake2b(ascii(key).encode("ascii"), digest_size=16).hexdigest()


# Classes the IR pipeline recognises by name: normalize rewrites their
# append chains into one concat. A stripped key keeps them qualified.
STRING_BUILDERS = ("java.lang.StringBuilder", "java.lang.StringBuffer")

# Internal class names a stripped key can stand for: slash-separated
# identifier segments, so no name can run into a label's separators.
_PLAIN_NAME = re.compile(r"[\w$]+(?:/[\w$]+)*")

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
        tag = entry[0]
        if tag == TAG_CLASS:
            return tag, self.class_ref(resolved_class(entry), rendered)
        if tag in MEMBER_TAGS:
            owner, name, desc = resolved_member(entry)
            typ = self.field_type(desc) if tag == TAG_FIELDREF else self.descriptor(desc)
            return tag, self.class_ref(owner, False), name, typ
        if tag == TAG_INVOKE_DYNAMIC:
            bootstrap, name, desc = resolved_member(entry, indy=True)
            return tag, bootstrap, name, self.descriptor(desc)
        return entry


def stripped_code(key: tuple) -> tuple | None:
    """A ``resolved_code`` key, which is lifting's input, made invariant
    under package relocation.

    Every class name, whether a Class constant, a member's owner, a catch
    type or inside a descriptor, becomes the text its CPG label carries
    (dotted, or as ``render_type`` renders it) run through
    ``strip_packages``, plus the order of the name's first occurrence.
    ``STRING_BUILDERS`` stay qualified. String constants, numbers and
    member names stay verbatim. So the key strips no more than
    ``unqualify`` strips from labels: two bodies with equal stripped keys
    differ by a one-to-one renaming of classes that ``strip_packages``
    cannot see. Lifting reads nothing but the key, so the two lift to
    triplet sets with equal ``unqualify``. None when a class name is not
    plain identifier segments or a method descriptor does not parse.
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
    # Each method's ``method_signature``, in method order, and each with
    # packages stripped, as ``parse_class`` puts them together from the
    # fields above: derived, so they take no part in equality or hashing.
    method_fqns: tuple[str, ...] = field(compare=False, repr=False)
    unqualified_method_fqns: tuple[str, ...] = field(compare=False, repr=False)
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

    Class entries never opened (see ``parse_jar``'s ``stems``) are in
    ``unopened``. An opened class whose simple name is not its entry's
    stem is also in ``misnamed``.
    """

    classes: list[tuple[str, ClassFile]]          # (entry path, parsed class)
    other_entries: list[str]                      # paths of non-class entries
    failures: list[ParseFailure]
    metadata_present: bool
    unopened: list[str] = field(default_factory=list)              # entry paths
    misnamed: list[tuple[str, str]] = field(default_factory=list)  # (entry path, dotted name)

    def class_files(self) -> list[ClassFile]:
        return [cf for _, cf in self.classes]

"""Exception hierarchy shared across the package."""


class JarscanError(Exception):
    """Base class for all errors raised by this package."""


class MalformedArchive(JarscanError):
    """Input is not a readable ZIP/JAR container."""


class ClassParseError(JarscanError):
    """A class file could not be decoded."""


class BadMagic(ClassParseError):
    """Class bytes do not start with 0xCAFEBABE."""


class TruncatedInput(ClassParseError):
    """Class bytes ended in the middle of a structure."""


class UnsupportedVersion(ClassParseError):
    """Class file major version outside the supported 45..69 range."""


class BadConstantPoolRef(ClassParseError):
    """A constant-pool index is out of range or has an unexpected tag."""


class CodeNotDecoded(JarscanError):
    """A method body ``parse_class`` was told to skip was read."""


class UnsupportedFeature(JarscanError):
    """The class emitter was asked for something outside its subset."""


class LiftError(JarscanError):
    """Bytecode could not be lifted to register IR."""


class StackUnderflow(LiftError):
    """An instruction popped from an empty operand stack."""


class InconsistentStackDepthAtJoin(LiftError):
    """Two paths reach the same block with different stack shapes."""


class UnsupportedInstruction(LiftError):
    """Opcode deliberately rejected by the lifter (jsr/ret)."""


class DuplicateClass(JarscanError):
    """One side of a fix declares the same class in two class files."""


class EmptyDiff(JarscanError):
    """Pre- and post-fix inputs are identical after normalization."""


class KbFormatError(JarscanError):
    """Knowledge-base file cannot be used."""


class VersionMismatch(KbFormatError):
    """Knowledge-base file has an incompatible format version."""


class CorruptFile(KbFormatError):
    """Knowledge-base file failed its checksum."""


class RelocationCollision(JarscanError):
    """Two inputs map to the same fully qualified name after relocation."""

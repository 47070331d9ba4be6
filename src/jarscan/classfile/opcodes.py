"""JVM opcode table: the one place that knows each instruction's shape.

``OPCODES`` maps each opcode to its mnemonic and operand format code:

  ""       no operands
  "i8"     signed byte immediate
  "i16"    signed short immediate
  "u8"     unsigned byte (newarray element type)
  "cp8"    1-byte constant-pool index
  "cp16"   2-byte constant-pool index
  "local"  local-variable slot (2 bytes under wide)
  "iinc"   slot + signed increment (widened under wide)
  "br16"   2-byte signed branch offset, decoded to an absolute target
  "br32"   4-byte signed branch offset, decoded to an absolute target
  "table"  tableswitch (padded, default/low/high/targets)
  "lookup" lookupswitch (padded, default/npairs/match-target pairs)
  "iface"  invokeinterface: cp16 + count byte + zero byte
  "indy"   invokedynamic: cp16 + two zero bytes
  "multi"  multianewarray: cp16 + dimension count byte

``LAYOUT`` holds the ``struct.Struct`` of the operand bytes that follow
the opcode for every fixed-size format, and ``WIDE_LAYOUT`` those of the
two formats the wide prefix widens. Unpacking a layout gives an
instruction's decoded operands, packing them gives its bytes; a branch
operand is the offset relative to the instruction, which decoding makes
absolute. The two switch formats are variable-sized: ``TABLESWITCH`` and
``LOOKUPSWITCH`` are their headers after the padding, and their targets
are read and written in code. ``parser.decode_instructions`` and the
emitter's encoder both read these tables.

``JUMPS`` (one branch target) and ``SWITCHES`` are derived from the
formats, ``TERMINAL`` lists the instructions control never falls through,
and ``branch_targets`` and ``map_targets`` read and rewrite the target
operands of one instruction, in decoded form (offsets) or assembler form
(labels) alike.
``LOCALS`` gives each local-variable load or store its base mnemonic,
implicit slot, value category and direction. ``EFFECTS`` gives every
other instruction with a fixed stack effect its IR kind, operator,
computation type and the categories it pops and pushes; ``SHUFFLES``
gives pop2, swap and the dup family the slot groups they take and put
back. Only the pool-dependent ops (ldc*, field access, invoke*,
multianewarray) are in none of the three, and no consumer parses a
mnemonic's spelling: the decoder and assembler read the layouts, and
the lifter, the emitter's frame sizing and ``modify`` read these.
"""

import struct
from typing import Callable, NamedTuple

OPCODES: dict[int, tuple[str, str]] = {
    0x00: ("nop", ""),
    0x01: ("aconst_null", ""),
    0x02: ("iconst_m1", ""),
    0x03: ("iconst_0", ""),
    0x04: ("iconst_1", ""),
    0x05: ("iconst_2", ""),
    0x06: ("iconst_3", ""),
    0x07: ("iconst_4", ""),
    0x08: ("iconst_5", ""),
    0x09: ("lconst_0", ""),
    0x0A: ("lconst_1", ""),
    0x0B: ("fconst_0", ""),
    0x0C: ("fconst_1", ""),
    0x0D: ("fconst_2", ""),
    0x0E: ("dconst_0", ""),
    0x0F: ("dconst_1", ""),
    0x10: ("bipush", "i8"),
    0x11: ("sipush", "i16"),
    0x12: ("ldc", "cp8"),
    0x13: ("ldc_w", "cp16"),
    0x14: ("ldc2_w", "cp16"),
    0x15: ("iload", "local"),
    0x16: ("lload", "local"),
    0x17: ("fload", "local"),
    0x18: ("dload", "local"),
    0x19: ("aload", "local"),
    0x1A: ("iload_0", ""),
    0x1B: ("iload_1", ""),
    0x1C: ("iload_2", ""),
    0x1D: ("iload_3", ""),
    0x1E: ("lload_0", ""),
    0x1F: ("lload_1", ""),
    0x20: ("lload_2", ""),
    0x21: ("lload_3", ""),
    0x22: ("fload_0", ""),
    0x23: ("fload_1", ""),
    0x24: ("fload_2", ""),
    0x25: ("fload_3", ""),
    0x26: ("dload_0", ""),
    0x27: ("dload_1", ""),
    0x28: ("dload_2", ""),
    0x29: ("dload_3", ""),
    0x2A: ("aload_0", ""),
    0x2B: ("aload_1", ""),
    0x2C: ("aload_2", ""),
    0x2D: ("aload_3", ""),
    0x2E: ("iaload", ""),
    0x2F: ("laload", ""),
    0x30: ("faload", ""),
    0x31: ("daload", ""),
    0x32: ("aaload", ""),
    0x33: ("baload", ""),
    0x34: ("caload", ""),
    0x35: ("saload", ""),
    0x36: ("istore", "local"),
    0x37: ("lstore", "local"),
    0x38: ("fstore", "local"),
    0x39: ("dstore", "local"),
    0x3A: ("astore", "local"),
    0x3B: ("istore_0", ""),
    0x3C: ("istore_1", ""),
    0x3D: ("istore_2", ""),
    0x3E: ("istore_3", ""),
    0x3F: ("lstore_0", ""),
    0x40: ("lstore_1", ""),
    0x41: ("lstore_2", ""),
    0x42: ("lstore_3", ""),
    0x43: ("fstore_0", ""),
    0x44: ("fstore_1", ""),
    0x45: ("fstore_2", ""),
    0x46: ("fstore_3", ""),
    0x47: ("dstore_0", ""),
    0x48: ("dstore_1", ""),
    0x49: ("dstore_2", ""),
    0x4A: ("dstore_3", ""),
    0x4B: ("astore_0", ""),
    0x4C: ("astore_1", ""),
    0x4D: ("astore_2", ""),
    0x4E: ("astore_3", ""),
    0x4F: ("iastore", ""),
    0x50: ("lastore", ""),
    0x51: ("fastore", ""),
    0x52: ("dastore", ""),
    0x53: ("aastore", ""),
    0x54: ("bastore", ""),
    0x55: ("castore", ""),
    0x56: ("sastore", ""),
    0x57: ("pop", ""),
    0x58: ("pop2", ""),
    0x59: ("dup", ""),
    0x5A: ("dup_x1", ""),
    0x5B: ("dup_x2", ""),
    0x5C: ("dup2", ""),
    0x5D: ("dup2_x1", ""),
    0x5E: ("dup2_x2", ""),
    0x5F: ("swap", ""),
    0x60: ("iadd", ""),
    0x61: ("ladd", ""),
    0x62: ("fadd", ""),
    0x63: ("dadd", ""),
    0x64: ("isub", ""),
    0x65: ("lsub", ""),
    0x66: ("fsub", ""),
    0x67: ("dsub", ""),
    0x68: ("imul", ""),
    0x69: ("lmul", ""),
    0x6A: ("fmul", ""),
    0x6B: ("dmul", ""),
    0x6C: ("idiv", ""),
    0x6D: ("ldiv", ""),
    0x6E: ("fdiv", ""),
    0x6F: ("ddiv", ""),
    0x70: ("irem", ""),
    0x71: ("lrem", ""),
    0x72: ("frem", ""),
    0x73: ("drem", ""),
    0x74: ("ineg", ""),
    0x75: ("lneg", ""),
    0x76: ("fneg", ""),
    0x77: ("dneg", ""),
    0x78: ("ishl", ""),
    0x79: ("lshl", ""),
    0x7A: ("ishr", ""),
    0x7B: ("lshr", ""),
    0x7C: ("iushr", ""),
    0x7D: ("lushr", ""),
    0x7E: ("iand", ""),
    0x7F: ("land", ""),
    0x80: ("ior", ""),
    0x81: ("lor", ""),
    0x82: ("ixor", ""),
    0x83: ("lxor", ""),
    0x84: ("iinc", "iinc"),
    0x85: ("i2l", ""),
    0x86: ("i2f", ""),
    0x87: ("i2d", ""),
    0x88: ("l2i", ""),
    0x89: ("l2f", ""),
    0x8A: ("l2d", ""),
    0x8B: ("f2i", ""),
    0x8C: ("f2l", ""),
    0x8D: ("f2d", ""),
    0x8E: ("d2i", ""),
    0x8F: ("d2l", ""),
    0x90: ("d2f", ""),
    0x91: ("i2b", ""),
    0x92: ("i2c", ""),
    0x93: ("i2s", ""),
    0x94: ("lcmp", ""),
    0x95: ("fcmpl", ""),
    0x96: ("fcmpg", ""),
    0x97: ("dcmpl", ""),
    0x98: ("dcmpg", ""),
    0x99: ("ifeq", "br16"),
    0x9A: ("ifne", "br16"),
    0x9B: ("iflt", "br16"),
    0x9C: ("ifge", "br16"),
    0x9D: ("ifgt", "br16"),
    0x9E: ("ifle", "br16"),
    0x9F: ("if_icmpeq", "br16"),
    0xA0: ("if_icmpne", "br16"),
    0xA1: ("if_icmplt", "br16"),
    0xA2: ("if_icmpge", "br16"),
    0xA3: ("if_icmpgt", "br16"),
    0xA4: ("if_icmple", "br16"),
    0xA5: ("if_acmpeq", "br16"),
    0xA6: ("if_acmpne", "br16"),
    0xA7: ("goto", "br16"),
    0xA8: ("jsr", "br16"),
    0xA9: ("ret", "local"),
    0xAA: ("tableswitch", "table"),
    0xAB: ("lookupswitch", "lookup"),
    0xAC: ("ireturn", ""),
    0xAD: ("lreturn", ""),
    0xAE: ("freturn", ""),
    0xAF: ("dreturn", ""),
    0xB0: ("areturn", ""),
    0xB1: ("return", ""),
    0xB2: ("getstatic", "cp16"),
    0xB3: ("putstatic", "cp16"),
    0xB4: ("getfield", "cp16"),
    0xB5: ("putfield", "cp16"),
    0xB6: ("invokevirtual", "cp16"),
    0xB7: ("invokespecial", "cp16"),
    0xB8: ("invokestatic", "cp16"),
    0xB9: ("invokeinterface", "iface"),
    0xBA: ("invokedynamic", "indy"),
    0xBB: ("new", "cp16"),
    0xBC: ("newarray", "u8"),
    0xBD: ("anewarray", "cp16"),
    0xBE: ("arraylength", ""),
    0xBF: ("athrow", ""),
    0xC0: ("checkcast", "cp16"),
    0xC1: ("instanceof", "cp16"),
    0xC2: ("monitorenter", ""),
    0xC3: ("monitorexit", ""),
    # 0xC4 "wide" is a prefix, fused into the following instruction.
    0xC5: ("multianewarray", "multi"),
    0xC6: ("ifnull", "br16"),
    0xC7: ("ifnonnull", "br16"),
    0xC8: ("goto_w", "br32"),
    0xC9: ("jsr_w", "br32"),
}

WIDE = 0xC4

MNEMONIC_TO_OPCODE = {name: op for op, (name, _) in OPCODES.items()}
FORMAT_OF = {name: fmt for _, (name, fmt) in OPCODES.items()}

# newarray element type codes
NEWARRAY_TYPES = {
    4: "boolean", 5: "char", 6: "float", 7: "double",
    8: "byte", 9: "short", 10: "int", 11: "long",
}
NEWARRAY_CODES = {v: k for k, v in NEWARRAY_TYPES.items()}

# Operand bytes after the opcode, per fixed-size format.
LAYOUT: dict[str, struct.Struct] = {
    "": struct.Struct(""),
    "i8": struct.Struct(">b"),
    "i16": struct.Struct(">h"),
    "u8": struct.Struct(">B"),
    "cp8": struct.Struct(">B"),
    "cp16": struct.Struct(">H"),
    "local": struct.Struct(">B"),
    "iinc": struct.Struct(">Bb"),
    "br16": struct.Struct(">h"),
    "br32": struct.Struct(">i"),
    "iface": struct.Struct(">HBx"),
    "indy": struct.Struct(">H2x"),
    "multi": struct.Struct(">HB"),
}
# Operand bytes after the wide prefix and the opcode.
WIDE_LAYOUT: dict[str, struct.Struct] = {
    "local": struct.Struct(">H"),
    "iinc": struct.Struct(">Hh"),
}
# The switch formats after their padding: this header, then high - low + 1
# targets (tableswitch) or npairs (match, target) pairs (lookupswitch).
TABLESWITCH = struct.Struct(">iii")      # default, low, high
LOOKUPSWITCH = struct.Struct(">ii")      # default, npairs
# Formats whose one operand is a branch offset, relative in the bytes.
RELATIVE_FORMATS = frozenset({"br16", "br32"})

# Mnemonics with one branch-target operand: the if, goto and jsr families.
JUMPS = frozenset(m for m, fmt in FORMAT_OF.items() if fmt in RELATIVE_FORMATS)
SWITCHES = frozenset(m for m, fmt in FORMAT_OF.items() if fmt in ("table", "lookup"))
# Mnemonics after which control never falls through to the next instruction.
TERMINAL = SWITCHES | {"goto", "goto_w", "athrow", "ret", "return",
                       "ireturn", "lreturn", "freturn", "dreturn", "areturn"}


def branch_targets(mnemonic: str, operands: tuple) -> tuple:
    """The branch targets among one instruction's operands, default first:
    absolute offsets in decoded form, labels in assembler form."""
    if mnemonic in JUMPS:
        return operands[:1]
    if mnemonic == "tableswitch":
        return (operands[0], *operands[3])
    if mnemonic == "lookupswitch":
        return (operands[0], *(target for _match, target in operands[1]))
    return ()


def map_targets(mnemonic: str, operands: tuple, f: Callable) -> tuple:
    """``operands`` with each branch target t replaced by f(t), in operand order."""
    if mnemonic in JUMPS:
        return (f(operands[0]),)
    if mnemonic == "tableswitch":
        default, low, high, targets = operands
        return (f(default), low, high, tuple(map(f, targets)))
    if mnemonic == "lookupswitch":
        default, pairs = operands
        return (f(default), tuple((match, f(target)) for match, target in pairs))
    return operands


class LocalAccess(NamedTuple):
    """What a local-variable load or store mnemonic does."""

    base: str           # the mnemonic with an explicit slot operand, e.g. "iload"
    slot: int | None    # the slot a short form implies; None when it is an operand
    category: int       # 1, or 2 for long and double
    store: bool

    def slot_of(self, operands) -> int:
        """The slot read or written, given the instruction's operands."""
        return operands[0] if self.slot is None else self.slot


LOCALS: dict[str, LocalAccess] = {
    f"{kind}{verb}{suffix}": LocalAccess(kind + verb, slot, category, verb == "store")
    for kind, category in (("i", 1), ("l", 2), ("f", 1), ("d", 2), ("a", 1))
    for verb in ("load", "store")
    for suffix, slot in (("", None), ("_0", 0), ("_1", 1), ("_2", 2), ("_3", 3))
}


class Effect(NamedTuple):
    """What an instruction with a fixed stack effect computes."""

    kind: str                # the IR it lifts to: const, bin, un, cmp, aload, if, ...
    op: object               # operator, condition or constant; None if none or the operand
    jtype: str | None        # int, long, float, double or ref (a conversion's result type)
    pops: tuple[int, ...]    # categories popped, deepest first
    push: int                # category pushed, 0 for none


_PRIMS = {"i": ("int", 1), "l": ("long", 2), "f": ("float", 1), "d": ("double", 2)}
_INTEGRAL = {t: _PRIMS[t] for t in "il"}
_TYPES = {**_PRIMS, "a": ("ref", 1)}
_ELEMENTS = {**_TYPES, "b": ("int", 1), "c": ("int", 1), "s": ("int", 1)}
_CONDS = ("eq", "ne", "lt", "ge", "gt", "le")

EFFECTS: dict[str, Effect] = {
    "nop": Effect("nop", None, None, (), 0),
    "aconst_null": Effect("const", None, "ref", (), 1),
    **{f"iconst_{'m1' if v < 0 else v}": Effect("const", v, "int", (), 1) for v in range(-1, 6)},
    **{f"{t}const_{v}": Effect("const", cast(v), _PRIMS[t][0], (), _PRIMS[t][1])
       for t, cast, count in (("l", int, 2), ("f", float, 3), ("d", float, 2))
       for v in range(count)},
    # The constant is the operand.
    **dict.fromkeys(("bipush", "sipush"), Effect("const", None, "int", (), 1)),
    **{t + "aload": Effect("aload", None, jt, (1, 1), cat) for t, (jt, cat) in _ELEMENTS.items()},
    **{t + "astore": Effect("astore", None, jt, (1, 1, cat), 0)
       for t, (jt, cat) in _ELEMENTS.items()},
    "pop": Effect("pop", None, None, (1,), 0),
    **{t + op: Effect("bin", op, jt, (cat, cat), cat) for t, (jt, cat) in _PRIMS.items()
       for op in ("add", "sub", "mul", "div", "rem")},
    **{t + op: Effect("bin", op, jt, (cat, cat), cat) for t, (jt, cat) in _INTEGRAL.items()
       for op in ("and", "or", "xor")},
    **{t + op: Effect("bin", op, jt, (cat, 1), cat) for t, (jt, cat) in _INTEGRAL.items()
       for op in ("shl", "shr", "ushr")},
    **{t + "neg": Effect("un", "neg_" + jt, jt, (cat,), cat) for t, (jt, cat) in _PRIMS.items()},
    "iinc": Effect("iinc", None, "int", (), 0),
    **{f"{a}2{b}": Effect("un", f"{a}2{b}", bt, (acat,), bcat)
       for a, (_at, acat) in _PRIMS.items() for b, (bt, bcat) in _PRIMS.items() if a != b},
    **{f"i2{b}": Effect("un", f"i2{b}", "int", (1,), 1) for b in "bcs"},
    "lcmp": Effect("cmp", "lcmp", "long", (2, 2), 1),
    **{f"{t}cmp{bias}": Effect("cmp", f"{t}cmp{bias}", jt, (cat, cat), 1)
       for t, (jt, cat) in _PRIMS.items() if t in "fd" for bias in "lg"},
    **{"if" + c: Effect("if", c, "int", (1,), 0) for c in _CONDS},
    **{"if_icmp" + c: Effect("if", c, "int", (1, 1), 0) for c in _CONDS},
    **{"if_acmp" + c: Effect("if", c, "ref", (1, 1), 0) for c in ("eq", "ne")},
    "ifnull": Effect("if", "eq", "ref", (1,), 0),
    "ifnonnull": Effect("if", "ne", "ref", (1,), 0),
    **dict.fromkeys(("goto", "goto_w"), Effect("goto", None, None, (), 0)),
    **dict.fromkeys(("jsr", "jsr_w"), Effect("subroutine", None, None, (), 1)),
    "ret": Effect("subroutine", None, None, (), 0),
    **dict.fromkeys(SWITCHES, Effect("switch", None, "int", (1,), 0)),
    **{t + "return": Effect("return", None, jt, (cat,), 0) for t, (jt, cat) in _TYPES.items()},
    "return": Effect("return", None, None, (), 0),
    "athrow": Effect("throw", None, "ref", (1,), 0),
    # The pool operand of new, anewarray, checkcast and instanceof names a class.
    "new": Effect("new", None, "ref", (), 1),
    "newarray": Effect("newarray", None, "ref", (1,), 1),
    "anewarray": Effect("newarray", None, "ref", (1,), 1),
    "checkcast": Effect("checkcast", None, "ref", (1,), 1),
    "instanceof": Effect("instanceof", None, "int", (1,), 1),
    "arraylength": Effect("un", "arraylength", "int", (1,), 1),
    "monitorenter": Effect("monitor", "enter", "ref", (1,), 0),
    "monitorexit": Effect("monitor", "exit", "ref", (1,), 0),
}


class Shuffle(NamedTuple):
    """A stack shuffle: the groups of slots it takes, topmost first, and
    the taken groups it pushes back, bottom first, by their index."""

    takes: tuple[int, ...]
    puts: tuple[int, ...]


SHUFFLES: dict[str, Shuffle] = {
    "pop2": Shuffle((2,), ()),
    "dup": Shuffle((1,), (0, 0)),
    "dup_x1": Shuffle((1, 1), (0, 1, 0)),
    "dup_x2": Shuffle((1, 2), (0, 1, 0)),
    "dup2": Shuffle((2,), (0, 0)),
    "dup2_x1": Shuffle((2, 1), (0, 1, 0)),
    "dup2_x2": Shuffle((2, 2), (0, 1, 0)),
    "swap": Shuffle((1, 1), (0, 1)),
}

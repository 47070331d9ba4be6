"""Class-file emission: a constant-pool builder, a label-based code
assembler, and a small builder model sufficient for synthetic test classes.

The emitter covers the constant kinds Utf8, Class, NameAndType, Fieldref,
Methodref, String, Integer, Long, Float and Double; anything else raises
UnsupportedFeature. The assembler first rewrites each item into a real
instruction in the decoder's form, an (offset, mnemonic, operands) tuple:
a pseudo-op (``push_int``, ``ldc_int`` and the other ``ldc_*``) becomes
the shortest real mnemonic, a symbolic operand a pool index and a label
an absolute offset. ``encode_instruction`` then writes each tuple from
the operand layouts of ``opcodes.py``, the tables the decoder reads, so
parse_class(emit_class(m)) decodes back to exactly the tuples the
assembler resolved, and the (start, end, handler, catch type) handler
tuples it placed (``emit_class_resolved`` returns both).
"""

from __future__ import annotations

import io
import struct
import zipfile
from dataclasses import dataclass, field

from ..errors import UnsupportedFeature
from .constant_pool import (
    CP_PAYLOAD,
    TAG_CLASS,
    TAG_DOUBLE,
    TAG_FIELDREF,
    TAG_FLOAT,
    TAG_INTEGER,
    TAG_LONG,
    TAG_METHODREF,
    TAG_NAME_AND_TYPE,
    TAG_STRING,
    TAG_UTF8,
    WIDE_TAGS,
)
from .descriptors import category, param_slots, parse_method_descriptor
from .model import ACC_STATIC, CodeAttribute
from .opcodes import (
    EFFECTS,
    FORMAT_OF,
    LAYOUT,
    LOCALS,
    LOOKUPSWITCH,
    MNEMONIC_TO_OPCODE,
    NEWARRAY_CODES,
    RELATIVE_FORMATS,
    SHUFFLES,
    TABLESWITCH,
    TERMINAL,
    WIDE,
    WIDE_LAYOUT,
    branch_targets,
    map_targets,
)

ACC_PUBLIC = 0x0001
ACC_SUPER = 0x0020
DEFAULT_CLASS_ACCESS = ACC_PUBLIC | ACC_SUPER
INTERFACE_ACCESS = 0x0601  # public abstract interface

# Emitted classes target major version 49 (Java 5): no StackMapTable needed.
DEFAULT_MAJOR = 49


@dataclass
class FieldModel:
    name: str
    descriptor: str
    access: int = ACC_PUBLIC


@dataclass
class MethodModel:
    name: str
    descriptor: str
    access: int = ACC_PUBLIC
    code: list | None = None       # asm items; None for abstract/native
    handlers: list[tuple[str, str, str, str | None]] = field(default_factory=list)
    max_stack: int | None = None   # computed when None
    max_locals: int | None = None


@dataclass
class ClassModel:
    name: str                      # dotted FQN
    super_name: str | None = "java.lang.Object"
    interfaces: list[str] = field(default_factory=list)
    access: int = DEFAULT_CLASS_ACCESS
    major: int = DEFAULT_MAJOR
    fields: list[FieldModel] = field(default_factory=list)
    methods: list[MethodModel] = field(default_factory=list)


class PoolBuilder:
    """Interning constant-pool writer restricted to the supported kinds."""

    def __init__(self):
        self._index: dict[tuple, int] = {}
        self._entries: list[tuple] = []  # (tag, raw-bytes-ready payload)
        self._next = 1

    def _intern(self, key: tuple, tag: int, payload: tuple) -> int:
        got = self._index.get(key)
        if got is not None:
            return got
        idx = self._next
        self._index[key] = idx
        self._entries.append((tag, payload))
        self._next += 2 if tag in WIDE_TAGS else 1
        return idx

    def utf8(self, text: str) -> int:
        return self._intern(("u", text), TAG_UTF8, (text,))

    def class_ref(self, dotted: str) -> int:
        internal = dotted.replace(".", "/")
        return self._intern(("c", internal), TAG_CLASS, (self.utf8(internal),))

    def name_and_type(self, name: str, desc: str) -> int:
        return self._intern(("nt", name, desc), TAG_NAME_AND_TYPE,
                            (self.utf8(name), self.utf8(desc)))

    def field_ref(self, owner: str, name: str, desc: str) -> int:
        return self._intern(("f", owner, name, desc), TAG_FIELDREF,
                            (self.class_ref(owner), self.name_and_type(name, desc)))

    def method_ref(self, owner: str, name: str, desc: str) -> int:
        return self._intern(("m", owner, name, desc), TAG_METHODREF,
                            (self.class_ref(owner), self.name_and_type(name, desc)))

    def string(self, value: str) -> int:
        return self._intern(("s", value), TAG_STRING, (self.utf8(value),))

    def integer(self, value: int) -> int:
        return self._intern(("i", value), TAG_INTEGER, (value,))

    def long(self, value: int) -> int:
        return self._intern(("j", value), TAG_LONG, (value,))

    def float(self, value: float) -> int:
        bits = struct.unpack(">I", struct.pack(">f", value))[0]
        return self._intern(("fl", bits), TAG_FLOAT, (value,))

    def double(self, value: float) -> int:
        bits = struct.unpack(">Q", struct.pack(">d", value))[0]
        return self._intern(("d", bits), TAG_DOUBLE, (value,))

    def count(self) -> int:
        return self._next

    def encode(self) -> bytes:
        out = []
        for tag, payload in self._entries:
            if tag == TAG_UTF8:
                raw = payload[0].encode("utf-8", "surrogateescape").replace(b"\x00", b"\xc0\x80")
                out.append(struct.pack(">BH", tag, len(raw)) + raw)
            else:
                out.append(bytes((tag,)) + CP_PAYLOAD[tag].pack(*payload))
        return b"".join(out)


FIELD_OPS = frozenset({"getstatic", "putstatic", "getfield", "putfield"})
INVOKE_OPS = frozenset({"invokevirtual", "invokespecial", "invokestatic"})
CLASS_OPS = frozenset({"new", "anewarray", "checkcast", "instanceof"})
# Instructions whose constant-pool operands PoolBuilder cannot write.
UNSUPPORTED_OPS = frozenset({"invokeinterface", "invokedynamic", "multianewarray"})
# Constant-loading pseudo-ops and the PoolBuilder method that interns each.
_PSEUDO_LDC = {
    "ldc_int": PoolBuilder.integer, "ldc_float": PoolBuilder.float,
    "ldc_string": PoolBuilder.string, "ldc_class": PoolBuilder.class_ref,
    "ldc_long": PoolBuilder.long, "ldc_double": PoolBuilder.double,
}


def _is_label(item) -> bool:
    return isinstance(item, str) and item.endswith(":")


def _real(item, pool: PoolBuilder) -> tuple[str, tuple]:
    """One assembler item as a real mnemonic and its decoded-form operands:
    pseudo-ops chosen and symbolic operands interned in ``pool``. Branch
    targets stay labels."""
    if isinstance(item, str):
        item = (item,)
    m, *ops = item
    if m in UNSUPPORTED_OPS:
        raise UnsupportedFeature(f"emitter does not support {m}")
    if m == "push_int":
        v = ops[0]
        if -1 <= v <= 5:
            return ("iconst_m1" if v == -1 else f"iconst_{v}"), ()
        if -128 <= v <= 127:
            return "bipush", (v,)
        if -32768 <= v <= 32767:
            return "sipush", (v,)
        raise UnsupportedFeature("push_int beyond 16 bits; use ldc_int")
    if m in _PSEUDO_LDC:
        index = _PSEUDO_LDC[m](pool, ops[0])
        if m in ("ldc_long", "ldc_double"):
            return "ldc2_w", (index,)
        return ("ldc" if index <= 255 else "ldc_w"), (index,)
    if m in FIELD_OPS:
        return m, (pool.field_ref(*ops),)
    if m in INVOKE_OPS:
        return m, (pool.method_ref(*ops),)
    if m in CLASS_OPS:
        return m, (pool.class_ref(ops[0]),)
    if m == "newarray" and isinstance(ops[0], str):
        return m, (NEWARRAY_CODES[ops[0]],)
    if m not in FORMAT_OF:
        raise UnsupportedFeature(f"unknown mnemonic {m!r}")
    return m, tuple(ops)


def encode_instruction(ins: tuple[int, str, tuple]) -> bytes:
    """The bytes of one (offset, mnemonic, operands) instruction at its
    offset, which ``decode_instructions`` reads back as ``ins``. A local
    slot or increment too large for the short form takes the wide prefix."""
    at, m, ops = ins
    op, fmt = MNEMONIC_TO_OPCODE[m], FORMAT_OF[m]
    if fmt in ("table", "lookup"):
        head = bytes((op,)) + bytes(-(at + 1) % 4)
        if fmt == "table":
            default, low, high, targets = ops
            return (head + TABLESWITCH.pack(default - at, low, high)
                    + struct.pack(f">{len(targets)}i", *(t - at for t in targets)))
        default, pairs = ops
        return (head + LOOKUPSWITCH.pack(default - at, len(pairs))
                + b"".join(struct.pack(">ii", match, t - at) for match, t in pairs))
    if fmt in RELATIVE_FORMATS:
        ops = (ops[0] - at,)
    try:
        return bytes((op,)) + LAYOUT[fmt].pack(*ops)
    except struct.error:
        if fmt in WIDE_LAYOUT:
            return bytes((WIDE, op)) + WIDE_LAYOUT[fmt].pack(*ops)
        if fmt == "br16":
            raise UnsupportedFeature("branch distance beyond 16 bits") from None
        raise


def _assemble_code(code: list, pool: PoolBuilder) -> tuple[bytes, tuple, dict[str, int]]:
    """Intern the items' constants, place each instruction and label (an
    instruction's size is the length of its encoding at its offset), then
    encode with labels resolved. Returns the code bytes, the decoded-form
    instructions and each label's offset."""
    real: list[tuple[str, tuple]] = []
    label_index: dict[str, int] = {}
    for item in code:
        if _is_label(item):
            label_index[item[:-1]] = len(real)
        else:
            real.append(_real(item, pool))
    offsets = [0]
    for m, ops in real:
        at = offsets[-1]
        here = (at, m, map_targets(m, ops, lambda _label: at))
        offsets.append(at + len(encode_instruction(here)))
    labels = {name: offsets[i] for name, i in label_index.items()}

    def target(name) -> int:
        if name not in labels:
            raise UnsupportedFeature(f"undefined label {name!r}")
        return labels[name]

    out: list[bytes] = []
    resolved: list[tuple[int, str, tuple]] = []
    for at, (m, ops) in zip(offsets, real):
        resolved.append((at, m, map_targets(m, ops, target)))
        out.append(encode_instruction(resolved[-1]))
    return b"".join(out), tuple(resolved), labels


# Operand-stack effect in slots of the pseudo-ops. A real mnemonic's is
# derived from the opcode tables, or, for field access and invocations,
# from the descriptor.
_STACK_DELTA = {
    "push_int": 1, "ldc_int": 1, "ldc_float": 1, "ldc_string": 1, "ldc_class": 1,
    "ldc_long": 2, "ldc_double": 2,
}


def _invoke_delta(mnemonic: str, desc: str) -> int:
    params, ret = parse_method_descriptor(desc)
    delta = -param_slots(params)
    if mnemonic != "invokestatic":
        delta -= 1
    if ret != "V":
        delta += category(ret)
    return delta


def _stack_delta(item: tuple) -> int:
    m = item[0]
    if m in EFFECTS:
        effect = EFFECTS[m]
        return effect.push - sum(effect.pops)
    if m in SHUFFLES:
        shuffle = SHUFFLES[m]
        return sum(shuffle.takes[i] for i in shuffle.puts) - sum(shuffle.takes)
    if m in LOCALS:
        access = LOCALS[m]
        return -access.category if access.store else access.category
    if m in _STACK_DELTA:
        return _STACK_DELTA[m]
    if m == "getstatic":
        return category(item[3])
    if m == "putstatic":
        return -category(item[3])
    if m == "getfield":
        return -1 + category(item[3])
    if m == "putfield":
        return -1 - category(item[3])
    if m in INVOKE_OPS:
        return _invoke_delta(m, item[3])
    raise UnsupportedFeature(f"no stack delta for {m!r}")


def compute_stack_and_locals(method: MethodModel) -> tuple[int, int]:
    """Simulate slot depths over the symbolic assembly to size the frame."""
    index_of_label: dict[str, int] = {}
    instrs: list[tuple] = []
    for item in method.code:
        if _is_label(item):
            index_of_label[item[:-1]] = len(instrs)
        else:
            instrs.append((item,) if isinstance(item, str) else item)

    depth_at: dict[int, int] = {0: 0}
    work = [0]
    handler_starts = {index_of_label[h[2]] for h in method.handlers}
    for h_idx in handler_starts:
        depth_at[h_idx] = 1
        work.append(h_idx)
    max_depth = 1 if handler_starts else 0

    while work:
        i = work.pop()
        depth = depth_at[i]
        while i < len(instrs):
            item = instrs[i]
            depth += _stack_delta(item)
            if depth < 0:
                raise UnsupportedFeature(f"stack underflow while sizing at item {i}")
            max_depth = max(max_depth, depth)
            for lbl in branch_targets(item[0], item[1:]):
                j = index_of_label[lbl]
                if j not in depth_at:
                    depth_at[j] = depth
                    work.append(j)
            if item[0] in TERMINAL:
                break
            i += 1
            if i in depth_at:
                break
            depth_at[i] = depth

    params, _ = parse_method_descriptor(method.descriptor)
    locals_needed = param_slots(params) + (0 if method.access & ACC_STATIC else 1)
    for m, *ops in instrs:
        access = LOCALS.get(m)
        if access is not None:
            locals_needed = max(locals_needed, access.slot_of(ops) + access.category)
        elif m == "iinc":
            locals_needed = max(locals_needed, ops[0] + 1)
    return max_depth, locals_needed


def _assemble(method: MethodModel, pool: PoolBuilder) -> tuple[bytes, CodeAttribute]:
    code_bytes, resolved, labels = _assemble_code(method.code, pool)
    if method.max_stack is not None and method.max_locals is not None:
        max_stack, max_locals = method.max_stack, method.max_locals
    else:
        max_stack, max_locals = compute_stack_and_locals(method)
        if method.max_stack is not None:
            max_stack = method.max_stack
        if method.max_locals is not None:
            max_locals = method.max_locals
    handlers = tuple((labels[start], labels[end], labels[handler], catch)
                     for start, end, handler, catch in method.handlers)
    attr = CodeAttribute(max_stack, max_locals, resolved, handlers)

    body = io.BytesIO()
    body.write(struct.pack(">HHI", max_stack, max_locals, len(code_bytes)))
    body.write(code_bytes)
    body.write(struct.pack(">H", len(handlers)))
    for start, end, handler, catch in handlers:
        catch_idx = pool.class_ref(catch) if catch else 0
        body.write(struct.pack(">HHHH", start, end, handler, catch_idx))
    body.write(struct.pack(">H", 0))  # no code sub-attributes
    return body.getvalue(), attr


def emit_class_resolved(model: ClassModel) -> tuple[bytes, list[CodeAttribute | None]]:
    """Serialize a ClassModel; also return, per method, the CodeAttribute
    that parse_class will decode from the emitted bytes."""
    pool = PoolBuilder()
    this_idx = pool.class_ref(model.name)
    super_idx = pool.class_ref(model.super_name) if model.super_name else 0
    iface_idxs = [pool.class_ref(i) for i in model.interfaces]

    field_blobs = []
    for f in model.fields:
        field_blobs.append(struct.pack(">HHHH", f.access, pool.utf8(f.name),
                                       pool.utf8(f.descriptor), 0))

    method_blobs = []
    resolutions: list[CodeAttribute | None] = []
    for mth in model.methods:
        head = struct.pack(">HHH", mth.access, pool.utf8(mth.name),
                           pool.utf8(mth.descriptor))
        if mth.code is None:
            method_blobs.append(head + struct.pack(">H", 0))
            resolutions.append(None)
            continue
        code_attr_name = pool.utf8("Code")
        body, attr = _assemble(mth, pool)
        resolutions.append(attr)
        method_blobs.append(
            head + struct.pack(">H", 1)
            + struct.pack(">HI", code_attr_name, len(body)) + body
        )

    out = io.BytesIO()
    out.write(struct.pack(">IHH", 0xCAFEBABE, 0, model.major))
    out.write(struct.pack(">H", pool.count()))
    out.write(pool.encode())
    out.write(struct.pack(">HHH", model.access, this_idx, super_idx))
    out.write(struct.pack(">H", len(iface_idxs)))
    for idx in iface_idxs:
        out.write(struct.pack(">H", idx))
    out.write(struct.pack(">H", len(field_blobs)))
    for blob in field_blobs:
        out.write(blob)
    out.write(struct.pack(">H", len(method_blobs)))
    for blob in method_blobs:
        out.write(blob)
    out.write(struct.pack(">H", 0))  # no class attributes
    return out.getvalue(), resolutions


def emit_class(model: ClassModel) -> bytes:
    """Serialize a ClassModel to class-file bytes."""
    return emit_class_resolved(model)[0]


def default_constructor() -> MethodModel:
    """A no-arg constructor delegating to java.lang.Object.<init>."""
    return MethodModel("<init>", "()V", ACC_PUBLIC, code=[
        ("aload", 0),
        ("invokespecial", "java.lang.Object", "<init>", "()V"),
        "return",
    ])


def write_jar(entries: list[tuple[str, bytes]], *, manifest: bool = True,
              date_time=(2020, 1, 1, 0, 0, 0)) -> bytes:
    """Build a deterministic JAR from (path, bytes) entries."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        all_entries = list(entries)
        if manifest:
            mf = b"Manifest-Version: 1.0\r\nCreated-By: jarscan-fixture\r\n\r\n"
            all_entries.insert(0, ("META-INF/MANIFEST.MF", mf))
        for path, data in all_entries:
            info = zipfile.ZipInfo(path, date_time=date_time)
            info.external_attr = 0o644 << 16
            zf.writestr(info, data)
    return buf.getvalue()


def class_entry_path(dotted_name: str) -> str:
    return dotted_name.replace(".", "/") + ".class"

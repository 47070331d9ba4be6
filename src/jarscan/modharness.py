"""Generate modified variants of fixture JARs.

Type 1 re-emits every class through a compiler-variant transformer (local
slot permutation, branch polarity flips, nop padding), simulating a
different compilation environment without shipping a second compiler.
Type 2 re-bundles several JARs into one, keeping each input's metadata
under the merged META-INF. Type 3 additionally strips metadata and
flattens timestamps. Type 4 re-bundles and relocates every class under a
package prefix, rewriting all internal references.

Only classes within the emitter's subset can be transformed, which covers
everything the synthetic corpus produces.
"""

from __future__ import annotations

import logging
import random
import re
from contextlib import contextmanager

from .classfile.constant_pool import resolved_class, resolved_loadable, resolved_member
from .classfile.descriptors import parse_method_descriptor, param_slots
from .classfile.emitter import (
    CLASS_OPS,
    FIELD_OPS,
    INVOKE_OPS,
    UNSUPPORTED_OPS,
    ClassModel,
    FieldModel,
    MethodModel,
    emit_class,
    write_jar,
)
from .classfile.model import ClassFile, resolved_code
from .classfile.opcodes import EFFECTS, LOCALS, NEWARRAY_TYPES, branch_targets, map_targets
from .classfile.parser import _UNREADABLE_ENTRY, ZipReader, is_metadata, parse_class
from .errors import JarscanError, MalformedArchive, RelocationCollision, UnsupportedFeature

log = logging.getLogger(__name__)

_LDC_KIND_TO_PSEUDO = {
    "int": "ldc_int", "float": "ldc_float", "string": "ldc_string",
    "class": "ldc_class", "long": "ldc_long", "double": "ldc_double",
}
# Each conditional branch and the one that branches on the negated test.
_BRANCHES = {(e.op, e.jtype, e.pops): m for m, e in EFFECTS.items() if e.kind == "if"}
_NEGATED_OP = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}
_NEGATE = {m: _BRANCHES[_NEGATED_OP[op], jtype, pops]
           for (op, jtype, pops), m in _BRANCHES.items()}
_DESC_CLASS = re.compile(r"L([^;]+);")


# ------------------------------------------------- class file -> builder model

class _Rename:
    """Maps dotted class names, and the class names inside descriptors,
    through ``mapping``; a name it does not hold stays as it is."""

    def __init__(self, mapping: dict[str, str] | None):
        self.mapping = mapping or {}

    def __call__(self, dotted: str | None) -> str | None:
        return self.mapping.get(dotted, dotted)

    def desc(self, desc: str) -> str:
        return _DESC_CLASS.sub(
            lambda m: "L%s;" % self(m.group(1).replace("/", ".")).replace(".", "/"), desc)


def _label(offset: int) -> str:
    return f"L{offset}"


def _code_to_asm(key: tuple, rn: _Rename) -> tuple[list, list]:
    """Decode a method's ``resolved_code`` back into assembler items with
    labels, and its exception table into assembler handlers."""
    _desc, _static, table, instructions = key
    label_offsets = set()
    for _offset, m, ops in instructions:
        label_offsets.update(branch_targets(m, ops))
    for start, end, handler, _catch in table:
        label_offsets.update((start, end, handler))

    items: list = []
    code_end = instructions[-1][0] + 1 if instructions else 0
    for offset, m, ops in instructions:
        if offset in label_offsets:
            items.append(_label(offset) + ":")
        if m in ("ldc", "ldc_w", "ldc2_w"):
            kind, value = resolved_loadable(ops[0])
            if kind == "other":
                raise UnsupportedFeature(f"cannot re-emit ldc of tag {value}")
            if kind == "class":
                value = rn(value.replace("/", "."))
            items.append((_LDC_KIND_TO_PSEUDO[kind], value))
        elif m in FIELD_OPS or m in INVOKE_OPS:
            owner, name, desc = resolved_member(ops[0])
            items.append((m, rn(owner.replace("/", ".")), name, rn.desc(desc)))
        elif m in CLASS_OPS:
            name = resolved_class(ops[0])
            if name.startswith("["):
                raise UnsupportedFeature("array class operands not supported")
            items.append((m, rn(name.replace("/", "."))))
        elif m == "newarray":
            items.append((m, NEWARRAY_TYPES[ops[0]]))
        elif m in UNSUPPORTED_OPS:
            raise UnsupportedFeature(f"cannot re-emit {m}")
        elif ops:
            items.append((m, *map_targets(m, ops, _label)))
        else:
            items.append(m)

    for off in sorted({end for _start, end, _handler, _catch in table if end >= code_end}):
        items.append(_label(off) + ":")
    handlers = [(_label(start), _label(end), _label(handler), rn(catch))
                for start, end, handler, catch in table]
    return items, handlers


def model_from_classfile(cf: ClassFile, rename: dict[str, str] | None = None) -> ClassModel:
    """Rebuild a ClassModel from a parsed class, optionally renaming classes.

    rename maps dotted FQNs; descriptors are rewritten accordingly.
    """
    rn = _Rename(rename)
    methods = []
    for m in cf.methods:
        if m.code is None:
            methods.append(MethodModel(m.name, rn.desc(m.descriptor), m.access_flags))
            continue
        items, handlers = _code_to_asm(resolved_code(m, cf.constant_pool), rn)
        methods.append(MethodModel(m.name, rn.desc(m.descriptor), m.access_flags,
                                   code=items, handlers=handlers))
    return ClassModel(
        name=rn(cf.this_class),
        super_name=rn(cf.super_class),
        interfaces=[rn(i) for i in cf.interfaces],
        access=cf.access_flags,
        major=cf.major_version,
        fields=[FieldModel(f.name, rn.desc(f.descriptor), f.access_flags)
                for f in cf.fields],
        methods=methods,
    )


# ------------------------------------------------------------ type 1 variant

def _local_access(item):
    """The item's mnemonic, operands and LOCALS entry (None if it has none)."""
    m, ops = (item, ()) if isinstance(item, str) else (item[0], item[1:])
    return m, ops, LOCALS.get(m)


def _permutable_slots(items: list, method: MethodModel, is_static: bool) -> list[int]:
    params, _ = parse_method_descriptor(method.descriptor)
    fixed = param_slots(params) + (0 if is_static else 1)
    cat1: set[int] = set()
    cat2: set[int] = set()
    for it in items:
        m, ops, access = _local_access(it)
        if access is not None:
            slot = access.slot_of(ops)
            if access.category == 1:
                cat1.add(slot)
            else:
                cat2.update((slot, slot + 1))
        elif m == "iinc":
            cat1.add(ops[0])
    return sorted(s for s in cat1 if s >= fixed and s not in cat2)


def _apply_slot_permutation(items: list, perm: dict[int, int]) -> list:
    out = []
    for it in items:
        m, ops, access = _local_access(it)
        if access is not None and access.category == 1:
            slot = access.slot_of(ops)
            it = (access.base, perm.get(slot, slot))
        elif m == "iinc":
            it = (m, perm.get(ops[0], ops[0]), ops[1])
        out.append(it)
    return out


def _apply_polarity_flips(items: list, rng: random.Random) -> list:
    out = []
    counter = 0
    for it in items:
        if (isinstance(it, tuple) and it[0] in _NEGATE and rng.random() < 0.5):
            skip = f"_flip{counter}"
            counter += 1
            out.append((_NEGATE[it[0]], skip))
            out.append(("goto", it[1]))
            out.append(skip + ":")
        else:
            out.append(it)
    return out


def _apply_nop_padding(items: list, rng: random.Random) -> list:
    out = []
    for it in items:
        if not (isinstance(it, str) and it.endswith(":")) and rng.random() < 0.25:
            out.append("nop")
        out.append(it)
    return out


def compiler_variant(data: bytes, rng: random.Random) -> bytes:
    """Re-emit one class with permuted slots, flipped branch polarity and
    nop padding; semantics-preserving, bytes-changing."""
    cf = parse_class(data)
    model = model_from_classfile(cf)
    for method, parsed in zip(model.methods, cf.methods):
        if method.code is None:
            continue
        slots = _permutable_slots(method.code, method, parsed.is_static)
        if len(slots) > 1:
            shuffled = slots[:]
            rng.shuffle(shuffled)
            perm = dict(zip(slots, shuffled))
            method.code = _apply_slot_permutation(method.code, perm)
        method.code = _apply_polarity_flips(method.code, rng)
        method.code = _apply_nop_padding(method.code, rng)
        method.handlers = list(method.handlers)
    return emit_class(model)


# ------------------------------------------------------------------- modify

def read_entries(jar_bytes: bytes) -> list[tuple[str, bytes]]:
    """Each non-directory entry's path and bytes, in central directory
    order, read by ``ZipReader``. Raises MalformedArchive for an archive
    whose central directory cannot be read, or naming the first entry
    that cannot be read ("<entry>: <reason>")."""
    archive = ZipReader(jar_bytes)
    entries = []
    for entry in archive.entries:
        path = entry[0]
        if path.endswith("/"):
            continue
        try:
            entries.append((path, archive.read(entry)))
        except _UNREADABLE_ENTRY as exc:     # EOFError has no text
            raise MalformedArchive(f"{path}: {str(exc) or type(exc).__name__}") from exc
    return entries


@contextmanager
def _naming(path: str):
    """Re-raise a package error with the class entry's path in front
    ("<entry>: <reason>")."""
    try:
        yield
    except JarscanError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _merge(jars: list[bytes], keep_metadata: bool) -> list[tuple[str, bytes]]:
    merged: list[tuple[str, bytes]] = []
    seen: set[str] = set()
    for idx, jar in enumerate(jars):
        for path, data in read_entries(jar):
            if is_metadata(path):
                if keep_metadata:
                    new_path = f"META-INF/bundled/{idx}/{path.removeprefix('META-INF/')}"
                    merged.append((new_path, data))
                continue
            if path in seen:
                log.warning("duplicate entry %s while merging; keeping first", path)
                continue
            seen.add(path)
            merged.append((path, data))
    if keep_metadata:
        merged.insert(0, ("META-INF/MANIFEST.MF",
                          b"Manifest-Version: 1.0\r\nCreated-By: jarscan-modify\r\n\r\n"))
    return merged


def modify(jars: list[bytes], kind: int, *, prefix: str = "r.",
           seed: int = 0) -> bytes:
    """Produce a modified variant: 1 re-compile simulation (single JAR),
    2 uber-JAR merge, 3 bare merge (metadata stripped), 4 re-packaged
    merge under the given dotted prefix."""
    if kind == 1:
        if len(jars) != 1:
            raise ValueError("type 1 operates on exactly one JAR")
        rng = random.Random(seed)
        out = []
        for path, data in read_entries(jars[0]):
            if path.endswith(".class"):
                with _naming(path):
                    out.append((path, compiler_variant(data, rng)))
            else:
                out.append((path, data))
        return write_jar(out, manifest=False)

    if kind == 2:
        return write_jar(_merge(jars, keep_metadata=True), manifest=False)

    if kind == 3:
        return write_jar(_merge(jars, keep_metadata=False), manifest=False,
                         date_time=(1980, 1, 1, 0, 0, 0))

    if kind == 4:
        if not prefix.endswith("."):
            prefix = prefix + "."
        merged = _merge(jars, keep_metadata=True)
        member_fqns = {
            path[:-len(".class")].replace("/", "."): None
            for path, _ in merged if path.endswith(".class")
        }
        rename = {fqn: prefix + fqn for fqn in member_fqns}
        if len(set(rename.values())) != len(rename):
            raise RelocationCollision("relocated names collide")
        existing = {path for path, _ in merged}
        out = []
        for path, data in merged:
            if not path.endswith(".class"):
                out.append((path, data))
                continue
            with _naming(path):
                new_model = model_from_classfile(parse_class(data), rename)
                emitted = emit_class(new_model)
            new_path = new_model.name.replace(".", "/") + ".class"
            if new_path in existing:
                raise RelocationCollision(f"{new_path} already exists in the bundle")
            out.append((new_path, emitted))
        return write_jar(out, manifest=False)

    raise ValueError(f"unknown modification kind {kind}")

"""Register-based three-address IR lifted from stack bytecode.

Registers are plain strings: "p0.." for parameter slots, "l3.." for other
local slots, "t7.." for operand-stack temporaries and "j2_0.." for stack
values that cross block boundaries (named by target block id and stack
position, so lifting order cannot leak into names). Normalization renames
the non-parameter registers to "v0.." by first-definition order.

Statement text is defined once, here. ``stmt_label`` writes the label of
a statement's CPG node, the words KB triplets are made of, rendering
each operand with the function it is given: the CPG writes registers
position-free, ``dump`` by name. A ``dump`` line is that label plus
what a label leaves out on purpose, the register the statement defines
and the blocks it jumps to; normalize's duplicate-return key is the
same text.
"""

from __future__ import annotations

import json

from .._record import Frozen, Record
from ..classfile.descriptors import render_method_types

_set = object.__setattr__     # how a Frozen record's __init__ sets its fields


class Lit(Frozen):
    """Literal operand; jtype is int/long/float/double/string/class/ref."""

    __slots__ = ("value", "jtype")

    def __init__(self, value, jtype: str):
        _set(self, "value", value)
        _set(self, "jtype", jtype)


Operand = "str | Lit"  # registers are bare strings


class Node(Frozen):
    """Base of IR expressions and statements.

    Each node class declares, once, which of its fields hold operands:
    OPERANDS names them in order. An operand field holds a register, a
    Lit, None when absent, or a tuple of registers and Lits; Assign's
    holds its expression, whose operands are the statement's. DEFINES
    names the field holding the register the statement defines, if any.

    A node's fields are its ``__slots__``, in constructor order, and its
    own ``__init__`` sets them. A node refuses assignment, is always true
    and equals only a node of its own class with equal fields. It is no
    tuple, since ``operands`` flattens tuple-valued fields, and no data
    class (PEP 557): that decorator runs about 0.45 ms of generated code
    per class as the module loads, some 13 ms for the 28 classes here, on
    top of about 4 ms to import its module (see ``jarscan._record``).
    """

    __slots__ = ()
    OPERANDS = ()
    DEFINES = None


# ---------------------------------------------------------------- expressions

class Const(Node):
    __slots__ = ("value", "jtype")
    OPERANDS = ()

    def __init__(self, value, jtype: str):
        _set(self, "value", value)
        _set(self, "jtype", jtype)


class Copy(Node):
    __slots__ = ("src",)
    OPERANDS = ("src",)

    def __init__(self, src: str):
        _set(self, "src", src)


class Bin(Node):
    __slots__ = ("op", "jtype", "a", "b")
    OPERANDS = ("a", "b")

    def __init__(self, op: str, jtype: str, a, b):
        _set(self, "op", op)        # add, sub, mul, div, rem, shl, shr, ushr, and, or, xor
        _set(self, "jtype", jtype)
        _set(self, "a", a)          # Operand
        _set(self, "b", b)


class Un(Node):
    __slots__ = ("op", "a")
    OPERANDS = ("a",)

    def __init__(self, op: str, a):
        _set(self, "op", op)  # neg_int, i2l, l2i, arraylength, ...
        _set(self, "a", a)


class CmpExpr(Node):
    __slots__ = ("op", "a", "b")
    OPERANDS = ("a", "b")

    def __init__(self, op: str, a, b):
        _set(self, "op", op)  # lcmp, fcmpl, fcmpg, dcmpl, dcmpg
        _set(self, "a", a)
        _set(self, "b", b)


class FieldGet(Node):
    __slots__ = ("owner", "name", "ftype", "obj")
    OPERANDS = ("obj",)

    def __init__(self, owner: str, name: str, ftype: str, obj: str | None):
        _set(self, "owner", owner)
        _set(self, "name", name)
        _set(self, "ftype", ftype)  # rendered type
        _set(self, "obj", obj)      # None for static


class ArrayGet(Node):
    __slots__ = ("jtype", "arr", "idx")
    OPERANDS = ("arr", "idx")

    def __init__(self, jtype: str, arr: str, idx):
        _set(self, "jtype", jtype)
        _set(self, "arr", arr)
        _set(self, "idx", idx)


class NewObj(Node):
    __slots__ = ("cls",)
    OPERANDS = ()

    def __init__(self, cls: str):
        _set(self, "cls", cls)


class NewArr(Node):
    __slots__ = ("elem", "dims")
    OPERANDS = ("dims",)

    def __init__(self, elem: str, dims: tuple):
        _set(self, "elem", elem)
        _set(self, "dims", dims)


class Cast(Node):
    __slots__ = ("cls", "a")
    OPERANDS = ("a",)

    def __init__(self, cls: str, a: str):
        _set(self, "cls", cls)
        _set(self, "a", a)


class InstOf(Node):
    __slots__ = ("cls", "a")
    OPERANDS = ("a",)

    def __init__(self, cls: str, a: str):
        _set(self, "cls", cls)
        _set(self, "a", a)


class Caught(Node):
    __slots__ = ("catch_type",)
    OPERANDS = ()

    def __init__(self, catch_type: str | None):
        _set(self, "catch_type", catch_type)


class Concat(Node):
    """Abstract string concatenation; produced only by normalization."""

    __slots__ = ("args",)
    OPERANDS = ("args",)

    def __init__(self, args: tuple):
        _set(self, "args", args)

# ----------------------------------------------------------------- statements

class Assign(Node):
    __slots__ = ("target", "expr")
    OPERANDS = ("expr",)
    DEFINES = "target"

    def __init__(self, target: str, expr):
        _set(self, "target", target)
        _set(self, "expr", expr)


class Invoke(Node):
    __slots__ = ("result", "kind", "owner", "name", "desc", "args")
    OPERANDS = ("args",)
    DEFINES = "result"

    def __init__(self, result: str | None, kind: str, owner: str, name: str, desc: str,
                 args: tuple):
        _set(self, "result", result)
        _set(self, "kind", kind)      # virtual, special, static, interface
        _set(self, "owner", owner)
        _set(self, "name", name)
        _set(self, "desc", desc)
        _set(self, "args", args)      # receiver first for non-static kinds


class DynInvoke(Node):
    __slots__ = ("result", "name", "desc", "args")
    OPERANDS = ("args",)
    DEFINES = "result"

    def __init__(self, result: str | None, name: str, desc: str, args: tuple):
        _set(self, "result", result)
        _set(self, "name", name)
        _set(self, "desc", desc)
        _set(self, "args", args)


class FieldPut(Node):
    __slots__ = ("owner", "name", "ftype", "obj", "value")
    OPERANDS = ("obj", "value")

    def __init__(self, owner: str, name: str, ftype: str, obj: str | None, value):
        _set(self, "owner", owner)
        _set(self, "name", name)
        _set(self, "ftype", ftype)
        _set(self, "obj", obj)
        _set(self, "value", value)


class ArrayPut(Node):
    __slots__ = ("jtype", "arr", "idx", "value")
    OPERANDS = ("arr", "idx", "value")

    def __init__(self, jtype: str, arr: str, idx, value):
        _set(self, "jtype", jtype)
        _set(self, "arr", arr)
        _set(self, "idx", idx)
        _set(self, "value", value)


class Branch(Node):
    __slots__ = ("op", "jtype", "args", "taken", "fallthrough")
    OPERANDS = ("args",)

    def __init__(self, op: str, jtype: str, args: tuple, taken: int, fallthrough: int):
        _set(self, "op", op)                    # eq, ne, lt, ge, gt, le
        _set(self, "jtype", jtype)              # int or ref
        _set(self, "args", args)                # (a, b); zero/null comparisons carry a Lit
        _set(self, "taken", taken)              # block id
        _set(self, "fallthrough", fallthrough)  # block id


class Goto(Node):
    __slots__ = ("target",)
    OPERANDS = ()

    def __init__(self, target: int):
        _set(self, "target", target)


class Switch(Node):
    __slots__ = ("key", "cases", "default")
    OPERANDS = ("key",)

    def __init__(self, key: str, cases: tuple, default: int):
        _set(self, "key", key)
        _set(self, "cases", cases)      # ((match value, block id), ...) sorted by value
        _set(self, "default", default)


class Return(Node):
    __slots__ = ("value", "jtype")
    OPERANDS = ("value",)

    def __init__(self, value: str | None = None, jtype: str | None = None):
        _set(self, "value", value)
        _set(self, "jtype", jtype)


class Throw(Node):
    __slots__ = ("value",)
    OPERANDS = ("value",)

    def __init__(self, value: str):
        _set(self, "value", value)


class Monitor(Node):
    __slots__ = ("kind", "value")
    OPERANDS = ("value",)

    def __init__(self, kind: str, value: str):
        _set(self, "kind", kind)    # enter | exit
        _set(self, "value", value)


class Nop(Node):
    __slots__ = ()
    OPERANDS = ()


TERMINATORS = (Branch, Goto, Switch, Return, Throw)


def block_targets(stmt) -> tuple:
    """The blocks a statement may jump to, in canonical order: a Branch's
    fallthrough then taken, a Goto's target, a Switch's cases by value
    then its default. Empty for every other statement."""
    if isinstance(stmt, Branch):
        return (stmt.fallthrough, stmt.taken)
    if isinstance(stmt, Goto):
        return (stmt.target,)
    if isinstance(stmt, Switch):
        return (*(b for _v, b in stmt.cases), stmt.default)
    return ()


def map_block_targets(stmt, f):
    """``stmt`` with each block it may jump to, b, replaced by f(b)."""
    if isinstance(stmt, Branch):
        return Branch(stmt.op, stmt.jtype, stmt.args,
                      f(stmt.taken), f(stmt.fallthrough))
    if isinstance(stmt, Goto):
        return Goto(f(stmt.target))
    if isinstance(stmt, Switch):
        return Switch(stmt.key, tuple((v, f(b)) for v, b in stmt.cases),
                      f(stmt.default))
    return stmt


class Block(Frozen):
    __slots__ = ("bid", "start", "end", "handlers")

    def __init__(self, bid: int, start: int, end: int, handlers: tuple = ()):
        _set(self, "bid", bid)
        _set(self, "start", start)          # statement index, inclusive
        _set(self, "end", end)              # exclusive
        # Ascending indices into MethodIr.handlers; equal tuples are shared.
        _set(self, "handlers", handlers)


class MethodIr(Record):
    __slots__ = ("params", "is_static", "statements", "blocks", "handlers")

    def __init__(self, params: tuple, is_static: bool, statements: list, blocks: list,
                 handlers: tuple = ()):
        self.params = params            # ((register, jtype), ...)
        self.is_static = is_static
        self.statements = statements
        self.blocks = blocks            # [Block]
        self.handlers = handlers        # ((head block id, catch type or None), ...)

    @classmethod
    def from_blocks(cls, params, is_static, blocks, handlers, coverage) -> MethodIr:
        """Lay out ``blocks``, one statement list per block id, with each
        block's tuple of the ``handlers`` covering it from ``coverage``."""
        statements: list = []
        laid_out: list[Block] = []
        for bid, stmts in enumerate(blocks):
            start = len(statements)
            statements.extend(stmts)
            laid_out.append(Block(bid, start, len(statements), coverage[bid]))
        return cls(params=params, is_static=is_static, statements=statements,
                   blocks=laid_out, handlers=tuple(handlers))

    def covered_blocks(self) -> list[list[int]]:
        """Each handler's covered block ids, ascending, in table order."""
        covered: list[list[int]] = [[] for _ in self.handlers]
        for block in self.blocks:
            for i in block.handlers:
                covered[i].append(block.bid)
        return covered

    def terminator(self, block: Block):
        """Last statement if it transfers control, else None (fallthrough)."""
        if block.end > block.start:
            last = self.statements[block.end - 1]
            if isinstance(last, TERMINATORS):
                return last
        return None

    def param_registers(self) -> set:
        return {r for r, _ in self.params}


def reachable_blocks(entry: int, targets, coverage: list, handlers: list) -> set[int]:
    """The blocks reached from ``entry`` through ``targets(block)`` and the
    heads of the ``handlers`` covering them, each shared tuple's heads once."""
    reached, queued, work = set(), set(), [entry]   # queued: ids of tuples
    while work:
        b = work.pop()
        if b not in reached:
            reached.add(b)
            work.extend(targets(b))
            if coverage[b] and id(coverage[b]) not in queued:
                queued.add(id(coverage[b]))
                work.extend(handlers[i][0] for i in coverage[b])
    return reached


def renumber_handlers(handlers: list, coverage: list, new_id: dict) -> tuple[list, list]:
    """Keep the handlers whose head and some covered block are in ``new_id``,
    given the kept blocks' ``coverage`` in their new order. Each distinct
    tuple is reindexed once, and equal results share one tuple."""
    if not handlers:
        return [], coverage
    distinct = {id(cov): cov for cov in coverage}
    covering = set().union(*distinct.values())
    kept = [i for i, (head, _catch) in enumerate(handlers) if i in covering and head in new_id]
    index = {old: new for new, old in enumerate(kept)}
    shared: dict[tuple, tuple] = {}
    for key, cov in distinct.items():
        cov = tuple([index[i] for i in cov if i in index])
        distinct[key] = shared.setdefault(cov, cov)
    return ([(new_id[handlers[i][0]], handlers[i][1]) for i in kept],
            [distinct[id(cov)] for cov in coverage])


# -------------------------------------------------------------- uses and defs

def operands(node) -> list:
    """The node's operands, registers and Lits, in declaration order; an
    Assign's are its expression's."""
    out = []
    for name in node.OPERANDS:
        value = getattr(node, name)
        if isinstance(value, tuple):
            out += value
        elif isinstance(value, Node):
            out += operands(value)
        elif value is not None:
            out.append(value)
    return out


def stmt_def(stmt) -> str | None:
    """Register defined by the statement, if any."""
    return None if stmt.DEFINES is None else getattr(stmt, stmt.DEFINES)


def stmt_uses(stmt) -> list:
    """Registers read by the statement, in a stable order."""
    return [op for op in operands(stmt) if isinstance(op, str)]


# -------------------------------------------------------------------- labels

def lit_label(value, jtype: str) -> str:
    """Text of a literal of ``jtype``: "null", a JSON string, or
    "<jtype>:<value>", floats by repr so -0.0 and 0.0 differ."""
    if jtype == "ref" and value is None:
        return "null"
    if jtype == "string":
        return f"string:{json.dumps(str(value))}"
    if jtype in ("float", "double"):
        return f"{jtype}:{float(value)!r}"
    return f"{jtype}:{value}"


def plain_operand(op) -> str:
    """A register as its name, a literal as its ``lit_label``."""
    return lit_label(op.value, op.jtype) if isinstance(op, Lit) else op


def _desc_label(desc: str) -> str:
    """An invoked descriptor's text, from the rendering the parser caches."""
    args, ret = render_method_types(desc)
    return f"({','.join(args)}):{ret}"


def _expr_label(e, op) -> str:
    if isinstance(e, Const):
        return f"const {lit_label(e.value, e.jtype)}"
    if isinstance(e, Copy):
        return f"copy {op(e.src)}"
    if isinstance(e, Bin):
        return f"{e.op}_{e.jtype}({op(e.a)}, {op(e.b)})"
    if isinstance(e, Un):
        return f"{e.op}({op(e.a)})"
    if isinstance(e, CmpExpr):
        return f"{e.op}({op(e.a)}, {op(e.b)})"
    if isinstance(e, FieldGet):
        kind = "getfield" if e.obj is not None else "getstatic"
        recv = f"({op(e.obj)})" if e.obj is not None else ""
        return f"{kind} {e.owner}#{e.name}:{e.ftype}{recv}"
    if isinstance(e, ArrayGet):
        return f"aget_{e.jtype}({op(e.arr)}[{op(e.idx)}])"
    if isinstance(e, NewObj):
        return f"new {e.cls}"
    if isinstance(e, NewArr):
        dims = ",".join(op(d) for d in e.dims)
        return f"newarray {e.elem}({dims})"
    if isinstance(e, Cast):
        return f"cast {e.cls}({op(e.a)})"
    if isinstance(e, InstOf):
        return f"instanceof {e.cls}({op(e.a)})"
    if isinstance(e, Caught):
        return f"caught {e.catch_type or 'any'}"
    if isinstance(e, Concat):
        return "concat(" + ", ".join(op(a) for a in e.args) + ")"
    raise TypeError(f"unknown expression {e!r}")


def stmt_label(stmt, op) -> str:
    """The label of a statement's CPG node, with each operand written as
    ``op`` renders it. It leaves out the register the statement defines
    and the blocks it jumps to."""
    if isinstance(stmt, Assign):
        return f"asgn {_expr_label(stmt.expr, op)}"
    if isinstance(stmt, Invoke):
        args = ", ".join(op(a) for a in stmt.args)
        return (f"invoke_{stmt.kind} {stmt.owner}#{stmt.name}"
                f"{_desc_label(stmt.desc)}({args})")
    if isinstance(stmt, DynInvoke):
        args = ", ".join(op(a) for a in stmt.args)
        return f"invoke_dynamic {stmt.name}{_desc_label(stmt.desc)}({args})"
    if isinstance(stmt, FieldPut):
        kind = "putfield" if stmt.obj is not None else "putstatic"
        recv = f"{op(stmt.obj)}, " if stmt.obj is not None else ""
        return f"{kind} {stmt.owner}#{stmt.name}:{stmt.ftype}({recv}{op(stmt.value)})"
    if isinstance(stmt, ArrayPut):
        return f"aput_{stmt.jtype}({op(stmt.arr)}[{op(stmt.idx)}] := {op(stmt.value)})"
    if isinstance(stmt, Branch):
        args = ", ".join(op(a) for a in stmt.args)
        return f"if_{stmt.op}_{stmt.jtype}({args})"
    if isinstance(stmt, Goto):
        return "goto"
    if isinstance(stmt, Switch):
        values = ",".join(str(v) for v, _ in sorted(stmt.cases))
        return f"switch({op(stmt.key)})[{values}]"
    if isinstance(stmt, Return):
        if stmt.value is None:
            return "return_void"
        return f"return_{stmt.jtype}({op(stmt.value)})"
    if isinstance(stmt, Throw):
        return f"throw({op(stmt.value)})"
    if isinstance(stmt, Monitor):
        return f"monitor_{stmt.kind}({op(stmt.value)})"
    if isinstance(stmt, Nop):
        return "nop"
    raise TypeError(f"unknown statement {stmt!r}")


def render_stmt(stmt, op=plain_operand) -> str:
    """``stmt_label`` between what it leaves out: "<defined register> := "
    in front, " -> B<n>, ..." behind, the targets in ``block_targets``
    order."""
    text = stmt_label(stmt, op)
    defined = stmt_def(stmt)
    if defined is not None:
        text = f"{op(defined)} := {text}"
    targets = block_targets(stmt)
    if targets:
        text += " -> " + ", ".join(f"B{b}" for b in targets)
    return text


def dump(ir: MethodIr) -> str:
    """Stable textual form of a MethodIr, one ``render_stmt`` per line."""
    lines = []
    params = ", ".join(f"{r}:{t}" for r, t in ir.params)
    lines.append(f"params({params}){' static' if ir.is_static else ''}")
    for block in ir.blocks:
        lines.append(f"B{block.bid}:")
        for i in range(block.start, block.end):
            lines.append(f"  {i}: {render_stmt(ir.statements[i])}")
    for (head, catch), covered in zip(ir.handlers, ir.covered_blocks()):
        blocks = ",".join(f"B{b}" for b in covered)
        lines.append(f"handler [{blocks}] -> B{head} catch {catch or 'any'}")
    return "\n".join(lines) + "\n"

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
from dataclasses import dataclass

from ..classfile.descriptors import render_method_types


@dataclass(frozen=True)
class Lit:
    """Literal operand; jtype is int/long/float/double/string/class/ref."""

    value: object
    jtype: str


Operand = "str | Lit"  # registers are bare strings


class Node:
    """Base of IR expressions and statements.

    Each node class declares, once, which of its fields hold operands:
    OPERANDS names them in order. An operand field holds a register, a
    Lit, None when absent, or a tuple of registers and Lits; Assign's
    holds its expression, whose operands are the statement's. DEFINES
    names the field holding the register the statement defines, if any.
    """

    OPERANDS = ()
    DEFINES = None


# ---------------------------------------------------------------- expressions

@dataclass(frozen=True)
class Const(Node):
    OPERANDS = ()

    value: object
    jtype: str


@dataclass(frozen=True)
class Copy(Node):
    OPERANDS = ("src",)

    src: str


@dataclass(frozen=True)
class Bin(Node):
    OPERANDS = ("a", "b")

    op: str          # add, sub, mul, div, rem, shl, shr, ushr, and, or, xor
    jtype: str
    a: object        # Operand
    b: object


@dataclass(frozen=True)
class Un(Node):
    OPERANDS = ("a",)

    op: str          # neg_int, i2l, l2i, arraylength, ...
    a: object


@dataclass(frozen=True)
class CmpExpr(Node):
    OPERANDS = ("a", "b")

    op: str          # lcmp, fcmpl, fcmpg, dcmpl, dcmpg
    a: object
    b: object


@dataclass(frozen=True)
class FieldGet(Node):
    OPERANDS = ("obj",)

    owner: str
    name: str
    ftype: str       # rendered type
    obj: str | None  # None for static


@dataclass(frozen=True)
class ArrayGet(Node):
    OPERANDS = ("arr", "idx")

    jtype: str
    arr: str
    idx: object


@dataclass(frozen=True)
class NewObj(Node):
    OPERANDS = ()

    cls: str


@dataclass(frozen=True)
class NewArr(Node):
    OPERANDS = ("dims",)

    elem: str
    dims: tuple


@dataclass(frozen=True)
class Cast(Node):
    OPERANDS = ("a",)

    cls: str
    a: str


@dataclass(frozen=True)
class InstOf(Node):
    OPERANDS = ("a",)

    cls: str
    a: str


@dataclass(frozen=True)
class Caught(Node):
    OPERANDS = ()

    catch_type: str | None


@dataclass(frozen=True)
class Concat(Node):
    """Abstract string concatenation; produced only by normalization."""

    OPERANDS = ("args",)

    args: tuple


# ----------------------------------------------------------------- statements

@dataclass(frozen=True)
class Assign(Node):
    OPERANDS = ("expr",)
    DEFINES = "target"

    target: str
    expr: object


@dataclass(frozen=True)
class Invoke(Node):
    OPERANDS = ("args",)
    DEFINES = "result"

    result: str | None
    kind: str        # virtual, special, static, interface
    owner: str
    name: str
    desc: str
    args: tuple      # receiver first for non-static kinds


@dataclass(frozen=True)
class DynInvoke(Node):
    OPERANDS = ("args",)
    DEFINES = "result"

    result: str | None
    name: str
    desc: str
    args: tuple


@dataclass(frozen=True)
class FieldPut(Node):
    OPERANDS = ("obj", "value")

    owner: str
    name: str
    ftype: str
    obj: str | None
    value: object


@dataclass(frozen=True)
class ArrayPut(Node):
    OPERANDS = ("arr", "idx", "value")

    jtype: str
    arr: str
    idx: object
    value: object


@dataclass(frozen=True)
class Branch(Node):
    OPERANDS = ("args",)

    op: str          # eq, ne, lt, ge, gt, le
    jtype: str       # int or ref
    args: tuple      # (a, b); zero/null comparisons carry a Lit
    taken: int       # block id
    fallthrough: int # block id


@dataclass(frozen=True)
class Goto(Node):
    OPERANDS = ()

    target: int


@dataclass(frozen=True)
class Switch(Node):
    OPERANDS = ("key",)

    key: str
    cases: tuple     # ((match value, block id), ...) sorted by value
    default: int


@dataclass(frozen=True)
class Return(Node):
    OPERANDS = ("value",)

    value: str | None = None
    jtype: str | None = None


@dataclass(frozen=True)
class Throw(Node):
    OPERANDS = ("value",)

    value: str


@dataclass(frozen=True)
class Monitor(Node):
    OPERANDS = ("value",)

    kind: str        # enter | exit
    value: str


@dataclass(frozen=True)
class Nop(Node):
    OPERANDS = ()


TERMINATORS = (Branch, Goto, Switch, Return, Throw)

NEGATED_OP = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}


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


@dataclass(frozen=True)
class Block:
    bid: int
    start: int       # statement index, inclusive
    end: int         # exclusive
    handlers: tuple = ()  # ascending indices into MethodIr.handlers; equal ones shared


@dataclass
class MethodIr:
    params: tuple            # ((register, jtype), ...)
    is_static: bool
    statements: list
    blocks: list             # [Block]
    handlers: tuple = ()     # ((head block id, catch type or None), ...)

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

"""Register-based three-address IR lifted from stack bytecode.

Registers are plain strings: "p0.." for parameter slots, "l3.." for other
local slots, "t7.." for operand-stack temporaries and "j2_0.." for stack
values that cross block boundaries (named by target block id and stack
position, so lifting order cannot leak into names). Normalization renames
the non-parameter registers to "v0.." by first-definition order.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def render_operand(op) -> str:
    if isinstance(op, Lit):
        if op.jtype == "ref" and op.value is None:
            return "null"
        if op.jtype == "string":
            return '"' + str(op.value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        return f"{op.jtype}:{op.value!r}" if isinstance(op.value, float) else f"{op.jtype}:{op.value}"
    return op


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


@dataclass(frozen=True)
class HandlerInfo:
    covered: tuple   # block ids protected by this handler
    handler: int     # handler head block id
    catch_type: str | None


@dataclass
class MethodIr:
    params: tuple            # ((register, jtype), ...)
    is_static: bool
    statements: list
    blocks: list             # [Block]
    handlers: tuple = ()     # (HandlerInfo, ...)

    @classmethod
    def from_blocks(cls, params, is_static, blocks, handlers) -> MethodIr:
        """Lay out ``blocks``, one statement list per block id, and
        ``handlers``, (covered block ids, head, catch type) each."""
        statements: list = []
        laid_out: list[Block] = []
        for bid, stmts in enumerate(blocks):
            start = len(statements)
            statements.extend(stmts)
            laid_out.append(Block(bid, start, len(statements)))
        return cls(params=params, is_static=is_static, statements=statements,
                   blocks=laid_out,
                   handlers=tuple(HandlerInfo(tuple(sorted(covered)), head, catch)
                                  for covered, head, catch in handlers))

    def terminator(self, block: Block):
        """Last statement if it transfers control, else None (fallthrough)."""
        if block.end > block.start:
            last = self.statements[block.end - 1]
            if isinstance(last, TERMINATORS):
                return last
        return None

    def param_registers(self) -> set:
        return {r for r, _ in self.params}


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


# ------------------------------------------------------------------- dumping

def render_stmt(stmt) -> str:
    """One-line rendering with explicit registers and block targets."""
    if isinstance(stmt, Assign):
        return f"{stmt.target} := {render_expr(stmt.expr)}"
    if isinstance(stmt, Invoke):
        head = f"{stmt.result} := " if stmt.result else ""
        args = ", ".join(render_operand(a) for a in stmt.args)
        return f"{head}invoke_{stmt.kind} {stmt.owner}#{stmt.name}{stmt.desc}({args})"
    if isinstance(stmt, DynInvoke):
        head = f"{stmt.result} := " if stmt.result else ""
        args = ", ".join(render_operand(a) for a in stmt.args)
        return f"{head}invoke_dynamic {stmt.name}{stmt.desc}({args})"
    if isinstance(stmt, FieldPut):
        tgt = f"{render_operand(stmt.obj)}." if stmt.obj else ""
        return f"putfield {tgt}{stmt.owner}#{stmt.name}:{stmt.ftype} := {render_operand(stmt.value)}"
    if isinstance(stmt, ArrayPut):
        return (f"aput_{stmt.jtype} {stmt.arr}[{render_operand(stmt.idx)}] "
                f":= {render_operand(stmt.value)}")
    if isinstance(stmt, Branch):
        args = ", ".join(render_operand(a) for a in stmt.args)
        return (f"if_{stmt.op}_{stmt.jtype}({args}) -> B{stmt.taken} "
                f"else B{stmt.fallthrough}")
    if isinstance(stmt, Goto):
        return f"goto -> B{stmt.target}"
    if isinstance(stmt, Switch):
        cases = ", ".join(f"{v}->B{b}" for v, b in stmt.cases)
        return f"switch({stmt.key})[{cases} | default->B{stmt.default}]"
    if isinstance(stmt, Return):
        if stmt.value is None:
            return "return_void"
        return f"return_{stmt.jtype} {stmt.value}"
    if isinstance(stmt, Throw):
        return f"throw {stmt.value}"
    if isinstance(stmt, Monitor):
        return f"monitor_{stmt.kind} {stmt.value}"
    if isinstance(stmt, Nop):
        return "nop"
    raise TypeError(f"unknown statement {stmt!r}")


def render_expr(e) -> str:
    if isinstance(e, Const):
        return f"const {render_operand(Lit(e.value, e.jtype))}"
    if isinstance(e, Copy):
        return f"copy {e.src}"
    if isinstance(e, Bin):
        return f"{e.op}_{e.jtype}({render_operand(e.a)}, {render_operand(e.b)})"
    if isinstance(e, Un):
        return f"{e.op}({render_operand(e.a)})"
    if isinstance(e, CmpExpr):
        return f"{e.op}({render_operand(e.a)}, {render_operand(e.b)})"
    if isinstance(e, FieldGet):
        src = f"{render_operand(e.obj)}." if e.obj else ""
        return f"getfield {src}{e.owner}#{e.name}:{e.ftype}"
    if isinstance(e, ArrayGet):
        return f"aget_{e.jtype} {e.arr}[{render_operand(e.idx)}]"
    if isinstance(e, NewObj):
        return f"new {e.cls}"
    if isinstance(e, NewArr):
        dims = ", ".join(render_operand(d) for d in e.dims)
        return f"newarray {e.elem}[{dims}]"
    if isinstance(e, Cast):
        return f"cast<{e.cls}>({e.a})"
    if isinstance(e, InstOf):
        return f"instanceof<{e.cls}>({e.a})"
    if isinstance(e, Caught):
        return f"caught {e.catch_type or 'any'}"
    if isinstance(e, Concat):
        return "concat(" + ", ".join(render_operand(a) for a in e.args) + ")"
    raise TypeError(f"unknown expression {e!r}")


def dump(ir: MethodIr) -> str:
    """Stable textual form of a MethodIr, one statement per line."""
    lines = []
    params = ", ".join(f"{r}:{t}" for r, t in ir.params)
    lines.append(f"params({params}){' static' if ir.is_static else ''}")
    for block in ir.blocks:
        lines.append(f"B{block.bid}:")
        for i in range(block.start, block.end):
            lines.append(f"  {i}: {render_stmt(ir.statements[i])}")
    for h in ir.handlers:
        covered = ",".join(f"B{b}" for b in h.covered)
        lines.append(f"handler [{covered}] -> B{h.handler} catch {h.catch_type or 'any'}")
    return "\n".join(lines) + "\n"

"""Interpreter over MethodIr for integer-arithmetic methods.

Used to check that lifting and normalization preserve semantics; supports
the int computation kind with Java 32-bit wrap-around.
"""

from __future__ import annotations

from jarscan.ir.model import (
    Assign,
    Bin,
    Branch,
    CmpExpr,
    Const,
    Copy,
    Goto,
    Lit,
    MethodIr,
    Nop,
    Return,
    Switch,
    Un,
)


class InterpError(Exception):
    pass


I32_MIN = -(1 << 31)
I32_MASK = (1 << 32) - 1


def wrap32(x: int) -> int:
    return ((x - I32_MIN) & I32_MASK) + I32_MIN


def int_binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return wrap32(a + b)
    if op == "sub":
        return wrap32(a - b)
    if op == "mul":
        return wrap32(a * b)
    if op == "div":
        if b == 0:
            raise InterpError("division by zero")
        q = abs(a) // abs(b)
        return wrap32(q if (a >= 0) == (b >= 0) else -q)
    if op == "rem":
        if b == 0:
            raise InterpError("division by zero")
        return wrap32(a - int_binop("div", a, b) * b)
    if op == "shl":
        return wrap32(a << (b & 31))
    if op == "shr":
        return a >> (b & 31)
    if op == "ushr":
        return wrap32((a & I32_MASK) >> (b & 31))
    if op == "and":
        return wrap32(a & b)
    if op == "or":
        return wrap32(a | b)
    if op == "xor":
        return wrap32(a ^ b)
    raise InterpError(f"unsupported int op {op}")


_COMPARES = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
    "le": lambda a, b: a <= b,
}


def run_ir(ir: MethodIr, args: list[int], max_steps: int = 100_000):
    """Execute an integer method; returns its int result or None for void."""
    env: dict[str, object] = {}
    params = [r for r, _ in ir.params]
    if len(args) != len(params):
        raise InterpError(f"expected {len(params)} arguments")
    for reg, value in zip(params, args):
        env[reg] = wrap32(value)

    def val(op):
        if isinstance(op, Lit):
            return op.value
        if op not in env:
            raise InterpError(f"read of unassigned register {op}")
        return env[op]

    blocks = {b.bid: b for b in ir.blocks}
    bid = ir.blocks[0].bid if ir.blocks else None
    steps = 0
    while bid is not None:
        block = blocks[bid]
        next_bid = bid + 1 if bid + 1 in blocks else None
        jumped = False
        for i in range(block.start, block.end):
            steps += 1
            if steps > max_steps:
                raise InterpError("step budget exceeded")
            stmt = ir.statements[i]
            if isinstance(stmt, Assign):
                e = stmt.expr
                if isinstance(e, Const):
                    if e.jtype != "int":
                        raise InterpError(f"non-int constant {e!r}")
                    env[stmt.target] = wrap32(e.value)
                elif isinstance(e, Copy):
                    env[stmt.target] = val(e.src)
                elif isinstance(e, Bin):
                    if e.jtype != "int":
                        raise InterpError(f"non-int arithmetic {e!r}")
                    env[stmt.target] = int_binop(e.op, val(e.a), val(e.b))
                elif isinstance(e, Un):
                    a = val(e.a)
                    if e.op == "neg_int":
                        env[stmt.target] = wrap32(-a)
                    elif e.op == "i2b":
                        env[stmt.target] = ((a & 0xFF) ^ 0x80) - 0x80
                    elif e.op == "i2s":
                        env[stmt.target] = ((a & 0xFFFF) ^ 0x8000) - 0x8000
                    elif e.op == "i2c":
                        env[stmt.target] = a & 0xFFFF
                    else:
                        raise InterpError(f"unsupported unary {e.op}")
                elif isinstance(e, CmpExpr):
                    raise InterpError("long/float compare not supported")
                else:
                    raise InterpError(f"unsupported expression {e!r}")
            elif isinstance(stmt, Branch):
                if stmt.jtype != "int":
                    raise InterpError("non-int branch")
                a, b = (val(x) for x in stmt.args)
                bid = stmt.taken if _COMPARES[stmt.op](a, b) else stmt.fallthrough
                jumped = True
                break
            elif isinstance(stmt, Goto):
                bid = stmt.target
                jumped = True
                break
            elif isinstance(stmt, Switch):
                key = val(stmt.key)
                bid = stmt.default
                for v, target in stmt.cases:
                    if v == key:
                        bid = target
                        break
                jumped = True
                break
            elif isinstance(stmt, Return):
                return val(stmt.value) if stmt.value is not None else None
            elif isinstance(stmt, Nop):
                continue
            else:
                raise InterpError(f"unsupported statement {stmt!r}")
        if not jumped:
            bid = next_bid
            if bid is None:
                raise InterpError("fell off the end of the method")
    raise InterpError("no blocks to execute")

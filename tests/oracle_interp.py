"""Reference stack-machine interpreter over decoded bytecode instructions.

Deliberately independent of the register-IR pipeline: it executes the
original instruction stream directly, so it can serve as a semantic oracle
for lifting and normalization. Integer subset only.
"""

from __future__ import annotations

I32_MIN = -(1 << 31)
I32_MASK = (1 << 32) - 1


def w32(x: int) -> int:
    return ((x - I32_MIN) & I32_MASK) + I32_MIN


_CMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b, "le": lambda a, b: a <= b,
}


def run_bytecode(code, args, max_steps=200_000):
    """Execute an int-only static method's CodeAttribute; returns the int
    result (or None for void)."""
    by_offset = {offset: i for i, (offset, _m, _ops) in enumerate(code.instructions)}
    instructions = code.instructions
    locals_ = list(args) + [0] * (code.max_locals - len(args) + 4)
    stack: list[int] = []
    i = 0
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("oracle step budget exceeded")
        _offset, m, ops = instructions[i]
        if m == "nop":
            pass
        elif m == "iconst_m1":
            stack.append(-1)
        elif m.startswith("iconst_"):
            stack.append(int(m.rsplit("_", 1)[1]))
        elif m in ("bipush", "sipush"):
            stack.append(ops[0])
        elif m == "iload":
            stack.append(locals_[ops[0]])
        elif m.startswith("iload_"):
            stack.append(locals_[int(m.rsplit("_", 1)[1])])
        elif m == "istore":
            locals_[ops[0]] = stack.pop()
        elif m.startswith("istore_"):
            locals_[int(m.rsplit("_", 1)[1])] = stack.pop()
        elif m == "iinc":
            slot, delta = ops
            locals_[slot] = w32(locals_[slot] + delta)
        elif m in ("iadd", "isub", "imul", "iand", "ior", "ixor",
                   "ishl", "ishr", "iushr", "idiv", "irem"):
            b = stack.pop()
            a = stack.pop()
            if m == "iadd":
                r = a + b
            elif m == "isub":
                r = a - b
            elif m == "imul":
                r = a * b
            elif m == "iand":
                r = a & b
            elif m == "ior":
                r = a | b
            elif m == "ixor":
                r = a ^ b
            elif m == "ishl":
                r = a << (b & 31)
            elif m == "ishr":
                r = a >> (b & 31)
            elif m == "iushr":
                r = (a & I32_MASK) >> (b & 31)
            elif m == "idiv":
                q = abs(a) // abs(b)
                r = q if (a >= 0) == (b >= 0) else -q
            else:
                q = abs(a) // abs(b)
                q = q if (a >= 0) == (b >= 0) else -q
                r = a - q * b
            stack.append(w32(r))
        elif m == "ineg":
            stack.append(w32(-stack.pop()))
        elif m == "i2b":
            stack.append(((stack.pop() & 0xFF) ^ 0x80) - 0x80)
        elif m == "i2s":
            stack.append(((stack.pop() & 0xFFFF) ^ 0x8000) - 0x8000)
        elif m == "i2c":
            stack.append(stack.pop() & 0xFFFF)
        elif m == "dup":
            stack.append(stack[-1])
        elif m == "pop":
            stack.pop()
        elif m == "swap":
            stack[-1], stack[-2] = stack[-2], stack[-1]
        elif m.startswith("if_icmp"):
            b = stack.pop()
            a = stack.pop()
            if _CMP[m.removeprefix("if_icmp")](a, b):
                i = by_offset[ops[0]]
                continue
        elif m.startswith("if"):
            a = stack.pop()
            if _CMP[m.removeprefix("if")](a, 0):
                i = by_offset[ops[0]]
                continue
        elif m in ("goto", "goto_w"):
            i = by_offset[ops[0]]
            continue
        elif m == "tableswitch":
            default, low, high, targets = ops
            key = stack.pop()
            i = by_offset[targets[key - low] if low <= key <= high else default]
            continue
        elif m == "lookupswitch":
            default, pairs = ops
            key = stack.pop()
            target = default
            for v, t in pairs:
                if v == key:
                    target = t
                    break
            i = by_offset[target]
            continue
        elif m == "ireturn":
            return stack.pop()
        elif m == "return":
            return None
        else:
            raise RuntimeError(f"oracle cannot execute {m}")
        i += 1

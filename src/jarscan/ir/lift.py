"""Lift stack-machine bytecode to register-based three-address statements.

Operand-stack effects are executed symbolically per basic block; stack
values that survive a block boundary are copied into join registers named
by (target block id, stack position). Unreachable code is dropped before
ids are assigned, so block numbering is dense and deterministic.

What each instruction pops, pushes and becomes is read from the opcode
tables: ``LOCALS`` for local loads and stores, ``SHUFFLES`` for pop2,
swap and the dup family, and ``EFFECTS`` for the rest, except the
pool-dependent ops (ldc*, field access, invoke*, multianewarray), whose
effect follows from their resolved constant.
"""

from __future__ import annotations

import heapq
import logging
from bisect import bisect_left, bisect_right

from ..classfile.constant_pool import resolved_class, resolved_loadable, resolved_member
from ..classfile.descriptors import (
    category,
    jtype_of,
    parse_method_descriptor,
    render_type,
)
from ..classfile.opcodes import (
    EFFECTS,
    FORMAT_OF,
    JUMPS,
    LOCALS,
    NEWARRAY_TYPES,
    SHUFFLES,
    TERMINAL,
    branch_targets,
)
from ..errors import InconsistentStackDepthAtJoin, LiftError, StackUnderflow, UnsupportedInstruction
from .model import (
    ArrayGet,
    ArrayPut,
    Assign,
    Bin,
    Branch,
    Cast,
    Caught,
    CmpExpr,
    Const,
    Copy,
    DynInvoke,
    FieldGet,
    FieldPut,
    Goto,
    InstOf,
    Invoke,
    Lit,
    MethodIr,
    Monitor,
    NewArr,
    NewObj,
    Nop,
    Return,
    Switch,
    Throw,
    Un,
    reachable_blocks,
    renumber_handlers,
)

log = logging.getLogger(__name__)

# Mnemonics whose next instruction starts a block.
_ENDS_BLOCK = TERMINAL | JUMPS

def _leaders(instructions: tuple, handlers: tuple) -> list[int]:
    offsets = {offset for offset, _m, _ops in instructions}
    leaders = {instructions[0][0]} if instructions else set()
    prev_ends_block = False
    for offset, m, ops in instructions:
        if prev_ends_block:
            leaders.add(offset)
        leaders.update(branch_targets(m, ops))
        prev_ends_block = m in _ENDS_BLOCK
    for start, _end, handler, _catch in handlers:
        leaders.add(handler)
        if start in offsets:
            leaders.add(start)
    return sorted(leaders)


class _RawBlock:
    def __init__(self, index: int, instructions: list[tuple]):
        self.index = index                # index in offset order, pre-renumber
        self.instructions = instructions  # (offset, mnemonic, operands)
        self.start_offset = instructions[0][0]


def _partition(instructions: tuple, handlers: tuple) -> list[_RawBlock]:
    leader_set = set(_leaders(instructions, handlers))
    blocks: list[_RawBlock] = []
    current: list[tuple] = []
    for ins in instructions:
        if ins[0] in leader_set and current:
            blocks.append(_RawBlock(len(blocks), current))
            current = []
        current.append(ins)
    if current:
        blocks.append(_RawBlock(len(blocks), current))
    return blocks


def lift(key: tuple) -> MethodIr:
    """Lift one method body into a MethodIr.

    ``key`` is the body's ``resolved_code``: descriptor, ``is_static``,
    exception table and instructions with every pool operand resolved.
    Nothing else is read. Raises StackUnderflow /
    InconsistentStackDepthAtJoin on malformed or obfuscated stack
    discipline, UnsupportedInstruction on jsr/ret, and BadConstantPoolRef
    for a pool operand of the wrong kind.
    """
    descriptor, is_static, handlers, instructions = key
    for offset, m, _ops in instructions:
        if m in ("jsr", "jsr_w", "ret"):
            raise UnsupportedInstruction(f"{m} at offset {offset}")
    if not instructions:
        raise LiftError("empty code array")

    raw_blocks = _partition(instructions, handlers)
    offset_to_block = {rb.start_offset: rb.index for rb in raw_blocks}
    table = [(offset_to_block[handler], catch) for _s, _e, handler, catch in handlers]

    # Each block's tuple of covering handler indices. A range covers a span of
    # the sorted blocks; a block takes the tuple of the last span end at or before it.
    starts = [rb.start_offset for rb in raw_blocks]
    lasts = [rb.instructions[-1][0] for rb in raw_blocks]
    spans = [(bisect_left(lasts, s), bisect_left(starts, e)) for s, e, _h, _c in handlers]
    cuts = sorted({0}.union(*spans))
    at_cut: list[list] = [[] for _ in cuts]
    for i, (lo, hi) in enumerate(spans):
        for k in range(bisect_left(cuts, lo), bisect_left(cuts, hi)):
            at_cut[k].append(i)
    tuples = [tuple(indices) for indices in at_cut]
    coverage = [tuples[bisect_right(cuts, b) - 1] for b in range(len(raw_blocks))]

    def static_successors(b: int) -> list[int]:
        _offset, m, ops = raw_blocks[b].instructions[-1]
        succs = [offset_to_block[t] for t in branch_targets(m, ops)]
        if m not in TERMINAL and b + 1 < len(raw_blocks):
            succs.append(b + 1)
        return succs

    reachable = reachable_blocks(0, static_successors, coverage, table)

    dropped = [rb for rb in raw_blocks if rb.index not in reachable]
    for rb in dropped:
        log.debug("dropping unreachable block at offset %d", rb.start_offset)

    kept = [rb for rb in raw_blocks if rb.index in reachable]
    renumber = {rb.index: i for i, rb in enumerate(kept)}
    table, coverage = renumber_handlers(table, [coverage[rb.index] for rb in kept], renumber)

    # Parameter registers by local slot.
    params, _ret = parse_method_descriptor(descriptor)
    param_regs: list[tuple[str, str]] = []
    slot_map: dict[int, str] = {}
    slot = 0
    if not is_static:
        slot_map[0] = "p0"
        param_regs.append(("p0", "ref"))
        slot = 1
    for pdesc in params:
        reg = f"p{slot}"
        slot_map[slot] = reg
        param_regs.append((reg, jtype_of(pdesc)))
        slot += category(pdesc)

    state = _Lifter(slot_map, renumber, raw_blocks, offset_to_block)

    # Entry shapes: entry block empty; handler heads one caught reference.
    for head, catch in table:
        state.handler_catch[head] = catch
        state.set_entry_shape(head, (1,))
    state.set_entry_shape(0, ())
    state.run(kept)

    return MethodIr.from_blocks(
        tuple(param_regs), is_static,
        [state.block_statements[new_id] for new_id in range(len(kept))],
        table, coverage)


class _Lifter:
    def __init__(self, slot_map, renumber, raw_blocks, offset_to_block):
        self.slot_map = dict(slot_map)     # local slot -> register
        self.renumber = renumber
        self.raw_blocks = raw_blocks
        self.offset_to_block = offset_to_block
        self.block_statements: dict[int, list] = {}
        self.entry_shape: dict[int, tuple] = {}   # new id -> category vector
        self.ready: list[int] = []                # heap of ids given a shape, not yet lifted
        self.handler_catch: dict[int, str | None] = {}
        self.temp_count = 0

    def fresh(self) -> str:
        name = f"t{self.temp_count}"
        self.temp_count += 1
        return name

    def set_entry_shape(self, new_id: int, cats: tuple):
        prev = self.entry_shape.get(new_id)
        if prev is None:
            self.entry_shape[new_id] = cats
            heapq.heappush(self.ready, new_id)
        elif prev != cats:
            raise InconsistentStackDepthAtJoin(
                f"block {new_id} entered with stack shapes {prev} and {cats}"
            )

    def entry_stack(self, new_id: int) -> list[tuple[str, int]]:
        return [(f"j{new_id}_{i}", cat)
                for i, cat in enumerate(self.entry_shape[new_id])]

    def local(self, slot: int) -> str:
        reg = self.slot_map.get(slot)
        if reg is None:
            reg = f"l{slot}"
            self.slot_map[slot] = reg
        return reg

    def run(self, kept):
        """Lift the lowest-numbered block whose entry shape is known until
        none is left. Each id enters the heap once, when its shape is set."""
        while self.ready:
            new_id = heapq.heappop(self.ready)
            self._process(kept[new_id], new_id)
        if len(self.block_statements) < len(kept):
            raise InconsistentStackDepthAtJoin(
                "blocks reachable only through unprocessed joins"
            )

    # -- join plumbing ------------------------------------------------------

    def _emit_join_copies(self, out: list, stack, succ_new_id: int):
        cats = tuple(cat for _, cat in stack)
        self.set_entry_shape(succ_new_id, cats)
        targets = [f"j{succ_new_id}_{i}" for i in range(len(stack))]
        sources = [reg for reg, _ in stack]
        pairs = [(d, s) for d, s in zip(targets, sources) if d != s]
        clobbered = {d for d, _ in pairs}
        if any(s in clobbered for _, s in pairs):
            # Parallel copy: route conflicting sources through fresh temps.
            staged = []
            for d, s in pairs:
                tmp = self.fresh()
                out.append(Assign(tmp, Copy(s)))
                staged.append((d, tmp))
            pairs = staged
        for d, s in pairs:
            out.append(Assign(d, Copy(s)))

    def _succ_new(self, raw_index: int) -> int:
        new = self.renumber.get(raw_index)
        if new is None:
            raise LiftError("control transfer to a missing block")
        return new

    # -- per-block simulation ------------------------------------------------

    def _process(self, raw: _RawBlock, new_id: int):
        out: list = []
        stack = self.entry_stack(new_id)
        if new_id in self.handler_catch:
            out.append(Assign(stack[0][0], Caught(self.handler_catch[new_id])))

        def push(reg: str, cat: int = 1):
            stack.append((reg, cat))

        def pop(expect_cat: int | None = None) -> str:
            if not stack:
                raise StackUnderflow(f"pop on empty stack in block {new_id}")
            reg, cat = stack.pop()
            if expect_cat is not None and cat != expect_cat:
                raise LiftError(f"expected category {expect_cat} value, got {cat}")
            return reg

        def spill(target_reg: str):
            for i, (reg, cat) in enumerate(stack):
                if reg == target_reg:
                    tmp = self.fresh()
                    out.append(Assign(tmp, Copy(reg)))
                    stack[i] = (tmp, cat)

        def assign_fresh(expr, cat: int = 1) -> str:
            t = self.fresh()
            out.append(Assign(t, expr))
            push(t, cat)
            return t

        def group(slots: int) -> list:
            taken = []
            need = slots
            while need > 0:
                if not stack:
                    raise StackUnderflow(f"stack group underflow in block {new_id}")
                entry = stack.pop()
                taken.append(entry)
                need -= entry[1]
            if need != 0:
                raise LiftError("category-2 value split by stack shuffle")
            taken.reverse()
            return taken

        for offset, m, ops in raw.instructions:
            if m in LOCALS:
                access = LOCALS[m]
                reg = self.local(access.slot_of(ops))
                if access.store:
                    v = pop(access.category)
                    spill(reg)
                    out.append(Assign(reg, Copy(v)))
                else:
                    push(reg, access.category)
            elif m in SHUFFLES:
                shuffle = SHUFFLES[m]
                groups = [group(slots) for slots in shuffle.takes]
                for i in shuffle.puts:
                    stack.extend(groups[i])
            elif m in ("ldc", "ldc_w", "ldc2_w"):
                kind, value = resolved_loadable(ops[0])
                if kind == "other":
                    raise UnsupportedInstruction(
                        f"ldc of constant tag {value} at offset {offset}")
                if kind == "class":
                    value = value.replace("/", ".")
                cat = 2 if kind in ("long", "double") else 1
                assign_fresh(Const(value, kind), cat)
            elif m in ("getstatic", "getfield"):
                owner, name, fdesc = resolved_member(ops[0])
                obj = pop(1) if m == "getfield" else None
                ftype = render_type(fdesc)
                cat = category(fdesc)
                assign_fresh(FieldGet(owner.replace("/", "."), name, ftype, obj), cat)
            elif m in ("putstatic", "putfield"):
                owner, name, fdesc = resolved_member(ops[0])
                v = pop(category(fdesc))
                obj = pop(1) if m == "putfield" else None
                out.append(FieldPut(owner.replace("/", "."), name,
                                    render_type(fdesc), obj, v))
            elif m in ("invokevirtual", "invokespecial", "invokestatic",
                       "invokeinterface"):
                owner, name, mdesc = resolved_member(ops[0])
                kind = m.removeprefix("invoke")
                pdescs, ret = parse_method_descriptor(mdesc)
                args = [pop(category(p)) for p in reversed(pdescs)]
                if kind != "static":
                    args.append(pop(1))  # receiver
                args.reverse()
                result = None
                if ret != "V":
                    result = self.fresh()
                out.append(Invoke(result, kind, owner.replace("/", "."),
                                  name, mdesc, tuple(args)))
                if result is not None:
                    push(result, category(ret))
            elif m == "invokedynamic":
                _bsm, name, mdesc = resolved_member(ops[0], indy=True)
                pdescs, ret = parse_method_descriptor(mdesc)
                args = [pop(category(p)) for p in reversed(pdescs)]
                args.reverse()
                result = None
                if ret != "V":
                    result = self.fresh()
                out.append(DynInvoke(result, name, mdesc, tuple(args)))
                if result is not None:
                    push(result, category(ret))
            elif m == "multianewarray":
                entry, dims = ops
                desc = resolved_class(entry)
                counts = [pop(1) for _ in range(dims)]
                counts.reverse()
                assign_fresh(NewArr(render_type(desc), tuple(counts)))
            else:
                effect = EFFECTS[m]
                kind, jtype = effect.kind, effect.jtype
                # A class operand is resolved before the pops. pop builds
                # nothing, and jsr and ret were refused up front.
                cls = None
                if FORMAT_OF[m] == "cp16":
                    cls = resolved_class(ops[0]).replace("/", ".")
                args = [pop(cat) for cat in reversed(effect.pops)]
                args.reverse()
                if kind == "const":
                    assign_fresh(Const(ops[0] if ops else effect.op, jtype), effect.push)
                elif kind == "bin":
                    assign_fresh(Bin(effect.op, jtype, *args), effect.push)
                elif kind == "un":
                    assign_fresh(Un(effect.op, *args), effect.push)
                elif kind == "cmp":
                    assign_fresh(CmpExpr(effect.op, *args))
                elif kind == "aload":
                    assign_fresh(ArrayGet(jtype, *args), effect.push)
                elif kind == "astore":
                    out.append(ArrayPut(jtype, *args))
                elif kind == "if":
                    if len(args) == 1:
                        args.append(Lit(0 if jtype == "int" else None, jtype))
                    self._finish_branch(out, stack, raw, effect.op, jtype, tuple(args), ops[0])
                elif kind == "goto":
                    target = self._succ_new(self.offset_to_block[ops[0]])
                    self._emit_join_copies(out, stack, target)
                    out.append(Goto(target))
                elif kind == "switch":
                    if m == "tableswitch":
                        default, low, _high, targets = ops
                        pairs = ((low + i, t) for i, t in enumerate(targets))
                    else:
                        default, pairs = ops
                    cases = tuple(sorted((v, self._succ_new(self.offset_to_block[t]))
                                         for v, t in pairs))
                    dflt = self._succ_new(self.offset_to_block[default])
                    for succ in sorted({dflt, *(b for _, b in cases)}):
                        self._emit_join_copies(out, stack, succ)
                    out.append(Switch(args[0], cases, dflt))
                elif kind == "return":
                    out.append(Return(args[0] if args else None, jtype))
                elif kind == "throw":
                    out.append(Throw(*args))
                elif kind == "iinc":
                    slot, delta = ops
                    reg = self.local(slot)
                    spill(reg)
                    out.append(Assign(reg, Bin("add", "int", reg, Lit(delta, "int"))))
                elif kind == "new":
                    assign_fresh(NewObj(cls))
                elif kind == "newarray":
                    if cls is None:
                        cls = NEWARRAY_TYPES[ops[0]]
                    elif cls.startswith("["):
                        cls = render_type(cls.replace(".", "/"))
                    assign_fresh(NewArr(cls, tuple(args)))
                elif kind == "checkcast":
                    assign_fresh(Cast(cls, *args))
                elif kind == "instanceof":
                    assign_fresh(InstOf(cls, *args))
                elif kind == "monitor":
                    out.append(Monitor(effect.op, *args))
                elif kind == "nop":
                    out.append(Nop())

        if raw.instructions[-1][1] not in _ENDS_BLOCK:
            # Implicit fall-through into the next block.
            nxt = raw.index + 1
            if nxt >= len(self.raw_blocks):
                raise LiftError("code falls off the end of the method")
            self._emit_join_copies(out, stack, self._succ_new(nxt))
        self.block_statements[new_id] = out

    def _finish_branch(self, out, stack, raw, op, jtype, args, target):
        taken = self._succ_new(self.offset_to_block[target])
        fallthrough = self._succ_new(raw.index + 1)
        self._emit_join_copies(out, stack, taken)
        if fallthrough != taken:
            self._emit_join_copies(out, stack, fallthrough)
        out.append(Branch(op, jtype, args, taken, fallthrough))

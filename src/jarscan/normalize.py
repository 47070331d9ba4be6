"""Remove bytecode differences caused by different compilation environments.

Fixed pass pipeline, applied in order:

  1. strip-debug: no debug names survive lifting, so this renumbers the
     non-parameter registers by first-definition order
  2. nop elimination (plus removal of blocks emptied by it)
  2b. string-concatenation unification: builder chains and indirect concat
      factories both rewrite to one abstract concat expression
  3. jump threading: goto-to-goto chains collapsed
  4. branch canonicalization: conditionals rewritten so the fallthrough
     successor is the earlier block, flipping the comparison accordingly
  5. duplicate-return merging: identical return-terminated blocks coalesced
  6. constant-materialization unification: every constant-loading form of
     the same value is already a single literal form after lifting; values
     are re-canonicalized here

The pipeline ends with a canonical compaction (entry block first, dense
block ids, registers renumbered again) which makes normalize idempotent.
Pass order is part of the knowledge-base format version.
"""

from __future__ import annotations

import dataclasses

from .classfile.model import STRING_BUILDERS
from .ir.model import (
    Assign,
    Bin,
    Block,
    Branch,
    CmpExpr,
    Concat,
    Const,
    Copy,
    DynInvoke,
    FieldGet,
    Goto,
    HandlerInfo,
    Invoke,
    MethodIr,
    NEGATED_OP,
    NewObj,
    Nop,
    Return,
    Switch,
    TERMINATORS,
    Throw,
    render_stmt,
    stmt_def,
    stmt_uses,
)

_TERMINATOR_TYPES = TERMINATORS


# ------------------------------------------------------------- working form

class _Work:
    def __init__(self, ir: MethodIr):
        self.params = ir.params
        self.is_static = ir.is_static
        self.blocks: list[list] = [
            list(ir.statements[b.start:b.end]) for b in ir.blocks
        ]
        self.handlers: list[list] = [
            [set(h.covered), h.handler, h.catch_type] for h in ir.handlers
        ]
        self.entry = 0

    def retarget(self, mapping: dict[int, int]):
        def rt(bid: int) -> int:
            return mapping.get(bid, bid)

        for stmts in self.blocks:
            for i, s in enumerate(stmts):
                if isinstance(s, Branch):
                    stmts[i] = dataclasses.replace(
                        s, taken=rt(s.taken), fallthrough=rt(s.fallthrough))
                elif isinstance(s, Goto):
                    stmts[i] = dataclasses.replace(s, target=rt(s.target))
                elif isinstance(s, Switch):
                    stmts[i] = dataclasses.replace(
                        s, cases=tuple((v, rt(b)) for v, b in s.cases),
                        default=rt(s.default))
        for h in self.handlers:
            h[0] = {rt(b) for b in h[0]}
            h[1] = rt(h[1])
        self.entry = rt(self.entry)

    def successors(self, bid: int) -> list[int]:
        stmts = self.blocks[bid]
        if stmts:
            last = stmts[-1]
            if isinstance(last, Branch):
                return sorted({last.taken, last.fallthrough})
            if isinstance(last, Goto):
                return [last.target]
            if isinstance(last, Switch):
                return sorted({last.default, *(b for _, b in last.cases)})
            if isinstance(last, (Return, Throw)):
                return []
        nxt = bid + 1
        return [nxt] if nxt < len(self.blocks) else []

    def materialize_gotos(self):
        """Give every non-terminated block an explicit goto so blocks can
        be reordered or deleted without breaking implicit fall-through."""
        for bid, stmts in enumerate(self.blocks):
            if stmts and not isinstance(stmts[-1], _TERMINATOR_TYPES):
                stmts.append(Goto(bid + 1))

    def compact(self):
        """Drop unreachable blocks, put the entry first, renumber densely."""
        self.materialize_gotos()
        reachable: set[int] = set()
        work = [self.entry]
        while work:
            b = work.pop()
            if b in reachable:
                continue
            reachable.add(b)
            work.extend(self.successors(b))
            for covered, handler, _ in self.handlers:
                if handler not in reachable and reachable & covered:
                    work.append(handler)

        order = [self.entry] + [b for b in range(len(self.blocks))
                                if b in reachable and b != self.entry]
        mapping = {old: new for new, old in enumerate(order)}
        new_blocks = [self.blocks[old] for old in order]
        new_handlers = []
        for covered, handler, catch in self.handlers:
            kept = {mapping[b] for b in covered if b in mapping}
            if kept and handler in mapping:
                new_handlers.append([kept, mapping[handler], catch])
        self.blocks = new_blocks
        self.handlers = new_handlers
        self.retarget(mapping)
        self.entry = 0

    def drop_layout_gotos(self):
        """Remove trailing gotos that only encode adjacency."""
        for bid, stmts in enumerate(self.blocks):
            if (len(stmts) > 1 and isinstance(stmts[-1], Goto)
                    and stmts[-1].target == bid + 1):
                stmts.pop()


# ------------------------------------------------------------ register pass

def _map_registers(stmt, f):
    """Rebuild a statement with f applied to every register occurrence."""
    def op(x):
        return f(x) if isinstance(x, str) else x

    if isinstance(stmt, Assign):
        e = stmt.expr
        if isinstance(e, Copy):
            e = Copy(f(e.src))
        elif isinstance(e, Bin):
            e = dataclasses.replace(e, a=op(e.a), b=op(e.b))
        elif isinstance(e, CmpExpr):
            e = dataclasses.replace(e, a=op(e.a), b=op(e.b))
        elif isinstance(e, Concat):
            e = Concat(tuple(op(a) for a in e.args))
        elif hasattr(e, "a") and isinstance(getattr(e, "a"), str):
            e = dataclasses.replace(e, a=f(e.a))
        if isinstance(e, FieldGet) and e.obj is not None:
            e = dataclasses.replace(e, obj=f(e.obj))
        if hasattr(e, "arr"):
            e = dataclasses.replace(e, arr=f(e.arr), idx=op(e.idx))
        if hasattr(e, "dims"):
            e = dataclasses.replace(e, dims=tuple(op(d) for d in e.dims))
        return Assign(f(stmt.target), e)
    if isinstance(stmt, (Invoke, DynInvoke)):
        return dataclasses.replace(
            stmt,
            result=f(stmt.result) if stmt.result else None,
            args=tuple(op(a) for a in stmt.args))
    if hasattr(stmt, "value") and hasattr(stmt, "obj"):  # FieldPut
        return dataclasses.replace(
            stmt, obj=f(stmt.obj) if stmt.obj else None, value=op(stmt.value))
    if hasattr(stmt, "arr"):  # ArrayPut
        return dataclasses.replace(stmt, arr=f(stmt.arr), idx=op(stmt.idx),
                                   value=op(stmt.value))
    if isinstance(stmt, Branch):
        return dataclasses.replace(stmt, args=tuple(op(a) for a in stmt.args))
    if isinstance(stmt, Switch):
        return dataclasses.replace(stmt, key=f(stmt.key))
    if isinstance(stmt, Return) and stmt.value is not None:
        return dataclasses.replace(stmt, value=f(stmt.value))
    if isinstance(stmt, Throw):
        return dataclasses.replace(stmt, value=f(stmt.value))
    if hasattr(stmt, "kind") and hasattr(stmt, "value"):  # Monitor
        return dataclasses.replace(stmt, value=f(stmt.value))
    return stmt


def _renumber_registers(work: _Work):
    params = {r for r, _ in work.params}
    mapping: dict[str, str] = {r: r for r in params}

    def visit(reg: str):
        if reg not in mapping:
            mapping[reg] = f"v{len(mapping) - len(params)}"

    for stmts in work.blocks:
        for s in stmts:
            d = stmt_def(s)
            if d is not None:
                visit(d)
            for u in stmt_uses(s):
                visit(u)

    for stmts in work.blocks:
        for i, s in enumerate(stmts):
            stmts[i] = _map_registers(s, lambda r: mapping[r])


# -------------------------------------------------------------- small passes

def _eliminate_nops(work: _Work):
    for stmts in work.blocks:
        stmts[:] = [s for s in stmts if not isinstance(s, Nop)]
    n = len(work.blocks)
    # References to an emptied block resolve to the next non-empty one;
    # a trailing empty block cannot occur in liftable code.
    resolution: dict[int, int] = {}
    for bid in range(n - 1, -1, -1):
        resolution[bid] = bid if work.blocks[bid] else resolution.get(bid + 1, bid)
    ref_map = {b: r for b, r in resolution.items() if r != b}
    if ref_map:
        work.retarget(ref_map)
    for h in work.handlers:
        h[0] = {b for b in h[0] if work.blocks[b]}
    survivors = [b for b in range(n) if work.blocks[b]]
    if len(survivors) != n:
        del_map = {old: new for new, old in enumerate(survivors)}
        work.blocks = [work.blocks[b] for b in survivors]
        work.handlers = [h for h in work.handlers if h[0]]
        work.retarget(del_map)
    work.compact()


def _thread_jumps(work: _Work):
    def final_target(bid: int) -> int:
        seen = set()
        while bid not in seen:
            seen.add(bid)
            stmts = work.blocks[bid]
            if len(stmts) == 1 and isinstance(stmts[0], Goto):
                bid = stmts[0].target
            else:
                break
        return bid

    mapping = {}
    for bid in range(len(work.blocks)):
        stmts = work.blocks[bid]
        if len(stmts) == 1 and isinstance(stmts[0], Goto):
            mapping[bid] = final_target(bid)
    if mapping:
        work.retarget(mapping)
        work.compact()


_CANONICAL_FLIP = {"ne": "eq", "ge": "lt", "gt": "le"}


def _canonicalize_operators(work: _Work):
    """Layout-independent step: orient every conditional so its comparison
    operator comes from {eq, lt, le}, swapping the successor roles."""
    for stmts in work.blocks:
        for i, s in enumerate(stmts):
            if isinstance(s, Branch) and s.op in _CANONICAL_FLIP:
                stmts[i] = Branch(_CANONICAL_FLIP[s.op], s.jtype, s.args,
                                  taken=s.fallthrough, fallthrough=s.taken)


def _successor_roles(stmts: list) -> list[int]:
    """Successors in canonical visit order (fallthrough before taken)."""
    if not stmts:
        return []
    last = stmts[-1]
    if isinstance(last, Branch):
        return [last.fallthrough, last.taken]
    if isinstance(last, Goto):
        return [last.target]
    if isinstance(last, Switch):
        return [b for _v, b in sorted(last.cases)] + [last.default]
    return []


def _canonical_reorder(work: _Work):
    """Place blocks in fallthrough-first depth-first order from the entry
    (then from each handler head), so equivalent control-flow graphs get
    byte-identical layouts regardless of how the compiler arranged them."""
    work.materialize_gotos()
    order: list[int] = []
    seen: set[int] = set()

    def visit(root: int):
        stack = [root]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            order.append(b)
            succs = [s for s in _successor_roles(work.blocks[b]) if s not in seen]
            stack.extend(reversed(succs))

    visit(work.entry)
    for _covered, handler, _catch in work.handlers:
        visit(handler)
    for b in range(len(work.blocks)):  # safety: keep anything missed
        if b not in seen:
            order.append(b)

    mapping = {old: new for new, old in enumerate(order)}
    work.blocks = [work.blocks[old] for old in order]
    work.retarget(mapping)
    work.entry = 0


def _canonicalize_branches(work: _Work):
    for stmts in work.blocks:
        for i, s in enumerate(stmts):
            if isinstance(s, Branch) and s.taken < s.fallthrough:
                stmts[i] = Branch(NEGATED_OP[s.op], s.jtype, s.args,
                                  taken=s.fallthrough, fallthrough=s.taken)


def _handler_signature(work: _Work, bid: int) -> tuple:
    return tuple(sorted((h[1], h[2] or "") for h in work.handlers if bid in h[0]))


def _alpha_key(stmts: list) -> tuple:
    local: dict[str, str] = {}

    def rename(r: str) -> str:
        return local.get(r, r)

    rendered = []
    for s in stmts:
        d = stmt_def(s)
        if d is not None and d not in local:
            local[d] = f"_a{len(local)}"
        rendered.append(render_stmt(_map_registers(s, rename)))
    return tuple(rendered)


def _fallthrough_targets(work: _Work) -> set[int]:
    """Blocks entered by falling off the previous block (no terminator).

    After the first compaction every block carries an explicit terminator,
    so this is normally empty; kept as a safety net."""
    out = set()
    for bid in range(1, len(work.blocks)):
        prev = work.blocks[bid - 1]
        if not prev or not isinstance(prev[-1], _TERMINATOR_TYPES):
            out.add(bid)
    return out


def _merge_duplicate_returns(work: _Work):
    fallen_into = _fallthrough_targets(work)
    groups: dict[tuple, int] = {}
    mapping: dict[int, int] = {}
    for bid, stmts in enumerate(work.blocks):
        if not stmts or not isinstance(stmts[-1], Return):
            continue
        key = (_alpha_key(stmts), _handler_signature(work, bid))
        keeper = groups.setdefault(key, bid)
        # A block entered by fall-through must stay in place.
        if keeper != bid and bid not in fallen_into:
            mapping[bid] = keeper
    if mapping:
        work.retarget(mapping)
        work.compact()


def _unify_constants(work: _Work):
    for stmts in work.blocks:
        for i, s in enumerate(stmts):
            if isinstance(s, Assign) and isinstance(s.expr, Const):
                e = s.expr
                if e.jtype in ("int", "long"):
                    stmts[i] = Assign(s.target, Const(int(e.value), e.jtype))
                elif e.jtype in ("float", "double"):
                    stmts[i] = Assign(s.target, Const(float(e.value), e.jtype))


# ----------------------------------------------------- string concatenation

def _use_count(work: _Work) -> dict[str, int]:
    counts: dict[str, int] = {}
    for stmts in work.blocks:
        for s in stmts:
            for u in stmt_uses(s):
                counts[u] = counts.get(u, 0) + 1
    return counts


def _rewrite_concat(work: _Work):
    """Recognize the two canonical string-concatenation shapes and rewrite
    both to an abstract concat expression: builder append chains and
    invokedynamic concat factories.

    Use counts are taken once and again only after a builder chain is
    rewritten: a factory rewrite uses exactly the registers it replaces.
    """
    uses = _use_count(work)
    for stmts in work.blocks:
        # Indirect concat factory.
        for i, s in enumerate(stmts):
            if isinstance(s, DynInvoke) and s.name == "makeConcatWithConstants" \
                    and s.result is not None:
                stmts[i] = Assign(s.result, Concat(s.args))

        # Builder chain: new / <init> / append* / toString within one block,
        # with every intermediate value used exactly once. Argument loads
        # may interleave, so the chain is followed through receiver defs.
        progress = True
        while progress:
            progress = False
            def_at = {}
            for idx, stmt in enumerate(stmts):
                d = stmt_def(stmt)
                if d is not None:
                    def_at[d] = idx
            for i, s in enumerate(stmts):
                if not (isinstance(s, Invoke) and s.kind == "virtual"
                        and s.owner in STRING_BUILDERS and s.name == "toString"
                        and s.result is not None and s.args):
                    continue
                chain = {i}
                args: list = []
                receiver = s.args[0]
                ok = False
                while True:
                    j = def_at.get(receiver)
                    if j is None or j >= i or j in chain:
                        break
                    prev = stmts[j]
                    if (isinstance(prev, Invoke) and prev.kind == "virtual"
                            and prev.owner in STRING_BUILDERS
                            and prev.name == "append"
                            and prev.result == receiver
                            and uses.get(receiver, 0) == 1
                            and len(prev.args) == 2):
                        chain.add(j)
                        args.append(prev.args[1])
                        receiver = prev.args[0]
                        continue
                    if (isinstance(prev, Assign) and isinstance(prev.expr, NewObj)
                            and prev.expr.cls in STRING_BUILDERS
                            and uses.get(receiver, 0) == 2):
                        init_idx = next(
                            (k for k, st in enumerate(stmts)
                             if isinstance(st, Invoke) and st.kind == "special"
                             and st.name == "<init>"
                             and st.owner in STRING_BUILDERS
                             and st.args and st.args[0] == receiver),
                            None)
                        if init_idx is None or init_idx in chain:
                            break
                        init = stmts[init_idx]
                        if len(init.args) > 1:
                            args.append(init.args[1])
                        chain.add(j)
                        chain.add(init_idx)
                        ok = True
                    break
                if ok:
                    result = s.result
                    args.reverse()
                    removed_before = sum(1 for idx in chain if idx < i)
                    for idx in sorted(chain, reverse=True):
                        del stmts[idx]
                    stmts.insert(i - removed_before,
                                 Assign(result, Concat(tuple(args))))
                    uses = _use_count(work)
                    progress = True
                    break


# ----------------------------------------------------------------- pipeline

def normalize(ir: MethodIr) -> MethodIr:
    """Apply the full pass pipeline; idempotent and semantics-preserving."""
    work = _Work(ir)
    _renumber_registers(work)          # 1 strip-debug
    _eliminate_nops(work)              # 2
    _rewrite_concat(work)              # 2b concat unification
    _thread_jumps(work)                # 3
    _canonicalize_operators(work)      # 4a layout-independent orientation
    _canonical_reorder(work)           # 4b canonical block layout
    _canonicalize_branches(work)       # 4c fallthrough gets the earlier block
    _merge_duplicate_returns(work)     # 5
    _unify_constants(work)             # 6
    work.compact()
    work.drop_layout_gotos()
    _renumber_registers(work)          # canonical names after removals

    statements: list = []
    blocks: list[Block] = []
    for bid, stmts in enumerate(work.blocks):
        start = len(statements)
        statements.extend(stmts)
        blocks.append(Block(bid, start, len(statements)))
    handlers = tuple(HandlerInfo(tuple(sorted(c)), h, catch)
                     for c, h, catch in work.handlers)
    return MethodIr(params=work.params, is_static=work.is_static,
                    statements=statements, blocks=blocks, handlers=handlers)

"""Remove bytecode differences caused by different compilation environments.

Fixed pass pipeline, applied in order:

  1. nop elimination (plus removal of blocks emptied by it)
  1b. string-concatenation unification: builder chains, found in one scan
      per block, and indirect concat factories both rewrite to one
      abstract concat expression
  2. jump threading: goto-to-goto chains collapsed
  3. branch canonicalization: conditionals rewritten so the fallthrough
     successor is the earlier block, flipping the comparison accordingly
  4. duplicate-return merging: identical return-terminated blocks coalesced

The passes read register names only by equality. The pipeline ends with
a canonical compaction (entry block first, dense block ids) and renames
the non-parameter registers by first occurrence in the final layout, so
no name lifting chose survives (strip-debug). A second pass changes
nothing on the synthetic corpus and on random int methods, which the
tests check, but normalize is not idempotent in general: on some real
methods a second pass flips a branch that the first left with its
fallthrough on the later block. Pass order is part of the knowledge-base
format version.

The exception table is a list of (head, catch type) handlers, and each
block's tuple of the indices of the handlers that cover it; blocks with
equal coverage share one tuple. Passes move blocks in exactly two ways.
``redirect`` sends jumps, the entry and handler heads from one block to
another. It maps heads only, so no block's coverage changes, and a block
no longer entered is dropped by the next ``compact``. ``renumber`` keeps
the listed blocks, in that order, with their tuples, and maps every block
reference once. It drops a handler whose head was dropped or that covers
no kept block, and reindexes each distinct tuple once.
"""

from __future__ import annotations

from collections import Counter

from .classfile.model import STRING_BUILDERS
from .ir.model import (
    Assign,
    Branch,
    Concat,
    DynInvoke,
    Goto,
    Invoke,
    MethodIr,
    NEGATED_OP,
    NewObj,
    Node,
    Nop,
    Return,
    TERMINATORS,
    block_targets,
    map_block_targets,
    plain_operand,
    reachable_blocks,
    render_stmt,
    renumber_handlers,
    stmt_def,
    stmt_uses,
)


# ------------------------------------------------------------- working form

class _Work:
    def __init__(self, ir: MethodIr):
        self.params = ir.params
        self.is_static = ir.is_static
        self.blocks: list[list] = [
            list(ir.statements[b.start:b.end]) for b in ir.blocks
        ]
        self.handlers: list[tuple] = list(ir.handlers)
        self.coverage: list[tuple] = [b.handlers for b in ir.blocks]
        self.entry = 0

    def redirect(self, mapping: dict[int, int]):
        """Send jumps, the entry and handler heads to their image in ``mapping``."""
        def rt(bid: int) -> int:
            return mapping.get(bid, bid)

        for stmts in self.blocks:
            if stmts:
                stmts[-1] = map_block_targets(stmts[-1], rt)
        self.handlers = [(rt(head), catch) for head, catch in self.handlers]
        self.entry = rt(self.entry)

    def renumber(self, order: list[int]):
        """Keep the blocks in ``order``, in that order."""
        new_id = {old: new for new, old in enumerate(order)}
        self.blocks = [self.blocks[old] for old in order]
        for stmts in self.blocks:
            stmts[-1] = map_block_targets(stmts[-1], new_id.__getitem__)
        self.handlers, self.coverage = renumber_handlers(
            self.handlers, [self.coverage[old] for old in order], new_id)
        self.entry = new_id[self.entry]

    def materialize_gotos(self):
        """Give every non-terminated block an explicit goto so blocks can
        be reordered or deleted without breaking implicit fall-through."""
        for bid, stmts in enumerate(self.blocks):
            if stmts and not isinstance(stmts[-1], TERMINATORS):
                stmts.append(Goto(bid + 1))

    def compact(self):
        """Drop unreachable blocks, put the entry first, renumber densely."""
        self.materialize_gotos()
        reachable = reachable_blocks(self.entry, lambda b: block_targets(self.blocks[b][-1]),
                                     self.coverage, self.handlers)
        self.renumber([self.entry, *sorted(reachable - {self.entry})])

    def drop_layout_gotos(self):
        """Remove trailing gotos that only encode adjacency."""
        for bid, stmts in enumerate(self.blocks):
            if (len(stmts) > 1 and isinstance(stmts[-1], Goto)
                    and stmts[-1].target == bid + 1):
                stmts.pop()


# ------------------------------------------------------------ register pass

def _map_registers(node, f):
    """Rebuild a statement or expression with f applied to every register
    it reads or defines, as its class declares them."""
    registers = (*node.OPERANDS, node.DEFINES)
    if registers == (None,):
        return node
    values = []
    for name in node.__match_args__:          # the fields, in order
        value = getattr(node, name)
        if name in registers:
            if isinstance(value, str):
                value = f(value)
            elif isinstance(value, tuple):
                value = tuple([f(x) if isinstance(x, str) else x for x in value])
            elif isinstance(value, Node):
                value = _map_registers(value, f)
        values.append(value)
    return type(node)(*values)


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
    work.materialize_gotos()
    # References to an emptied block resolve to the next non-empty one;
    # a trailing empty block cannot occur in liftable code.
    mapping: dict[int, int] = {}
    nonempty = None
    for bid in range(len(work.blocks) - 1, -1, -1):
        if work.blocks[bid]:
            nonempty = bid
        elif nonempty is not None:
            mapping[bid] = nonempty
    work.redirect(mapping)
    work.compact()


def _thread_jumps(work: _Work):
    """Send each jump to a goto-only block on to the end of its goto chain:
    the first block that is not goto-only, or the block where the chain
    runs into a cycle. A cycle's own blocks keep their jumps. Each block
    is walked once."""
    hop = {bid: stmts[0].target for bid, stmts in enumerate(work.blocks)
           if len(stmts) == 1 and isinstance(stmts[0], Goto)}
    mapping: dict[int, int] = {}
    for bid in hop:
        path: dict[int, int] = {}          # block -> its place on this walk
        while bid in hop and bid not in mapping and bid not in path:
            path[bid] = len(path)
            bid = hop[bid]
        walk = list(path)
        if bid in path:
            mapping.update((b, b) for b in walk[path[bid]:])
            walk = walk[:path[bid]]
        end = mapping.get(bid, bid)
        mapping.update((b, end) for b in walk)
    if mapping:
        work.redirect(mapping)
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
            succs = [s for s in block_targets(work.blocks[b][-1]) if s not in seen]
            stack.extend(reversed(succs))

    visit(work.entry)
    for head, _catch in work.handlers:
        visit(head)
    work.renumber(order)


def _canonicalize_branches(work: _Work):
    for stmts in work.blocks:
        for i, s in enumerate(stmts):
            if isinstance(s, Branch) and s.taken < s.fallthrough:
                stmts[i] = Branch(NEGATED_OP[s.op], s.jtype, s.args,
                                  taken=s.fallthrough, fallthrough=s.taken)


def _alpha_key(stmts: list) -> tuple:
    """The block's ``dump`` lines, with each register it defines renamed
    "_a0.." by first definition, so blocks that differ only in those
    names share a key."""
    local: dict[str, str] = {}

    def operand(op) -> str:
        return local.get(op, op) if isinstance(op, str) else plain_operand(op)

    rendered = []
    for s in stmts:
        d = stmt_def(s)
        if d is not None and d not in local:
            local[d] = f"_a{len(local)}"
        rendered.append(render_stmt(s, operand))
    return tuple(rendered)


def _merge_duplicate_returns(work: _Work):
    groups: dict[tuple, int] = {}
    mapping: dict[int, int] = {}
    for bid, stmts in enumerate(work.blocks):
        if not isinstance(stmts[-1], Return):
            continue
        signature = tuple(sorted((work.handlers[i][0], work.handlers[i][1] or "")
                                 for i in work.coverage[bid]))
        key = (_alpha_key(stmts), signature)
        keeper = groups.setdefault(key, bid)
        if keeper != bid:
            mapping[bid] = keeper
    if mapping:
        work.redirect(mapping)


# ----------------------------------------------------- string concatenation

def _rewrite_concat(work: _Work):
    """Recognize the two canonical string-concatenation shapes and rewrite
    both to an abstract concat expression: builder append chains and
    invokedynamic concat factories.

    Chains are found in one scan per block, against use counts taken once
    per method. Chains share no statement, and rewriting one removes only
    the uses of its own receivers (its arguments move into the concat), so
    no count another chain is checked against changes.
    """
    uses = Counter(u for stmts in work.blocks for s in stmts for u in stmt_uses(s))
    for stmts in work.blocks:
        def_at: dict[str, int] = {}
        first_init: dict[str, int] = {}
        to_strings: list[int] = []
        for idx, s in enumerate(stmts):
            # Indirect concat factory.
            if isinstance(s, DynInvoke) and s.name == "makeConcatWithConstants" \
                    and s.result is not None:
                stmts[idx] = s = Assign(s.result, Concat(s.args))
            d = stmt_def(s)
            if d is not None:
                def_at[d] = idx
            if isinstance(s, Invoke) and s.owner in STRING_BUILDERS and s.args:
                if s.kind == "special" and s.name == "<init>":
                    first_init.setdefault(s.args[0], idx)
                elif s.kind == "virtual" and s.name == "toString" and s.result is not None:
                    to_strings.append(idx)

        # Builder chain: new / <init> / append* / toString within one block,
        # with every intermediate value used exactly once. Argument loads
        # may interleave, so the chain is followed through receiver defs.
        concat_at: dict[int, tuple] = {}     # toString index -> concat args
        removed: set[int] = set()
        for i in to_strings:
            chain = {i}
            args: list = []
            receiver = stmts[i].args[0]
            while True:
                j = def_at.get(receiver)
                if j is None or j >= i or j in chain:
                    break
                prev = stmts[j]
                if (isinstance(prev, Invoke) and prev.kind == "virtual"
                        and prev.owner in STRING_BUILDERS and prev.name == "append"
                        and len(prev.args) == 2 and uses[receiver] == 1):
                    chain.add(j)
                    args.append(prev.args[1])
                    receiver = prev.args[0]
                    continue
                if (isinstance(prev, Assign) and isinstance(prev.expr, NewObj)
                        and prev.expr.cls in STRING_BUILDERS
                        and uses[receiver] == 2 and receiver in first_init):
                    init_at = first_init[receiver]
                    args.extend(stmts[init_at].args[1:2])
                    removed |= (chain - {i}) | {j, init_at}
                    concat_at[i] = tuple(reversed(args))
                break
        if concat_at:
            stmts[:] = [Assign(s.result, Concat(concat_at[i])) if i in concat_at else s
                        for i, s in enumerate(stmts) if i not in removed]


# ----------------------------------------------------------------- pipeline

def normalize(ir: MethodIr) -> MethodIr:
    """Apply the full pass pipeline; semantics-preserving. Idempotent on
    the synthetic corpus and random int methods, not on every method."""
    work = _Work(ir)
    _eliminate_nops(work)              # 1
    _rewrite_concat(work)              # 1b concat unification
    _thread_jumps(work)                # 2
    _canonicalize_operators(work)      # 3a layout-independent orientation
    _canonical_reorder(work)           # 3b canonical block layout
    _canonicalize_branches(work)       # 3c fallthrough gets the earlier block
    _merge_duplicate_returns(work)     # 4
    work.compact()                     # drops the blocks 4 merged away
    work.drop_layout_gotos()
    _renumber_registers(work)          # canonical names after removals

    return MethodIr.from_blocks(work.params, work.is_static, work.blocks,
                                work.handlers, work.coverage)

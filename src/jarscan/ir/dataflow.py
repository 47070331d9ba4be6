"""Reaching-definition data dependencies and post-dominance control
dependencies over a MethodIr and its Cfg, kept per use and per
controller rather than as statement pairs.

Sets are ints used as bitsets: bit *i* is the definition at statement
*i*, bit *n* + 2 the CFG node *n* (ENTRY and EXIT are -1 and -2), and a
block set's bit *b* the block *b*. Control dependence follows Ferrante,
Ottenstein and Warren (TOPLAS 1987), vacuous reading included: a node
that cannot reach EXIT is post-dominated by every node.
"""

from __future__ import annotations

from collections import deque

from .cfg import EXIT, Cfg
from .model import MethodIr, stmt_def, stmt_uses


def _bits(x: int):
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _reaching_uses(ir: MethodIr, cfg: Cfg) -> list:
    """(use stmt, register, bitset of the defs that reach it) per use."""
    stmts = ir.statements
    defs_of: dict[str, int] = {}
    for i, stmt in enumerate(stmts):
        d = stmt_def(stmt)
        if d is not None:
            defs_of[d] = defs_of.get(d, 0) | 1 << i

    # gen: the last def of each register the block defines; kill: every
    # def of those registers (disjoint per register, so sums are unions).
    gen: dict[int, int] = {}
    kill: dict[int, int] = {}
    for block in ir.blocks:
        last = {stmt_def(stmts[i]): i for i in range(block.start, block.end)}
        last.pop(None, None)
        gen[block.bid] = sum(1 << i for i in last.values())
        kill[block.bid] = sum(defs_of[r] for r in last)

    reach_in = dict.fromkeys(gen, 0)
    reach_out = dict.fromkeys(gen, 0)
    work, queued = deque(gen), set(gen)
    while work:
        b = work.popleft()
        queued.discard(b)
        new_in = 0
        for p in cfg.predecessors(b):
            new_in |= reach_out.get(p, 0)    # ENTRY contributes nothing
        reach_in[b] = new_in
        new_out = new_in & ~kill[b] | gen[b]
        if new_out != reach_out[b]:
            reach_out[b] = new_out
            for s in cfg.successors(b):
                if s in reach_out and s not in queued:
                    queued.add(s)
                    work.append(s)

    uses = []
    for block in ir.blocks:
        live = reach_in[block.bid]
        local: dict[str, int] = {}            # register -> its def so far in the block
        for i in range(block.start, block.end):
            stmt = stmts[i]
            for r in stmt_uses(stmt):
                defs = 1 << local[r] if r in local else live & defs_of.get(r, 0)
                if defs:
                    uses.append((i, r, defs))
            d = stmt_def(stmt)
            if d is not None:
                local[d] = i
    return uses


def reaching_data_edges(ir: MethodIr, cfg: Cfg) -> frozenset:
    """(def stmt, use stmt, register) where the def reaches the use."""
    return frozenset((d, i, r) for i, r, defs in _reaching_uses(ir, cfg) for d in _bits(defs))


def postdominators(cfg: Cfg) -> dict[int, int]:
    """Iterative post-dominator bitsets on the EXIT-augmented graph.

    Nodes that cannot reach EXIT keep the full node set, which matches the
    vacuous reading of "d lies on every path to EXIT".
    """
    all_nodes = sum(1 << (n + 2) for n in cfg.nodes)
    pdom = dict.fromkeys(cfg.nodes, all_nodes)
    pdom[EXIT] = 1 << (EXIT + 2)
    order = [n for n in reversed(cfg.nodes) if n != EXIT]
    changed = True
    while changed:
        changed = False
        for n in order:
            new = all_nodes        # and stays so without successors
            for s in cfg.successors(n):
                new &= pdom[s]
            new |= 1 << (n + 2)
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


def _dependent_blocks(cfg: Cfg, pdom: dict[int, int]):
    """(A, the blocks that post-dominate S but not A) per successor S of A."""
    for a in cfg.block_nodes():
        for s in cfg.successors(a):
            yield a, (pdom[s] & ~pdom[a]) >> 2     # drops ENTRY's and EXIT's bits


def control_dependent_blocks(cfg: Cfg, pdom: dict[int, int] | None = None) -> frozenset:
    """(controller block, dependent block) pairs."""
    if pdom is None:
        pdom = postdominators(cfg)
    return frozenset((a, b) for a, dependent in _dependent_blocks(cfg, pdom)
                     for b in _bits(dependent))


def dependencies(ir: MethodIr, cfg: Cfg) -> tuple[list, dict]:
    """(use stmt, register, bitset of the defs reaching it) per use, and
    controller stmt -> bitset of the blocks dependent on it."""
    # The controller is A's terminator, or its last stmt for exception splits.
    last = {b.bid: b.end - 1 for b in ir.blocks}
    ctrl: dict[int, int] = {}
    for a, dependent in _dependent_blocks(cfg, postdominators(cfg)):
        if dependent:
            ctrl[last[a]] = ctrl.get(last[a], 0) | dependent
    return _reaching_uses(ir, cfg), ctrl

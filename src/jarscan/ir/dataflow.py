"""Reaching-definition data dependencies and post-dominance control
dependencies over a MethodIr and its Cfg.

Sets are ints used as bitsets: bit *i* is the definition at statement
*i*, and bit *n* + 2 the CFG node *n* (ENTRY and EXIT are -1 and -2).
Control dependence follows Ferrante, Ottenstein and Warren (TOPLAS
1987), vacuous reading included: a node that cannot reach EXIT is
post-dominated by every node.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cfg import ENTRY, EXIT, Cfg
from .model import MethodIr, stmt_def, stmt_uses


@dataclass(frozen=True)
class DepGraph:
    data_edges: frozenset  # (def stmt index, use stmt index, register)
    ctrl_edges: frozenset  # (controller stmt index, controlled stmt index)


def _node_bit(n: int) -> int:
    return 1 << (n + 2)


def _bits(x: int):
    """Indices of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def reaching_data_edges(ir: MethodIr, cfg: Cfg) -> frozenset:
    """Def-use edges where the definition reaches the use on some path."""
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

    edges = set()
    for block in ir.blocks:
        live = reach_in[block.bid]
        local: dict[str, int] = {}            # register -> its def so far in the block
        for i in range(block.start, block.end):
            stmt = stmts[i]
            for r in stmt_uses(stmt):
                if r in local:
                    edges.add((local[r], i, r))
                else:
                    edges.update((d, i, r) for d in _bits(live & defs_of.get(r, 0)))
            d = stmt_def(stmt)
            if d is not None:
                local[d] = i
    return frozenset(edges)


def postdominators(cfg: Cfg) -> dict[int, int]:
    """Iterative post-dominator bitsets on the EXIT-augmented graph.

    Nodes that cannot reach EXIT keep the full node set, which matches the
    vacuous reading of "d lies on every path to EXIT".
    """
    all_nodes = sum(_node_bit(n) for n in cfg.nodes)
    pdom = dict.fromkeys(cfg.nodes, all_nodes)
    pdom[EXIT] = _node_bit(EXIT)
    order = [n for n in reversed(cfg.nodes) if n != EXIT]
    changed = True
    while changed:
        changed = False
        for n in order:
            new = all_nodes        # and stays so without successors
            for s in cfg.successors(n):
                new &= pdom[s]
            new |= _node_bit(n)
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


def control_dependent_blocks(cfg: Cfg, pdom: dict[int, int] | None = None) -> frozenset:
    """(controller block, dependent block) pairs.

    B is control-dependent on A when A has a successor S with B
    post-dominating S but B not post-dominating A itself.
    """
    if pdom is None:
        pdom = postdominators(cfg)
    pairs = set()
    for a in cfg.block_nodes():
        for s in cfg.successors(a):
            dependent = pdom[s] & ~pdom[a] & ~(_node_bit(ENTRY) | _node_bit(EXIT))
            pairs.update((a, bit - 2) for bit in _bits(dependent))
    return frozenset(pairs)


def dependencies(ir: MethodIr, cfg: Cfg) -> DepGraph:
    """Statement-level dependence graph feeding CPG construction."""
    data = reaching_data_edges(ir, cfg)
    pdom = postdominators(cfg)
    block_by_id = {b.bid: b for b in ir.blocks}
    # The controller is A's terminator, or its last stmt for exception splits.
    ctrl = frozenset((block_by_id[a].end - 1, s)
                     for a, b in control_dependent_blocks(cfg, pdom)
                     for s in range(block_by_id[b].start, block_by_id[b].end))
    return DepGraph(data_edges=data, ctrl_edges=ctrl)

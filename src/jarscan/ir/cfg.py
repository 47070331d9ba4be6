"""Control-flow graph over MethodIr blocks with synthetic ENTRY/EXIT."""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .model import MethodIr, Return, Throw, block_targets

log = logging.getLogger(__name__)

ENTRY = -1
EXIT = -2


@dataclass
class Cfg:
    """Each node's successors and predecessors, sorted and distinct."""

    nodes: tuple
    succ: dict
    pred: dict

    def successors(self, node: int) -> list[int]:
        return self.succ[node]

    def predecessors(self, node: int) -> list[int]:
        return self.pred[node]

    def block_nodes(self) -> list[int]:
        return [n for n in self.nodes if n not in (ENTRY, EXIT)]


def build_cfg(ir: MethodIr) -> Cfg:
    """Derive the block-level CFG from terminators and exception coverage."""
    ids = [b.bid for b in ir.blocks]
    id_set = set(ids)
    heads = [head for head, _catch in ir.handlers]
    nodes = (ENTRY, EXIT, *ids)
    succ = {n: set() for n in nodes}
    succ[ENTRY].update(ids[:1])

    for block in ir.blocks:
        term = ir.terminator(block)
        if isinstance(term, (Return, Throw)):
            targets = (EXIT,)
        elif term is not None:
            targets = block_targets(term)
        elif block.bid + 1 in id_set:
            targets = (block.bid + 1,)
        else:
            log.warning("block %d falls through past the last block", block.bid)
            targets = (EXIT,)
        succ[block.bid].update(targets)
        if block.handlers:
            succ[block.bid].update([heads[i] for i in block.handlers])

    # Sources in ascending order, so each predecessor list comes out sorted.
    pred = {n: [] for n in nodes}
    for n in sorted(succ):
        succ[n] = sorted(succ[n])
        for s in succ[n]:
            pred[s].append(n)
    return Cfg(nodes=nodes, succ=succ, pred=pred)

"""Control-flow graph over MethodIr blocks with synthetic ENTRY/EXIT."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .model import MethodIr, Return, Throw, block_targets

log = logging.getLogger(__name__)

ENTRY = -1
EXIT = -2


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str  # flow | exception


@dataclass
class Cfg:
    nodes: tuple
    edges: tuple
    _succ: dict = field(default_factory=dict, repr=False, compare=False)
    _pred: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for n in self.nodes:
            self._succ[n] = []
            self._pred[n] = []
        for e in self.edges:
            self._succ[e.src].append(e.dst)
            self._pred[e.dst].append(e.src)
        for n in self.nodes:
            self._succ[n] = sorted(set(self._succ[n]))
            self._pred[n] = sorted(set(self._pred[n]))

    def successors(self, node: int) -> list[int]:
        return self._succ[node]

    def predecessors(self, node: int) -> list[int]:
        return self._pred[node]

    def block_nodes(self) -> list[int]:
        return [n for n in self.nodes if n not in (ENTRY, EXIT)]


def build_cfg(ir: MethodIr) -> Cfg:
    """Derive the block-level CFG from terminators and exception coverage."""
    edges: set[Edge] = set()
    ids = [b.bid for b in ir.blocks]
    id_set = set(ids)

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
        edges.update(Edge(block.bid, t, "flow") for t in targets)

    for h in ir.handlers:
        for covered in h.covered:
            if covered in id_set and h.handler in id_set:
                edges.add(Edge(covered, h.handler, "exception"))

    if ids:
        edges.add(Edge(ENTRY, ids[0], "flow"))
    nodes = tuple([ENTRY, EXIT] + ids)
    return Cfg(nodes=nodes, edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.kind))))

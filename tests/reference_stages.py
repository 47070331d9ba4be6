"""Reference oracles for the IR stages whose cost was made to follow
their output: the edge-list CFG, the set-based dependence analysis, the
statement-level CPG, jump threading and the restarting
string-concatenation rewrite they replaced, kept for differential tests.

``build_cfg`` builds one ``Edge`` per block and successor, sorts the
edge set and rebuilds each node's successor and predecessor lists from
it; ``reaching_data_edges`` sweeps the blocks round-robin over sets of
(statement, register) pairs; ``postdominators`` keeps a frozenset per
node; ``control_dependent_blocks`` reads those sets; ``dependencies``
expands them into (def, use) and (controller, controlled) statement
pairs; ``build_cpg`` makes a node per statement and operand and an edge
per pair, and ``extract_triplets`` folds the edges into labels;
``_thread_jumps`` walks the whole goto chain from every goto-only block;
``_rewrite_concat`` rebuilds its definition map and use counts after
every chain it rewrites. The package's versions must give the same
successor and predecessor lists, the same edges, the same post-dominator sets (through ``oracles.node_sets``), the
same pairs, the same triplets and, swapped into ``normalize``, the same
normalized IR.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from jarscan.classfile.model import STRING_BUILDERS
from jarscan.cpg import Triplet, _child_tokens, _position_free
from jarscan.ir.cfg import ENTRY, EXIT
from jarscan.ir.model import (
    Assign,
    Concat,
    DynInvoke,
    Goto,
    Invoke,
    MethodIr,
    NewObj,
    Return,
    Throw,
    block_targets,
    stmt_def,
    stmt_label,
    stmt_uses,
)
from jarscan.normalize import _Work

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------- CFG

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

    for (head, _catch), covered_blocks in zip(ir.handlers, ir.covered_blocks()):
        for covered in covered_blocks:
            if covered in id_set and head in id_set:
                edges.add(Edge(covered, head, "exception"))

    if ids:
        edges.add(Edge(ENTRY, ids[0], "flow"))
    nodes = tuple([ENTRY, EXIT] + ids)
    return Cfg(nodes=nodes, edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.kind))))


# ------------------------------------------------------------- dependences


def reaching_data_edges(ir: MethodIr, cfg: Cfg) -> frozenset:
    """Def-use edges where the definition reaches the use on some path."""
    defs_of_reg: dict[str, set[int]] = {}
    for i, stmt in enumerate(ir.statements):
        d = stmt_def(stmt)
        if d is not None:
            defs_of_reg.setdefault(d, set()).add(i)

    gen: dict[int, dict[str, int]] = {}
    kill_regs: dict[int, set[str]] = {}
    for block in ir.blocks:
        g: dict[str, int] = {}
        for i in range(block.start, block.end):
            d = stmt_def(ir.statements[i])
            if d is not None:
                g[d] = i
        gen[block.bid] = g
        kill_regs[block.bid] = set(g)

    blocks = [b.bid for b in ir.blocks]
    in_sets: dict[int, set] = {b: set() for b in blocks}
    out_sets: dict[int, set] = {b: set() for b in blocks}
    changed = True
    while changed:
        changed = False
        for b in blocks:
            new_in = set()
            for p in cfg.predecessors(b):
                if p not in (ENTRY, EXIT):
                    new_in |= out_sets[p]
            new_out = {(i, r) for i, r in new_in if r not in kill_regs[b]}
            new_out |= {(i, r) for r, i in gen[b].items()}
            if new_in != in_sets[b] or new_out != out_sets[b]:
                in_sets[b] = new_in
                out_sets[b] = new_out
                changed = True

    edges = set()
    for block in ir.blocks:
        current: dict[str, set[int]] = {}
        for i, r in in_sets[block.bid]:
            current.setdefault(r, set()).add(i)
        for i in range(block.start, block.end):
            stmt = ir.statements[i]
            for r in stmt_uses(stmt):
                for d in current.get(r, ()):
                    edges.add((d, i, r))
            d = stmt_def(stmt)
            if d is not None:
                current[d] = {i}
    return frozenset(edges)


def postdominators(cfg: Cfg) -> dict[int, frozenset]:
    """Iterative post-dominator sets on the EXIT-augmented graph.

    Nodes that cannot reach EXIT keep the full node set, which matches the
    vacuous reading of "d lies on every path to EXIT".
    """
    all_nodes = frozenset(cfg.nodes)
    pdom: dict[int, frozenset] = {n: all_nodes for n in cfg.nodes}
    pdom[EXIT] = frozenset({EXIT})
    changed = True
    while changed:
        changed = False
        for n in cfg.nodes:
            if n == EXIT:
                continue
            succs = cfg.successors(n)
            if succs:
                acc = None
                for s in succs:
                    acc = pdom[s] if acc is None else acc & pdom[s]
                new = acc | {n}
            else:
                new = frozenset({n}) if n == EXIT else all_nodes
            if new != pdom[n]:
                pdom[n] = new
                changed = True
    return pdom


def control_dependent_blocks(cfg: Cfg, pdom: dict[int, frozenset] | None = None) -> frozenset:
    """(controller block, dependent block) pairs.

    B is control-dependent on A when A has a successor S with B
    post-dominating S but B not post-dominating A itself.
    """
    if pdom is None:
        pdom = postdominators(cfg)
    pairs = set()
    for a in cfg.block_nodes():
        for s in cfg.successors(a):
            for b in pdom[s]:
                if b in (ENTRY, EXIT):
                    continue
                if b not in pdom[a]:
                    pairs.add((a, b))
    return frozenset(pairs)


@dataclass(frozen=True)
class DepGraph:
    data_edges: frozenset  # (def stmt index, use stmt index, register)
    ctrl_edges: frozenset  # (controller stmt index, controlled stmt index)


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


# ---------------------------------------------------------------------- CPG

@dataclass
class Cpg:
    """Labeled graph: node id -> label, edges as (src id, edge label, dst id)."""

    nodes: dict
    edges: list


def build_cpg(ir: MethodIr, cfg: Cfg, deps: DepGraph) -> Cpg:
    """Assemble the per-method CPG from normalized IR, CFG and dependences."""
    operand = _position_free(ir.param_registers())
    nodes: dict = {}
    edges: list = []

    for i, stmt in enumerate(ir.statements):
        nodes[("s", i)] = stmt_label(stmt, operand)
        for k, child in enumerate(_child_tokens(stmt, operand)):
            nodes[("o", i, k)] = child
            edges.append((("s", i), f"AST:{k}", ("o", i, k)))

    # Statement-level control-flow successor edges.
    for block in ir.blocks:
        for i in range(block.start, block.end - 1):
            edges.append((("s", i), "CFG", ("s", i + 1)))
    first_of = {b.bid: b.start for b in ir.blocks if b.end > b.start}
    last_of = {b.bid: b.end - 1 for b in ir.blocks if b.end > b.start}
    for src, last in last_of.items():
        for dst in cfg.successors(src):
            if dst in first_of:
                edges.append((("s", last), "CFG", ("s", first_of[dst])))

    for d, u, _reg in sorted(deps.data_edges):
        edges.append((("s", d), "DATA", ("s", u)))
    for c, s in sorted(deps.ctrl_edges):
        edges.append((("s", c), "CTRL", ("s", s)))
    return Cpg(nodes=nodes, edges=edges)


def extract_triplets(cpg: Cpg) -> frozenset:
    """One triplet per edge, on node labels; set semantics deduplicate."""
    return frozenset(
        Triplet(cpg.nodes[src], label, cpg.nodes[dst])
        for src, label, dst in cpg.edges
    )


# ------------------------------------------------------------ jump threading

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
        work.redirect(mapping)
        work.compact()


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

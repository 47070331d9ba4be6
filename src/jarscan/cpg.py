"""Code property graphs and the edge triplets read off them.

Matching reads only the distinct (source label, edge label, target
label) triplets of a method's AST, CFG, DATA and CTRL edges, so
``build_cpg`` builds the label graph: the set of those triplets, with
dependences grouped by label, never expanded to statement pairs. Labels
come only from normalized IR content (no statement ordinals, block ids
or register numbers): ``ir.model.stmt_label`` with registers rendered as
their defining position ("p0" for parameters, an anonymous "%"
otherwise), so two structurally identical methods yield label-identical
graphs and package relocation only shows up inside type/method tokens,
where unqualification can strip it.
"""

from __future__ import annotations

from collections import defaultdict

from ._record import Record
from .ir.cfg import Cfg
from .ir.dataflow import _bits
from .ir.model import (
    Assign,
    Cast,
    Const,
    DynInvoke,
    FieldGet,
    FieldPut,
    InstOf,
    Invoke,
    Lit,
    MethodIr,
    NewObj,
    lit_label,
    operands,
    stmt_label,
)
from .triplets import (  # noqa: F401  (re-exported: the triplet API)
    FixSignature,
    Triplet,
    TripletSet,
    diff,
    unqualify,
)


# ------------------------------------------------------------------ labels

def _position_free(params: set):
    """Operand renderer of node labels: a literal by its text, a parameter
    register by name, any other register as "%"."""
    def operand(op) -> str:
        if isinstance(op, Lit):
            return lit_label(op.value, op.jtype)
        return op if op in params else "%"
    return operand


def _child_tokens(stmt, operand) -> list[str]:
    """Labels of AST child nodes: callee/field/type/constant tokens first,
    then one per operand."""
    node = stmt.expr if isinstance(stmt, Assign) else stmt
    children: list[str] = []
    if isinstance(node, Invoke):
        children.append(f"callee:{node.owner}#{node.name}")
    elif isinstance(node, DynInvoke):
        children.append(f"callee:dynamic#{node.name}")
    elif isinstance(node, (FieldGet, FieldPut)):
        children.append(f"field:{node.owner}#{node.name}:{node.ftype}")
    elif isinstance(node, (Cast, InstOf, NewObj)):
        children.append(f"type:{node.cls}")
    elif isinstance(node, Const):
        children.append(f"lit:{lit_label(node.value, node.jtype)}")
    children.extend(("lit:" if isinstance(x, Lit) else "reg:") + operand(x)
                    for x in operands(stmt))
    return children


# --------------------------------------------------------------------- CPG

class Cpg(Record):
    """The label graph: its distinct (label, edge label, label) edges."""

    __slots__ = ("edges",)

    def __init__(self, edges: set):
        self.edges = edges


def build_cpg(ir: MethodIr, cfg: Cfg, deps: tuple[list, dict]) -> Cpg:
    """The label graph of ``ir``; each def or block bitset of
    ``dependencies`` is read once per distinct label."""
    uses, ctrl = deps
    operand = _position_free(ir.param_registers())
    labels = [stmt_label(stmt, operand) for stmt in ir.statements]
    edges = {(label, f"AST:{k}", child) for label, stmt in zip(labels, ir.statements)
             for k, child in enumerate(_child_tokens(stmt, operand))}

    # CFG: successors within a block, and (last, first) across block edges.
    first_of = {b.bid: labels[b.start] for b in ir.blocks if b.end > b.start}
    for b in ir.blocks:
        edges.update((labels[i], "CFG", labels[i + 1]) for i in range(b.start, b.end - 1))
        if b.end > b.start:
            edges.update((labels[b.end - 1], "CFG", first_of[s])
                         for s in cfg.successors(b.bid) if s in first_of)

    defs_by_use, blocks_by_controller = defaultdict(int), defaultdict(int)
    for i, _reg, defs in uses:
        defs_by_use[labels[i]] |= defs
    for c, blocks in ctrl.items():
        blocks_by_controller[labels[c]] |= blocks
    def_labels: dict[int, set] = {}          # def bitset -> its labels
    for use, defs in defs_by_use.items():
        if defs not in def_labels:
            def_labels[defs] = {labels[d] for d in _bits(defs)}
        edges.update((d, "DATA", use) for d in def_labels[defs])
    block_labels = {b.bid: set(labels[b.start:b.end]) for b in ir.blocks}
    for c, blocks in blocks_by_controller.items():
        edges.update((c, "CTRL", s) for b in _bits(blocks) for s in block_labels[b])

    return Cpg(edges=edges)


def extract_triplets(cpg: Cpg) -> frozenset:
    """One triplet per edge of the label graph."""
    return frozenset(map(Triplet._make, cpg.edges))


def method_triplets(cf, method) -> frozenset:
    """Full pipeline for one method: lift its ``resolved_code``, normalize,
    CPG, triplets.

    Raises LiftError subclasses for stack-corrupt or jsr-bearing bytecode,
    BadConstantPoolRef for a pool operand that does not resolve or is of
    the wrong kind.
    """
    from .classfile.model import resolved_code
    from .ir.cfg import build_cfg
    from .ir.dataflow import dependencies
    from .ir.lift import lift
    from .normalize import normalize

    ir = normalize(lift(resolved_code(method, cf.constant_pool)))
    cfg = build_cfg(ir)
    return extract_triplets(build_cpg(ir, cfg, dependencies(ir, cfg)))

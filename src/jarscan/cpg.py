"""Code property graphs and the edge triplets read off them.

A CPG has one node per normalized IR statement plus one child node per
operand; edges carry the four kind labels (AST child edges also carry the
child index). Node labels are derived only from normalized IR content:
no statement ordinals, no block ids, no register numbers. Statement labels
are ``ir.model.stmt_label``, defined once for the CPG and ``dump`` alike;
here registers render as their defining position ("p0" for parameters,
an anonymous "%" otherwise), so two structurally identical methods yield
label-identical graphs and package relocation only shows up inside
type/method tokens, where unqualification can strip it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir.cfg import ENTRY, EXIT, Cfg
from .ir.dataflow import DepGraph
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
from .triplets import (  # noqa: F401  (re-exported: the triplet encoding's API)
    SEP,
    FixSignature,
    Triplet,
    TripletSet,
    deserialize_triplets,
    diff,
    serialize_triplets,
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
    for e in cfg.edges:
        if e.src in (ENTRY, EXIT) or e.dst in (ENTRY, EXIT):
            continue
        if e.src in last_of and e.dst in first_of:
            edges.append((("s", last_of[e.src]), "CFG", ("s", first_of[e.dst])))

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

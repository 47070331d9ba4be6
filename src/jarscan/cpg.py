"""Code property graphs and the edge triplets read off them.

A CPG has one node per normalized IR statement plus one child node per
operand; edges carry the four kind labels (AST child edges also carry the
child index). Node labels are derived only from normalized IR content:
no statement ordinals, no block ids, no register numbers. Registers render
as their defining position ("p0" for parameters, an anonymous "%"
otherwise), so two structurally identical methods yield label-identical
graphs and package relocation only shows up inside type/method tokens,
where unqualification can strip it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .classfile.descriptors import parse_method_descriptor, render_type
from .ir.cfg import ENTRY, EXIT, Cfg
from .ir.dataflow import DepGraph
from .ir.model import (
    ArrayGet,
    ArrayPut,
    Assign,
    Bin,
    Branch,
    Cast,
    Caught,
    CmpExpr,
    Concat,
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

def _lit_label(value, jtype: str) -> str:
    if jtype == "ref" and value is None:
        return "null"
    if jtype == "string":
        return f"string:{json.dumps(str(value))}"
    if jtype in ("float", "double"):
        return f"{jtype}:{float(value)!r}"
    return f"{jtype}:{value}"


def _reg_label(reg: str, params: set) -> str:
    return reg if reg in params else "%"


def _operand_label(op, params: set) -> str:
    if isinstance(op, Lit):
        return _lit_label(op.value, op.jtype)
    return _reg_label(op, params)


def _desc_label(desc: str) -> str:
    ptypes, ret = parse_method_descriptor(desc)
    args = ",".join(render_type(p) for p in ptypes)
    ret_s = "void" if ret == "V" else render_type(ret)
    return f"({args}):{ret_s}"


def _expr_label(e, params: set) -> str:
    op = lambda x: _operand_label(x, params)
    if isinstance(e, Const):
        return f"const {_lit_label(e.value, e.jtype)}"
    if isinstance(e, Copy):
        return f"copy {op(e.src)}"
    if isinstance(e, Bin):
        return f"{e.op}_{e.jtype}({op(e.a)}, {op(e.b)})"
    if isinstance(e, Un):
        return f"{e.op}({op(e.a)})"
    if isinstance(e, CmpExpr):
        return f"{e.op}({op(e.a)}, {op(e.b)})"
    if isinstance(e, FieldGet):
        kind = "getfield" if e.obj is not None else "getstatic"
        recv = f"({op(e.obj)})" if e.obj is not None else ""
        return f"{kind} {e.owner}#{e.name}:{e.ftype}{recv}"
    if isinstance(e, ArrayGet):
        return f"aget_{e.jtype}({op(e.arr)}[{op(e.idx)}])"
    if isinstance(e, NewObj):
        return f"new {e.cls}"
    if isinstance(e, NewArr):
        dims = ",".join(op(d) for d in e.dims)
        return f"newarray {e.elem}({dims})"
    if isinstance(e, Cast):
        return f"cast {e.cls}({op(e.a)})"
    if isinstance(e, InstOf):
        return f"instanceof {e.cls}({op(e.a)})"
    if isinstance(e, Caught):
        return f"caught {e.catch_type or 'any'}"
    if isinstance(e, Concat):
        return "concat(" + ", ".join(op(a) for a in e.args) + ")"
    raise TypeError(f"unknown expression {e!r}")


def stmt_label(stmt, params: set) -> str:
    """Position-free label of one statement node."""
    op = lambda x: _operand_label(x, params)
    if isinstance(stmt, Assign):
        return f"asgn {_expr_label(stmt.expr, params)}"
    if isinstance(stmt, Invoke):
        args = ", ".join(op(a) for a in stmt.args)
        return (f"invoke_{stmt.kind} {stmt.owner}#{stmt.name}"
                f"{_desc_label(stmt.desc)}({args})")
    if isinstance(stmt, DynInvoke):
        args = ", ".join(op(a) for a in stmt.args)
        return f"invoke_dynamic {stmt.name}{_desc_label(stmt.desc)}({args})"
    if isinstance(stmt, FieldPut):
        kind = "putfield" if stmt.obj is not None else "putstatic"
        recv = f"{op(stmt.obj)}, " if stmt.obj is not None else ""
        return f"{kind} {stmt.owner}#{stmt.name}:{stmt.ftype}({recv}{op(stmt.value)})"
    if isinstance(stmt, ArrayPut):
        return f"aput_{stmt.jtype}({op(stmt.arr)}[{op(stmt.idx)}] := {op(stmt.value)})"
    if isinstance(stmt, Branch):
        args = ", ".join(op(a) for a in stmt.args)
        return f"if_{stmt.op}_{stmt.jtype}({args})"
    if isinstance(stmt, Goto):
        return "goto"
    if isinstance(stmt, Switch):
        values = ",".join(str(v) for v, _ in sorted(stmt.cases))
        return f"switch({op(stmt.key)})[{values}]"
    if isinstance(stmt, Return):
        if stmt.value is None:
            return "return_void"
        return f"return_{stmt.jtype}({op(stmt.value)})"
    if isinstance(stmt, Throw):
        return f"throw({op(stmt.value)})"
    if isinstance(stmt, Monitor):
        return f"monitor_{stmt.kind}({op(stmt.value)})"
    if isinstance(stmt, Nop):
        return "nop"
    raise TypeError(f"unknown statement {stmt!r}")


def _child_tokens(stmt, params: set) -> list[str]:
    """Labels of AST child nodes: callee/field tokens first, then operands."""
    op = lambda x: f"lit:{_lit_label(x.value, x.jtype)}" if isinstance(x, Lit) \
        else f"reg:{_reg_label(x, params)}"
    children: list[str] = []
    if isinstance(stmt, Invoke):
        children.append(f"callee:{stmt.owner}#{stmt.name}")
        children.extend(op(a) for a in stmt.args)
    elif isinstance(stmt, DynInvoke):
        children.append(f"callee:dynamic#{stmt.name}")
        children.extend(op(a) for a in stmt.args)
    elif isinstance(stmt, FieldPut):
        children.append(f"field:{stmt.owner}#{stmt.name}:{stmt.ftype}")
        if stmt.obj is not None:
            children.append(op(stmt.obj))
        children.append(op(stmt.value))
    elif isinstance(stmt, Assign):
        e = stmt.expr
        if isinstance(e, FieldGet):
            children.append(f"field:{e.owner}#{e.name}:{e.ftype}")
            if e.obj is not None:
                children.append(op(e.obj))
        elif isinstance(e, (Bin, CmpExpr)):
            children.extend([op(e.a), op(e.b)])
        elif isinstance(e, Un):
            children.append(op(e.a))
        elif isinstance(e, Copy):
            children.append(op(e.src))
        elif isinstance(e, Const):
            children.append(f"lit:{_lit_label(e.value, e.jtype)}")
        elif isinstance(e, ArrayGet):
            children.extend([op(e.arr), op(e.idx)])
        elif isinstance(e, NewArr):
            children.extend(op(d) for d in e.dims)
        elif isinstance(e, (Cast, InstOf)):
            children.append(f"type:{e.cls}")
            children.append(op(e.a))
        elif isinstance(e, Concat):
            children.extend(op(a) for a in e.args)
        elif isinstance(e, NewObj):
            children.append(f"type:{e.cls}")
    elif isinstance(stmt, ArrayPut):
        children.extend([op(stmt.arr), op(stmt.idx), op(stmt.value)])
    elif isinstance(stmt, Branch):
        children.extend(op(a) for a in stmt.args)
    elif isinstance(stmt, Switch):
        children.append(op(stmt.key))
    elif isinstance(stmt, (Return, Throw, Monitor)):
        if getattr(stmt, "value", None) is not None:
            children.append(op(stmt.value))
    return children


# --------------------------------------------------------------------- CPG

@dataclass
class Cpg:
    """Labeled graph: node id -> label, edges as (src id, edge label, dst id)."""

    nodes: dict
    edges: list


def build_cpg(ir: MethodIr, cfg: Cfg, deps: DepGraph) -> Cpg:
    """Assemble the per-method CPG from normalized IR, CFG and dependences."""
    params = ir.param_registers()
    nodes: dict = {}
    edges: list = []

    for i, stmt in enumerate(ir.statements):
        nodes[("s", i)] = stmt_label(stmt, params)
        for k, child in enumerate(_child_tokens(stmt, params)):
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
    """Full pipeline for one method: lift, normalize, CPG, triplets.

    Raises LiftError subclasses for stack-corrupt or jsr-bearing bytecode.
    """
    from .ir.cfg import build_cfg
    from .ir.dataflow import dependencies
    from .ir.lift import lift
    from .normalize import normalize

    ir = normalize(lift(method.code, method.descriptor, method.is_static,
                        cf.constant_pool))
    cfg = build_cfg(ir)
    return extract_triplets(build_cpg(ir, cfg, dependencies(ir, cfg)))

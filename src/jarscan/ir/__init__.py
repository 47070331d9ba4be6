"""Register IR lifted from bytecode, with CFG and dependence analyses."""

from .cfg import ENTRY, EXIT, Cfg, Edge, build_cfg
from .dataflow import DepGraph, control_dependent_blocks, dependencies, postdominators, reaching_data_edges
from .lift import lift
from .model import (
    ArrayGet,
    ArrayPut,
    Assign,
    Bin,
    Block,
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
    HandlerInfo,
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
    dump,
    render_stmt,
    stmt_def,
    stmt_uses,
)

__all__ = [
    "ENTRY", "EXIT", "Cfg", "DepGraph", "Edge", "MethodIr",
    "ArrayGet", "ArrayPut", "Assign", "Bin", "Block", "Branch", "Cast",
    "Caught", "CmpExpr", "Concat", "Const", "Copy", "DynInvoke", "FieldGet",
    "FieldPut", "Goto", "HandlerInfo", "InstOf", "Invoke", "Lit", "Monitor",
    "NewArr", "NewObj", "Nop", "Return", "Switch", "Throw", "Un",
    "build_cfg", "control_dependent_blocks", "dependencies", "dump", "lift",
    "postdominators", "reaching_data_edges", "render_stmt",
    "stmt_def", "stmt_uses",
]

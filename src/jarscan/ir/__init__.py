"""Register IR lifted from bytecode, with CFG and dependence analyses."""

from .._lazy import lazy_exports

# Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    **dict.fromkeys(("ENTRY", "EXIT", "Cfg", "Edge", "build_cfg"), "cfg"),
    **dict.fromkeys(("DepGraph", "control_dependent_blocks", "dependencies",
                     "postdominators", "reaching_data_edges"), "dataflow"),
    "lift": "lift",
    **dict.fromkeys((
        "ArrayGet", "ArrayPut", "Assign", "Bin", "Block", "Branch", "Cast", "Caught",
        "CmpExpr", "Concat", "Const", "Copy", "DynInvoke", "FieldGet", "FieldPut",
        "Goto", "HandlerInfo", "InstOf", "Invoke", "Lit", "MethodIr", "Monitor",
        "NewArr", "NewObj", "Nop", "Return", "Switch", "Throw", "Un", "dump",
        "render_stmt", "stmt_def", "stmt_uses"), "model"),
}

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

__getattr__ = lazy_exports(__name__, _EXPORTS)

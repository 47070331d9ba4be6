"""Register IR lifted from bytecode, with CFG and dependence analyses."""

from .._lazy import lazy_exports

# Each public name and the submodule that defines it, imported on first use.
_EXPORTS = {
    **dict.fromkeys(("ENTRY", "EXIT", "Cfg", "build_cfg"), "cfg"),
    **dict.fromkeys(("dependencies", "postdominators"), "dataflow"),
    "lift": "lift",
    **dict.fromkeys((
        "ArrayGet", "ArrayPut", "Assign", "Bin", "Block", "Branch", "Cast", "Caught",
        "CmpExpr", "Concat", "Const", "Copy", "DynInvoke", "FieldGet", "FieldPut",
        "Goto", "InstOf", "Invoke", "Lit", "MethodIr", "Monitor",
        "NewArr", "NewObj", "Nop", "Return", "Switch", "Throw", "Un", "dump",
        "render_stmt", "stmt_def", "stmt_uses"), "model"),
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)

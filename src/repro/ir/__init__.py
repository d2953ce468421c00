"""Three-address intermediate representation and control-flow graphs.

The IR is variable-based (not pure-register): instructions define and use
:class:`~repro.ir.symbols.Variable` objects through ``Def`` / ``Use``
slots. Before SSA construction the version fields are ``None``; the SSA
pass (:mod:`repro.analysis.ssa`) fills in versions so that each
``(variable, version)`` pair is a distinct SSA name. This keeps lowering,
printing, and source-level substitution accounting simple while still
supporting sparse analyses.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ir.cfg": ("BasicBlock", "ControlFlowGraph"),
    "repro.ir.instructions": (
        "ArrayLoad", "ArrayStore", "Assign", "BinOp", "Call", "CallArg",
        "CondBranch", "Const", "Def", "Halt", "Instruction", "Jump", "Phi",
        "Print", "Read", "Return", "UnOp", "Use",
    ),
    "repro.ir.lowering": ("LoweringError", "lower_module"),
    "repro.ir.module": ("CommonBlock", "Procedure", "Program"),
    "repro.ir.printer": (
        "format_instruction", "format_procedure", "format_program",
    ),
    "repro.ir.symbols": ("SymbolTable", "Variable", "VarKind"),
})

__all__ = [
    "ArrayLoad",
    "ArrayStore",
    "Assign",
    "BasicBlock",
    "BinOp",
    "Call",
    "CallArg",
    "CommonBlock",
    "CondBranch",
    "Const",
    "ControlFlowGraph",
    "Def",
    "Halt",
    "Instruction",
    "Jump",
    "LoweringError",
    "Phi",
    "Print",
    "Procedure",
    "Program",
    "Read",
    "Return",
    "SymbolTable",
    "UnOp",
    "Use",
    "VarKind",
    "Variable",
    "format_instruction",
    "format_procedure",
    "format_program",
    "lower_module",
]

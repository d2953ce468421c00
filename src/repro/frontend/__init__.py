"""MiniFortran frontend: lexer, parser, and abstract syntax tree.

MiniFortran is a FORTRAN-77 subset covering the constructs that matter to
interprocedural constant propagation: program units (PROGRAM, SUBROUTINE,
INTEGER FUNCTION), call-by-reference parameter passing, COMMON blocks,
integer arithmetic, DO loops, block and logical IF, GOTO with labels, and
READ (the source of unknowable values).

The public entry points are :func:`parse_source` and :func:`parse_file`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.frontend.ast": (
        "ArrayRef", "Assign", "BinaryOp", "CallStmt", "CommonDecl",
        "Compare", "DimensionDecl", "DoStmt", "FunctionCall", "GotoStmt",
        "IfStmt", "IntegerDecl", "IntLiteral", "LogicalOp", "Module",
        "ParameterDecl", "PrintStmt", "ProcedureKind", "ProcedureUnit",
        "ReadStmt", "ReturnStmt", "StopStmt", "UnaryOp", "VarRef",
    ),
    "repro.frontend.errors": ("FrontendError", "LexError", "ParseError"),
    "repro.frontend.lexer": ("Lexer", "tokenize"),
    "repro.frontend.parser": ("Parser", "parse_file", "parse_source"),
    "repro.frontend.source": ("SourceFile", "SourceLocation"),
    "repro.frontend.tokens": ("Token", "TokenKind"),
})

__all__ = [
    "ArrayRef",
    "Assign",
    "BinaryOp",
    "CallStmt",
    "CommonDecl",
    "Compare",
    "DimensionDecl",
    "DoStmt",
    "FrontendError",
    "FunctionCall",
    "GotoStmt",
    "IfStmt",
    "IntLiteral",
    "IntegerDecl",
    "LexError",
    "Lexer",
    "LogicalOp",
    "Module",
    "ParameterDecl",
    "ParseError",
    "Parser",
    "PrintStmt",
    "ProcedureKind",
    "ProcedureUnit",
    "ReadStmt",
    "ReturnStmt",
    "SourceFile",
    "SourceLocation",
    "StopStmt",
    "Token",
    "TokenKind",
    "UnaryOp",
    "VarRef",
    "parse_file",
    "parse_source",
    "tokenize",
]

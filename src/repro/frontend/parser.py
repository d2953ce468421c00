"""Recursive-descent parser for MiniFortran.

The grammar is statement-per-line (NEWLINE-terminated). Declarations must
precede executable statements inside each program unit, which lets the
parser track declared array names and disambiguate ``A(I)`` between an
array reference and an INTEGER FUNCTION call.

Supported loop forms::

    DO I = 1, N [, STEP] ... ENDDO        (also END DO)
    DO 10 I = 1, N ... 10 CONTINUE        (labeled classic form)
    DO WHILE (cond) ... ENDDO

Block IF supports ELSEIF/ELSE IF arms and ELSE; ``IF (cond) stmt`` is the
logical-IF sugar.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union, TYPE_CHECKING

from repro.frontend import ast
from repro.frontend.errors import ParseError
from repro.frontend.lexer import Lexer
from repro.frontend.source import SourceFile, SourceLocation
from repro.frontend.tokens import Token, TokenKind

if TYPE_CHECKING:
    from repro.diagnostics import DiagnosticEngine

_RELATIONAL = {
    TokenKind.EQ: "eq",
    TokenKind.NE: "ne",
    TokenKind.LT: "lt",
    TokenKind.LE: "le",
    TokenKind.GT: "gt",
    TokenKind.GE: "ge",
}

#: Statement keywords allowed after a logical IF: ``IF (cond) stmt``.
_SIMPLE_STMT_STARTERS = {
    TokenKind.IDENT,
    TokenKind.CALL,
    TokenKind.GOTO,
    TokenKind.CONTINUE,
    TokenKind.RETURN,
    TokenKind.STOP,
    TokenKind.READ,
    TokenKind.PRINT,
    TokenKind.WRITE,
}


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.Module`.

    Without a :class:`~repro.diagnostics.DiagnosticEngine` the parser
    raises on the first :class:`ParseError` (the historic contract).
    With one, it performs **panic-mode recovery**: a bad statement is
    reported and the parser synchronizes at the next statement boundary
    to keep collecting diagnostics; a unit that contained any error is
    degraded to a *stub* (header only, ``is_stub=True``) so downstream
    analysis treats it maximally conservatively instead of trusting a
    half-parsed body; a unit whose header is unreadable is skipped to
    its closing ``END``.
    """

    def __init__(
        self,
        tokens: List[Token],
        filename: str = "<string>",
        diagnostics: Optional["DiagnosticEngine"] = None,
    ):
        self._tokens = tokens
        self._pos = 0
        self._filename = filename
        self._array_names: Set[str] = set()
        self._parameter_names: Set[str] = set()
        self.diagnostics = diagnostics
        self._unit_errors = 0

    # -- token helpers ----------------------------------------------------
    #
    # The stream ends with its EOF token, a sentinel the parser never
    # advances past, so the current token always exists. ``_peek(1)`` is
    # only asked for after the current token was seen to be something
    # other than EOF, so the next one exists too.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        token = self._peek()
        if token.kind is not kind:
            wanted = what or kind.value
            raise ParseError(
                f"expected {wanted}, found {token.kind.value!r} ({token.text!r})",
                token.location,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _skip_newlines(self) -> None:
        while self._at(TokenKind.NEWLINE):
            self._advance()

    def _end_statement(self) -> None:
        if self._at(TokenKind.EOF):
            return
        self._expect(TokenKind.NEWLINE, "end of statement")
        self._skip_newlines()

    # -- error recovery ----------------------------------------------------

    def _report_parse_error(self, err: ParseError) -> None:
        """Record a recovered :class:`ParseError` on the engine."""
        from repro.diagnostics import E_PARSE

        self._unit_errors += 1
        self.diagnostics.error(E_PARSE, err.message, err.location)

    def _at_statement_start(self) -> bool:
        if self._pos == 0:
            return True
        return self._tokens[self._pos - 1].kind is TokenKind.NEWLINE

    def _synchronize_to_statement_boundary(self, until: Set[TokenKind]) -> bool:
        """Skip tokens to the next statement boundary.

        Returns True when positioned at the start of the next statement
        (or at a block terminator from ``until``), False at EOF. Always
        consumes at least one token unless already at EOF or a
        terminator, so recovery loops make progress.
        """
        while True:
            token = self._peek()
            if token.kind is TokenKind.EOF:
                return False
            if token.kind is TokenKind.NEWLINE:
                self._advance()
                self._skip_newlines()
                return True
            if token.kind in until and token.kind is not TokenKind.IDENT:
                return True
            self._advance()

    def _synchronize_to_unit_end(self) -> None:
        """Skip to just past the ``END`` that closes the current unit.

        ``END`` only counts when it sits at a statement start and is
        followed by NEWLINE/EOF (so ``END IF`` / ``END DO`` inside the
        broken unit do not end the synchronization early).
        """
        while not self._at(TokenKind.EOF):
            if (
                self._at(TokenKind.END)
                and self._at_statement_start()
                and self._peek(1).kind in (TokenKind.NEWLINE, TokenKind.EOF)
            ):
                self._advance()
                self._accept(TokenKind.NEWLINE)
                return
            self._advance()

    # -- entry point -------------------------------------------------------

    def parse_module(self) -> ast.Module:
        """Parse the whole token stream into a Module of program units."""
        units: List[ast.ProcedureUnit] = []
        self._skip_newlines()
        while not self._at(TokenKind.EOF):
            unit = self._parse_unit()
            if unit is not None:
                units.append(unit)
            self._skip_newlines()
        if not units:
            if self.diagnostics is None:
                raise ParseError("empty source file", self._peek().location)
            if not self.diagnostics.has_errors:
                from repro.diagnostics import E_PARSE

                self.diagnostics.error(
                    E_PARSE, "empty source file", self._peek().location
                )
            return ast.Module([], self._filename)
        return ast.Module(units, self._filename)

    # -- program units -----------------------------------------------------

    def _parse_unit(self) -> Optional[ast.ProcedureUnit]:
        self._array_names = set()
        self._parameter_names = set()
        self._unit_errors = 0
        location = self._peek().location
        try:
            kind, name, params = self._parse_unit_header()
            self._end_statement()
        except ParseError as err:
            if self.diagnostics is None:
                raise
            # Header unreadable: nothing to stub, skip the whole unit.
            self._report_parse_error(err)
            self._synchronize_to_unit_end()
            return None
        try:
            decls = self._parse_declarations()
            body = self._parse_statement_list(until={TokenKind.END})
            self._expect(TokenKind.END)
            if not self._at(TokenKind.EOF):
                self._end_statement()
        except ParseError as err:
            if self.diagnostics is None:
                raise
            self._report_parse_error(err)
            self._synchronize_to_unit_end()
            return self._degraded_unit(kind, name, params, [], location)
        if self._unit_errors:
            # Statement-level recovery succeeded, but a half-parsed body
            # must not be analyzed as if it were the real program.
            return self._degraded_unit(kind, name, params, decls, location)
        return ast.ProcedureUnit(kind, name, params, decls, body, location)

    def _degraded_unit(
        self,
        kind: ast.ProcedureKind,
        name: str,
        params: List[str],
        decls: List[ast.Decl],
        location: SourceLocation,
    ) -> ast.ProcedureUnit:
        from repro.diagnostics import W_UNIT_DEGRADED

        self.diagnostics.warning(
            W_UNIT_DEGRADED,
            f"unit {name!r} had {self._unit_errors} syntax error(s); "
            "analyzed as an opaque stub",
            location,
        )
        return ast.ProcedureUnit(
            kind, name, params, decls, [], location, is_stub=True
        )

    def _parse_unit_header(self):
        token = self._peek()
        if self._accept(TokenKind.BLOCKDATA):
            return ast.ProcedureKind.BLOCK_DATA, self._block_data_name(), []
        if (
            token.kind is TokenKind.IDENT
            and token.value == "block"
            and self._peek(1).kind is TokenKind.DATA
        ):
            self._advance()
            self._advance()
            return ast.ProcedureKind.BLOCK_DATA, self._block_data_name(), []
        if self._accept(TokenKind.PROGRAM):
            name = self._expect(TokenKind.IDENT, "program name").value
            return ast.ProcedureKind.PROGRAM, name, []
        if self._accept(TokenKind.SUBROUTINE):
            name = self._expect(TokenKind.IDENT, "subroutine name").value
            return ast.ProcedureKind.SUBROUTINE, name, self._parse_param_list()
        if self._at(TokenKind.INTEGER) and self._peek(1).kind is TokenKind.FUNCTION:
            self._advance()
            self._advance()
            name = self._expect(TokenKind.IDENT, "function name").value
            return ast.ProcedureKind.FUNCTION, name, self._parse_param_list()
        raise ParseError(
            "expected PROGRAM, SUBROUTINE, or INTEGER FUNCTION", token.location
        )

    def _parse_param_list(self) -> List[str]:
        params: List[str] = []
        if not self._accept(TokenKind.LPAREN):
            return params
        if not self._at(TokenKind.RPAREN):
            params.append(self._expect(TokenKind.IDENT, "parameter name").value)
            while self._accept(TokenKind.COMMA):
                params.append(self._expect(TokenKind.IDENT, "parameter name").value)
        self._expect(TokenKind.RPAREN)
        return params

    # -- declarations ------------------------------------------------------

    def _parse_declarations(self) -> List[ast.Decl]:
        decls: List[ast.Decl] = []
        while True:
            token = self._peek()
            if token.kind is TokenKind.INTEGER:
                self._advance()
                decls.append(ast.IntegerDecl(token.location, self._parse_decl_items()))
            elif token.kind is TokenKind.DIMENSION:
                self._advance()
                decls.append(
                    ast.DimensionDecl(token.location, self._parse_decl_items())
                )
            elif token.kind is TokenKind.COMMON:
                self._advance()
                self._expect(TokenKind.SLASH)
                block = self._expect(TokenKind.IDENT, "common block name").value
                self._expect(TokenKind.SLASH)
                decls.append(
                    ast.CommonDecl(token.location, block, self._parse_decl_items())
                )
            elif token.kind is TokenKind.PARAMETER:
                self._advance()
                decls.append(self._parse_parameter_decl(token.location))
            elif token.kind is TokenKind.DATA:
                self._advance()
                decls.append(self._parse_data_decl(token.location))
            elif token.kind is TokenKind.EXTERNAL:
                self._advance()
                names = [
                    self._expect(TokenKind.IDENT, "external procedure name").value
                ]
                while self._accept(TokenKind.COMMA):
                    names.append(
                        self._expect(TokenKind.IDENT, "external procedure name").value
                    )
                decls.append(ast.ExternalDecl(token.location, names))
            else:
                break
            self._end_statement()
        return decls

    def _block_data_name(self) -> str:
        if self._at(TokenKind.IDENT):
            return self._advance().value
        return "blockdata"

    def _parse_data_decl(self, location: SourceLocation) -> ast.DataDecl:
        """``DATA a /1/, b, c /2, 3/`` — name groups with value groups."""
        bindings: List[Tuple[str, int]] = []
        while True:
            names = [self._expect(TokenKind.IDENT, "variable name").value]
            while self._accept(TokenKind.COMMA):
                names.append(self._expect(TokenKind.IDENT, "variable name").value)
            self._expect(TokenKind.SLASH)
            values = [self._parse_data_value()]
            while self._accept(TokenKind.COMMA):
                values.append(self._parse_data_value())
            self._expect(TokenKind.SLASH)
            if len(names) != len(values):
                raise ParseError(
                    f"DATA group has {len(names)} names but {len(values)} values",
                    location,
                )
            bindings.extend(zip(names, values))
            if not self._accept(TokenKind.COMMA):
                break
        return ast.DataDecl(location, bindings)

    def _parse_data_value(self) -> int:
        negative = bool(self._accept(TokenKind.MINUS))
        token = self._expect(TokenKind.INT_LITERAL, "integer value")
        value = int(token.value)
        return -value if negative else value

    def _parse_decl_items(self) -> List[ast.DeclItem]:
        items = [self._parse_decl_item()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_decl_item())
        return items

    def _parse_decl_item(self) -> ast.DeclItem:
        name = self._expect(TokenKind.IDENT, "variable name").value
        dims: Optional[List[int]] = None
        if self._accept(TokenKind.LPAREN):
            dims = [self._parse_dimension()]
            while self._accept(TokenKind.COMMA):
                dims.append(self._parse_dimension())
            self._expect(TokenKind.RPAREN)
            self._array_names.add(name)
        return ast.DeclItem(name, dims)

    def _parse_dimension(self) -> int:
        token = self._expect(TokenKind.INT_LITERAL, "array dimension")
        return int(token.value)

    def _parse_parameter_decl(self, location: SourceLocation) -> ast.ParameterDecl:
        self._expect(TokenKind.LPAREN)
        bindings: List[Tuple[str, ast.Expr]] = []
        while True:
            name = self._expect(TokenKind.IDENT, "parameter constant name").value
            self._expect(TokenKind.EQUALS)
            bindings.append((name, self._parse_expression()))
            self._parameter_names.add(name)
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        return ast.ParameterDecl(location, bindings)

    # -- statements ----------------------------------------------------------

    def _parse_statement_list(
        self, until: Set[TokenKind], stop_label: Optional[int] = None
    ) -> List[ast.Stmt]:
        """Parse statements until a terminator keyword in ``until`` (left
        unconsumed), or — for labeled DO loops — until the statement whose
        label equals ``stop_label`` has been parsed (inclusive)."""
        body: List[ast.Stmt] = []
        while True:
            self._skip_newlines()
            token = self._peek()
            if token.kind is TokenKind.EOF:
                if until:
                    raise ParseError("unexpected end of file", token.location)
                return body
            if token.kind in until and token.kind is not TokenKind.IDENT:
                return body
            try:
                stmt = self._parse_statement()
            except ParseError as err:
                if self.diagnostics is None:
                    raise
                self._report_parse_error(err)
                if not self._synchronize_to_statement_boundary(until):
                    return body  # hit EOF; the unit-level END check reports it
                continue
            body.append(stmt)
            if stop_label is not None and stmt.label == stop_label:
                return body

    def _parse_statement(self) -> ast.Stmt:
        label: Optional[int] = None
        if self._at(TokenKind.LABEL):
            label = int(self._advance().value)
        stmt = self._parse_unlabeled_statement()
        stmt.label = label
        return stmt

    def _parse_unlabeled_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is TokenKind.IDENT:
            return self._parse_assignment()
        if kind is TokenKind.CALL:
            return self._parse_call()
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.DO:
            return self._parse_do()
        if kind is TokenKind.GOTO:
            self._advance()
            target = self._expect(TokenKind.INT_LITERAL, "statement label")
            self._end_statement()
            return ast.GotoStmt(token.location, target=int(target.value))
        if kind is TokenKind.CONTINUE:
            self._advance()
            self._end_statement()
            return ast.ContinueStmt(token.location)
        if kind is TokenKind.RETURN:
            self._advance()
            self._end_statement()
            return ast.ReturnStmt(token.location)
        if kind is TokenKind.STOP:
            self._advance()
            self._accept(TokenKind.INT_LITERAL)  # optional STOP code
            self._end_statement()
            return ast.StopStmt(token.location)
        if kind is TokenKind.READ:
            return self._parse_read()
        if kind in (TokenKind.PRINT, TokenKind.WRITE):
            return self._parse_print()
        raise ParseError(
            f"unexpected token {token.text!r} at start of statement", token.location
        )

    def _parse_assignment(self) -> ast.Assign:
        location = self._peek().location
        target = self._parse_designator()
        self._expect(TokenKind.EQUALS)
        value = self._parse_expression()
        self._end_statement()
        return ast.Assign(location, target=target, value=value)

    def _parse_designator(self) -> Union[ast.VarRef, ast.ArrayRef]:
        token = self._expect(TokenKind.IDENT, "variable name")
        if self._at(TokenKind.LPAREN):
            self._advance()
            indices = [self._parse_expression()]
            while self._accept(TokenKind.COMMA):
                indices.append(self._parse_expression())
            self._expect(TokenKind.RPAREN)
            return ast.ArrayRef(token.location, token.value, indices)
        return ast.VarRef(token.location, token.value)

    def _parse_call(self) -> ast.CallStmt:
        location = self._advance().location  # CALL
        name = self._expect(TokenKind.IDENT, "subroutine name").value
        args: List[ast.Expr] = []
        if self._accept(TokenKind.LPAREN):
            if not self._at(TokenKind.RPAREN):
                args.append(self._parse_expression())
                while self._accept(TokenKind.COMMA):
                    args.append(self._parse_expression())
            self._expect(TokenKind.RPAREN)
        self._end_statement()
        return ast.CallStmt(location, name=name, args=args)

    def _parse_if(self) -> ast.IfStmt:
        location = self._advance().location  # IF
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        if self._accept(TokenKind.THEN):
            self._end_statement()
            return self._parse_block_if(location, cond)
        # Logical IF: a single simple statement on the same line.
        if self._peek().kind not in _SIMPLE_STMT_STARTERS:
            raise ParseError(
                "expected THEN or a simple statement after IF (...)",
                self._peek().location,
            )
        stmt = self._parse_unlabeled_statement()
        return ast.IfStmt(location, cond=cond, then_body=[stmt])

    def _parse_block_if(self, location: SourceLocation, cond: ast.Expr) -> ast.IfStmt:
        terminators = {TokenKind.ELSEIF, TokenKind.ELSE, TokenKind.ENDIF, TokenKind.END}
        then_body = self._parse_statement_list(until=terminators)
        elifs: List[Tuple[ast.Expr, List[ast.Stmt]]] = []
        else_body: List[ast.Stmt] = []
        while True:
            if self._at_elseif():
                arm_cond = self._consume_elseif_condition()
                elifs.append(
                    (arm_cond, self._parse_statement_list(until=terminators))
                )
                continue
            if self._at(TokenKind.ELSE):
                self._advance()
                self._end_statement()
                else_body = self._parse_statement_list(
                    until={TokenKind.ENDIF, TokenKind.END}
                )
            self._consume_endif()
            self._end_statement()
            return ast.IfStmt(
                location,
                cond=cond,
                then_body=then_body,
                elifs=elifs,
                else_body=else_body,
            )

    def _at_elseif(self) -> bool:
        if self._at(TokenKind.ELSEIF):
            return True
        return self._at(TokenKind.ELSE) and self._peek(1).kind is TokenKind.IF

    def _consume_elseif_condition(self) -> ast.Expr:
        if self._accept(TokenKind.ELSEIF):
            pass
        else:
            self._expect(TokenKind.ELSE)
            self._expect(TokenKind.IF)
        self._expect(TokenKind.LPAREN)
        cond = self._parse_expression()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.THEN)
        self._end_statement()
        return cond

    def _consume_endif(self) -> None:
        if self._accept(TokenKind.ENDIF):
            return
        if self._at(TokenKind.END) and self._peek(1).kind is TokenKind.IF:
            self._advance()
            self._advance()
            return
        raise ParseError("expected ENDIF", self._peek().location)

    def _parse_do(self) -> ast.Stmt:
        location = self._advance().location  # DO
        if self._accept(TokenKind.WHILE):
            self._expect(TokenKind.LPAREN)
            cond = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            self._end_statement()
            body = self._parse_statement_list(until={TokenKind.ENDDO, TokenKind.END})
            self._consume_enddo()
            self._end_statement()
            return ast.DoWhileStmt(location, cond=cond, body=body)

        do_label: Optional[int] = None
        if self._at(TokenKind.INT_LITERAL):
            do_label = int(self._advance().value)
        var = self._expect(TokenKind.IDENT, "loop variable").value
        self._expect(TokenKind.EQUALS)
        start = self._parse_expression()
        self._expect(TokenKind.COMMA)
        stop = self._parse_expression()
        step: Optional[ast.Expr] = None
        if self._accept(TokenKind.COMMA):
            step = self._parse_expression()
        self._end_statement()
        if do_label is not None:
            body = self._parse_statement_list(until=set(), stop_label=do_label)
            if not body or body[-1].label != do_label:
                raise ParseError(f"missing terminal statement {do_label}", location)
        else:
            body = self._parse_statement_list(until={TokenKind.ENDDO, TokenKind.END})
            self._consume_enddo()
            self._end_statement()
        return ast.DoStmt(location, var=var, start=start, stop=stop, step=step, body=body)

    def _consume_enddo(self) -> None:
        if self._accept(TokenKind.ENDDO):
            return
        if self._at(TokenKind.END) and self._peek(1).kind is TokenKind.DO:
            self._advance()
            self._advance()
            return
        raise ParseError("expected ENDDO", self._peek().location)

    def _parse_read(self) -> ast.ReadStmt:
        location = self._advance().location  # READ
        self._expect(TokenKind.STAR)
        self._expect(TokenKind.COMMA)
        targets = [self._parse_designator()]
        while self._accept(TokenKind.COMMA):
            targets.append(self._parse_designator())
        self._end_statement()
        return ast.ReadStmt(location, targets=targets)

    def _parse_print(self) -> ast.PrintStmt:
        location = self._advance().location  # PRINT or WRITE
        self._expect(TokenKind.STAR)
        items: List[Union[ast.Expr, str]] = []
        if self._accept(TokenKind.COMMA):
            items.append(self._parse_print_item())
            while self._accept(TokenKind.COMMA):
                items.append(self._parse_print_item())
        self._end_statement()
        return ast.PrintStmt(location, items=items)

    def _parse_print_item(self) -> Union[ast.Expr, str]:
        if self._at(TokenKind.STRING):
            return str(self._advance().value)
        return self._parse_expression()

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._at(TokenKind.OR):
            location = self._advance().location
            right = self._parse_and()
            left = ast.LogicalOp(location, "or", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._at(TokenKind.AND):
            location = self._advance().location
            right = self._parse_not()
            left = ast.LogicalOp(location, "and", left, right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._at(TokenKind.NOT):
            location = self._advance().location
            return ast.UnaryOp(location, "not", self._parse_not())
        return self._parse_relational()

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_arith()
        kind = self._peek().kind
        if kind in _RELATIONAL:
            location = self._advance().location
            right = self._parse_arith()
            return ast.Compare(location, _RELATIONAL[kind], left, right)
        return left

    def _parse_arith(self) -> ast.Expr:
        left = self._parse_term()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            token = self._advance()
            right = self._parse_term()
            left = ast.BinaryOp(token.location, token.text, left, right)
        return left

    def _parse_term(self) -> ast.Expr:
        left = self._parse_factor()
        while self._peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            token = self._advance()
            right = self._parse_factor()
            left = ast.BinaryOp(token.location, token.text, left, right)
        return left

    def _parse_factor(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.MINUS:
            self._advance()
            return ast.UnaryOp(token.location, "-", self._parse_factor())
        if token.kind is TokenKind.PLUS:
            self._advance()
            return self._parse_factor()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(token.location, int(token.value))
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expression()
            self._expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.IDENT:
            self._advance()
            name = token.value
            if self._at(TokenKind.LPAREN):
                self._advance()
                args = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expression())
                    while self._accept(TokenKind.COMMA):
                        args.append(self._parse_expression())
                self._expect(TokenKind.RPAREN)
                if name in self._array_names:
                    return ast.ArrayRef(token.location, name, args)
                return ast.FunctionCall(token.location, name, args)
            return ast.VarRef(token.location, name)
        raise ParseError(
            f"unexpected token {token.text!r} in expression", token.location
        )


def parse_source(
    text: str,
    filename: str = "<string>",
    diagnostics: Optional["DiagnosticEngine"] = None,
) -> ast.Module:
    """Parse MiniFortran source ``text`` into an AST module.

    With a ``diagnostics`` engine, lexer and parser recover from errors
    (recording them on the engine) instead of raising; check
    ``diagnostics.has_errors`` and per-unit ``is_stub`` flags afterward.
    """
    from repro.obs import metrics

    metrics.inc("parses")
    source = SourceFile(filename, text)
    tokens = Lexer(source, diagnostics).tokens()
    return Parser(tokens, filename, diagnostics).parse_module()


def parse_file(path: str) -> ast.Module:
    """Parse the MiniFortran file at ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_source(text, filename=path)

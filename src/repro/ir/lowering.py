"""Lowering from the MiniFortran AST to the CFG-based IR.

Lowering is where FORTRAN semantics are pinned down:

- **call-by-reference**: scalar variable actuals are bindable (the callee
  may modify them); expression actuals are evaluated into temporaries and
  any modification through them is lost (as in FORTRAN, where modifying
  such an actual is undefined);
- **PARAMETER constants** fold into the IR as literals;
- **DO loops** evaluate their bounds once, test before the first
  iteration, and require an integer-literal step so the loop direction is
  known statically;
- **intrinsics** ``MOD MAX MIN IABS ABS`` lower to primitive operators;
- a use of a scalar variable that appears literally in the source is
  marked ``from_source`` — the unit the substitution metric counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.frontend import ast
from repro.frontend.errors import SemanticError
from repro.frontend.source import SourceFile, SourceLocation
from repro.ir.cfg import BasicBlock, ControlFlowGraph
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Assign,
    BinOp,
    Call,
    CallArg,
    CondBranch,
    Const,
    Def,
    Halt,
    Jump,
    Operand,
    Print,
    Read,
    Return,
    UnOp,
    Use,
)
from repro.ir.module import CommonBlock, Procedure, Program
from repro.ir.symbols import SymbolTable, Variable, VarKind, unit_orders

LoweringError = SemanticError

_COMPARE_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}

#: Intrinsic functions lowered to primitive operations: name -> (op, arity).
_INTRINSICS = {
    "mod": ("mod", 2),
    "max": ("max", 2),
    "min": ("min", 2),
    "iabs": ("abs", 1),
    "abs": ("abs", 1),
}


def lower_module(module: ast.Module, source: Optional[SourceFile] = None) -> Program:
    """Lower a parsed module into a whole :class:`Program`.

    Raises :class:`SemanticError` for ill-formed programs (unknown
    callees, argument count/shape mismatches, COMMON layout conflicts,
    assignments to PARAMETER constants, non-literal DO steps).

    On an engine's path the units are parse memo entries
    (:class:`~repro.frontend.unit_memo.MemoUnit`, from ``Engine.parse``
    with ``lowered``): an entry holding a kept lowering is reused as it
    is wherever :mod:`repro.ir.kept` allows, and every other entry is
    lowered from its tree, parsed again if a kept lowering took its
    place. The program then lists each entry with its lowering
    (``program.lowerings``), for the engine to keep those its run
    leaves unconverted. Each unit's variables are ordered by its index
    in the module (:func:`~repro.ir.symbols.unit_orders`), so kept and
    fresh lowerings order them as a cold lowering does.
    """
    from repro.obs import metrics

    metrics.inc("lowerings")
    program = Program(source)
    units = module.units
    unit_kinds = {unit.name: unit.kind for unit in units}
    if len(unit_kinds) != len(units):
        seen: Set[str] = set()
        for unit in units:
            if unit.name in seen:
                raise SemanticError(
                    f"duplicate program unit name {unit.name!r}",
                    _tree(unit).location,
                )
            seen.add(unit.name)
    entries = bool(units) and not isinstance(units[0], ast.ProcedureUnit)
    context = None
    if entries:
        from repro.ir import kept

        context = kept.reusable(units, program)
    lowered: List[Procedure] = []
    for index, unit in enumerate(units):
        if context is not None and unit.kept is not None:
            program.add_procedure(unit.kept.procedure)
            continue
        unit = _tree(unit)
        if unit.kind is ast.ProcedureKind.BLOCK_DATA:
            _lower_block_data(program, unit, index)
            continue
        lowered.append(_ProcedureLowerer(program, unit, unit_kinds,
                                         index).lower())
        program.add_procedure(lowered[-1])
    _link_calls(program)
    for procedure in lowered:
        procedure.cfg.remove_unreachable()
    if entries:
        kept.note_lowerings(program, units, context)
        metrics.inc("lower_units_lowered", len(lowered))
        metrics.inc("lower_units_reused", len(program) - len(lowered))
    return program


def _tree(unit) -> ast.ProcedureUnit:
    return unit if isinstance(unit, ast.ProcedureUnit) else unit.tree()


def _lower_block_data(program: Program, unit: ast.ProcedureUnit,
                      index: int) -> None:
    """Process a BLOCK DATA unit: COMMON declarations plus DATA initial
    values for scalar COMMON members. Produces no procedure."""
    if unit.body:
        raise SemanticError(
            "BLOCK DATA units cannot contain executable statements",
            unit.body[0].location,
        )
    # Reuse the regular lowerer for COMMON/INTEGER processing.
    lowerer = _ProcedureLowerer(program, unit, {}, index)
    for decl in unit.decls:
        if isinstance(decl, ast.CommonDecl):
            lowerer._declare_common(decl)
        elif isinstance(decl, (ast.IntegerDecl, ast.DimensionDecl)):
            for item in decl.items:
                lowerer._declare_item(item, decl.location)
        elif isinstance(decl, ast.DataDecl):
            for name, value in decl.bindings:
                variable = lowerer.symbols.lookup(name)
                if variable is None or not variable.is_global:
                    raise SemanticError(
                        f"DATA target {name!r} is not a COMMON member of "
                        f"this BLOCK DATA unit",
                        decl.location,
                    )
                if variable.is_array:
                    raise SemanticError(
                        f"DATA for array {name!r} is not supported "
                        f"(array contents are never tracked)",
                        decl.location,
                    )
                if variable in program.global_initial_values:
                    raise SemanticError(
                        f"duplicate DATA initialization of {name!r}",
                        decl.location,
                    )
                program.global_initial_values[variable] = value
        else:
            raise SemanticError(
                "only COMMON, INTEGER, DIMENSION, and DATA are allowed in "
                "BLOCK DATA",
                decl.location,
            )


def _link_calls(program: Program) -> None:
    """Validate every call against its callee's interface."""
    for procedure in program:
        for call in procedure.call_sites():
            callee = program.procedures.get(call.callee)
            if callee is None:
                raise SemanticError(
                    f"call to undefined procedure {call.callee!r}", call.location
                )
            if callee.is_main:
                raise SemanticError(
                    f"cannot call main program {call.callee!r}", call.location
                )
            if callee.is_function and call.result is None:
                raise SemanticError(
                    f"function {call.callee!r} called as a subroutine", call.location
                )
            if not callee.is_function and call.result is not None:
                raise SemanticError(
                    f"subroutine {call.callee!r} used as a function", call.location
                )
            if len(call.args) != len(callee.formals):
                raise SemanticError(
                    f"call to {call.callee!r} passes {len(call.args)} arguments, "
                    f"expected {len(callee.formals)}",
                    call.location,
                )
            for formal, actual in zip(callee.formals, call.args):
                if formal.is_array != actual.is_array:
                    kind = "an array" if formal.is_array else "a scalar"
                    raise SemanticError(
                        f"argument for formal {formal.name!r} of {call.callee!r} "
                        f"must be {kind}",
                        call.location,
                    )


class _ProcedureLowerer:
    """Lowers a single program unit."""

    def __init__(self, program: Program, unit: ast.ProcedureUnit, unit_kinds,
                 index: int):
        self.program = program
        self.unit = unit
        #: The unit's index in its module, and the orders of the
        #: variables it creates (:func:`~repro.ir.symbols.unit_orders`).
        self.index = index
        self.orders = unit_orders(index)
        self.unit_kinds = unit_kinds
        self.symbols = SymbolTable(unit.name)
        self.param_consts: Dict[str, int] = {}
        self.cfg = ControlFlowGraph(BasicBlock("entry"))
        self.block = self.cfg.entry
        self.label_blocks: Dict[int, BasicBlock] = {}
        self.result_var: Optional[Variable] = None
        self.visible_globals: List[Variable] = []
        #: Names declared EXTERNAL in this unit. A call to one that has
        #: no definition in this translation unit lowers conservatively
        #: (see :meth:`_lower_external_call`); the linkage layer merges
        #: files first so linked programs never take that path.
        self.externals: set = set()

    # -- driver -------------------------------------------------------------

    def lower(self) -> Procedure:
        formals = self._declare_formals()
        if self.unit.kind is ast.ProcedureKind.FUNCTION:
            self.result_var = self._new(Variable(self.unit.name,
                                                 VarKind.RESULT))
            self.symbols.declare(self.result_var)
        self._process_declarations()
        if self.unit.is_stub:
            self._lower_stub_body()
        else:
            self._collect_labels(self.unit.body)
            self._lower_body(self.unit.body)
        self._finish_procedure()
        procedure = Procedure(
            self.unit.name,
            self.unit.kind,
            formals,
            self.cfg,
            self.symbols,
            self.result_var,
        )
        procedure.visible_globals = list(self.visible_globals)
        return procedure

    def _declare_formals(self) -> List[Variable]:
        formals = []
        for name in self.unit.params:
            if self.symbols.lookup(name) is not None:
                raise SemanticError(
                    f"duplicate formal parameter {name!r}", self.unit.location
                )
            formals.append(
                self.symbols.declare(self._new(Variable(name, VarKind.FORMAL)))
            )
        return formals

    def _process_declarations(self) -> None:
        for decl in self.unit.decls:
            if isinstance(decl, (ast.IntegerDecl, ast.DimensionDecl)):
                for item in decl.items:
                    self._declare_item(item, decl.location)
            elif isinstance(decl, ast.CommonDecl):
                self._declare_common(decl)
            elif isinstance(decl, ast.ParameterDecl):
                for name, expr in decl.bindings:
                    if name in self.symbols or name in self.param_consts:
                        raise SemanticError(
                            f"PARAMETER name {name!r} conflicts with a variable",
                            decl.location,
                        )
                    self.param_consts[name] = self._eval_const_expr(expr)
            elif isinstance(decl, ast.ExternalDecl):
                for name in decl.names:
                    if name in self.symbols or name in self.param_consts:
                        raise SemanticError(
                            f"EXTERNAL name {name!r} conflicts with a "
                            f"variable declaration",
                            decl.location,
                        )
                    self.externals.add(name)
            elif isinstance(decl, ast.DataDecl):
                raise SemanticError(
                    "DATA statements are only supported in BLOCK DATA units "
                    "(MiniFortran has no static procedure-local storage)",
                    decl.location,
                )

    def _declare_item(self, item: ast.DeclItem, location: SourceLocation) -> None:
        existing = self.symbols.lookup(item.name)
        if existing is not None:
            # Retyping a formal (INTEGER X) or adding a shape to it.
            if item.is_array:
                if existing.is_array and existing.dims != tuple(item.dims):
                    raise SemanticError(
                        f"conflicting shapes for {item.name!r}", location
                    )
                existing.is_array = True
                existing.dims = tuple(item.dims)
            return
        if item.name in self.param_consts:
            raise SemanticError(
                f"{item.name!r} already declared as a PARAMETER", location
            )
        variable = Variable(
            item.name,
            VarKind.LOCAL,
            is_array=item.is_array,
            dims=tuple(item.dims) if item.dims else None,
        )
        self.symbols.declare(self._new(variable))

    def _declare_common(self, decl: ast.CommonDecl) -> None:
        block = self.program.commons.get(decl.block)
        if block is None:
            block = CommonBlock(decl.block, self.index)
            for item in decl.items:
                variable = Variable(
                    item.name,
                    VarKind.GLOBAL,
                    is_array=item.is_array,
                    dims=tuple(item.dims) if item.dims else None,
                    common_block=decl.block,
                )
                block.members.append(self._new(variable))
            self.program.commons[decl.block] = block
        else:
            if block.declarer == self.index:
                # Kept lowerings' block: a cold lowering creates the
                # members here, so they take their orders here.
                for member in block.members:
                    self._new(member)
            if [i.name for i in decl.items] != [v.name for v in block.members]:
                raise SemanticError(
                    f"COMMON /{decl.block}/ declared with different member "
                    f"names than its first declaration (positional renaming "
                    f"is not supported)",
                    decl.location,
                )
            for item, member in zip(decl.items, block.members):
                declared_array = item.is_array or member.is_array
                if item.is_array and member.is_array:
                    if tuple(item.dims) != member.dims:
                        raise SemanticError(
                            f"conflicting shapes for COMMON member {item.name!r}",
                            decl.location,
                        )
                member.is_array = declared_array
                if item.is_array and member.dims is None:
                    member.dims = tuple(item.dims)
        for member in block.members:
            if self.symbols.lookup(member.name) is not None:
                raise SemanticError(
                    f"COMMON member {member.name!r} conflicts with a local "
                    f"declaration",
                    decl.location,
                )
            self.symbols.declare(member)
            self.visible_globals.append(member)

    def _eval_const_expr(self, expr: ast.Expr) -> int:
        """Evaluate a PARAMETER initializer at lowering time."""
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.VarRef):
            if expr.name in self.param_consts:
                return self.param_consts[expr.name]
            raise SemanticError(
                f"PARAMETER initializer references non-constant {expr.name!r}",
                expr.location,
            )
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return -self._eval_const_expr(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            left = self._eval_const_expr(expr.left)
            right = self._eval_const_expr(expr.right)
            return _fold_arith(expr.op, left, right, expr.location)
        raise SemanticError("PARAMETER initializer is not constant", expr.location)

    # -- block management ----------------------------------------------------

    def _emit(self, instruction) -> None:
        if self.block.is_terminated:
            # Dead code after GOTO/RETURN/STOP: park it in a fresh
            # unreachable block (removed by cleanup).
            self.block = self.cfg.new_block()
        self.block.append(instruction)

    def _terminate(self, instruction) -> None:
        if not self.block.is_terminated:
            self.block.append(instruction)

    def _switch_to(self, block: BasicBlock) -> None:
        self._terminate(Jump(block))
        self.block = block

    def _collect_labels(self, body: List[ast.Stmt]) -> None:
        for stmt in ast.walk_statements(body):
            if stmt.label is not None:
                if stmt.label in self.label_blocks:
                    raise SemanticError(
                        f"duplicate statement label {stmt.label}", stmt.location
                    )
                self.label_blocks[stmt.label] = self.cfg.new_block(
                    f"L{stmt.label}"
                )

    def _lower_stub_body(self) -> None:
        """Lower a recovery stub (a unit whose body failed to parse).

        The body becomes one ``Read`` that assigns an unknowable value
        to every scalar the unit could observably write — its scalar
        formals (call-by-reference!), every scalar COMMON member it
        declares, and its result variable — so MOD summaries, jump
        functions, and return functions for this unit are all maximally
        conservative without any special-casing downstream.
        """
        clobbered: List[Def] = []
        for name in self.unit.params:
            variable = self.symbols.lookup(name)
            if variable is not None and not variable.is_array:
                clobbered.append(Def(variable))
        for variable in self.visible_globals:
            if not variable.is_array:
                clobbered.append(Def(variable))
        if self.result_var is not None:
            clobbered.append(Def(self.result_var))
        if clobbered:
            self._emit(Read(clobbered, self.unit.location))

    # -- statements ------------------------------------------------------------

    def _lower_body(self, body: List[ast.Stmt]) -> None:
        for stmt in body:
            self._lower_statement(stmt)

    def _lower_statement(self, stmt: ast.Stmt) -> None:
        if stmt.label is not None:
            self._switch_to(self.label_blocks[stmt.label])
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._lower_call_stmt(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.DoStmt):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.GotoStmt):
            if stmt.target not in self.label_blocks:
                raise SemanticError(f"unknown label {stmt.target}", stmt.location)
            self._terminate(Jump(self.label_blocks[stmt.target], stmt.location))
        elif isinstance(stmt, ast.ContinueStmt):
            pass
        elif isinstance(stmt, ast.ReturnStmt):
            self._emit_return(stmt.location)
        elif isinstance(stmt, ast.StopStmt):
            self._terminate(Halt(stmt.location))
        elif isinstance(stmt, ast.ReadStmt):
            self._lower_read(stmt)
        elif isinstance(stmt, ast.PrintStmt):
            items: List[Union[Operand, str]] = []
            for item in stmt.items:
                if isinstance(item, str):
                    items.append(item)
                else:
                    items.append(self._lower_expr(item))
            self._emit(Print(items, stmt.location))
        else:
            raise SemanticError(
                f"cannot lower statement {type(stmt).__name__}", stmt.location
            )

    def _emit_return(self, location: SourceLocation) -> None:
        if self.unit.kind is ast.ProcedureKind.PROGRAM:
            self._terminate(Halt(location))
        elif self.unit.kind is ast.ProcedureKind.FUNCTION:
            value = Use(self.result_var, location)
            self._terminate(Return(value, location))
        else:
            self._terminate(Return(None, location))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        if isinstance(stmt.target, ast.VarRef):
            name = stmt.target.name
            if name in self.param_consts:
                raise SemanticError(
                    f"cannot assign to PARAMETER constant {name!r}", stmt.location
                )
            variable = self._scalar_variable(stmt.target)
            self._lower_expr_into(Def(variable), stmt.value, stmt.location)
        else:
            array = self._array_variable(stmt.target.name, stmt.target.location)
            indices = [self._lower_expr(e) for e in stmt.target.indices]
            value = self._lower_expr(stmt.value)
            self._emit(ArrayStore(array, indices, value, stmt.location))

    def _lower_call_stmt(self, stmt: ast.CallStmt) -> None:
        kind = self.unit_kinds.get(stmt.name)
        if kind is None:
            if stmt.name in self.externals:
                self._lower_external_call(stmt.args, None, stmt.location)
                return
            raise SemanticError(
                f"call to undefined procedure {stmt.name!r}", stmt.location
            )
        args = [self._lower_call_arg(arg) for arg in stmt.args]
        self._emit(Call(stmt.name, args, None, stmt.location))

    def _lower_external_call(
        self, args: List[ast.Expr], target: Optional[Def], location
    ) -> None:
        """Lower a call to an EXTERNAL procedure with no definition in
        this translation unit.

        Mirrors :meth:`_lower_stub_body`: with the callee's body out of
        reach, the call must be assumed to overwrite everything it could
        reach — every scalar actual passed by reference, every scalar
        global visible here, and the function result — so single-file
        analysis of one file of a multi-file program stays sound (every
        such cell degrades to ⊥ rather than keeping a stale constant).
        """
        clobbered: List[Def] = []
        seen: set = set()

        def clobber(variable: Variable) -> None:
            if not variable.is_array and variable.name not in seen:
                seen.add(variable.name)
                clobbered.append(Def(variable))

        for arg in args:
            if isinstance(arg, ast.VarRef) and arg.name not in self.param_consts:
                variable = self._variable_for(arg.name)
                if variable.is_array:
                    # Whole-array actual: array cells are not tracked
                    # by the constant lattice, nothing to clobber.
                    continue
                clobber(variable)
                continue
            # Expression actuals are still lowered so their own
            # semantic errors surface; their value cells are callee
            # copies the caller never observes.
            self._lower_expr(arg)
        for variable in self.visible_globals:
            clobber(variable)
        if target is not None:
            clobber(target.var)
        if clobbered:
            self._emit(Read(clobbered, location))

    def _lower_call_arg(self, expr: ast.Expr) -> CallArg:
        if isinstance(expr, ast.VarRef) and expr.name not in self.param_consts:
            variable = self._variable_for(expr.name)
            if variable.is_array:
                return CallArg(array=variable, location=expr.location)
            return CallArg(
                value=Use(variable, expr.location, from_source=True),
                location=expr.location,
            )
        return CallArg(value=self._lower_expr(expr), location=expr.location)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        join = self.cfg.new_block("ifjoin")
        arms: List[Tuple[ast.Expr, List[ast.Stmt]]] = [(stmt.cond, stmt.then_body)]
        arms.extend(stmt.elifs)
        for cond, body in arms:
            cond_op = self._lower_expr(cond)
            then_block = self.cfg.new_block("then")
            else_block = self.cfg.new_block("else")
            self._terminate(CondBranch(cond_op, then_block, else_block, stmt.location))
            self.block = then_block
            self._lower_body(body)
            self._terminate(Jump(join))
            self.block = else_block
        self._lower_body(stmt.else_body)
        self._switch_to(join)

    def _lower_do(self, stmt: ast.DoStmt) -> None:
        step = self._literal_step(stmt)
        loop_var = self._scalar_variable_by_name(stmt.var, stmt.location)
        start = self._lower_expr(stmt.start)
        self._emit(Assign(Def(loop_var), start, stmt.location))
        bound_temp = self._temp()
        self._lower_expr_into(Def(bound_temp), stmt.stop, stmt.location)

        head = self.cfg.new_block("dohead")
        body_block = self.cfg.new_block("dobody")
        exit_block = self.cfg.new_block("doexit")
        self._switch_to(head)
        cond_temp = self._temp()
        compare = "le" if step > 0 else "ge"
        self._emit(
            BinOp(
                Def(cond_temp),
                compare,
                Use(loop_var, stmt.location),
                Use(bound_temp),
                stmt.location,
            )
        )
        self._terminate(
            CondBranch(Use(cond_temp), body_block, exit_block, stmt.location)
        )
        self.block = body_block
        self._lower_body(stmt.body)
        self._emit(
            BinOp(
                Def(loop_var), "+", Use(loop_var, stmt.location), Const(step),
                stmt.location,
            )
        )
        self._terminate(Jump(head))
        self.block = exit_block

    def _literal_step(self, stmt: ast.DoStmt) -> int:
        if stmt.step is None:
            return 1
        step_expr = stmt.step
        negate = False
        if isinstance(step_expr, ast.UnaryOp) and step_expr.op == "-":
            negate = True
            step_expr = step_expr.operand
        if isinstance(step_expr, ast.IntLiteral):
            value = step_expr.value
        elif (
            isinstance(step_expr, ast.VarRef) and step_expr.name in self.param_consts
        ):
            value = self.param_consts[step_expr.name]
        else:
            raise SemanticError(
                "DO step must be an integer literal or PARAMETER constant",
                stmt.location,
            )
        value = -value if negate else value
        if value == 0:
            raise SemanticError("DO step must be nonzero", stmt.location)
        return value

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        head = self.cfg.new_block("whilehead")
        body_block = self.cfg.new_block("whilebody")
        exit_block = self.cfg.new_block("whileexit")
        self._switch_to(head)
        cond = self._lower_expr(stmt.cond)
        self._terminate(CondBranch(cond, body_block, exit_block, stmt.location))
        self.block = body_block
        self._lower_body(stmt.body)
        self._terminate(Jump(head))
        self.block = exit_block

    def _lower_read(self, stmt: ast.ReadStmt) -> None:
        scalar_defs: List[Def] = []
        array_stores: List[Tuple[Variable, List[Operand], Def]] = []
        for target in stmt.targets:
            if isinstance(target, ast.VarRef):
                scalar_defs.append(Def(self._scalar_variable(target)))
            else:
                array = self._array_variable(target.name, target.location)
                indices = [self._lower_expr(e) for e in target.indices]
                temp = Def(self._temp())
                scalar_defs.append(temp)
                array_stores.append((array, indices, temp))
        self._emit(Read(scalar_defs, stmt.location))
        for array, indices, temp in array_stores:
            self._emit(ArrayStore(array, indices, Use(temp.var), stmt.location))

    # -- expressions --------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Operand:
        """Lower ``expr``; the result is a Const or a Use of a variable or
        fresh temporary."""
        if isinstance(expr, ast.IntLiteral):
            return Const(expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self.param_consts:
                return Const(self.param_consts[expr.name])
            variable = self._variable_for(expr.name)
            if variable.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used where a scalar value is required",
                    expr.location,
                )
            return Use(variable, expr.location, from_source=True)
        target = Def(self._temp())
        self._lower_expr_into(target, expr, expr.location)
        return Use(target.var)

    def _lower_expr_into(self, target: Def, expr: ast.Expr,
                         location: SourceLocation) -> None:
        """Lower ``expr`` so its value lands in ``target`` (fusing the
        top-level operation into the defining instruction)."""
        if isinstance(expr, (ast.BinaryOp, ast.Compare, ast.LogicalOp)):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            self._emit(BinOp(target, expr.op, left, right, expr.location))
            return
        if isinstance(expr, ast.UnaryOp):
            operand = self._lower_expr(expr.operand)
            op = "neg" if expr.op == "-" else expr.op
            self._emit(UnOp(target, op, operand, expr.location))
            return
        if isinstance(expr, ast.ArrayRef):
            array = self._array_variable(expr.name, expr.location)
            indices = [self._lower_expr(e) for e in expr.indices]
            self._emit(ArrayLoad(target, array, indices, expr.location))
            return
        if isinstance(expr, ast.FunctionCall):
            self._lower_function_call(target, expr)
            return
        # Leaf expression: plain copy.
        self._emit(Assign(target, self._lower_expr(expr), location))

    def _lower_function_call(self, target: Def, expr: ast.FunctionCall) -> None:
        intrinsic = _INTRINSICS.get(expr.name)
        if (
            intrinsic is not None
            and expr.name not in self.unit_kinds
            and expr.name not in self.externals
        ):
            op, arity = intrinsic
            if len(expr.args) != arity:
                raise SemanticError(
                    f"intrinsic {expr.name!r} expects {arity} argument(s)",
                    expr.location,
                )
            operands = [self._lower_expr(a) for a in expr.args]
            if arity == 1:
                self._emit(UnOp(target, op, operands[0], expr.location))
            else:
                self._emit(BinOp(target, op, operands[0], operands[1], expr.location))
            return
        if expr.name not in self.unit_kinds:
            if expr.name in self.externals:
                self._lower_external_call(expr.args, target, expr.location)
                return
            raise SemanticError(
                f"call to undefined function {expr.name!r}", expr.location
            )
        args = [self._lower_call_arg(a) for a in expr.args]
        self._emit(Call(expr.name, args, target, expr.location))

    # -- variable resolution ----------------------------------------------

    def _variable_for(self, name: str) -> Variable:
        """Resolve ``name``, creating an implicit INTEGER local on first
        use (FORTRAN implicit declaration, all-integer in MiniFortran)."""
        variable = self.symbols.lookup(name)
        if variable is None:
            if name in self.unit_kinds or name in self.externals:
                raise SemanticError(
                    f"procedure name {name!r} used as a variable", None
                )
            variable = self.symbols.declare(
                self._new(Variable(name, VarKind.LOCAL))
            )
        return variable

    def _scalar_variable(self, ref: ast.VarRef) -> Variable:
        return self._scalar_variable_by_name(ref.name, ref.location)

    def _scalar_variable_by_name(self, name: str, location) -> Variable:
        variable = self._variable_for(name)
        if variable.is_array:
            raise SemanticError(
                f"array {name!r} used where a scalar is required", location
            )
        return variable

    def _array_variable(self, name: str, location) -> Variable:
        variable = self.symbols.lookup(name)
        if variable is None or not variable.is_array:
            raise SemanticError(f"{name!r} is not a declared array", location)
        return variable

    def _new(self, variable: Variable) -> Variable:
        """Stamp ``variable`` with the next order of this unit."""
        variable.order = next(self.orders)
        return variable

    def _temp(self) -> Variable:
        return self._new(self.symbols.new_temp())

    # -- epilogue -----------------------------------------------------------

    def _finish_procedure(self) -> None:
        if not self.block.is_terminated:
            self._emit_return(self.unit.location)


def _fold_arith(op: str, left: int, right: int, location) -> int:
    """Fold a binary arithmetic operator over Python ints.

    Division follows FORTRAN: truncation toward zero.
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise SemanticError("division by zero in constant expression", location)
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    raise SemanticError(f"operator {op!r} not allowed in constant expression", location)

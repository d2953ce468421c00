"""Analysis configuration: which jump functions to use and which
supporting information to incorporate.

One :class:`AnalysisConfig` value corresponds to one column of the
study's Tables 2 and 3; the named constructors build the exact
configurations those tables compare.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro._record import FrozenRecord, setfield


class JumpFunctionKind(enum.Enum):
    """The four forward jump function implementations (§3.1), in
    increasing order of construction complexity and power. Constants
    found by one kind are a subset of those found by later kinds."""

    LITERAL = "literal"
    INTRAPROCEDURAL = "intraprocedural"
    PASS_THROUGH = "pass_through"
    POLYNOMIAL = "polynomial"

    @property
    def order(self) -> int:
        return _KIND_ORDER[self]


_KIND_ORDER = {
    JumpFunctionKind.LITERAL: 0,
    JumpFunctionKind.INTRAPROCEDURAL: 1,
    JumpFunctionKind.PASS_THROUGH: 2,
    JumpFunctionKind.POLYNOMIAL: 3,
}


class BudgetExceeded(Exception):
    """An analysis component ran past its configured fuel.

    Raised internally by budgeted loops (SCCP, jump-function size
    checks); the resilience layer catches it and demotes the affected
    component down the jump-function lattice instead of aborting — the
    exception only escapes to callers who run with fault isolation
    disabled and no demotion path.
    """

    def __init__(self, stage: str, limit: int, detail: str = ""):
        self.stage = stage
        self.limit = limit
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"{stage} exceeded its budget of {limit}{suffix}")


class AnalysisBudget(FrozenRecord):
    """Fuel limits for every unbounded-ish loop in the pipeline.

    ``None`` means unlimited (the default — every loop in the system is
    structurally terminating, so limits exist to bound *time*, not to
    guarantee termination). When a limit is hit the affected component
    is demoted deterministically (recorded in the run's
    :class:`~repro.ipcp.resilience.ResilienceReport`) rather than
    raising out of the pipeline:

    - ``solver_visits``: interprocedural worklist procedure visits;
      on exhaustion every non-main VAL cell drops to ⊥ (sound — ⊥
      claims nothing);
    - ``sccp_visits``: per-procedure SCCP instruction evaluations; an
      exhausted SCCP oracle run is discarded (value numbering remains);
    - ``polynomial_terms`` / ``polynomial_degree``: size cap on any
      polynomial jump or return function; an oversized function is
      demoted to the next weaker jump-function kind;
    - ``gsa_rounds``: GSA-style refinement rounds (§4.2);
    - ``dce_rounds``: propagate/DCE alternations under complete
      propagation.
    """

    __slots__ = _fields = (
        "solver_visits", "sccp_visits", "polynomial_terms",
        "polynomial_degree", "gsa_rounds", "dce_rounds",
    )

    def __init__(
        self,
        solver_visits: Optional[int] = None,
        sccp_visits: Optional[int] = None,
        polynomial_terms: Optional[int] = None,
        polynomial_degree: Optional[int] = None,
        gsa_rounds: int = 4,
        dce_rounds: int = 10,
    ):
        setfield(self, "solver_visits", solver_visits)
        setfield(self, "sccp_visits", sccp_visits)
        setfield(self, "polynomial_terms", polynomial_terms)
        setfield(self, "polynomial_degree", polynomial_degree)
        setfield(self, "gsa_rounds", gsa_rounds)
        setfield(self, "dce_rounds", dce_rounds)

    @classmethod
    def tight(cls) -> "AnalysisBudget":
        """A deliberately small budget for stress/degradation testing."""
        return cls(
            solver_visits=16,
            sccp_visits=256,
            polynomial_terms=1,
            polynomial_degree=1,
            gsa_rounds=1,
            dce_rounds=1,
        )


#: The budget of every configuration that names none.
_DEFAULT_BUDGET = AnalysisBudget()


class AnalysisConfig(FrozenRecord):
    """Knobs for one interprocedural constant propagation run.

    - ``jump_function``: forward jump function implementation;
    - ``use_return_functions``: build and apply polynomial return jump
      functions (§3.2);
    - ``use_mod``: compute MOD summaries and use them to limit call-site
      kills; when False every call is assumed to clobber every global
      and every bindable actual (Table 3, column 1);
    - ``complete``: iterate propagation with dead-code elimination until
      no further dead code appears (Table 3, column 3);
    - ``interprocedural``: when False, skip propagation entirely and
      measure a purely intraprocedural run (Table 3, column 4);
    - ``gcp_oracle``: how the ``gcp(y, s)`` constant oracle of §3.1 is
      computed — ``"value_numbering"`` (the paper's implementation) or
      ``"sccp"`` (branch-sensitive conditional propagation, which can
      prove more call-site operands constant by pruning dead arms);
    - ``gsa_refinement``: GSA-style refinement (§4.2's closing remark):
      after a first propagation, regenerate jump functions with
      branch-sensitive oracles seeded by CONSTANTS and exclude
      never-executed call sites, then re-propagate — achieving
      complete-propagation results without any dead-code elimination;
    - ``budget``: fuel limits for the pipeline's loops; defaults are
      unlimited except the refinement/DCE round caps, which keep their
      historic values;
    - ``fault_isolation``: contain per-call-site/per-procedure faults
      during jump- and return-function construction by demoting the
      affected site down the :class:`JumpFunctionKind` lattice
      (recorded in the run's ResilienceReport) instead of aborting the
      whole analysis. Turn off to let construction exceptions propagate
      (debugging);
    - ``verify_ir``: run the structural IR/SSA verifier between pipeline
      stages and after DCE rounds; a corrupt program raises
      :class:`repro.ir.verify.VerificationError` at the stage that
      caused it. Off by default (it is a debugging/hardening tool).
    """

    __slots__ = _fields = (
        "jump_function", "use_return_functions", "use_mod", "complete",
        "interprocedural", "gcp_oracle", "gsa_refinement", "budget",
        "fault_isolation", "verify_ir",
    )

    def __init__(
        self,
        jump_function: JumpFunctionKind = JumpFunctionKind.POLYNOMIAL,
        use_return_functions: bool = True,
        use_mod: bool = True,
        complete: bool = False,
        interprocedural: bool = True,
        gcp_oracle: str = "value_numbering",
        gsa_refinement: bool = False,
        budget: AnalysisBudget = _DEFAULT_BUDGET,
        fault_isolation: bool = True,
        verify_ir: bool = False,
    ):
        setfield(self, "jump_function", jump_function)
        setfield(self, "use_return_functions", use_return_functions)
        setfield(self, "use_mod", use_mod)
        setfield(self, "complete", complete)
        setfield(self, "interprocedural", interprocedural)
        setfield(self, "gcp_oracle", gcp_oracle)
        setfield(self, "gsa_refinement", gsa_refinement)
        setfield(self, "budget", budget)
        setfield(self, "fault_isolation", fault_isolation)
        setfield(self, "verify_ir", verify_ir)

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with the fields named in ``changes`` set to new values
        (an unknown name is a ``TypeError``, as in
        ``dataclasses.replace``)."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return AnalysisConfig(**values)

    # -- the named configurations of the paper's tables ----------------

    @classmethod
    def table2(cls, kind: JumpFunctionKind, returns: bool = True) -> "AnalysisConfig":
        """A Table 2 column: forward kind x return-function toggle."""
        return cls(jump_function=kind, use_return_functions=returns)

    @classmethod
    def polynomial_without_mod(cls) -> "AnalysisConfig":
        return cls(use_mod=False)

    @classmethod
    def polynomial_with_mod(cls) -> "AnalysisConfig":
        return cls()

    @classmethod
    def complete_propagation(cls) -> "AnalysisConfig":
        return cls(complete=True)

    @classmethod
    def intraprocedural_only(cls) -> "AnalysisConfig":
        return cls(interprocedural=False)

    def with_kind(self, kind: JumpFunctionKind) -> "AnalysisConfig":
        return self.replace(jump_function=kind)

    def describe(self) -> str:
        """Short human-readable description for reports."""
        if not self.interprocedural:
            return "intraprocedural propagation (with MOD)"
        parts = [self.jump_function.value]
        parts.append("ret" if self.use_return_functions else "noret")
        parts.append("mod" if self.use_mod else "nomod")
        if self.complete:
            parts.append("complete")
        if self.gsa_refinement:
            parts.append("gsa")
        return "+".join(parts)

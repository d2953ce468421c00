"""Differential equivalence over the golden corpus.

Every golden program and every multi-file golden project must interpret
byte-identically before and after each optimization pass alone and the
full pipeline, plus a seeded 50-trial generator campaign. Programs the
reference interpreter cannot serve as an oracle for (READ exhaustion,
fuel, analysis-unavailable inputs) are skipped, mirroring the
soundness harness.
"""

import pytest

from repro.config import BudgetExceeded
from repro.frontend.errors import FrontendError
from repro.ir.interp import InterpreterError
from repro.oracle.equivalence import (
    PASS_SUBSETS,
    check_optimized_equivalence,
    run_opt_oracle,
)
from repro.oracle.golden import golden_programs, golden_projects

#: Generous input feed: programs that READ consume a prefix; programs
#: that read more than this are skipped via InterpreterError.
INPUTS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8)

_SUBSET_IDS = ["+".join(subset) for subset in PASS_SUBSETS]


def _assert_equivalent(source, config, subset):
    try:
        detail = check_optimized_equivalence(
            source, INPUTS, config=config, passes=subset,
        )
    except InterpreterError as error:
        pytest.skip(f"original not executable: {error}")
    except (FrontendError, BudgetExceeded) as error:
        pytest.skip(f"analysis unavailable: {error}")
    assert detail is None, detail


@pytest.mark.parametrize("subset", PASS_SUBSETS, ids=_SUBSET_IDS)
@pytest.mark.parametrize("name", sorted(golden_programs()))
def test_golden_program_equivalence(name, subset):
    program = golden_programs()[name]
    _assert_equivalent(program.source, program.config, subset)


@pytest.mark.parametrize("subset", PASS_SUBSETS, ids=_SUBSET_IDS)
@pytest.mark.parametrize("name", sorted(golden_projects()))
def test_golden_project_equivalence(name, subset):
    from repro.oracle.equivalence import check_optimized_project_equivalence

    project = golden_projects()[name]
    try:
        detail = check_optimized_project_equivalence(
            list(project.files), entry=project.entry, inputs=INPUTS,
            config=project.config, passes=subset,
        )
    except ValueError as error:
        pytest.skip(f"project does not link: {error}")
    except InterpreterError as error:
        pytest.skip(f"original not executable: {error}")
    except (FrontendError, BudgetExceeded) as error:
        pytest.skip(f"analysis unavailable: {error}")
    assert detail is None, detail


def test_seeded_equivalence_campaign():
    """The PR's acceptance campaign: 50 seeded generator programs,
    every pass subset, zero equivalence failures."""
    report = run_opt_oracle(trials=50, seed=0)
    assert report.trials == 50
    assert report.failures == [], report.summary()


def test_campaign_minimizes_and_persists_failures(tmp_path, monkeypatch):
    """A deliberately wrong pass makes the campaign fail, and the
    failure flows through the PR 2 minimizer into the corpus."""
    import repro.opt.passes as opt_passes

    real_fold = opt_passes.fold_constants

    def wrong_fold(procedure, sccp, report):
        from repro.ir.instructions import Const, Print

        changed = real_fold(procedure, sccp, report)
        # Corrupt observable behaviour without breaking IR structure:
        # append a junk operand to every PRINT.
        for block in procedure.cfg.blocks:
            for instruction in block.instructions:
                if isinstance(instruction, Print):
                    instruction.items.append(Const(999))
                    changed += 1
        return changed

    monkeypatch.setattr(opt_passes, "fold_constants", wrong_fold)
    corpus = tmp_path / "corpus"
    report = run_opt_oracle(
        trials=6, seed=0, corpus_dir=str(corpus), minimize=True
    )
    assert report.failures, "wrong fold pass must be caught"
    first = report.failures[0]
    assert first.discrepancies[0].property == "equivalence"
    assert report.minimized.get(first.seed)
    assert list(corpus.glob("*.json")) or list(corpus.iterdir())

"""Constant provenance: derivation cells, killers, payload round-trip."""

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.ipcp.driver import analyze_source
from repro.obs.provenance import (
    ConstantProvenance,
    build_provenance,
)
from repro.pipeline import run_entry
from tests.conftest import TRI_PROGRAM

#: Two call sites passing different literals: the classic killing meet.
CONFLICT_PROGRAM = """
      PROGRAM MAIN
      CALL P(1)
      CALL P(2)
      END

      SUBROUTINE P(K)
      INTEGER K
      PRINT *, K
      RETURN
      END
"""


@pytest.fixture(scope="module")
def tri_provenance():
    return build_provenance(analyze_source(TRI_PROGRAM))


class TestCells:
    def test_every_entry_cell_is_recorded(self, tri_provenance):
        assert tri_provenance.available() == [
            "a@bar", "g1@bar", "g1@foo", "g1@main", "g2@bar", "g2@foo",
            "g2@main", "x@foo", "y@foo",
        ]

    def test_constant_cells_match_val_sets(self, tri_provenance):
        result = analyze_source(TRI_PROGRAM)
        for procedure in result.program:
            for var, value in result.constants.constants_of(
                procedure.name
            ).items():
                cell = tri_provenance.cell(
                    f"{var.name}@{procedure.name}"
                )
                assert cell is not None
                assert cell["value"] == str(value), (var.name, procedure.name)

    def test_query_is_case_insensitive(self, tri_provenance):
        assert "x@foo = 100" in tri_provenance.explain("X@FOO")

    def test_malformed_query_raises(self, tri_provenance):
        with pytest.raises(ValueError):
            tri_provenance.explain("no-at-sign")

    def test_unknown_cell_lists_known_ones(self, tri_provenance):
        with pytest.raises(ValueError, match="x@foo"):
            tri_provenance.explain("zz@foo")


class TestDerivations:
    def test_chain_through_pass_through(self, tri_provenance):
        text = tri_provenance.explain("g1@bar")
        # g1 reaches bar through foo's pass-through from main's literal 7.
        assert "g1@bar = 7 (constant)" in text
        assert "pass(g1)" in text
        assert "g1@foo = 7 (constant)" in text
        assert "J^g1[polynomial] = 7 => 7" in text

    def test_main_cell_explains_initial_value(self, tri_provenance):
        text = tri_provenance.explain("g1@main")
        assert "uninitialized COMMON storage" in text

    def test_bottom_cell_names_its_killer(self, tri_provenance):
        text = tri_provenance.explain("a@bar")
        assert "killed by meet" in text

    def test_conflicting_sites_identified_as_pair(self):
        provenance = build_provenance(analyze_source(CONFLICT_PROGRAM))
        cell = provenance.cell("k@p")
        assert cell["killer"]["sites"] == [0, 1]
        text = provenance.explain("k@p")
        assert "1 from call site #1 meets 2 from call site #2" in text

    def test_demoted_site_carries_budget_note(self):
        source = """
      PROGRAM MAIN
      CALL R(3, 4)
      END

      SUBROUTINE R(X, Y)
      INTEGER X, Y
      CALL Q(X + Y)
      RETURN
      END

      SUBROUTINE Q(M)
      INTEGER M
      PRINT *, M
      RETURN
      END
"""
        config = AnalysisConfig(budget=AnalysisBudget(polynomial_terms=1))
        result = analyze_source(source, config)
        assert not result.resilience.ok
        text = build_provenance(result).explain("m@q")
        assert "demoted: polynomial -> pass_through" in text

    def test_support_names_are_sorted(self, tri_provenance):
        for cell in tri_provenance.cells.values():
            for site in cell.get("sites", []):
                support = site.get("support", [])
                assert support == sorted(support)


class TestPayloadRoundTrip:
    def test_explain_is_byte_identical_after_round_trip(self, tri_provenance):
        import json

        payload = json.loads(json.dumps(tri_provenance.to_payload()))
        replayed = ConstantProvenance.from_payload(payload)
        assert replayed is not None
        for key in tri_provenance.available():
            assert replayed.explain(key) == tri_provenance.explain(key)

    def test_from_payload_rejects_other_schemas(self):
        assert ConstantProvenance.from_payload(None) is None
        assert ConstantProvenance.from_payload({"schema_version": 99}) is None
        assert ConstantProvenance.from_payload("junk") is None

    def test_intraprocedural_run_has_no_cells(self):
        result = analyze_source(
            TRI_PROGRAM, AnalysisConfig.intraprocedural_only()
        )
        assert build_provenance(result).available() == []


class TestCachedRunCarriesProvenance:
    def test_record_and_replay_render_identically(self, tmp_path):
        from repro.engine import Engine

        engine = Engine(cache_dir=str(tmp_path / "cache"))
        try:
            config = AnalysisConfig()
            result = analyze_source(TRI_PROGRAM, config, engine=engine)
            engine.record_run(
                TRI_PROGRAM, config, result, run_entry(result, {"constants"}),
                build_provenance(result),
            )
            payload = engine.cached_provenance(TRI_PROGRAM, config)
            assert payload is not None
            replayed = ConstantProvenance.from_payload(payload)
            live = build_provenance(result)
            for key in live.available():
                assert replayed.explain(key) == live.explain(key)
        finally:
            engine.close()

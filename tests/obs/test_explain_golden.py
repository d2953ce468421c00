"""CLI ``--explain`` golden derivation trees, cold/warm byte-identity."""

import pytest

from repro.cli import main
from tests.conftest import TRI_PROGRAM

#: MAIN's call passes X+Y (two polynomial terms); a one-term budget
#: demotes the jump function, and the demotion must show in the tree.
DEMOTED_PROGRAM = """
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


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.f"
    path.write_text(TRI_PROGRAM)
    return str(path)


@pytest.fixture
def demoted_file(tmp_path):
    path = tmp_path / "demoted.f"
    path.write_text(DEMOTED_PROGRAM)
    return str(path)


def _explain_section(output: str) -> str:
    marker = "--- explain "
    assert marker in output
    return output[output.index(marker):]


class TestGoldenDerivations:
    def test_constant_chain_golden(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--explain", "g1@bar"]) == 0
        section = _explain_section(capsys.readouterr().out)
        expected = (
            f"--- explain g1@bar ---\n"
            f"g1@bar = 7 (constant)\n"
            f"`- foo: call bar @ {tri_file}:23:7 / g1 -- "
            f"J^g1[polynomial] = pass(g1) => 7\n"
            f"   `- g1@foo = 7 (constant)\n"
            f"      `- main: call foo @ {tri_file}:7:7 / g1 -- "
            f"J^g1[polynomial] = 7 => 7\n"
        )
        assert section == expected

    def test_literal_constant_golden(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--explain", "x@foo"]) == 0
        section = _explain_section(capsys.readouterr().out)
        expected = (
            f"--- explain x@foo ---\n"
            f"x@foo = 100 (constant)\n"
            f"`- main: call foo @ {tri_file}:7:7 / x -- "
            f"J^x[polynomial] = 100 => 100\n"
        )
        assert section == expected

    def test_bottom_cell_golden_names_killing_site(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--explain", "a@bar"]) == 0
        section = _explain_section(capsys.readouterr().out)
        expected = (
            f"--- explain a@bar ---\n"
            f"a@bar = _|_ (not constant)\n"
            f"|- foo: call bar @ {tri_file}:23:7 / a -- "
            f"J^a[polynomial] = _|_ => _|_\n"
            f"`- ! killed by meet: call site #1 contributes _|_ directly\n"
        )
        assert section == expected

    def test_demoted_cell_golden(self, demoted_file, capsys):
        assert main([
            "analyze", demoted_file, "--max-poly-terms", "1",
            "--explain", "m@q",
        ]) == 0
        section = _explain_section(capsys.readouterr().out)
        expected = (
            f"--- explain m@q ---\n"
            f"m@q = _|_ (not constant)\n"
            f"|- r: call q @ {demoted_file}:8:7 / m -- "
            f"J^m[pass_through] = _|_ => _|_\n"
            f"|  `- ! demoted: polynomial -> pass_through "
            f"(polynomial size exceeded its budget of 1 (2 terms))\n"
            f"`- ! killed by meet: call site #1 contributes _|_ directly\n"
        )
        assert section == expected

    def test_every_constant_in_running_example_explains(
        self, tri_file, capsys
    ):
        from repro.config import AnalysisConfig
        from repro.ipcp.driver import analyze_file

        result = analyze_file(tri_file, AnalysisConfig())
        for procedure in result.program:
            for var, value in result.constants.constants_of(
                procedure.name
            ).items():
                query = f"{var.name}@{procedure.name}"
                assert main(["analyze", tri_file, "--explain", query]) == 0
                out = capsys.readouterr().out
                assert f"{query} = {value} (constant)" in out


class TestExplainErrors:
    def test_unknown_cell_exits_with_diagnostics(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--explain", "nope@bar"]) == 1
        err = capsys.readouterr().err
        assert "unknown cell" in err
        assert "g1@bar" in err  # suggests the known cells

    def test_malformed_query_exits_with_diagnostics(self, tri_file, capsys):
        assert main(["analyze", tri_file, "--explain", "noatsign"]) == 1
        assert "explain:" in capsys.readouterr().err


class TestColdWarmByteIdentity:
    def test_cached_replay_is_byte_identical(self, tri_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        queries = ["g1@bar", "a@bar", "g2@foo"]
        for query in queries:
            argv = [
                "analyze", tri_file, "--cache-dir", cache,
                "--explain", query,
            ]
            assert main(argv) == 0
            cold = capsys.readouterr().out
            assert main(argv) == 0
            warm = capsys.readouterr().out
            assert warm == cold, query

    def test_live_explain_builds_provenance_once(
        self, tri_file, tmp_path, capsys, provenance_builds
    ):
        """The cold run renders --explain and records the run from the
        same provenance object; the warm run builds none."""
        argv = ["analyze", tri_file, "--cache-dir", str(tmp_path / "cache"),
                "--explain", "g1@bar"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(provenance_builds) == 1
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert len(provenance_builds) == 1

    def test_stale_payload_without_provenance_falls_through(
        self, tri_file, tmp_path, capsys
    ):
        """A run cached by a version that stored no provenance must not
        serve --explain; the CLI re-analyzes instead."""
        from repro.config import AnalysisConfig
        from repro.pipeline import Request, serves

        request = Request(AnalysisConfig(), path=tri_file,
                          explain="g1@bar", renders=frozenset())
        assert serves(request, {"provenance": None}) is False
        assert serves(request, {}) is False
        request.explain = None
        assert serves(request, {}) is True

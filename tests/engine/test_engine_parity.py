"""Engine parity: an engine over a fresh cache must reproduce the plain
driver byte-for-byte — same CONSTANTS report, substitution counts,
transformed source and demotion log — both cold (every summary built
and stored) and warm (every summary decoded from the cache)."""

from dataclasses import replace

import pytest

from repro.config import AnalysisBudget, AnalysisConfig
from repro.engine import Engine, fingerprint, summaries
from repro.engine.cache import SummaryCache
from repro.ipcp.driver import analyze_source, prepare_program
from repro.profiling import PipelineProfile
from repro.suite.generator import GeneratorConfig, generate_case
from repro.suite.programs import SUITE_PROGRAM_NAMES, program_source

from tests.conftest import lower

GENERATOR = GeneratorConfig(procedures=6, max_statements_per_procedure=8)
SEEDS = range(25)
TIGHT = replace(AnalysisConfig(), budget=AnalysisBudget.tight())


def fingerprint_run(text, config=None, engine=None):
    result = analyze_source(text, config or AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
        [
            (d.component, d.site, d.from_kind, d.to_kind, d.reason)
            for d in result.resilience.demotions
        ],
    )


def assert_cold_and_warm_match(text, cache_dir, config=None):
    """Analyze ``text`` with a cold engine, then with a warm one over
    the same cache; both must match the plain driver. Returns the plain
    driver's fingerprint."""
    plain = fingerprint_run(text, config)
    with Engine(cache_dir=cache_dir) as engine:
        assert fingerprint_run(text, config, engine) == plain, "cold"
    with Engine(cache_dir=cache_dir) as engine:
        assert fingerprint_run(text, config, engine) == plain, "warm"
        assert engine.cache.stats.misses == 0
    return plain


class TestSerialEngineParity:
    def test_generated_programs_25_seeds(self, tmp_path):
        for seed in SEEDS:
            text = generate_case(seed, GENERATOR).source
            assert_cold_and_warm_match(text, str(tmp_path / f"s{seed}"))

    @pytest.mark.parametrize("name", SUITE_PROGRAM_NAMES)
    def test_suite_programs(self, name, tmp_path):
        assert_cold_and_warm_match(program_source(name), str(tmp_path))

    def test_demotion_log_parity_under_tight_budget(self, tmp_path):
        generator = GeneratorConfig(
            procedures=10, max_statements_per_procedure=12
        )
        for seed in range(5):
            text = generate_case(seed, generator).source
            plain = assert_cold_and_warm_match(
                text, str(tmp_path / f"s{seed}"), TIGHT
            )
            assert plain[3], "tight budget should demote something"


#: Call graphs with multi-member SCCs, which the generator and the suite
#: programs never produce: the engine looks a component up whole and
#: builds it whole.
RECURSIVE = {
    "mutual": (
        "      PROGRAM MAIN\n      COMMON /C/ G\n      G = 3\n"
        "      CALL A(5, 2)\n      END\n"
        "      SUBROUTINE A(N, K)\n      COMMON /C/ G\n"
        "      IF (N .GT. 0) THEN\n      CALL B(N - 1, K)\n      ENDIF\n"
        "      G = K + 1\n      END\n"
        "      SUBROUTINE B(N, K)\n"
        "      IF (N .GT. 0) THEN\n      CALL A(N - 1, K)\n      ENDIF\n"
        "      END\n"
    ),
    "three-cycle": (
        "      PROGRAM MAIN\n      CALL A(9, 4)\n      END\n"
        "      SUBROUTINE A(N, K)\n"
        "      IF (N .GT. 0) THEN\n      CALL B(N - 1, K)\n      ENDIF\n"
        "      END\n"
        "      SUBROUTINE B(N, K)\n      CALL C(N, K + 1)\n      END\n"
        "      SUBROUTINE C(N, K)\n      CALL A(N, K - 1)\n"
        "      CALL LEAF(K, 6)\n      END\n"
        "      SUBROUTINE LEAF(X, Y)\n      Z = X * Y\n      END\n"
    ),
    "nested-cycles": (
        "      PROGRAM MAIN\n      CALL A(5)\n      END\n"
        "      SUBROUTINE A(N)\n"
        "      IF (N .GT. 0) THEN\n      CALL B(N - 1)\n      ENDIF\n"
        "      END\n"
        "      SUBROUTINE B(N)\n      CALL A(N)\n      CALL C(N + 2)\n"
        "      END\n"
        "      SUBROUTINE C(N)\n"
        "      IF (N .GT. 0) THEN\n      CALL D(N - 1)\n      ENDIF\n"
        "      END\n"
        "      SUBROUTINE D(N)\n      CALL C(N)\n      CALL E(N, 7)\n"
        "      END\n"
        "      SUBROUTINE E(N, M)\n      Y = N + M\n      END\n"
    ),
    "recursive-function": (
        "      PROGRAM MAIN\n      X = FACT(5)\n      CALL P(X, 4)\n"
        "      END\n"
        "      INTEGER FUNCTION FACT(N)\n"
        "      IF (N .LE. 1) THEN\n      FACT = 1\n      ELSE\n"
        "      FACT = N * FACT(N - 1)\n      ENDIF\n      END\n"
        "      SUBROUTINE P(X, Y)\n      Z = X + Y\n      END\n"
    ),
}


class TestRecursiveComponents:
    @pytest.mark.parametrize("shape", list(RECURSIVE))
    def test_cold_and_warm_match(self, shape, tmp_path):
        assert_cold_and_warm_match(RECURSIVE[shape], str(tmp_path))

    def test_partial_component_hit_rebuilds_the_component(self, tmp_path):
        text = RECURSIVE["mutual"]
        plain = assert_cold_and_warm_match(text, str(tmp_path))
        program = lower(text, filename="<string>")
        config = AnalysisConfig()
        callgraph, _ = prepare_program(program, config)
        keys = fingerprint.summary_index(program, callgraph, config)
        assert SummaryCache(str(tmp_path)).delete("ret", keys["b"]["key"])
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(text, engine=engine) == plain
            assert sorted(engine.recomputed["ret"]) == ["a", "b"]
            assert engine.recomputed["fwd"] == []


class TestEngineReuse:
    def test_one_engine_many_programs(self, tmp_path):
        with Engine(cache_dir=str(tmp_path)) as engine:
            for name in ("adm", "linpackd", "adm"):
                text = program_source(name)
                assert fingerprint_run(text, engine=engine) == (
                    fingerprint_run(text)
                )


class TestWarmCache:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        text = program_source("adm")
        plain = fingerprint_run(text)
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(text, engine=engine) == plain
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint_run(text, engine=engine) == plain
            assert engine.cache.stats.misses == 0
            assert engine.recomputed == {"ret": [], "fwd": [], "sub": []}


class TestCodecOnlyAtTheCache:
    """Summaries are encoded only to be stored and decoded only when
    read back: an engine with no cache does the plain driver's work,
    and a cold run decodes nothing."""

    DECODERS = ("apply_demotions", "resolve_varref")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"encode": 0, "decode": 0}
        for name in dir(summaries):
            if name.startswith("encode_"):
                kind = "encode"
            elif name.startswith("decode_") or name in self.DECODERS:
                kind = "decode"
            else:
                continue
            original = getattr(summaries, name)

            def counted(*args, _original=original, _kind=kind, **kwargs):
                counts[_kind] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(summaries, name, counted)
        return counts

    @pytest.mark.parametrize("config", [AnalysisConfig(), TIGHT],
                             ids=["default", "tight"])
    def test_no_cache_calls_no_codec(self, calls, config):
        text = generate_case(3, GENERATOR).source
        plain = fingerprint_run(text, config)
        with Engine(profile=PipelineProfile()) as engine:
            assert fingerprint_run(text, config, engine) == plain
        assert calls == {"encode": 0, "decode": 0}

    @pytest.mark.parametrize("config", [AnalysisConfig(), TIGHT],
                             ids=["default", "tight"])
    def test_cold_run_decodes_nothing(self, calls, config, tmp_path):
        text = generate_case(3, GENERATOR).source
        with Engine(cache_dir=str(tmp_path)) as engine:
            fingerprint_run(text, config, engine)
        assert calls["encode"] > 0
        assert calls["decode"] == 0
        with Engine(cache_dir=str(tmp_path)) as engine:
            fingerprint_run(text, config, engine)
        assert calls["decode"] > 0, "a warm run decodes what it reads"

"""Persistent summary cache: warm hits, invalidation, versioning."""

import json
import os
from dataclasses import replace

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine, SummaryCache, default_cache_root, fingerprint
from repro.engine.cache import CacheStats
from repro.ipcp.driver import analyze_source
from repro.pipeline import run_entry
from repro.suite.programs import program_source

SOURCE = program_source("adm")


def run(config=None, engine=None, text=SOURCE):
    return analyze_source(text, config or AnalysisConfig(), engine=engine)


def outputs(result):
    return (
        result.constants.format_report(),
        result.substitution.per_procedure,
        result.transformed_source(),
    )


class TestSummaryCacheStore:
    def test_get_put_roundtrip(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        assert cache.get("ret", "ab" * 32) is None
        cache.put("ret", "ab" * 32, {"fns": [1, 2]})
        assert cache.get("ret", "ab" * 32) == {"fns": [1, 2]}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = "cd" * 32
        cache.put("fwd", key, {"x": 1})
        path = cache._path("fwd", key)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get("fwd", key) is None

    def test_namespaces_are_disjoint(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        key = "ef" * 32
        cache.put("ret", key, {"a": 1})
        assert cache.get("fwd", key) is None

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_default_root_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_root() == "/somewhere/else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
        assert default_cache_root() == os.path.join("/xdg", "repro")


class TestWarmRuns:
    def test_warm_run_hits_everything_and_matches(self, tmp_path):
        serial = outputs(run())
        with Engine(cache_dir=str(tmp_path)) as engine:
            cold = outputs(run(engine=engine))
            assert engine.cache.stats.hits == 0
            stores = engine.cache.stats.stores
            assert stores > 0
        with Engine(cache_dir=str(tmp_path)) as engine:
            warm = outputs(run(engine=engine))
            stats = engine.cache.stats
            assert stats.misses == 0
            assert stats.hit_rate >= 0.95
        assert cold == serial
        assert warm == serial

    def test_whitespace_edit_keeps_summaries(self, tmp_path):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine, text=SOURCE + "\n")
            # Raw text changed but no procedure's IR did: the Merkle
            # keys hash analysis-relevant content, not bytes.
            assert engine.cache.stats.misses == 0


class TestInvalidation:
    def test_source_edit_invalidates_edited_and_callers_only(self, tmp_path):
        edited = SOURCE.replace("= 2", "= 3", 1)
        assert edited != SOURCE
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        with Engine(cache_dir=str(tmp_path)) as engine:
            result = run(engine=engine, text=edited)
            stats = engine.cache.stats
            assert stats.misses > 0, "the edit must invalidate something"
            assert stats.hits > 0, "unrelated procedures must stay cached"
        assert outputs(result) == outputs(run(text=edited))

    def test_config_change_invalidates_all(self, tmp_path):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        other = replace(AnalysisConfig(), use_mod=False)
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(config=other, engine=engine)
            assert engine.cache.stats.hits == 0

    def test_cache_version_bump_invalidates_all(self, tmp_path, monkeypatch):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        monkeypatch.setattr(
            fingerprint, "ENGINE_CACHE_VERSION",
            fingerprint.ENGINE_CACHE_VERSION + 1,
        )
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
            assert engine.cache.stats.hits == 0

    def test_fingerprint_excludes_verify_ir(self):
        base = AnalysisConfig()
        assert fingerprint.config_fingerprint(base) == (
            fingerprint.config_fingerprint(replace(base, verify_ir=True))
        )
        assert fingerprint.config_fingerprint(base) != (
            fingerprint.config_fingerprint(replace(base, use_mod=False))
        )


class TestRunCache:
    def test_clean_run_recorded_and_replayed(self, tmp_path):
        config = AnalysisConfig()
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert engine.cached_run(SOURCE, config) is None
            result = run(config, engine=engine)
            engine.record_run(
                SOURCE, config, result,
                run_entry(result, {"constants", "transform"}),
            )
            payload = engine.cached_run(SOURCE, config)
        assert payload is not None
        assert payload["constants_report"] == result.constants.format_report()
        assert payload["substituted"] == result.substitution.total
        assert payload["transformed_source"] == result.transformed_source()
        assert payload["ir"] is None and payload["stats"] is None

    def test_degraded_run_never_recorded(self, tmp_path):
        from repro.config import AnalysisBudget

        config = replace(AnalysisConfig(), budget=AnalysisBudget.tight())
        with Engine(cache_dir=str(tmp_path)) as engine:
            result = run(config, engine=engine)
            assert result.resilience.demotions, "tight budget must demote"
            engine.record_run(
                SOURCE, config, result, run_entry(result, {"constants"})
            )
            assert engine.cached_run(SOURCE, config) is None

"""Persistent summary cache: warm hits, invalidation, versioning."""

import json
import os
from dataclasses import replace

import pytest

from repro.config import AnalysisConfig
from repro.engine import Engine, SummaryCache, default_cache_root, fingerprint
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.pipeline import run_entry
from repro.suite.programs import program_source

SOURCE = program_source("adm")


def run(config=None, engine=None, text=SOURCE):
    return analyze_source(text, config or AnalysisConfig(), engine=engine)


def summary_traffic(base) -> dict:
    """The registry's summary-cache counters since ``base``: ``hits``,
    ``misses`` and ``stores``."""
    counters = metrics.delta_since(base)["counters"]
    return {
        kind: counters.get(f"summary_cache_{kind}", 0)
        for kind in ("hits", "misses", "stores")
    }


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

    def test_default_root_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_root() == "/somewhere/else"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
        assert default_cache_root() == os.path.join("/xdg", "repro")


def cache_files(root) -> dict:
    """Every file under the cache ``root``, relative path -> bytes."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


class TestPack:
    """A file's summaries and manifest are one pack: a cached run
    creates one summary file however many procedures it analyzed."""

    @pytest.fixture(scope="class")
    def scaled(self):
        from repro.suite.generator import ScaleConfig, generate_scaled_program

        return generate_scaled_program(
            0, ScaleConfig(procedures=300, layer_width=32)
        )

    @staticmethod
    def analyze(path, text, engine):
        from repro.pipeline import Request, run as run_request

        path.write_text(text)
        outcome = run_request(Request(AnalysisConfig(), path=str(path)),
                              engine)
        assert outcome.ok and not outcome.replayed
        return outcome

    def test_cold_run_leaves_one_pack_and_one_run_entry(self, tmp_path,
                                                        scaled):
        cache = tmp_path / "cache"
        with Engine(cache_dir=str(cache)) as engine:
            self.analyze(tmp_path / "big.f", scaled, engine)
        files = sorted(cache_files(cache))
        assert [os.path.dirname(os.path.dirname(f)) for f in files] == [
            os.path.join(f"v{fingerprint.ENGINE_CACHE_VERSION}", "pack"),
            os.path.join(f"v{fingerprint.ENGINE_CACHE_VERSION}", "run"),
        ]
        assert files[0].endswith(".pack")

    def test_an_edit_replaces_the_pack_without_adding_files(self, tmp_path,
                                                            scaled):
        import re

        cache = tmp_path / "cache"
        path = tmp_path / "big.f"
        edited = re.sub(r"(?m)^(      \w+ = )(-?\d+)$",
                        lambda m: m.group(1) + str(int(m.group(2)) + 1),
                        scaled, count=1)
        assert edited != scaled
        with Engine(cache_dir=str(cache)) as engine:
            self.analyze(path, scaled, engine)
            before = cache_files(cache)
            outcome = self.analyze(path, edited, engine)
        after = cache_files(cache)
        assert 0 < len(outcome.invalidation["edited"]) < 300
        [pack] = [name for name in before if name.endswith(".pack")]
        assert after[pack] != before[pack]
        added = set(after) - set(before)
        assert len(added) == 1 and f"{os.sep}run{os.sep}" in added.pop()

    def test_a_pack_round_trips_its_entries_and_manifest(self, tmp_path):
        cache = SummaryCache(str(tmp_path))
        writer = cache.pack_writer("ab" * 32)
        writer.put("sum", "k1", {"b": 1, "a": [2]})
        writer.copy("sub", "k2", b'{"x":3}')
        writer.put("sum", "k1", {"a": 0})  # a later entry replaces it
        writer.commit({"procedures": {"p": ["d", "k", "e"]}})
        pack = cache.read_pack("ab" * 32)
        assert json.loads(pack.body("sum", "k1")) == {"a": 0}
        assert pack.body("sub", "k2") == b'{"x":3}'
        assert pack.body("sub", "k1") is None
        assert pack.manifest() == b'{"procedures":{"p":["d","k","e"]}}'
        assert sorted(pack.items()) == [
            ("sub", "k2", b'{"x":3}'), ("sum", "k1", b'{"a":0}'),
        ]
        pack.close()
        assert cache.read_pack("cd" * 32) is None


class TestWarmRuns:
    def test_warm_run_hits_everything_and_matches(self, tmp_path):
        serial = outputs(run())
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            cold = outputs(run(engine=engine))
        traffic = summary_traffic(base)
        assert traffic["hits"] == 0
        assert traffic["stores"] > 0
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            warm = outputs(run(engine=engine))
        traffic = summary_traffic(base)
        assert traffic["misses"] == 0
        assert traffic["hits"] > 0
        assert cold == serial
        assert warm == serial

    def test_whitespace_edit_keeps_summaries(self, tmp_path):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine, text=SOURCE + "\n")
        # Raw text changed but no procedure's IR did: the keys hash
        # analysis-relevant content, not bytes.
        assert summary_traffic(base)["misses"] == 0


class TestInvalidation:
    def test_source_edit_invalidates_edited_and_callers_only(self, tmp_path):
        edited = SOURCE.replace("= 2", "= 3", 1)
        assert edited != SOURCE
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            result = run(engine=engine, text=edited)
        traffic = summary_traffic(base)
        assert traffic["misses"] > 0, "the edit must invalidate something"
        assert traffic["hits"] > 0, "unrelated procedures must stay cached"
        assert outputs(result) == outputs(run(text=edited))

    def test_config_change_invalidates_all(self, tmp_path):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        other = replace(AnalysisConfig(), use_mod=False)
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(config=other, engine=engine)
        assert summary_traffic(base)["hits"] == 0

    def test_cache_version_bump_invalidates_all(self, tmp_path, monkeypatch):
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        monkeypatch.setattr(
            fingerprint, "ENGINE_CACHE_VERSION",
            fingerprint.ENGINE_CACHE_VERSION + 1,
        )
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine=engine)
        assert summary_traffic(base)["hits"] == 0

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

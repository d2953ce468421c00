"""Cache integrity under injected corruption: a torn, rotted, or
unwritable entry must degrade to a recomputation — visibly (the
``cache_quarantined`` and ``cache_store_failures`` counters,
``.corrupt`` sidecars) but never to a wrong or failed analysis."""

from __future__ import annotations

import glob
import json
import os
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main
from repro.config import AnalysisConfig
from repro.engine import Engine
from repro.engine.cache import SummaryCache, payload_digest
from repro.ipcp.driver import analyze_source
from repro.obs import metrics
from repro.testkit import TRI_PROGRAM


def fingerprint(text, engine=None):
    result = analyze_source(text, AnalysisConfig(), engine=engine)
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
    )


def corrupt_sidecars(root):
    return glob.glob(os.path.join(root, "**", "*.corrupt"), recursive=True)


def entries(root):
    """Every stored entry and pack under ``root``."""
    return [
        path
        for pattern in ("*.json", "*.pack")
        for path in glob.glob(os.path.join(root, "**", pattern),
                              recursive=True)
    ]


def counted(base, name):
    """How often the registry counted ``name`` since ``base``."""
    return metrics.delta_since(base)["counters"].get(name, 0)


class TestSummaryCacheUnit:
    def test_roundtrip_verifies(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        base = metrics.snapshot()
        cache.put("ret", "a" * 16, {"x": 1})
        assert cache.get("ret", "a" * 16) == {"x": 1}
        assert counted(base, "cache_quarantined") == 0

    def test_digest_mismatch_quarantines(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        cache.put("ret", "b" * 16, {"x": 1})
        [path] = glob.glob(
            os.path.join(str(tmp_path), "**", "*.json"), recursive=True
        )
        wrapper = json.loads(Path(path).read_text())
        wrapper["body"] = {"x": 2}  # rot the body, keep the old digest
        Path(path).write_text(json.dumps(wrapper))
        base = metrics.snapshot()
        assert cache.get("ret", "b" * 16) is None
        assert counted(base, "cache_quarantined") == 1
        assert os.path.exists(path + ".corrupt")
        assert not os.path.exists(path)

    def test_truncated_entry_quarantines(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        faults.install("truncate-cache", export_env=False)
        cache.put("ret", "c" * 16, {"x": 1})
        faults.clear()
        base = metrics.snapshot()
        assert cache.get("ret", "c" * 16) is None
        assert counted(base, "cache_quarantined") == 1
        assert corrupt_sidecars(str(tmp_path))

    def test_missing_wrapper_quarantines(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        cache.put("ret", "d" * 16, {"x": 1})
        [path] = glob.glob(
            os.path.join(str(tmp_path), "**", "*.json"), recursive=True
        )
        Path(path).write_text(json.dumps({"x": 1}))  # pre-checksum layout
        base = metrics.snapshot()
        assert cache.get("ret", "d" * 16) is None
        assert counted(base, "cache_quarantined") == 1

    def test_injected_write_failure_degrades_to_no_store(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        faults.install("fail-write", export_env=False)
        base = metrics.snapshot()
        cache.put("ret", "e" * 16, {"x": 1})
        faults.clear()
        assert counted(base, "cache_store_failures") == 1
        assert entries(str(tmp_path)) == []
        assert cache.get("ret", "e" * 16) is None

    def test_digest_is_insertion_order_free(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_stored_layout_is_digest_then_canonical_body(self, tmp_path):
        cache = SummaryCache(root=str(tmp_path))
        payload = {"b": [1, 2], "a": {"y": 1, "x": None}}
        cache.put("run", "f" * 16, payload)
        [path] = glob.glob(
            os.path.join(str(tmp_path), "**", "*.json"), recursive=True
        )
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        assert Path(path).read_text() == (
            f'{{"sha256":"{payload_digest(payload)}","body":{body}}}'
        )

    def test_get_does_not_reencode(self, tmp_path, monkeypatch):
        cache = SummaryCache(root=str(tmp_path))
        payload = {"b": [1, 2], "a": {"y": 1, "x": None}}
        cache.put("run", "f" * 16, payload)
        calls = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        assert cache.get("run", "f" * 16) == payload
        assert calls == []

    def test_flipped_body_digit_quarantines(self, tmp_path):
        """Rot that leaves the body valid JSON is caught by the digest
        over the stored body bytes."""
        cache = SummaryCache(root=str(tmp_path))
        cache.put("ret", "9" * 16, {"x": 1234})
        [path] = glob.glob(
            os.path.join(str(tmp_path), "**", "*.json"), recursive=True
        )
        data = Path(path).read_bytes()
        assert data.count(b"1234") == 1
        Path(path).write_bytes(data.replace(b"1234", b"1235"))
        base = metrics.snapshot()
        assert cache.get("ret", "9" * 16) is None
        assert counted(base, "cache_quarantined") == 1
        assert os.path.exists(path + ".corrupt")

    @pytest.mark.parametrize("rewrite", [
        lambda wrapper: json.dumps(wrapper),
        lambda wrapper: json.dumps(
            {"body": wrapper["body"], "sha256": wrapper["sha256"]},
            separators=(",", ":"),
        ),
    ], ids=["spacing", "key-order"])
    def test_rewritten_wrapper_quarantines(self, tmp_path, rewrite):
        """Only put()'s exact byte layout is served: the same wrapper
        re-serialized any other way is not what was hashed."""
        cache = SummaryCache(root=str(tmp_path))
        cache.put("ret", "8" * 16, {"x": 1, "y": [2, 3]})
        [path] = glob.glob(
            os.path.join(str(tmp_path), "**", "*.json"), recursive=True
        )
        wrapper = json.loads(Path(path).read_text())
        assert wrapper["sha256"] == payload_digest(wrapper["body"])
        Path(path).write_text(rewrite(wrapper))
        base = metrics.snapshot()
        assert cache.get("ret", "8" * 16) is None
        assert counted(base, "cache_quarantined") == 1


class TestEngineUnderCacheFaults:
    def test_torn_entries_recompute_identically(self, tmp_path):
        """Every summary written torn → second run quarantines them all
        and recomputes; both runs must match the cacheless truth."""
        truth = fingerprint(TRI_PROGRAM)
        faults.install("truncate-cache", export_env=False)
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint(TRI_PROGRAM, engine=engine) == truth
        faults.clear()
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint(TRI_PROGRAM, engine=engine) == truth
        assert counted(base, "cache_quarantined") > 0
        assert corrupt_sidecars(str(tmp_path))

    def test_rotted_digest_recomputes_identically(self, tmp_path):
        truth = fingerprint(TRI_PROGRAM)
        faults.install("corrupt-cache:namespace=pack", export_env=False)
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint(TRI_PROGRAM, engine=engine) == truth
        faults.clear()
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint(TRI_PROGRAM, engine=engine) == truth
        assert counted(base, "cache_quarantined") > 0

    def test_unwritable_cache_still_analyzes(self, tmp_path):
        truth = fingerprint(TRI_PROGRAM)
        faults.install("fail-write", export_env=False)
        base = metrics.snapshot()
        with Engine(cache_dir=str(tmp_path)) as engine:
            assert fingerprint(TRI_PROGRAM, engine=engine) == truth
        assert counted(base, "cache_store_failures") > 0
        assert entries(str(tmp_path)) == []


class TestProvenanceEntryFaults:
    @pytest.mark.parametrize(
        "spec",
        ["corrupt-cache:namespace=prov", "truncate-cache:namespace=prov"],
    )
    def test_bad_prov_entry_falls_through_to_live_explain(
        self, tmp_path, capsys, spec
    ):
        """A poisoned ``prov`` entry cannot serve ``--explain``: the
        warm run quarantines it, re-analyzes, prints the cold output
        byte-for-byte, and records a good entry for the next replay."""
        source = tmp_path / "tri.f"
        source.write_text(TRI_PROGRAM)
        cache = str(tmp_path / "cache")
        argv = ["analyze", str(source), "--cache-dir", cache,
                "--explain", "g1@bar"]
        faults.install(spec, export_env=False)
        assert main(argv) == 0
        faults.clear()
        cold = capsys.readouterr().out
        assert "--- explain g1@bar ---" in cold

        base = metrics.snapshot()
        assert main(argv) == 0
        delta = metrics.delta_since(base)["counters"]
        assert capsys.readouterr().out == cold
        assert delta.get("cache_quarantined") == 1
        assert delta.get("run_cache_hits") == 1
        assert delta.get("parses", 0) >= 1, "must re-analyze live"
        [sidecar] = corrupt_sidecars(cache)
        assert f"{os.sep}prov{os.sep}" in sidecar

        base = metrics.snapshot()
        assert main(argv) == 0
        delta = metrics.delta_since(base)["counters"]
        assert capsys.readouterr().out == cold
        assert delta.get("parses", 0) == 0, "re-recorded entry replays"
        assert not delta.get("cache_quarantined")


class TestPackFaults:
    """Each fault aimed at the pack's namespace degrades the next run of
    that file to a cold rebuild that prints byte-identically."""

    EDITED = TRI_PROGRAM.replace("N = 100", "N = 101")

    @staticmethod
    def analyze(path, text, capsys, cache=None):
        """``repro analyze`` of ``text`` saved at ``path``: its answer
        and, with a ``cache``, its invalidation section."""
        path.write_text(text)
        argv = ["analyze", str(path)]
        if cache is not None:
            argv += ["--cache-dir", cache, "--explain-invalidation"]
        assert main(argv) == 0
        answer, _, invalidation = capsys.readouterr().out.partition(
            "\n--- invalidation ---\n"
        )
        return answer, invalidation

    @pytest.mark.parametrize("spec,counter", [
        ("corrupt-cache:namespace=pack", "cache_quarantined"),
        ("truncate-cache:namespace=pack", "cache_quarantined"),
        ("fail-write:namespace=pack", "cache_store_failures"),
    ])
    def test_a_bad_pack_rebuilds_the_file_cold(self, tmp_path, capsys,
                                               spec, counter):
        source = tmp_path / "tri.f"
        cache = str(tmp_path / "cache")
        plain = [self.analyze(source, text, capsys)[0]
                 for text in (TRI_PROGRAM, self.EDITED)]
        faults.install(spec, export_env=False)
        base = metrics.snapshot()
        cold, _ = self.analyze(source, TRI_PROGRAM, capsys, cache)
        faults.clear()
        # An edit misses the run cache, so the engine reads the pack.
        edited, invalidation = self.analyze(
            source, self.EDITED, capsys, cache
        )
        assert counted(base, counter) == 1
        assert "no previous manifest — cold run" in invalidation
        assert [cold, edited] == plain
        assert not glob.glob(os.path.join(cache, "**", "*.tmp"),
                             recursive=True)

    def test_a_failed_write_keeps_the_previous_pack(self, tmp_path,
                                                    capsys):
        source = tmp_path / "tri.f"
        cache = str(tmp_path / "cache")
        self.analyze(source, TRI_PROGRAM, capsys, cache)
        [pack] = glob.glob(os.path.join(cache, "**", "*.pack"),
                           recursive=True)
        before = Path(pack).read_bytes()
        faults.install("fail-write:namespace=pack", export_env=False)
        base = metrics.snapshot()
        self.analyze(source, self.EDITED, capsys, cache)
        faults.clear()
        assert counted(base, "cache_store_failures") == 1
        assert Path(pack).read_bytes() == before
        assert not glob.glob(os.path.join(cache, "**", "*.tmp"),
                             recursive=True)
        # The next run still diffs against the manifest kept in it.
        _, invalidation = self.analyze(
            source, TRI_PROGRAM.replace("N = 100", "N = 102"), capsys, cache
        )
        assert "edited      main:" in invalidation

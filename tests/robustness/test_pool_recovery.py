"""Worker-crash recovery: a SIGKILLed batch pool worker must cost at
most a rebuild (first crash) or a demotion to in-process serial
execution (second crash) — never a wrong answer, never a dead host
process.

The two crash cadences are driven by the two fault trigger modes:

- ``flag=PATH`` — fire-once-globally: exactly one worker dies, the
  rebuilt pool finds the fault disarmed, the retry succeeds;
- no flag — every worker of every pool dies, so the rebuild breaks
  too and the batch must fall back to serial.
"""

from __future__ import annotations

from repro import faults
from repro.config import AnalysisConfig
from repro.engine.batch import run_batch
from repro.obs import metrics
from repro.testkit import TRI_PROGRAM


class TestBatchPoolRecovery:
    def _write_suite(self, tmp_path, count=3):
        paths = []
        for index in range(count):
            path = tmp_path / f"prog{index}.f"
            path.write_text(TRI_PROGRAM)
            paths.append(str(path))
        return paths

    def test_single_crash_rebuilds_and_finishes(self, tmp_path):
        paths = self._write_suite(tmp_path)
        reference = run_batch(paths, AnalysisConfig(), jobs=1)
        flag = tmp_path / "armed"
        flag.write_text("")
        faults.install(f"kill-worker:stage=batch,flag={flag}")
        base = metrics.snapshot()
        result = run_batch(paths, AnalysisConfig(), jobs=2)
        delta = metrics.delta_since(base)["counters"]
        assert delta.get("batch_pool_broken") == 1
        assert delta.get("batch_pool_rebuilds") == 1
        assert result.notes == []
        assert [o.path for o in result.files] == paths
        for ours, ref in zip(result.files, reference.files):
            assert (ours.status, ours.total_pairs, ours.substituted) == (
                ref.status, ref.total_pairs, ref.substituted)

    def test_double_crash_degrades_to_serial(self, tmp_path):
        paths = self._write_suite(tmp_path)
        reference = run_batch(paths, AnalysisConfig(), jobs=1)
        faults.install("kill-worker:stage=batch")
        base = metrics.snapshot()
        result = run_batch(paths, AnalysisConfig(), jobs=2)
        delta = metrics.delta_since(base)["counters"]
        assert delta.get("batch_pool_demotions") == 1
        assert result.notes and "serial" in result.notes[0], (
            "degraded completion must be announced, not silent"
        )
        assert result.ok
        for ours, ref in zip(result.files, reference.files):
            assert (ours.status, ours.total_pairs, ours.substituted) == (
                ref.status, ref.total_pairs, ref.substituted)

"""Shared fixtures and pytest wiring for the test suite.

The helpers themselves (``lower``, ``prepared``, ``TRI_PROGRAM``) live
in :mod:`repro.testkit` so the benchmark suite and the oracle tests
share one copy; they are re-exported here because many test modules
import them from ``tests.conftest``.

This file also registers the ``--update-goldens`` flag (regenerates the
golden-snapshot corpus instead of comparing against it) and auto-marks
tests by directory: ``tests/golden`` -> ``golden``, ``tests/oracle`` ->
``oracle``, ``tests/linkage`` -> ``linkage`` *and* ``tier1``,
``tests/opt`` -> ``opt`` *and* ``tier1``, everything else -> ``tier1``
(the fast gate: ``pytest -m tier1``).
"""

from __future__ import annotations

import pytest

from repro.testkit import TRI_PROGRAM, lower, prepared  # noqa: F401 — re-exports


@pytest.fixture(autouse=True)
def _fresh_memos():
    """Keep the engine's in-process memo caches test-local.

    A memoized ``AnalysisResult`` outliving one test would let a later
    test that monkeypatches analysis internals replay a result computed
    under the unpatched code (and vice versa)."""
    from repro.engine.memo import clear_memos

    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def provenance_builds(monkeypatch):
    """Count ``build_provenance`` calls: the list of results it built
    provenance for, appended as the code under test calls it."""
    from repro.obs import provenance

    built = []
    real_build = provenance.build_provenance

    def counting_build(result):
        built.append(result)
        return real_build(result)

    monkeypatch.setattr(provenance, "build_provenance", counting_build)
    return built


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate golden snapshots instead of asserting against them",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        path = str(item.fspath)
        if "/tests/golden/" in path or path.endswith("tests/golden"):
            item.add_marker(pytest.mark.golden)
        elif "/tests/oracle/" in path:
            item.add_marker(pytest.mark.oracle)
        elif "/tests/linkage/" in path:
            # Linkage tests are part of the fast gate AND addressable
            # on their own (`pytest -m linkage`) for the CI job.
            item.add_marker(pytest.mark.linkage)
            item.add_marker(pytest.mark.tier1)
        elif "/tests/opt/" in path:
            # Same dual addressing for the optimization backend
            # (`pytest -m opt` drives the CI opt-smoke job).
            item.add_marker(pytest.mark.opt)
            item.add_marker(pytest.mark.tier1)
        else:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture
def tri_program():
    return lower(TRI_PROGRAM)

"""``Engine.checkpoint``: the cooperative-cancellation hook the daemon
sets to its request deadline. The engine calls it before each SCC of
the return-function walk and before each procedure of the forward and
substitution stages; whatever it raises aborts the run. What an aborted
cold run already stored stays sound: a retry resumes from it and still
matches the plain driver."""

import pytest

from repro.callgraph.callgraph import build_call_graph
from repro.engine import Engine
from repro.ipcp.driver import analyze_source

from tests.conftest import lower

#: main -> {a, b} -> {c, d} -> e: six procedures in four SCCs.
NESTED = (
    "      PROGRAM MAIN\n      CALL A(5)\n      END\n"
    "      SUBROUTINE A(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL B(N - 1)\n      ENDIF\n      END\n"
    "      SUBROUTINE B(N)\n      CALL A(N)\n      CALL C(N + 2)\n      END\n"
    "      SUBROUTINE C(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL D(N - 1)\n      ENDIF\n      END\n"
    "      SUBROUTINE D(N)\n      CALL C(N)\n      CALL E(N, 7)\n      END\n"
    "      SUBROUTINE E(N, M)\n      Y = N + M\n      END\n"
)

PROCEDURES = ["main", "a", "b", "c", "d", "e"]
#: ``sccs()`` of NESTED, callees first, each component's names sorted.
COMPONENTS = [["e"], ["c", "d"], ["a", "b"], ["main"]]
#: The 1-based checkpoint call that opens each stage.
STAGE_START = {
    "ret": 1,
    "fwd": len(COMPONENTS) + 1,
    "sub": len(COMPONENTS) + len(PROCEDURES) + 1,
}
CALLS_PER_RUN = len(COMPONENTS) + 2 * len(PROCEDURES)


class Stop(Exception):
    pass


class Hook:
    """Counts calls; raises :class:`Stop` on call number ``stop_at``."""

    def __init__(self, stop_at=None):
        self.calls = 0
        self.stop_at = stop_at

    def __call__(self):
        self.calls += 1
        if self.calls == self.stop_at:
            raise Stop


def fingerprint(result):
    return (
        result.constants.format_report(),
        dict(result.substitution.per_procedure),
        result.transformed_source(),
    )


def run(engine, hook=None):
    engine.checkpoint = hook
    try:
        return fingerprint(analyze_source(NESTED, engine=engine))
    finally:
        engine.checkpoint = None


@pytest.fixture(scope="module")
def plain():
    return fingerprint(analyze_source(NESTED))


def test_components_of_the_fixture():
    callgraph = build_call_graph(lower(NESTED))
    assert [sorted(p.name for p in c) for c in callgraph.sccs()] == COMPONENTS


@pytest.mark.parametrize("cache", ["none", "cold", "warm"])
def test_called_per_component_then_per_procedure(cache, plain, tmp_path):
    if cache == "warm":
        with Engine(cache_dir=str(tmp_path)) as engine:
            run(engine)
    hook = Hook()
    cache_dir = None if cache == "none" else str(tmp_path)
    with Engine(cache_dir=cache_dir) as engine:
        assert run(engine, hook) == plain
    assert hook.calls == CALLS_PER_RUN


@pytest.mark.parametrize("stage", ["ret", "fwd", "sub"])
def test_raise_aborts_and_retry_resumes(stage, plain, tmp_path):
    with Engine(cache_dir=str(tmp_path)) as engine:
        with pytest.raises(Stop):
            run(engine, Hook(stop_at=STAGE_START[stage]))
        done = {ns: sorted(names) for ns, names in engine.recomputed.items()}
    finished = list(STAGE_START)[: list(STAGE_START).index(stage)]
    assert done == {
        ns: sorted(PROCEDURES) if ns in finished else [] for ns in STAGE_START
    }
    with Engine(cache_dir=str(tmp_path)) as engine:
        assert run(engine) == plain
        redone = {ns: sorted(names) for ns, names in engine.recomputed.items()}
    assert redone == {
        ns: [] if ns in finished else sorted(PROCEDURES) for ns in STAGE_START
    }


def test_abort_between_components_keeps_finished_ones(plain, tmp_path):
    with Engine(cache_dir=str(tmp_path)) as engine:
        with pytest.raises(Stop):
            run(engine, Hook(stop_at=3))
        assert sorted(engine.recomputed["ret"]) == ["c", "d", "e"]
    with Engine(cache_dir=str(tmp_path)) as engine:
        assert run(engine) == plain
        assert sorted(engine.recomputed["ret"]) == ["a", "b", "main"]


def test_engine_serves_again_after_an_abort(plain, tmp_path):
    with Engine(cache_dir=str(tmp_path)) as engine:
        with pytest.raises(Stop):
            run(engine, Hook(stop_at=STAGE_START["fwd"] + 2))
        assert run(engine) == plain
        assert run(engine) == plain

"""The call-graph orders the analyses walk: ``sccs()`` bottom-up (return
jump functions, and the engine's cache walk, which serves or builds one
component at a time) and ``reverse_postorder()`` (the solver's worklist
seed, callers before callees)."""

import sys

import pytest

from repro.callgraph.callgraph import build_call_graph
from repro.suite.programs import SUITE_PROGRAM_NAMES, program_source

from tests.conftest import lower

DIAMOND = (
    "      PROGRAM MAIN\n      CALL L(1)\n      CALL R(2)\n      END\n"
    "      SUBROUTINE L(X)\n      CALL B(X)\n      END\n"
    "      SUBROUTINE R(X)\n      CALL B(X)\n      END\n"
    "      SUBROUTINE B(X)\n      Y = X\n      END\n"
)

MUTUAL = (
    "      PROGRAM MAIN\n      CALL A(5)\n      END\n"
    "      SUBROUTINE A(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL B(N - 1)\n      ENDIF\n      END\n"
    "      SUBROUTINE B(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL A(N - 1)\n      ENDIF\n      END\n"
)

#: Two cycles, one below the other: {a, b} calls into {c, d}, which
#: calls the leaf e.
NESTED = (
    "      PROGRAM MAIN\n      CALL A(5)\n      END\n"
    "      SUBROUTINE A(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL B(N - 1)\n      ENDIF\n      END\n"
    "      SUBROUTINE B(N)\n      CALL A(N)\n      CALL C(N)\n      END\n"
    "      SUBROUTINE C(N)\n"
    "      IF (N .GT. 0) THEN\n      CALL D(N - 1)\n      ENDIF\n      END\n"
    "      SUBROUTINE D(N)\n      CALL C(N)\n      CALL E(N)\n      END\n"
    "      SUBROUTINE E(N)\n      Y = N\n      END\n"
)

SHAPES = {"diamond": DIAMOND, "mutual": MUTUAL, "nested": NESTED}


def graph_of(text):
    program = lower(text)
    return program, build_call_graph(program)


def chain(length):
    """MAIN -> P0 -> P1 -> ... -> P<length-1>: deeper than the
    interpreter's recursion limit when ``length`` exceeds it."""
    text = "      PROGRAM MAIN\n      CALL P0(1)\n      END\n"
    for i in range(length):
        body = f"      CALL P{i + 1}(K)\n" if i + 1 < length else "      Y = K\n"
        text += f"      SUBROUTINE P{i}(K)\n{body}      END\n"
    return text


def component_of(callgraph):
    return {
        proc: index
        for index, component in enumerate(callgraph.sccs())
        for proc in component
    }


def names(component):
    return sorted(p.name for p in component)


def assert_callees_in_earlier_components(callgraph):
    index = component_of(callgraph)
    for site in callgraph.sites:
        if index[site.callee] != index[site.caller]:
            assert index[site.callee] < index[site.caller], (
                site.caller.name, site.callee.name
            )


def assert_cross_component_callers_first(callgraph):
    index = component_of(callgraph)
    rank = {p: i for i, p in enumerate(callgraph.reverse_postorder())}
    for site in callgraph.sites:
        if index[site.callee] != index[site.caller]:
            assert rank[site.caller] < rank[site.callee], (
                site.caller.name, site.callee.name
            )


class TestSccs:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_partitions_every_procedure_once(self, shape):
        program, callgraph = graph_of(SHAPES[shape])
        flat = [p.name for c in callgraph.sccs() for p in c]
        assert sorted(flat) == sorted(p.name for p in program)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_callees_in_earlier_components(self, shape):
        _, callgraph = graph_of(SHAPES[shape])
        assert_callees_in_earlier_components(callgraph)

    def test_diamond_order(self):
        _, callgraph = graph_of(DIAMOND)
        components = [names(c) for c in callgraph.sccs()]
        assert components[0] == ["b"]
        assert sorted(components[1:3]) == [["l"], ["r"]]
        assert components[3] == ["main"]

    def test_mutual_recursion_is_one_component(self):
        _, callgraph = graph_of(MUTUAL)
        assert [names(c) for c in callgraph.sccs()] == [["a", "b"], ["main"]]

    def test_nested_cycles_are_separate_components(self):
        _, callgraph = graph_of(NESTED)
        assert [names(c) for c in callgraph.sccs()] == [
            ["e"], ["c", "d"], ["a", "b"], ["main"]
        ]

    def test_bottom_up_order_flattens_components(self):
        _, callgraph = graph_of(NESTED)
        flat = [p for c in callgraph.sccs() for p in c]
        assert callgraph.bottom_up_order() == flat

    def test_deep_chain_needs_no_recursion(self):
        length = sys.getrecursionlimit() + 200
        _, callgraph = graph_of(chain(length))
        components = callgraph.sccs()
        assert len(components) == length + 1
        assert [names(c) for c in components[:2]] == [
            [f"p{length - 1}"], [f"p{length - 2}"]
        ]
        assert names(components[-1]) == ["main"]


class TestReversePostorder:
    def test_covers_all_and_starts_at_main(self):
        program, callgraph = graph_of(DIAMOND)
        order = callgraph.reverse_postorder()
        assert order[0].is_main
        assert sorted(p.name for p in order) == sorted(p.name for p in program)

    def test_callers_precede_callees_on_dag(self):
        _, callgraph = graph_of(DIAMOND)
        order = callgraph.reverse_postorder()
        rank = {p: i for i, p in enumerate(order)}
        for proc in order:
            for callee in callgraph.callees(proc):
                if callee is not proc:
                    assert rank[callee] > rank[proc]

    def test_includes_unreached_procedures(self):
        program, callgraph = graph_of(
            "      PROGRAM MAIN\n      X = 1\n      END\n"
            "      SUBROUTINE ORPHAN(K)\n      Y = K\n      END\n"
        )
        order = callgraph.reverse_postorder()
        assert sorted(p.name for p in order) == sorted(p.name for p in program)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cross_component_callers_first(self, shape):
        _, callgraph = graph_of(SHAPES[shape])
        assert_cross_component_callers_first(callgraph)

    def test_deep_chain_needs_no_recursion(self):
        length = sys.getrecursionlimit() + 200
        _, callgraph = graph_of(chain(length))
        order = [p.name for p in callgraph.reverse_postorder()]
        assert order == ["main"] + [f"p{i}" for i in range(length)]


@pytest.mark.parametrize("name", SUITE_PROGRAM_NAMES)
def test_suite_program_orders(name):
    program, callgraph = graph_of(program_source(name))
    assert sorted(p.name for c in callgraph.sccs() for p in c) == sorted(
        p.name for p in program
    )
    assert_callees_in_earlier_components(callgraph)
    assert callgraph.reverse_postorder()[0].is_main
    assert_cross_component_callers_first(callgraph)

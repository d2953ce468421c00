"""Correlation context: global/thread layering, flow ids."""

import threading

import pytest

from repro.obs import context
from repro.obs.context import RequestContext, flow_id


@pytest.fixture(autouse=True)
def _clean_context():
    context.clear()
    yield
    context.clear()


class TestRequestContext:
    def test_trace_id_defaults_to_request_id(self):
        ctx = RequestContext("r000001")
        assert ctx.trace_id == "r000001"

    def test_explicit_trace_id(self):
        ctx = RequestContext("r000001", "s-42")
        assert (ctx.request_id, ctx.trace_id) == ("r000001", "s-42")


class TestLayering:
    def test_empty_by_default(self):
        assert context.current() is None

    def test_set_context_covers_both_layers(self):
        ctx = RequestContext("r1")
        context.set_context(ctx)
        assert context.current() is ctx
        seen = []
        # a fresh thread has no TLS entry -> falls through to global
        thread = threading.Thread(target=lambda: seen.append(context.current()))
        thread.start()
        thread.join()
        assert seen == [ctx]

    def test_thread_context_shadows_global_locally_only(self):
        base = RequestContext("server")
        context.set_context(base)
        mine = RequestContext("r2")
        context.set_thread_context(mine)
        assert context.current() is mine
        seen = []
        thread = threading.Thread(target=lambda: seen.append(context.current()))
        thread.start()
        thread.join()
        assert seen == [base]  # sibling threads keep the global

    def test_clear_drops_both_layers(self):
        context.set_context(RequestContext("r1"))
        context.set_thread_context(RequestContext("r2"))
        context.clear()
        assert context.current() is None

    def test_concurrent_threads_are_isolated(self):
        context.set_context(RequestContext("server"))
        results = {}
        barrier = threading.Barrier(2)

        def worker(name):
            context.set_thread_context(RequestContext(name))
            barrier.wait()
            results[name] = context.current().request_id

        threads = [
            threading.Thread(target=worker, args=(f"r{i}",))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {"r0": "r0", "r1": "r1"}


class TestRequestScope:
    def test_scope_restores_previous(self):
        outer = RequestContext("outer")
        context.set_context(outer)
        with context.request("inner") as ctx:
            assert context.current() is ctx
            assert ctx.trace_id == "inner"
        assert context.current() is outer

    def test_thread_only_scope_leaves_global(self):
        outer = RequestContext("outer")
        context.set_context(outer)
        with context.request("inner", thread_only=True):
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(context.current())
            )
            thread.start()
            thread.join()
            assert seen == [outer]
        assert context.current() is outer

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with context.request("doomed"):
                raise RuntimeError("boom")
        assert context.current() is None


class TestFlowId:
    def test_stable_and_nonzero(self):
        assert flow_id("r000001") == flow_id("r000001")
        assert flow_id("r000001") != flow_id("r000002")
        assert flow_id("r000001") > 0
        # the zero-hash corner maps to 1, never 0 (Chrome drops id=0
        # flows silently)
        assert flow_id("") >= 1

    def test_fits_uint32(self):
        for request_id in ("r1", "server", "cli-analyze", "x" * 100):
            assert 1 <= flow_id(request_id) <= 0xFFFFFFFF

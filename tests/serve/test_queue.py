"""Tests for the serving request queue: admission control + draining."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    InferenceRequest,
    REJECT_BAD_SHAPE,
    REJECT_QUEUE_FULL,
    REJECT_UNKNOWN_TENANT,
    RequestQueue,
)


def req(tenant="nv", n_frames=1, words=8):
    return InferenceRequest(tenant=tenant,
                            frames=np.ones((n_frames, words)))


def registered_queue(max_depth=4):
    queue = RequestQueue(max_depth=max_depth)
    queue.register("nv", input_words=8)
    queue.register("cl", input_words=4)
    return queue


class TestAdmission:
    def test_admit_returns_none_and_stamps_submit_time(self):
        queue = registered_queue()
        request = req()
        assert queue.submit(request, now=123) is None
        assert request.submitted_at == 123
        assert queue.admitted == 1
        assert queue.depth == 1

    def test_unknown_tenant_rejected(self):
        queue = registered_queue()
        rejection = queue.submit(req(tenant="ghost"), now=5)
        assert rejection is not None
        assert rejection.reason == REJECT_UNKNOWN_TENANT
        assert rejection.at == 5
        assert queue.depth == 0

    def test_bad_shape_rejected(self):
        queue = registered_queue()
        rejection = queue.submit(req(words=16))   # nv expects 8
        assert rejection.reason == REJECT_BAD_SHAPE
        assert "16" in rejection.detail and "8" in rejection.detail

    def test_backpressure_at_max_depth(self):
        queue = registered_queue(max_depth=2)
        assert queue.submit(req()) is None
        assert queue.submit(req()) is None
        rejection = queue.submit(req())
        assert rejection.reason == REJECT_QUEUE_FULL
        assert queue.depth == 2
        assert queue.rejected_by_reason[REJECT_QUEUE_FULL] == 1

    def test_depth_bound_is_global_across_tenants(self):
        queue = registered_queue(max_depth=2)
        queue.submit(req(tenant="nv"))
        queue.submit(req(tenant="cl", words=4))
        rejection = queue.submit(req(tenant="nv"))
        assert rejection.reason == REJECT_QUEUE_FULL

    def test_peak_depth_tracked(self):
        queue = registered_queue()
        queue.submit(req())
        queue.submit(req())
        queue.pop("nv")
        queue.submit(req())
        assert queue.peak_depth == 2

    def test_on_admit_hook_fires_only_on_admission(self):
        queue = registered_queue(max_depth=1)
        seen = []
        queue.on_admit = seen.append
        queue.submit(req())
        queue.submit(req())          # rejected: full
        assert len(seen) == 1

    def test_register_validates(self):
        queue = registered_queue()
        with pytest.raises(ValueError, match="already registered"):
            queue.register("nv", input_words=8)
        with pytest.raises(ValueError):
            queue.register("new", input_words=0)
        with pytest.raises(ValueError):
            RequestQueue(max_depth=0)


class TestDraining:
    def test_pop_is_fifo_within_tenant(self):
        queue = registered_queue()
        first, second = req(), req()
        queue.submit(first)
        queue.submit(second)
        assert queue.pop("nv") is first
        assert queue.pop("nv") is second
        assert queue.pop("nv") is None

    def test_peek_does_not_remove(self):
        queue = registered_queue()
        request = req()
        queue.submit(request)
        assert queue.peek("nv") is request
        assert queue.depth == 1

    def test_drain_respects_frame_budget(self):
        queue = registered_queue(max_depth=16)
        for _ in range(4):
            queue.submit(req(n_frames=3))
        batch = queue.drain("nv", max_frames=7)
        assert len(batch) == 2        # 3 + 3 fit, a third would be 9
        assert queue.tenant_depth("nv") == 2

    def test_drain_always_takes_one_even_oversized(self):
        queue = registered_queue(max_depth=16)
        queue.submit(req(n_frames=10))
        queue.submit(req(n_frames=1))
        batch = queue.drain("nv", max_frames=4)
        assert len(batch) == 1
        assert batch[0].n_frames == 10

    def test_drain_without_limit_takes_all(self):
        queue = registered_queue(max_depth=16)
        for _ in range(5):
            queue.submit(req())
        assert len(queue.drain("nv")) == 5
        assert queue.depth == 0


class TestResetStats:
    def test_counters_restart_queued_requests_survive(self):
        queue = registered_queue(max_depth=4)
        for _ in range(3):
            queue.submit(req(), now=0)
        queue.pop("nv")
        assert queue.admitted == 3 and queue.peak_depth == 3

        queue.reset_stats()
        # Statistics restart at the *current* occupancy; the two
        # still-queued requests are untouched.
        assert queue.admitted == 0
        assert queue.rejected_by_reason == {}
        assert queue.peak_depth == queue.depth == 2
        assert queue.pop("nv") is not None

    def test_stats_accumulate_after_reset(self):
        queue = registered_queue(max_depth=2)
        queue.submit(req(), now=0)
        queue.submit(req(), now=0)
        queue.submit(req(), now=0)      # rejected: full
        queue.reset_stats()
        queue.pop("nv")
        queue.submit(req(), now=1)
        assert queue.admitted == 1
        assert queue.peak_depth == 2


#: One step of a random queue history: submit ``n`` frames for a
#: tenant, pop one request, or drain under a frame bound (None: all).
_STEPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(["nv", "cl"]),
              st.integers(1, 5)),
    st.tuples(st.just("pop"), st.sampled_from(["nv", "cl"]),
              st.none()),
    st.tuples(st.just("drain"), st.sampled_from(["nv", "cl"]),
              st.one_of(st.none(), st.integers(1, 8))),
)


class TestRunningTotals:
    @given(steps=st.lists(_STEPS, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_depth_and_backlog_match_a_recount(self, steps):
        """``depth`` and ``tenant_backlog`` are kept as running totals;
        after every step they equal a recount from the deques."""
        queue = registered_queue(max_depth=6)
        words = {"nv": 8, "cl": 4}
        for op, tenant, arg in steps:
            if op == "submit":
                queue.submit(req(tenant, n_frames=arg,
                                 words=words[tenant]), now=0)
            elif op == "pop":
                queue.pop(tenant)
            else:
                queue.drain(tenant, max_frames=arg)
            deques = queue._queues
            assert queue.depth == sum(len(q) for q in deques.values())
            for name, backlog in deques.items():
                assert queue.tenant_backlog(name) == (
                    len(backlog), sum(r.n_frames for r in backlog))

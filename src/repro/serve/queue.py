"""Bounded request queue with admission control.

Backpressure is explicit: the queue holds at most ``max_depth``
requests across all tenants, and an arriving request that would
overflow it is rejected *at submit time* with a reason — the serving
analogue of a full hardware queue asserting its ready signal low. A
rejected request costs the system nothing downstream; an admitted one
is guaranteed a slot until its tenant's batch loop drains it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .request import (
    InferenceRequest,
    REJECT_BAD_SHAPE,
    REJECT_QUEUE_FULL,
    REJECT_UNKNOWN_TENANT,
    Rejection,
)


class RequestQueue:
    """Admission control + per-tenant FIFO backlog."""

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._queues: Dict[str, Deque[InferenceRequest]] = {}
        self._expected_words: Dict[str, int] = {}
        # Running totals, kept by submit/pop/drain (the only paths that
        # change the deques): requests queued over all tenants, and
        # frames queued per tenant. The router reads both on every
        # arrival, so they must not cost a walk over the backlog.
        self._depth = 0
        self._queued_frames: Dict[str, int] = {}
        #: Called with the request after a successful admit (the server
        #: hooks this to wake the tenant's batch loop).
        self.on_admit: Optional[Callable[[InferenceRequest], None]] = None
        # Statistics.
        self.admitted = 0
        self.rejected_by_reason: Dict[str, int] = {}
        self.peak_depth = 0

    # -- tenant management --------------------------------------------------

    def register(self, tenant: str, input_words: int) -> None:
        if tenant in self._queues:
            raise ValueError(f"tenant {tenant!r} already registered")
        if input_words < 1:
            raise ValueError("input_words must be >= 1")
        self._queues[tenant] = deque()
        self._queued_frames[tenant] = 0
        self._expected_words[tenant] = input_words

    @property
    def tenants(self) -> List[str]:
        return sorted(self._queues)

    def reset_stats(self) -> None:
        """Zero the admission statistics (start of a serving run).

        Queued requests are untouched — only the counters restart, so
        ``peak_depth`` and the admission/rejection totals describe one
        run instead of accumulating across back-to-back traces.
        ``peak_depth`` restarts at the *current* depth: requests
        already queued are part of the new run's peak.
        """
        self.admitted = 0
        self.rejected_by_reason = {}
        self.peak_depth = self.depth

    # -- depth --------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently queued, across all tenants."""
        return self._depth

    def tenant_depth(self, tenant: str) -> int:
        return len(self._queues[tenant])

    def tenant_backlog(self, tenant: str) -> tuple:
        """``(requests, frames)`` queued for one tenant.

        Frames are what the hardware will actually run, so a router
        comparing backlogs sees two one-frame requests as lighter than
        one eight-frame request. O(1): the load-aware routers call it
        for every tenant of every instance on every arrival.
        """
        return len(self._queues[tenant]), self._queued_frames[tenant]

    # -- admission ----------------------------------------------------------

    def submit(self, request: InferenceRequest,
               now: int = 0) -> Optional[Rejection]:
        """Admit ``request`` or reject it with a reason.

        Returns ``None`` on admission; a :class:`Rejection` otherwise.
        Admission is checked in order: the tenant must be registered,
        the frame geometry must match the tenant's pipeline, and the
        global queue must have room (bounded depth — the backpressure
        contract).
        """
        queue = self._queues.get(request.tenant)
        if queue is None:
            return self._reject(request, REJECT_UNKNOWN_TENANT, now,
                                f"registered tenants: {self.tenants}")
        expected = self._expected_words[request.tenant]
        if request.frames.shape[1] != expected:
            return self._reject(
                request, REJECT_BAD_SHAPE, now,
                f"frames have {request.frames.shape[1]} words, pipeline "
                f"expects {expected}")
        if self._depth >= self.max_depth:
            return self._reject(
                request, REJECT_QUEUE_FULL, now,
                f"queue depth {self._depth} at max_depth "
                f"{self.max_depth}")
        request.submitted_at = now
        queue.append(request)
        self._depth += 1
        self._queued_frames[request.tenant] += request.n_frames
        self.admitted += 1
        self.peak_depth = max(self.peak_depth, self._depth)
        if self.on_admit is not None:
            self.on_admit(request)
        return None

    def _reject(self, request: InferenceRequest, reason: str, now: int,
                detail: str) -> Rejection:
        self.rejected_by_reason[reason] = \
            self.rejected_by_reason.get(reason, 0) + 1
        return Rejection(request_id=request.request_id,
                         tenant=request.tenant, reason=reason, at=now,
                         detail=detail)

    # -- draining (the batch loops' side) ------------------------------------

    def pop(self, tenant: str) -> Optional[InferenceRequest]:
        """Remove and return the tenant's oldest request, if any."""
        queue = self._queues[tenant]
        if not queue:
            return None
        request = queue.popleft()
        self._depth -= 1
        self._queued_frames[tenant] -= request.n_frames
        return request

    def peek(self, tenant: str) -> Optional[InferenceRequest]:
        queue = self._queues[tenant]
        return queue[0] if queue else None

    def drain(self, tenant: str,
              max_frames: Optional[int] = None) -> List[InferenceRequest]:
        """Pop consecutive requests while their frames fit ``max_frames``.

        Always takes at least one request (a single oversized request
        is the batcher's problem, not the queue's). FIFO within the
        tenant, so no request can be starved by later arrivals.
        """
        out: List[InferenceRequest] = []
        total = 0
        queue = self._queues[tenant]
        while queue:
            head = queue[0]
            if out and max_frames is not None \
                    and total + head.n_frames > max_frames:
                break
            out.append(queue.popleft())
            total += head.n_frames
        self._depth -= len(out)
        self._queued_frames[tenant] -= total
        return out

"""The serving driver loop: multi-tenant inference over one SoC.

This is the layer the paper's Sec. V experiments gesture at ("multiple
applications run concurrently on the same SoC, invoking different
accelerator pipelines") turned into an explicit subsystem: tenants
register dataflows, requests arrive over time, and the server
coalesces, arbitrates and dispatches them as concurrent execution
plans over disjoint tile sets.

Data path of one request::

    submit() -> RequestQueue (admission control, backpressure)
             -> per-tenant batch loop (Batcher: coalesce + pad)
             -> TileArbiter.acquire (all-or-nothing tile grant)
             -> DataflowExecutor.run_process (re-entrant plan)
             -> TileArbiter.release + Completion (latency breakdown)

Attribution: the arbiter guarantees a tenant owns its tiles
exclusively between grant and release, so the hardware-counter delta
over that window (``tile_activity``) is exactly that tenant's
activity — per-tenant utilization without sampling.

Fault integration: when a run degrades (or dies), every device the
registry marked failed is handed back to the arbiter as *unavailable*.
Tenants whose pipelines need a failed tile keep being served through
the runtime's software fallback when the recovery policy allows it,
and are rejected with ``tile-unavailable`` when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from ..eval.harness import LatencySummary, summarize_latencies
from ..runtime import Dataflow, DataflowExecutor, EspRuntime
from ..sim import Environment, Interrupt, Process, ProgressCounter
from ..soc import TileActivity, activity_delta, tile_activity
from ..trace.context import (TraceContext, TraceIdAllocator,
                             batch_trace_ids)
from .arbiter import TileArbiter, TileUnavailable
from .batcher import Batch, Batcher
from .queue import RequestQueue
from .request import (
    Completion,
    Failure,
    InferenceRequest,
    REJECT_TILE_UNAVAILABLE,
    Rejection,
    TracedRequest,
)


def _trace_args(requests) -> Dict[str, object]:
    """Span args attributing batch-level work to its member requests:
    the primary ``trace_id`` plus the full ``trace_ids`` membership
    when the batch coalesced more than one."""
    ids = batch_trace_ids(requests)
    if not ids:
        return {}
    if len(ids) == 1:
        return {"trace_id": ids[0]}
    return {"trace_id": ids[0], "trace_ids": ids}


@dataclass(frozen=True)
class TenantConfig:
    """One registered application: a dataflow plus serving knobs."""

    name: str
    dataflow: Dataflow
    mode: str = "p2p"
    priority: int = 0
    max_batch_frames: int = 32
    #: After the first request arrives, wait this long for more to
    #: coalesce before dispatching (0 = dispatch immediately).
    batch_window_cycles: int = 0
    #: DMA coherence for the tenant's runs: a single
    #: :class:`~repro.soc.CoherenceMode` (or string value), or a
    #: ``device -> mode`` mapping. ``None`` keeps the dataflow's own
    #: modes (non-coherent unless it declares any).
    coherence: Optional[object] = None
    dvfs: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class ServerConfig:
    """Global serving knobs."""

    max_queue_depth: int = 64
    policy: str = "fifo"             # tile-arbitration policy
    #: Bound on the posted-store quiesce of each request (see
    #: ``DataflowExecutor.quiesce_bound``); ``None`` waits fully.
    quiesce_bound: Optional[int] = None
    #: Probation delay for quarantined tiles (``None`` keeps the
    #: permanent quarantine). On re-admission the server resets the
    #: tile and clears its failed mark before the arbiter grants it.
    probation_cycles: Optional[int] = None


@dataclass
class _Tenant:
    """Server-internal per-tenant state."""

    config: TenantConfig
    batcher: Batcher
    tiles: FrozenSet[str]
    input_words: int
    est_cycles_per_frame: int
    activity: Dict[str, TileActivity] = field(default_factory=dict)
    batches_served: int = 0
    frames_served: int = 0
    #: True while a batch is between drain and release: a reshard
    #: arriving then is deferred to the next loop iteration.
    in_flight: bool = False
    #: Frames of the batch currently in flight (0 between batches) —
    #: the router's view of work already committed to the hardware.
    in_flight_frames: int = 0
    pending_reshard: Optional[TenantConfig] = None
    reshards: int = 0


@dataclass(frozen=True)
class ServerLoad:
    """One server's scheduler-visible load, at one instant.

    The introspection surface a fleet router balances on: what is
    queued (admitted but not yet drained into a batch), what is in
    flight (drained, tiles held, hardware busy), and a cycle-valued
    backlog estimate combining both through each tenant's
    ``est_cycles_per_frame`` pipeline estimate. Reading it never
    schedules events — it is a pure snapshot, usable mid-simulation.
    """

    queued_requests: int
    queued_frames: int
    in_flight_batches: int
    in_flight_frames: int
    #: Estimated cycles to drain everything queued plus in flight.
    est_backlog_cycles: int

    @property
    def outstanding_frames(self) -> int:
        """Queued + in-flight frames (the least-loaded score)."""
        return self.queued_frames + self.in_flight_frames


@dataclass
class ServerReport:
    """Everything one serving run measured."""

    clock_mhz: float
    makespan_cycles: int
    completions: List[Completion]
    rejections: List[Rejection]
    failures: List[Failure]
    latency_by_tenant: Dict[str, LatencySummary]
    queue_by_tenant: Dict[str, LatencySummary]
    activity_by_tenant: Dict[str, Dict[str, TileActivity]]
    batches_by_tenant: Dict[str, int]
    admitted: int
    peak_queue_depth: int
    arbiter_grants: int
    arbiter_wait_summary: Optional[LatencySummary]

    @property
    def completed_frames(self) -> int:
        return sum(c.n_frames for c in self.completions)

    @property
    def makespan_seconds(self) -> float:
        return self.makespan_cycles / (self.clock_mhz * 1e6)

    @property
    def throughput_fps(self) -> float:
        """Aggregate frames per second over the serving window."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.completed_frames / self.makespan_seconds

    def latency_summary(self) -> Optional[LatencySummary]:
        """Aggregate (all-tenant) request latency, in cycles."""
        if not self.completions:
            return None
        return summarize_latencies(
            [c.latency_cycles for c in self.completions])

    def render(self) -> str:
        us = 1.0 / self.clock_mhz   # cycles -> microseconds
        lines = [
            f"== serving report: {len(self.completions)} completed, "
            f"{len(self.rejections)} rejected, "
            f"{len(self.failures)} failed ==",
            f"makespan: {self.makespan_cycles:,} cycles "
            f"({self.makespan_seconds * 1e3:.2f} ms); aggregate "
            f"throughput: {self.throughput_fps:.1f} frames/s",
            f"{'tenant':<12}{'reqs':>6}{'batches':>8}{'p50 us':>10}"
            f"{'p95 us':>10}{'p99 us':>10}{'max us':>10}",
        ]
        for tenant, summary in sorted(self.latency_by_tenant.items()):
            s = summary.scaled(us)
            lines.append(
                f"{tenant:<12}{summary.count:>6}"
                f"{self.batches_by_tenant.get(tenant, 0):>8}"
                f"{s.p50:>10.1f}{s.p95:>10.1f}{s.p99:>10.1f}"
                f"{s.max:>10.1f}")
        for tenant, activity in sorted(self.activity_by_tenant.items()):
            busy = sum(a.busy_cycles for a in activity.values())
            frames = sum(a.frames for a in activity.values())
            lines.append(f"  {tenant}: {frames} device-frames, "
                         f"{busy:,} busy cycles across "
                         f"{len(activity)} tiles")
        lines.append(f"queue: {self.admitted} admitted, peak depth "
                     f"{self.peak_queue_depth}; arbiter: "
                     f"{self.arbiter_grants} grants"
                     + (f", wait {self.arbiter_wait_summary}"
                        if self.arbiter_wait_summary else ""))
        return "\n".join(lines)


class InferenceServer:
    """Multi-tenant serving over one booted SoC runtime."""

    def __init__(self, runtime: EspRuntime,
                 config: Optional[ServerConfig] = None) -> None:
        self.runtime = runtime
        self.executor: DataflowExecutor = runtime.executor
        self.soc = runtime.soc
        self.env: Environment = runtime.soc.env
        self.config = config or ServerConfig()
        self.executor.quiesce_bound = self.config.quiesce_bound
        self.queue = RequestQueue(self.config.max_queue_depth)
        self.queue.on_admit = self._on_admit
        self.arbiter = TileArbiter(
            self.env, sorted(self.soc.accelerators),
            policy=self.config.policy,
            probation_cycles=self.config.probation_cycles)
        self.arbiter.on_readmit = self.repair_tile
        self._tenants: Dict[str, _Tenant] = {}
        self._loops: List[Process] = []
        self._work: Dict[str, object] = {}
        self._terminal = ProgressCounter(self.env, name="serve:terminal")
        self._grant_waits: List[int] = []
        self._request_sids: Dict[str, int] = {}
        # Deterministic per-server trace-ID mint ("t-0", "t-1", ...);
        # a fleet router supplies its own context, so routed requests
        # never draw from this counter.
        self._trace_ids = TraceIdAllocator("t")
        self._started = False
        self.completions: List[Completion] = []
        self.rejections: List[Rejection] = []
        self.failures: List[Failure] = []

    # -- registration ---------------------------------------------------------

    def register(self, config: TenantConfig) -> None:
        """Register a tenant; validates its dataflow against the SoC."""
        if self._started:
            raise RuntimeError("register tenants before starting the "
                               "server")
        if config.name in self._tenants:
            raise ValueError(f"tenant {config.name!r} already registered")
        input_words, est = self._pipeline_estimates(config.dataflow)
        tenant = _Tenant(
            config=config,
            batcher=Batcher(config.dataflow,
                            max_batch_frames=config.max_batch_frames),
            tiles=frozenset(config.dataflow.devices),
            input_words=input_words,
            est_cycles_per_frame=est,
        )
        self._tenants[config.name] = tenant
        self.queue.register(config.name, input_words)

    def _pipeline_estimates(self, dataflow: Dataflow) -> tuple:
        """``(input_words, est_cycles_per_frame)`` for a dataflow;
        validates every device against the registry."""
        registry = self.executor.registry
        for device in dataflow.devices:
            registry.by_name(device)   # raises on unknown devices
        levels = dataflow.levels()
        first = registry.by_name(levels[0][0])
        est = 0
        for names in levels:
            spec = registry.by_name(names[0]).tile.spec
            est += max(1, spec.latency_cycles // len(names))
        return first.tile.spec.input_words, est

    @property
    def tenants(self) -> List[str]:
        return sorted(self._tenants)

    def tenant_tiles(self) -> Dict[str, FrozenSet[str]]:
        """Target tile set per tenant: where each tenant is *headed* —
        a pending (deferred) reshard counts, so a controller does not
        re-remediate a swap that is already scheduled. The tiles a
        dispatch actually holds are snapshotted in ``_dispatch``."""
        placed = {}
        for name, tenant in self._tenants.items():
            config = tenant.pending_reshard or tenant.config
            placed[name] = frozenset(config.dataflow.devices)
        return placed

    def batch_bound(self, name: str) -> int:
        """A tenant's current ``max_batch_frames`` (widening included)."""
        return self._tenants[name].batcher.max_batch_frames

    # -- load introspection (the fleet router's view) -------------------------

    def load(self) -> ServerLoad:
        """Snapshot this server's queued + in-flight load.

        Pure read — no events, no clock movement — so a router may
        call it between lockstep advances without perturbing the sim.
        """
        queued_requests = 0
        queued_frames = 0
        in_flight_batches = 0
        in_flight_frames = 0
        backlog = 0
        for name, tenant in self._tenants.items():
            requests, frames = self.queue.tenant_backlog(name)
            queued_requests += requests
            queued_frames += frames
            backlog += frames * tenant.est_cycles_per_frame
            if tenant.in_flight:
                in_flight_batches += 1
                in_flight_frames += tenant.in_flight_frames
                backlog += (tenant.in_flight_frames
                            * tenant.est_cycles_per_frame)
        return ServerLoad(
            queued_requests=queued_requests,
            queued_frames=queued_frames,
            in_flight_batches=in_flight_batches,
            in_flight_frames=in_flight_frames,
            est_backlog_cycles=backlog,
        )

    @property
    def terminal_count(self) -> int:
        """Requests that reached a terminal state (completed, failed,
        or rejected after admission) since boot."""
        return self._terminal.value

    def wait_terminal(self, threshold: int):
        """Event triggering once ``terminal_count`` reaches ``threshold``
        (the fleet coordinator's drain barrier)."""
        return self._terminal.wait_until(threshold)

    # -- remediation hooks (driven by the control plane) ----------------------

    def reshard_tenant(self, name: str,
                       mapping: Dict[str, str]) -> str:
        """Re-place a tenant's pipeline onto substitute tiles.

        ``mapping`` renames devices of the tenant's dataflow (old ->
        new); each substitute must implement the same kernel (equal
        spec) so the pipeline's geometry and semantics are unchanged —
        the paper's runtime reconfigurability, exercised to move a
        tenant off a saturated or quarantined tile. Validation happens
        here; the swap itself lands between batches (a batch in flight
        keeps its tiles until it releases them). Returns ``"applied"``
        or ``"deferred"``.
        """
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"no tenant named {name!r}")
        registry = self.executor.registry
        base = tenant.pending_reshard or tenant.config
        for old, new in mapping.items():
            old_spec = registry.by_name(old).spec_name
            new_spec = registry.by_name(new).spec_name
            if old_spec != new_spec:
                raise ValueError(
                    f"cannot reshard {old!r} ({old_spec}) onto "
                    f"{new!r} ({new_spec}): different kernels")
        dataflow = base.dataflow.substitute(mapping)
        if base.mode == "p2p":
            dataflow.validate_for_p2p()
        elif base.mode == "custom":
            dataflow.validate_for_custom()
        else:
            dataflow.validate()
        tenant.pending_reshard = replace(base, dataflow=dataflow)
        if tenant.in_flight:
            return "deferred"
        self._apply_reshard(tenant)
        return "applied"

    def _apply_reshard(self, tenant: _Tenant) -> None:
        config = tenant.pending_reshard
        if config is None:
            return
        tenant.pending_reshard = None
        input_words, est = self._pipeline_estimates(config.dataflow)
        # Keep a widened batch bound across the reshard.
        max_frames = max(tenant.batcher.max_batch_frames,
                         config.max_batch_frames)
        tenant.config = config
        tenant.batcher = Batcher(config.dataflow,
                                 max_batch_frames=max_frames)
        tenant.tiles = frozenset(config.dataflow.devices)
        tenant.input_words = input_words
        tenant.est_cycles_per_frame = est
        tenant.reshards += 1

    def widen_batch(self, name: str, factor: float = 2.0,
                    cap: int = 256) -> int:
        """Grow a tenant's batch bound (queue-saturation remediation);
        returns the new ``max_batch_frames``."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise KeyError(f"no tenant named {name!r}")
        return tenant.batcher.widen(factor, cap)

    def repair_tile(self, tile: str) -> None:
        """Reset a tile and clear its failure state (probation
        re-admission, or the control plane activating a spare)."""
        self.soc.accelerators[tile].host_reset()
        self.executor.registry.clear_failed(tile)
        self.executor.clear_forced(tile)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the per-tenant batch loops (idempotent)."""
        if self._started:
            return
        if not self._tenants:
            raise RuntimeError("no tenants registered")
        self._started = True
        for name in sorted(self._tenants):
            self._loops.append(self.env.process(
                self._tenant_loop(self._tenants[name]),
                name=f"serve:loop:{name}"))

    def stop(self) -> None:
        """Cancel the batch loops (they park between batches)."""
        for loop in self._loops:
            if loop.is_alive:
                loop.interrupt("server stopped")
        self._loops = []
        self._started = False

    # -- submission -------------------------------------------------------------

    def submit(self, tenant: str, frames: np.ndarray,
               priority: int = 0,
               trace_ctx: Optional[TraceContext] = None
               ) -> Optional[Rejection]:
        """Submit one request now; ``None`` on admission.

        A :class:`Rejection` (also recorded on the server) means the
        request never entered the system — backpressure the client
        observes immediately. ``trace_ctx`` propagates an upstream
        trace identity (the fleet router's); when absent the server
        mints one — either way the request carries exactly one
        ``trace_id`` for its whole life.
        """
        if trace_ctx is None:
            trace_ctx = self._trace_ids.mint()
        request = InferenceRequest(tenant=tenant, frames=frames,
                                   priority=priority,
                                   trace_ctx=trace_ctx)
        rejection = self.queue.submit(request, now=self.env.now)
        metrics = self.env.metrics
        if rejection is not None:
            self.rejections.append(rejection)
            if metrics is not None:
                metrics.serve_rejected.labels(tenant,
                                              rejection.reason).inc()
            return rejection
        if metrics is not None:
            metrics.serve_admitted.labels(tenant).inc()
            metrics.serve_queue_depth.set(self.queue.depth)
        tracer = self.env.tracer
        if tracer is not None:
            self._request_sids[request.request_id] = tracer.begin(
                "serve", f"tenant:{tenant}", request.request_id,
                "serve.request", tenant=tenant,
                frames=request.n_frames, priority=priority,
                trace_id=trace_ctx.trace_id)
            tracer.instant("serve", f"tenant:{tenant}", "admit",
                           "serve.submit", request=request.request_id,
                           trace_id=trace_ctx.trace_id)
            tracer.counter("serve", "queue_depth",
                           depth=self.queue.depth)
        return None

    def _end_request_span(self, request_id: str, outcome: str) -> None:
        """Close a request's trace span at its terminal state."""
        sid = self._request_sids.pop(request_id, None)
        if sid is not None and self.env.tracer is not None:
            self.env.tracer.end(sid, outcome=outcome)

    def _on_admit(self, request: InferenceRequest) -> None:
        event = self._work.get(request.tenant)
        if event is not None and not event.triggered:
            event.succeed()

    # -- the per-tenant batch loop ------------------------------------------------

    def _can_degrade(self) -> bool:
        policy = self.executor.recovery
        return policy is not None and policy.software_fallback

    def _tenant_loop(self, tenant: _Tenant):
        env = self.env
        name = tenant.config.name
        while True:
            while self.queue.tenant_depth(name) == 0:
                event = env.event()
                event.wait_reason = f"serve:{name} waiting for requests"
                self._work[name] = event
                yield event
            if tenant.config.batch_window_cycles:
                yield env.timeout(tenant.config.batch_window_cycles)
            self._apply_reshard(tenant)
            tenant.in_flight = True
            requests = self.queue.drain(
                name, tenant.batcher.max_batch_frames)
            if env.metrics is not None:
                env.metrics.serve_queue_depth.set(self.queue.depth)
                env.metrics.serve_batches.labels(name).inc()
            if env.tracer is not None:
                env.tracer.counter("serve", "queue_depth",
                                   depth=self.queue.depth)
                env.tracer.instant("serve", f"tenant:{name}", "batch",
                                   "serve.batch", requests=len(requests),
                                   **_trace_args(requests))
            batch = tenant.batcher.form(requests)
            tenant.in_flight_frames = batch.total_frames
            granted = yield from self._acquire_tiles(tenant, batch)
            if granted:
                yield from self._dispatch(tenant, batch)
            tenant.in_flight = False
            tenant.in_flight_frames = 0

    def _acquire_tiles(self, tenant: _Tenant, batch: Batch):
        """All-or-nothing grant of the tenant's tile set.

        Returns True when granted. When a needed tile is unavailable
        (failed), retries the claim in degraded mode if the recovery
        policy supports software fallback, else rejects the batch.
        """
        env = self.env
        priority = max([tenant.config.priority]
                       + [r.priority for r in batch.requests])
        est = tenant.est_cycles_per_frame * batch.total_frames
        queued = env.now
        tracer = env.tracer
        sid = None if tracer is None else tracer.begin(
            "serve", f"tenant:{tenant.config.name}", "grant-wait",
            "serve.grant_wait", tiles=len(tenant.tiles),
            **_trace_args(batch.requests))
        claim = self.arbiter.acquire(
            tenant.tiles, priority=priority, est_cycles=est,
            label=tenant.config.name)
        try:
            yield claim
        except TileUnavailable as exc:
            if not self._can_degrade():
                if sid is not None:
                    tracer.end(sid, granted=False)
                for request in batch.requests:
                    self.rejections.append(Rejection(
                        request_id=request.request_id,
                        tenant=request.tenant,
                        reason=REJECT_TILE_UNAVAILABLE, at=env.now,
                        detail=str(exc)))
                    if env.metrics is not None:
                        env.metrics.serve_rejected.labels(
                            request.tenant,
                            REJECT_TILE_UNAVAILABLE).inc()
                    self._end_request_span(request.request_id,
                                           "rejected")
                    self._terminal.increment()
                return False
            claim = self.arbiter.acquire(
                tenant.tiles, priority=priority, est_cycles=est,
                allow_unavailable=True, label=tenant.config.name)
            yield claim
        if sid is not None:
            tracer.end(sid, granted=True)
        self._grant_waits.append(env.now - queued)
        return True

    def _dispatch(self, tenant: _Tenant, batch: Batch):
        """Run one coalesced batch; always releases the tile set."""
        env = self.env
        config = tenant.config
        started = env.now
        # Snapshot the tile set: a reshard landing mid-dispatch swaps
        # ``tenant.tiles``, but *these* tiles are the ones held.
        tiles = tenant.tiles
        names = sorted(tiles)
        before = tile_activity(self.soc, names)
        tracer = env.tracer
        sid = None
        bound_keys: List[object] = []
        if tracer is not None:
            sid = tracer.begin(
                "serve", f"tenant:{config.name}", "dispatch",
                "serve.dispatch", mode=config.mode,
                frames=batch.total_frames, requests=batch.n_requests,
                **_trace_args(batch.requests))
            # Bind the exclusively-granted tile set to this batch's
            # trace IDs: every span the hardware records against these
            # devices (wrapper phases, DMA bursts, driver threads, NoC
            # packets to/from the tiles' coordinates) is annotated
            # with the batch's trace_id until the tiles release.
            ids = batch_trace_ids(batch.requests)
            if ids:
                for device in names:
                    bound_keys.append(device)
                    bound_keys.append(("cpu", f"driver:{device}"))
                    socket = self.soc.accelerators.get(device)
                    if socket is not None:
                        bound_keys.append(str(socket.coord))
                for key in bound_keys:
                    tracer.bind(key, ids)
        error: Optional[BaseException] = None
        result = None
        try:
            result = yield from self.executor.run_process(
                config.dataflow, batch.frames, config.mode,
                coherence=config.coherence, dvfs=config.dvfs)
        except Interrupt:
            if sid is not None:
                for key in bound_keys:
                    tracer.unbind(key)
                tracer.end(sid, outcome="interrupted")
            self.arbiter.release(tiles)
            raise
        except Exception as exc:
            error = exc
        # Attribute the exclusive-ownership window's hardware activity.
        delta = activity_delta(before, tile_activity(self.soc, names))
        for device, activity in delta.items():
            held = tenant.activity.get(device)
            tenant.activity[device] = \
                activity if held is None else held + activity
        self.arbiter.release(tiles)
        self._quarantine_failed(tiles)
        if sid is not None:
            for key in bound_keys:
                tracer.unbind(key)
            tracer.end(sid, outcome="failed" if error else "completed")
        if error is not None:
            for request in batch.requests:
                self.failures.append(Failure(
                    request_id=request.request_id,
                    tenant=request.tenant,
                    submitted_at=request.submitted_at,
                    failed_at=env.now, error=error))
                if env.metrics is not None:
                    env.metrics.serve_failed.labels(
                        request.tenant).inc()
                self._end_request_span(request.request_id, "failed")
                self._terminal.increment()
            return
        tenant.batches_served += 1
        tenant.frames_served += batch.real_frames
        for request, outputs in batch.split_outputs(result.outputs):
            completion = Completion(
                request_id=request.request_id,
                tenant=request.tenant,
                submitted_at=request.submitted_at,
                started_at=started,
                completed_at=env.now,
                n_frames=request.n_frames,
                batch_frames=batch.total_frames,
                batch_requests=batch.n_requests,
                degraded=result.degraded,
                outputs=np.array(outputs, copy=True))
            self.completions.append(completion)
            if env.metrics is not None:
                metrics = env.metrics
                exemplar = (None if request.trace_ctx is None
                            else request.trace_ctx.trace_id)
                metrics.serve_completed.labels(request.tenant).inc()
                metrics.serve_frames.labels(request.tenant).inc(
                    request.n_frames)
                metrics.serve_request_cycles.labels(
                    request.tenant).observe(completion.latency_cycles,
                                            exemplar=exemplar)
                metrics.serve_queue_wait_cycles.labels(
                    request.tenant).observe(completion.queue_cycles,
                                            exemplar=exemplar)
            self._end_request_span(request.request_id, "completed")
            self._terminal.increment()

    def _quarantine_failed(self, tiles: FrozenSet[str]) -> None:
        registry = self.executor.registry
        for device in tiles:
            if registry.is_failed(device) \
                    and device not in self.arbiter.unavailable_tiles:
                self.arbiter.mark_unavailable(device)

    # -- trace driving --------------------------------------------------------------

    def run_trace(self, trace: Sequence[TracedRequest]) -> ServerReport:
        """Drive a timestamped request trace to completion.

        Submits each entry at ``start + entry.at`` cycles, waits until
        every admitted request reached a terminal state (completed,
        failed, or rejected post-admission), then stops the loops and
        returns the report. Owns the event loop while running, like
        ``DataflowExecutor.execute``.
        """
        env = self.env
        self.start()
        # Per-run statistics: peak depth and admission counters in the
        # report describe *this* trace, not every trace since boot.
        self.queue.reset_stats()
        origin = env.now

        def driver():
            for entry in sorted(trace, key=lambda t: t.at):
                target = origin + entry.at
                if target > env.now:
                    yield env.timeout(target - env.now)
                self.submit(entry.tenant, entry.frames,
                            priority=entry.priority)
            return None

        submitted_before = self.queue.admitted
        terminal_before = self._terminal.value
        done = env.process(driver(), name="serve:trace-driver")
        env.run(until=done)
        admitted = self.queue.admitted - submitted_before
        env.run(until=self._terminal.wait_until(
            terminal_before + admitted))
        self.stop()
        return self.report(makespan_cycles=env.now - origin)

    # -- reporting --------------------------------------------------------------------

    def report(self, makespan_cycles: Optional[int] = None
               ) -> ServerReport:
        by_tenant: Dict[str, List[int]] = {}
        queue_by_tenant: Dict[str, List[int]] = {}
        for completion in self.completions:
            by_tenant.setdefault(completion.tenant, []).append(
                completion.latency_cycles)
            queue_by_tenant.setdefault(completion.tenant, []).append(
                completion.queue_cycles)
        if makespan_cycles is None:
            if self.completions:
                first = min(c.submitted_at for c in self.completions)
                last = max(c.completed_at for c in self.completions)
                makespan_cycles = last - first
            else:
                makespan_cycles = 0
        return ServerReport(
            clock_mhz=self.soc.clock_mhz,
            makespan_cycles=makespan_cycles,
            completions=list(self.completions),
            rejections=list(self.rejections),
            failures=list(self.failures),
            latency_by_tenant={t: summarize_latencies(v)
                               for t, v in sorted(by_tenant.items())},
            queue_by_tenant={t: summarize_latencies(v)
                             for t, v in sorted(queue_by_tenant.items())},
            activity_by_tenant={t: dict(self._tenants[t].activity)
                                for t in self._tenants},
            batches_by_tenant={t: self._tenants[t].batches_served
                               for t in self._tenants},
            admitted=self.queue.admitted,
            peak_queue_depth=self.queue.peak_depth,
            arbiter_grants=self.arbiter.grants,
            arbiter_wait_summary=(summarize_latencies(self._grant_waits)
                                  if self._grant_waits else None),
        )

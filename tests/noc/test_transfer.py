"""Callback-driven packet transfers against the process they replaced.

``Mesh2D.send`` used to spawn one kernel ``Process`` per packet,
running the generator ``_transmit``. ``ReferenceMesh`` below keeps that
generator, copied verbatim, and the tests drive it and the
callback-driven :class:`~repro.noc.mesh.PacketTransfer` through the
same seeded, contended, multi-plane traffic. Everything observable must
match: the kernel's dispatch order (each event described by what it is
and whose callback it wakes), per-packet timestamps, per-link and mesh
counters, tracer records and metrics, the event count, the failures
waiters see, and what the deadlock report names at the end. The tracer
store (closed spans, open spans, ring evictions, the end index) must
match at sample points throughout the run too, under ring-bounded
tracers and trace-context bindings that change mid-run.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import List

import pytest

from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.metrics import attach_metrics
from repro.metrics.collect import _mesh_counts
from repro.noc import DMA_REQUEST_PLANE, DMA_RESPONSE_PLANE, IO_PLANE, \
    Mesh2D, MessageKind, Packet, PacketTransfer
from repro.sim import Environment, Event, Process, Timeout
from repro.trace import Tracer


class ReferenceMesh(Mesh2D):
    """The mesh with one generator process per packet (the old path)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: transmit process -> its packet, for describing dispatches.
        self.sent = {}

    def send(self, packet: Packet) -> Process:
        self._check(packet.src, packet.plane)
        self._check(packet.dst, packet.plane)
        process = self.env.process(self._transmit(packet))
        self.sent[process] = packet
        return process

    def route_links(self, src, dst, plane):
        path = self._paths.get((src, dst, plane)) \
            or self._resolve(src, dst, plane)
        return path[0]

    def _transmit(self, packet: Packet):
        packet.injected_at = self.env.now
        tracer = self.env.tracer
        sid = None
        if tracer is not None:
            sid = tracer.begin(
                "noc", packet.plane, packet.kind.name, "noc.packet",
                src=str(packet.src), dst=str(packet.dst),
                flits=packet.size_flits)
        if packet.src == packet.dst:
            # Local ejection: no links, one router traversal.
            yield Timeout(self.env, self.router_latency)
        else:
            env = self.env
            router_latency = self.router_latency
            route = self.route_links(packet.src, packet.dst, packet.plane)
            held_sids: List[int] = []
            for link in route:
                yield link.channel.acquire()
                if tracer is not None:
                    held_sids.append(tracer.begin(
                        "noc", link.track, packet.kind.name, "noc.link",
                        flits=packet.size_flits))
                yield Timeout(env, router_latency)
            # Head reached the destination; the body drains behind it.
            # The hold is a single multi-cycle timeout per link set — the
            # whole serialized body in one event, never one event per
            # flit (see docs/performance.md).
            yield Timeout(env, packet.size_flits)
            size_flits = packet.size_flits
            for index, link in enumerate(route):
                link.record(size_flits)
                link.channel.release()
                if tracer is not None:
                    tracer.end(held_sids[index])
            self.flit_hops_by_plane[packet.plane] += size_flits * len(route)
            if self.env.metrics is not None:
                self.env.metrics.noc_flits.labels(packet.plane).inc(
                    size_flits * len(route))
        if self.fault_injector is not None:
            # Delivery faults strike after the wormhole released every
            # link, so a lost packet never leaves a stuck channel: the
            # loss is visible only as a missing ejection (and a
            # watchdog timeout at whoever was waiting for it).
            action = self.fault_injector.on_deliver(packet, self.env.now)
            if action == "drop":
                self.dropped_by_plane[packet.plane] += 1
                if self.env.metrics is not None:
                    self.env.metrics.noc_dropped.labels(
                        packet.plane).inc()
                if sid is not None:
                    tracer.end(sid, outcome="dropped")
                if packet.on_lost is not None:
                    packet.on_lost()
                return packet
            if action == "corrupt":
                # Link-level CRC catches the mangled payload at
                # ejection and discards it — corruption is detected,
                # never silently delivered.
                self.corrupted_by_plane[packet.plane] += 1
                if self.env.metrics is not None:
                    self.env.metrics.noc_corrupted.labels(
                        packet.plane).inc()
                if sid is not None:
                    tracer.end(sid, outcome="corrupted")
                if packet.on_lost is not None:
                    packet.on_lost()
                return packet
        packet.delivered_at = self.env.now
        self.delivered_by_plane[packet.plane] += 1
        if self.env.metrics is not None:
            self.env.metrics.noc_packets.labels(packet.plane).inc()
        self.total_latency += packet.latency
        self.delivered_by_kind[packet.kind] = (
            self.delivered_by_kind.get(packet.kind, 0) + 1)
        if sid is not None:
            tracer.end(sid, outcome="delivered")
        yield self._inboxes[(packet.dst, packet.plane)].put(packet)
        return packet


class LoggingEnvironment(Environment):
    """Records each event, described by implementation-neutral names,
    just before the kernel dispatches it."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[tuple] = []
        self.packet_of = lambda obj: None

    def owner(self, obj):
        packet = self.packet_of(obj)
        if packet is not None:
            return ("transfer", packet.tag)
        return getattr(obj, "name", None) or type(obj).__name__

    def describe(self, event: Event) -> tuple:
        woken = tuple(self.owner(getattr(cb, "__self__", cb))
                      for cb in event.callbacks)
        return (self.owner(event), getattr(event, "delay", None),
                event._ok, _plain(event._value), woken)

    def step(self) -> None:
        ready = self._ready
        if not ready:
            when = heappop(self._times)
            self._now = when
            ready.extend(self._buckets.pop(when))
        self.log.append((self._now, self.describe(ready[0])))
        super().step()


def _plain(value):
    if isinstance(value, Packet):
        return value.tag
    if isinstance(value, BaseException):
        return type(value).__name__
    if value is None or isinstance(value, (int, str)):
        return value
    return type(value).__name__


def drain(env: LoggingEnvironment) -> None:
    """Dispatch everything; a failure nobody awaited is logged."""
    while env.peek() != float("inf"):
        try:
            env.step()
        except RuntimeError as exc:
            env.log.append((env.now, ("raised", str(exc))))


class RaisingInjector(FaultInjector):
    """Drops and corrupts at random; raises on packets tagged ``!``."""

    def on_deliver(self, packet, now):
        if packet.tag.endswith("!"):
            raise RuntimeError(f"ejection fault on {packet.tag}")
        return super().on_deliver(packet, now)


PLANES = (DMA_REQUEST_PLANE, DMA_RESPONSE_PLANE, IO_PLANE)
KINDS = (MessageKind.DMA_REQ, MessageKind.DMA_RSP, MessageKind.IRQ,
         MessageKind.P2P_RSP)
COORDS = [(x, y) for y in range(3) for x in range(3)]
#: (injector, send index) of the packets whose ejection stage raises:
#: the first is awaited, the second is not.
RAISING = ((0, 5), (1, 7))


def make_traffic(seed: int, injectors: int = 6, sends: int = 40):
    rng = random.Random(seed)
    traffic = []
    for i in range(injectors):
        plan = []
        for k in range(sends):
            src = rng.choice(COORDS)
            dst = src if rng.random() < 0.15 else rng.choice(COORDS)
            awaited = rng.random() < 0.5
            if (i, k) in RAISING:
                awaited = (i, k) == RAISING[0]
            plan.append(dict(
                gap=rng.randrange(0, 6), src=src, dst=dst,
                plane=rng.choice(PLANES), kind=rng.choice(KINDS),
                flits=rng.randrange(0, 9), awaited=awaited,
                hook=rng.random() < 0.5,
                tag=f"{i}.{k}" + ("!" if (i, k) in RAISING else "")))
        traffic.append(plan)
    # Bounded inboxes, each drained by a consumer with these pauses.
    bounded = {(coord, plane): [rng.randrange(0, 12) for _ in range(8)]
               for coord, plane in rng.sample(
                   [(c, p) for c in COORDS for p in PLANES], 6)}
    return traffic, bounded


#: Trace-context bindings changed mid-run: (cycle, key, trace ids),
#: an empty tuple unbinding the key. Keys: a tile coordinate (matched
#: against packet src/dst), a link's (pid, tid) track and the "noc"
#: pid (matching every packet and link span).
TRACK = ("noc", "io-irq (1, 0)->(1, 1)")
BINDINGS = ((15, "(1, 1)", ("t-a",)), (30, TRACK, ("t-b", "t-c")),
            (50, "noc", ("t-d",)), (65, "(1, 1)", ()), (80, "noc", ()),
            (95, "(2, 1)", ("t-e",)), (110, TRACK, ()))
#: Cycles between two samples of the tracer store, and their number.
SAMPLE_EVERY, SAMPLES = 9, 40


def store_records(tracer) -> tuple:
    """What a reader of the tracer store sees right now."""
    return ([records(s) for s in tracer.spans],
            [records(s) for s in tracer.open_spans],
            tracer.dropped_spans, list(tracer._ends))


def records(span) -> tuple:
    return (span.sid, span.pid, span.tid, span.name, span.cat,
            span.start, span.end, span.args)


def observe(mesh_cls, seed: int, tracing: str, capacity=None,
            sampled: bool = False) -> dict:
    """Run the seeded traffic on ``mesh_cls``; return what is visible.

    ``capacity`` bounds the tracer's rings; ``sampled`` also changes
    the BINDINGS mid-run and samples the tracer store periodically.
    """
    env = LoggingEnvironment()
    mesh = mesh_cls(env, 3, 3, trace_links=True)
    if mesh_cls is ReferenceMesh:
        env.packet_of = lambda obj: (mesh.sent.get(obj)
                                     if isinstance(obj, Process) else None)
    else:
        env.packet_of = lambda obj: (obj.packet if isinstance(
            obj, PacketTransfer) else None)
    mesh.fault_injector = RaisingInjector(FaultPlan([
        FaultSpec("link_drop", probability=0.06, count=None),
        FaultSpec("link_corrupt", probability=0.06, count=None),
    ], seed=seed))
    traffic, bounded = make_traffic(seed)
    log: List[tuple] = []
    packets: List[Packet] = []
    observers = {}

    def attach():
        observers["tracer"] = env.tracer = Tracer(env, capacity=capacity)
        registry = observers["metrics"] = attach_metrics(env)
        if mesh_cls is not ReferenceMesh:
            # The mesh counts its packets itself; its collector writes
            # the NoC families at scrape time. The reference records
            # them per event, as the mesh used to.
            scrape = _mesh_counts(registry, mesh)
            registry.register_collector(lambda _: scrape())

    if tracing == "on":
        attach()

    def attach_later():
        yield env.timeout(37)
        attach()

    def injector(plan):
        for entry in plan:
            yield env.timeout(entry["gap"])
            tag = entry["tag"]
            packet = Packet(src=entry["src"], dst=entry["dst"],
                            plane=entry["plane"], kind=entry["kind"],
                            payload_flits=entry["flits"], tag=tag)
            if entry["hook"]:
                packet.on_lost = lambda tag=tag: log.append(
                    (env.now, tag, "lost"))
            packets.append(packet)
            transfer = mesh.send(packet)
            if entry["awaited"]:
                try:
                    value = yield transfer
                    log.append((env.now, tag, "done", value.tag))
                except RuntimeError as exc:
                    log.append((env.now, tag, "failed", str(exc)))

    def consumer(inbox, pauses):
        for pause in pauses * 100:
            packet = yield inbox.get()
            log.append((env.now, inbox.name, packet.tag))
            yield env.timeout(pause)

    def saboteur():
        # Reset the first contended link: its oldest waiter's acquire
        # fails, which kills that packet's transfer mid-route.
        yield env.timeout(90)
        for link in mesh.links.values():
            waiters = link.channel.waiters()
            if waiters:
                link.channel.cancel(waiters[0])
                waiters[0].fail(RuntimeError(f"reset of {link.track}"))
                return

    samples: List[tuple] = []

    def binder():
        for at, key, ids in BINDINGS:
            yield env.timeout(at - env.now)
            if env.tracer is not None:
                if ids:
                    env.tracer.bind(key, ids)
                else:
                    env.tracer.unbind(key)

    def sampler():
        for _ in range(SAMPLES):
            yield env.timeout(SAMPLE_EVERY)
            if env.tracer is not None:
                samples.append((env.now, store_records(env.tracer)))

    if tracing == "mid":
        env.process(attach_later(), name="attach")
    if sampled:
        env.process(binder(), name="binder")
        env.process(sampler(), name="sampler")
    for (coord, plane), pauses in bounded.items():
        inbox = mesh.inbox(coord, plane)
        inbox.capacity = 1
        env.process(consumer(inbox, pauses), name=f"drain {inbox.name}")
    for index, plan in enumerate(traffic):
        env.process(injector(plan), name=f"injector{index}")
    env.process(saboteur(), name="saboteur")
    drain(env)

    tracer = observers.get("tracer")
    metrics = observers.get("metrics")
    return {
        "dispatch": env.log,
        "events": env.events_processed,
        "now": env.now,
        "log": log,
        "packets": [(p.tag, p.injected_at, p.delivered_at)
                    for p in packets],
        "links": [(key, link.flits_carried, link.packets_carried,
                   link.channel.busy_cycles,
                   link.channel.total_acquisitions, link.channel.history)
                  for key, link in mesh.links.items()],
        "mesh": (mesh.packets_delivered, mesh.flit_hops,
                 mesh.total_latency, list(mesh.delivered_by_kind.items()),
                 mesh.packets_dropped, mesh.packets_corrupted,
                 mesh.delivered_by_plane, mesh.flit_hops_by_plane,
                 mesh.dropped_by_plane, mesh.corrupted_by_plane),
        "inboxes": [(fifo.name, [p.tag for p in fifo.items])
                    for fifo in mesh._inboxes.values()],
        "blocked": [(env.owner(proc), getattr(target, "wait_reason", None))
                    for proc, target in env.blocked_processes()],
        "store": tracer and store_records(tracer),
        "samples": samples,
        "metrics": metrics and metrics.snapshot(),
    }


@pytest.mark.parametrize("tracing", ["off", "on", "mid"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_matches_reference_process(seed, tracing):
    expected = observe(ReferenceMesh, seed, tracing)
    got = observe(Mesh2D, seed, tracing)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key

    # The traffic exercises every stage and every way out of one.
    delivered, _, _, _, dropped, corrupted = expected["mesh"][:6]
    assert delivered > 100 and dropped > 0 and corrupted > 0
    traffic, _ = make_traffic(seed)
    local = {entry["tag"] for plan in traffic for entry in plan
             if entry["src"] == entry["dst"]}
    assert any(tag in local and delivered_at is not None
               for tag, _, delivered_at in expected["packets"])
    outcomes = {entry[2] for entry in expected["log"] if len(entry) == 4}
    assert outcomes == {"done", "failed"}
    assert any(entry[2] == "lost" for entry in expected["log"])
    assert any(entry[1][0] == "raised" for entry in expected["dispatch"])
    reasons = [reason for _, reason in expected["blocked"]]
    assert any(reason.startswith("get on empty fifo") for reason in reasons)
    if tracing != "off":
        cats = {span[4] for span in expected["store"][0]}
        assert {"noc.packet", "noc.link", "sim.process"} <= cats


@pytest.mark.parametrize("tracing", ["on", "mid"])
@pytest.mark.parametrize("capacity", [1, 7, 64, None])
@pytest.mark.parametrize("seed", [0, 1])
def test_tracer_store_matches_reference_throughout(seed, capacity, tracing):
    expected = observe(ReferenceMesh, seed, tracing, capacity, sampled=True)
    got = observe(Mesh2D, seed, tracing, capacity, sampled=True)
    # The first sample that differs names the cycle it was taken at.
    for (at, want), (when, have) in zip(expected["samples"],
                                        got["samples"]):
        assert (when, have) == (at, want), at
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key

    # The samples saw spans open mid-flight and, on a ring, evictions
    # under way; the run annotated a record through every binding
    # (the ring runs replay the same traffic and bindings).
    samples = expected["samples"]
    assert len(samples) > 20
    assert any(open_spans for _, (_, open_spans, _, _) in samples)
    dropped = [dropped for _, (_, _, dropped, _) in samples]
    if capacity is not None:
        assert len(set(dropped)) > 2
        return
    assert dropped[-1] == 0
    ids = {(span[4], span[7].get("trace_ids", span[7].get("trace_id")))
           for span in expected["store"][0]}
    assert {("noc.link", "t-d"), ("noc.packet", "t-d"),
            ("noc.packet", "t-e")} <= ids
    if tracing == "on":
        assert {("noc.packet", "t-a"), ("noc.link", ("t-b", "t-c"))} <= ids


def test_mid_flight_tracer_sees_only_later_injections():
    got = observe(Mesh2D, 0, "mid")
    packet_spans = [span for span in got["store"][0]
                    if span[4] == "noc.packet"]
    process_spans = [span for span in got["store"][0]
                     if span[3] == "_transmit"]
    assert min(span[5] for span in packet_spans) >= 37
    # A transfer injected before the tracer and finished after it
    # still records its lifetime, as a process would have.
    assert min(span[5] for span in process_spans) < 37


def test_send_returns_a_transfer_not_a_process():
    env = Environment()
    mesh = Mesh2D(env, 2, 1)
    transfer = mesh.send(Packet(src=(0, 0), dst=(1, 0),
                                plane=DMA_REQUEST_PLANE,
                                kind=MessageKind.DMA_REQ, payload_flits=3))
    assert isinstance(transfer, PacketTransfer)
    assert not isinstance(transfer, Process)
    assert transfer.name == "_transmit" and transfer.is_alive
    env.run()
    assert not transfer.is_alive and transfer.value.delivered_at == 2 + 4


def test_pinned_pipe_run_spawns_no_process_per_packet(monkeypatch):
    """The pinned 32-frame ``pipe`` run keeps its cycles and events
    while no kernel process is created for any NoC packet."""
    names = []
    init = Process.__init__

    def counting_init(self, env, generator, name=None):
        init(self, env, generator, name)
        names.append(self.name)

    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(32, seed=0)
    runtime = fresh_runtime(config)
    monkeypatch.setattr(Process, "__init__", counting_init)
    runtime.esp_run(config.build_dataflow(), frames, mode="pipe")
    env = runtime.soc.env
    assert (env.now, env.events_processed) == (90139, 10274)
    assert runtime.soc.mesh.packets_delivered > len(names)
    assert "_transmit" not in names

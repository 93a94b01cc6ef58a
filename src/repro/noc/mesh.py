"""The multi-plane 2D-mesh NoC.

An M x N grid of tiles connected by bi-directional links on several
independent planes (paper Sec. II): three coherence planes, two DMA
planes (requests and responses decoupled to prevent deadlock — the
queues the p2p service later reuses), and one IO/IRQ plane.

The timing model is wormhole switching at packet granularity: the head
flit acquires each link of the XY route in order (head-of-line blocking
and contention emerge from the link resources), each router adds a
fixed pipeline latency, and the body serializes for ``size_flits``
cycles. End-to-end latency of an uncontended packet is the textbook
``hops * router_latency + size_flits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim import Environment, Fifo, Process, Timeout
from .link import Link
from .packet import Coord, MessageKind, Packet
from .routing import route_hops_cached, validate_coord


@dataclass(frozen=True)
class NocPlane:
    """One NoC plane: a full set of mesh links of a given width."""

    name: str
    flit_bits: int = 64

    def __post_init__(self) -> None:
        if self.flit_bits < 8:
            raise ValueError(f"flit_bits must be >= 8, got {self.flit_bits}")


#: ESP's six-plane configuration (Fig. 2): planes 1-3 carry the cache
#: coherence protocol, planes 4-5 are the accelerators' DMA response /
#: request planes, plane 6 carries IO and interrupts.
DEFAULT_PLANES = (
    NocPlane("coh-req"),
    NocPlane("coh-fwd"),
    NocPlane("coh-rsp"),
    NocPlane("dma-rsp"),
    NocPlane("dma-req"),
    NocPlane("io-irq", flit_bits=32),
)

#: The two planes allotted to accelerator DMA (paper Sec. II).
DMA_REQUEST_PLANE = "dma-req"
DMA_RESPONSE_PLANE = "dma-rsp"
IO_PLANE = "io-irq"

#: The three cache-coherence planes (Fig. 2 planes 1-3). Idle under
#: non-coherent and LLC-coherent DMA; the fully-coherent accelerator
#: model (:mod:`repro.soc.coherence`) carries its MESI-style protocol
#: on them: requests, forwarded invalidations, and responses (grants,
#: acks and writebacks) on decoupled planes to prevent deadlock.
COH_REQUEST_PLANE = "coh-req"
COH_FORWARD_PLANE = "coh-fwd"
COH_RESPONSE_PLANE = "coh-rsp"


class Mesh2D:
    """The NoC instance: links, ejection queues and transmission."""

    def __init__(self, env: Environment, cols: int, rows: int,
                 planes: Iterable[NocPlane] = DEFAULT_PLANES,
                 router_latency: int = 2,
                 trace_links: bool = False) -> None:
        if cols < 1 or rows < 1:
            raise ValueError(f"mesh must be at least 1x1, got {cols}x{rows}")
        if router_latency < 1:
            raise ValueError(
                f"router_latency must be >= 1, got {router_latency}")
        self.env = env
        self.cols = cols
        self.rows = rows
        planes = tuple(planes)
        self.planes: Dict[str, NocPlane] = {p.name: p for p in planes}
        if len(self.planes) < len(planes):
            raise ValueError("duplicate plane names")
        self.router_latency = router_latency

        self.links: Dict[Tuple[Coord, Coord, str], Link] = {}
        for x in range(cols):
            for y in range(rows):
                for nx, ny in ((x + 1, y), (x, y + 1)):
                    if nx >= cols or ny >= rows:
                        continue
                    for plane in self.planes.values():
                        for src, dst in (((x, y), (nx, ny)),
                                         ((nx, ny), (x, y))):
                            self.links[(src, dst, plane.name)] = Link(
                                env, src, dst, plane.name,
                                plane.flit_bits,
                                record_history=trace_links)

        self._inboxes: Dict[Tuple[Coord, str], Fifo] = {}
        for x in range(cols):
            for y in range(rows):
                for plane in self.planes:
                    self._inboxes[((x, y), plane)] = Fifo(
                        env, name=f"inbox{(x, y)}@{plane}")

        # Hop table: (src, dst, plane) -> the Link objects of the XY
        # route, resolved once (lazily, on first traffic) instead of a
        # route computation plus per-hop dict lookups on every packet.
        # Sound because XY routes and the link set are both immutable
        # for the lifetime of the mesh (see repro.noc.routing).
        self._route_links: Dict[Tuple[Coord, Coord, str],
                                Tuple[Link, ...]] = {}

        # Endpoint validation cache: (coord, plane) pairs already
        # checked. The mesh is immutable, so a pair that validated once
        # validates forever — send() then costs two set probes instead
        # of re-running the bounds/plane checks per packet.
        self._checked: set = set()

        # Aggregate statistics.
        self.packets_delivered = 0
        self.flit_hops = 0
        self.total_latency = 0
        self.delivered_by_kind: Dict[MessageKind, int] = {}

        # Fault hook: a FaultInjector consulted at packet ejection
        # (None by default — the hook then costs nothing and timing is
        # identical to a fault-free build).
        self.fault_injector = None
        self.packets_dropped = 0
        self.packets_corrupted = 0

    # -- topology helpers --------------------------------------------------

    def coords(self) -> List[Coord]:
        return [(x, y) for y in range(self.rows) for x in range(self.cols)]

    def inbox(self, coord: Coord, plane: str) -> Fifo:
        """The ejection queue of ``coord`` on ``plane``."""
        self._check(coord, plane)
        return self._inboxes[(coord, plane)]

    def flit_bits(self, plane: str) -> int:
        return self.planes[plane].flit_bits

    def _check(self, coord: Coord, plane: str) -> None:
        if (coord, plane) in self._checked:
            return
        validate_coord(coord, self.cols, self.rows)
        if plane not in self.planes:
            raise ValueError(
                f"unknown plane {plane!r}; options: {sorted(self.planes)}")
        self._checked.add((coord, plane))

    def route_links(self, src: Coord, dst: Coord,
                    plane: str) -> Tuple[Link, ...]:
        """The links of the XY route from ``src`` to ``dst`` on ``plane``.

        Memoized per mesh; the tuple is shared, callers must not
        mutate link state except through the link API.
        """
        key = (src, dst, plane)
        links = self._route_links.get(key)
        if links is None:
            links = tuple(self.links[(a, b, plane)]
                          for a, b in route_hops_cached(src, dst))
            self._route_links[key] = links
        return links

    # -- transmission -------------------------------------------------------

    def send(self, packet: Packet) -> Process:
        """Inject ``packet``; the process completes at delivery."""
        self._check(packet.src, packet.plane)
        self._check(packet.dst, packet.plane)
        return self.env.process(self._transmit(packet))

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
            self.flit_hops += size_flits * len(route)
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
                self.packets_dropped += 1
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
                self.packets_corrupted += 1
                if self.env.metrics is not None:
                    self.env.metrics.noc_corrupted.labels(
                        packet.plane).inc()
                if sid is not None:
                    tracer.end(sid, outcome="corrupted")
                if packet.on_lost is not None:
                    packet.on_lost()
                return packet
        packet.delivered_at = self.env.now
        self.packets_delivered += 1
        if self.env.metrics is not None:
            self.env.metrics.noc_packets.labels(packet.plane).inc()
        self.total_latency += packet.latency
        self.delivered_by_kind[packet.kind] = (
            self.delivered_by_kind.get(packet.kind, 0) + 1)
        if sid is not None:
            tracer.end(sid, outcome="delivered")
        yield self._inboxes[(packet.dst, packet.plane)].put(packet)
        return packet

    # -- vectorized transport (wide-mesh sweeps) ----------------------------

    def bulk_uncontended_latencies(self, srcs: Sequence[Coord],
                                   dsts: Sequence[Coord],
                                   size_flits: int,
                                   plane: str = DMA_REQUEST_PLANE
                                   ) -> "np.ndarray":
        """Vectorized end-to-end latencies of uncontended packets.

        For each (src, dst) pair, the cycle count an isolated packet of
        ``size_flits`` flits takes on an otherwise idle mesh: one
        router traversal for local ejection, else the wormhole formula
        ``hops * router_latency + size_flits`` (XY hop count =
        Manhattan distance). This is the closed form of
        :meth:`_transmit` with every ``acquire`` immediate — validated
        against the event-driven path in
        ``tests/noc/test_vectorized.py`` — and exists for wide-mesh
        design-space sweeps where simulating millions of uncontended
        probe packets one event at a time would dominate the sweep.
        Contended traffic must still go through :meth:`send`; queueing
        has no closed form.
        """
        if size_flits < 1:
            raise ValueError(f"size_flits must be >= 1, got {size_flits}")
        if plane not in self.planes:
            raise ValueError(
                f"unknown plane {plane!r}; options: {sorted(self.planes)}")
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
            raise ValueError("srcs/dsts must be matching (n, 2) coordinate "
                             f"arrays, got {src.shape} and {dst.shape}")
        for arr, label in ((src, "src"), (dst, "dst")):
            if ((arr[:, 0] < 0).any() or (arr[:, 0] >= self.cols).any()
                    or (arr[:, 1] < 0).any()
                    or (arr[:, 1] >= self.rows).any()):
                raise ValueError(f"{label} coordinate out of the "
                                 f"{self.cols}x{self.rows} mesh")
        hops = (np.abs(src[:, 0] - dst[:, 0])
                + np.abs(src[:, 1] - dst[:, 1]))
        latency = hops * self.router_latency + size_flits
        # Local ejection: no links, one router traversal, no body drain.
        return np.where(hops == 0, self.router_latency, latency)

    # -- statistics ----------------------------------------------------------

    @property
    def average_latency(self) -> float:
        if self.packets_delivered == 0:
            return 0.0
        return self.total_latency / self.packets_delivered

    def busiest_links(self, top: int = 5) -> List[Link]:
        ranked = sorted(self.links.values(),
                        key=lambda l: l.flits_carried, reverse=True)
        return ranked[:top]

    def plane_flits(self) -> Dict[str, int]:
        """Flit-hops per plane (shows DMA planes carrying p2p traffic)."""
        out = {name: 0 for name in self.planes}
        for link in self.links.values():
            out[link.plane] += link.flits_carried
        return out

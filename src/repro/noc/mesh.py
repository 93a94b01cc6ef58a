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

from ..sim import Environment, Event, Fifo, Timeout
from ..sim.kernel import PENDING
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

#: A resolved path: route links, ejection queue, (src, dst) labels.
_Path = Tuple[Tuple[Link, ...], Fifo, Tuple[str, str]]


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

        # Path table: (src, dst, plane) -> (the Link objects of the XY
        # route, the destination's ejection queue, the endpoints' trace
        # labels), resolved and validated on the first packet of the
        # triple. Sound because XY routes, the link set and the inboxes
        # are all immutable for the lifetime of the mesh (see
        # repro.noc.routing), so send() costs one dict probe per packet.
        self._paths: Dict[Tuple[Coord, Coord, str], _Path] = {}

        # Aggregate statistics. Packet outcomes and flit-hops are kept
        # per plane; the mesh-wide totals are their sums.
        self.delivered_by_plane = dict.fromkeys(self.planes, 0)
        self.flit_hops_by_plane = dict.fromkeys(self.planes, 0)
        self.dropped_by_plane = dict.fromkeys(self.planes, 0)
        self.corrupted_by_plane = dict.fromkeys(self.planes, 0)
        self.total_latency = 0
        self.delivered_by_kind: Dict[MessageKind, int] = {}
        #: Links in the order they first carried a packet, appended at
        #: that packet's ejection (what scrape-time collectors read).
        self.live_links: List[Link] = []

        # Fault hook: a FaultInjector consulted at packet ejection
        # (None by default — the hook then costs nothing and timing is
        # identical to a fault-free build).
        self.fault_injector = None

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
        validate_coord(coord, self.cols, self.rows)
        if plane not in self.planes:
            raise ValueError(
                f"unknown plane {plane!r}; options: {sorted(self.planes)}")

    # -- transmission -------------------------------------------------------

    def send(self, packet: Packet) -> "PacketTransfer":
        """Inject ``packet``; the returned event triggers at delivery.

        Its value is the packet. The first packet between a ``(src,
        dst, plane)`` triple validates both endpoints and resolves the
        route and the ejection queue; later ones reuse that path.
        """
        path = self._paths.get((packet.src, packet.dst, packet.plane))
        if path is None:
            path = self._resolve(packet.src, packet.dst, packet.plane)
        return PacketTransfer(self, packet, path)

    def _resolve(self, src: Coord, dst: Coord, plane: str) -> _Path:
        self._check(src, plane)
        self._check(dst, plane)
        route = tuple(self.links[(a, b, plane)]
                      for a, b in route_hops_cached(src, dst))
        path = (route, self._inboxes[(dst, plane)], (str(src), str(dst)))
        self._paths[(src, dst, plane)] = path
        return path

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
        Manhattan distance). This is the closed form of a
        :class:`PacketTransfer` whose every link acquire is granted
        at once — validated
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
    def packets_delivered(self) -> int:
        return sum(self.delivered_by_plane.values())

    @property
    def flit_hops(self) -> int:
        return sum(self.flit_hops_by_plane.values())

    @property
    def packets_dropped(self) -> int:
        return sum(self.dropped_by_plane.values())

    @property
    def packets_corrupted(self) -> int:
        return sum(self.corrupted_by_plane.values())

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
        return dict(self.flit_hops_by_plane)


# Stages of a PacketTransfer, named by the event each one waits on.
_START = 0    # the bootstrap event, dispatched at the injection cycle
_GRANT = 1    # the acquire of route link ``_hop``
_ROUTER = 2   # the router timeout after link ``_hop``
_DRAIN = 3    # the body drain (or the local router traversal)
_EJECT = 4    # the put into the destination's ejection queue


class PacketTransfer(Event):
    """One packet's wormhole transfer; also the event of its delivery.

    The transfer is driven by kernel callbacks instead of a generator
    process: it is itself the callback of each event it waits on and
    advances one stage per dispatch — bootstrap; per hop, link
    acquire then router timeout; body drain; ejection put; completion.
    It schedules the same events in the same order as a process body
    doing the same work would, so cycle counts, event counts and
    dispatch order are those of the per-packet ``_transmit`` process
    it replaces (``tests/noc/test_transfer.py`` pins this against that
    process).

    For deadlock diagnosis it registers with the environment like a
    process: ``name``, ``is_alive`` and ``target`` let
    :meth:`Environment.blocked_processes` and :class:`DeadlockError`
    name a packet stuck on a busy link or a full inbox. Its lifetime
    is recorded as a ``sim.process`` span named ``_transmit``; its
    packet and link spans go through the tracer's
    :class:`~repro.trace.PacketSpans`.
    """

    __slots__ = ("mesh", "packet", "_route", "_inbox", "_labels",
                 "_stage", "_hop", "_target", "_created_at", "_spans")

    #: The name deadlock reports and ``sim.process`` spans use.
    name = "_transmit"

    def __init__(self, mesh: Mesh2D, packet: Packet, path: _Path) -> None:
        env = mesh.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.mesh = mesh
        self.packet = packet
        self._route, self._inbox, self._labels = path
        self._stage = _START
        self._target: Optional[Event] = None
        self._created_at = env.now
        env._register_process(self)
        # Bootstrap: the first stage runs at the current cycle.
        start = Event(env)
        start._value = None
        start.callbacks.append(self)
        env._ready.append(start)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the transfer is waiting on (if any)."""
        return self._target

    def __call__(self, event: Event) -> None:
        """Run the stage ``event`` ends; the kernel's callback."""
        try:
            if not event._ok:
                event.__sim_defused__ = True  # type: ignore[attr-defined]
                raise event._value
            stage = self._stage
            if stage == _GRANT:
                # The head holds link ``_hop``: cross its router.
                if self._spans is not None:
                    self._spans.hold(self._route[self._hop].track)
                self._wait(Timeout(self.env, self.mesh.router_latency),
                           _ROUTER)
            elif stage == _ROUTER:
                hop = self._hop + 1
                if hop < len(self._route):
                    self._hop = hop
                    self._wait(self._route[hop].channel.acquire(), _GRANT)
                else:
                    # Head reached the destination; the body drains
                    # behind it in one multi-cycle timeout, never one
                    # event per flit (see docs/performance.md).
                    self._wait(Timeout(self.env, self.packet.size_flits),
                               _DRAIN)
            elif stage == _START:
                self._inject()
            elif stage == _DRAIN:
                self._eject()
            else:
                self._complete()
        except Exception as exc:
            # The transfer dies as a process would: waiters observe the
            # failure through this event, and unless one of them takes
            # it, it is raised again from the dispatch loop.
            tracer = self.env.tracer
            if tracer is not None:
                tracer.add_span(
                    "sim", "processes", self.name, "sim.process",
                    self._created_at, self.env.now,
                    {"outcome": "failed", "error": type(exc).__name__})
            self.fail(exc)

    def _wait(self, event: Event, stage: int) -> None:
        self._stage = stage
        self._target = event
        event.callbacks.append(self)

    def _inject(self) -> None:
        env = self.env
        packet = self.packet
        packet.injected_at = env.now
        # Read once: a tracer attached mid-flight sees only the packets
        # injected after it.
        tracer = env.tracer
        self._spans = None if tracer is None else tracer.open_packet(
            packet.plane, packet.kind.name, *self._labels,
            packet.size_flits)
        if self._route:
            self._hop = 0
            self._wait(self._route[0].channel.acquire(), _GRANT)
        else:
            # Local ejection: no links, one router traversal.
            self._wait(Timeout(env, self.mesh.router_latency), _DRAIN)

    def _eject(self) -> None:
        env = self.env
        mesh = self.mesh
        packet = self.packet
        spans = self._spans
        route = self._route
        if route:
            size_flits = packet.size_flits
            for link in route:
                if not link.packets_carried:
                    # First traffic: scrape-time collectors bind the
                    # link's series from this queue.
                    mesh.live_links.append(link)
                link.record(size_flits)
                link.channel.release()
            mesh.flit_hops_by_plane[packet.plane] += size_flits * len(route)
        if mesh.fault_injector is not None:
            # Delivery faults strike after the wormhole released every
            # link, so a lost packet never leaves a stuck channel: the
            # loss is visible only as a missing ejection (and a
            # watchdog timeout at whoever was waiting for it).
            try:
                action = mesh.fault_injector.on_deliver(packet, env.now)
            except Exception:
                if spans is not None:
                    spans.close(None)   # links released, no outcome
                raise
            if action == "drop":
                mesh.dropped_by_plane[packet.plane] += 1
                self._lose("dropped")
                return
            if action == "corrupt":
                # Link-level CRC catches the mangled payload at
                # ejection and discards it — corruption is detected,
                # never silently delivered.
                mesh.corrupted_by_plane[packet.plane] += 1
                self._lose("corrupted")
                return
        packet.delivered_at = env.now
        mesh.delivered_by_plane[packet.plane] += 1
        mesh.total_latency += packet.latency
        mesh.delivered_by_kind[packet.kind] = (
            mesh.delivered_by_kind.get(packet.kind, 0) + 1)
        if spans is not None:
            spans.close("delivered")
        self._wait(self._inbox.put(packet), _EJECT)

    def _lose(self, outcome: str) -> None:
        if self._spans is not None:
            self._spans.close(outcome)
        if self.packet.on_lost is not None:
            self.packet.on_lost()
        self._complete()

    def _complete(self) -> None:
        env = self.env
        if env.tracer is not None:
            env.tracer.add_span("sim", "processes", self.name,
                                "sim.process", self._created_at, env.now,
                                {"outcome": "done"})
        self.succeed(self.packet)

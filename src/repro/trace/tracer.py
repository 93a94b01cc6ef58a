"""The cycle-level event tracer: spans, instants and counters.

ESP instruments its SoCs with hardware performance monitors and the
companion papers read them out to explain *where cycles go* (per-
accelerator busy time, NoC-plane traffic, ioctl overhead). This module
is the simulated equivalent turned into one coherent subsystem: a
single :class:`Tracer` attached to the simulation
:class:`~repro.sim.Environment` that every layer of the stack reports
into — kernel process lifetimes, NoC packet and link traversals, DMA
transactions, accelerator LOAD/COMPUTE/STORE phases, runtime executor
phases (ioctl, register programming, IRQ wait) and serve-layer
queue/batch/grant events.

Design rules:

- **Zero timing impact.** Recording never yields, never schedules an
  event and never advances the clock, so a traced run is cycle-for-
  cycle identical to an untraced one; tracing changes what you *see*,
  not what happens.
- **Near-zero overhead when disabled.** Instrumentation sites guard
  with ``env.tracer is None`` — one attribute load and a pointer
  compare, mirroring the fault-injection hooks of the faults
  subsystem.
- **One store, many views.** The Chrome-trace exporter, the flame
  summary, the VCD/Gantt renderers and the critical-path analyzer all
  read the same span lists recorded here.

Tracks: every record carries a ``(pid, tid)`` pair — process and
thread labels in Chrome-trace terms. By convention ``pid`` names the
tile (or subsystem: ``cpu``, ``noc``, ``serve``, ``sim``) and ``tid``
names the engine inside it (``wrapper``, ``dma.load``, a plane name,
a driver thread).

Two fleet-era additions ride on the same store:

- **Flight-recorder mode** (``capacity=``): the record lists become
  bounded rings so an always-on tracer cannot grow without bound on a
  long serving run. Eviction semantics — at least the last
  ``capacity`` records of each kind (spans / instants / counters) are
  always retained, and each list never holds more than ``2*capacity``;
  compaction is a single amortized ``del lst[:k]`` once per
  ``capacity`` appends, so the per-record cost stays O(1) and the
  zero-timing-impact contract holds. Evictions are counted in
  ``dropped_spans`` / ``dropped_instants`` / ``dropped_counters``.
  Open spans are never evicted — they live in ``_open`` until closed.
- **Trace-context bindings** (``bind``/``unbind``): the distributed-
  tracing propagation point. The serve layer binds the tile set it
  was exclusively granted to the dispatched batch's trace IDs; while
  the binding is live, every span/instant recorded against a bound
  key — a device ``pid``, a ``(pid, tid)`` driver track, or a NoC
  packet whose ``src``/``dst`` arg names a bound tile coordinate — is
  annotated with ``trace_id`` (and ``trace_ids`` when the batch
  coalesced several requests). The arbiter's all-or-nothing exclusive
  grant is what makes keying by device unambiguous.

NoC packets, the bulk of a traced run's records, have their own entry
point: :meth:`Tracer.open_packet` returns a :class:`PacketSpans` that
takes a sid and start per link grant and stores every held link span
and the packet span in one pass at ejection. The records are exactly
those the ``begin``/``end`` ladder would store; both paths share one
span constructor, one annotation rule and one store/compaction step.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One named interval on one track (begin/end pair, in cycles)."""

    sid: int
    pid: str
    tid: str
    name: str
    cat: str
    start: int
    end: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None


_new = object.__new__


def _span(sid: int, pid: str, tid: str, name: str, cat: str, start: int,
          end: Optional[int], args: Dict[str, Any]) -> Span:
    """A :class:`Span` built without the dataclass ``__init__``: every
    span the tracer stores is made here, once per record."""
    span = _new(Span)
    span.sid = sid
    span.pid = pid
    span.tid = tid
    span.name = name
    span.cat = cat
    span.start = start
    span.end = end
    span.args = args
    return span


@dataclass(frozen=True)
class Instant:
    """A point event (an IRQ edge, a queue admit, a grant)."""

    pid: str
    tid: str
    name: str
    cat: str
    ts: int
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named counter series (queue depth, occupancy)."""

    pid: str
    name: str
    ts: int
    values: Dict[str, float] = field(default_factory=dict)


class Tracer:
    """The global span/instant/counter store of one simulation.

    Attach with :func:`attach_tracer`; instrumentation sites across the
    stack then report into it. All timestamps are simulation cycles;
    exporters convert to wall time with the SoC clock.

    ``namespace`` labels this tracer's records when several tracers
    from a fleet are merged into one trace (mirrors
    ``MetricsRegistry(namespace=)``). ``capacity`` turns the store
    into a flight recorder — see the module docstring for the exact
    eviction semantics.
    """

    def __init__(self, env, namespace: Optional[str] = None,
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.namespace = namespace
        self.capacity = capacity
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.counters: List[CounterSample] = []
        self.dropped_spans = 0
        self.dropped_instants = 0
        self.dropped_counters = 0
        self._open: Dict[int, Span] = {}
        # NoC packets in flight (their spans are stored at ejection),
        # keyed by packet span id.
        self._in_flight: Dict[int, PacketSpans] = {}
        self._sids = itertools.count()
        # Parallel list of span *end* cycles, for bisect windowing.
        # Spans are appended when they close, so this is monotone
        # unless a complete() back-dates an end — tracked by the flag.
        self._ends: List[int] = []
        self._ends_sorted = True
        # Trace-context bindings: key -> tuple of trace ids. Keys are
        # device pids, (pid, tid) tracks, or tile-coordinate strings
        # matched against NoC packet src/dst args.
        self._bindings: Dict[Any, Tuple[str, ...]] = {}
        # pid -> how many bound keys name it (as the key or as the pid
        # of a (pid, tid) key): a record whose pid is not here can only
        # match through its src/dst args.
        self._bound_pids: Dict[Any, int] = {}

    # -- trace-context propagation ----------------------------------------

    def bind(self, key: Any, trace_ids: Tuple[str, ...]) -> None:
        """Attribute records on ``key`` to ``trace_ids`` until unbound.

        ``key`` is matched against a record's ``pid``, its
        ``(pid, tid)`` pair, and — for NoC packet spans — its
        ``src``/``dst`` args. Binding an empty ID tuple is a no-op.
        """
        if trace_ids:
            if key not in self._bindings:
                pid = key[0] if isinstance(key, tuple) else key
                self._bound_pids[pid] = self._bound_pids.get(pid, 0) + 1
            self._bindings[key] = tuple(trace_ids)

    def unbind(self, key: Any) -> None:
        """Remove a binding (missing keys are ignored)."""
        if self._bindings.pop(key, None) is not None:
            pid = key[0] if isinstance(key, tuple) else key
            left = self._bound_pids.pop(pid) - 1
            if left:
                self._bound_pids[pid] = left

    def _annotate(self, pid: str, tid: str,
                  args: Dict[str, Any]) -> None:
        # Hot path: called only when at least one binding is live, and
        # explicit trace_id args (set by the serve layer) win.
        if "trace_id" in args:
            return
        bindings = self._bindings
        ids = None
        if pid in self._bound_pids:
            ids = bindings.get((pid, tid))
            if ids is None:
                ids = bindings.get(pid)
        if ids is None:
            src = args.get("src")
            if src is not None:
                ids = bindings.get(src)
            if ids is None:
                dst = args.get("dst")
                if dst is not None:
                    ids = bindings.get(dst)
        if ids is not None:
            args["trace_id"] = ids[0]
            if len(ids) > 1:
                args["trace_ids"] = ids

    # -- recording ---------------------------------------------------------

    def begin(self, pid: str, tid: str, name: str, cat: str,
              **args: Any) -> int:
        """Open a span at the current cycle; returns its id."""
        if self._bindings:
            self._annotate(pid, tid, args)
        sid = next(self._sids)
        self._open[sid] = _span(sid, pid, tid, name, cat, self.env.now,
                                None, args)
        return sid

    def end(self, sid: int, **args: Any) -> Span:
        """Close the span at the current cycle (extra args merge in)."""
        span = self._open.pop(sid, None)
        if span is None:
            raise KeyError(f"no open span with id {sid}")
        span.end = self.env.now
        if args:
            span.args.update(args)
        self._store((span,), span.end)
        return span

    def complete(self, pid: str, tid: str, name: str, cat: str,
                 start: int, end: int, **args: Any) -> Span:
        """Record an already-finished interval in one call."""
        return self.add_span(pid, tid, name, cat, start, end, args)

    def add_span(self, pid: str, tid: str, name: str, cat: str,
                 start: int, end: int, args: Dict[str, Any]) -> Span:
        """:meth:`complete` with ``args`` passed as a dict the tracer
        takes over, for hot sites that would only pack keywords."""
        if end < start:
            raise ValueError(f"span ends at {end} before start {start}")
        if self._bindings:
            self._annotate(pid, tid, args)
        span = _span(next(self._sids), pid, tid, name, cat, start, end,
                     args)
        self._store((span,), end)
        return span

    def open_packet(self, plane: str, kind: str, src: str, dst: str,
                    flits: int) -> "PacketSpans":
        """Open a NoC packet's ``noc.packet`` span at the current cycle.

        The returned :class:`PacketSpans` records the packet's link
        holds and closes them with the packet (see its docstring).
        """
        args = {"src": src, "dst": dst, "flits": flits}
        if self._bindings:
            self._annotate("noc", plane, args)
        sid = next(self._sids)
        packet = self._in_flight[sid] = PacketSpans(
            self, _span(sid, "noc", plane, kind, "noc.packet",
                        self.env.now, None, args))
        return packet

    def _store(self, spans: Sequence[Span], end: int) -> None:
        """Store closed spans that all end at cycle ``end``: the spans,
        the end index, its order flag and the ring compaction."""
        ends = self._ends
        if self._ends_sorted and ends and end < ends[-1]:
            # A back-dated end breaks the record-order monotonicity;
            # spans_between falls back to the linear scan.
            self._ends_sorted = False
        self.spans.extend(spans)
        ends.extend([end] * len(spans))
        if self.capacity is not None and \
                len(self.spans) > 2 * self.capacity:
            self._compact_spans()

    def instant(self, pid: str, tid: str, name: str, cat: str,
                **args: Any) -> None:
        if self._bindings:
            self._annotate(pid, tid, args)
        self.instants.append(Instant(pid=pid, tid=tid, name=name,
                                     cat=cat, ts=self.env.now, args=args))
        if self.capacity is not None and \
                len(self.instants) > 2 * self.capacity:
            drop = len(self.instants) - self.capacity
            del self.instants[:drop]
            self.dropped_instants += drop

    def counter(self, pid: str, name: str, **values: float) -> None:
        self.counters.append(CounterSample(pid=pid, name=name,
                                           ts=self.env.now,
                                           values=values))
        if self.capacity is not None and \
                len(self.counters) > 2 * self.capacity:
            drop = len(self.counters) - self.capacity
            del self.counters[:drop]
            self.dropped_counters += drop

    def _compact_spans(self) -> None:
        """Evict the oldest spans (callers check that the store has
        grown past twice ``capacity``, so the check costs no call).

        Evicts what appending the spans one at a time would have: each
        append that overflows drops ``capacity + 1`` spans (down to
        ``capacity``), so a batch that overflows the ring k times
        drops k times that.
        """
        capacity = self.capacity
        overflows = -(-(len(self.spans) - 2 * capacity) // (capacity + 1))
        drop = overflows * (capacity + 1)
        del self.spans[:drop]
        del self._ends[:drop]
        self.dropped_spans += drop
        if not self._ends_sorted:
            # Cheap re-check: eviction may have dropped the
            # out-of-order prefix, restoring the fast path.
            self._ends_sorted = all(
                a <= b for a, b in zip(self._ends, self._ends[1:]))

    @property
    def dropped(self) -> int:
        """Total records evicted by flight-recorder compaction."""
        return (self.dropped_spans + self.dropped_instants
                + self.dropped_counters)

    # -- queries -----------------------------------------------------------

    @property
    def open_spans(self) -> List[Span]:
        """Every span still open, in sid (opening) order."""
        spans = list(self._open.values())
        if self._in_flight:
            for packet in self._in_flight.values():
                spans.append(packet.span)
                spans.extend(packet.holds)
            spans.sort(key=attrgetter("sid"))
        return spans

    def all_spans(self, cat: Optional[str] = None,
                  closed_only: bool = True) -> List[Span]:
        """Spans in start order, optionally filtered by category prefix.

        A ``cat`` of ``"dma"`` matches ``dma.load``, ``dma.store``, ...
        (exact segment-prefix match, so ``"acc"`` does not match
        ``"accel"``).
        """
        spans: Iterable[Span] = self.spans
        if not closed_only:
            spans = list(spans) + self.open_spans
        if cat is not None:
            spans = [s for s in spans
                     if s.cat == cat or s.cat.startswith(cat + ".")]
        return sorted(spans, key=lambda s: (s.start, s.sid))

    def spans_between(self, t0: int, t1: int) -> List[Span]:
        """Closed spans overlapping the window ``[t0, t1)``.

        Spans append when they *close*, and every recording path
        closes at (or before) the current cycle, so ``self.spans`` is
        monotone in end cycle and the window's left edge is found with
        ``bisect`` instead of scanning the whole history — the
        difference between O(window) and O(run) for the flight
        recorder's repeated recent-window dumps. A ``complete()``
        call that back-dates an end clears the sorted flag and this
        degrades (correctly) to the linear scan.
        """
        if self._ends_sorted:
            lo = bisect_right(self._ends, t0)
            return [s for s in self.spans[lo:] if s.start < t1]
        return [s for s in self.spans
                if s.end is not None and s.end > t0 and s.start < t1]

    def find_span(self, cat: str, name: Optional[str] = None,
                  index: int = 0) -> Span:
        """The index-th closed span of a category (and optional name)."""
        matches = [s for s in self.all_spans(cat=cat)
                   if name is None or s.name == name]
        if not matches:
            raise KeyError(f"no span with cat={cat!r}"
                           + (f" name={name!r}" if name else ""))
        return matches[index]

    def clear(self) -> None:
        """Drop every record (the store, not the attachment)."""
        self.spans.clear()
        self.instants.clear()
        self.counters.clear()
        self._open.clear()
        self._in_flight.clear()
        self._ends.clear()
        self._ends_sorted = True

    def __repr__(self) -> str:
        ns = f" ns={self.namespace!r}" if self.namespace else ""
        ring = (f" ring={self.capacity}" if self.capacity is not None
                else "")
        return (f"<Tracer{ns}{ring} {len(self.spans)} spans "
                f"({len(self.open_spans)} open), {len(self.instants)} "
                f"instants, {len(self.counters)} counter samples>")


class PacketSpans:
    """The open spans of one NoC packet in flight.

    A packet records one ``noc.packet`` span (``pid`` ``"noc"``, ``tid``
    the plane) from injection to ejection and one ``noc.link`` span
    (``tid`` the link's track) per route link, from the grant that
    hands the link to the head flit until ejection releases it. The
    tracer opens the packet span (:meth:`Tracer.open_packet`); the
    transfer calls :meth:`hold` at each grant, which opens a link span
    with its sid, start and trace-context annotation (so sids
    interleave with other records exactly as ``begin`` calls would),
    and :meth:`close` once at ejection, which ends and stores every
    held link span, then the packet span, in one pass. Until then
    :attr:`Tracer.open_spans` lists them.
    """

    __slots__ = ("tracer", "span", "holds")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self.tracer = tracer
        self.span = span
        #: The open link spans, in route order.
        self.holds: List[Span] = []

    def hold(self, track: str) -> None:
        """The head flit was granted the link on ``track``."""
        tracer = self.tracer
        span = self.span
        args = {"flits": span.args["flits"]}
        if "noc" in tracer._bound_pids:   # no src/dst: nothing else binds
            tracer._annotate("noc", track, args)
        self.holds.append(_span(next(tracer._sids), "noc", track,
                                span.name, "noc.link", tracer.env.now,
                                None, args))

    def close(self, outcome: Optional[str]) -> None:
        """End the held link spans, then the packet span, and store them.

        ``outcome`` (``"delivered"``, ``"dropped"``, ...) joins the
        packet span's args. ``None`` stores the link spans only and
        leaves the packet span open: the wormhole released its links
        but the packet never reached an outcome.
        """
        tracer = self.tracer
        now = tracer.env.now
        spans = self.holds
        self.holds = []
        for span in spans:
            span.end = now
        if outcome is not None:
            packet = self.span
            del tracer._in_flight[packet.sid]
            packet.end = now
            packet.args["outcome"] = outcome
            spans.append(packet)
        tracer._store(spans, now)


def _environment_of(target):
    env = getattr(target, "env", None)
    return env if env is not None else target


def attach_tracer(target, namespace: Optional[str] = None,
                  capacity: Optional[int] = None) -> Tracer:
    """Create a :class:`Tracer` and attach it to the environment.

    ``target`` may be an :class:`~repro.sim.Environment` or anything
    carrying one as ``.env`` (a :class:`~repro.soc.SoCInstance`, a
    runtime, a server). Idempotent: an already-attached tracer is
    returned unchanged — unless it was attached under a different
    namespace, which raises (mirroring ``attach_metrics``) because
    silently re-labelling a fleet instance's records would corrupt the
    merged trace.
    """
    env = _environment_of(target)
    tracer = getattr(env, "tracer", None)
    if tracer is None:
        tracer = Tracer(env, namespace=namespace, capacity=capacity)
        env.tracer = tracer
    elif namespace is not None and tracer.namespace != namespace:
        raise ValueError(
            f"environment already has a tracer with namespace "
            f"{tracer.namespace!r}; refusing to re-attach as "
            f"{namespace!r}")
    return tracer


def detach_tracer(target) -> Optional[Tracer]:
    """Detach (and return) the environment's tracer, if any.

    After detaching, every instrumentation site is back to its
    disabled-cost path; the returned tracer still holds its records
    for export.
    """
    env = _environment_of(target)
    tracer = getattr(env, "tracer", None)
    env.tracer = None
    return tracer

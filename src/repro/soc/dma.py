"""Accelerator-tile DMA engine with the ESP4ML p2p extension.

Regular DMA (paper Sec. II): load/store transactions travel to the
memory tile on the dma-req plane; load data returns on the dma-rsp
plane. The two planes are decoupled to prevent deadlock.

The p2p service (paper Sec. IV) remaps those transactions onto
tile-to-tile transfers *reusing the same two planes* and the queues
that are otherwise idle during regular DMA:

- all p2p transactions are **on-demand**: the receiver sends a p2p load
  request (dma-req plane) to the source tile; the sender holds produced
  data in an otherwise-unused shallow queue and only forwards it
  (dma-rsp plane) when a request arrives;
- the receiver "will only request data when it has enough space to
  store it locally", which guarantees the consumption assumption: long
  packets never stall in the NoC waiting for a busy consumer;
- a receiver may gather from 1 to 4 source tiles (``P2P_REG``); loads
  round-robin across them.

This is all transparent to the accelerator kernel: the wrapper calls
``load``/``store`` the same way in both modes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..fixed import words_to_flits
from ..noc import (
    COH_FORWARD_PLANE,
    COH_REQUEST_PLANE,
    COH_RESPONSE_PLANE,
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
)
from ..sim import Environment, Fifo, Interrupt
from .coherence import (
    CoherenceMode,
    CoherenceReply,
    CoherenceRequest,
    CoherenceWriteback,
    DEFAULT_PRIVATE_CACHE_WORDS,
    EXCLUSIVE,
    InvalidateAck,
    InvalidateRequest,
    MODIFIED,
    PrivateCache,
    SHARED,
    line_list_flits,
)
from .memory import DmaRequest, MemoryMap, MemoryTile
from .registers import P2PConfig
from .tlb import Tlb

Coord = Tuple[int, int]

#: Depth of the reused p2p store queue (shallow, per the paper: "we
#: carefully reused available queues in the ESP accelerator tile").
P2P_QUEUE_DEPTH = 2


@dataclass
class P2PLoadRequest:
    """Payload of a P2P_REQ packet (receiver -> sender tile)."""

    words: int
    word_bits: int
    reply_to: Coord
    tag: str


class DmaEngine:
    """The DMA controller inside one accelerator socket."""

    def __init__(self, env: Environment, mesh: Mesh2D, coord: Coord,
                 memory_map: MemoryMap, tlb: Optional[Tlb] = None,
                 word_bits: int = 16, max_burst_words: int = 1024,
                 private_cache_words: Optional[int] = None) -> None:
        if max_burst_words < 1:
            raise ValueError("max_burst_words must be >= 1")
        self.env = env
        self.mesh = mesh
        self.coord = coord
        self.memory_map = memory_map
        self.tlb = tlb or Tlb()
        self.word_bits = word_bits
        self.max_burst_words = max_burst_words

        self._tag_counter = itertools.count()
        self._responses: Dict[str, Fifo] = {}
        self._p2p_round_robin = 0

        # p2p sender side: produced chunks wait here, on demand.
        self._p2p_store_queue = Fifo(env, capacity=P2P_QUEUE_DEPTH,
                                     name=f"p2p-store{coord}")

        # Fully-coherent machinery, created lazily on the first
        # fully-coherent transaction (never at SoC build: the pinned
        # seed event counts require a mode nobody uses to cost zero
        # processes). ``private_cache_words`` sizes the tile's private
        # cache (None = DEFAULT_PRIVATE_CACHE_WORDS).
        self.private_cache_words = private_cache_words
        self.cache: Optional[PrivateCache] = None
        self.coherence_downgrades = 0

        # Socket monitors: transactions and their words per kind,
        # injected stalls and, reported by the wrapper and the tile,
        # completions and cycles per wrapper phase and the progress
        # heartbeat (beats, and the cycle of the last).
        self.transactions = dict.fromkeys(
            ("dma_load", "dma_store", "p2p_load", "p2p_store"), 0)
        self.transaction_words = dict.fromkeys(self.transactions, 0)
        self.stalls = 0
        self.phases_done = dict.fromkeys(("load", "compute", "store"), 0)
        self.phase_cycles = dict.fromkeys(self.phases_done, 0)
        self.heartbeats = 0
        self.last_progress = 0

        # Fault hook (None = fault-free, zero overhead).
        self.fault_injector = None

        # Trace label: the owning tile overwrites this with its device
        # name so spans group under the tile in the trace viewer.
        self.owner = f"tile{coord}"

        env.process(self._response_dispatcher(),
                    name=f"dma-rsp-dispatch{coord}")
        self._p2p_server_process = env.process(
            self._p2p_server(), name=f"p2p-server{coord}")

    # -- plumbing ----------------------------------------------------------

    def _new_tag(self) -> str:
        return f"{self.coord[0]}.{self.coord[1]}:{next(self._tag_counter)}"

    def _response_queue(self, tag: str) -> Fifo:
        queue = self._responses.get(tag)
        if queue is None:
            queue = Fifo(self.env, name=f"rsp:{tag}")
            self._responses[tag] = queue
        return queue

    def _response_dispatcher(self):
        """Demultiplex dma-rsp packets (DMA and p2p data) by tag."""
        inbox = self.mesh.inbox(self.coord, DMA_RESPONSE_PLANE)
        while True:
            packet = yield inbox.get()
            yield self._response_queue(packet.tag).put(packet)

    def _flits(self, words: int, plane: str) -> int:
        return words_to_flits(words, self.word_bits,
                              self.mesh.flit_bits(plane))

    @property
    def dma_loads(self) -> int:
        return self.transactions["dma_load"]

    @property
    def dma_stores(self) -> int:
        return self.transactions["dma_store"]

    @property
    def p2p_loads(self) -> int:
        return self.transactions["p2p_load"]

    @property
    def p2p_stores(self) -> int:
        return self.transactions["p2p_store"]

    @property
    def words_loaded(self) -> int:
        words = self.transaction_words
        return words["dma_load"] + words["p2p_load"]

    @property
    def words_stored(self) -> int:
        words = self.transaction_words
        return words["dma_store"] + words["p2p_store"]

    def heartbeat(self) -> None:
        """Record progress. A hung kernel or wedged engine stops beating
        while ``STATUS_REG`` still reads RUNNING (the stall signal)."""
        self.heartbeats += 1
        self.last_progress = self.env.now

    def end_phase(self, phase: str, cycles: int, tracer, sid) -> None:
        """End one wrapper phase of ``cycles`` cycles: count it, beat,
        close its span. Every transaction ends a LOAD or STORE phase in
        the same step, and a long COMPUTE is progress too, not a stall
        between transactions."""
        self.phases_done[phase] += 1
        self.phase_cycles[phase] += cycles
        self.heartbeats += 1
        self.last_progress = self.env.now
        if sid is not None:
            tracer.end(sid)

    def _complete(self, op: str, words: int, tracer, sid) -> None:
        """End one transaction: count it, close its span."""
        self.transactions[op] += 1
        self.transaction_words[op] += words
        if sid is not None:
            tracer.end(sid)

    def _maybe_stall(self):
        """Injected engine stall before a transaction (generator).

        A finite stall delays the transaction; an infinite one wedges
        the engine on an event that never triggers — exactly how a dead
        DMA controller looks to software, recovered by the runtime
        watchdog.
        """
        stall = self.fault_injector.dma_stall(self.coord, self.env.now)
        if stall is None:
            return
        self.stalls += 1
        if stall < 0:   # FaultInjector.HANG
            forever = self.env.event()
            forever.wait_reason = (f"injected dma hang at tile "
                                   f"{self.coord}")
            yield forever
        else:
            yield self.env.timeout(stall)

    def reset(self) -> int:
        """Hardware reset of the engine's queues (socket CMD_RESET).

        Discards parked p2p chunks, abandoned putters, stale response
        queues and the p2p load requests of the aborted run (those
        still queued, and the one the p2p server has taken) so a
        recovered tile starts its next invocation from a clean slate.
        Returns the number of discarded items.
        """
        dropped = self._p2p_store_queue.flush()
        for queue in self._responses.values():
            dropped += queue.flush()
        self._responses.clear()
        self._p2p_round_robin = 0
        dropped += self.mesh.inbox(self.coord, DMA_REQUEST_PLANE).flush()
        # The server holds a request while it waits for a chunk, and
        # has taken one when its wait already triggered; either way a
        # chunk of the next run would answer a request of this one.
        server = self._p2p_server_process
        waiting = server.target
        if waiting is not None and (self._p2p_store_queue.cancel(waiting)
                                    or waiting.triggered):
            server.interrupt("dma reset")
            dropped += 1
        if self.cache is not None:
            # A hardware reset drops the private cache; the functional
            # data lives in the backing store, so nothing is lost —
            # stale directory state resolves as empty-handed
            # invalidation acks later.
            self.cache.flush()
        return dropped

    # -- regular DMA ---------------------------------------------------------

    def _dma_load(self, offset: int, n_words: int,
                  coherent: bool = False):
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.load", f"load[{n_words}w]", "dma.load",
            offset=offset, words=n_words, coherent=coherent)
        if self.fault_injector is not None:
            yield from self._maybe_stall()
        yield self.env.timeout(self.tlb.translate(offset, n_words))
        pending = []
        cursor = offset
        remaining = n_words
        while remaining > 0:
            burst = min(remaining, self.max_burst_words)
            for tile, local, words in self.memory_map.split_range(cursor,
                                                                  burst):
                tag = self._new_tag()
                request = DmaRequest(op="load", offset=local, words=words,
                                     word_bits=self.word_bits,
                                     reply_to=self.coord, tag=tag,
                                     coherent=coherent)
                self.mesh.send(Packet(
                    src=self.coord, dst=tile.coord,
                    plane=DMA_REQUEST_PLANE, kind=MessageKind.DMA_REQ,
                    payload_flits=0, payload=request, tag=tag))
                pending.append(tag)
            cursor += burst
            remaining -= burst
        parts = []
        for tag in pending:
            packet = yield self._response_queue(tag).get()
            parts.append(np.asarray(packet.payload))
            del self._responses[tag]
        self._complete("dma_load", n_words, tracer, sid)
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def _dma_store(self, offset: int, data: np.ndarray,
                   coherent: bool = False):
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        n_words = len(data)
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.store", f"store[{n_words}w]", "dma.store",
            offset=offset, words=n_words, coherent=coherent)
        if self.fault_injector is not None:
            yield from self._maybe_stall()
        yield self.env.timeout(self.tlb.translate(offset, n_words))
        sends = []
        cursor = offset
        position = 0
        while position < n_words:
            burst = min(n_words - position, self.max_burst_words)
            for tile, local, words in self.memory_map.split_range(cursor,
                                                                  burst):
                chunk = data[position:position + words]
                request = DmaRequest(op="store", offset=local, words=words,
                                     word_bits=self.word_bits,
                                     reply_to=self.coord,
                                     tag=self._new_tag(), data=chunk,
                                     coherent=coherent)
                packet = Packet(
                    src=self.coord, dst=tile.coord,
                    plane=DMA_REQUEST_PLANE, kind=MessageKind.DMA_REQ,
                    payload_flits=self._flits(words, DMA_REQUEST_PLANE),
                    payload=request, tag=request.tag)
                # Posted-store tracking for memory quiescence: counted
                # here, retired when the memory tile applies the write
                # (or immediately if the NoC loses the packet).
                self.memory_map.store_posted()
                packet.on_lost = self.memory_map.store_retired
                sends.append(self.mesh.send(packet))
                position += words
                cursor += words
        # Stores are posted: completion is the NoC accepting the data
        # (the memory tile serializes writes ahead of subsequent reads
        # because its request queue is FIFO).
        for send in sends:
            yield send
        self._complete("dma_store", n_words, tracer, sid)
        return None

    # -- fully-coherent (private cache + MESI-style protocol) ------------------

    def _fc_supported(self, offset: int, n_words: int) -> bool:
        """Every memory tile owning the range hosts an LLC (the
        directory point); without one the fabric downgrades the
        request to non-coherent DMA, as ESP does for coherence models
        a tile was not built with."""
        return all(tile.llc is not None for tile, _, _ in
                   self.memory_map.split_range(offset, n_words))

    def _ensure_fc(self) -> PrivateCache:
        """First fully-coherent transaction: build the private cache
        and spawn the tile's two protocol servers (lazily, so unused
        coherence machinery costs zero events)."""
        if self.cache is None:
            line_words = 16
            for tile in self.memory_map.tiles:
                if tile.llc is not None:
                    line_words = tile.llc.line_words
                    break
            self.cache = PrivateCache(
                capacity_words=self.private_cache_words
                or DEFAULT_PRIVATE_CACHE_WORDS,
                line_words=line_words)
            self.env.process(self._fc_rsp_dispatcher(),
                             name=f"coh-rsp-dispatch{self.coord}")
            self.env.process(self._fc_inv_server(),
                             name=f"coh-inv-server{self.coord}")
        return self.cache

    def _fc_rsp_dispatcher(self):
        """Demultiplex coh-rsp grants by transaction tag."""
        inbox = self.mesh.inbox(self.coord, COH_RESPONSE_PLANE)
        while True:
            packet = yield inbox.get()
            if not isinstance(packet.payload, CoherenceReply):
                raise TypeError(
                    f"accelerator tile {self.coord} got unexpected "
                    f"coh-rsp payload {packet.payload!r}")
            yield self._response_queue(packet.tag).put(packet)

    def _fc_inv_server(self):
        """Answer directory invalidations / recalls on coh-fwd.

        Runs independently of any in-flight transaction of this tile,
        so two tiles' transactions can invalidate each other without
        deadlock. The ack returns on coh-rsp, carrying the data of
        lines that were locally dirty (a MESI recall)."""
        cache = self.cache
        inbox = self.mesh.inbox(self.coord, COH_FORWARD_PLANE)
        while True:
            packet = yield inbox.get()
            request = packet.payload
            if not isinstance(request, InvalidateRequest):
                raise TypeError(
                    f"accelerator tile {self.coord} got unexpected "
                    f"coh-fwd payload {request!r}")
            yield self.env.timeout(cache.hit_latency)
            dirty = tuple(line for line in request.lines
                          if cache.invalidate(line))
            flits = self._flits(len(dirty) * cache.line_words,
                                COH_RESPONSE_PLANE) if dirty \
                else line_list_flits(len(request.lines))
            self.mesh.send(Packet(
                src=self.coord, dst=request.reply_to,
                plane=COH_RESPONSE_PLANE, kind=MessageKind.COH_ACK,
                payload_flits=flits,
                payload=InvalidateAck(lines=request.lines,
                                      dirty_lines=dirty,
                                      tag=request.tag),
                tag=request.tag))

    def _line_tile(self, line: int) -> MemoryTile:
        return self.memory_map.owner(line * self.cache.line_words)[0]

    def _fc_writebacks(self, victims):
        """Writeback packets for evicted dirty lines.

        No ack is awaited (the directory absorbs them asynchronously),
        but injection is serialized: the victim data leaves through
        the same tile port as every other transfer, so a store stream
        that thrashes the private cache pays for the traffic it
        generates instead of getting eviction bandwidth for free.
        """
        cache = self.cache
        by_tile = {}
        for line in victims:
            by_tile.setdefault(self._line_tile(line), []).append(line)
        for tile, lines in by_tile.items():
            yield self.mesh.send(Packet(
                src=self.coord, dst=tile.coord,
                plane=COH_RESPONSE_PLANE, kind=MessageKind.COH_WB,
                payload_flits=self._flits(
                    len(lines) * cache.line_words, COH_RESPONSE_PLANE),
                payload=CoherenceWriteback(lines=tuple(lines),
                                           word_bits=self.word_bits),
                tag=None))

    def _fc_transaction(self, offset: int, n_words: int, write: bool):
        """One fully-coherent load/store through the private cache.

        The cache hierarchy handles the word-granularity access, so
        (unlike DMA) there is no TLB walk — this is why the mode wins
        on small footprints. Lines hit locally or join a batched
        request per owning memory tile (GETS for reads; GETM with fill
        for partial-line stores; an upgrade — no data — for S-state
        hits and full-line overwrites). Grants install lines S/E/M;
        dirty victims stream back as writeback packets.
        """
        cache = self.cache
        line_words = cache.line_words
        end = offset + n_words
        hit_lines = 0
        per_tile: Dict[MemoryTile, Tuple[list, list, list]] = {}
        for line in cache.lines_of(offset, n_words):
            if cache.touch(line, write=write) is not None:
                hit_lines += 1
                continue
            gets, getm, upgrades = per_tile.setdefault(
                self._line_tile(line), ([], [], []))
            if not write:
                gets.append(line)
            else:
                line_start = line * line_words
                full_cover = (offset <= line_start
                              and line_start + line_words <= end)
                state = cache.state(line)
                # An S-state write needs ownership but no data; so
                # does a store that overwrites the whole line.
                if state == SHARED or full_cover:
                    upgrades.append(line)
                else:
                    getm.append(line)
        if hit_lines:
            yield self.env.timeout(
                cache.hit_latency
                + (hit_lines * line_words + 7) // 8)
        if not per_tile:
            return
        pending = []
        for tile, (gets, getm, upgrades) in per_tile.items():
            tile.ensure_directory()
            tag = self._new_tag()
            request = CoherenceRequest(
                gets_lines=tuple(gets), getm_lines=tuple(getm),
                upgrade_lines=tuple(upgrades), requester=self.coord,
                tag=tag, word_bits=self.word_bits)
            self.mesh.send(Packet(
                src=self.coord, dst=tile.coord,
                plane=COH_REQUEST_PLANE, kind=MessageKind.COH_REQ,
                payload_flits=line_list_flits(len(request.all_lines)),
                payload=request, tag=tag))
            pending.append((tag, request))
        victims = []
        for tag, request in pending:
            packet = yield self._response_queue(tag).get()
            del self._responses[tag]
            reply = packet.payload
            exclusive = set(reply.exclusive_lines)
            for line in request.gets_lines:
                victim = cache.install(
                    line, EXCLUSIVE if line in exclusive else SHARED)
                if victim is not None:
                    victims.append(victim)
            for line in request.getm_lines + request.upgrade_lines:
                victim = cache.install(line, MODIFIED)
                if victim is not None:
                    victims.append(victim)
        if victims:
            yield from self._fc_writebacks(victims)

    def _fc_load(self, offset: int, n_words: int):
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.load", f"fc-load[{n_words}w]", "coh.load",
            offset=offset, words=n_words)
        if self.fault_injector is not None:
            yield from self._maybe_stall()
        yield from self._fc_transaction(offset, n_words, write=False)
        data = self.memory_map.read_words(offset, n_words)
        self._complete("dma_load", n_words, tracer, sid)
        return data

    def _fc_store(self, offset: int, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        n_words = len(data)
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.store", f"fc-store[{n_words}w]",
            "coh.store", offset=offset, words=n_words)
        if self.fault_injector is not None:
            yield from self._maybe_stall()
        yield from self._fc_transaction(offset, n_words, write=True)
        # The functional write is out-of-band (zero simulated time):
        # the backing store always holds current data, the dirty
        # private lines only shape timing and writeback traffic. A
        # fully-coherent store is therefore *not* posted — completion
        # means ownership was granted, so no quiesce accounting.
        self.memory_map.write_words(offset, data)
        self._complete("dma_store", n_words, tracer, sid)
        return None

    # -- p2p -------------------------------------------------------------------

    def _p2p_load(self, n_words: int, p2p: P2PConfig):
        """Receiver side: on-demand request to the next source tile."""
        source = p2p.sources[self._p2p_round_robin % len(p2p.sources)]
        self._p2p_round_robin += 1
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.load", f"p2p-load[{n_words}w]",
            "dma.p2p_load", source=str(source), words=n_words)
        tag = self._new_tag()
        request = P2PLoadRequest(words=n_words, word_bits=self.word_bits,
                                 reply_to=self.coord, tag=tag)
        lost = (self.fault_injector is not None
                and self.fault_injector.p2p_req_lost(self.coord,
                                                     self.env.now))
        if not lost:
            # A lost request never reaches the sender: the receiver
            # blocks on a response that will not come and the runtime
            # watchdog recovers the stream.
            self.mesh.send(Packet(
                src=self.coord, dst=source, plane=DMA_REQUEST_PLANE,
                kind=MessageKind.P2P_REQ, payload_flits=0, payload=request,
                tag=tag))
        packet = yield self._response_queue(tag).get()
        del self._responses[tag]
        self._complete("p2p_load", n_words, tracer, sid)
        return np.asarray(packet.payload)

    def _p2p_store(self, data: np.ndarray):
        """Sender side: park the chunk until a receiver asks for it.

        Blocks when the shallow queue is full — this is the hardware
        backpressure that keeps long packets out of the NoC until the
        downstream accelerator is ready (consumption assumption).
        """
        data = np.asarray(data, dtype=np.float64).reshape(-1)
        tracer = self.env.tracer
        sid = None if tracer is None else tracer.begin(
            self.owner, "dma.store", f"p2p-store[{len(data)}w]",
            "dma.p2p_store", words=len(data))
        yield self._p2p_store_queue.put(data)
        self._complete("p2p_store", len(data), tracer, sid)
        return None

    def _p2p_server(self):
        """Sender side: answer p2p load requests with parked chunks.

        :meth:`reset` interrupts the server to drop the request it has
        taken; it then waits for the next one.
        """
        inbox = self.mesh.inbox(self.coord, DMA_REQUEST_PLANE)
        while True:
            try:
                packet = yield inbox.get()
            except Interrupt:
                continue
            request = packet.payload
            if not isinstance(request, P2PLoadRequest):
                raise TypeError(
                    f"accelerator tile {self.coord} received unexpected "
                    f"request {request!r} on the DMA request plane")
            tracer = self.env.tracer
            sid = None if tracer is None else tracer.begin(
                self.owner, "p2p-server", f"serve[{request.words}w]",
                "dma.p2p_serve", reply_to=str(request.reply_to),
                words=request.words)
            try:
                chunk = yield self._p2p_store_queue.get()
            except Interrupt:
                if sid is not None:
                    tracer.end(sid, outcome="reset")
                continue
            if len(chunk) != request.words:
                raise ValueError(
                    f"p2p size mismatch at {self.coord}: receiver asked "
                    f"for {request.words} words, producer parked "
                    f"{len(chunk)}")
            self.mesh.send(Packet(
                src=self.coord, dst=request.reply_to,
                plane=DMA_RESPONSE_PLANE, kind=MessageKind.P2P_RSP,
                payload_flits=self._flits(request.words,
                                          DMA_RESPONSE_PLANE),
                payload=chunk, tag=request.tag))
            if sid is not None:
                tracer.end(sid)

    # -- public API (what the wrapper calls) -------------------------------------

    def reset_p2p_rotation(self) -> None:
        """Restart the round-robin source pointer (new invocation)."""
        self._p2p_round_robin = 0

    def load(self, offset: int, n_words: int,
             p2p: Optional[P2PConfig] = None,
             coherence=None):
        """Load ``n_words`` into the PLM; DMA or p2p per configuration.

        ``coherence`` selects the cache-coherence model
        (:class:`CoherenceMode` or its string value): non-coherent DMA
        straight to DRAM, LLC-coherent DMA through the memory tile's
        last-level cache, or the fully-coherent private-cache path.
        A generator to be driven with ``yield from``; returns the data.
        """
        if n_words < 1:
            raise ValueError(f"n_words must be >= 1, got {n_words}")
        mode = CoherenceMode.coerce(coherence)
        if p2p is not None and p2p.load_enabled:
            return (yield from self._p2p_load(n_words, p2p))
        if mode is CoherenceMode.FULLY_COHERENT:
            if self._fc_supported(offset, n_words):
                self._ensure_fc()
                return (yield from self._fc_load(offset, n_words))
            self.coherence_downgrades += 1
            mode = CoherenceMode.NON_COHERENT
        return (yield from self._dma_load(
            offset, n_words,
            coherent=mode is CoherenceMode.LLC_COHERENT))

    def store(self, offset: int, data: np.ndarray,
              p2p: Optional[P2PConfig] = None,
              coherence=None):
        """Store a PLM buffer; DMA or p2p per configuration."""
        mode = CoherenceMode.coerce(coherence)
        if p2p is not None and p2p.store_enabled:
            return (yield from self._p2p_store(data))
        if mode is CoherenceMode.FULLY_COHERENT:
            data = np.asarray(data, dtype=np.float64).reshape(-1)
            if self._fc_supported(offset, max(1, len(data))):
                self._ensure_fc()
                return (yield from self._fc_store(offset, data))
            self.coherence_downgrades += 1
            mode = CoherenceMode.NON_COHERENT
        return (yield from self._dma_store(
            offset, data,
            coherent=mode is CoherenceMode.LLC_COHERENT))

"""Tests for the DMA engine: regular loads/stores and the p2p service."""

import numpy as np
import pytest

from repro.noc import (
    DMA_REQUEST_PLANE,
    DMA_RESPONSE_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
)
from repro.sim import Environment
from repro.soc import (
    DmaEngine,
    MemoryMap,
    MemoryTile,
    P2PConfig,
    P2PLoadRequest,
    P2P_QUEUE_DEPTH,
    Tlb,
)


def make_fabric(cols=3):
    """env, mesh, memory map with one memory tile at the east edge."""
    env = Environment()
    mesh = Mesh2D(env, cols, 1)
    memory = MemoryTile(env, mesh, (cols - 1, 0), size_words=1 << 16)
    return env, mesh, MemoryMap([memory]), memory


def run_gen(env, generator):
    """Drive a DMA generator inside a process; return its result."""
    box = {}

    def proc():
        box["result"] = yield from generator
        return box["result"]

    done = env.process(proc())
    env.run(until=done)
    env.run()   # drain: posted stores complete at the memory tile later
    return box["result"]


class TestDmaLoadStore:
    def test_load_returns_memory_contents(self, rng):
        env, mesh, mm, memory = make_fabric()
        data = rng.uniform(-1, 1, 128)
        memory.write_words(256, data)
        dma = DmaEngine(env, mesh, (0, 0), mm)
        out = run_gen(env, dma.load(256, 128))
        np.testing.assert_array_equal(out, data)
        assert dma.dma_loads == 1
        assert dma.words_loaded == 128

    def test_store_reaches_memory(self, rng):
        env, mesh, mm, memory = make_fabric()
        data = rng.uniform(-1, 1, 64)
        dma = DmaEngine(env, mesh, (0, 0), mm)
        run_gen(env, dma.store(512, data))
        np.testing.assert_array_equal(memory.read_words(512, 64), data)
        assert memory.words_written == 64

    def test_long_transfer_split_into_bursts(self):
        env, mesh, mm, memory = make_fabric()
        dma = DmaEngine(env, mesh, (0, 0), mm, max_burst_words=100)
        run_gen(env, dma.load(0, 350))
        assert memory.load_transactions == 4   # 100+100+100+50

    def test_tlb_preload_speeds_up_transfer(self):
        def elapsed(preload):
            env, mesh, mm, _ = make_fabric()
            tlb = Tlb(page_words=256, miss_latency=500)
            if preload:
                tlb.preload(0, 4096)
            dma = DmaEngine(env, mesh, (0, 0), mm, tlb=tlb)
            start = env.now
            run_gen(env, dma.load(0, 4096))
            return env.now - start

        assert elapsed(preload=True) < elapsed(preload=False)

    def test_invalid_load_size(self):
        env, mesh, mm, _ = make_fabric()
        dma = DmaEngine(env, mesh, (0, 0), mm)
        with pytest.raises(ValueError):
            run_gen(env, dma.load(0, 0))

    def test_concurrent_loads_demuxed_by_tag(self, rng):
        env, mesh, mm, memory = make_fabric()
        a_data = rng.uniform(-1, 1, 32)
        b_data = rng.uniform(-1, 1, 32)
        memory.write_words(0, a_data)
        memory.write_words(1000, b_data)
        dma = DmaEngine(env, mesh, (0, 0), mm)
        results = {}

        def loader(key, offset):
            results[key] = yield from dma.load(offset, 32)

        env.process(loader("a", 0))
        env.process(loader("b", 1000))
        env.run()
        np.testing.assert_array_equal(results["a"], a_data)
        np.testing.assert_array_equal(results["b"], b_data)


class TestP2P:
    def test_receiver_initiated_transfer(self, rng):
        env, mesh, mm, memory = make_fabric(cols=3)
        sender = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)
        payload = rng.uniform(-1, 1, 64)
        store_cfg = P2PConfig(store_enabled=True)
        load_cfg = P2PConfig(load_enabled=True, sources=((0, 0),))
        got = {}

        def send_side():
            yield from sender.store(0, payload, p2p=store_cfg)

        def recv_side():
            got["data"] = yield from receiver.load(0, 64, p2p=load_cfg)

        env.process(send_side())
        env.process(recv_side())
        env.run()
        np.testing.assert_array_equal(got["data"], payload)
        assert sender.p2p_stores == 1
        assert receiver.p2p_loads == 1
        # p2p data never touched DRAM.
        assert memory.total_accesses == 0

    def test_sender_blocks_until_request(self):
        """On-demand semantics: data waits in the sender's queue."""
        env, mesh, mm, _ = make_fabric()
        sender = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)
        store_cfg = P2PConfig(store_enabled=True)
        load_cfg = P2PConfig(load_enabled=True, sources=((0, 0),))
        times = {}

        def send_side():
            yield from sender.store(0, np.zeros(16), p2p=store_cfg)
            times["stored"] = env.now

        def recv_side():
            yield env.timeout(5000)
            yield from receiver.load(0, 16, p2p=load_cfg)
            times["received"] = env.now

        env.process(send_side())
        env.process(recv_side())
        env.run()
        # The store itself completes immediately (queue deposit), but
        # the data only crosses the NoC after the late request.
        assert times["received"] > 5000

    def test_consumption_assumption_backpressure(self):
        """Producer stalls once the shallow p2p queue fills."""
        env, mesh, mm, _ = make_fabric()
        sender = DmaEngine(env, mesh, (0, 0), mm)
        progress = []

        def producer():
            for index in range(P2P_QUEUE_DEPTH + 2):
                yield from sender.store(0, np.zeros(8),
                                        p2p=P2PConfig(store_enabled=True))
                progress.append(index)

        env.process(producer())
        env.run(until=10_000)
        # Only the queue capacity worth of chunks went through; the
        # producer is blocked on the full queue with no consumer.
        assert progress == list(range(P2P_QUEUE_DEPTH))

    def test_round_robin_over_sources(self, rng):
        env, mesh, mm, _ = make_fabric(cols=4)
        s0 = DmaEngine(env, mesh, (0, 0), mm)
        s1 = DmaEngine(env, mesh, (1, 0), mm)
        receiver = DmaEngine(env, mesh, (2, 0), mm)
        load_cfg = P2PConfig(load_enabled=True, sources=((0, 0), (1, 0)))
        store_cfg = P2PConfig(store_enabled=True)
        got = []

        def feed(engine, base):
            for i in range(2):
                yield from engine.store(0, np.full(4, base + i),
                                        p2p=store_cfg)

        def consume():
            for _ in range(4):
                chunk = yield from receiver.load(0, 4, p2p=load_cfg)
                got.append(chunk[0])

        env.process(feed(s0, 100))
        env.process(feed(s1, 200))
        env.process(consume())
        env.run()
        assert got == [100, 200, 101, 201]

    def test_rotation_reset(self, rng):
        env, mesh, mm, _ = make_fabric(cols=4)
        s0 = DmaEngine(env, mesh, (0, 0), mm)
        s1 = DmaEngine(env, mesh, (1, 0), mm)
        receiver = DmaEngine(env, mesh, (2, 0), mm)
        load_cfg = P2PConfig(load_enabled=True, sources=((0, 0), (1, 0)))
        store_cfg = P2PConfig(store_enabled=True)
        got = []

        def feed(engine, value, count):
            for _ in range(count):
                yield from engine.store(0, np.full(4, value),
                                        p2p=store_cfg)

        def consume():
            chunk = yield from receiver.load(0, 4, p2p=load_cfg)
            got.append(chunk[0])
            receiver.reset_p2p_rotation()
            chunk = yield from receiver.load(0, 4, p2p=load_cfg)
            got.append(chunk[0])

        env.process(feed(s0, 100, 2))
        env.process(feed(s1, 200, 1))
        env.process(consume())
        env.run()
        assert got == [100, 100]   # rotation restarted at source 0

    def test_size_mismatch_detected(self):
        env, mesh, mm, _ = make_fabric()
        sender = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)

        def send_side():
            yield from sender.store(0, np.zeros(8),
                                    p2p=P2PConfig(store_enabled=True))

        def recv_side():
            yield from receiver.load(
                0, 16, p2p=P2PConfig(load_enabled=True, sources=((0, 0),)))

        env.process(send_side())
        env.process(recv_side())
        with pytest.raises(ValueError, match="mismatch"):
            env.run()

    def test_p2p_reuses_dma_planes_only(self, rng):
        """Contribution 1: no new NoC resources, only the DMA planes."""
        env, mesh, mm, _ = make_fabric()
        sender = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)

        def send_side():
            yield from sender.store(0, np.zeros(32),
                                    p2p=P2PConfig(store_enabled=True))

        def recv_side():
            yield from receiver.load(
                0, 32, p2p=P2PConfig(load_enabled=True, sources=((0, 0),)))

        env.process(send_side())
        env.process(recv_side())
        env.run()
        flits = mesh.plane_flits()
        active = {plane for plane, count in flits.items() if count > 0}
        assert active <= {DMA_REQUEST_PLANE, DMA_RESPONSE_PLANE}


class TestStalledConsumer:
    """The paper's p2p 'consumption assumption' under a dead consumer:
    backpressure must stay local to the wedged stream."""

    def test_stalled_consumer_does_not_wedge_unrelated_dma(self, rng):
        """A producer blocked on its full p2p store queue must not
        hold NoC or memory resources that unrelated DMA needs."""
        env, mesh, mm, memory = make_fabric(cols=4)
        producer = DmaEngine(env, mesh, (0, 0), mm)
        bystander = DmaEngine(env, mesh, (1, 0), mm)
        data = rng.uniform(-1, 1, 64)
        memory.write_words(512, data)
        wedged = []
        observed = {}

        def wedge():
            for index in range(P2P_QUEUE_DEPTH + 2):
                yield from producer.store(
                    0, np.zeros(8), p2p=P2PConfig(store_enabled=True))
                wedged.append(index)

        def unrelated():
            yield env.timeout(100)   # let the producer wedge first
            observed["data"] = yield from bystander.load(512, 64)
            observed["at"] = env.now

        env.process(wedge())
        done = env.process(unrelated())
        env.run(until=done)
        env.run(until=env.now + 10_000)
        assert wedged == list(range(P2P_QUEUE_DEPTH))   # still wedged
        np.testing.assert_array_equal(observed["data"], data)

    def test_wedged_store_queue_is_introspectable(self):
        """The blocked producer shows up on the store queue's waiters()
        — the hook the deadlock detector and the watchdog report use."""
        env, mesh, mm, _ = make_fabric()
        producer = DmaEngine(env, mesh, (0, 0), mm)

        def wedge():
            for _ in range(P2P_QUEUE_DEPTH + 1):
                yield from producer.store(
                    0, np.zeros(8), p2p=P2PConfig(store_enabled=True))

        env.process(wedge(), name="wedged-producer")
        env.run(until=5_000)
        waiters = producer._p2p_store_queue.waiters()
        assert len(waiters["putters"]) == 1
        reason = getattr(waiters["putters"][0], "wait_reason", "")
        assert "p2p-store" in reason

    def test_consumer_timeout_leaves_queue_recoverable(self):
        """After a reset flushes the wedged queue, the engine serves
        fresh p2p traffic normally."""
        env, mesh, mm, _ = make_fabric()
        producer = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)

        def wedge():
            for _ in range(P2P_QUEUE_DEPTH + 1):
                yield from producer.store(
                    0, np.zeros(8), p2p=P2PConfig(store_enabled=True))

        env.process(wedge())
        env.run(until=5_000)
        producer.reset()
        env.run(until=env.now + 100)

        sent = np.arange(16, dtype=float)
        got = {}

        def send_side():
            yield from producer.store(0, sent,
                                      p2p=P2PConfig(store_enabled=True))

        def recv_side():
            got["data"] = yield from receiver.load(
                0, 16, p2p=P2PConfig(load_enabled=True,
                                     sources=((0, 0),)))

        env.process(send_side())
        done = env.process(recv_side())
        env.run(until=done)
        np.testing.assert_array_equal(got["data"], sent)

    @pytest.mark.parametrize("stale", ["held", "queued", "handed"])
    def test_reset_drops_requests_of_the_aborted_stream(self, stale):
        """A reset drops the p2p load requests the receiver sent before
        it: the one the server holds while it waits for a chunk, those
        still queued behind it, and one already handed to the server
        but not yet read. A fresh stream then gets fresh data."""
        env, mesh, mm, _ = make_fabric()
        producer = DmaEngine(env, mesh, (0, 0), mm)
        receiver = DmaEngine(env, mesh, (1, 0), mm)
        inbox = mesh.inbox((0, 0), DMA_REQUEST_PLANE)
        p2p_load = P2PConfig(load_enabled=True, sources=((0, 0),))

        def aborted_load():
            yield from receiver.load(0, 16, p2p=p2p_load)

        env.run(until=10)   # the servers park on their inboxes
        if stale == "handed":
            request = P2PLoadRequest(words=16, word_bits=16,
                                     reply_to=(1, 0), tag="stale")
            inbox.put(Packet(src=(1, 0), dst=(0, 0),
                             plane=DMA_REQUEST_PLANE,
                             kind=MessageKind.P2P_REQ, payload_flits=0,
                             payload=request, tag="stale"))
        else:
            for _ in range(2 if stale == "queued" else 1):
                env.process(aborted_load())
            env.run(until=500)
            assert len(inbox) == (1 if stale == "queued" else 0)
        producer.reset()
        receiver.reset()
        env.run(until=env.now + 100)
        assert len(inbox) == 0

        sent = np.arange(16, dtype=float)
        got = {}

        def send_side():
            yield from producer.store(0, sent,
                                      p2p=P2PConfig(store_enabled=True))

        def recv_side():
            got["data"] = yield from receiver.load(0, 16, p2p=p2p_load)

        env.process(send_side())
        done = env.process(recv_side())
        env.run(until=env.now + 5_000)
        assert done.triggered
        np.testing.assert_array_equal(got["data"], sent)

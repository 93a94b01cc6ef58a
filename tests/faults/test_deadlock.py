"""Tests for the simulation-level deadlock detector."""

import numpy as np
import pytest

from repro.sim import DeadlockError, Environment, Fifo, Resource


class TestKernelDeadlockReport:
    def test_drained_schedule_names_blocked_process_and_fifo(self):
        env = Environment()
        fifo = Fifo(env, capacity=1, name="stuck-queue")

        def consumer():
            yield fifo.get()
            yield fifo.get()   # never satisfied

        def producer():
            yield fifo.put("only-item")

        env.process(consumer(), name="consumer-proc")
        done = env.process(producer(), name="producer-proc")
        with pytest.raises(DeadlockError) as exc_info:
            env.run(until=env.event())   # drains before the event fires
        message = str(exc_info.value)
        assert "drained" in message
        assert "consumer-proc" in message
        assert "stuck-queue" in message

    def test_blocked_processes_lists_live_waiters(self):
        env = Environment()
        gate = Resource(env, slots=1, name="the-gate")

        def holder():
            yield gate.acquire()
            yield env.timeout(10)

        def waiter():
            yield env.timeout(1)
            yield gate.acquire()   # starves: holder never releases

        env.process(holder(), name="holder")
        env.process(waiter(), name="waiter")
        env.run()
        blocked = env.blocked_processes()
        names = {proc.name for proc, _ in blocked}
        assert "waiter" in names
        reasons = [getattr(target, "wait_reason", "")
                   for _, target in blocked]
        assert any("the-gate" in reason for reason in reasons)


class TestBlockedPacket:
    """A NoC packet has no process of its own, yet a packet stuck on a
    link or a full ejection queue is still named in the report."""

    def test_packets_on_held_link_and_full_inbox_are_reported(self):
        from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, \
            Packet

        env = Environment()
        mesh = Mesh2D(env, 3, 2)
        plane = DMA_REQUEST_PLANE
        link = mesh.links[((0, 0), (1, 0), plane)]

        def squatter():
            yield link.channel.acquire()   # never released

        inbox = mesh.inbox((1, 1), plane)
        inbox.capacity = 1
        assert inbox.try_put("occupant")   # nobody ever gets it

        def packet(src, dst):
            return Packet(src=src, dst=dst, plane=plane,
                          kind=MessageKind.DMA_REQ, payload_flits=4)

        env.process(squatter(), name="squatter")
        behind_link = mesh.send(packet((0, 0), (2, 0)))
        on_inbox = mesh.send(packet((1, 0), (1, 1)))

        with pytest.raises(DeadlockError) as exc_info:
            env.run(until=env.event())
        blocked = dict(env.blocked_processes())
        assert behind_link in blocked and on_inbox in blocked
        link_reason = f"acquire of busy resource {link.channel.name!r}"
        inbox_reason = f"put on full fifo {inbox.name!r}"
        assert blocked[behind_link].wait_reason == link_reason
        assert blocked[on_inbox].wait_reason == inbox_reason
        message = str(exc_info.value)
        assert f"process '_transmit' blocked on {link_reason}" in message
        assert f"process '_transmit' blocked on {inbox_reason}" in message
        report = env.deadlock_report()
        assert link_reason in report and inbox_reason in report


class TestP2PStoreQueueWedge:
    def test_wedged_p2p_store_queue_is_diagnosed(self):
        """The acceptance scenario: a producer streams p2p chunks but
        no consumer ever asks for them. The shallow store queue fills,
        the producer's socket blocks, and the deadlock report names
        the blocked process and the wedged queue."""
        from repro.noc import Mesh2D
        from repro.sim import Environment
        from repro.soc import (
            DmaEngine,
            MemoryMap,
            MemoryTile,
            P2P_QUEUE_DEPTH,
        )

        env = Environment()
        mesh = Mesh2D(env, 3, 1)
        memory = MemoryTile(env, mesh, (2, 0), size_words=1 << 12)
        dma = DmaEngine(env, mesh, (0, 0), MemoryMap([memory]))

        def producer():
            # One chunk more than the queue holds: the last put wedges.
            for index in range(P2P_QUEUE_DEPTH + 1):
                yield from dma._p2p_store(np.full(4, float(index)))

        done = env.process(producer(), name="p2p-producer")
        with pytest.raises(DeadlockError) as exc_info:
            env.run(until=done)
        message = str(exc_info.value)
        assert "p2p-producer" in message
        assert "p2p-store" in message

    def test_executor_watchdog_preempts_the_wedge(self):
        """With a recovery policy armed, the same wedge surfaces as a
        watchdog-driven degradation instead of a DeadlockError."""
        from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
            RecoveryPolicy
        from repro.runtime import EspRuntime, chain
        from tests.conftest import make_soc, make_spec

        soc = make_soc([("s0", make_spec(name="s0")),
                        ("s1", make_spec(name="s1"))])
        # Kill the consumer's load requests permanently: s0's store
        # queue fills and wedges, exactly the drained-schedule case —
        # but the stream watchdog fires first and the run degrades.
        plan = FaultPlan([FaultSpec(kind="p2p_req_drop", target="s1",
                                    at_cycle=0, count=None)])
        FaultInjector(plan).attach(soc)
        runtime = EspRuntime(
            soc, recovery=RecoveryPolicy(watchdog_cycles=20_000))
        frames = np.arange(4 * 16, dtype=float).reshape(4, 16)
        result = runtime.esp_run(chain("two", ["s0", "s1"]), frames,
                                 mode="p2p")
        np.testing.assert_array_equal(result.outputs, frames + 2.0)
        assert result.degraded

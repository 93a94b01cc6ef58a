"""Conservation properties of the NoC accounting."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.noc import (
    DMA_REQUEST_PLANE,
    Mesh2D,
    MessageKind,
    Packet,
    hop_count,
)
from repro.sim import Environment


@given(cols=st.integers(2, 4), rows=st.integers(2, 4),
       flows=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15),
                                st.integers(0, 30)),
                      min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_flit_hops_equal_sum_of_size_times_distance(cols, rows, flows):
    """Every flit is accounted on every link it crosses, exactly once."""
    env = Environment()
    mesh = Mesh2D(env, cols, rows)
    expected = 0
    for a, b, payload in flows:
        src = (a % cols, (a // cols) % rows)
        dst = (b % cols, (b // cols) % rows)
        mesh.send(Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                         kind=MessageKind.DMA_REQ,
                         payload_flits=payload))
        expected += (payload + 1) * hop_count(src, dst)
    env.run()
    assert mesh.flit_hops == expected
    assert sum(mesh.plane_flits().values()) == expected
    assert sum(link.flits_carried for link in mesh.links.values()) \
        == expected


@given(cols=st.integers(2, 4), rows=st.integers(2, 4),
       n_packets=st.integers(1, 12), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_every_injected_packet_ejects_exactly_once(cols, rows,
                                                   n_packets, seed):
    env = Environment()
    mesh = Mesh2D(env, cols, rows)
    rng = np.random.default_rng(seed)
    destinations = {}
    for index in range(n_packets):
        src = (int(rng.integers(cols)), int(rng.integers(rows)))
        dst = (int(rng.integers(cols)), int(rng.integers(rows)))
        mesh.send(Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                         kind=MessageKind.DMA_REQ, payload_flits=3,
                         tag=f"t{index}"))
        destinations.setdefault(dst, []).append(f"t{index}")
    env.run()
    assert mesh.packets_delivered == n_packets
    ejected = []
    for coord, tags in destinations.items():
        inbox = mesh.inbox(coord, DMA_REQUEST_PLANE)
        while True:
            packet = inbox.try_get()
            if packet is None:
                break
            ejected.append(packet.tag)
    assert sorted(ejected) == sorted(f"t{i}" for i in range(n_packets))


@given(cols=st.integers(2, 4), rows=st.integers(2, 4),
       n_packets=st.integers(1, 12), drop_p=st.floats(0.0, 1.0),
       seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_conservation_holds_under_injected_delivery_faults(
        cols, rows, n_packets, drop_p, seed):
    """Injected drops/corruptions never lose accounting: every packet
    is delivered, dropped or corrupted — exactly once — and a faulted
    wormhole still releases all of its links (flit-hop conservation)."""
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    env = Environment()
    mesh = Mesh2D(env, cols, rows)
    specs = []
    if drop_p > 0.0:
        specs = [FaultSpec(kind="link_drop", probability=drop_p,
                           count=None)]
    mesh.fault_injector = FaultInjector(FaultPlan(specs, seed=seed))

    rng = np.random.default_rng(seed)
    expected_hops = 0
    for _ in range(n_packets):
        src = (int(rng.integers(cols)), int(rng.integers(rows)))
        dst = (int(rng.integers(cols)), int(rng.integers(rows)))
        mesh.send(Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                         kind=MessageKind.DMA_REQ, payload_flits=3))
        expected_hops += 4 * hop_count(src, dst)
    env.run()
    assert (mesh.packets_delivered + mesh.packets_dropped
            + mesh.packets_corrupted) == n_packets
    # Links were crossed (and accounted) before the fault struck.
    assert mesh.flit_hops == expected_hops


def test_dropped_packet_does_not_wedge_the_link():
    """A delivery fault strikes after the wormhole released its links:
    traffic behind the dropped packet keeps flowing."""
    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    env = Environment()
    mesh = Mesh2D(env, 3, 1)
    mesh.fault_injector = FaultInjector(FaultPlan(
        [FaultSpec(kind="link_drop", at_cycle=0, count=1)]))
    for tag in ("victim", "survivor-1", "survivor-2"):
        mesh.send(Packet(src=(0, 0), dst=(2, 0),
                         plane=DMA_REQUEST_PLANE,
                         kind=MessageKind.DMA_REQ, payload_flits=5,
                         tag=tag))
    env.run()
    assert mesh.packets_dropped == 1
    assert mesh.packets_delivered == 2
    inbox = mesh.inbox((2, 0), DMA_REQUEST_PLANE)
    arrived = {inbox.try_get().tag, inbox.try_get().tag}
    assert arrived == {"survivor-1", "survivor-2"}

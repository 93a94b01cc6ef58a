"""The vectorized uncontended-transport helper vs the event-driven path.

``Mesh2D.bulk_uncontended_latencies`` is the closed form of a
``PacketTransfer`` for isolated packets (wide-mesh DSE sweeps); these tests
pin it cycle-for-cycle against actually simulating each packet alone
on an idle mesh.
"""

import numpy as np
import pytest

from repro.noc import DMA_REQUEST_PLANE, Mesh2D, MessageKind, Packet
from repro.sim import Environment


def _simulated_latency(cols, rows, src, dst, flits):
    """Drive one packet through an idle mesh; return delivery latency."""
    env = Environment()
    mesh = Mesh2D(env, cols, rows)
    packet = Packet(src=src, dst=dst, plane=DMA_REQUEST_PLANE,
                    kind=MessageKind.DMA_REQ, payload_flits=flits)
    mesh.send(packet)
    env.run()
    return packet.delivered_at - packet.injected_at


class TestBulkUncontended:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_event_driven_transport(self, seed):
        """Closed form == simulation for random pairs on a wide mesh."""
        rng = np.random.default_rng(seed)
        cols, rows = 6, 5
        n = 12
        srcs = np.stack([rng.integers(0, cols, n),
                         rng.integers(0, rows, n)], axis=1)
        dsts = np.stack([rng.integers(0, cols, n),
                         rng.integers(0, rows, n)], axis=1)
        payload = int(rng.integers(1, 40))
        flits = payload + 1   # Packet.size_flits counts the head flit
        env = Environment()
        mesh = Mesh2D(env, cols, rows)
        predicted = mesh.bulk_uncontended_latencies(srcs, dsts, flits)
        for k in range(n):
            simulated = _simulated_latency(
                cols, rows, tuple(int(v) for v in srcs[k]),
                tuple(int(v) for v in dsts[k]), payload)
            assert predicted[k] == simulated, (srcs[k], dsts[k])

    def test_local_ejection_is_one_router_hop(self):
        env = Environment()
        mesh = Mesh2D(env, 3, 3, router_latency=4)
        out = mesh.bulk_uncontended_latencies(
            [(1, 1)], [(1, 1)], size_flits=16)
        assert out.tolist() == [4]

    def test_wide_mesh_batch_shape_and_dtype(self):
        env = Environment()
        mesh = Mesh2D(env, 16, 16)
        rng = np.random.default_rng(0)
        n = 5_000
        srcs = rng.integers(0, 16, (n, 2))
        dsts = rng.integers(0, 16, (n, 2))
        out = mesh.bulk_uncontended_latencies(srcs, dsts, 32)
        assert out.shape == (n,)
        hops = np.abs(srcs - dsts).sum(axis=1)
        np.testing.assert_array_equal(
            out, np.where(hops == 0, 2, hops * 2 + 32))

    def test_rejects_bad_inputs(self):
        env = Environment()
        mesh = Mesh2D(env, 2, 2)
        with pytest.raises(ValueError):
            mesh.bulk_uncontended_latencies([(0, 0)], [(5, 0)], 8)
        with pytest.raises(ValueError):
            mesh.bulk_uncontended_latencies([(0, 0)], [(1, 1)], 0)
        with pytest.raises(ValueError):
            mesh.bulk_uncontended_latencies([(0, 0)], [(1, 1)], 8,
                                            plane="warp")
        with pytest.raises(ValueError):
            mesh.bulk_uncontended_latencies([(0, 0), (1, 1)], [(1, 1)], 8)

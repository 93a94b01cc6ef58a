"""Tests for the content-verified result table behind COMPUTE."""

import hashlib

import numpy as np
import pytest

from repro.accelerators.results import CHUNK_FRAMES, ResultTable
from repro.eval.apps import build_soc1, de_cl_inputs, dataflow_de_cl
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.runtime import EspRuntime, chain
from repro.serve import InferenceServer, TenantConfig, TracedRequest
from tests.conftest import make_runtime, make_spec


def digest(outputs: np.ndarray) -> str:
    return hashlib.blake2b(outputs.tobytes(), digest_size=16).hexdigest()


class TestTake:
    def test_primed_frames_hit_and_match_run(self):
        a, b = make_spec(name="a"), make_spec(name="b")
        frames = np.random.default_rng(0).uniform(0, 1, (40, 16))
        table = ResultTable()
        owner = object()
        table.prime(owner, [[a], [b]], frames)
        for frame in frames:
            mid = table.take(a, frame)
            np.testing.assert_array_equal(mid, a.run(frame))
            np.testing.assert_array_equal(table.take(b, mid),
                                          b.run(a.run(frame)))
        assert (table.hits, table.misses) == (80, 0)
        assert len(table) == 0
        table.drop(owner)
        assert table.primed_plans == 0

    def test_changed_frame_misses_and_uses_arriving_bits(self):
        spec = make_spec()
        frames = np.zeros((4, 16))
        table = ResultTable()
        table.prime("plan", [[spec]], frames)
        corrupted = frames[0].copy()
        corrupted[3] = 0.5
        np.testing.assert_array_equal(table.take(spec, corrupted),
                                      spec.run(corrupted))
        assert table.misses == 1

    def test_unprimed_spec_falls_back(self):
        primed, other = make_spec(name="p"), make_spec(name="o")
        frames = np.ones((2, 16))
        table = ResultTable()
        table.prime("plan", [[primed]], frames)
        np.testing.assert_array_equal(table.take(other, frames[0]),
                                      other.run(frames[0]))
        assert (table.hits, table.misses) == (0, 1)

    def test_duplicate_frames_each_hit(self):
        spec = make_spec()
        frames = np.ones((3, 16))
        table = ResultTable()
        table.prime("plan", [[spec]], frames)
        for frame in frames:
            table.take(spec, frame)
        assert (table.hits, table.misses) == (3, 0)
        assert len(table) == 0

    def test_chunks_are_evaluated_on_demand(self):
        spec = make_spec()
        frames = np.arange(3 * CHUNK_FRAMES * 16, dtype=float).reshape(
            3 * CHUNK_FRAMES, 16)
        table = ResultTable()
        table.prime("plan", [[spec]], frames)
        assert len(table) == 0
        table.take(spec, frames[0])
        assert len(table) == CHUNK_FRAMES - 1

    def test_distinct_sibling_specs_keep_their_frames(self):
        """Frame f runs on sibling f % k; each sibling's rows come from
        its own kernel."""
        p0 = make_spec(name="p0", compute=lambda x: x * 2.0)
        p1 = make_spec(name="p1", compute=lambda x: x * 3.0)
        frames = np.arange(6 * 16, dtype=float).reshape(6, 16)
        table = ResultTable()
        table.prime("plan", [[p0, p1]], frames)
        for index, frame in enumerate(frames):
            spec = (p0, p1)[index % 2]
            np.testing.assert_array_equal(table.take(spec, frame),
                                          spec.run(frame))
        assert table.misses == 0

    def test_kernel_error_raises_at_its_own_frame(self):
        def picky(x):
            if np.any(x[:, 0] > 1.5):
                raise RuntimeError("bad frame")
            return x

        spec = make_spec(compute=picky)
        frames = np.zeros((4, 16))
        frames[2, 0] = 2.0
        table = ResultTable()
        table.prime("plan", [[spec]], frames)
        np.testing.assert_array_equal(table.take(spec, frames[0]),
                                      frames[0])
        np.testing.assert_array_equal(table.take(spec, frames[1]),
                                      frames[1])
        with pytest.raises(RuntimeError, match="bad frame"):
            table.take(spec, frames[2])

    def test_returned_rows_are_private_copies(self):
        a, b = make_spec(name="a"), make_spec(name="b")
        frames = np.zeros((2, 16))
        table = ResultTable()
        table.prime("plan", [[a], [b]], frames)
        mid = table.take(a, frames[0])
        expected = b.run(mid)
        mid += 100.0     # a consumer scribbling on its result
        np.testing.assert_array_equal(table.take(b, frames[0] + 1.0),
                                      expected)
        assert table.misses == 0


class TestFaults:
    def test_dram_bitflip_on_level0_load_misses(self):
        """An upset in a level-0 input makes the denoiser's frame miss;
        the output is the kernels applied to the corrupted bits, with
        the digest recorded before the table existed."""
        frames, _ = de_cl_inputs(4, seed=0)

        def run(plan):
            soc = build_soc1()
            if plan is not None:
                FaultInjector(plan).attach(soc)
            result = EspRuntime(soc).esp_run(dataflow_de_cl(), frames,
                                             mode="pipe")
            return soc, result

        _, clean = run(None)
        soc, flipped = run(FaultPlan(
            [FaultSpec(kind="dram_bitflip", at_cycle=0, count=1)], seed=4))

        assert soc.results.misses >= 1
        assert not np.array_equal(flipped.outputs, clean.outputs)
        assert digest(flipped.outputs) == "06a844d563894dccf792b0ee717b978b"
        assert flipped.cycles == clean.cycles


class TestLifetime:
    def test_empty_after_execute(self):
        runtime = make_runtime([("a0", make_spec(name="a")),
                                ("b0", make_spec(name="b"))])
        frames = np.random.default_rng(1).uniform(0, 1, (8, 16))
        for mode in ("base", "pipe", "p2p"):
            result = runtime.esp_run(chain("df", ["a0", "b0"]), frames,
                                     mode=mode)
            np.testing.assert_array_equal(result.outputs, frames + 2.0)
            table = runtime.soc.results
            assert len(table) == 0 and table.primed_plans == 0
        assert table.hits == 3 * 16 and table.misses == 0

    def test_empty_after_drained_server(self):
        runtime = make_runtime([("a0", make_spec(name="a")),
                                ("b0", make_spec(name="b"))])
        server = InferenceServer(runtime)
        server.register(TenantConfig(name="x", dataflow=chain("x", ["a0"]),
                                     mode="pipe"))
        server.register(TenantConfig(name="y", dataflow=chain("y", ["b0"]),
                                     mode="p2p"))
        rng = np.random.default_rng(2)
        fx, fy = rng.uniform(0, 1, (4, 16)), rng.uniform(0, 1, (4, 16))
        report = server.run_trace([TracedRequest(0, "x", fx),
                                   TracedRequest(0, "y", fy),
                                   TracedRequest(5_000, "x", fy)])
        assert len(report.completions) == 3
        table = runtime.soc.results
        assert len(table) == 0 and table.primed_plans == 0
        assert table.hits > 0

    def test_empty_after_aborted_plan(self):
        runtime = make_runtime([("a0", make_spec(name="a", latency=500)),
                                ("b0", make_spec(name="b", latency=500))])
        env = runtime.soc.env
        frames = np.random.default_rng(3).uniform(0, 1, (8, 16))
        run = env.process(runtime.executor.run_process(
            chain("df", ["a0", "b0"]), frames, "pipe"), name="doomed")
        run.__sim_defused__ = True
        env.run(until=3_000)
        table = runtime.soc.results
        assert table.primed_plans == 1 and len(table) > 0
        run.interrupt("cancelled")
        env.run()
        assert len(table) == 0 and table.primed_plans == 0
        assert runtime.allocator.free_list_words == 0

"""Tests for per-tile DVFS (clock dividers)."""

import numpy as np
import pytest

from repro.platforms import soc_power_watts, soc_power_watts_dvfs
from repro.runtime import chain
from tests.conftest import make_runtime, make_spec


def slack_pipeline():
    """Producer 8x slower than consumer: the consumer has slack."""
    return [("slow0", make_spec(name="slow", input_words=8,
                                output_words=8, latency=1600)),
            ("fast0", make_spec(name="fast", input_words=8,
                                output_words=8, latency=200))]


class TestDvfsExecution:
    def test_outputs_unchanged(self, rng):
        frames = rng.uniform(0, 1, (6, 8))
        outs = {}
        for dvfs in (None, {"fast0": 4}):
            rt = make_runtime(slack_pipeline())
            outs[bool(dvfs)] = rt.esp_run(
                chain("sf", ["slow0", "fast0"]), frames, mode="p2p",
                dvfs=dvfs).outputs
        np.testing.assert_array_equal(outs[False], outs[True])

    def test_divider_stretches_compute(self, rng):
        frames = rng.uniform(0, 1, (4, 8))
        cycles = {}
        for divider in (1, 4):
            rt = make_runtime([("a0", make_spec(latency=1000))])
            from repro.runtime import Dataflow
            cycles[divider] = rt.esp_run(
                Dataflow(name="a", devices=["a0"]),
                rng.uniform(0, 1, (4, 16)), mode="base",
                dvfs={"a0": divider}).cycles
        # 4 frames x 1000 extra latency x (4-1) divider steps.
        assert cycles[4] - cycles[1] == pytest.approx(4 * 3000, rel=0.05)

    def test_slack_absorbs_divider(self, rng):
        """Slowing the underutilized stage barely moves throughput."""
        frames = rng.uniform(0, 1, (8, 8))
        fps = {}
        for dvfs in (None, {"fast0": 4}):
            rt = make_runtime(slack_pipeline())
            fps[bool(dvfs)] = rt.esp_run(
                chain("sf", ["slow0", "fast0"]), frames, mode="p2p",
                dvfs=dvfs).frames_per_second
        assert fps[True] > 0.95 * fps[False]

    def test_unknown_device_rejected(self, rng):
        rt = make_runtime(slack_pipeline())
        with pytest.raises(ValueError, match="not in"):
            rt.esp_run(chain("sf", ["slow0", "fast0"]),
                       rng.uniform(0, 1, (4, 8)), mode="p2p",
                       dvfs={"ghost": 2})

    def test_invalid_divider_rejected(self, rng):
        rt = make_runtime(slack_pipeline())
        with pytest.raises(ValueError, match=">= 1"):
            rt.esp_run(chain("sf", ["slow0", "fast0"]),
                       rng.uniform(0, 1, (4, 8)), mode="p2p",
                       dvfs={"fast0": 0})


class TestDvfsPower:
    def test_divider_reduces_power(self):
        rt = make_runtime(slack_pipeline())
        full = soc_power_watts_dvfs(rt.soc, {})
        slowed = soc_power_watts_dvfs(rt.soc, {"fast0": 4})
        assert slowed < full

    def test_no_dividers_matches_plain_model(self):
        rt = make_runtime(slack_pipeline())
        assert soc_power_watts_dvfs(rt.soc, {}) == pytest.approx(
            soc_power_watts(rt.soc), rel=1e-9)

    def test_energy_efficiency_improves_with_slack(self, rng):
        """The classic DVFS result: slow the idle stage, same fps,
        less power, better frames/J. The fast stage here is a big
        datapath (a power hog worth slowing); enough frames amortize
        the pipeline drain."""
        from repro.accelerators import AcceleratorSpec
        from repro.hls import ResourceEstimate

        def hog_pipeline():
            hog = AcceleratorSpec(
                name="hog", input_words=8, output_words=8,
                compute=lambda x: x + 1.0,
                latency_cycles=200, interval_cycles=200,
                resources=ResourceEstimate(luts=200_000, ffs=150_000,
                                           brams=300, dsps=2_000))
            return [("slow0", make_spec(name="slow", input_words=8,
                                        output_words=8, latency=1600)),
                    ("fast0", hog)]

        frames = rng.uniform(0, 1, (32, 8))
        fpj = {}
        for key, dvfs in (("full", None), ("dvfs", {"fast0": 4})):
            rt = make_runtime(hog_pipeline())
            result = rt.esp_run(chain("sf", ["slow0", "fast0"]), frames,
                                mode="p2p", dvfs=dvfs)
            watts = soc_power_watts_dvfs(rt.soc, dvfs or {})
            fpj[key] = result.frames_per_second / watts
        assert fpj["dvfs"] > 1.1 * fpj["full"]

    def test_bad_divider_in_power_model(self):
        rt = make_runtime(slack_pipeline())
        with pytest.raises(ValueError):
            soc_power_watts_dvfs(rt.soc, {"fast0": 0})

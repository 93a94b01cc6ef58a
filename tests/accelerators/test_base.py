"""Tests for the accelerator spec interface."""

import numpy as np
import pytest

from repro.accelerators import AcceleratorSpec, chain_specs
from tests.conftest import make_spec


class TestSpecValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            make_spec(input_words=0)
        with pytest.raises(ValueError):
            make_spec(output_words=0)

    def test_rejects_bad_timing(self):
        with pytest.raises(ValueError):
            make_spec(latency=0)
        with pytest.raises(ValueError):
            make_spec(interval=0)

    def test_rejects_bad_word_width(self):
        with pytest.raises(ValueError):
            make_spec(word_bits=12)

    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError):
            AcceleratorSpec(name="x", input_words=4, output_words=4,
                            compute=lambda x: x, latency_cycles=1,
                            interval_cycles=1, design_flow="chisel")


class TestRun:
    def test_checks_input_size(self):
        spec = make_spec(input_words=8)
        with pytest.raises(ValueError):
            spec.run(np.zeros(7))

    def test_checks_output_size(self):
        spec = make_spec(input_words=4, output_words=4,
                         compute=lambda x: np.zeros((len(x), 3)))
        with pytest.raises(ValueError):
            spec.run(np.zeros(4))

    def test_flattens_input(self):
        spec = make_spec(input_words=4, output_words=4)
        out = spec.run(np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.ones(4))

    def test_plm_words(self):
        spec = make_spec(input_words=10, output_words=6)
        assert spec.plm_words == 16


class TestChain:
    def test_chained_compute_composes(self):
        a = make_spec(name="a", input_words=4, output_words=4)
        b = make_spec(name="b", input_words=4, output_words=4)
        fused = chain_specs("ab", [a, b])
        out = fused.run(np.zeros(4))
        np.testing.assert_array_equal(out, np.full(4, 2.0))

    def test_latency_adds(self):
        a = make_spec(name="a", latency=100, interval=100)
        b = make_spec(name="b", latency=50, interval=50)
        fused = chain_specs("ab", [a, b])
        assert fused.latency_cycles == 150
        assert fused.interval_cycles == 150

    def test_resources_add(self):
        a, b = make_spec(name="a"), make_spec(name="b")
        fused = chain_specs("ab", [a, b])
        assert fused.resources.luts == a.resources.luts + b.resources.luts

    def test_geometry_mismatch_rejected(self):
        a = make_spec(name="a", output_words=4)
        b = make_spec(name="b", input_words=8, output_words=8)
        with pytest.raises(ValueError):
            chain_specs("ab", [a, b])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_specs("none", [])

"""Tests for the last-level cache and LLC-coherent DMA."""

import numpy as np
import pytest

from repro.runtime import EspRuntime, chain
from repro.soc import LastLevelCache, SoCConfig, build_soc
from tests.conftest import make_spec


class TestCacheModel:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            LastLevelCache(capacity_words=8, line_words=16, ways=8)
        with pytest.raises(ValueError):
            LastLevelCache(capacity_words=1000, line_words=16, ways=8)

    def test_miss_then_hit(self):
        llc = LastLevelCache(capacity_words=1024, line_words=16, ways=4)
        hit, _ = llc.access_line(0, write=False)
        assert not hit
        hit, _ = llc.access_line(0, write=False)
        assert hit
        assert llc.hits == 1 and llc.misses == 1

    def test_lru_eviction(self):
        llc = LastLevelCache(capacity_words=128, line_words=16, ways=2)
        # One set (128/(16*2) = 4 sets); use lines mapping to set 0.
        lines = [0, 4, 8]   # all map to set 0 with 4 sets
        llc.access_line(lines[0], write=False)
        llc.access_line(lines[1], write=False)
        llc.access_line(lines[2], write=False)   # evicts line 0
        hit, _ = llc.access_line(lines[0], write=False)
        assert not hit
        assert llc.evictions >= 1

    def test_dirty_eviction_writes_back(self):
        llc = LastLevelCache(capacity_words=128, line_words=16, ways=2)
        llc.access_line(0, write=True)    # dirty
        llc.access_line(4, write=False)
        _, writeback = llc.access_line(8, write=False)  # evicts dirty 0
        assert writeback
        assert llc.writebacks == 1

    def test_flush_counts_dirty_lines(self):
        llc = LastLevelCache(capacity_words=1024, line_words=16, ways=4)
        llc.access_line(0, write=True)
        llc.access_line(1, write=False)
        assert llc.flush() == 1
        assert llc.resident_lines == 0

    def test_lines_of(self):
        llc = LastLevelCache(capacity_words=1024, line_words=16, ways=4)
        assert list(llc.lines_of(0, 16)) == [0]
        assert list(llc.lines_of(8, 16)) == [0, 1]
        assert len(list(llc.lines_of(0, 256))) == 16

    def test_hit_rate(self):
        llc = LastLevelCache(capacity_words=1024, line_words=16, ways=4)
        assert llc.hit_rate == 0.0
        llc.access_line(0, write=False)
        llc.access_line(0, write=False)
        assert llc.hit_rate == 0.5

    def test_writeback_accounting_across_evictions(self):
        """Every dirty eviction is one writeback; clean evictions are
        free, and a flush never double-counts a line already written
        back by an eviction."""
        llc = LastLevelCache(capacity_words=32, line_words=16, ways=2)
        # Single set (32 / (16*2)): every line aliases into it.
        llc.access_line(0, write=True)    # dirty
        llc.access_line(1, write=True)    # dirty
        _, wb = llc.access_line(2, write=False)   # evicts dirty 0
        assert wb and llc.writebacks == 1
        _, wb = llc.access_line(3, write=False)   # evicts dirty 1
        assert wb and llc.writebacks == 2
        _, wb = llc.access_line(4, write=False)   # evicts clean 2
        assert not wb and llc.writebacks == 2
        assert llc.evictions == 3
        # Lines 3 (clean) and 4 (clean) remain: nothing left to flush.
        assert llc.flush() == 0
        assert llc.writebacks == 2

    def test_rewritten_line_stays_dirty_until_written_back(self):
        """A read hit must not launder a dirty line clean."""
        llc = LastLevelCache(capacity_words=32, line_words=16, ways=2)
        llc.access_line(0, write=True)
        llc.access_line(0, write=False)   # read hit on the dirty line
        llc.access_line(1, write=False)
        _, wb = llc.access_line(2, write=False)   # evicts line 0
        assert wb and llc.writebacks == 1

    def test_line_granularity_aliasing(self):
        """Word addresses within one line are the same cache entry:
        two accelerators' buffers that straddle a line boundary share
        (and fight over) the boundary line."""
        llc = LastLevelCache(capacity_words=1024, line_words=16, ways=4)
        # Buffer A = words [0, 24), buffer B = words [24, 48): line 1
        # (words 16..31) belongs to both.
        a_lines = set(llc.lines_of(0, 24))
        b_lines = set(llc.lines_of(24, 24))
        assert a_lines == {0, 1}
        assert b_lines == {1, 2}
        assert a_lines & b_lines == {1}
        # A misses line 1 in; B's first touch of line 1 is then a hit.
        for line in sorted(a_lines):
            hit, _ = llc.access_line(line, write=True)
            assert not hit
        hit, _ = llc.access_line(1, write=False)
        assert hit

    def test_capacity_boundary_lru(self):
        """Filling a set exactly to ``ways`` evicts nothing; the next
        distinct line evicts the least-recently-*used* way, honouring
        hits as recency updates."""
        llc = LastLevelCache(capacity_words=64, line_words=16, ways=4)
        for line in (0, 1, 2, 3):      # single set, exactly full
            llc.access_line(line, write=False)
        assert llc.evictions == 0
        assert llc.resident_lines == 4
        llc.access_line(0, write=False)   # refresh 0: LRU is now 1
        llc.access_line(4, write=False)   # evicts line 1, not 0
        assert llc.evictions == 1
        hit, _ = llc.access_line(0, write=False)
        assert hit
        hit, _ = llc.access_line(1, write=False)
        assert not hit


def coherent_soc(llc_words=1 << 14):
    config = SoCConfig(cols=4, rows=2, name="coh")
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=1 << 16, llc_words=llc_words)
    config.add_aux((2, 0))
    spec = make_spec(input_words=256, output_words=256, latency=50)
    config.add_accelerator((3, 0), "a0", spec)
    config.add_accelerator((0, 1), "b0", spec)
    return build_soc(config)


class TestCoherentDma:
    def test_results_identical_to_non_coherent(self, rng):
        frames = rng.uniform(0, 1, (8, 256))
        outs = {}
        for coherence in ("non-coherent", "llc-coherent"):
            rt = EspRuntime(coherent_soc())
            result = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                                mode="pipe", coherence=coherence)
            outs[coherence] = result.outputs
        np.testing.assert_array_equal(outs["non-coherent"],
                                      outs["llc-coherent"])

    def test_llc_absorbs_intermediate_traffic(self, rng):
        """The working set fits: the intermediate frame round trip
        stays in the LLC, cutting DRAM accesses like p2p does (this is
        why the paper's related work calls LLC-coherent DMA 'the most
        efficient model for non-trivial workloads')."""
        frames = rng.uniform(0, 1, (8, 256))
        dram = {}
        for coherence in ("non-coherent", "llc-coherent"):
            rt = EspRuntime(coherent_soc())
            result = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                                mode="pipe", coherence=coherence)
            dram[coherence] = result.dram_accesses
        assert dram["llc-coherent"] < dram["non-coherent"]

    def test_llc_thrashes_when_working_set_exceeds_capacity(self, rng):
        """A tiny LLC cannot hold the stream: DRAM traffic returns."""
        frames = rng.uniform(0, 1, (8, 256))

        def run(llc_words):
            rt = EspRuntime(coherent_soc(llc_words=llc_words))
            return rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                              mode="pipe",
                              coherence="llc-coherent").dram_accesses

        assert run(1 << 14) < run(256)

    def test_coherent_flag_without_llc_degrades_gracefully(self, rng):
        rt = EspRuntime(coherent_soc(llc_words=0))
        frames = rng.uniform(0, 1, (4, 256))
        result = rt.esp_run(chain("ab", ["a0", "b0"]), frames,
                            mode="pipe", coherence="llc-coherent")
        np.testing.assert_allclose(result.outputs, frames + 2.0)

    def test_llc_stats_populated(self, rng):
        soc = coherent_soc()
        rt = EspRuntime(soc)
        frames = rng.uniform(0, 1, (8, 256))
        rt.esp_run(chain("ab", ["a0", "b0"]), frames, mode="pipe",
                   coherence="llc-coherent")
        llc = soc.memory_map.tiles[0].llc
        stats = llc.stats()
        assert stats["hits"] > 0
        assert stats["misses"] > 0

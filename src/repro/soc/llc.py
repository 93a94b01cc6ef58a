"""Last-level cache model for LLC-coherent DMA.

ESP accelerators choose among cache-coherence models at run time
(Giri et al. [12], [14], cited by the paper): non-coherent DMA goes
straight to DRAM; LLC-coherent DMA allocates in a shared last-level
cache at the memory tile, which absorbs inter-accelerator traffic
whose working set fits. The paper's p2p service competes with exactly
this mechanism, so the reproduction models it: the coherence ablation
bench compares non-coherent DMA vs LLC-coherent DMA vs p2p.

The model is a set-associative write-back cache with LRU replacement,
tracked at cache-line granularity over the memory tile's word space.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple


class LastLevelCache:
    """Set-associative LRU cache over word addresses."""

    def __init__(self, capacity_words: int = 1 << 16,
                 line_words: int = 16, ways: int = 8,
                 hit_latency: int = 6) -> None:
        if capacity_words < line_words * ways:
            raise ValueError(
                f"capacity {capacity_words} below one set "
                f"({line_words} x {ways})")
        if capacity_words % (line_words * ways):
            raise ValueError("capacity must be a whole number of sets")
        self.capacity_words = capacity_words
        self.line_words = line_words
        self.ways = ways
        self.hit_latency = hit_latency
        self.n_sets = capacity_words // (line_words * ways)
        # Per set: line_tag -> dirty flag, in LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def lines_of(self, offset: int, n_words: int) -> range:
        """Line numbers a [offset, offset+n) access touches."""
        first = offset // self.line_words
        last = (offset + n_words - 1) // self.line_words
        return range(first, last + 1)

    def access_line(self, line: int, write: bool) -> Tuple[bool, bool]:
        """Touch one line; returns (hit, writeback_needed)."""
        cache_set = self._sets[line % self.n_sets]
        writeback = False
        if line in cache_set:
            self.hits += 1
            cache_set[line] = cache_set[line] or write
            cache_set.move_to_end(line)
            return True, False
        self.misses += 1
        if len(cache_set) >= self.ways:
            _, dirty = cache_set.popitem(last=False)   # evict LRU
            self.evictions += 1
            if dirty:
                self.writebacks += 1
                writeback = True
        cache_set[line] = write
        return False, writeback

    def flush(self) -> int:
        """Write back every dirty line; returns the writeback count."""
        count = 0
        for cache_set in self._sets:
            for line, dirty in cache_set.items():
                if dirty:
                    count += 1
            cache_set.clear()
        self.writebacks += count
        return count

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "resident_lines": self.resident_lines}

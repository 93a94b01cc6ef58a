"""SoC performance monitors (ESP's hardware counters, aggregated).

ESP instruments tiles with performance counters; the infrastructure
papers the DATE paper builds on read them out for DVFS and traffic
studies. This module gathers every counter the simulated SoC keeps —
per-accelerator activity, DMA engine traffic, TLB behaviour, memory
bandwidth, LLC statistics and NoC link utilization — into one
monitor report.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional

from .soc_builder import SoCInstance


@dataclass(frozen=True)
class MemoryCounters:
    coord: tuple
    words_read: int
    words_written: int
    load_transactions: int
    store_transactions: int
    llc_hits: Optional[int]
    llc_misses: Optional[int]
    llc_writebacks: Optional[int]


@dataclass(frozen=True)
class MonitorReport:
    """One snapshot of every hardware counter in the SoC."""

    elapsed_cycles: int
    clock_mhz: float
    accelerators: List[AcceleratorCounters]
    memories: List[MemoryCounters]
    noc_flit_hops: int
    noc_packets: int
    noc_plane_flits: Dict[str, int]
    busiest_link: Optional[str]

    @property
    def total_dram_words(self) -> int:
        return sum(m.words_read + m.words_written for m in self.memories)

    def dram_bandwidth_words_per_cycle(self) -> float:
        if self.elapsed_cycles == 0:
            return 0.0
        return self.total_dram_words / self.elapsed_cycles

    def to_text(self) -> str:
        lines = [
            f"== SoC monitors @ cycle {self.elapsed_cycles:,} "
            f"({self.clock_mhz} MHz) ==",
            f"{'device':<12}{'invk':>6}{'frames':>8}{'busy%':>7}"
            f"{'ld':>6}{'st':>6}{'p2p-ld':>8}{'p2p-st':>8}"
            f"{'tlb h/m':>12}",
        ]
        for acc in self.accelerators:
            lines.append(
                f"{acc.device:<12}{acc.invocations:>6}{acc.frames:>8}"
                f"{acc.utilization:>7.0%}{acc.dma_loads:>6}"
                f"{acc.dma_stores:>6}{acc.p2p_loads:>8}"
                f"{acc.p2p_stores:>8}"
                f"{f'{acc.tlb_hits}/{acc.tlb_misses}':>12}")
        for mem in self.memories:
            llc = ""
            if mem.llc_hits is not None:
                llc = (f"   LLC h/m/wb: {mem.llc_hits}/{mem.llc_misses}"
                       f"/{mem.llc_writebacks}")
            lines.append(
                f"memory {mem.coord}: {mem.words_read:,} read, "
                f"{mem.words_written:,} written{llc}")
        lines.append(
            f"NoC: {self.noc_packets:,} packets, "
            f"{self.noc_flit_hops:,} flit-hops; busiest link "
            f"{self.busiest_link}")
        lines.append(
            f"DRAM bandwidth: "
            f"{self.dram_bandwidth_words_per_cycle():.3f} words/cycle")
        return "\n".join(lines)


@dataclass(frozen=True)
class TileActivity:
    """Per-accelerator activity counters (cumulative, or between two
    snapshots).

    The serving layer's attribution primitive: the tile arbiter grants
    a tenant exclusive tiles, so the counter delta between grant and
    release is exactly that tenant's hardware activity — no sampling,
    no estimation.
    """

    device: str
    invocations: int
    frames: int
    busy_cycles: int
    dma_loads: int
    dma_stores: int
    p2p_loads: int
    p2p_stores: int
    words_loaded: int
    words_stored: int

    def __add__(self, other: "TileActivity") -> "TileActivity":
        if other.device != self.device:
            raise ValueError(f"cannot add activity of {self.device!r} "
                             f"and {other.device!r}")
        return _fieldwise(operator.add, self, other)


@dataclass(frozen=True)
class AcceleratorCounters(TileActivity):
    """A tile's activity plus its utilization and TLB counters."""

    utilization: float
    tlb_hits: int
    tlb_misses: int


def _fieldwise(op, end, start, **fixed):
    """``op`` applied field by field to two counter records of one unit.

    Integer fields combine (a ``None`` in ``start`` counts as zero);
    the others (names, coordinates, an absent LLC's ``None``) keep
    ``end``'s value. ``fixed`` sets fields that do not combine, such
    as a recomputed utilization.
    """
    for field_ in fields(end):
        value = getattr(end, field_.name)
        if field_.name not in fixed and isinstance(value, int):
            fixed[field_.name] = op(value,
                                    getattr(start, field_.name) or 0)
    return replace(end, **fixed)


def _activity(tile) -> dict:
    """One read of a tile's activity counters (TileActivity's fields)."""
    dma = tile.dma
    return dict(invocations=len(tile.invocations),
                frames=tile.frames_processed,
                busy_cycles=tile.busy_cycles,
                dma_loads=dma.dma_loads, dma_stores=dma.dma_stores,
                p2p_loads=dma.p2p_loads, p2p_stores=dma.p2p_stores,
                words_loaded=dma.words_loaded,
                words_stored=dma.words_stored)


def tile_activity(soc: SoCInstance, names) -> Dict[str, TileActivity]:
    """Snapshot the activity counters of the named accelerator tiles."""
    out: Dict[str, TileActivity] = {}
    for name in names:
        if name not in soc.accelerators:
            raise KeyError(f"unknown accelerator {name!r}; options: "
                           f"{sorted(soc.accelerators)}")
        out[name] = TileActivity(device=name,
                                 **_activity(soc.accelerators[name]))
    return out


def _matched(before, after, key, what: str):
    """``(end, start)`` pairs of two snapshots' records, by ``key``."""
    starts = {key(record): record for record in before}
    for end in after:
        start = starts.get(key(end))
        if start is None:
            raise KeyError(f"no 'before' snapshot for {what} "
                           f"{key(end)!r}")
        yield end, start


def activity_delta(before: Dict[str, TileActivity],
                   after: Dict[str, TileActivity]
                   ) -> Dict[str, TileActivity]:
    """Counter-wise ``after - before`` over matching devices."""
    return {end.device: _fieldwise(operator.sub, end, start)
            for end, start in _matched(before.values(), after.values(),
                                       lambda a: a.device, "device")}


def monitor_delta(before: MonitorReport,
                  after: MonitorReport) -> MonitorReport:
    """Counter-wise ``after - before``: the activity of one interval.

    Back-to-back pipelines on one SoC share cumulative counters; the
    delta of two :func:`read_monitors` snapshots attributes activity to
    the run between them. Utilization is recomputed from the busy-cycle
    delta over the elapsed-cycle delta.
    """
    elapsed = after.elapsed_cycles - before.elapsed_cycles
    if elapsed < 0:
        raise ValueError("'after' snapshot precedes 'before'")
    accelerators = []
    for end, start in _matched(before.accelerators, after.accelerators,
                               lambda a: a.device, "device"):
        busy = end.busy_cycles - start.busy_cycles
        accelerators.append(_fieldwise(
            operator.sub, end, start,
            utilization=busy / elapsed if elapsed else 0.0))
    memories = [_fieldwise(operator.sub, end, start)
                for end, start in _matched(before.memories, after.memories,
                                           lambda m: m.coord, "memory")]
    plane_flits = {name: after.noc_plane_flits.get(name, 0)
                   - before.noc_plane_flits.get(name, 0)
                   for name in after.noc_plane_flits}
    return _fieldwise(operator.sub, after, before,
                      clock_mhz=after.clock_mhz,
                      accelerators=accelerators, memories=memories,
                      noc_plane_flits=plane_flits)


def read_monitors(soc: SoCInstance) -> MonitorReport:
    """Snapshot every counter of the SoC."""
    accelerators = []
    for name in sorted(soc.accelerators):
        tile = soc.accelerators[name]
        tlb_stats = tile.dma.tlb.stats()
        accelerators.append(AcceleratorCounters(
            device=name, **_activity(tile),
            utilization=tile.utilization(),
            tlb_hits=tlb_stats["hits"], tlb_misses=tlb_stats["misses"]))
    memories = []
    for tile in soc.memory_map.tiles:
        llc = tile.llc
        memories.append(MemoryCounters(
            coord=tile.coord,
            words_read=tile.words_read,
            words_written=tile.words_written,
            load_transactions=tile.load_transactions,
            store_transactions=tile.store_transactions,
            llc_hits=llc.hits if llc else None,
            llc_misses=llc.misses if llc else None,
            llc_writebacks=llc.writebacks if llc else None,
        ))
    busiest = soc.mesh.busiest_links(top=1)
    busiest_label = None
    if busiest and busiest[0].flits_carried > 0:
        link = busiest[0]
        busiest_label = (f"{link.src}->{link.dst}@{link.plane} "
                         f"({link.flits_carried:,} flits)")
    return MonitorReport(
        elapsed_cycles=soc.env.now,
        clock_mhz=soc.clock_mhz,
        accelerators=accelerators,
        memories=memories,
        noc_flit_hops=soc.mesh.flit_hops,
        noc_packets=soc.mesh.packets_delivered,
        noc_plane_flits=soc.mesh.plane_flits(),
        busiest_link=busiest_label,
    )

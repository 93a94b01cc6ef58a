"""Scrape-time collectors: hardware counters -> registry series.

The simulated hardware counts its own events: the mesh its packets and
flit-hops per plane; each socket its DMA transactions and words,
stalls, wrapper phases, progress heartbeat, invocations, crashes and
resets; links and tiles their busy cycles. Recording them again per
event would count everything twice, so the SoC families are written
from those counters by collectors: callables registered on the
:class:`MetricsRegistry` that run whenever somebody reads it (an
exporter, the health monitor, the dashboard). A
:class:`MetricsSampler` tick only triggers those readers and scrapes
nothing itself. Software layers (serve, runtime, control) record
inline. A SoC event series counts what happened after its collector
was registered, and appears with its first event after that.

Collectors read simulation state and write registry series; they must
never schedule events or advance the clock — they run outside the
timing model entirely, like reading ESP's status registers over the
slow IO plane after the fact.
"""

from __future__ import annotations

from .registry import MetricsRegistry, attach_metrics


def _event_counts(prefix, tables):
    """A scrape function for series derived from hardware event counts.

    Each table is ``(family, events, values)``: two dicts keyed by the
    last label value, holding how many events each series counts and
    what it shows (often the same dict). A series is bound the first
    time its event count moves past the baseline read here, and then
    shows its value less the baseline value. A table whose events did
    not move since the previous scrape costs one dict comparison.
    """
    state = [(family, events, values, dict(events), dict(values),
              dict(events), {}) for family, events, values in tables]

    def scrape() -> None:
        for family, events, values, base, offset, last, bound in state:
            if events == last:
                continue
            last.update(events)
            for key, n in events.items():
                if n != base[key]:
                    series = bound.get(key)
                    if series is None:
                        series = bound[key] = family.labels(*prefix, key)
                    series.value = values[key] - offset[key]

    return scrape


def _mesh_counts(registry: MetricsRegistry, mesh):
    """The NoC packet families, per plane (every event adds at least
    one packet or flit-hop, so each count is its own event count)."""
    return _event_counts((), [(family, counts, counts) for family, counts in (
        (registry.noc_packets, mesh.delivered_by_plane),
        (registry.noc_flits, mesh.flit_hops_by_plane),
        (registry.noc_dropped, mesh.dropped_by_plane),
        (registry.noc_corrupted, mesh.corrupted_by_plane))])


def _socket_counts(registry: MetricsRegistry, name: str, tile, gauges):
    """One socket's series: its occupancy ``gauges`` (busy cycles,
    utilization, status), the DMA and accelerator families, and the
    ``acc_invocation_cycles`` histogram from its invocation log."""
    dma = tile.dma
    busy, util, status = (family.labels(name) for family in gauges)
    tables = _event_counts((name,), [
        (registry.dma_transactions, dma.transactions, dma.transactions),
        (registry.dma_words, dma.transactions, dma.transaction_words),
        (registry.acc_phase_cycles, dma.phases_done, dma.phase_cycles)])
    # The socket's scalar counters and their families. Every phase
    # (each transaction ends one in the same step) and invocation also
    # beats the heartbeat, so the counters stand still while the socket
    # does: an idle socket costs one tuple comparison.
    scalars = (registry.acc_invocations, registry.dma_stalls,
               registry.acc_crashes, registry.acc_resets,
               registry.acc_last_progress)

    def read():
        return (len(tile.invocations), dma.stalls, tile.kernel_crashes,
                tile.resets, dma.heartbeats)

    base = last = read()
    bound = [None] * len(scalars)
    latency = registry.acc_invocation_cycles

    def scrape() -> None:
        nonlocal last
        busy.value = tile.busy_cycles
        util.value = round(tile.utilization(), 6)
        status.value = tile.status
        now = read()
        if now == last:
            return
        tables()
        for index, n in enumerate(now):
            if n != base[index]:
                series = bound[index]
                if series is None:
                    series = bound[index] = scalars[index].labels(name)
                series.value = n - base[index]
        if bound[-1] is not None:
            # The heartbeat's gauge shows the cycle of the last beat.
            bound[-1].value = dma.last_progress
        if now[0] > last[0]:
            series = latency.labels(name)
            for result in tile.invocations[last[0]:]:
                series.observe(result.cycles)
        last = now

    return scrape


def register_soc_collectors(registry: MetricsRegistry, soc) -> None:
    """Wire a built SoC's hardware counters into the registry.

    Writes the NoC, DMA and accelerator families, and adds gauges for
    per-link occupancy (busy cycles + utilization, labeled by link
    endpoints and plane), per-accelerator occupancy (busy cycles,
    utilization, live ``STATUS_REG`` value), and memory traffic (words
    read/written per run so far).
    """
    link_busy = registry.gauge(
        "noc_link_busy_cycles", "Cycles each link channel was held",
        ("link", "plane"))
    link_util = registry.gauge(
        "noc_link_utilization",
        "Busy fraction of each link channel since boot (0..1)",
        ("link", "plane"))
    acc_busy = registry.gauge(
        "acc_busy_cycles", "Cycles each accelerator spent in the "
        "wrapper (completed invocations)", ("device",))
    acc_util = registry.gauge(
        "acc_utilization",
        "Busy fraction of each accelerator since boot (0..1)",
        ("device",))
    acc_status = registry.gauge(
        "acc_status", "Live STATUS_REG value (0 idle, 1 running, "
        "2 done, 3 error)", ("device",))
    mem_read = registry.gauge(
        "mem_words_read", "Words read from the memory tiles").labels()
    mem_written = registry.gauge(
        "mem_words_written", "Words written to the memory tiles").labels()

    # Series are resolved once, not per scrape. The mesh queues each
    # link the first time it carries a packet, and link counters only
    # grow, so a link exposed once stays exposed: a scrape binds the
    # links queued since the last one and never visits an idle link.
    # Sound because ``soc.accelerators`` is fixed after build.
    queued = soc.mesh.live_links
    live_links = []   # (channel, busy series, utilization series)
    memory = soc.memory_map
    noc = _mesh_counts(registry, soc.mesh)
    sockets = [_socket_counts(registry, name, tile,
                              (acc_busy, acc_util, acc_status))
               for name, tile in soc.accelerators.items()]

    def scrape(reg: MetricsRegistry) -> None:
        noc()
        for link in queued[len(live_links):]:
            src, dst = link.src, link.dst
            label = f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"
            live_links.append((link.channel,
                               link_busy.labels(label, link.plane),
                               link_util.labels(label, link.plane)))
        for channel, busy, util in live_links:
            busy.value = channel.busy_cycles
            util.value = round(channel.utilization(), 6)
        for socket in sockets:
            socket()
        mem_read.value = memory.words_read
        mem_written.value = memory.words_written

    registry.register_collector(scrape)


def register_server_collectors(registry: MetricsRegistry,
                               server) -> None:
    """Wire an :class:`InferenceServer`'s queue state into gauges."""
    peak = registry.gauge(
        "serve_queue_peak_depth",
        "Deepest the request queue has been this run").labels()
    tenant_depth = registry.gauge(
        "serve_tenant_queue_depth", "Requests queued per tenant",
        ("tenant",))
    depth = registry.serve_queue_depth.labels()
    queue = server.queue

    def scrape(reg: MetricsRegistry) -> None:
        depth.value = queue.depth
        peak.value = queue.peak_depth
        for tenant in queue.tenants:
            tenant_depth.labels(tenant).value = queue.tenant_depth(tenant)

    registry.register_collector(scrape)


def instrument_server(server) -> MetricsRegistry:
    """One-call setup for serving: attach + SoC + server collectors.

    Idempotent on the registry itself, but calling it twice would
    register the collectors twice — call once per server.
    """
    registry = attach_metrics(server.env)
    register_soc_collectors(registry, server.soc)
    register_server_collectors(registry, server)
    return registry

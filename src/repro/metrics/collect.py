"""Scrape-time collectors: hardware counters -> registry gauges.

The hot-path instrumentation in :mod:`repro.metrics.registry` covers
*events* (a packet delivered, a request admitted). Occupancy-style
state — how busy each link is, what each accelerator's status register
reads, how many words memory has moved — already lives in the
simulated hardware's own counters; re-recording it per event would
duplicate work the sockets do anyway. Collectors bridge the two
worlds: callables registered on the :class:`MetricsRegistry` that copy
those counters into gauges whenever somebody reads them (an exporter,
the health monitor, the dashboard). A :class:`MetricsSampler` tick
only triggers those readers and scrapes nothing itself.

Collectors read simulation state and write registry series; they must
never schedule events or advance the clock — they run outside the
timing model entirely, like reading ESP's status registers over the
slow IO plane after the fact.
"""

from __future__ import annotations

from .registry import MetricsRegistry, attach_metrics


def register_soc_collectors(registry: MetricsRegistry, soc) -> None:
    """Wire a built SoC's hardware counters into scrape-time gauges.

    Adds gauges for per-link occupancy (busy cycles + utilization,
    labeled by link endpoints and plane), per-accelerator occupancy
    (busy cycles, utilization, live ``STATUS_REG`` value), and memory
    traffic (words read/written per run so far).
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
    devices = [(tile, acc_busy.labels(name), acc_util.labels(name),
                acc_status.labels(name))
               for name, tile in soc.accelerators.items()]
    memory = soc.memory_map

    def scrape(reg: MetricsRegistry) -> None:
        for link in queued[len(live_links):]:
            src, dst = link.src, link.dst
            label = f"{src[0]},{src[1]}->{dst[0]},{dst[1]}"
            live_links.append((link.channel,
                               link_busy.labels(label, link.plane),
                               link_util.labels(label, link.plane)))
        for channel, busy, util in live_links:
            busy.value = channel.busy_cycles
            util.value = round(channel.utilization(), 6)
        for tile, busy, util, status in devices:
            busy.value = tile.busy_cycles
            util.value = round(tile.utilization(), 6)
            status.value = tile.status
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

"""What one sampler tick costs, and that the cheap scrape changes nothing.

A sampler is a clock: its callback (typically ``HealthMonitor.evaluate``)
refreshes the collector-backed gauges itself, so a tick costs exactly
one scrape. The SoC collectors bind each series once and walk only the
links that have carried traffic (the mesh queues a link the first time
it carries a packet, so a scrape never visits an idle one); the
differential test below replays
the straightforward algorithm (walk every link, skip the untouched
ones, format the labels) at every tick and demands the same snapshot.
The pinned digests cover a whole observed fleet (alerts, control
actions, metrics and ring-tracer records) and a faulted serving SoC
observed from its second run on (registry snapshots at every sampler
tick); both must stay bit-identical.
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np

from repro.control import ControlConfig, ControlPlane
from repro.eval import build_soc1
from repro.eval.apps import classifier_inputs, dataflow_nv_cl, nv_cl_inputs
from repro.eval.chaos import RESERVE_POOL, SAMPLE_INTERVAL
from repro.eval.fleet import (build_standard_fleet, overload_workload,
                              standard_inputs)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, RecoveryPolicy
from repro.fleet import generate_arrivals
from repro.metrics import (
    HealthMonitor,
    MetricsSampler,
    default_rules,
    instrument_server,
    link_congestion_rule,
    stalled_devices,
)
from repro.noc import Link
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.soc.registers import STATUS_RUNNING


def build_server(runtime=None):
    runtime = runtime or EspRuntime(build_soc1())
    server = InferenceServer(runtime, ServerConfig())
    server.register(TenantConfig(name="night-vision",
                                 dataflow=dataflow_nv_cl(1, 1),
                                 mode="p2p"))
    server.register(TenantConfig(name="classifier",
                                 dataflow=chain("1cl", ["cl1"]),
                                 mode="pipe"))
    return server


def build_trace():
    nv = np.atleast_2d(nv_cl_inputs(3)[0])
    cl = np.atleast_2d(classifier_inputs(3, seed=1)[0])
    trace = []
    for i in range(3):
        trace.append(TracedRequest(4_000 * i, "night-vision", nv[i:i + 1]))
        trace.append(TracedRequest(4_000 * i + 2_000, "classifier",
                                   cl[i:i + 1]))
    return trace


def reference_scrape(server) -> dict:
    """The collector-backed gauges, computed the straightforward way:
    every link of the mesh walked, untouched ones skipped, labels
    formatted on the spot. ``{family: {label values: value}}``."""
    soc, queue = server.soc, server.queue
    out = {name: {} for name in (
        "noc_link_busy_cycles", "noc_link_utilization", "acc_busy_cycles",
        "acc_utilization", "acc_status")}
    for (src, dst, plane), link in soc.mesh.links.items():
        if link.flits_carried == 0 and link.channel.busy_cycles == 0:
            continue
        label = (f"{src[0]},{src[1]}->{dst[0]},{dst[1]}", plane)
        out["noc_link_busy_cycles"][label] = link.channel.busy_cycles
        out["noc_link_utilization"][label] = round(link.utilization(), 6)
    for name, tile in soc.accelerators.items():
        out["acc_busy_cycles"][(name,)] = tile.busy_cycles
        out["acc_utilization"][(name,)] = round(tile.utilization(), 6)
        out["acc_status"][(name,)] = tile.status
    out["mem_words_read"] = {(): soc.memory_map.words_read}
    out["mem_words_written"] = {(): soc.memory_map.words_written}
    out["serve_queue_depth"] = {(): queue.depth}
    out["serve_queue_peak_depth"] = {(): queue.peak_depth}
    out["serve_tenant_queue_depth"] = {
        (tenant,): queue.tenant_depth(tenant) for tenant in queue.tenants}
    return out


def collected_families(snapshot: dict, names) -> dict:
    out = {}
    for family in snapshot["families"]:
        if family["name"] in names:
            out[family["name"]] = {
                tuple(entry["labels"][label]
                      for label in family["label_names"]): entry["value"]
                for entry in family["series"]}
    return out


class TestOneScrapePerTick:
    def test_evaluating_sampler_scrapes_once_per_tick(self):
        server = build_server()
        registry = instrument_server(server)
        scrapes = []
        registry.register_collector(
            lambda reg: scrapes.append(reg.env.now))
        monitor = HealthMonitor(registry, default_rules(server))
        sampler = MetricsSampler(registry, interval=SAMPLE_INTERVAL,
                                 callbacks=[lambda r: monitor.evaluate()])
        sampler.start()
        server.run_trace(build_trace())
        assert sampler.samples_taken == monitor.evaluations > 0
        assert scrapes == [SAMPLE_INTERVAL * (k + 1)
                           for k in range(sampler.samples_taken)]


class TestCollectorsMatchReference:
    def test_snapshot_equals_full_walk_at_every_tick(self):
        server = build_server()
        registry = instrument_server(server)
        checked = []

        def compare(reg):
            expected = reference_scrape(server)
            got = collected_families(reg.snapshot(), expected)
            assert got == expected, reg.env.now
            checked.append(len(expected["noc_link_utilization"]))

        MetricsSampler(registry, interval=SAMPLE_INTERVAL,
                       callbacks=[compare]).start()
        server.run_trace(build_trace())
        compare(registry)
        # Traffic arrived while the run went on: links went live
        # between ticks, and the mesh was never fully live.
        assert checked[0] < checked[-1] < len(server.soc.mesh.links)

    def test_scrape_visits_no_idle_link(self):
        server = build_server()
        registry = instrument_server(server)
        server.run_trace(build_trace())
        registry.run_collectors()
        links = server.soc.mesh.links.values()
        idle = [link for link in links if link.packets_carried == 0]
        assert len(links) == 204 and len(idle) > 150

        visits = []

        class WatchedLink(Link):
            def __getattribute__(self, name):
                visits.append(name)
                return super().__getattribute__(name)

        for link in idle:
            link.__class__ = WatchedLink
        registry.run_collectors()
        for link in idle:
            link.__class__ = Link
        assert visits == []

    def test_congestion_and_stall_verdicts_match_a_full_sort(self):
        server = build_server()
        registry = instrument_server(server)
        server.run_trace(build_trace())
        registry.run_collectors()
        utilization = registry.get("noc_link_utilization")
        values = sorted({s.value for _, s in utilization.series()})
        assert len(values) > 3
        for threshold in [0.0] + values + [v / 2 for v in values]:
            worst = None
            for labels, series in utilization.series():
                if series.value > threshold and (
                        worst is None or series.value > worst[1]):
                    worst = (labels, series.value)
            detail = link_congestion_rule(threshold).check(
                registry, registry.env.now)
            if worst is None:
                assert detail is None
            else:
                assert detail.startswith(
                    f"link {worst[0][0]} plane {worst[0][1]} at ")

        status = registry.get("acc_status")
        for name in ("nv0", "cl1", "cl0"):
            status.labels(name).value = STATUS_RUNNING
        now = registry.env.now
        expected = [(labels[0], now - registry.acc_last_progress.labels(
                        labels[0]).value)
                    for labels, series in status.series()
                    if series.value == STATUS_RUNNING]
        assert [d for d, _ in expected] == ["cl0", "cl1", "nv0"]
        assert stalled_devices(registry, now, -1) == expected


#: Digest of the observed mini-fleet below (alert history, control
#: actions, registry snapshots and ring-tracer records), recorded
#: before the scrape path was made incremental.
FLEET_DIGEST = ("47fcb1bf8069a5da1c38ba934e89855f"
                "3df79a734fe50253dec91cc683908b0c")


def _canonical(value):
    return json.dumps(value, sort_keys=True, default=repr)


def run_observed_fleet():
    """Two observed SoC-1 instances behind the least-loaded router,
    each wired as ``repro.eval.chaos`` wires one serving SoC."""
    fleet = build_standard_fleet(2, policy="least-loaded", metrics=True,
                                 tracing=True, trace_capacity=256)
    stacks = []
    for instance in fleet.instances:
        registry = instrument_server(instance.server)
        monitor = HealthMonitor(registry, default_rules(instance.server))
        controller = ControlPlane(
            instance.server, monitor,
            ControlConfig(reserve_pool=RESERVE_POOL)).attach()
        MetricsSampler(
            registry, interval=SAMPLE_INTERVAL,
            callbacks=[lambda _r, m=monitor: m.evaluate()]).start()
        stacks.append((instance, registry, monitor, controller))
    arrivals = sorted(generate_arrivals(overload_workload(seed=3,
                                                          smoke=True)),
                      key=lambda a: a.at)
    fleet.run(arrivals, standard_inputs(seed=3))
    return stacks


class TestObservedFleetDigest:
    def test_monitoring_output_is_pinned(self, monkeypatch):
        # Request ids come from a process-wide counter and show up in
        # trace args; start it at 0 so the digest ignores test order.
        monkeypatch.setattr("repro.serve.request._request_ids",
                            itertools.count())
        digest = hashlib.sha256()
        totals = {"alerts": 0, "actions": 0, "dropped": 0}
        for instance, registry, monitor, controller in run_observed_fleet():
            tracer = instance.tracer
            records = {
                "spans": [dataclasses.asdict(s) for s in tracer.spans],
                "instants": [dataclasses.asdict(i)
                             for i in tracer.instants],
                "counters": [dataclasses.asdict(c)
                             for c in tracer.counters],
                "dropped": [tracer.dropped_spans, tracer.dropped_instants,
                            tracer.dropped_counters],
            }
            for part in ([dataclasses.asdict(a) for a in monitor.history],
                         [dataclasses.asdict(a) for a in controller.actions],
                         registry.snapshot(), records):
                digest.update(_canonical(part).encode())
            totals["alerts"] += len(monitor.history)
            totals["actions"] += len(controller.actions)
            totals["dropped"] += tracer.dropped
        # The run exercises what the digest is meant to pin.
        assert min(totals.values()) > 0
        assert digest.hexdigest() == FLEET_DIGEST


#: Digest of the faulted serving run below (the registry snapshot at
#: every sampler tick and at the end), recorded while the SoC families
#: were still recorded per event on the hot path.
FAULT_DIGEST = ("592fdcc6c90a2dbf748a7b7ee9b4118f"
                "6b77a9e314bb3dd387a569c945629903")

#: Cycle after the unobserved first run ends: the crash, the hang and
#: the second DMA stall strike while the registry watches.
OBSERVED_FAULTS_AT = 200_000


def faulted_server():
    """SoC-1 serving under every fault the SoC families count: lost and
    corrupted packets throughout, a DMA stall in each run, a kernel
    crash, and a hang the watchdog clears with a host reset."""
    runtime = EspRuntime(build_soc1(),
                         recovery=RecoveryPolicy(watchdog_cycles=60_000))
    plan = FaultPlan([
        FaultSpec("link_drop", probability=0.015, count=None),
        FaultSpec("link_corrupt", probability=0.015, count=None),
        FaultSpec("dma_stall", target="cl1", at_cycle=0, duration=700),
        FaultSpec("dma_stall", target="cl0", at_cycle=OBSERVED_FAULTS_AT,
                  duration=700),
        FaultSpec("acc_crash", target="cl1", at_cycle=OBSERVED_FAULTS_AT),
        FaultSpec("acc_hang", target="nv0", at_cycle=OBSERVED_FAULTS_AT),
    ], seed=4)
    FaultInjector(plan).attach(runtime.soc)
    return build_server(runtime), plan


class TestFaultedServingDigest:
    def test_fault_families_are_pinned(self, monkeypatch):
        monkeypatch.setattr("repro.serve.request._request_ids",
                            itertools.count())
        server, plan = faulted_server()
        # Unobserved activity first: the registry must count only what
        # happens after it is attached.
        server.run_trace(build_trace())
        before = {event.kind for event in plan.events}
        registry = instrument_server(server)
        digest = hashlib.sha256()

        def record(reg):
            digest.update(_canonical(reg.snapshot()).encode())

        sampler = MetricsSampler(registry, interval=SAMPLE_INTERVAL,
                                 callbacks=[record]).start()
        server.run_trace(build_trace())
        record(registry)

        # The run exercises what the digest is meant to pin: faults of
        # both runs, and a series in every fault-path family.
        assert {"dma_stall", "link_drop"} <= before
        assert sampler.samples_taken > 100
        for name in ("dma_stalls_injected_total",
                     "acc_kernel_crashes_total", "acc_host_resets_total",
                     "noc_packets_dropped_total",
                     "noc_packets_corrupted_total"):
            assert registry.get(name).series(), name
        assert digest.hexdigest() == FAULT_DIGEST

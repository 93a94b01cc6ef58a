"""The benchmark's workloads: inputs from a seed, timed units, checks.

A workload is a list of units. A timed repetition runs one unit, split
into ``prepare`` (build the SoC or fleet, untimed), ``execute`` (the
simulation the host pays for, timed) and ``inspect`` (read results and
counters after the run, untimed).

- ``pipe``: SoC-1 ``4nv_4cl`` in ``pipe`` mode. Every inter-accelerator
  hop goes through memory-tile DMA, so the event kernel, channels, NoC
  and DMA dominate host time.
- ``p2p``: the same SoC, dataflow and frames in ``p2p`` mode. Far fewer
  events per frame; functional compute (accelerator kernels,
  fixed-point, numpy) takes the larger share.
- ``fleet-observed``: the standard 4-instance SoC-1 fleet with the
  ``least-loaded`` policy, every instance carrying the operations stack
  (metrics registry, bounded ring tracer, sampler-driven health monitor,
  control plane), driven open-loop by the seeded overload trace. Its
  units are independent segments of that trace.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.control import ControlConfig, ControlPlane
from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.eval.chaos import RESERVE_POOL, SAMPLE_INTERVAL
from repro.eval.harness import percentile
from repro.eval.fleet import (build_standard_fleet, overload_workload,
                              standard_inputs, standard_tenants)
from repro.fleet import generate_arrivals
from repro.metrics import (HealthMonitor, MetricsSampler, default_rules,
                           instrument_server)
from repro.noc.stats import collect_report
from repro.platforms import soc_power_watts
from repro.soc.monitors import read_monitors

#: Seed the benchmark uses when none is given, and the held-out seed a
#: claimed gain must also hold on (never used while tuning a change).
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

#: The pinned 32-frame seed runs: (env.now cycles, kernel events).
PIN_FRAMES = 32
PINS = {"p2p": (77460, 2762), "pipe": (90139, 10274)}

#: Frames per repetition. Each repetition takes a few tenths of a
#: second, so a run times many of them and reports their median.
PIPELINE_FRAMES = {"pipe": 256, "p2p": 512}

#: Fleet segments. The standard trace is 160k cycles and completes only
#: ~80 requests. Each segment is that trace stretched to 400k cycles
#: (its envelope periods unchanged); the twelve segments together
#: complete ~1600 requests, so p95 has ~80 samples beyond it and the
#: seed-to-seed spread of the pooled simulated figures (mostly from the
#: number of bursts drawn) stays within a few percent. Short segments
#: keep each timed repetition near one second, so the host-speed
#: calibration around it tracks the host closely.
FLEET_SEGMENTS = 12
FLEET_SEGMENT_CYCLES = 400_000
FLEET_INSTANCES = 4
FLEET_POLICY = "least-loaded"
#: Ring capacity of each instance's tracer (records kept per instance).
FLEET_TRACE_CAPACITY = 4096


def _sum_monitors(socs) -> Dict[str, float]:
    """SoC-layer and NoC-layer counters summed over ``socs``."""
    out = {"noc.packets": 0, "noc.flit_hops": 0, "soc.dma_transactions": 0,
           "soc.dma_words": 0, "soc.p2p_transactions": 0,
           "accelerators.invocations": 0, "sim_dram_words": 0}
    latency_sum = 0.0
    busy = capacity = 0
    for soc in socs:
        noc = collect_report(soc.mesh)
        out["noc.packets"] += noc.packets_delivered
        out["noc.flit_hops"] += noc.flit_hops
        latency_sum += noc.average_latency * noc.packets_delivered
        monitors = read_monitors(soc)
        for acc in monitors.accelerators:
            out["soc.dma_transactions"] += acc.dma_loads + acc.dma_stores
            out["soc.dma_words"] += acc.words_loaded + acc.words_stored
            out["soc.p2p_transactions"] += acc.p2p_loads + acc.p2p_stores
            out["accelerators.invocations"] += acc.invocations
            busy += acc.busy_cycles
        capacity += len(monitors.accelerators) * monitors.elapsed_cycles
        out["sim_dram_words"] += monitors.total_dram_words
    out["noc.avg_latency_cycles"] = (
        latency_sum / out["noc.packets"] if out["noc.packets"] else 0.0)
    out["soc.acc_busy_share"] = busy / capacity if capacity else 0.0
    return out


#: Layer counters that stay zero on a workload without a serving stack.
SERVING_COUNTERS = ("serve.batches", "serve.admitted_share",
                    "serve.queue_wait_p50_cycles", "fleet.route_calls",
                    "control.actions", "control.applied_share",
                    "trace.records", "trace.kept_share", "metrics.scrapes")


def reference_outputs(dataflow, soc, frames: np.ndarray) -> np.ndarray:
    """Software composition of the stages' ``AcceleratorSpec.run``."""
    outputs = np.asarray(frames, dtype=np.float64)
    for level in dataflow.levels():
        spec = soc.accelerators[level[0]].spec
        outputs = np.stack([spec.run(frame) for frame in outputs])
    return outputs


def build_pipeline():
    """One freshly built and booted SoC-1 runtime (set-up only)."""
    return fresh_runtime(APP_CONFIGS["4nv_4cl"])


def run_pins() -> List[str]:
    """Run the 32-frame pinned seed runs; return mismatch messages."""
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(PIN_FRAMES, seed=0)
    problems = []
    for mode, expected in sorted(PINS.items()):
        runtime = build_pipeline()
        runtime.esp_run(config.build_dataflow(), frames, mode=mode)
        env = runtime.soc.env
        got = (env.now, env.events_processed)
        if got != expected:
            problems.append(f"pin {mode}: (cycles, events) = {got}, "
                            f"pinned {expected}")
    return problems


class Workload(NamedTuple):
    name: str
    units: list


class PipelineRun:
    """``pipe`` or ``p2p``: one batch of frames through 4nv_4cl."""

    def __init__(self, mode: str, seed: int) -> None:
        self.mode = mode
        self.config = APP_CONFIGS["4nv_4cl"]
        self.frames, _ = self.config.make_inputs(PIPELINE_FRAMES[mode],
                                                 seed=seed)
        self.reference = None

    def prepare(self):
        return {"runtime": build_pipeline(),
                "dataflow": self.config.build_dataflow()}

    def execute(self, state):
        return state["runtime"].esp_run(state["dataflow"], self.frames,
                                        mode=self.mode)

    def inspect(self, state, result) -> dict:
        """Counters, simulated results and output checks of one run."""
        soc = state["runtime"].soc
        if self.reference is None:
            self.reference = reference_outputs(state["dataflow"], soc,
                                               self.frames)
        wrong = sum(1 for got, want in zip(result.outputs, self.reference)
                    if not np.array_equal(got, want))
        wrong += abs(len(result.outputs) - len(self.reference))
        counts = _sum_monitors([soc])
        counts.update({name: 0 for name in SERVING_COUNTERS})
        counts.update({
            "sim_cycles": soc.env.now,
            "sim.events": soc.env.events_processed,
            "runtime.ioctl_calls": result.ioctl_calls,
        })
        attempted = len(self.frames)
        # The batch is the run's one request.
        return {"counts": counts, "frames_done": result.frames,
                "sim_seconds": result.seconds,
                "watts": soc_power_watts(soc), "latencies": [result.cycles],
                "attempted": attempted, "refused": 0, "failed": wrong,
                "passed": attempted - wrong}


class FleetSegment:
    """One segment of ``fleet-observed``: an open-loop overload trace
    through a freshly built observed fleet."""

    def __init__(self, seed: int) -> None:
        spec = dataclasses.replace(overload_workload(seed=seed),
                                   horizon_cycles=FLEET_SEGMENT_CYCLES)
        self.arrivals = sorted(generate_arrivals(spec), key=lambda a: a.at)
        self.inputs = standard_inputs(seed=seed)
        self.rows = self._arrival_rows()
        self.reference = None

    def _arrival_rows(self) -> List[Tuple[str, List[int]]]:
        """Input-pool rows each arrival carries, as the coordinator
        slices them: per tenant, consecutive rows with wrap-around."""
        cursors = {tenant: 0 for tenant in self.inputs}
        rows = []
        for arrival in self.arrivals:
            pool = len(self.inputs[arrival.tenant])
            cursor = cursors[arrival.tenant]
            rows.append((arrival.tenant, [(cursor + k) % pool
                                          for k in range(arrival.n_frames)]))
            cursors[arrival.tenant] = (cursor + arrival.n_frames) % pool
        return rows

    def prepare(self):
        return build_fleet_stack()

    def execute(self, state):
        return state["fleet"].run(self.arrivals, self.inputs)

    def _reference(self, soc) -> Dict[str, np.ndarray]:
        if self.reference is None:
            self.reference = {
                tenant.name: reference_outputs(tenant.dataflow, soc,
                                               self.inputs[tenant.name])
                for tenant in standard_tenants()}
        return self.reference

    def inspect(self, state, report) -> dict:
        fleet = state["fleet"]
        socs = [instance.soc for instance in fleet.instances]
        reference = self._reference(socs[0])
        servers = list(report.per_instance.values())
        completions = [c for r in servers for c in r.completions]
        records = ([c.request_id for c in completions]
                   + [x.request_id for s in servers for x in s.rejections]
                   + [x.request_id for s in servers for x in s.failures])
        offered = len(self.arrivals)
        base = min(records) if records else 0
        # Request ids are handed out in submission order, one per
        # arrival; anything else means a request went missing.
        accounted = sorted(records) == list(range(base, base + offered))
        wrong = 0 if accounted else offered
        if accounted:
            for completion in completions:
                tenant, rows = self.rows[completion.request_id - base]
                if tenant != completion.tenant or not np.array_equal(
                        completion.outputs, reference[tenant][rows]):
                    wrong += 1
        queue_waits = [c.queue_cycles for c in completions]
        actions = [a for s in state["controllers"] for a in s.actions]
        tracers = [instance.tracer for instance in fleet.instances]
        held = sum(len(t.spans) + len(t.instants) + len(t.counters)
                   for t in tracers)
        dropped = sum(t.dropped for t in tracers)
        counts = _sum_monitors(socs)
        counts.update({
            "sim_cycles": report.makespan_cycles,
            "sim.events": sum(s.env.events_processed for s in socs),
            "runtime.ioctl_calls": sum(i.runtime.executor.ioctl_calls
                                       for i in fleet.instances),
            "serve.batches": sum(sum(r.batches_by_tenant.values())
                                 for r in servers),
            "serve.admitted_share": report.admitted / offered,
            "serve.queue_wait_p50_cycles": float(np.median(queue_waits)),
            "fleet.route_calls": len(report.decisions),
            "control.actions": len(actions),
            "control.applied_share": (sum(1 for a in actions if a.applied)
                                      / len(actions) if actions else 0.0),
            "trace.records": held + dropped,
            "trace.kept_share": (held / (held + dropped)
                                 if held + dropped else 0.0),
            "metrics.scrapes": sum(s.samples_taken
                                   for s in state["samplers"]),
        })
        return {"counts": counts, "frames_done": report.completed_frames,
                "sim_seconds": report.makespan_seconds,
                "watts": sum(soc_power_watts(soc) for soc in socs),
                "latencies": [c.latency_cycles for c in completions],
                "attempted": offered, "refused": len(report.rejections),
                "failed": report.failed + wrong,
                "passed": len(completions) - wrong if accounted else 0}


def simulated_results(firsts) -> dict:
    """The simulated end-to-end metrics and the pass share, pooled over
    one run of each unit: latencies pooled; cycles, words, frames,
    seconds and requests summed."""
    latencies = [x for rep in firsts for x in rep["latencies"]]
    frames = sum(rep["frames_done"] for rep in firsts)
    seconds = sum(rep["sim_seconds"] for rep in firsts)
    return {
        "sim_cycles": sum(rep["counts"]["sim_cycles"] for rep in firsts),
        "sim_dram_words":
            sum(rep["counts"]["sim_dram_words"] for rep in firsts),
        "sim_latency_p50_cycles": percentile(latencies, 50.0),
        "sim_latency_p95_cycles": percentile(latencies, 95.0),
        "latency_samples": len(latencies),
        "sim_goodput_fps": frames / seconds,
        "sim_frames_per_joule": frames / seconds / firsts[0]["watts"],
        "pass_share": (sum(rep["passed"] for rep in firsts)
                       / sum(rep["attempted"] for rep in firsts)),
    }


def build_fleet_stack() -> dict:
    """The fleet plus each instance's operations stack (set-up only).

    Wired the way the chaos campaign wires one serving SoC: a metrics
    registry with SoC and server collectors, a health monitor on the
    default rules, a control plane holding the spare tiles, and a
    sampler that scrapes and evaluates every ``SAMPLE_INTERVAL`` cycles.
    """
    fleet = build_standard_fleet(
        FLEET_INSTANCES, policy=FLEET_POLICY, metrics=True, tracing=True,
        trace_capacity=FLEET_TRACE_CAPACITY)
    controllers, samplers = [], []
    for instance in fleet.instances:
        registry = instrument_server(instance.server)
        monitor = HealthMonitor(registry, default_rules(instance.server))
        controllers.append(ControlPlane(
            instance.server, monitor,
            ControlConfig(reserve_pool=RESERVE_POOL)).attach())
        samplers.append(MetricsSampler(
            registry, interval=SAMPLE_INTERVAL,
            callbacks=[lambda _registry, m=monitor: m.evaluate()]).start())
    return {"fleet": fleet, "controllers": controllers,
            "samplers": samplers}


def make_workload(name: str, seed: int) -> Workload:
    if name == "fleet-observed":
        return Workload(name, [FleetSegment(seed * FLEET_SEGMENTS + k)
                               for k in range(FLEET_SEGMENTS)])
    return Workload(name, [PipelineRun(name, seed)])


#: Set-up (the ``setup_s`` metric) per workload: everything up to the
#: first simulated event, inputs excluded.
SETUP = {"pipe": build_pipeline, "p2p": build_pipeline,
         "fleet-observed": build_fleet_stack}

"""Metrics-overhead benchmark: recording is cheap and timing-neutral.

Re-runs the three ``bench_perf`` workloads with the metrics registry
attached and enforces the subsystem's two contracts:

1. **Timing neutrality** (hard): metrics-enabled runs land on the
   exact pinned simulated-cycle and event counts of the seed — passive
   recording cannot move simulated time by a single cycle. A sampled
   run (periodic scrape process) keeps the cycle pin while adding only
   its own timeout events.
2. **Low wall-clock overhead** (soft floor): events/second with
   recording on stays within ``OVERHEAD_FLOOR`` of the metrics-off
   rate measured in the same process (best-of-``ROUNDS`` on both
   sides, so machine noise largely cancels). The smoke variant used in
   CI relaxes the floor — shared runners are noisy.

The scraped exposition is validated end-to-end (``to_prometheus`` ->
``parse_exposition`` round-trip) and the final registry snapshot lands
in ``artifacts/metrics.json`` together with the overhead table — the
artifact the ``metrics-smoke`` CI job uploads.

Run:  pytest benchmarks/bench_metrics.py -s
or:   PYTHONPATH=src python benchmarks/bench_metrics.py [--smoke]
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.eval.apps import APP_CONFIGS, fresh_runtime
from repro.metrics import (
    HealthMonitor,
    MetricsSampler,
    attach_metrics,
    default_rules,
    instrument_server,
    parse_exposition,
    register_soc_collectors,
    to_prometheus,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_perf import (  # noqa: E402
    PIPE_FRAMES,
    ROUNDS,
    SEED_CYCLES,
    SEED_EVENTS,
    SMOKE_CYCLES,
    SMOKE_EVENTS,
    SMOKE_PIPE_FRAMES,
)
from bench_serve import build_server, build_trace  # noqa: E402

#: Minimum acceptable (metrics-on events/s) / (metrics-off events/s).
#: Full runs hold the 10%-overhead bar; the CI smoke variant only
#: guards against pathological regressions.
OVERHEAD_FLOOR = 0.90
SMOKE_OVERHEAD_FLOOR = 0.50

#: Scrape interval of the sampled run, in cycles.
SAMPLE_INTERVAL = 5_000


def run_pipeline(mode, n_frames, instrument):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(n_frames, seed=0)
    runtime = fresh_runtime(config)
    registry = None
    if instrument:
        # The SoC families are written from the hardware counters at
        # scrape time: without the collectors a registry records
        # nothing here, and without a scrape the run pays nothing.
        registry = attach_metrics(runtime.soc.env)
        register_soc_collectors(registry, runtime.soc)
    dataflow = config.build_dataflow()
    start = time.perf_counter()
    runtime.esp_run(dataflow, frames, mode=mode)
    if registry is not None:
        registry.run_collectors()
    wall = time.perf_counter() - start
    env = runtime.soc.env
    return wall, env.now, env.events_processed


def run_serve(n_requests, frames_per_request, instrument):
    runtime, server = build_server()
    if instrument:
        instrument_server(server)
    trace = build_trace(n_requests, frames_per_request)
    start = time.perf_counter()
    server.run_trace(trace)
    wall = time.perf_counter() - start
    env = runtime.soc.env
    return wall, env.now, env.events_processed


def workload_runner(name, smoke):
    if name == "serve":
        n_requests, frames = (1, 1) if smoke else (2, 2)
        return lambda instrument: run_serve(n_requests, frames,
                                            instrument)
    mode = "p2p" if name == "p2p" else "pipe"
    n_frames = SMOKE_PIPE_FRAMES if smoke else PIPE_FRAMES
    return lambda instrument: run_pipeline(mode, n_frames, instrument)


def measure_workload(name, smoke=False):
    """Off/on best-of-``ROUNDS`` pair, pins enforced on both."""
    run = workload_runner(name, smoke)
    expected_cycles = (SMOKE_CYCLES if smoke else SEED_CYCLES)[name]
    expected_events = (SMOKE_EVENTS if smoke else SEED_EVENTS)[name]
    best = {}
    for label, instrument in (("off", False), ("on", True)):
        for _ in range(ROUNDS):
            wall, cycles, events = run(instrument)
            if cycles != expected_cycles:
                raise AssertionError(
                    f"cycle drift on {name!r} (metrics {label}): "
                    f"{cycles} != pinned {expected_cycles} — recording "
                    f"must be timing-neutral")
            if events != expected_events:
                raise AssertionError(
                    f"event drift on {name!r} (metrics {label}): "
                    f"{events} != pinned {expected_events}")
            best[label] = min(best.get(label, wall), wall)
    ratio = best["off"] / best["on"]
    return {
        "cycles": expected_cycles,
        "events": expected_events,
        "wall_off_s": round(best["off"], 6),
        "wall_on_s": round(best["on"], 6),
        "events_per_sec_off": round(expected_events / best["off"]),
        "events_per_sec_on": round(expected_events / best["on"]),
        "throughput_ratio": round(ratio, 3),
    }


def run_sampled_serve(smoke=False):
    """The scraping run: sampler + health rules + live exposition.

    Returns (registry snapshot, scrape stats). Cycles must stay on the
    pin; the sampler's own timeout events are the only event-count
    delta allowed.
    """
    runtime, server = build_server()
    registry = instrument_server(server)
    monitor = HealthMonitor(registry, default_rules(server))
    scrapes = []

    def scrape(reg):
        monitor.evaluate()
        samples = parse_exposition(to_prometheus(reg))
        scrapes.append(len(samples))

    MetricsSampler(registry, interval=SAMPLE_INTERVAL,
                   callbacks=[scrape]).start()
    n_requests, frames = (1, 1) if smoke else (2, 2)
    server.run_trace(build_trace(n_requests, frames))
    monitor.evaluate()

    env = runtime.soc.env
    expected_cycles = (SMOKE_CYCLES if smoke else SEED_CYCLES)["serve"]
    expected_events = (SMOKE_EVENTS if smoke else SEED_EVENTS)["serve"]
    if env.now != expected_cycles:
        raise AssertionError(
            f"sampled serve run drifted: {env.now} cycles != pinned "
            f"{expected_cycles} — scraping must cost zero cycles")
    extra = env.events_processed - expected_events
    if not 0 < extra <= expected_cycles // SAMPLE_INTERVAL + 1:
        raise AssertionError(
            f"sampled run dispatched {extra} extra events; expected "
            f"only the sampler's own ticks")
    if not scrapes or min(scrapes) == 0:
        raise AssertionError("exposition scrape came back empty")
    final = parse_exposition(to_prometheus(registry))
    if monitor.status() != "healthy":
        raise AssertionError(f"healthy run reported "
                             f"{monitor.status()}: {monitor.render()}")
    stats = {
        "scrapes": len(scrapes),
        "final_exposition_samples": len(final),
        "sampler_extra_events": extra,
        "health": monitor.status(),
        "health_incidents": len(monitor.history),
    }
    return registry.snapshot(), stats


def run_bench(smoke=False):
    floor = SMOKE_OVERHEAD_FLOOR if smoke else OVERHEAD_FLOOR
    workloads = {}
    for name in ("p2p", "dma", "serve"):
        workloads[name] = measure_workload(name, smoke=smoke)
    snapshot, scrape_stats = run_sampled_serve(smoke=smoke)
    payload = {
        "benchmark": "bench_metrics",
        "variant": "smoke" if smoke else "full",
        "rounds": ROUNDS,
        "overhead_floor": floor,
        "workloads": workloads,
        "sampled_serve": scrape_stats,
        "snapshot": snapshot,
    }
    for name, row in workloads.items():
        if row["throughput_ratio"] < floor:
            raise AssertionError(
                f"metrics overhead on {name!r} too high: "
                f"{row['events_per_sec_on']} ev/s on vs "
                f"{row['events_per_sec_off']} ev/s off "
                f"(ratio {row['throughput_ratio']} < floor {floor})")
    return payload


def write_report(payload):
    out_dir = Path(__file__).resolve().parent.parent / "artifacts"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / "metrics.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out


def print_report(payload):
    print(f"\nmetrics overhead ({payload['variant']}, best of "
          f"{payload['rounds']} rounds, floor "
          f"{payload['overhead_floor']}):")
    for name, row in payload["workloads"].items():
        print(f"  {name:6s} {row['cycles']:>7d} cycles  "
              f"off {row['events_per_sec_off']:>8d} ev/s  "
              f"on {row['events_per_sec_on']:>8d} ev/s  "
              f"ratio {row['throughput_ratio']:.3f}")
    stats = payload["sampled_serve"]
    print(f"  sampled serve: {stats['scrapes']} scrapes, "
          f"{stats['final_exposition_samples']} exposition samples, "
          f"+{stats['sampler_extra_events']} sampler events, "
          f"health {stats['health']}")


# -- pytest entry points ----------------------------------------------------

def test_metrics_overhead():
    payload = run_bench(smoke=False)
    path = write_report(payload)
    print_report(payload)
    print(f"  report: {path}")


# -- standalone -------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="trimmed workloads + relaxed floor for CI")
    args = parser.parse_args(argv)
    payload = run_bench(smoke=args.smoke)
    path = write_report(payload)
    print_report(payload)
    print(f"  report: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

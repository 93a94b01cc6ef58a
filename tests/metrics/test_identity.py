"""Metrics recording must not change simulated time — ever.

The registry's contract (``Environment.metrics``) is that recording
only mutates Python ints and never yields, schedules, or touches the
event queue: a metrics-enabled run is *bit-identical* — same final
cycle, same number of dispatched kernel events — to the same run with
``env.metrics is None``. These tests enforce that contract on the same
workloads ``benchmarks/bench_perf.py`` pins (smoke sizes), plus the
multi-tenant serving trace.

The one deliberate exception is the opt-in :class:`MetricsSampler`,
which schedules its own periodic timeout events. Pure timeouts never
perturb *other* processes' timing, so a sampled run keeps the exact
cycle count while dispatching a few extra events — asserted here too.
"""

import numpy as np

from repro.eval import build_soc1
from repro.eval.apps import (
    APP_CONFIGS,
    classifier_inputs,
    dataflow_nv_cl,
    de_cl_inputs,
    fresh_runtime,
    nv_cl_inputs,
)
from repro.metrics import (
    MetricsSampler,
    attach_metrics,
    instrument_server,
)
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)

#: Smoke pins from benchmarks/bench_perf.py — the seed behaviour the
#: instrumented runs must land on exactly.
PIPE_FRAMES = 8
PINS = {"p2p": (24270, 1478), "dma": (28073, 2618)}


def run_pipeline(mode, instrumented):
    config = APP_CONFIGS["4nv_4cl"]
    frames, _ = config.make_inputs(PIPE_FRAMES, seed=0)
    runtime = fresh_runtime(config)
    registry = attach_metrics(runtime.soc.env) if instrumented else None
    runtime.esp_run(config.build_dataflow(), frames, mode=mode)
    env = runtime.soc.env
    return env.now, env.events_processed, registry


def build_server():
    runtime = EspRuntime(build_soc1())
    server = InferenceServer(runtime, ServerConfig())
    dataflows = {"night-vision": dataflow_nv_cl(1, 1),
                 "classifier": chain("1cl-id", ["cl1"]),
                 "denoiser": chain("1de-id", ["de0"])}
    modes = {"night-vision": "p2p", "classifier": "pipe",
             "denoiser": "pipe"}
    for name, dataflow in dataflows.items():
        server.register(TenantConfig(name=name, dataflow=dataflow,
                                     mode=modes[name]))
    return runtime, server


def build_trace(n_requests=1, frames_per_request=1):
    n = n_requests * frames_per_request
    inputs = {"night-vision": nv_cl_inputs(n)[0],
              "classifier": classifier_inputs(n, seed=1)[0],
              "denoiser": de_cl_inputs(n, seed=2)[0]}
    trace = []
    for tenant, frames in inputs.items():
        for index in range(n_requests):
            lo = index * frames_per_request
            trace.append(TracedRequest(
                0, tenant,
                np.atleast_2d(frames)[lo:lo + frames_per_request]))
    return trace


def run_serve(instrumented, sampler_interval=None):
    runtime, server = build_server()
    registry = instrument_server(server) if instrumented else None
    if sampler_interval is not None:
        MetricsSampler(registry, interval=sampler_interval,
                       callbacks=[]).start()
    server.run_trace(build_trace())
    env = runtime.soc.env
    return env.now, env.events_processed, registry


class TestPassiveIdentity:
    def test_p2p_pipeline_bit_identical(self):
        bare = run_pipeline("p2p", instrumented=False)
        instrumented = run_pipeline("p2p", instrumented=True)
        assert bare[:2] == instrumented[:2] == PINS["p2p"]

    def test_dma_pipeline_bit_identical(self):
        bare = run_pipeline("pipe", instrumented=False)
        instrumented = run_pipeline("pipe", instrumented=True)
        assert bare[:2] == instrumented[:2] == PINS["dma"]

    def test_serve_trace_bit_identical(self):
        bare = run_serve(instrumented=False)
        instrumented = run_serve(instrumented=True)
        assert bare[:2] == instrumented[:2]

    def test_instrumented_run_actually_recorded(self):
        """Identity is vacuous if nothing was recorded — prove the
        counters moved while the timing did not."""
        _, _, registry = run_serve(instrumented=True)
        registry.run_collectors()   # the SoC families are scraped
        assert registry.noc_packets.total > 0
        assert registry.dma_transactions.total > 0
        assert registry.serve_completed.total == 3
        assert registry.acc_invocations.total > 0
        for tenant in ("night-vision", "classifier", "denoiser"):
            series = registry.serve_request_cycles.labels(tenant)
            assert series.count == 1 and series.sum > 0


class TestSamplerIdentity:
    def test_sampler_keeps_cycles_exact(self):
        """Scraping adds sampler timeout events but zero cycles."""
        passive = run_serve(instrumented=True)
        sampled = run_serve(instrumented=True, sampler_interval=1000)
        assert sampled[0] == passive[0]          # cycles identical
        assert sampled[1] > passive[1]           # its own ticks only
        extra = sampled[1] - passive[1]
        assert extra <= passive[0] // 1000 + 1

    def test_sampler_callbacks_see_live_state(self):
        depths = []
        runtime, server = build_server()
        registry = instrument_server(server)
        MetricsSampler(
            registry, interval=2000,
            callbacks=[lambda r: depths.append(
                r.serve_completed.total)]).start()
        server.run_trace(build_trace())
        assert depths, "sampler never ticked"
        assert depths == sorted(depths)          # monotone counter
        assert depths[-1] <= 3

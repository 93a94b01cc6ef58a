"""``execute`` and ``run_process`` are two drivers of one control path.

Fresh SoCs run the same dataflow through the blocking driver
(``EspRuntime.esp_run``, which calls ``DataflowExecutor.execute``) and
through the re-entrant one (``run_process`` inside a sim process).
Every ``RunResult`` field, the output bits and the runtime's trace
records must agree: fault-free in every mode under every coherence
mode, and when a p2p stream dies and the run degrades to ``pipe``. A
blocking run that fails must leave the SoC as it found it.
"""

import dataclasses

import numpy as np
import pytest

from repro.faults import (
    AcceleratorTimeout,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NodeFailed,
    RecoveryPolicy,
)
from repro.runtime import (
    Dataflow,
    DataflowEdge,
    EspRuntime,
    RuntimeCosts,
    chain,
)
from repro.soc import CoherenceMode, SoCConfig, build_soc
from repro.trace import attach_tracer
from tests.conftest import make_soc, make_spec

WORDS = 64
DEVICES = ["a0", "b0", "c0"]


def llc_soc():
    """Three chained sockets next to a memory tile with an LLC, so
    every coherence mode has something to act on."""
    config = SoCConfig(cols=4, rows=2, name="one-path")
    config.add_cpu((0, 0))
    config.add_memory((1, 0), size_words=1 << 16, llc_words=1 << 13)
    config.add_aux((2, 0))
    for index, (coord, name) in enumerate(zip(((3, 0), (0, 1), (1, 1)),
                                              DEVICES)):
        config.add_accelerator(coord, name, make_spec(
            name=name, input_words=WORDS, output_words=WORDS,
            latency=40 + 13 * index))
    return build_soc(config)


def dataflow_for(mode):
    if mode == "custom":
        return Dataflow(name="mixed", devices=list(DEVICES),
                        edges=[DataflowEdge("a0", "b0", comm="p2p"),
                               DataflowEdge("b0", "c0", comm="dma")])
    return chain("abc", DEVICES)


def run_blocking(runtime, dataflow, frames, mode, **kwargs):
    return runtime.esp_run(dataflow, frames, mode=mode, **kwargs)


def run_reentrant(runtime, dataflow, frames, mode, **kwargs):
    env = runtime.soc.env
    return env.run(until=env.process(runtime.executor.run_process(
        dataflow, frames, mode, **kwargs)))


def result_fields(result):
    return {field.name: getattr(result, field.name)
            for field in dataclasses.fields(result)
            if field.name != "outputs"}


def runtime_records(tracer):
    spans = [(s.pid, s.tid, s.name, s.cat, s.start, s.end, s.args)
             for s in tracer.all_spans("runtime")]
    instants = [(i.pid, i.tid, i.name, i.cat, i.ts, i.args)
                for i in tracer.instants if i.cat.startswith("runtime.")]
    return spans, instants


def assert_same_run(blocking, reentrant):
    """Both drivers' ``(result, tracer)`` pairs agree exactly."""
    (result_a, tracer_a), (result_b, tracer_b) = blocking, reentrant
    assert result_fields(result_a) == result_fields(result_b)
    np.testing.assert_array_equal(result_a.outputs.view(np.uint64),
                                  result_b.outputs.view(np.uint64))
    assert runtime_records(tracer_a) == runtime_records(tracer_b)


def both_drivers(build, dataflow, frames, mode, recovery=None,
                 **kwargs):
    runs = []
    for driver in (run_blocking, run_reentrant):
        soc = build()
        tracer = attach_tracer(soc)
        runtime = EspRuntime(soc, recovery=recovery)
        runs.append((driver(runtime, dataflow, frames, mode, **kwargs),
                     tracer))
    return runs


@pytest.mark.parametrize("coherence", list(CoherenceMode),
                         ids=lambda mode: mode.value)
@pytest.mark.parametrize("mode", ["base", "pipe", "p2p", "custom"])
def test_drivers_agree_fault_free(mode, coherence):
    frames = np.random.default_rng(3).uniform(0, 1, (4, WORDS))
    blocking, reentrant = both_drivers(llc_soc, dataflow_for(mode),
                                       frames, mode, coherence=coherence)
    assert_same_run(blocking, reentrant)
    np.testing.assert_array_equal(blocking[0].outputs, frames + 3.0)


def test_drivers_agree_on_degraded_p2p_run():
    """A permanent hang kills a p2p stream; with software fallback
    both drivers abort, quiesce, reset and re-run in ``pipe`` mode,
    and so report the same cycles."""
    from repro.accelerators import classifier_spec, night_vision_spec

    nv, cl = night_vision_spec(), classifier_spec()

    def build():
        soc = make_soc([("nv0", nv), ("cl0", cl)])
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="cl0", at_cycle=0,
                      count=None)])).attach(soc)
        return soc

    recovery = RecoveryPolicy(watchdog_cycles=150_000, max_retries=0,
                              software_fallback=True)
    frames = np.random.default_rng(5).uniform(0, 0.3, (4, 1024))
    blocking, reentrant = both_drivers(
        build, chain("nvcl", ["nv0", "cl0"]), frames, "p2p",
        recovery=recovery)
    assert blocking[0].degraded
    assert_same_run(blocking, reentrant)


def assert_soc_released(runtime):
    assert runtime.allocator.live_buffers == 0
    assert runtime.allocator.free_list_words == 0
    assert len(runtime.soc.results) == 0
    assert runtime.soc.results.primed_plans == 0


def chain_soc():
    return make_soc([(name, make_spec(name=name)) for name in DEVICES])


def golden_outputs(frames, mode):
    return EspRuntime(chain_soc()).esp_run(
        chain("abc", DEVICES), frames, mode=mode).outputs


@pytest.mark.parametrize("mode, error, recovery, costs", [
    pytest.param("base", AcceleratorTimeout, None,
                 RuntimeCosts(completion="poll", max_wait_cycles=5_000),
                 id="accelerator-timeout"),
    pytest.param("pipe", NodeFailed,
                 RecoveryPolicy(watchdog_cycles=20_000, max_retries=0,
                                software_fallback=False), None,
                 id="node-failed-no-fallback"),
    # A reset must drop the p2p load requests of the aborted stream,
    # the one a p2p server holds while it waits for a chunk included,
    # or the re-run's first chunk answers a stale request.
    pytest.param("p2p", NodeFailed,
                 RecoveryPolicy(watchdog_cycles=20_000, max_retries=0,
                                software_fallback=False), None,
                 id="p2p-node-failed-no-fallback"),
])
def test_failed_blocking_run_leaves_soc_reusable(mode, error, recovery,
                                                 costs):
    soc = chain_soc()
    FaultInjector(FaultPlan([FaultSpec(kind="acc_hang", target="b0",
                                       at_cycle=0, count=1)])).attach(soc)
    runtime = EspRuntime(soc, costs=costs, recovery=recovery)
    frames = np.random.default_rng(9).uniform(0, 1, (4, 16))
    with pytest.raises(error):
        runtime.esp_run(chain("abc", DEVICES), frames, mode=mode)
    assert_soc_released(runtime)

    for name in DEVICES:
        runtime.registry.clear_failed(name)
    again = runtime.esp_run(chain("abc", DEVICES), frames, mode=mode)
    np.testing.assert_array_equal(
        again.outputs.view(np.uint64),
        golden_outputs(frames, mode).view(np.uint64))

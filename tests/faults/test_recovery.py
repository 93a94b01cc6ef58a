"""Tests for watchdog / retry / degradation across the runtime stack."""

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
from repro.runtime import EspRuntime, RuntimeCosts, chain
from tests.conftest import make_soc, make_spec


def three_stage_soc():
    """The Fig. 7 shape in miniature: a 3-deep chain of sockets."""
    return make_soc([("s0", make_spec(name="s0")),
                     ("s1", make_spec(name="s1")),
                     ("s2", make_spec(name="s2"))])


DATAFLOW = ["s0", "s1", "s2"]


def run_chain(soc, mode="pipe", n_frames=4, recovery=None, costs=None):
    runtime = EspRuntime(soc, costs=costs, recovery=recovery)
    frames = np.arange(n_frames * 16, dtype=float).reshape(n_frames, 16)
    result = runtime.esp_run(chain("three", DATAFLOW), frames, mode=mode)
    return runtime, result, frames + 3.0   # each stage adds one


def policy(**kwargs):
    kwargs.setdefault("watchdog_cycles", 20_000)
    return RecoveryPolicy(**kwargs)


class TestWatchdogCap:
    def test_uncapped_backoff_grows_exponentially(self):
        p = policy(backoff_factor=2.0)
        assert [p.watchdog_for(a) for a in range(4)] == \
            [20_000, 40_000, 80_000, 160_000]

    def test_cap_clamps_backed_off_deadlines(self):
        p = policy(backoff_factor=2.0, max_watchdog_cycles=50_000)
        assert [p.watchdog_for(a) for a in range(4)] == \
            [20_000, 40_000, 50_000, 50_000]

    def test_cap_below_base_deadline_rejected(self):
        with pytest.raises(ValueError, match="max_watchdog_cycles"):
            policy(max_watchdog_cycles=10_000)

    def test_cap_equal_to_base_pins_every_attempt(self):
        p = policy(backoff_factor=4.0, max_watchdog_cycles=20_000)
        assert [p.watchdog_for(a) for a in range(3)] == [20_000] * 3

    def test_capped_policy_still_recovers_a_hang(self):
        soc = three_stage_soc()
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="s1", at_cycle=1,
                      count=1)])).attach(soc)
        runtime, result, expected = run_chain(
            soc, recovery=policy(max_retries=2, backoff_factor=8.0,
                                 max_watchdog_cycles=25_000))
        assert (result.outputs == expected).all()
        assert runtime.executor.watchdog_timeouts >= 1


class TestHangRecovery:
    def test_pipe_hang_recovers_bit_exact_via_retry(self):
        """The headline scenario: a kernel hang in the middle stage of
        a three-stage pipeline is caught by the watchdog, the device is
        reset and re-invoked, and the batch completes bit-exact."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        _, result, expected = run_chain(soc, recovery=policy())

        np.testing.assert_array_equal(result.outputs, expected)
        assert result.watchdog_timeouts == 1
        assert result.retries == 1
        assert not result.degraded
        assert soc.accelerators["s1"].resets >= 1

    def test_p2p_hang_degrades_and_stays_bit_exact(self):
        """A hang mid-stream cannot be retried (the stream's peers hold
        partial progress): the whole run degrades to a pipe re-run with
        the failed device in software, still bit-exact."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        runtime, result, expected = run_chain(soc, mode="p2p",
                                              recovery=policy())

        np.testing.assert_array_equal(result.outputs, expected)
        assert result.degraded
        assert result.software_frames >= 4
        # The watchdog cannot attribute a stalled stream to its root
        # cause (every peer blocks on the wedged stage), so it marks
        # the first stream whose deadline expires — not necessarily s1.
        assert runtime.registry.failed_names()

    def test_hang_exhausting_retries_falls_back_to_software(self):
        """A permanent hang (the fault re-fires on every attempt) burns
        all retries, then the executor runs the stage on the CPU."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                    at_cycle=0, count=None)])
        FaultInjector(plan).attach(soc)
        runtime, result, expected = run_chain(
            soc, recovery=policy(max_retries=1))

        np.testing.assert_array_equal(result.outputs, expected)
        assert result.retries == 1
        assert result.watchdog_timeouts == 2
        assert result.software_frames == 4
        assert runtime.registry.is_failed("s1")

    def test_fallback_disabled_surfaces_node_failed(self):
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                    at_cycle=0, count=None)])
        FaultInjector(plan).attach(soc)
        with pytest.raises(NodeFailed, match="s1"):
            run_chain(soc, recovery=policy(max_retries=0,
                                           software_fallback=False))


class TestCrashRecovery:
    def test_crash_reports_error_status_and_retries(self):
        """A kernel crash raises STATUS_ERROR (not a timeout): the
        driver sees the error immediately and re-invokes."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_crash", target="s1",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        _, result, expected = run_chain(soc, recovery=policy())

        np.testing.assert_array_equal(result.outputs, expected)
        assert result.retries == 1
        assert result.watchdog_timeouts == 0   # detected via status
        assert soc.accelerators["s1"].kernel_crashes == 1


class TestFailedDeviceRouting:
    def test_marked_failed_device_runs_in_software(self):
        soc = three_stage_soc()
        runtime = EspRuntime(soc, recovery=policy())
        runtime.registry.mark_failed("s1")
        frames = np.arange(4 * 16, dtype=float).reshape(4, 16)
        result = runtime.esp_run(chain("three", DATAFLOW), frames,
                                 mode="pipe")
        np.testing.assert_array_equal(result.outputs, frames + 3.0)
        assert result.software_frames == 4
        assert result.retries == 0   # no hardware attempt at all

    def test_p2p_rerun_after_degradation_keeps_working(self):
        """After a degraded run marked devices, a later p2p request on
        the same runtime degrades cleanly again instead of wedging."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s1",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        runtime, first, expected = run_chain(soc, mode="p2p",
                                             recovery=policy())
        np.testing.assert_array_equal(first.outputs, expected)

        frames = np.arange(4 * 16, dtype=float).reshape(4, 16)
        second = runtime.esp_run(chain("three", DATAFLOW), frames,
                                 mode="p2p")
        np.testing.assert_array_equal(second.outputs, expected)
        assert second.degraded


class TestBoundedPolling:
    def test_poll_loop_times_out_with_descriptive_error(self):
        """Satellite (b): the polling wait carries a configurable bound
        and raises AcceleratorTimeout instead of spinning forever."""
        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="acc_hang", target="s0",
                                    at_cycle=0, count=1)])
        FaultInjector(plan).attach(soc)
        with pytest.raises(AcceleratorTimeout) as exc_info:
            run_chain(soc, mode="base",
                      costs=RuntimeCosts(completion="poll",
                                         max_wait_cycles=5_000))
        err = exc_info.value
        assert err.device == "s0"
        assert err.waited_cycles >= 5_000
        assert "max_wait_cycles" in str(err)

    def test_unbounded_poll_is_default(self):
        costs = RuntimeCosts()
        assert costs.max_wait_cycles is None

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="max_wait_cycles"):
            RuntimeCosts(max_wait_cycles=0)


class TestWatchdogAccounting:
    def test_zero_fault_run_with_recovery_has_no_retries(self):
        soc = three_stage_soc()
        _, result, expected = run_chain(soc, recovery=policy())
        np.testing.assert_array_equal(result.outputs, expected)
        assert result.retries == 0
        assert result.watchdog_timeouts == 0
        assert result.software_frames == 0
        assert not result.degraded

    def test_bounded_reg_read_abandons_lost_replies(self):
        """A lost register access is abandoned after a bound instead
        of hanging the dispatcher: the bounded read returns None and
        counts the timeout."""
        from repro.soc import STATUS_REG

        soc = three_stage_soc()
        plan = FaultPlan([FaultSpec(kind="link_drop", at_cycle=0,
                                    message_kind="REG_ACCESS", count=1)])
        FaultInjector(plan).attach(soc)
        tile = soc.accelerators["s0"]
        box = {}

        def reader():
            box["value"] = yield from soc.cpu.read_reg_bounded(
                tile.coord, STATUS_REG, max_cycles=500)

        done = soc.env.process(reader())
        soc.env.run(until=done)
        assert box["value"] is None
        assert soc.cpu.reg_read_timeouts == 1


class TestServePathDegradation:
    def test_p2p_stream_killed_under_run_process_degrades_bit_exact(self):
        """The serving loop's re-entrant path: a permanent hang kills a
        p2p stream, ``run_process`` degrades in-process to a pipe
        re-run with the failed device in software, and the outputs are
        the software composition of the stages' kernels."""
        from repro.accelerators import classifier_spec, night_vision_spec

        nv, cl = night_vision_spec(), classifier_spec()
        soc = make_soc([("nv0", nv), ("cl0", cl)])
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="cl0", at_cycle=0,
                      count=None)])).attach(soc)
        runtime = EspRuntime(soc, recovery=policy(
            watchdog_cycles=150_000, max_retries=0,
            software_fallback=True))
        frames = np.random.default_rng(5).uniform(0, 0.3, (4, 1024))
        process = soc.env.process(runtime.executor.run_process(
            chain("nvcl", ["nv0", "cl0"]), frames, "p2p"), name="serve")
        result = soc.env.run(until=process)

        expected = np.stack([cl.run(nv.run(frame)) for frame in frames])
        assert result.degraded
        assert runtime.executor.degraded_runs == 1
        assert result.software_frames >= 4
        np.testing.assert_array_equal(result.outputs.view(np.uint64),
                                      expected.view(np.uint64))
        assert len(soc.results) == 0 and soc.results.primed_plans == 0

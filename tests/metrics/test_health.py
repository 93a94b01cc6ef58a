"""HealthMonitor rule evaluation, transitions, and the fault scenario.

The last test is the subsystem's acceptance scenario: a hung
accelerator kernel plus an admission-queue pileup on a live serving
run must drive two *distinct* alerts (``accelerator-stall`` and
``queue-saturation``) through the full ``firing -> resolved``
lifecycle, with the stall detected from the progress heartbeat while
the watchdog is still counting down.
"""

import numpy as np
import pytest

from repro.eval import build_soc1
from repro.eval.apps import de_cl_inputs
from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
    RecoveryPolicy
from repro.metrics import (
    HealthMonitor,
    MetricsRegistry,
    MetricsSampler,
    SloRule,
    accelerator_stall_rule,
    default_rules,
    instrument_server,
    latency_burn_rule,
    latency_slo_rule,
    link_congestion_rule,
    queue_saturation_rule,
)
from repro.metrics.health import STATE_FIRING, STATE_RESOLVED
from repro.runtime import EspRuntime, chain
from repro.serve import (
    InferenceServer,
    ServerConfig,
    TenantConfig,
    TracedRequest,
)
from repro.sim import Environment


def fresh_registry():
    return MetricsRegistry(Environment())


def flag_rule(name="flag", severity="warning"):
    """A rule toggled by mutating ``state['violated']``."""
    state = {"violated": False}

    def check(registry, now):
        return "violated" if state["violated"] else None

    return SloRule(name=name, check=check, severity=severity), state


class TestMonitor:
    def test_fire_hold_resolve(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])

        assert monitor.evaluate() == []
        assert monitor.status() == "healthy"

        state["violated"] = True
        transitions = monitor.evaluate()
        assert [a.state for a in transitions] == [STATE_FIRING]
        assert monitor.status() == "degraded"
        # Still violated: no new transition, same alert held.
        assert monitor.evaluate() == []
        assert len(monitor.history) == 1

        state["violated"] = False
        transitions = monitor.evaluate()
        assert [a.state for a in transitions] == [STATE_RESOLVED]
        assert monitor.status() == "healthy"
        assert monitor.history[0].resolved_at is not None

    def test_refire_is_a_new_incident(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])
        for _ in range(2):
            state["violated"] = True
            monitor.evaluate()
            state["violated"] = False
            monitor.evaluate()
        assert len(monitor.history) == 2
        assert all(a.state == STATE_RESOLVED for a in monitor.history)

    def test_critical_dominates_status(self):
        registry = fresh_registry()
        warn, warn_state = flag_rule("warn", "warning")
        crit, crit_state = flag_rule("crit", "critical")
        monitor = HealthMonitor(registry, [warn, crit])
        warn_state["violated"] = crit_state["violated"] = True
        monitor.evaluate()
        assert monitor.status() == "critical"
        assert len(monitor.firing()) == 2
        assert "FIRING [critical] crit" in monitor.render()

    def test_duplicate_rule_names_rejected(self):
        registry = fresh_registry()
        rule, _ = flag_rule()
        with pytest.raises(ValueError):
            HealthMonitor(registry, [rule, rule])
        monitor = HealthMonitor(registry, [rule])
        with pytest.raises(ValueError):
            monitor.add_rule(rule)

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError):
            SloRule(name="x", check=lambda r, n: None,
                    severity="catastrophic")


class TestHysteresisAndHistory:
    def advance(self, registry, cycles):
        env = registry.env
        env.run(until=env.timeout(cycles))

    def test_fire_after_requires_consecutive_breaches(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule], fire_after=3)
        state["violated"] = True
        assert monitor.evaluate() == []
        assert monitor.evaluate() == []
        assert monitor.status() == "healthy"
        transitions = monitor.evaluate()
        assert [a.state for a in transitions] == [STATE_FIRING]

    def test_noisy_scrape_cannot_flap_an_alert(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule], fire_after=2)
        # Alternating breach/clean never accumulates the streak.
        for _ in range(4):
            state["violated"] = True
            assert monitor.evaluate() == []
            state["violated"] = False
            assert monitor.evaluate() == []
        assert monitor.history == []

    def test_resolve_after_holds_through_one_clean_scrape(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule], resolve_after=2)
        state["violated"] = True
        monitor.evaluate()
        state["violated"] = False
        assert monitor.evaluate() == []          # one clean: held
        state["violated"] = True
        assert monitor.evaluate() == []          # breach resets streak
        state["violated"] = False
        assert monitor.evaluate() == []
        transitions = monitor.evaluate()         # two clean: resolves
        assert [a.state for a in transitions] == [STATE_RESOLVED]
        assert len(monitor.history) == 1

    def test_rule_override_beats_monitor_default(self):
        registry = fresh_registry()
        slow, slow_state = flag_rule("slow")
        fast, fast_state = flag_rule("fast")
        fast = SloRule(name="fast", check=fast.check,
                       severity="warning", fire_after=1)
        monitor = HealthMonitor(registry, [slow, fast], fire_after=3)
        slow_state["violated"] = fast_state["violated"] = True
        transitions = monitor.evaluate()
        assert [a.rule for a in transitions] == ["fast"]

    def test_defaults_must_be_positive(self):
        registry = fresh_registry()
        with pytest.raises(ValueError):
            HealthMonitor(registry, [], fire_after=0)
        with pytest.raises(ValueError):
            HealthMonitor(registry, [], resolve_after=0)

    def test_lifecycle_history_is_ordered_and_non_overlapping(self):
        """Satellite acceptance: repeated fire -> resolve -> fire
        cycles on one rule keep an ordered, non-overlapping history
        with the cycles the hysteresis thresholds were crossed at."""
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule],
                                fire_after=2, resolve_after=2)
        expected = []
        for _ in range(3):
            state["violated"] = True
            for tick in range(2):       # fires on the second breach
                self.advance(registry, 100)
                monitor.evaluate()
            expected.append({"fired_at": registry.env.now})
            state["violated"] = False
            for tick in range(2):       # resolves on the second clean
                self.advance(registry, 100)
                monitor.evaluate()
            expected[-1]["resolved_at"] = registry.env.now

        assert len(monitor.history) == 3
        assert monitor.active == {}
        for alert, want in zip(monitor.history, expected):
            assert alert.state == STATE_RESOLVED
            assert alert.fired_at == want["fired_at"]
            assert alert.resolved_at == want["resolved_at"]
            assert alert.fired_at < alert.resolved_at
        # Ordered and non-overlapping: each incident resolves before
        # the next one fires.
        for earlier, later in zip(monitor.history,
                                  monitor.history[1:]):
            assert earlier.resolved_at <= later.fired_at
        # The fourth incident, left firing, appends after all three.
        state["violated"] = True
        self.advance(registry, 100)
        monitor.evaluate()
        self.advance(registry, 100)
        monitor.evaluate()
        assert len(monitor.history) == 4
        assert monitor.history[-1].state == STATE_FIRING
        assert monitor.history[-1].fired_at >= \
            monitor.history[-2].resolved_at

    def test_subscribers_run_after_every_evaluation(self):
        registry = fresh_registry()
        rule, state = flag_rule()
        monitor = HealthMonitor(registry, [rule])
        seen = []
        monitor.subscribe(
            lambda mon, transitions: seen.append(
                (mon is monitor, [a.state for a in transitions])))
        monitor.evaluate()                   # quiet pass still notifies
        state["violated"] = True
        monitor.evaluate()
        monitor.evaluate()                   # persistence, no transition
        assert seen == [(True, []), (True, [STATE_FIRING]),
                        (True, [])]


class TestRuleFactories:
    def test_queue_saturation(self):
        registry = fresh_registry()
        rule = queue_saturation_rule(max_depth=10, fraction=0.8)
        registry.serve_queue_depth.set(7)
        assert rule.check(registry, 0) is None
        registry.serve_queue_depth.set(8)
        assert "queue depth 8 >= 8" in rule.check(registry, 0)

    def test_latency_slo_quiet_below_min_requests(self):
        registry = fresh_registry()
        rule = latency_slo_rule("t", target_cycles=100,
                                min_requests=5)
        series = registry.serve_request_cycles.labels("t")
        for _ in range(4):
            series.observe(10_000)   # way over, but too few samples
        assert rule.check(registry, 0) is None
        series.observe(10_000)
        assert "error budget" in rule.description
        assert rule.check(registry, 0) is not None

    def test_latency_slo_within_budget(self):
        registry = fresh_registry()
        rule = latency_slo_rule("t", target_cycles=1 << 20,
                                error_budget=0.5)
        series = registry.serve_request_cycles.labels("t")
        for _ in range(10):
            series.observe(100)
        assert rule.check(registry, 0) is None

    def test_latency_burn_fires_holds_then_resolves(self):
        """The burn is judged per window of new completions: a slow
        window fires, a window with too few completions holds the
        verdict, a fast window resolves it."""
        registry = fresh_registry()
        rule = latency_burn_rule("t", target_cycles=1024,
                                 error_budget=0.25, min_requests=2)
        monitor = HealthMonitor(registry, [rule])
        series = registry.serve_request_cycles.labels("t")

        for _ in range(3):                  # slow window
            series.observe(8192)
        series.observe(100)
        assert [a.state for a in monitor.evaluate()] == [STATE_FIRING]
        assert ("75.0% of last 4 requests over 1024 cycles"
                in monitor.active["latency-burn:t"].detail)

        series.observe(100)                 # too few to judge: hold
        assert monitor.evaluate() == []
        assert "latency-burn:t" in monitor.active

        for _ in range(4):                  # fast window
            series.observe(100)
        assert [a.state for a in monitor.evaluate()] == [STATE_RESOLVED]
        assert monitor.status() == "healthy"
        # A quiet tenant stays clean.
        assert monitor.evaluate() == []
        assert len(monitor.history) == 1

    def test_link_congestion_silent_without_collectors(self):
        registry = fresh_registry()
        rule = link_congestion_rule()
        assert rule.check(registry, 0) is None
        # With the gauge present the worst offender is named.
        gauge = registry.gauge("noc_link_utilization", "",
                               ("link", "plane"))
        gauge.labels("0,0->1,0", "dma-req").set(0.95)
        gauge.labels("1,0->1,1", "dma-rsp").set(0.97)
        detail = rule.check(registry, 0)
        assert "1,0->1,1" in detail and "97%" in detail

    def test_accelerator_stall_needs_running_status(self):
        from repro.soc.registers import STATUS_RUNNING
        registry = fresh_registry()
        rule = accelerator_stall_rule(quiet_cycles=100)
        status = registry.gauge("acc_status", "", ("device",))
        registry.acc_last_progress.labels("de0").set(0)
        # Idle device: never a stall, however quiet.
        status.labels("de0").set(0)
        assert rule.check(registry, 10_000) is None
        # Running and quiet past the threshold: stalled.
        status.labels("de0").set(STATUS_RUNNING)
        assert rule.check(registry, 99) is None
        assert "de0" in rule.check(registry, 101)

    def test_default_rules_derive_quiet_cycles(self):
        runtime = EspRuntime(build_soc1())
        server = InferenceServer(runtime, ServerConfig())
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-hr", ["de0"]),
            mode="pipe"))
        rules = default_rules(server)
        names = {r.name for r in rules}
        assert {"queue-saturation", "link-congestion",
                "accelerator-stall"} <= names
        stall = next(r for r in rules
                     if r.name == "accelerator-stall")
        # 2x the slowest kernel (de0: 14370) — one full COMPUTE phase
        # of heartbeat silence is legitimate, twice that is not.
        assert "28740" in stall.description


class TestFaultScenario:
    """Acceptance: acc hang + queue pileup -> two alerts, full cycle."""

    def test_hang_and_saturation_fire_and_resolve(self):
        runtime = EspRuntime(
            build_soc1(),
            recovery=RecoveryPolicy(watchdog_cycles=45_000,
                                    max_retries=2,
                                    software_fallback=False))
        FaultInjector(FaultPlan([
            FaultSpec(kind="acc_hang", target="de0", at_cycle=1,
                      count=1)])).attach(runtime.soc)
        # max_batch_frames=1 defeats coalescing so queued requests sit
        # in the admission queue (not one batch) while de0 is hung.
        server = InferenceServer(runtime,
                                 ServerConfig(max_queue_depth=8))
        server.register(TenantConfig(
            name="denoiser", dataflow=chain("1de-hang", ["de0"]),
            mode="pipe", max_batch_frames=1))
        registry = instrument_server(server)
        monitor = HealthMonitor(registry, [
            # Depth >= 4 of 8 while the hung batch blocks the loop.
            queue_saturation_rule(max_depth=8, fraction=0.5),
            # One COMPUTE phase of silence (14370) is legitimate;
            # 30000 is not, and the watchdog only fires at 45000 —
            # the monitor sees the stall before recovery kicks in.
            accelerator_stall_rule(quiet_cycles=30_000),
        ])
        MetricsSampler(registry, interval=2_500,
                       callbacks=[lambda r: monitor.evaluate()]).start()

        frames, _ = de_cl_inputs(6, seed=0)
        trace = [TracedRequest(500 * i, "denoiser",
                               np.atleast_2d(frames)[i:i + 1])
                 for i in range(6)]
        report = server.run_trace(trace)
        monitor.evaluate()

        # The hang was recovered, not dropped: all six served.
        assert len(report.completions) == 6
        assert registry.get(
            "runtime_watchdog_timeouts_total").total >= 1

        by_rule = {}
        for alert in monitor.history:
            by_rule.setdefault(alert.rule, []).append(alert)
        assert {"queue-saturation", "accelerator-stall"} <= \
            set(by_rule), monitor.history
        for rule in ("queue-saturation", "accelerator-stall"):
            alert = by_rule[rule][0]
            assert alert.state == STATE_RESOLVED, alert
            assert alert.resolved_at > alert.fired_at > 0, alert
        # The stall was caught mid-hang, before the watchdog (45000)
        # reset the tile.
        stall = by_rule["accelerator-stall"][0]
        assert stall.fired_at < 45_000
        assert monitor.status() == "healthy"

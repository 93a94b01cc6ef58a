"""Declarative SLO rules and the firing/resolved health monitor.

A production serving stack does not read dashboards — it evaluates
*rules* against the live metrics and pages when one fires. This module
is that layer for the simulated SoC: an :class:`SloRule` is a named
predicate over the :class:`MetricsRegistry`; the :class:`HealthMonitor`
evaluates its rule set (typically from a :class:`MetricsSampler` tick)
and tracks each rule's alert through the ``firing -> resolved``
transition, keeping a history of every transition with the cycle it
happened at.

Rule factories for the standard failure modes ship below:

- :func:`queue_saturation_rule` — admission queue near its bound;
- :func:`latency_slo_rule` — a tenant burning its latency error
  budget (fraction of requests over target, from histogram buckets);
- :func:`latency_burn_rule` — the same signal over the *delta*
  between evaluations, so the alert resolves once recent requests
  are fast again (the shape a remediating controller needs);
- :func:`link_congestion_rule` — a NoC link above a utilization
  ceiling;
- :func:`accelerator_stall_rule` — a tile whose status register says
  RUNNING but whose progress heartbeat has gone quiet (the observable
  signature of a hung kernel or wedged DMA engine).

Evaluation reads registry state only: it never schedules events, so a
monitor (like all recording) cannot perturb simulated timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .registry import MetricsRegistry

#: Alert severities, mildest first. ``status()`` reports the worst
#: severity among currently-firing alerts.
SEVERITIES = ("info", "warning", "critical")

STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"


@dataclass(frozen=True)
class SloRule:
    """One declarative health rule.

    ``check(registry, now)`` returns ``None`` when the rule is
    satisfied, or a human-readable violation detail when it is not.

    ``fire_after`` / ``resolve_after`` override the monitor's
    hysteresis for this rule (0 = inherit the monitor's setting): the
    rule must breach on that many *consecutive* evaluations before its
    alert fires, and pass on that many before it resolves.
    """

    name: str
    check: Callable[[MetricsRegistry, int], Optional[str]]
    severity: str = "warning"
    description: str = ""
    fire_after: int = 0
    resolve_after: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, "
                             f"got {self.severity!r}")
        if self.fire_after < 0 or self.resolve_after < 0:
            raise ValueError("fire_after/resolve_after must be >= 0")


@dataclass
class Alert:
    """One rule's alert lifecycle: fired at some cycle, maybe resolved."""

    rule: str
    severity: str
    state: str
    fired_at: int
    detail: str
    resolved_at: Optional[int] = None

    @property
    def is_firing(self) -> bool:
        return self.state == STATE_FIRING

    def __repr__(self) -> str:
        window = (f"@{self.fired_at}"
                  if self.resolved_at is None
                  else f"@{self.fired_at}..{self.resolved_at}")
        return (f"<Alert {self.rule} [{self.severity}] {self.state} "
                f"{window}>")


@dataclass
class HealthMonitor:
    """Evaluates a rule set against the registry; tracks transitions.

    ``fire_after`` / ``resolve_after`` add hysteresis: a rule must
    breach on that many consecutive evaluations before its alert
    fires, and pass on that many before it resolves, so one noisy
    scrape cannot flap an alert. The defaults (1/1) fire and resolve
    immediately — the pre-hysteresis behavior. Rules can override
    either knob individually via :class:`SloRule`.
    """

    registry: MetricsRegistry
    rules: Sequence[SloRule] = ()
    #: Consecutive breaching evaluations before an alert fires.
    fire_after: int = 1
    #: Consecutive clean evaluations before an alert resolves.
    resolve_after: int = 1
    #: Currently-firing alert per rule name.
    active: Dict[str, Alert] = field(default_factory=dict)
    #: Every alert ever raised (firing and resolved), in fire order.
    history: List[Alert] = field(default_factory=list)
    evaluations: int = 0

    def __post_init__(self) -> None:
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        if self.fire_after < 1 or self.resolve_after < 1:
            raise ValueError("fire_after/resolve_after must be >= 1")
        self.rules = list(self.rules)
        self._breach_streak: Dict[str, int] = {}
        self._clean_streak: Dict[str, int] = {}
        self._subscribers: List[Callable[..., None]] = []

    def add_rule(self, rule: SloRule) -> None:
        if any(r.name == rule.name for r in self.rules):
            raise ValueError(f"rule {rule.name!r} already registered")
        self.rules.append(rule)

    def subscribe(self, fn: Callable[..., None]) -> None:
        """Register ``fn(monitor, transitions)`` to run after every
        evaluation pass (even when nothing transitioned — subscribers
        like the control plane also act on alert *persistence*)."""
        self._subscribers.append(fn)

    def _thresholds(self, rule: SloRule) -> tuple:
        fire = rule.fire_after or self.fire_after
        resolve = rule.resolve_after or self.resolve_after
        return fire, resolve

    def evaluate(self) -> List[Alert]:
        """One evaluation pass; returns alerts that *transitioned*.

        Refreshes collector-backed gauges first, then checks every
        rule: a violation with no active alert fires one (once the
        breach streak reaches ``fire_after``); a satisfied rule with
        an active alert resolves it (once the clean streak reaches
        ``resolve_after``). A rule that stays violated keeps its
        original alert (and ``fired_at``) — alerts do not re-fire on
        every tick, only on state changes, so the history length
        measures incidents, not evaluations. Subscribers registered
        via :meth:`subscribe` run after the pass.
        """
        self.registry.run_collectors()
        now = self.registry.env.now
        self.evaluations += 1
        transitions: List[Alert] = []
        for rule in self.rules:
            detail = rule.check(self.registry, now)
            alert = self.active.get(rule.name)
            fire_after, resolve_after = self._thresholds(rule)
            if detail is not None:
                streak = self._breach_streak.get(rule.name, 0) + 1
                self._breach_streak[rule.name] = streak
                self._clean_streak[rule.name] = 0
                if alert is None and streak >= fire_after:
                    alert = Alert(rule=rule.name,
                                  severity=rule.severity,
                                  state=STATE_FIRING, fired_at=now,
                                  detail=detail)
                    self.active[rule.name] = alert
                    self.history.append(alert)
                    transitions.append(alert)
                elif alert is not None:
                    alert.detail = detail   # keep the message current
            else:
                streak = self._clean_streak.get(rule.name, 0) + 1
                self._clean_streak[rule.name] = streak
                self._breach_streak[rule.name] = 0
                if alert is not None and streak >= resolve_after:
                    alert.state = STATE_RESOLVED
                    alert.resolved_at = now
                    del self.active[rule.name]
                    transitions.append(alert)
        for fn in self._subscribers:
            fn(self, transitions)
        return transitions

    def status(self) -> str:
        """``healthy`` / ``degraded`` / ``critical`` right now."""
        if not self.active:
            return "healthy"
        worst = max(SEVERITIES.index(a.severity)
                    for a in self.active.values())
        return "critical" if SEVERITIES[worst] == "critical" \
            else "degraded"

    def firing(self) -> List[Alert]:
        return sorted(self.active.values(), key=lambda a: a.fired_at)

    def render(self) -> str:
        lines = [f"health: {self.status()} "
                 f"({self.evaluations} evaluations, "
                 f"{len(self.history)} incidents)"]
        for alert in self.firing():
            lines.append(f"  FIRING [{alert.severity}] {alert.rule} "
                         f"since cycle {alert.fired_at}: {alert.detail}")
        return "\n".join(lines)


# -- rule factories ---------------------------------------------------------

def _gauge_series(registry: MetricsRegistry, name: str, where):
    """Series of a gauge family that ``where`` accepts, sorted; [] when
    the family never got registered. The filter runs before the sort,
    so an evaluation sorts only the few series that matter."""
    try:
        family = registry.get(name)
    except KeyError:
        return []
    return family.series(where)


def queue_saturation_rule(max_depth: int, fraction: float = 0.8,
                          severity: str = "warning") -> SloRule:
    """Fires while the serve queue is at >= ``fraction`` of its bound."""
    threshold = max(1, int(max_depth * fraction))

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        depth = registry.serve_queue_depth.value
        if depth >= threshold:
            return (f"queue depth {depth} >= {threshold} "
                    f"({fraction:.0%} of max_depth {max_depth})")
        return None

    return SloRule(
        name="queue-saturation", check=check, severity=severity,
        description=(f"admission queue at {fraction:.0%} of its "
                     f"{max_depth}-request bound"))


def latency_slo_rule(tenant: str, target_cycles: int,
                     error_budget: float = 0.01,
                     min_requests: int = 5,
                     severity: str = "warning") -> SloRule:
    """Fires while ``tenant`` burns its latency error budget.

    The burn signal is the fraction of completed requests whose
    end-to-end latency exceeded ``target_cycles``, computed from the
    ``serve_request_cycles`` histogram buckets (conservative: a
    request sharing the target's bucket counts as over — see
    ``HistogramSeries.fraction_over``). Below ``min_requests``
    completions the rule stays quiet (no signal, no alert).
    """

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        series = registry.serve_request_cycles.labels(tenant)
        if series.count < min_requests:
            return None
        over = series.fraction_over(target_cycles)
        if over > error_budget:
            return (f"tenant {tenant!r}: {over:.1%} of "
                    f"{series.count} requests over "
                    f"{target_cycles} cycles (budget "
                    f"{error_budget:.1%})")
        return None

    return SloRule(
        name=f"latency-slo:{tenant}", check=check, severity=severity,
        description=(f"{tenant!r} requests over {target_cycles} cycles "
                     f"beyond a {error_budget:.1%} error budget"))


def latency_burn_rule(tenant: str, target_cycles: int,
                      error_budget: float = 0.25,
                      min_requests: int = 2,
                      severity: str = "warning") -> SloRule:
    """Fires while ``tenant``'s *recent* completions burn the budget.

    :func:`latency_slo_rule` computes the over-target fraction over
    the whole cumulative histogram, so once enough slow requests have
    accumulated the alert can never resolve — even after a remediation
    restores hardware-speed serving. This variant evaluates the burn
    over the **delta** between evaluations: the fraction of requests
    completed since the last check that exceeded ``target_cycles``.
    Windows with fewer than ``min_requests`` new completions hold the
    previous verdict (a stalled tenant completing nothing stays in
    breach; a quiet healthy tenant stays clean).
    """
    state = {"count": 0.0, "over": 0.0, "breaching": False}

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        series = registry.serve_request_cycles.labels(tenant)
        count = float(series.count)
        over = series.fraction_over(target_cycles) * count \
            if count else 0.0
        d_count = count - state["count"]
        d_over = over - state["over"]
        if d_count >= min_requests:
            state["count"], state["over"] = count, over
            fraction = d_over / d_count
            state["breaching"] = fraction > error_budget
            if state["breaching"]:
                state["detail"] = (
                    f"tenant {tenant!r}: {fraction:.1%} of last "
                    f"{int(d_count)} requests over {target_cycles} "
                    f"cycles (budget {error_budget:.1%})")
        if state["breaching"]:
            return state.get(
                "detail",
                f"tenant {tenant!r} burning latency budget")
        return None

    return SloRule(
        name=f"latency-burn:{tenant}", check=check, severity=severity,
        description=(f"{tenant!r} recent requests over "
                     f"{target_cycles} cycles beyond a "
                     f"{error_budget:.1%} error budget"))


def link_congestion_rule(threshold: float = 0.9,
                         severity: str = "warning") -> SloRule:
    """Fires while any NoC link's utilization exceeds ``threshold``.

    Needs the SoC collectors (``register_soc_collectors``) so the
    ``noc_link_utilization`` gauges exist; without them the rule is
    silent rather than failing.
    """

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        worst = None
        for values, series in _gauge_series(
                registry, "noc_link_utilization",
                lambda series: series.value > threshold):
            if worst is None or series.value > worst[1]:
                worst = (values, series.value)
        if worst is not None:
            (link, plane), utilization = worst[0], worst[1]
            return (f"link {link} plane {plane} at "
                    f"{utilization:.0%} utilization "
                    f"(threshold {threshold:.0%})")
        return None

    return SloRule(
        name="link-congestion", check=check, severity=severity,
        description=f"a NoC link above {threshold:.0%} utilization")


def stalled_devices(registry: MetricsRegistry, now: int,
                    quiet_cycles: int) -> List[tuple]:
    """``(device, quiet)`` pairs for RUNNING tiles whose progress
    heartbeat is older than ``quiet_cycles``.

    Shared by :func:`accelerator_stall_rule` and the control plane
    (which needs the offending device names, not just the alert
    detail string). Needs the SoC collectors for the ``acc_status``
    gauge; returns ``[]`` without them.
    """
    from ..soc.registers import STATUS_RUNNING

    stalled = []
    for values, series in _gauge_series(
            registry, "acc_status",
            lambda series: series.value == STATUS_RUNNING):
        device = values[0]
        last = registry.acc_last_progress.labels(device).value
        quiet = now - last
        if quiet > quiet_cycles:
            stalled.append((device, quiet))
    return stalled


def accelerator_stall_rule(quiet_cycles: int,
                           severity: str = "critical") -> SloRule:
    """Fires while a RUNNING tile's progress heartbeat is quiet.

    A healthy invocation completes DMA transactions continuously;
    ``acc_last_progress_cycle`` tracks the latest one per device. A
    device whose ``STATUS_REG`` reads RUNNING but whose heartbeat is
    older than ``quiet_cycles`` is wedged — a hung kernel, a dead DMA
    engine, or a lost p2p request upstream. Needs the SoC collectors
    for the live ``acc_status`` gauge.
    """

    def check(registry: MetricsRegistry, now: int) -> Optional[str]:
        stalled = stalled_devices(registry, now, quiet_cycles)
        if stalled:
            worst = max(stalled, key=lambda s: s[1])
            return (f"device {worst[0]!r} RUNNING with no progress "
                    f"for {worst[1]} cycles (threshold "
                    f"{quiet_cycles}); {len(stalled)} stalled total")
        return None

    return SloRule(
        name="accelerator-stall", check=check, severity=severity,
        description=(f"a RUNNING tile quiet for more than "
                     f"{quiet_cycles} cycles"))


def default_rules(server, target_cycles: Optional[int] = None,
                  quiet_cycles: Optional[int] = None) -> List[SloRule]:
    """A sensible rule set for one :class:`InferenceServer`.

    ``quiet_cycles`` defaults to twice the slowest registered kernel's
    per-frame compute latency: the longest legitimate heartbeat gap is
    one COMPUTE phase (no DMA completes while the kernel crunches), so
    2x that cannot false-positive on a healthy tile, while a genuinely
    hung kernel stays quiet forever and still trips it.
    """
    if quiet_cycles is None:
        slowest = max((tile.spec.latency_cycles
                       for tile in server.soc.accelerators.values()),
                      default=1000)
        quiet_cycles = 2 * slowest
    rules = [
        queue_saturation_rule(server.config.max_queue_depth),
        link_congestion_rule(),
        accelerator_stall_rule(quiet_cycles),
    ]
    if target_cycles is not None:
        for tenant in server.tenants:
            rules.append(latency_slo_rule(tenant, target_cycles))
    return rules

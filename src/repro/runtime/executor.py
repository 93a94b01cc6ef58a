"""The runtime executor: dataflow -> running accelerator pipeline.

This is the paper's contribution 3 (Sec. V): "a runtime system on top
of Linux that takes this dataflow and translates it into a pipeline of
accelerators that are dynamically configured, managed, and kept
synchronized as they access shared data ... fully transparent to the
application programmer."

Execution modes (base/pipe/p2p are the bars of Fig. 7; ``custom``
honours each edge's own transport):

- ``base``: the accelerators are "invoked serially in a single-thread
  application"; every invocation is one frame; all data through DRAM.
- ``pipe``: "concurrent executions in a reconfigurable pipeline, as
  the accelerators are invoked with a multi-threaded application (one
  thread per accelerator)"; per-frame dependencies "enforced with
  pthread primitives"; data still through DRAM.
- ``p2p``: the same pipeline "adds the ESP4ML p2p communication":
  one *streaming* invocation per accelerator covering all frames;
  synchronization moves into hardware, software overhead drops to "the
  ioctl system calls that are used to start the accelerators".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..faults import AcceleratorTimeout, NodeFailed, RecoveryPolicy
from ..sim import Event, Interrupt, Process, ProgressCounter
from ..soc import (
    CMD_REG,
    CMD_RESET,
    CMD_START,
    COHERENCE_REG,
    CoherenceMode,
    DVFS_REG,
    DST_OFFSET_REG,
    DST_STRIDE_REG,
    N_FRAMES_REG,
    P2PConfig,
    P2P_REG,
    SRC_OFFSET_REG,
    SRC_STRIDE_REG,
    STATUS_DONE,
    STATUS_REG,
    SoCInstance,
)
from .alloc import Buffer, ContigAllocator
from .dataflow import Dataflow, EXECUTION_MODES
from .driver import DeviceRegistry, EspDevice

#: ``P2P_REG`` contents of an invocation with both sides on DMA.
_DMA = P2PConfig()


@dataclass(frozen=True)
class RuntimeCosts:
    """Software overheads on the RISC-V core, in cycles at SoC clock.

    ``completion`` selects how the driver observes accelerator
    completion: ``"irq"`` sleeps on the interrupt (the paper's
    drivers); ``"poll"`` spins on ``STATUS_REG`` over the IO plane
    every ``poll_interval_cycles`` — cheaper per event but it burns CPU
    cycles and NoC bandwidth, and adds up to one interval of completion
    latency.
    """

    ioctl_cycles: int = 600          # syscall entry/exit + driver work
    reg_write_cycles: int = 10       # uncached MMIO store issue
    thread_spawn_cycles: int = 150   # pthread_create
    sync_cycles: int = 40            # semaphore wait/post pair
    completion: str = "irq"          # "irq" | "poll"
    poll_interval_cycles: int = 200
    #: Upper bound on the STATUS_REG poll loop, in cycles. ``None``
    #: (the default) preserves the unbounded spin of the original
    #: driver; a bound turns a dead accelerator into a descriptive
    #: :class:`~repro.faults.AcceleratorTimeout` instead of a hang.
    max_wait_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.completion not in ("irq", "poll"):
            raise ValueError(
                f"completion must be 'irq' or 'poll', got "
                f"{self.completion!r}")
        if self.poll_interval_cycles < 1:
            raise ValueError("poll_interval_cycles must be >= 1")
        if self.max_wait_cycles is not None and self.max_wait_cycles < 1:
            raise ValueError("max_wait_cycles must be >= 1 (or None)")


@dataclass
class NodePlan:
    """One device's role in the planned execution."""

    device: EspDevice
    level: int
    index: int            # position among its level's siblings
    siblings: int         # number of devices at this level
    n_frames: int         # frames this instance processes

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def spec(self):
        return self.device.tile.spec


@dataclass
class ExecutionPlan:
    """Buffers and per-node assignments for one esp_run call.

    Plans are self-contained so several can be in flight concurrently
    on one SoC (the serving layer interleaves plans over disjoint tile
    sets): pipeline threads and runtime-overhead counters live on the
    plan, not on the executor, and the buffers the plan allocated can
    be released as a unit when it completes.
    """

    dataflow: Dataflow
    mode: str
    n_frames: int
    levels: List[List[NodePlan]]
    input_buffer: Buffer
    output_buffer: Buffer
    inter_buffers: List[Optional[Buffer]]   # one per level boundary
    #: Per-device DMA coherence mode; devices not in the mapping run
    #: non-coherent (the seed behaviour).
    coherence: Dict[str, CoherenceMode] = field(default_factory=dict)
    dvfs: Dict[str, int] = field(default_factory=dict)  # device -> divider
    #: Pipeline threads spawned for this plan (plan-local so concurrent
    #: plans never clobber each other's thread lists).
    threads: List[Process] = field(default_factory=list)
    # Per-plan runtime accounting (the executor keeps cumulative totals
    # too; these attribute overheads to one plan under concurrency).
    ioctl_calls: int = 0
    retries: int = 0
    watchdog_timeouts: int = 0
    software_frames: int = 0
    #: First unrecoverable error a pipeline thread hit. Threads record
    #: it here (and trigger ``abort``) instead of crashing the global
    #: event loop, so a failure inside one plan stays observable by
    #: that plan's main alone — a second plan sharing the SoC keeps
    #: running.
    failure: Optional[BaseException] = None
    abort: Optional[Event] = None

    def node(self, name: str) -> NodePlan:
        for level in self.levels:
            for node in level:
                if node.name == name:
                    return node
        raise KeyError(name)

    def mode_for(self, name: str) -> CoherenceMode:
        return self.coherence.get(name, CoherenceMode.NON_COHERENT)

    @property
    def device_names(self) -> List[str]:
        return [node.name for level in self.levels for node in level]

    @property
    def buffers(self) -> List[Buffer]:
        """Every buffer this plan allocated (for pooled release)."""
        return [self.input_buffer, self.output_buffer] + \
            [b for b in self.inter_buffers if b is not None]


@dataclass
class RunResult:
    """Measured outcome of one esp_run call."""

    dataflow: str
    mode: str
    frames: int
    cycles: int
    clock_mhz: float
    dram_accesses: int
    ioctl_calls: int
    outputs: np.ndarray = field(repr=False)
    # Recovery accounting (all zero on a fault-free run).
    retries: int = 0
    watchdog_timeouts: int = 0
    software_frames: int = 0
    degraded: bool = False

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def frames_per_second(self) -> float:
        return self.frames / self.seconds if self.seconds > 0 else 0.0

    def frames_per_joule(self, watts: float) -> float:
        if watts <= 0:
            raise ValueError(f"watts must be > 0, got {watts}")
        return self.frames_per_second / watts


class DataflowExecutor:
    """Plans and executes dataflows on a built SoC instance."""

    def __init__(self, soc: SoCInstance, registry: DeviceRegistry,
                 allocator: ContigAllocator,
                 costs: Optional[RuntimeCosts] = None,
                 recovery: Optional[RecoveryPolicy] = None) -> None:
        self.soc = soc
        self.registry = registry
        self.allocator = allocator
        self.costs = costs or RuntimeCosts()
        #: ``None`` (the default) keeps the original fail-stop runtime:
        #: every wait is unbounded and the execution path is exactly the
        #: non-robust one (pay-for-what-you-use). A policy arms the
        #: per-invocation watchdog, bounded retry and software fallback.
        self.recovery = recovery
        self.ioctl_calls = 0
        # Recovery accounting (totals across runs).
        self.retries = 0
        self.watchdog_timeouts = 0
        self.software_frames = 0
        self.degraded_runs = 0
        #: Devices the control plane ordered onto the CPU fallback.
        #: Unlike a registry ``failed`` mark (the hardware's verdict),
        #: a forced device is a *policy* decision: invocations route
        #: straight to software without burning the watchdog ladder,
        #: and an in-flight watchdog wait is preempted immediately.
        self.forced_software: Set[str] = set()
        self.forced_preemptions = 0
        self._preempts: Dict[str, Event] = {}
        #: Upper bound, in cycles, on the posted-store quiesce wait of
        #: the re-entrant :meth:`run_process` path. ``None`` waits
        #: until fully quiescent; a bound writes lost stores off so a
        #: dropped packet cannot wedge the serving loop.
        self.quiesce_bound: Optional[int] = None

    # -- planning ----------------------------------------------------------

    @staticmethod
    def _resolve_modes(dataflow: Dataflow,
                       coherence) -> Dict[str, CoherenceMode]:
        """Per-device coherence assignment for one plan.

        ``coherence`` may be a single mode (enum or string) applied to
        every device, or a mapping ``device -> mode`` for mixed-mode
        pipelines; call-level assignments overlay any modes the
        dataflow itself declares. Non-coherent devices are left out of
        the result so the default plan is empty (seed behaviour).
        """
        modes: Dict[str, CoherenceMode] = {
            device: CoherenceMode.coerce(value)
            for device, value in dataflow.coherence.items()}
        if isinstance(coherence, dict):
            overlay = coherence
        elif coherence is None:
            overlay = {}
        else:
            uniform = CoherenceMode.coerce(coherence)
            overlay = {device: uniform for device in dataflow.devices}
        for device, value in overlay.items():
            if device not in dataflow.devices:
                raise ValueError(
                    f"coherence mode given for {device!r}, which is "
                    f"not in the dataflow")
            modes[device] = CoherenceMode.coerce(value)
        return {device: mode for device, mode in modes.items()
                if mode is not CoherenceMode.NON_COHERENT}

    def plan(self, dataflow: Dataflow, n_frames: int,
             mode: str, coherence=None,
             dvfs: Optional[Dict[str, int]] = None) -> ExecutionPlan:
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
        if n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {n_frames}")
        if mode == "p2p":
            dataflow.validate_for_p2p()
        elif mode == "custom":
            dataflow.validate_for_custom()
        else:
            dataflow.validate()
        modes = self._resolve_modes(dataflow, coherence)
        dvfs = dict(dvfs or {})
        for device, divider in dvfs.items():
            if device not in dataflow.devices:
                raise ValueError(
                    f"DVFS divider given for {device!r}, which is not in "
                    f"the dataflow")
            if divider < 1:
                raise ValueError(
                    f"DVFS divider for {device!r} must be >= 1")

        level_names = dataflow.levels()
        levels: List[List[NodePlan]] = []
        for level_idx, names in enumerate(level_names):
            siblings = len(names)
            if n_frames % siblings:
                raise ValueError(
                    f"{n_frames} frames do not split evenly over the "
                    f"{siblings} devices of level {level_idx}")
            row = []
            for index, name in enumerate(names):
                device = self.registry.by_name(name)
                row.append(NodePlan(device=device, level=level_idx,
                                    index=index, siblings=siblings,
                                    n_frames=n_frames // siblings))
            levels.append(row)

        self._check_geometry(levels)

        in_words = levels[0][0].spec.input_words
        out_words = levels[-1][0].spec.output_words
        input_buffer = self.allocator.alloc(n_frames * in_words,
                                            label=f"{dataflow.name}:in")
        output_buffer = self.allocator.alloc(n_frames * out_words,
                                             label=f"{dataflow.name}:out")
        inter_buffers: List[Optional[Buffer]] = []
        for boundary in range(len(levels) - 1):
            if mode == "p2p":
                inter_buffers.append(None)   # data never touches DRAM
            elif mode == "custom" and all(
                    e.comm == "p2p" for e in dataflow.edges
                    if e.dst in {n.name for n in levels[boundary + 1]}):
                inter_buffers.append(None)   # every edge here is p2p
            else:
                words = levels[boundary][0].spec.output_words
                inter_buffers.append(self.allocator.alloc(
                    n_frames * words,
                    label=f"{dataflow.name}:l{boundary}"))
        plan = ExecutionPlan(dataflow=dataflow, mode=mode,
                             n_frames=n_frames, levels=levels,
                             input_buffer=input_buffer,
                             output_buffer=output_buffer,
                             inter_buffers=inter_buffers,
                             coherence=modes,
                             dvfs=dvfs,
                             abort=self.soc.env.event())
        tracer = self.soc.env.tracer
        if tracer is not None:
            for buffer in plan.buffers:
                tracer.instant("cpu", "alloc", buffer.label or "buffer",
                               "runtime.alloc", offset=buffer.offset,
                               words=buffer.words)
        return plan

    @staticmethod
    def _check_geometry(levels: List[List[NodePlan]]) -> None:
        for row in levels:
            in_sizes = {n.spec.input_words for n in row}
            out_sizes = {n.spec.output_words for n in row}
            if len(in_sizes) > 1 or len(out_sizes) > 1:
                raise ValueError(
                    f"devices at level {row[0].level} disagree on frame "
                    f"geometry: in={in_sizes}, out={out_sizes}")
        for upper, lower in zip(levels, levels[1:]):
            if upper[0].spec.output_words != lower[0].spec.input_words:
                raise ValueError(
                    f"level {upper[0].level} outputs "
                    f"{upper[0].spec.output_words} words but level "
                    f"{lower[0].level} expects "
                    f"{lower[0].spec.input_words}")

    # -- driver-level invocation --------------------------------------------

    def _program_and_start(self, node: NodePlan, src_offset: int,
                           dst_offset: int, n_frames: int, p2p: P2PConfig,
                           src_stride: int, dst_stride: int,
                           coherence: CoherenceMode, divider: int):
        """The driver's register-programming sequence, ending CMD_START."""
        env = self.soc.env
        cpu = self.soc.cpu
        coord = node.device.coord
        writes = (
            (SRC_OFFSET_REG, src_offset),
            (DST_OFFSET_REG, dst_offset),
            (SRC_STRIDE_REG, src_stride),
            (DST_STRIDE_REG, dst_stride),
            (N_FRAMES_REG, n_frames),
            (P2P_REG, p2p.encode()),
            (COHERENCE_REG, coherence.register_value),
            (DVFS_REG, divider),
            (CMD_REG, CMD_START),
        )
        tracer = env.tracer
        sid = None if tracer is None else tracer.begin(
            "cpu", f"driver:{node.name}", "config", "runtime.config",
            device=node.name)
        for reg, value in writes:
            yield env.timeout(self.costs.reg_write_cycles)
            yield from cpu.write_reg(coord, reg, value)
        if sid is not None:
            tracer.end(sid)

    def _invoke(self, plan: ExecutionPlan, node: NodePlan,
                src_offset: int, dst_offset: int,
                n_frames: int, p2p: P2PConfig, src_stride: int = 0,
                dst_stride: int = 0,
                coherence: CoherenceMode = CoherenceMode.NON_COHERENT,
                divider: int = 1):
        """Configure the device over the NoC, start it, await its IRQ."""
        env = self.soc.env
        cpu = self.soc.cpu
        coord = node.device.coord
        self.ioctl_calls += 1
        plan.ioctl_calls += 1
        tracer = env.tracer
        tid = f"driver:{node.name}"
        sid = None if tracer is None else tracer.begin(
            "cpu", tid, "ioctl", "runtime.ioctl", device=node.name)
        yield env.timeout(self.costs.ioctl_cycles)
        if sid is not None:
            tracer.end(sid)
        yield from self._program_and_start(
            node, src_offset, dst_offset, n_frames, p2p, src_stride,
            dst_stride, coherence, divider)
        sid = None if tracer is None else tracer.begin(
            "cpu", tid, "wait-completion", "runtime.irq_wait",
            device=node.name)
        if self.costs.completion == "poll":
            poll_start = env.now
            while True:
                yield env.timeout(self.costs.poll_interval_cycles)
                status = yield from cpu.read_reg(coord, STATUS_REG)
                if status == STATUS_DONE:
                    break
                if (self.costs.max_wait_cycles is not None
                        and env.now - poll_start
                        >= self.costs.max_wait_cycles):
                    raise AcceleratorTimeout(
                        node.name, env.now - poll_start,
                        detail=f"STATUS_REG stayed {status} past "
                               f"max_wait_cycles="
                               f"{self.costs.max_wait_cycles}")
            # Drain the (unmasked) completion interrupt.
            yield from cpu.wait_irq(node.name)
        else:
            yield from cpu.wait_irq(node.name)
        if sid is not None:
            tracer.end(sid)

    # -- control-plane override ---------------------------------------------

    def force_software(self, name: str) -> None:
        """Order ``name`` onto the CPU fallback until further notice.

        The control plane's escalation for a tile whose stall alert
        outlives the local retry budget: subsequent invocations skip
        the hardware entirely, and an invocation currently parked on
        the watchdog is preempted *now* instead of serving out the
        backed-off deadline. Requires a recovery policy with
        ``software_fallback`` (there is nothing to fall back to
        otherwise)."""
        if self.recovery is None or not self.recovery.software_fallback:
            raise RuntimeError(
                "force_software needs a recovery policy with "
                "software_fallback enabled")
        self.registry.by_name(name)   # raises on unknown devices
        self.forced_software.add(name)
        pending = self._preempts.get(name)
        if pending is not None and not pending.triggered:
            pending.succeed()

    def clear_forced(self, name: str) -> None:
        """Lift a :meth:`force_software` order (tile repaired)."""
        self.forced_software.discard(name)

    def _await_completion(self, node: NodePlan, watchdog_cycles: int):
        """IRQ race against the watchdog; True when the IRQ arrived.

        On timeout the pending IRQ getter is withdrawn so a late
        interrupt parks in the queue (drained before the next attempt)
        instead of resuming a waiter that gave up. A
        :meth:`force_software` order for the device resolves the race
        immediately (counted as a preemption, not a timeout, by the
        caller)."""
        env = self.soc.env
        cpu = self.soc.cpu
        irq = cpu.irq_event(node.name)
        preempt = env.event()
        preempt.wait_reason = f"force-software preempt for {node.name}"
        self._preempts[node.name] = preempt
        yield env.any_of([irq, env.timeout(watchdog_cycles), preempt])
        if self._preempts.get(node.name) is preempt:
            del self._preempts[node.name]
        if irq.triggered:
            return True
        cpu.cancel_irq(node.name, irq)
        return False

    def _invoke_guarded(self, plan: ExecutionPlan, node: NodePlan,
                        src_offset: int,
                        dst_offset: int, n_frames: int, p2p: P2PConfig,
                        src_stride: int, dst_stride: int,
                        coherence: CoherenceMode,
                        divider: int, max_attempts: int):
        """Watchdogged invocation with bounded retry; True on success.

        Each attempt programs and starts the device, then races its
        completion IRQ against ``recovery.watchdog_for(attempt)`` (the
        exponential backoff stretches the window for a slow but live
        device). A missed watchdog or a completion whose STATUS_REG is
        not DONE (kernel crash, lost packet) triggers a hardware
        CMD_RESET of the socket before the next attempt. Completion is
        always observed through the interrupt here, even under
        ``completion="poll"`` costs: the watchdog subsumes the poll
        loop's purpose.
        """
        env = self.soc.env
        cpu = self.soc.cpu
        coord = node.device.coord
        policy = self.recovery
        self.ioctl_calls += 1
        plan.ioctl_calls += 1
        tracer = env.tracer
        tid = f"driver:{node.name}"
        sid = None if tracer is None else tracer.begin(
            "cpu", tid, "ioctl", "runtime.ioctl", device=node.name)
        yield env.timeout(self.costs.ioctl_cycles)
        if sid is not None:
            tracer.end(sid)
        for attempt in range(max_attempts):
            if node.name in self.forced_software:
                # The control plane ordered this device onto the CPU
                # mid-retry: stop burning the watchdog ladder.
                return False
            if attempt:
                self.retries += 1
                plan.retries += 1
                if env.metrics is not None:
                    env.metrics.retries.inc()
            # Drain interrupts a previous (abandoned) attempt left over.
            while cpu.try_irq(node.name) is not None:
                pass
            yield from self._program_and_start(
                node, src_offset, dst_offset, n_frames, p2p, src_stride,
                dst_stride, coherence, divider)
            sid = None if tracer is None else tracer.begin(
                "cpu", tid, "wait-completion", "runtime.irq_wait",
                device=node.name, attempt=attempt)
            arrived = yield from self._await_completion(
                node, policy.watchdog_for(attempt))
            if sid is not None:
                tracer.end(sid, arrived=arrived)
            if arrived:
                status = yield from cpu.read_reg_bounded(
                    coord, STATUS_REG, policy.watchdog_cycles)
                if status == STATUS_DONE:
                    return True
            elif node.name in self.forced_software:
                # Preempted by force_software, not a watchdog verdict.
                self.forced_preemptions += 1
            else:
                self.watchdog_timeouts += 1
                plan.watchdog_timeouts += 1
                if env.metrics is not None:
                    env.metrics.watchdog_timeouts.inc()
            # Recover the socket: abort whatever is (not) running.
            yield env.timeout(self.costs.reg_write_cycles)
            yield from cpu.write_reg(coord, CMD_REG, CMD_RESET)
            yield env.timeout(policy.reset_cycles)
        return False

    def _software_node(self, plan: ExecutionPlan, node: NodePlan,
                       src_offset: int,
                       dst_offset: int, n_frames: int,
                       src_stride: int = 0, dst_stride: int = 0):
        """Graceful degradation: run the node's kernel on the CPU.

        Bit-exact with the accelerator (same NumPy kernel), but each
        frame costs ``latency_cycles * software_slowdown`` — the
        scalar-core penalty the paper's accelerators exist to avoid.
        The compute delay also quiesces in-flight posted stores from
        upstream accelerators before the CPU-side read.
        """
        env = self.soc.env
        spec = node.spec
        memory = self.soc.memory_map
        src_step = src_stride or spec.input_words
        dst_step = dst_stride or spec.output_words
        cost = max(1, int(spec.latency_cycles
                          * self.recovery.software_slowdown))
        tracer = env.tracer
        sid = None if tracer is None else tracer.begin(
            "cpu", f"driver:{node.name}", "software-fallback",
            "runtime.software", device=node.name, frames=n_frames)
        for index in range(n_frames):
            yield env.timeout(cost)
            frame = memory.read_words(src_offset + index * src_step,
                                      spec.input_words)
            memory.write_words(dst_offset + index * dst_step,
                               self.soc.results.take(spec, frame))
            self.software_frames += 1
            plan.software_frames += 1
        if sid is not None:
            tracer.end(sid)

    def _run_node(self, plan: ExecutionPlan, node: NodePlan,
                  src_offset: int, dst_offset: int, n_frames: int,
                  p2p: P2PConfig, src_stride: int = 0,
                  dst_stride: int = 0):
        """Dispatch one node invocation through the recovery policy.

        Without a policy this is exactly the original `_invoke` path.
        With one: a device already marked failed goes straight to the
        software fallback; otherwise the guarded invocation runs, and
        on permanent failure the device is marked failed and either
        falls back to software (DMA transports — the data is in DRAM)
        or raises :class:`NodeFailed` (p2p transports — the stream's
        alignment with its peers is unrecoverable, the whole run must
        degrade).
        """
        divider = plan.dvfs.get(node.name, 1)
        node_mode = plan.mode_for(node.name)
        if self.recovery is None:
            yield from self._invoke(
                plan, node, src_offset, dst_offset, n_frames, p2p,
                src_stride=src_stride, dst_stride=dst_stride,
                coherence=node_mode, divider=divider)
            return
        policy = self.recovery
        streaming = p2p.uses_p2p
        if self.registry.is_failed(node.name) \
                or node.name in self.forced_software:
            if streaming:
                raise NodeFailed(node.name,
                                 "device marked failed; a p2p stream "
                                 "cannot be serviced in software")
            yield from self._software_node(plan, node, src_offset,
                                           dst_offset, n_frames,
                                           src_stride, dst_stride)
            return
        # Retrying a p2p stream would desynchronize it from its peers
        # (they hold partial progress), so streams get one attempt.
        attempts = 1 if streaming else policy.max_retries + 1
        ok = yield from self._invoke_guarded(
            plan, node, src_offset, dst_offset, n_frames, p2p, src_stride,
            dst_stride, node_mode, divider, attempts)
        if ok:
            return
        if node.name in self.forced_software:
            # A control-plane order, not a hardware verdict: route to
            # software without branding the device failed.
            if streaming:
                raise NodeFailed(node.name,
                                 "forced to software mid-stream")
            yield from self._software_node(plan, node, src_offset,
                                           dst_offset, n_frames,
                                           src_stride, dst_stride)
            return
        self.registry.mark_failed(node.name)
        if streaming:
            raise NodeFailed(node.name, "watchdog expired mid-stream")
        if not policy.software_fallback:
            raise NodeFailed(node.name, "retries exhausted and software "
                                        "fallback disabled")
        yield from self._software_node(plan, node, src_offset, dst_offset,
                                       n_frames, src_stride, dst_stride)

    def _thread_guard(self, plan: ExecutionPlan, body):
        """Contain a pipeline thread's failure inside its plan.

        An unhandled exception in a bare thread process would crash the
        whole event loop — fatal when several plans share the SoC. The
        guard records the first failure on the plan and triggers its
        ``abort`` event; the plan's main observes it and re-raises, so
        the error surfaces exactly where the plan is being driven.
        """
        try:
            yield from body
        except Interrupt:
            raise    # plan aborted from outside; die quietly (defused)
        except Exception as exc:
            if plan.failure is None:
                plan.failure = exc
                if not plan.abort.triggered:
                    plan.abort.succeed(exc)

    def _spawn_threads(self, plan: ExecutionPlan, thread):
        """Stagger-spawn one guarded thread per node; then await them.

        ``thread(plan, node)`` returns the node's thread generator.
        Stops early if a freshly spawned thread already failed (e.g. a
        p2p stream on a device marked failed raises immediately).
        """
        env = self.soc.env
        tracer = env.tracer
        for row in plan.levels:
            for node in row:
                sid = None if tracer is None else tracer.begin(
                    "cpu", f"driver:{node.name}", "pthread-create",
                    "runtime.spawn", device=node.name)
                yield env.timeout(self.costs.thread_spawn_cycles)
                if sid is not None:
                    tracer.end(sid)
                if plan.failure is not None:
                    raise plan.failure
                plan.threads.append(env.process(
                    self._thread_guard(plan, thread(plan, node)),
                    name=f"{plan.mode}-thread:{node.name}"))
        yield env.any_of([env.all_of(plan.threads), plan.abort])
        if plan.failure is not None:
            raise plan.failure

    # -- address helpers -------------------------------------------------------

    @staticmethod
    def _frame_addr(buffer: Buffer, frame: int, words: int) -> int:
        return buffer.offset + frame * words

    def _src_buffer(self, plan: ExecutionPlan, level: int) -> Buffer:
        return plan.input_buffer if level == 0 \
            else plan.inter_buffers[level - 1]

    def _dst_buffer(self, plan: ExecutionPlan, level: int) -> Buffer:
        last = len(plan.levels) - 1
        return plan.output_buffer if level == last \
            else plan.inter_buffers[level]

    # -- execution modes ----------------------------------------------------------

    def _main(self, plan: ExecutionPlan):
        """The generator that runs ``plan``'s mode to completion."""
        if plan.mode == "base":
            return self._base_main(plan)
        if plan.mode == "p2p":
            return self._spawn_threads(plan, self._p2p_thread)
        counters = {node.name: ProgressCounter(self.soc.env,
                                               name=f"done:{node.name}")
                    for row in plan.levels for node in row}
        return self._spawn_threads(
            plan, partial(self._frame_thread, counters=counters))

    def _base_main(self, plan: ExecutionPlan):
        for frame in range(plan.n_frames):
            for level_idx, row in enumerate(plan.levels):
                node = row[frame % len(row)]
                spec = node.spec
                src = self._frame_addr(self._src_buffer(plan, level_idx),
                                       frame, spec.input_words)
                dst = self._frame_addr(self._dst_buffer(plan, level_idx),
                                       frame, spec.output_words)
                yield from self._run_node(plan, node, src, dst, 1, _DMA)

    def _frame_thread(self, plan: ExecutionPlan, node: NodePlan,
                      counters: Dict[str, ProgressCounter]):
        """One invocation per frame: the ``pipe`` and ``custom`` thread.

        ``pipe`` is ``custom`` with every edge on DMA. A DMA edge
        synchronizes in software on the producer's progress counter; a
        p2p edge (``custom`` only) relies on the hardware handshake and
        reprograms ``P2P_REG`` every invocation with that frame's
        single source — the "dynamically configured" per-invocation
        choice of Sec. V.
        """
        env = self.soc.env
        spec = node.spec
        custom = plan.mode == "custom"
        edge_between = plan.dataflow.edge_between
        last = len(plan.levels) - 1
        producers = plan.levels[node.level - 1] if node.level else None
        consumers = plan.levels[node.level + 1] \
            if custom and node.level < last else None
        src_buffer = self._src_buffer(plan, node.level)
        dst_buffer = self._dst_buffer(plan, node.level)
        for local in range(node.n_frames):
            frame = node.index + local * node.siblings
            load_p2p = store_p2p = False
            if producers:
                producer = producers[frame % len(producers)]
                load_p2p = custom and edge_between(
                    producer.name, node.name).comm == "p2p"
                if not load_p2p:
                    needed = (frame - producer.index) \
                        // producer.siblings + 1
                    tracer = env.tracer
                    sid = None if tracer is None else tracer.begin(
                        "cpu", f"driver:{node.name}", "frame-sync",
                        "runtime.sync", producer=producer.name,
                        frame=frame)
                    yield env.timeout(self.costs.sync_cycles)
                    yield counters[producer.name].wait_until(needed)
                    if sid is not None:
                        tracer.end(sid)
            if consumers:
                consumer = consumers[frame % len(consumers)]
                store_p2p = edge_between(
                    node.name, consumer.name).comm == "p2p"
            p2p = _DMA
            if load_p2p or store_p2p:
                p2p = P2PConfig(
                    store_enabled=store_p2p, load_enabled=load_p2p,
                    sources=(producer.device.coord,) if load_p2p else ())
            src = 0 if load_p2p else self._frame_addr(
                src_buffer, frame, spec.input_words)
            dst = 0 if store_p2p else self._frame_addr(
                dst_buffer, frame, spec.output_words)
            yield from self._run_node(plan, node, src, dst, 1, p2p)
            counters[node.name].increment()

    def _p2p_thread(self, plan: ExecutionPlan, node: NodePlan):
        spec = node.spec
        last = len(plan.levels) - 1
        load_p2p = node.level > 0
        store_p2p = node.level < last

        src_offset = src_stride = 0
        if not load_p2p:
            src_offset = plan.input_buffer.offset \
                + node.index * spec.input_words
            src_stride = node.siblings * spec.input_words
        dst_offset = dst_stride = 0
        if not store_p2p:
            dst_offset = plan.output_buffer.offset \
                + node.index * spec.output_words
            dst_stride = node.siblings * spec.output_words

        sources: Tuple[Tuple[int, int], ...] = ()
        if load_p2p:
            rotation = plan.dataflow.source_rotation(node.name)
            sources = tuple(self.registry.coords_for(name)
                            for name in rotation)
        p2p = P2PConfig(store_enabled=store_p2p, load_enabled=load_p2p,
                        sources=sources)
        yield from self._run_node(plan, node, src_offset, dst_offset,
                                  node.n_frames, p2p,
                                  src_stride=src_stride,
                                  dst_stride=dst_stride)

    # -- the control path -------------------------------------------------------------

    def _prepare(self, dataflow: Dataflow, frames, mode: str, coherence,
                 dvfs: Optional[Dict[str, int]]):
        """Plan the run and load its inputs; returns ``(plan, frames)``."""
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        plan = self.plan(dataflow, len(frames), mode,
                         coherence=coherence, dvfs=dvfs)
        in_words = plan.levels[0][0].spec.input_words
        if frames.shape[1] != in_words:
            self.release_plan(plan)
            raise ValueError(
                f"input frames have {frames.shape[1]} words; level-0 "
                f"devices expect {in_words}")
        self._load_inputs(plan, frames)
        return plan, frames

    def _load_inputs(self, plan: ExecutionPlan, frames: np.ndarray) -> None:
        """Write the input frames to DRAM and prime the SoC's result
        table with them and the plan's stage specs."""
        plan.input_buffer.write(frames.reshape(-1))
        self.soc.results.prime(
            plan, [[node.spec for node in row] for row in plan.levels],
            frames)

    def _run(self, plan: ExecutionPlan, frames: np.ndarray):
        """Run a prepared plan in-process; returns ``(plan, cycles,
        degraded)``, the plan being the one holding the outputs.

        The one control path behind both drivers (:meth:`execute` and
        :meth:`run_process`). A permanently failed p2p stream degrades
        gracefully when the recovery policy allows software fallback:
        the run cannot be patched in place (its peers hold partial
        progress), so the plan is torn down and the whole batch re-runs
        in ``pipe`` mode, where the failed device (marked in the
        registry) executes in software. Any other failure — including
        an :class:`Interrupt` from whoever drives the run — tears the
        plan down, so its tiles and buffers are reusable, and
        propagates.
        """
        env = self.soc.env
        name = f"{plan.mode}:{plan.dataflow.name}"
        start = env.now
        degraded = False
        try:
            try:
                yield from self._main(plan)
            except NodeFailed:
                if self.recovery is None \
                        or not self.recovery.software_fallback:
                    raise
                self.degraded_runs += 1
                if env.metrics is not None:
                    env.metrics.degraded_runs.inc()
                yield from self._abort_and_release(plan)
                yield env.timeout(self.recovery.reset_cycles)
                aborted = plan
                plan = self.plan(aborted.dataflow, aborted.n_frames, "pipe",
                                 coherence=aborted.coherence,
                                 dvfs=aborted.dvfs)
                self._load_inputs(plan, frames)
                # Carry the aborted attempt's accounting so the result
                # reflects the whole request, not just the re-run.
                plan.ioctl_calls = aborted.ioctl_calls
                plan.retries = aborted.retries
                plan.watchdog_timeouts = aborted.watchdog_timeouts
                plan.software_frames = aborted.software_frames
                degraded = True
                yield from self._main(plan)
        except Exception:
            yield from self._abort_and_release(plan)
            raise
        if env.tracer is not None:
            env.tracer.complete(
                "cpu", "main", name, "runtime.run", start, env.now,
                frames=plan.n_frames, degraded=degraded)
        return plan, env.now - start, degraded

    def _result(self, plan: ExecutionPlan, mode: str, cycles: int,
                degraded: bool, dram_before: int) -> RunResult:
        """Read the plan's outputs (dropping its primed result rows) and
        build the :class:`RunResult` from the plan's own counters."""
        self.soc.results.drop(plan)
        out_words = plan.levels[-1][0].spec.output_words
        return RunResult(
            dataflow=plan.dataflow.name,
            mode=mode,
            frames=plan.n_frames,
            cycles=cycles,
            clock_mhz=self.soc.clock_mhz,
            dram_accesses=self.soc.memory_map.total_accesses - dram_before,
            ioctl_calls=plan.ioctl_calls,
            outputs=plan.output_buffer.read().reshape(plan.n_frames,
                                                      out_words),
            retries=plan.retries,
            watchdog_timeouts=plan.watchdog_timeouts,
            software_frames=plan.software_frames,
            degraded=degraded,
        )

    def execute(self, dataflow: Dataflow, frames: np.ndarray,
                mode: str, coherence=None,
                dvfs: Optional[Dict[str, int]] = None) -> RunResult:
        """Run the dataflow over ``frames`` (N x input_words), driving
        the event loop until it completes.

        ``coherence`` selects the DMA coherence model — one
        :class:`CoherenceMode` (or its string value) for the whole run,
        or a ``device -> mode`` mapping so each accelerator picks its
        own. Cached modes require a memory tile with an LLC; without
        one the request silently behaves like non-coherent DMA, as in
        ESP where the fabric downgrades unsupported coherence
        requests. The plan's buffers stay allocated (``esp_cleanup``
        releases them).
        """
        plan, frames = self._prepare(dataflow, frames, mode, coherence,
                                     dvfs)
        env = self.soc.env
        dram_before = self.soc.memory_map.total_accesses
        done = env.process(self._run(plan, frames),
                           name=f"main:{mode}:{dataflow.name}")
        try:
            plan, cycles, degraded = env.run(until=done)
        except BaseException:
            # The run failed (and tore its plan down), or a process
            # outside it crashed the loop: let the run's own teardown
            # finish, drain, and discard completion IRQs that landed
            # after the teardown, so the SoC is reusable.
            done.interrupt("plan aborted")
            env.run()
            self._drain_stale_irqs(plan)
            raise
        # Drain the schedule: stores are posted, so the final write may
        # still be in the memory tile's request queue when the IRQ
        # lands. Dependent DMA traffic is ordered by that queue, but the
        # CPU-side result read below bypasses it, so quiesce first. The
        # tail is a few service cycles and is excluded from the timing.
        env.run()
        return self._result(plan, mode, cycles, degraded, dram_before)

    # -- plan teardown ------------------------------------------------------------

    def _abort_plan(self, plan: ExecutionPlan) -> None:
        """Stop every thread and accelerator the plan still occupies.

        Surviving pipeline threads are interrupted (defused, so their
        deaths never crash the event loop); already-dead ones are
        defused in case their failure is still queued. Every tile of
        the plan gets a hardware reset, aborting in-flight kernels and
        flushing socket queues.
        """
        for thread in plan.threads:
            if thread.is_alive:
                thread.interrupt("plan aborted")
            else:
                thread.__sim_defused__ = True  # type: ignore[attr-defined]
        for row in plan.levels:
            for node in row:
                node.device.tile.host_reset()

    def _drain_stale_irqs(self, plan: ExecutionPlan) -> None:
        """Discard queued completion IRQs from the plan's devices."""
        cpu = self.soc.cpu
        for name in plan.device_names:
            while cpu.try_irq(name) is not None:
                pass

    def release_plan(self, plan: ExecutionPlan) -> None:
        """Return every buffer the plan allocated to the allocator and
        drop its primed kernel results.

        Idempotent (``free`` ignores already-freed buffers), so a
        failure path and a finally-style caller can both release.
        """
        self.soc.results.drop(plan)
        for buffer in plan.buffers:
            self.allocator.free(buffer)

    def _quiesce_stores(self):
        """Wait (in-process) until posted stores have retired.

        The blocking ``execute`` path drains the whole schedule before
        reading outputs; a serving loop cannot (other plans are still
        running), so it waits only for the memory map's posted-store
        count to reach zero. ``quiesce_bound`` caps the wait: past the
        bound, stores that never retired (packets lost to injected NoC
        faults) are written off so one dropped packet cannot wedge the
        serving loop.
        """
        env = self.soc.env
        memory_map = self.soc.memory_map
        quiet = memory_map.quiesce_event(env)
        if self.quiesce_bound is None:
            yield quiet
            return
        yield env.any_of([quiet, env.timeout(self.quiesce_bound)])
        if not quiet.triggered:
            memory_map.cancel_quiesce(quiet)
            memory_map.write_off_in_flight()

    def _abort_and_release(self, plan: ExecutionPlan):
        """In-process teardown: abort, quiesce, then free the buffers.

        The quiesce between the abort and the release is load-bearing:
        the plan's posted stores must land (or be written off) before
        its addresses can be handed to the next plan, or a stale store
        could corrupt the successor's buffers.
        """
        self._abort_plan(plan)
        yield from self._quiesce_stores()
        self._drain_stale_irqs(plan)
        self.release_plan(plan)

    # -- re-entrant entry point (serving layer) -----------------------------------

    def run_process(self, dataflow: Dataflow, frames: np.ndarray,
                    mode: str, coherence=None,
                    dvfs: Optional[Dict[str, int]] = None,
                    release_buffers: bool = True):
        """Re-entrant ``execute``: a generator to run as a sim process.

        ``execute`` drives the event loop itself (``env.run``), so only
        one call can be outstanding — fine for the paper's single-app
        experiments, unusable for serving. ``run_process`` runs the same
        control path inside the caller's process: several instances can
        be in flight concurrently over disjoint tile sets, interleaved
        by the kernel like any other processes. Returns a
        :class:`RunResult` built from the plan's own counters.

        Differences from the blocking path, by necessity:

        - output reads are gated on posted-store quiescence (bounded by
          ``quiesce_bound``) instead of a global schedule drain;
        - ``dram_accesses`` is a global delta over the request's
          lifetime — best-effort attribution when plans overlap (the
          per-tile monitors give exact per-plan numbers);
        - buffers are released on completion (``release_buffers``) so a
          long-lived server does not leak DRAM.
        """
        plan, frames = self._prepare(dataflow, frames, mode, coherence,
                                     dvfs)
        dram_before = self.soc.memory_map.total_accesses
        plan, cycles, degraded = yield from self._run(plan, frames)
        # Posted stores: the final write may still be in flight when
        # the IRQ lands; wait for it to retire before the CPU-side
        # read below (the serving analogue of execute's global drain —
        # the tail is excluded from the timing, as there).
        yield from self._quiesce_stores()
        result = self._result(plan, mode, cycles, degraded, dram_before)
        if release_buffers:
            self.release_plan(plan)
        return result

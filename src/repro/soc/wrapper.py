"""The ESP accelerator wrapper for the Vivado HLS design flow.

Paper Sec. III: the wrapper's top-level function iterates LOAD ->
COMPUTE -> STORE over chunks (Fig. 4); LOAD unpacks data from the DMA
read port into the PLM, COMPUTE invokes the kernel (e.g. generated by
HLS4ML), STORE packs results to the DMA write port. Both LOAD and
STORE compute the virtual address and length of the current DMA
transaction from the loop index, the dataset size and the local buffer
size; runtime parameters (e.g. ``conf_size``) come from configuration
registers.

Here the wrapper is the simulation process executed by an accelerator
tile for one invocation. It is identical for DMA and p2p communication
— the p2p remapping happens inside the DMA engine, "completely
transparent to the accelerator".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accelerators.base import AcceleratorSpec
from ..accelerators.results import ResultTable
from .coherence import CoherenceMode
from .dma import DmaEngine
from .registers import P2PConfig


@dataclass(frozen=True)
class InvocationConfig:
    """Snapshot of the configuration registers for one invocation.

    Strides of 0 mean "dense": advance by one frame of the spec's
    input/output size per loop iteration. Non-zero strides support
    interleaved layouts where several accelerator instances process
    every k-th frame of a shared buffer.
    """

    src_offset: int
    dst_offset: int
    n_frames: int
    p2p: P2PConfig
    src_stride: int = 0
    dst_stride: int = 0
    coherence: CoherenceMode = CoherenceMode.NON_COHERENT
    clock_divider: int = 1

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.src_offset < 0 or self.dst_offset < 0:
            raise ValueError("offsets must be >= 0")
        if self.src_stride < 0 or self.dst_stride < 0:
            raise ValueError("strides must be >= 0")
        if self.clock_divider < 1:
            raise ValueError("clock_divider must be >= 1")


@dataclass
class InvocationResult:
    """What one wrapper run reports back through the socket."""

    frames: int
    start_cycle: int
    end_cycle: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


def wrapper_process(env, spec: AcceleratorSpec, dma: DmaEngine,
                    config: InvocationConfig, results: ResultTable):
    """One accelerator invocation: the Fig. 4 loop as a sim process.

    Each loop iteration moves one frame: a LOAD of ``input_words``, a
    COMPUTE of the kernel's latency, a STORE of ``output_words``. The
    source/destination addresses advance by one frame per iteration,
    exactly as the generated wrapper derives them from the iteration
    index and the configured dataset size. COMPUTE takes the kernel's
    result for the loaded frame from ``results``.
    """
    start = env.now
    p2p = config.p2p
    dma.reset_p2p_rotation()
    src_stride = config.src_stride or spec.input_words
    dst_stride = config.dst_stride or spec.output_words
    tracer = env.tracer
    pid = dma.owner
    for index in range(config.n_frames):
        # LOAD: get and unpack one frame into the PLM.
        in_addr = config.src_offset + index * src_stride
        sid = None if tracer is None else tracer.begin(
            pid, "wrapper", f"load f{index}", "acc.load", frame=index)
        phase_start = env.now
        frame = yield from dma.load(in_addr, spec.input_words, p2p=p2p,
                                    coherence=config.coherence)
        dma.end_phase("load", env.now - phase_start, tracer, sid)

        # COMPUTE: the kernel's schedule determines the cycle cost,
        # stretched by the tile's DVFS divider; the functional result
        # is the bit-accurate NumPy kernel applied to the loaded frame
        # (evaluated ahead in a batch when the frame was primed).
        sid = None if tracer is None else tracer.begin(
            pid, "wrapper", f"compute f{index}", "acc.compute",
            frame=index)
        yield env.timeout(spec.latency_cycles * config.clock_divider)
        result = results.take(spec, frame)
        dma.end_phase("compute", spec.latency_cycles * config.clock_divider,
                      tracer, sid)

        # STORE: pack the output and push it downstream.
        out_addr = config.dst_offset + index * dst_stride
        sid = None if tracer is None else tracer.begin(
            pid, "wrapper", f"store f{index}", "acc.store", frame=index)
        phase_start = env.now
        yield from dma.store(out_addr, result, p2p=p2p,
                             coherence=config.coherence)
        dma.end_phase("store", env.now - phase_start, tracer, sid)
    return InvocationResult(frames=config.n_frames, start_cycle=start,
                            end_cycle=env.now)


def wrapper_process_double_buffered(env, spec: AcceleratorSpec,
                                    dma: DmaEngine,
                                    config: InvocationConfig,
                                    results: ResultTable):
    """Ping-pong variant of the wrapper: LOAD/COMPUTE/STORE overlap.

    Three concurrent stages connected by depth-2 FIFOs (the two PLM
    banks of a ping-pong design): the loader fetches frame i+1 while
    the kernel computes frame i and the storer drains frame i-1. The
    kernel sustains its initiation interval after paying the full
    latency once.
    """
    from ..sim import Fifo

    start = env.now
    p2p = config.p2p
    dma.reset_p2p_rotation()
    src_stride = config.src_stride or spec.input_words
    dst_stride = config.dst_stride or spec.output_words
    in_plm = Fifo(env, capacity=2, name="plm-in")
    out_plm = Fifo(env, capacity=2, name="plm-out")

    tracer = env.tracer
    pid = dma.owner

    def loader():
        for index in range(config.n_frames):
            in_addr = config.src_offset + index * src_stride
            sid = None if tracer is None else tracer.begin(
                pid, "loader", f"load f{index}", "acc.load", frame=index)
            phase_start = env.now
            frame = yield from dma.load(in_addr, spec.input_words,
                                        p2p=p2p,
                                        coherence=config.coherence)
            dma.end_phase("load", env.now - phase_start, tracer, sid)
            yield in_plm.put(frame)

    def computer():
        first = True
        for index in range(config.n_frames):
            frame = yield in_plm.get()
            cycles = spec.latency_cycles if first else max(
                spec.interval_cycles, 1)
            first = False
            sid = None if tracer is None else tracer.begin(
                pid, "compute", f"compute f{index}", "acc.compute",
                frame=index)
            yield env.timeout(cycles * config.clock_divider)
            result = results.take(spec, frame)
            dma.end_phase("compute", cycles * config.clock_divider,
                          tracer, sid)
            yield out_plm.put(result)

    def storer():
        for index in range(config.n_frames):
            result = yield out_plm.get()
            out_addr = config.dst_offset + index * dst_stride
            sid = None if tracer is None else tracer.begin(
                pid, "storer", f"store f{index}", "acc.store",
                frame=index)
            phase_start = env.now
            yield from dma.store(out_addr, result, p2p=p2p,
                                 coherence=config.coherence)
            dma.end_phase("store", env.now - phase_start, tracer, sid)

    stages = [env.process(loader()), env.process(computer()),
              env.process(storer())]
    yield env.all_of(stages)
    return InvocationResult(frames=config.n_frames, start_cycle=start,
                            end_cycle=env.now)

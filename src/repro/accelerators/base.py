"""Accelerator specifications: what a tile socket hosts.

An :class:`AcceleratorSpec` is the result of one of the two design
branches of Fig. 3 — the HLS4ML branch (ML kernels) or the generic
SystemC/Stratus branch (e.g. the Night-Vision kernels). It bundles:

- the functional kernel (bit-accurate NumPy compute, row-batched),
- the per-frame timing from the HLS schedule,
- the FPGA resource estimate,
- the I/O geometry (words per input/output frame, word width) that the
  ESP wrapper needs to size DMA transactions and PLM buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from ..hls import ResourceEstimate


@dataclass(frozen=True)
class AcceleratorSpec:
    """A synthesized accelerator, ready for SoC integration.

    ``compute`` is row-batched: it maps an ``(n, input_words)`` float64
    array to ``(n, output_words)``, row ``i`` of the result depending
    on row ``i`` of the input alone and equal, bit for bit, to what the
    kernel gives that row in a batch of one. The hardware still runs
    one frame per COMPUTE step; batching only lets the simulator
    evaluate many frames in one NumPy call (see
    :mod:`repro.accelerators.results`).
    """

    name: str
    input_words: int
    output_words: int
    compute: Callable[[np.ndarray], np.ndarray]
    latency_cycles: int
    interval_cycles: int
    resources: ResourceEstimate = field(default_factory=ResourceEstimate)
    word_bits: int = 16
    design_flow: str = "hls4ml"   # "hls4ml" | "stratus"
    user_registers: Tuple[str, ...] = ()
    #: Ping-pong PLM buffers: the wrapper overlaps LOAD/COMPUTE/STORE
    #: across frames, so sustained cadence approaches the kernel's
    #: initiation interval instead of its latency. Off by default (the
    #: Fig. 4 wrapper is sequential); see the double-buffering ablation.
    double_buffered: bool = False

    def __post_init__(self) -> None:
        if self.input_words < 1:
            raise ValueError(f"input_words must be >= 1, got "
                             f"{self.input_words}")
        if self.output_words < 1:
            raise ValueError(f"output_words must be >= 1, got "
                             f"{self.output_words}")
        if self.latency_cycles < 1:
            raise ValueError("latency_cycles must be >= 1")
        if self.interval_cycles < 1:
            raise ValueError("interval_cycles must be >= 1")
        if self.word_bits not in (8, 16, 32, 64):
            raise ValueError(f"word_bits must be 8/16/32/64, got "
                             f"{self.word_bits}")
        if self.design_flow not in ("hls4ml", "stratus"):
            raise ValueError(f"unknown design flow {self.design_flow!r}")

    def run_batch(self, frames: np.ndarray) -> np.ndarray:
        """Invoke the kernel on ``(n, input_words)`` frames at once,
        validating the I/O geometry once for the whole batch."""
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[1] != self.input_words:
            raise ValueError(
                f"{self.name}: expected {self.input_words} input words "
                f"per frame, got shape {frames.shape}")
        out = np.asarray(self.compute(frames), dtype=np.float64)
        if out.shape != (len(frames), self.output_words):
            raise ValueError(
                f"{self.name}: kernel produced shape {out.shape}, spec "
                f"says ({len(frames)}, {self.output_words})")
        return out

    def run(self, frame: np.ndarray) -> np.ndarray:
        """Invoke the kernel on one frame (any shape, flattened)."""
        frame = np.asarray(frame, dtype=np.float64).reshape(1, -1)
        return self.run_batch(frame)[0]

    @property
    def plm_words(self) -> int:
        """Private-local-memory footprint: in + out ping buffers."""
        return self.input_words + self.output_words


def chain_specs(name: str, stages: Sequence[AcceleratorSpec],
                design_flow: str = "stratus") -> AcceleratorSpec:
    """Fuse several kernels into one accelerator (single tile).

    Used for the monolithic Night-Vision accelerator, whose three
    kernels (noise filter, histogram, equalization) live in one tile.
    Latency adds; the initiation interval is the sum as well because
    the fused kernel runs its stages back to back on each frame.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("at least one stage required")
    for prev, nxt in zip(stages, stages[1:]):
        if prev.output_words != nxt.input_words:
            raise ValueError(
                f"stage {prev.name!r} outputs {prev.output_words} words, "
                f"{nxt.name!r} expects {nxt.input_words}")

    def fused(frames: np.ndarray) -> np.ndarray:
        for stage in stages:
            frames = stage.run_batch(frames)
        return frames

    resources = ResourceEstimate()
    for stage in stages:
        resources = resources + stage.resources
    return AcceleratorSpec(
        name=name,
        input_words=stages[0].input_words,
        output_words=stages[-1].output_words,
        compute=fused,
        latency_cycles=sum(s.latency_cycles for s in stages),
        interval_cycles=sum(s.interval_cycles for s in stages),
        resources=resources,
        word_bits=stages[0].word_bits,
        design_flow=design_flow,
    )

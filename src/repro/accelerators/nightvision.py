"""The Night-Vision accelerator (noise filter + histogram + equalization).

Paper Sec. VI: "one application outside the ML domain, which is a night
computer vision application consisting of three kernels: noise
filtering, histogram, and histogram equalization", used as a
pre-processing step in front of the MLP classifier on darkened SVHN
frames. The paper designed these kernels in SystemC and synthesized
them with Cadence Stratus HLS; here the same kernels are NumPy
functions with Stratus-style pipelined-loop schedules.
"""

from __future__ import annotations

import numpy as np

from ..datasets.transforms import FRAME_PIXELS, FRAME_SIDE
from ..fixed import DEFAULT_FORMAT, FixedFormat
from ..hls import (
    ResourceEstimate,
    pipelined_loop_schedule,
    sequential_schedule,
)
from .base import AcceleratorSpec

#: Histogram bins used by the hardware (64 bins over [0, 1]).
HISTOGRAM_BINS = 64


def noise_filter_kernel(frames: np.ndarray,
                        fmt: FixedFormat = DEFAULT_FORMAT) -> np.ndarray:
    """3x3 median filter with edge replication (salt-and-pepper removal).

    Works on the last axis: one 1024-word frame or a ``(..., 1024)``
    batch. The median of 9 values is their 5th order statistic, so a
    single ``np.partition`` at index 4 over the window axis gives the
    same value for every window as ``np.median`` of an odd count.
    """
    frames = np.asarray(frames, dtype=np.float64)
    images = frames.reshape(-1, FRAME_SIDE, FRAME_SIDE)
    padded = np.pad(images, ((0, 0), (1, 1), (1, 1)), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (3, 3), axis=(1, 2))
    flat = windows.reshape(len(images), FRAME_PIXELS, 9)
    filtered = np.partition(flat, 4, axis=-1)[..., 4]
    return fmt.quantize(filtered).reshape(frames.shape[:-1]
                                          + (FRAME_PIXELS,))


def histogram_kernel(frames: np.ndarray,
                     bins: int = HISTOGRAM_BINS) -> np.ndarray:
    """Intensity histogram over [0, 1] with ``bins`` buckets, per frame
    along the last axis."""
    frames = np.asarray(frames, dtype=np.float64)
    rows = frames.reshape(-1, frames.shape[-1])
    idx = np.clip((rows * bins).astype(np.int64), 0, bins - 1)
    # Offset each row into its own bin range, so one bincount yields
    # every row's exact integer counts.
    idx += np.arange(len(rows))[:, None] * bins
    counts = np.bincount(idx.reshape(-1), minlength=len(rows) * bins)
    return counts.astype(np.float64).reshape(frames.shape[:-1] + (bins,))


def histogram_equalization_kernel(frames: np.ndarray, hist: np.ndarray,
                                  fmt: FixedFormat = DEFAULT_FORMAT
                                  ) -> np.ndarray:
    """Classic CDF remapping: stretch the (dark) dynamic range.

    ``frames`` is ``(..., words)`` and ``hist`` the matching
    ``(..., bins)``. A frame whose CDF is flat (every count in its
    first non-empty bin, or no positive entry at all) is passed through
    quantized.
    """
    frames = np.asarray(frames, dtype=np.float64)
    hist = np.asarray(hist, dtype=np.float64)
    bins = hist.shape[-1]
    rows = frames.reshape(-1, frames.shape[-1])
    cdf = np.cumsum(hist.reshape(-1, bins), axis=1)
    positive = cdf > 0
    first = np.argmax(positive, axis=1)
    cdf_min = np.where(positive.any(axis=1),
                       cdf[np.arange(len(cdf)), first], 0.0)[:, None]
    total = cdf[:, -1:]
    flat = total <= cdf_min
    mapping = (cdf - cdf_min) / np.where(flat, 1.0, total - cdf_min)
    mapping = np.clip(mapping, 0.0, 1.0)
    idx = np.clip((rows * bins).astype(np.int64), 0, bins - 1)
    out = np.where(flat, rows, np.take_along_axis(mapping, idx, axis=1))
    return fmt.quantize(out).reshape(frames.shape)


def night_vision_compute(frames: np.ndarray,
                         fmt: FixedFormat = DEFAULT_FORMAT) -> np.ndarray:
    """The fused three-kernel pipeline of the Night-Vision tile."""
    filtered = noise_filter_kernel(frames, fmt)
    hist = histogram_kernel(filtered)
    return histogram_equalization_kernel(filtered, hist, fmt)


def night_vision_stage_specs(fmt: FixedFormat = DEFAULT_FORMAT):
    """The three Night-Vision kernels as *separate* accelerator tiles.

    Fig. 1 of the paper draws the vision kernels as individual boxes
    that the NoC chains together; the evaluation fuses them into one
    tile (:func:`night_vision_spec`), but the flow supports either
    mapping. Because the equalization kernel needs both the filtered
    frame and its histogram, the histogram stage forwards the frame
    alongside the 64 bin counts (1024 + 64 = 1088 words).
    """
    def filter_stage_compute(frames: np.ndarray) -> np.ndarray:
        return noise_filter_kernel(frames, fmt)

    def hist_stage_compute(frames: np.ndarray) -> np.ndarray:
        return np.concatenate([frames, histogram_kernel(frames)], axis=-1)

    def eq_stage_compute(packed: np.ndarray) -> np.ndarray:
        return histogram_equalization_kernel(packed[:, :FRAME_PIXELS],
                                             packed[:, FRAME_PIXELS:], fmt)

    window_cost = ResourceEstimate(luts=9_500, ffs=8_800, brams=6)
    filter_sched = pipelined_loop_schedule(FRAME_PIXELS, interval=3,
                                           depth=12,
                                           body_resources=window_cost)
    hist_cost = ResourceEstimate(luts=2_500, ffs=2_400, brams=2)
    hist_sched = pipelined_loop_schedule(FRAME_PIXELS, interval=2, depth=4,
                                         body_resources=hist_cost)
    eq_cost = ResourceEstimate(luts=5_000, ffs=4_200, brams=4)
    eq_sched = sequential_schedule(
        pipelined_loop_schedule(HISTOGRAM_BINS, interval=1, depth=4),
        pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=6,
                                body_resources=eq_cost))

    return [
        AcceleratorSpec(
            name="nv_filter", input_words=FRAME_PIXELS,
            output_words=FRAME_PIXELS, compute=filter_stage_compute,
            latency_cycles=filter_sched.latency,
            interval_cycles=filter_sched.interval,
            resources=filter_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
        AcceleratorSpec(
            name="nv_histogram", input_words=FRAME_PIXELS,
            output_words=FRAME_PIXELS + HISTOGRAM_BINS,
            compute=hist_stage_compute,
            latency_cycles=hist_sched.latency,
            interval_cycles=hist_sched.interval,
            resources=hist_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
        AcceleratorSpec(
            name="nv_equalize",
            input_words=FRAME_PIXELS + HISTOGRAM_BINS,
            output_words=FRAME_PIXELS, compute=eq_stage_compute,
            latency_cycles=eq_sched.latency,
            interval_cycles=eq_sched.interval,
            resources=eq_sched.resources, word_bits=fmt.width,
            design_flow="stratus"),
    ]


def night_vision_spec(fmt: FixedFormat = DEFAULT_FORMAT) -> AcceleratorSpec:
    """Synthesize the Night-Vision accelerator (Stratus-flow stand-in).

    The three kernels run back to back on each frame inside the tile.
    Their initiation intervals reflect the classic HLS limits of each
    loop: the 3x3 median uses an area-efficient compare network fed
    over a 16-bit datapath (II=3); the histogram loop carries a
    read-modify-write dependence on the bin memory (II=2); the
    equalization pass shares an iterative divider for the CDF
    normalization (II=3). This makes Night-Vision the slowest stage of
    the NV+Cl pipeline — which is why the paper's evaluation replicates
    it (Sec. V: "multiple instances of the slower accelerator can be
    activated to feed a single accelerator downstream").
    """
    window_cost = ResourceEstimate(luts=9_500, ffs=8_800, brams=6)
    filter_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=12,
                                           body_resources=window_cost)
    hist_cost = ResourceEstimate(luts=2_500, ffs=2_400, brams=2)
    hist_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=2, depth=4,
                                         body_resources=hist_cost)
    # CDF scan over the bins, then the remapping pass over the pixels.
    eq_cost = ResourceEstimate(luts=5_000, ffs=4_200, brams=4)
    cdf_stage = pipelined_loop_schedule(HISTOGRAM_BINS, interval=1, depth=4)
    remap_stage = pipelined_loop_schedule(FRAME_PIXELS, interval=3, depth=6,
                                          body_resources=eq_cost)
    schedule = sequential_schedule(filter_stage, hist_stage, cdf_stage,
                                   remap_stage)
    return AcceleratorSpec(
        name="night_vision",
        input_words=FRAME_PIXELS,
        output_words=FRAME_PIXELS,
        compute=lambda frames: night_vision_compute(frames, fmt),
        latency_cycles=schedule.latency,
        interval_cycles=schedule.interval,
        resources=schedule.resources,
        word_bits=fmt.width,
        design_flow="stratus",
    )

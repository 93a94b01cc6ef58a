"""The multi-tile (partitioned) classifier.

Paper Sec. VI: "We then designed a partitioned version of the
Classifier, by distributing the computation across five accelerators"
— one dense layer per tile, chained through DMA or p2p. This is the
workload of the third column of Table I and the rightmost cluster of
Fig. 7 ("1Cl split").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..hls4ml_flow import HlsModel
from ..nn import Sequential
from .base import AcceleratorSpec
from .classifier import classifier_hls


def partition_classifier(hls_model: Optional[HlsModel] = None,
                         model: Optional[Sequential] = None,
                         reuse_factor: int = 2048,
                         clock_mhz: float = 78.0) -> List[AcceleratorSpec]:
    """Split a compiled classifier into one accelerator per dense layer.

    Each partition keeps its layer's schedule and resources; the I/O
    geometry follows the layer sizes (1024 -> 256 -> 128 -> 64 -> 32 ->
    10 for the paper's network), so partitions chain directly on the
    NoC.
    """
    if hls_model is None:
        hls_model = classifier_hls(model, reuse_factor, clock_mhz)

    specs: List[AcceleratorSpec] = []
    for index, layer in enumerate(hls_model.layers):

        def compute(frames: np.ndarray, _layer=layer) -> np.ndarray:
            return _layer.forward(frames)

        specs.append(AcceleratorSpec(
            name=f"{hls_model.name}_part{index}",
            input_words=layer.n_in,
            output_words=layer.n_out,
            compute=compute,
            latency_cycles=layer.schedule.latency,
            interval_cycles=layer.schedule.interval,
            resources=layer.schedule.resources,
            word_bits=layer.precision.width,
            design_flow="hls4ml",
        ))
    return specs

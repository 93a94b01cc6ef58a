"""The SVHN digit classifier accelerator (HLS4ML flow).

Paper Sec. VI: "a Multilayer Perceptron (MLP) with four hidden layers.
The size of the fully connected network is 1024x256x128x64x32x10. We
used dropout layers with a 0.2 rate to prevent overfitting." Designed
in Keras, compiled with HLS4ML inside the ESP4ML flow.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hls4ml_flow import HlsConfig, HlsModel, compile_model
from ..nn import Dense, Dropout, ReLU, Sequential, Softmax
from .base import AcceleratorSpec

#: The paper's network: 1024x256x128x64x32x10.
CLASSIFIER_TOPOLOGY = (1024, 256, 128, 64, 32, 10)
DROPOUT_RATE = 0.2

#: Default HLS4ML reuse factor. Divides every hidden layer's weight
#: count; chosen (with the denoiser's) so the simulated SoCs land on
#: the paper's Table I throughput anchors while keeping four classifier
#: instances far inside the DSP budget of the Ultrascale+ part.
DEFAULT_REUSE_FACTOR = 1024


def classifier_model(seed: int = 7) -> Sequential:
    """The untrained Keras-substitute model with the paper's topology."""
    layers = []
    for units in CLASSIFIER_TOPOLOGY[1:-1]:
        layers.append(Dense(units))
        layers.append(ReLU())
        layers.append(Dropout(DROPOUT_RATE))
    layers.append(Dense(CLASSIFIER_TOPOLOGY[-1]))
    layers.append(Softmax())
    model = Sequential(layers, name="svhn_classifier")
    model.build(CLASSIFIER_TOPOLOGY[0], seed=seed)
    return model


def classifier_hls(model: Optional[Sequential] = None,
                   reuse_factor: int = DEFAULT_REUSE_FACTOR,
                   clock_mhz: float = 78.0) -> HlsModel:
    """Compile the classifier through the HLS4ML-substitute flow."""
    model = model or classifier_model()
    config = HlsConfig(reuse_factor=reuse_factor, clock_mhz=clock_mhz)
    return compile_model(model, config)


def spec_from_hls(hls_model: HlsModel, name: str) -> AcceleratorSpec:
    """Wrap any compiled HLS model into an SoC-ready spec.

    ``HlsModel.predict`` is already row-batched, so it is the kernel.
    """

    def compute(frames: np.ndarray) -> np.ndarray:
        return hls_model.predict(frames)

    return AcceleratorSpec(
        name=name,
        input_words=hls_model.input_size,
        output_words=hls_model.output_size,
        compute=compute,
        latency_cycles=hls_model.latency_cycles,
        interval_cycles=hls_model.interval_cycles,
        resources=hls_model.resources,
        word_bits=hls_model.layers[0].precision.width,
        design_flow="hls4ml",
    )


def classifier_spec(model: Optional[Sequential] = None,
                    reuse_factor: int = DEFAULT_REUSE_FACTOR,
                    clock_mhz: float = 78.0) -> AcceleratorSpec:
    """The classifier as an SoC-ready accelerator."""
    return spec_from_hls(classifier_hls(model, reuse_factor, clock_mhz),
                         name="classifier")

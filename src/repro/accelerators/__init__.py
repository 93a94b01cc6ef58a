"""Accelerator library: the paper's four case-study accelerators."""

from .base import AcceleratorSpec, chain_specs
from .classifier import classifier_model, classifier_spec
from .denoiser import denoiser_model, denoiser_spec
from .multitile import partition_classifier
from .nightvision import (
    histogram_kernel,
    histogram_equalization_kernel,
    night_vision_spec,
    night_vision_stage_specs,
    noise_filter_kernel,
)
from .registry import AcceleratorRegistry
from .results import ResultTable

__all__ = [
    "AcceleratorRegistry",
    "AcceleratorSpec",
    "chain_specs",
    "classifier_model",
    "classifier_spec",
    "denoiser_model",
    "denoiser_spec",
    "histogram_equalization_kernel",
    "histogram_kernel",
    "night_vision_spec",
    "night_vision_stage_specs",
    "noise_filter_kernel",
    "partition_classifier",
    "ResultTable",
]

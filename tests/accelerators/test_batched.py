"""Row-batched kernels: ``run_batch(X)`` equals per-frame ``run``, bit
for bit, for every accelerator spec in the repository."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import (
    chain_specs,
    classifier_spec,
    denoiser_spec,
    night_vision_spec,
    night_vision_stage_specs,
    partition_classifier,
)
from repro.fixed import DEFAULT_FORMAT
from repro.tune.workloads import fc_streaming

#: Frame kinds: ordinary, dark, and the degenerate ones. All-zero
#: frames take equalization's flat-CDF branch, all-ones frames clip to
#: the last histogram bin, out-of-range values saturate the format.
KINDS = ("uniform", "dark", "grid", "zeros", "ones", "out_of_range")


@lru_cache(maxsize=None)
def all_specs():
    stages = night_vision_stage_specs()
    specs = {"night_vision": night_vision_spec(),
             "classifier": classifier_spec(),
             "denoiser": denoiser_spec(),
             "nv_fused_stages": chain_specs("nv_fused", stages)}
    specs.update({spec.name: spec for spec in stages})
    specs.update({spec.name: spec for spec in partition_classifier()})
    soc, _ = fc_streaming().build()
    specs["tune_pump"] = soc.accelerators["pump"].spec
    return specs


SPEC_NAMES = ["night_vision", "nv_filter", "nv_histogram", "nv_equalize",
              "nv_fused_stages", "classifier", "denoiser",
              *(f"svhn_classifier_part{i}" for i in range(5)), "tune_pump"]


def make_frame(kind: str, words: int, rng) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(words)
    if kind == "ones":
        return np.ones(words)
    if kind == "dark":
        return rng.uniform(0.0, 0.2, words)
    if kind == "grid":
        return DEFAULT_FORMAT.quantize(rng.uniform(-1.0, 2.0, words))
    if kind == "out_of_range":
        return rng.uniform(-64.0, 64.0, words)
    return rng.uniform(0.0, 1.0, words)


def assert_batch_matches_frames(spec, frames: np.ndarray) -> None:
    batch = spec.run_batch(frames)
    per_frame = np.stack([spec.run(frame) for frame in frames])
    assert batch.shape == (len(frames), spec.output_words)
    # Compare the bits, so -0.0 vs 0.0 or a differing NaN would show.
    np.testing.assert_array_equal(batch.view(np.uint64),
                                  per_frame.view(np.uint64))


def test_every_spec_is_covered():
    assert sorted(all_specs()) == sorted(SPEC_NAMES)


@pytest.mark.parametrize("name", SPEC_NAMES)
@settings(max_examples=15, deadline=None)
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_batch_equals_per_frame(name, kinds, seed):
    spec = all_specs()[name]
    rng = np.random.default_rng(seed)
    frames = np.stack([make_frame(kind, spec.input_words, rng)
                       for kind in kinds])
    assert_batch_matches_frames(spec, frames)


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_degenerate_frames_in_one_batch(name):
    spec = all_specs()[name]
    rng = np.random.default_rng(0)
    frames = np.stack([make_frame(kind, spec.input_words, rng)
                       for kind in KINDS])
    assert_batch_matches_frames(spec, frames)


def test_degenerate_frames_take_their_branches():
    """The degenerate kinds reach the branches they are meant for."""
    nv = all_specs()["night_vision"]
    zeros, ones = np.zeros(nv.input_words), np.ones(nv.input_words)
    # Flat CDF: the frame passes through quantized.
    np.testing.assert_array_equal(nv.run(zeros), zeros)
    # Every pixel in the last bin is flat as well.
    np.testing.assert_array_equal(nv.run(ones), DEFAULT_FORMAT.quantize(ones))
    cl = all_specs()["svhn_classifier_part0"]
    wild = np.full((1, cl.input_words), 1e3)
    out = cl.run_batch(wild)
    assert np.all(out <= DEFAULT_FORMAT.max_value)


def test_run_batch_rejects_bad_geometry():
    spec = all_specs()["night_vision"]
    with pytest.raises(ValueError, match="input words"):
        spec.run_batch(np.zeros(spec.input_words))
    with pytest.raises(ValueError, match="input words"):
        spec.run_batch(np.zeros((2, spec.input_words + 1)))

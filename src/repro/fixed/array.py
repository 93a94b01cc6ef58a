"""Bit-accurate fixed-point array arithmetic.

The HLS4ML-generated firmware computes layers in fixed point; this
module provides the matching NumPy reference: quantized matrix-vector
products, activation functions evaluated on quantized values, and
pack/unpack helpers that mirror how 16-bit words travel over the 64-bit
NoC flits of the ESP platform.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .format import FixedFormat


def quantize(values: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Quantize an array to ``fmt`` (returns float64 values on the grid)."""
    return fmt.quantize(values)


def fixed_matvec(weights: np.ndarray, x: np.ndarray, bias: np.ndarray,
                 in_fmt: FixedFormat, weight_fmt: FixedFormat,
                 out_fmt: FixedFormat,
                 params_quantized: bool = False) -> np.ndarray:
    """Dense layer in fixed point: ``out = cast(W @ x + b)``.

    Inputs and weights are first snapped to their formats; the
    accumulation happens in full precision (as HLS does with a wide
    accumulator) and only the final result is cast to ``out_fmt``.

    ``params_quantized=True`` asserts that ``weights`` and ``bias`` are
    already on the ``weight_fmt`` grid and skips re-snapping them — the
    layer-parameter fast path. Quantization is idempotent (pinned by
    ``tests/fixed``), so the result is bit-identical; callers own the
    guarantee that the arrays really are quantized (compiled models
    quantize parameters once at build time).

    The float64 accumulation is exact, so a batch ``(n_in, batch)``
    gives every column the bits a single-vector call gives it, whatever
    order BLAS sums in. Each product is an integer multiple of
    ``2**-(Fx + Fw)`` (the two fraction widths) below ``2**(Ix + Iw)``
    in magnitude (the two integer widths), and ``n_in`` of them sum
    below ``2**(Ix + Iw + log2(n_in))``; every partial sum is exact
    while ``Fx + Fw + Ix + Iw + log2(n_in) <= 53``. With one format for
    inputs and weights that is ``2*fraction_bits + 2*integer_bits +
    log2(n_in) <= 53``: 42 bits for ``ap_fixed<16,6>`` over the
    classifier's 1024 inputs.
    """
    xq = in_fmt.quantize(x)
    if params_quantized:
        wq, bq = weights, bias
    else:
        wq = weight_fmt.quantize(weights)
        bq = weight_fmt.quantize(bias)
    acc = wq @ xq
    # x may be a single vector (n_in,) or a batch (n_in, batch).
    acc += bq[:, None] if acc.ndim == 2 else bq
    return out_fmt.quantize(acc)


def fixed_relu(x: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """ReLU on quantized values (exact in fixed point)."""
    return fmt.quantize(np.maximum(x, 0.0))


@lru_cache(maxsize=None)
def _sigmoid_table(fmt: FixedFormat, table_bits: int,
                   table_range: float) -> np.ndarray:
    """The quantized sigmoid LUT for one (format, geometry) pair.

    In hardware the table is a ROM synthesized once; rebuilding it per
    call (1k-entry linspace + exp + quantize) dominated the denoiser's
    simulation cost. ``FixedFormat`` is a frozen dataclass, so it keys
    an ``lru_cache`` directly; the cached array is returned read-only
    so a caller cannot corrupt the shared ROM.
    """
    size = 1 << table_bits
    centers = np.linspace(-table_range, table_range, size, endpoint=False)
    table = fmt.quantize(1.0 / (1.0 + np.exp(-centers)))
    table.setflags(write=False)
    return table


def fixed_sigmoid(x: np.ndarray, fmt: FixedFormat,
                  table_bits: int = 10, table_range: float = 8.0) -> np.ndarray:
    """Sigmoid via lookup table, as HLS4ML implements it in hardware.

    The table has ``2**table_bits`` entries spanning
    ``[-table_range, table_range)``; inputs outside the range clamp to
    the table ends. The output is cast to ``fmt``.
    """
    size = 1 << table_bits
    table = _sigmoid_table(fmt, table_bits, table_range)
    idx = np.floor((np.asarray(x) + table_range) / (2 * table_range) * size)
    idx = np.clip(idx, 0, size - 1).astype(np.int64)
    return table[idx]


def fixed_softmax(x: np.ndarray, fmt: FixedFormat) -> np.ndarray:
    """Softmax cast to ``fmt``.

    HLS4ML offers LUT-based softmax; for classification only the argmax
    matters, which quantized softmax preserves as long as the format
    resolves the logit gaps. We compute in float then cast, which is the
    same monotone mapping.
    """
    # Row sums must not depend on the batch: numpy sums a contiguous
    # row pairwise but accumulates a strided axis in sequence, and the
    # two can differ in the last bit. A dense layer's batched output
    # is a transposed view, so make the rows contiguous first.
    x = np.ascontiguousarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    expx = np.exp(shifted)
    return fmt.quantize(expx / np.sum(expx, axis=-1, keepdims=True))


def pack_words(raw: np.ndarray, word_bits: int, flit_bits: int) -> np.ndarray:
    """Pack raw codes into NoC flits (little-endian within the flit).

    This mirrors the wrapper's STORE path: ``word_bits``-wide tokens are
    packed ``flit_bits // word_bits`` per flit. The final flit is
    zero-padded.
    """
    if flit_bits % word_bits:
        raise ValueError(
            f"flit width {flit_bits} not a multiple of word width {word_bits}")
    per_flit = flit_bits // word_bits
    raw = np.asarray(raw, dtype=np.int64)
    mask = (1 << word_bits) - 1
    codes = raw.astype(np.uint64) & np.uint64(mask)
    pad = (-len(codes)) % per_flit
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint64)])
    codes = codes.reshape(-1, per_flit)
    flits = np.zeros(len(codes), dtype=np.uint64)
    for lane in range(per_flit):
        flits |= codes[:, lane] << np.uint64(lane * word_bits)
    return flits


def unpack_words(flits: np.ndarray, count: int, word_bits: int,
                 flit_bits: int, signed: bool = True) -> np.ndarray:
    """Inverse of :func:`pack_words`; returns ``count`` raw codes."""
    if flit_bits % word_bits:
        raise ValueError(
            f"flit width {flit_bits} not a multiple of word width {word_bits}")
    per_flit = flit_bits // word_bits
    flits = np.asarray(flits, dtype=np.uint64)
    mask = np.uint64((1 << word_bits) - 1)
    lanes = [((flits >> np.uint64(lane * word_bits)) & mask)
             for lane in range(per_flit)]
    codes = np.stack(lanes, axis=1).reshape(-1)[:count].astype(np.int64)
    if signed:
        sign_bit = 1 << (word_bits - 1)
        codes = np.where(codes >= sign_bit, codes - (1 << word_bits), codes)
    return codes


def words_to_flits(num_words: int, word_bits: int, flit_bits: int) -> int:
    """Number of flits needed to carry ``num_words`` packed words."""
    per_flit = flit_bits // word_bits
    if per_flit < 1:
        raise ValueError(
            f"word width {word_bits} exceeds flit width {flit_bits}")
    return (num_words + per_flit - 1) // per_flit


def roundtrip(values: np.ndarray, fmt: FixedFormat, word_bits: int,
              flit_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize, pack to flits, unpack; returns (values, flits).

    Used by tests to assert the NoC transport is lossless for any
    quantized payload.
    """
    raw = fmt.to_raw(values)
    flits = pack_words(raw, word_bits, flit_bits)
    back = unpack_words(flits, len(raw), word_bits, flit_bits,
                        signed=fmt.signed)
    return fmt.from_raw(back), flits

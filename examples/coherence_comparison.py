#!/usr/bin/env python
"""Cache-coherence models vs the p2p service.

The paper positions its p2p communication against inter-accelerator
data exchange "that use[s] off-chip memory ... normally the most
efficient accelerator cache-coherence model" (Sec. I, citing the
authors' coherence work). This example runs the same two-stage
pipeline under three data-movement regimes:

- non-coherent DMA: every transaction goes to DRAM;
- LLC-coherent DMA: transactions allocate in a last-level cache at
  the memory tile (COHERENCE_REG selects this per invocation);
- p2p: intermediate frames travel tile-to-tile over the NoC.

Run:  python examples/coherence_comparison.py
"""

import numpy as np

from repro.accelerators import classifier_spec, night_vision_spec
from repro.datasets import darken, flatten_frames, generate
from repro.runtime import EspRuntime, replicated_stage
from repro.soc import CoherenceMode, SoCConfig, build_soc, read_monitors


def build_runtime():
    config = SoCConfig(cols=3, rows=2, name="coherence-demo")
    config.add_cpu((0, 0))
    # 64K-word LLC at the memory tile for the coherent runs.
    config.add_memory((1, 0), llc_words=1 << 16)
    config.add_aux((2, 0))
    config.add_accelerator((0, 1), "nv0", night_vision_spec())
    config.add_accelerator((1, 1), "cl0", classifier_spec())
    return EspRuntime(build_soc(config))


def main(n_frames: int = 24):
    frames_img, _ = generate(n_frames, seed=0)
    frames = flatten_frames(darken(frames_img))
    dataflow = replicated_stage("nv_cl", ["nv0"], ["cl0"])

    print(f"{'model':<16}{'frames/s':>12}{'DRAM words':>12}"
          f"{'LLC hit rate':>14}")
    for label, mode, coherence in (
            ("non-coherent", "pipe", CoherenceMode.NON_COHERENT),
            ("llc-coherent", "pipe", CoherenceMode.LLC_COHERENT),
            ("p2p", "p2p", CoherenceMode.NON_COHERENT)):
        runtime = build_runtime()
        result = runtime.esp_run(dataflow, frames, mode=mode,
                                 coherence=coherence)
        llc = runtime.soc.memory_map.tiles[0].llc
        hit_rate = f"{llc.hit_rate:.0%}" \
            if coherence is CoherenceMode.LLC_COHERENT else "-"
        print(f"{label:<16}{result.frames_per_second:>12,.0f}"
              f"{result.dram_accesses:>12,}{hit_rate:>14}")

    print("\ntakeaway: the LLC absorbs the intermediate frames (so does "
          "p2p), but p2p also removes the memory-tile round trip and "
          "the per-frame ioctl/sync software cost — which is why the "
          "paper built it.")


if __name__ == "__main__":
    main()

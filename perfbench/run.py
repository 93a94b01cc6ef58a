"""Live benchmark of simulator host cost and modelled SoC results.

Run from the root of the repository::

    python3 perfbench/run.py --workload pipe --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run. The last line of standard output is
one JSON object; see ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"

#: Cold set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 9
SETUP_PROBE_TIMEOUT_S = 60
#: Fewest timed repetitions a run takes, however long each one is.
MIN_REPS = 3
#: Traced repetitions (two, so call counts can be checked to repeat).
TRACED_REPS = 2

#: Host-speed calibration. The speed of a shared host drifts by 10-25%
#: over minutes. A fixed calibration kernel is timed before and after
#: every timed repetition and every set-up probe, and ``host_fps`` and
#: ``setup_s`` are scaled to a host on which the kernel takes
#: CALIBRATION_REF_S seconds; the unscaled figures are printed beside
#: them. The kernel is small numpy operations on a cache-resident
#: 1024-element vector: of the kernels tried, it tracked the drift of
#: ``pipe`` and ``p2p`` about as well as one with a 64x1024
#: matrix-vector product (halving the spread of their 20-second
#: medians) without that one's dependence on where the process placed
#: the matrix, and better than pure-Python loops.
CALIBRATION_REF_S = 0.1
CALIBRATION_STEPS = 5000

#: End-to-end metrics and their units.
END_TO_END = {
    "host_fps": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "sim_frames_per_joule": "frames/J",
    "sim_dram_words": "words",
    "sim_latency_p50_cycles": "cycles",
    "sim_latency_p95_cycles": "cycles",
    "sim_goodput_fps": "frames/s",
    "pass_share": "ratio",
}

#: Per-layer counters read after the run, and their units.
LAYER_COUNTERS = {
    "sim.events": "count",
    "noc.packets": "count",
    "noc.flit_hops": "count",
    "noc.avg_latency_cycles": "cycles",
    "soc.dma_transactions": "count",
    "soc.dma_words": "words",
    "soc.p2p_transactions": "count",
    "soc.acc_busy_share": "ratio",
    "accelerators.invocations": "count",
    "runtime.ioctl_calls": "count",
    "serve.batches": "count",
    "serve.admitted_share": "ratio",
    "serve.queue_wait_p50_cycles": "cycles",
    "fleet.route_calls": "count",
    "control.actions": "count",
    "control.applied_share": "ratio",
    "trace.records": "count",
    "trace.kept_share": "ratio",
    "metrics.scrapes": "count",
}


#: Units of the per-layer metrics derived from several measurements.
DERIVED = {
    "sim.host_ns_per_event": "ns",
    "bench.trace_overhead_share": "ratio",
    "bench.self_time_coverage": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipe", "p2p", "fleet-observed"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def calibration_s(vector) -> float:
    """Seconds the calibration kernel takes on the host right now."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_STEPS):
        np.sort(vector[:256])
        np.clip(np.round(vector * 256.0) / 256.0, 0.1, 0.9).sum()
    return time.perf_counter() - start


class HostClock:
    """Calibration kernels timed between measurements."""

    def __init__(self) -> None:
        self._vector = np.random.default_rng(0).random(1024)
        self._last = calibration_s(self._vector)

    def slowdown(self) -> float:
        """How much slower than the reference host the host ran since
        the previous call (mean of the kernels before and after)."""
        previous, self._last = self._last, calibration_s(self._vector)
        return (previous + self._last) / 2 / CALIBRATION_REF_S


def timed_reps(units, seconds: float):
    """Run the units round-robin for ``seconds``, each at least once and
    at least MIN_REPS repetitions in all."""
    reps = []
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    while (len(reps) < max(MIN_REPS, len(units))
           or time.perf_counter() < deadline):
        index = len(reps) % len(units)
        state = units[index].prepare()
        gc.collect()
        start = time.perf_counter()
        result = units[index].execute(state)
        wall = time.perf_counter() - start
        rep = units[index].inspect(state, result)
        rep.update(unit=index, wall_s=wall, slowdown=clock.slowdown())
        reps.append(rep)
    return reps


def traced_reps(unit):
    """TRACED_REPS repetitions of ``unit`` under the layer wrappers."""
    from layers import LayerClock, instrument

    clock = LayerClock()
    reps = []
    with instrument(clock):
        for _ in range(TRACED_REPS):
            state = unit.prepare()
            gc.collect()
            self_ns, calls = dict(clock.self_ns), dict(clock.calls)
            start = time.perf_counter()
            result = unit.execute(state)
            wall = time.perf_counter() - start
            rep_self = {k: clock.self_ns[k] - v for k, v in self_ns.items()}
            rep_calls = {k: clock.calls[k] - v for k, v in calls.items()}
            rep = unit.inspect(state, result)
            rep.update(unit=0, wall_s=wall, self_ns=rep_self,
                       calls=rep_calls)
            reps.append(rep)
    return reps


def setup_seconds(workload_name: str):
    """Cold set-up in SETUP_PROBES fresh interpreters: (seconds, host
    slowdown) per probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    clock = HostClock()
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            env=env, capture_output=True, text=True, check=True,
            timeout=SETUP_PROBE_TIMEOUT_S)
        seconds = json.loads(probe.stdout.splitlines()[-1])["setup_s"]
        samples.append((seconds, clock.slowdown()))
    return samples


def first_of_each_unit(reps):
    firsts = {}
    for rep in reps:
        firsts.setdefault(rep["unit"], rep)
    return [firsts[index] for index in sorted(firsts)]


def repeat_problems(reps):
    """Deterministic counts must be identical in every repetition of a
    unit, traced or not (a traced one differing means the wrappers
    perturbed the model)."""
    firsts = first_of_each_unit(reps)
    return [f"repetition {index}{' (traced)' if 'calls' in rep else ''}: "
            f"{key} = {rep['counts'][key]!r}, first run of the unit "
            f"{firsts[rep['unit']]['counts'][key]!r}"
            for index, rep in enumerate(reps)
            for key in sorted(rep["counts"])
            if rep["counts"][key] != firsts[rep["unit"]]["counts"][key]]


def end_to_end(workload, reps, setup, simulated) -> dict:
    fps = [r["frames_done"] / r["wall_s"] for r in reps]
    host = {
        "host_fps": statistics.median(
            f * r["slowdown"] for f, r in zip(fps, reps)),
        "setup_s": statistics.median(s / slowdown for s, slowdown in setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"[{workload.name}] {len(reps)} timed repetitions of "
          f"{len(workload.units)} unit(s); {simulated['latency_samples']} "
          f"latency samples; attempted {sum(r['attempted'] for r in reps)}, "
          f"refused {sum(r['refused'] for r in reps)}, "
          f"failed {sum(r['failed'] for r in reps)}")
    print(f"[{workload.name}] unscaled: host_fps "
          f"{statistics.median(fps):.6g}, setup_s "
          f"{statistics.median(s for s, _ in setup):.6g}; host slowdown "
          f"{statistics.median(r['slowdown'] for r in reps):.4g}")
    return {name: host[name] if name in host else simulated[name]
            for name in END_TO_END}


def per_layer(untraced, traced) -> dict:
    from layers import LAYERS

    counts = untraced[0]["counts"]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.host_self_s"] = statistics.median(
            r["self_ns"][layer] / 1e9 for r in traced)
        metrics[f"{layer}.calls"] = traced[0]["calls"][layer]
    for name in LAYER_COUNTERS:
        metrics[name] = counts[name]
    metrics["sim.host_ns_per_event"] = (
        untraced_wall * 1e9 / counts["sim.events"])
    metrics["bench.trace_overhead_share"] = traced_wall / untraced_wall - 1
    metrics["bench.self_time_coverage"] = statistics.median(
        sum(r["self_ns"].values()) / 1e9 / r["wall_s"] for r in traced)
    return metrics


def unit_of(name: str) -> str:
    for table in (END_TO_END, LAYER_COUNTERS, DERIVED):
        if name in table:
            return table[name]
    return "s" if name.endswith(".host_self_s") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    problems = workloads.run_pins()
    workload = workloads.make_workload(args.workload, seed)
    if args.trace:
        untraced = timed_reps(workload.units[:1], args.seconds)
        traced = traced_reps(workload.units[0])
        reps = untraced + traced
        problems += repeat_problems(reps)
        problems += [f"traced calls differ between repetitions: {layer} "
                     f"{traced[0]['calls'][layer]} vs {rep['calls'][layer]}"
                     for rep in traced[1:] for layer in sorted(rep["calls"])
                     if rep["calls"][layer] != traced[0]["calls"][layer]]
        metrics = per_layer(untraced, traced)
    else:
        reps = timed_reps(workload.units, args.seconds)
        problems += repeat_problems(reps)
        metrics = end_to_end(
            workload, reps, setup_seconds(args.workload),
            workloads.simulated_results(first_of_each_unit(reps)))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{args.workload:<15} {name:<32} {value:>18.6g} {unit_of(name)}")
    attempted = sum(r["attempted"] for r in reps) + len(workloads.PINS)
    failed = sum(r["failed"] for r in reps) + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:   # report, never print a result for a broken run
        traceback.print_exc()
        sys.exit(1)

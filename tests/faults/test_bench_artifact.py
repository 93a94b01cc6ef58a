"""The committed ``BENCH_faults.json`` is what the code produces today.

The fault campaign is seeded and the simulator deterministic, so the
whole report (per-kind recovery counts, retries, watchdog timeouts,
degraded runs and cycle-overhead percentiles) must equal a fresh
``benchmarks/bench_faults.py`` run. A mismatch means the committed
report is stale: regenerate it with
``PYTHONPATH=src python benchmarks/bench_faults.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

from repro.eval import run_fault_campaign

ROOT = Path(__file__).resolve().parents[2]


def _load_bench_faults():
    spec = importlib.util.spec_from_file_location(
        "bench_faults_artifact", ROOT / "benchmarks" / "bench_faults.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)   # puts benchmarks/ on sys.path
    finally:
        sys.path[:] = saved
    return module


def test_committed_fault_report_matches_a_fresh_run():
    bench = _load_bench_faults()
    committed = json.loads((ROOT / "BENCH_faults.json").read_text())
    report = run_fault_campaign(n_frames=bench.CAMPAIGN_FRAMES)
    assert committed == bench.build_payload(report)

"""The committed ``BENCH_fleet.json`` is what the code produces today.

The fleet campaign is deterministic, so the whole report (admissions,
rejections, routing, makespans and latency percentiles of every
policy) must equal a fresh ``benchmarks/bench_fleet.py`` run. A
mismatch means the committed report is stale: regenerate it with
``PYTHONPATH=src python benchmarks/bench_fleet.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load_bench_fleet():
    spec = importlib.util.spec_from_file_location(
        "bench_fleet_artifact", ROOT / "benchmarks" / "bench_fleet.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)   # puts benchmarks/ on sys.path
    finally:
        sys.path[:] = saved
    return module


def test_committed_fleet_report_matches_a_fresh_run():
    bench = _load_bench_fleet()
    committed = json.loads((ROOT / "BENCH_fleet.json").read_text())
    assert committed == bench.build_payload(bench.run_fleet_benchmark())

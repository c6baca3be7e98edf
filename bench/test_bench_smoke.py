"""Smoke test of the benchmark: every workload at a tiny size, timed and
traced, with no failed operation and exactly the metrics BENCHMARK.json
names."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

from workloads import SMOKE  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_smoke(workload, trace, tmp_path):
    result = run.benchmark(workload, seed=3, seconds=0, trace=trace, sizes=SMOKE, out_dir=tmp_path)
    assert result["attempted"] > 0
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}


def test_workloads_are_listed():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)

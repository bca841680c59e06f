"""Smoke test of the benchmark at tiny sizes (d=4, 8x8 books at n=8,
1024 Monte Carlo trials).  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# One recorded float per workload, moved just past its check tolerance.
CORRUPT = {
    "exponent_sweep_d6": ("value", 1e-6),
    "codebook_check_n12": ("need.average_need_delta.pair", 1e-6),
    "decode_n12": ("p_exact", 1e-9),
}


def bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_counts_as_failed(workload, tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    field, step = CORRUPT[workload]
    touched = 0
    for groups in refs["tiny"][workload].values():
        for obs in groups.values():
            if field in obs:
                old = obs[field]
                obs[field] = 0.0 if old == float("inf") else old + step
                touched += 1
    assert touched
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    result = bench(workload, 0, "--reference", str(path))
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_share"]["value"] < 1.0

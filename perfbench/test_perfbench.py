"""Fast self-test of the benchmark, on the (2,2) cases only.  From the
repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.LARGEST) == set(run.WORKLOADS)
    expected = run.load_expected()
    for cases in [*run.WORKLOADS.values(), run.SELFTEST]:
        for case in cases:
            assert expected[case.name]["argv"] == list(case.argv)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    result = run.measure("selftest", run.SELFTEST, seed=1, seconds=0, trace=False)
    lines = run.report(result)
    assert result["failed"] == 0
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["value"] > 0
        assert any(line.startswith(f"selftest {metric} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("selftest fail_rate 0 1 ") for line in lines)


def test_corrupted_digest_raises_fail_rate():
    expected = run.load_expected()
    name = run.SELFTEST[0].name
    expected[name] = {**expected[name], "sha256": "0" * 64}
    result = run.measure("selftest", run.SELFTEST, seed=1, seconds=0, trace=False, expected=expected)
    assert result["failed"] == 1
    assert result["fail_rate"] > 0


def test_tiny_cap_records_a_timeout():
    case = run.SELFTEST[0]
    record = run.run_case(case, run.load_expected(), cap=0.001)
    assert record["timed_out"]
    assert not record["ok"]
    assert record["wall_s"] == 0.001
    assert "timed out" in record["problem"]


def test_traced_counts_repeat_exactly():
    first = run.measure("selftest", run.SELFTEST, seed=1, seconds=0, trace=True)
    second = run.measure("selftest", run.SELFTEST, seed=2, seconds=0, trace=True)
    assert first["failed"] == second["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    counted = [k for k, unit in run.PER_LAYER.items() if unit != "s"]
    assert {k: first["metrics"][k] for k in counted} == {k: second["metrics"][k] for k in counted}
    assert first["metrics"]["matrices.mat_mul_calls"]["value"] > 0
    assert first["metrics"]["convolution.basis_pairs"]["value"] > 0
    assert first["metrics"]["reptheory.representations_built"]["value"] > 0

"""Checks on the benchmark itself (not part of the repository's test suite).

    python -m pytest perfbench/tests -q

The traced runs take about a minute and a half in total on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload, seed, trace, seconds=1):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True, timeout=300)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2].removeprefix("details: ")), json.loads(lines[-1])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 41))
    q, value = run.tail(samples)
    assert q == 75.0
    assert sum(s > value for s in samples) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    """Two traced runs of one seed make the same calls and the same outputs."""
    first_details, first = bench(workload, 0, 1)
    second_details, second = bench(workload, 0, 1)
    assert first["correct"] and second["correct"], first_details["failures"]
    counts = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first_details["output_sha256"] == second_details["output_sha256"]
    if workload == "optimize_genus2":
        assert first["metrics"]["fem.laplace_spectrum.calls"]["value"] == 116
        assert first["metrics"]["optimize.iterations"]["value"] == 9
    if workload == "steklov_sweep":
        assert first["metrics"]["fem.steklov_spectrum.boundary_dofs"]["value"] == 198


def test_untraced_run_reports_every_end_to_end_metric():
    details, result = bench("spectrum_platonic", 3, 0)
    assert result["correct"], details["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["inputs"]["vertices"] == 10180
    assert details["inputs"]["group_order"] == 96


@pytest.mark.parametrize("workload, trace", [("spectrum_platonic", 0), ("optimize_genus2", 1)])
def test_failed_command_is_counted_and_the_result_still_printed(workload, trace, monkeypatch,
                                                                 capsys):
    monkeypatch.setattr(run.eigenmax.cli, "main", lambda argv: 1)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1

"""Self-checks of the repo benchmark.

    python3 -m pytest perfbench/tests -q

Takes 6-12 minutes, depending on how busy the host is: each workload
runs traced twice with the same seed in fresh processes, exactly as
the benchmark is launched.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import ExecWorkload, FaultsWorkload, SweepWorkload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics read from the host clock; everything else repeats.
TIMED_UNITS = ("s", "1/s", "kinstr/s")


def _run(workload, seed, trace, seconds=0):
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record_path = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


def _declared(key):
    return {m["name"]: m for m in DECLARED[key]}


def _deterministic(metrics):
    per_layer = _declared("per_layer")
    return {
        name: value["value"]
        for name, value in metrics.items()
        if per_layer[name]["unit"] not in TIMED_UNITS
        and name != "tracing.overhead_frac"
    }


def test_declarations_are_well_formed():
    for key in ("end_to_end", "per_layer"):
        names = [m["name"] for m in DECLARED[key]]
        assert len(names) == len(set(names)), key
        for metric in DECLARED[key]:
            assert metric["unit"], metric
            assert metric["better"] in ("higher", "lower"), metric
    assert {m["name"] for m in DECLARED["workloads"]} == {"exec", "sweep", "faults"}


@pytest.mark.parametrize("workload", ["exec", "sweep", "faults"])
def test_same_seed_repeats_exactly(workload):
    first, first_record = _run(workload, seed=7, trace=1)
    second, second_record = _run(workload, seed=7, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(_declared("per_layer"))
        for name, value in result["metrics"].items():
            assert value["unit"] == _declared("per_layer")[name]["unit"]
    assert first["metrics"]["guest.drifted_ops"]["value"] == 0
    # Set-up's compile and build steps are profiled on every workload.
    for layer in ("minic", "toolchain"):
        assert first["metrics"][f"setup.{layer}.calls"]["value"] > 0, layer
    # Guest stats of every operation (the sums behind guest_mcycles and
    # guest_mj), stats counts and per-layer call counts.
    assert {k: v["guest"] for k, v in first_record["ops"].items()} == {
        k: v["guest"] for k, v in second_record["ops"].items()
    }
    assert _deterministic(first["metrics"]) == _deterministic(second["metrics"])


def test_untraced_run_reports_end_to_end_metrics():
    result, record = _run("faults", seed=7, trace=0)
    assert result["correct"] and result["attempted"] >= len(record["ops"])
    assert set(result["metrics"]) == set(_declared("end_to_end"))
    for name, value in result["metrics"].items():
        assert value["unit"] == _declared("end_to_end")[name]["unit"]
        assert value["value"] > 0, name
    for fact in ("python", "platform", "nproc", "cpu_model"):
        assert record["host"][fact]


def test_seed_changes_generated_programs():
    def sources(workload):
        return [op.id for op in workload.ops]

    assert sources(ExecWorkload(1)) != sources(ExecWorkload(2))
    assert ExecWorkload(1).programs[0].render() == ExecWorkload(1).programs[0].render()
    assert sources(FaultsWorkload(1)) != sources(FaultsWorkload(3))
    assert sources(SweepWorkload(1)) != sources(SweepWorkload(4))

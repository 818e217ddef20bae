"""The ``repro faults`` subcommand."""

import io
import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.faults.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def sweep_args(tmp_path, name, seed="1"):
    return (
        "sweep",
        "--seed",
        seed,
        "--benchmarks",
        "crc",
        "--systems",
        "baseline",
        "swapram",
        "--schedules",
        "fixed:0.5",
        "adversarial:memcpy",
        "--out",
        str(tmp_path / name),
    )


def test_sweep_writes_deterministic_report(tmp_path):
    code, output = run_cli(*sweep_args(tmp_path, "a"))
    assert code == 0
    assert "summary:" in output
    first = (tmp_path / "a" / "sweep-seed1.json").read_bytes()

    code, _ = run_cli(*sweep_args(tmp_path, "b"))
    assert code == 0
    second = (tmp_path / "b" / "sweep-seed1.json").read_bytes()
    assert first == second  # byte-identical across invocations

    document = json.loads(first)
    assert document["seed"] == 1
    assert sum(document["summary"].values()) == len(document["cases"]) == 4
    by_key = {
        (case["system"], case["schedule"]): case for case in document["cases"]
    }
    # Baseline survives a mid-run outage; SwapRAM does not.
    assert by_key[("baseline", "fixed:0.5")]["classification"] == "correct"
    assert by_key[("swapram", "fixed:0.5")]["classification"] != "correct"
    # The adversarial schedule found and hit the memcpy window.
    adversarial = by_key[("swapram", "adversarial:memcpy")]
    assert adversarial["resolved_window"] == "memcpy"
    assert adversarial["boots"][0]["interrupted_in"] == "memcpy"
    assert document["metrics"]["faults.power_failures"]["value"] >= 3


def test_replay_tells_the_boot_story(tmp_path):
    path = tmp_path / "replay.json"
    code, output = run_cli(
        "replay",
        "--benchmark",
        "crc",
        "--system",
        "swapram",
        "--schedule",
        "adversarial:memcpy",
        "--seed",
        "1",
        "--json",
        str(path),
    )
    assert code == 0
    assert "in=memcpy" in output
    assert "audit:" in output
    assert "result :" in output
    report = json.loads(path.read_text())
    assert report["schedule"] == "adversarial:memcpy"
    assert report["boots"]


def test_replay_needs_exactly_one_target():
    code, output = run_cli("replay", "--schedule", "fixed:0.5")
    assert code == 2
    assert "exactly one" in output


def test_bad_schedule_is_a_usage_error(tmp_path):
    code, output = run_cli(
        "sweep",
        "--benchmarks",
        "crc",
        "--schedules",
        "bogus:1",
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert "error:" in output


def test_dispatch_from_repro_main(tmp_path):
    out = io.StringIO()
    code = repro_main(
        [
            "faults",
            "sweep",
            "--seed",
            "3",
            "--benchmarks",
            "crc",
            "--systems",
            "baseline",
            "--schedules",
            "fixed:0.5",
            "--out",
            str(tmp_path),
        ],
        out=out,
    )
    assert code == 0
    assert (tmp_path / "sweep-seed3.json").exists()


def test_committed_dcguard_golden_is_reproduced(tmp_path):
    """The command docs/faults.md gives for the committed dcguard report
    reproduces it byte for byte, fuse instants included."""
    golden = RESULTS / "faults" / "datacache-dcguard-seed1.json"
    code, _ = run_cli(
        "sweep",
        "--benchmarks",
        "dcguard",
        "--systems",
        "baseline",
        "datacache-wt",
        "datacache-wb",
        "datacache-acp",
        "--schedules",
        "fixed:0.08",
        "fixed:0.5",
        "--seed",
        "1",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "sweep-seed1.json").read_bytes() == golden.read_bytes()

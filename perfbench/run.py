#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload exec --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout. Set-up (compile, instrument, link,
load and, in ``sweep``, trace capture) is timed cold, then the
workload's operations run in order, round after round, until
``--seconds`` have passed and every operation has run at least once.

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` profiles set-up's compile and build
steps, runs one untraced round and one round under ``cProfile``, and
reports the per-layer metrics instead. The last line of standard
output is the result object; the full record (host facts,
per-operation samples, spans) is written under ``perfbench/out``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

#: Environment the workload runs under: a fixed hash seed, so Python
#: call counts repeat exactly, and no disk build cache or sweep tracing,
#: so set-up is cold and nothing else records.
PINNED_ENV = {"PYTHONHASHSEED": "0"}
DROPPED_ENV = ("REPRO_BUILD_CACHE", "REPRO_TRACE")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("exec", "sweep", "faults"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment():
    """Re-exec this process once under the pinned environment."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()) and not any(
        k in os.environ for k in DROPPED_ENV
    ):
        return
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    env.update(PINNED_ENV)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *sys.argv[1:]], env)


def _declared_units(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares for a mode."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in document["per_layer" if trace else "end_to_end"]}


def host_facts():
    """Facts that decide whether two results may be compared."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def timed_setup(workload, reps, spans):
    """Run *reps* cold set-ups; returns (median seconds, prepared states)."""
    seconds = []
    prepared = {}
    for rep in range(reps):
        # Each set-up starts from a collected heap, as a fresh process
        # would, so a collection the previous one left pending does not
        # land in this one's sample.
        gc.collect()
        with spans.span("setup", rep=rep):
            started = time.perf_counter()
            prepared = workload.setup(spans)
            seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), seconds, prepared


class Timing:
    """Per-operation host samples and first results of one measured phase."""

    def __init__(self):
        self.samples = {}
        self.results = {}
        self.problems = {}
        self.attempted = 0
        self.failed = 0

    def wall_s(self):
        """Sum over operations of each one's median host seconds."""
        return sum(statistics.median(values) for values in self.samples.values())

    def pass_s(self):
        """Host seconds of the first execution of every operation."""
        return sum(values[0] for values in self.samples.values())


def _collections():
    """Collections the garbage collector has run, over all generations."""
    return sum(generation["collections"] for generation in gc.get_stats())


def measure(workload, prepared, seconds, spans, profiler=None, one_pass=False):
    """Run operations round-robin; returns their :class:`Timing`."""
    ops = workload.ops
    timing = Timing()
    started = time.perf_counter()
    index = 0
    collections = None
    with spans.span("timed", traced=profiler is not None):
        while True:
            op = ops[index % len(ops)]
            index += 1
            if op.id in prepared:
                state = prepared.pop(op.id)
            else:
                state = op.prepare() if op.prepare is not None else None
            # Cyclic garbage the previous op left (power-failure
            # tracebacks, crashed boards) is collected outside every
            # sample, so the peak RSS does not depend on when the
            # collector last ran. Inside the sample it runs as it would
            # in the program. An op during which the collector never ran
            # left all its garbage in the youngest generation; collecting
            # only that skips a full pass over sweep's traces, which
            # takes a tenth of a second.
            gc.collect(0 if _collections() == collections else 2)
            collections = _collections()
            result = None
            with spans.span("op", op=op.id):
                if profiler is not None:
                    profiler.enable()
                began = time.perf_counter()
                try:
                    result = op.run(state)
                except Exception:
                    error = traceback.format_exc()
                elapsed = time.perf_counter() - began
                if profiler is not None:
                    profiler.disable()
            del state
            timing.attempted += 1
            timing.samples.setdefault(op.id, []).append(elapsed)
            issues = list(result.problems) if result is not None else [error]
            first = timing.results.get(op.id)
            if result is not None and first is not None and result.guest != first.guest:
                issues.append("guest stats differ between executions of this op")
            if first is None and result is not None:
                timing.results[op.id] = result
            if issues:
                timing.failed += 1
                timing.problems.setdefault(op.id, []).extend(issues)
            if index >= len(ops) and (
                one_pass or time.perf_counter() - started >= seconds
            ):
                return timing


def guest_totals(workload, timing):
    totals = Counter()
    for op in workload.ops:
        result = timing.results.get(op.id)
        if result is not None:
            totals.update(result.guest)
    return totals


def drifted_ops(workload, timing):
    """Operations whose guest stats differ from the pinned reference."""
    reference = json.loads(REFERENCE.read_text())
    drifted = []
    for op in workload.ops:
        result = timing.results.get(op.id)
        if result is None:
            continue
        guest = json.loads(json.dumps(result.guest, sort_keys=True))
        if reference.get(op.id) != guest:
            drifted.append(op.id)
    return drifted


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(workload, timing, setup_s):
    totals = guest_totals(workload, timing)
    wall_s = timing.wall_s()
    return {
        "wall_s": wall_s,
        "sim_kips": _ratio(totals["machine.cpu.instructions"], wall_s) / 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "guest_mcycles": totals["cycles"] / 1e6,
        "guest_mj": totals["energy_nj"] / 1e6,
    }


def per_layer_metrics(workload, untraced, traced, stats, setup_stats, layer_map, drifted):
    from layers import LAYERS, SETUP_LAYERS, count_calls, split_profile

    totals = guest_totals(workload, untraced)
    self_s, calls = split_profile(stats, layer_map)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    self_s, calls = split_profile(setup_stats, layer_map)
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = self_s[layer]
        metrics[f"setup.{layer}.calls"] = calls[layer]
    steps = count_calls(stats, "repro/machine/cpu.py", "step")
    decodes = count_calls(stats, "repro/isa/encoding.py", "decode_instruction")
    walk_s = sum(
        untraced.results[op.id].host.get("replay.walk_s", 0.0)
        for op in workload.ops
        if op.id in untraced.results
    )
    setup = workload.setup_host
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    metrics.update(
        {
            "machine.cpu.instructions": totals["machine.cpu.instructions"],
            "machine.cpu.decode_hit_ratio": 1.0 - decodes / steps if steps else 0.0,
            "machine.bus.fram_accesses": totals["machine.bus.fram_accesses"],
            "machine.bus.sram_accesses": totals["machine.bus.sram_accesses"],
            "machine.bus.data_writes": totals["machine.bus.data_writes"],
            "machine.fram_cache.hit_ratio": _ratio(
                totals["machine.fram_cache.hits"],
                totals["machine.fram_cache.hits"] + totals["machine.fram_cache.misses"],
            ),
            "machine.fram_cache.invalidates": totals["machine.fram_cache.invalidates"],
            "core.runtime.misses": totals["core.runtime.misses"],
            "core.runtime.evictions": totals["core.runtime.evictions"],
            "core.runtime.words_copied": totals["core.runtime.words_copied"],
            "blockcache.runtime.misses": totals["blockcache.runtime.misses"],
            "blockcache.runtime.flushes": totals["blockcache.runtime.flushes"],
            "datacache.hit_ratio": _ratio(
                totals["datacache.hits"], totals["datacache.accesses"]
            ),
            "datacache.writebacks": totals["datacache.writebacks"],
            "datacache.bypasses": totals["datacache.bypasses"],
            "replay.capture_s": setup["capture_s"],
            "replay.capture_kips": _ratio(setup["capture_instructions"], setup["capture_s"])
            / 1e3,
            "replay.cells": totals["replay.cells"],
            "replay.walk_s": walk_s,
            "replay.events_per_s": _ratio(totals["replay.events"], walk_s),
            "replay.hook_invocations": totals["replay.hook_invocations"],
            "faults.cases": totals["faults.cases"],
            "faults.boots": totals["faults.boots"],
            "faults.correct": totals["faults.correct"],
            "faults.wrong_result": totals["faults.wrong_result"],
            "faults.crash": totals["faults.crash"],
            "faults.livelock": totals["faults.livelock"],
            "faults.audit_findings": totals["faults.audit_findings"],
            "difftest.programs": totals["difftest.programs"],
            "difftest.divergences": totals["difftest.divergences"],
            "bench.ops": attempted,
            "bench.failed": failed,
            "bench.fail_frac": _ratio(failed, attempted),
            "guest.drifted_ops": len(drifted),
            "tracing.overhead_frac": _ratio(traced.pass_s(), untraced.pass_s()) - 1.0,
        }
    )
    return metrics


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(SRC))

    from layers import LayerMap, Spans
    from workloads import WORKLOADS

    declared = _declared_units(args.trace)
    workload = WORKLOADS[args.workload](args.seed)
    spans = Spans(enabled=bool(args.trace))
    reps = 1 if args.trace else workload.setup_reps
    if args.trace:
        import cProfile
        import pstats

        workload.setup_profiler = cProfile.Profile()
    setup_s, setup_samples, prepared = timed_setup(workload, reps, spans)

    untraced = measure(workload, prepared, args.seconds, spans, one_pass=bool(args.trace))
    drifted = drifted_ops(workload, untraced)
    traced = None
    if args.trace:
        profiler = cProfile.Profile()
        traced = measure(workload, {}, 0, spans, profiler=profiler, one_pass=True)
        metrics = per_layer_metrics(
            workload,
            untraced,
            traced,
            pstats.Stats(profiler).stats,
            pstats.Stats(workload.setup_profiler).stats,
            LayerMap(SRC),
            drifted,
        )
    else:
        metrics = end_to_end_metrics(workload, untraced, setup_s)

    if set(metrics) != set(declared):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} are emitted "
            "but not declared in BENCHMARK.json, or declared but not emitted"
        )
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    problems = dict(untraced.problems)
    if traced:
        for op_id, issues in traced.problems.items():
            problems.setdefault(op_id, []).extend(issues)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "setup_samples_s": setup_samples,
        "ops": {
            op.id: {
                "samples_s": untraced.samples.get(op.id, []),
                "guest": untraced.results[op.id].guest if op.id in untraced.results else None,
            }
            for op in workload.ops
        },
        "problems": problems,
        "drifted_ops": drifted,
        "metrics": metrics,
        "spans": spans.records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    for op_id, issues in problems.items():
        print(f"FAILED {op_id}: {issues[0].strip().splitlines()[-1]}")
    for op_id in drifted:
        print(f"DRIFTED {op_id}")
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

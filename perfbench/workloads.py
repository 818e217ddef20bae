"""The benchmark's workloads: ``exec``, ``sweep`` and ``faults``.

A workload is a fixed list of operations drawn from the seed. An
operation is one program run, one replay cell or one fault case (a
fault target's golden run counts as a program run). Each operation may
have an untimed ``prepare`` that builds fresh machine state, so modelled
caches start empty in every operation; its timed ``run`` returns an
:class:`OpResult` whose ``guest`` numbers are deterministic and are
compared with the pinned reference in ``reference.json``.

Seeded inputs come from fixed pools (difftest program seeds and
FRAM-cache geometries), so every operation any seed can produce has a
pinned reference. See NOTES.md for why each workload exists.
"""

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

from repro.bench import QUICK_NAMES, get_benchmark
from repro.blockcache.runtime import BlockCacheStats
from repro.core import build_swapram
from repro.core.runtime import SwapRamStats
from repro.datacache.cache import DataCacheConfig, DataCacheStats
from repro.datacache.demo import build as build_dcguard
from repro.difftest.generator import generate_program
from repro.difftest.runner import ExecConfig, run_differential
from repro.faults import FaultSweep, benchmark_target, difftest_target
from repro.faults import harness as fault_harness
from repro.machine.trace import WRITE
from repro.replay import ReplayEngine, capture_source
from repro.toolchain import PLANS, build_baseline, compile_program, reset_build_cache

PLAN = PLANS["unified"]
MAX_INSTRUCTIONS = 5_000_000

#: Difftest generator seeds the workloads draw from. Every program in a
#: pool passes the differential check and has pinned guest stats. The
#: pools hold programs whose cost lies in a narrow band, so the workload
#: seed changes which programs run but hardly how much work a run does.
#: exec: seeds 1-24 with 13K-24K instructions over both systems. faults:
#: seeds 1-48 with 270K-320K simulated cycles over the whole campaign
#: whose cold compile plus build on the three fault systems is the
#: cheapest, within 7 % of each other (0.115-0.123 s at best of eleven
#: on a 2-vCPU Xeon host), since faults set-up is mostly their build.
EXEC_POOL = (2, 5, 7, 8, 11, 13, 14, 16, 17, 22, 23, 24)
EXEC_GENERATED = 4
FAULT_POOL = (7, 12, 16, 23, 34)
FAULT_GENERATED = 2

#: FRAM read-cache geometries (sets, ways, line_bytes) swept in ``sweep``.
FRAM_GEOMETRIES = ((4, 2, 8), (1, 4, 16), (8, 1, 8), (2, 4, 8))
SWEEP_GEOMETRIES = 3

POLICIES = ("queue", "stack", "cost_aware")
CACHE_LIMITS = (None, 0x180, 0xC0)
#: Block-cache traces and the clock rates their cells replay at. lzfx
#: overflows FRAM under the block cache. rsa's block cell thrashes (over
#: 5000 misses): with its capture it cost 8-15 s per run and took the
#: traced sweep run to 150 s of its 180 s limit on a busy host.
BLOCK_CELLS = {"crc": (24, 8), "rc4": (24, 8)}
#: Write-through data-cache cells run on the data-heavy kernels; crc's
#: and rsa's data fits the cache, so their cells would time only the
#: bus path every data access takes.
DATACACHE_KERNELS = ("rc4", "lzfx")
DATACACHE_WT = DataCacheConfig(mode="through", cleaning="none")

FAULT_SYSTEMS = ("swapram", "datacache-wb", "datacache-acp")
#: The campaign seed drives periodic-budget jitter and the SRAM garbage
#: after each power cycle, which decides where a SwapRAM crash lands and
#: so what a case costs. It stays fixed; the workload seed picks the
#: generated targets.
CAMPAIGN_SEED = 1


@dataclass
class OpResult:
    """What one operation produced.

    ``guest`` holds deterministic, additive numbers (simulated cycles,
    energy, access and runtime counts) keyed by metric name; ``problems``
    lists output-check failures; ``host`` holds host-time readings taken
    from public results (the replay walk clock).
    """

    guest: dict
    problems: list = field(default_factory=list)
    host: dict = field(default_factory=dict)


@dataclass
class Op:
    id: str
    run: object  # state -> OpResult (timed)
    prepare: object = None  # () -> state (untimed); None means no state


def board_guest(board):
    """Guest totals and bus/FRAM-cache counts of one board."""
    result = board.result()
    fram_cache = board.bus.fram_cache
    return {
        "cycles": result.total_cycles,
        "energy_nj": result.energy_nj,
        "machine.cpu.instructions": result.instructions,
        "machine.bus.fram_accesses": result.fram_accesses,
        "machine.bus.sram_accesses": result.sram_accesses,
        "machine.bus.data_writes": sum(
            words
            for (_who, _kind, access), words in board.counters.accesses.items()
            if access == WRITE
        ),
        "machine.fram_cache.hits": fram_cache.hits,
        "machine.fram_cache.misses": fram_cache.misses,
        "machine.fram_cache.invalidates": fram_cache.invalidates,
    }


def stats_guest(stats):
    """Runtime statistics of the software cache attached to a board."""
    if isinstance(stats, SwapRamStats):
        return {
            "core.runtime.misses": stats.misses,
            "core.runtime.evictions": stats.evictions,
            "core.runtime.words_copied": stats.words_copied,
        }
    if isinstance(stats, BlockCacheStats):
        return {
            "blockcache.runtime.misses": stats.misses,
            "blockcache.runtime.flushes": stats.flushes,
        }
    if isinstance(stats, DataCacheStats):
        return {
            "datacache.hits": stats.hits,
            "datacache.accesses": stats.accesses,
            "datacache.writebacks": stats.writebacks,
            "datacache.bypasses": stats.bypasses,
        }
    return {}


def _runtime_stats(system):
    runtime = getattr(system, "runtime", None)
    return getattr(runtime, "stats", None)


def _normalised(value):
    return json.loads(json.dumps(value, sort_keys=True))


class Workload:
    """Base: a seeded op list plus a cold set-up that precedes timing."""

    name = ""
    #: How many cold set-ups one run times; ``setup_s`` is their median.
    setup_reps = 5

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.ops = []
        #: Host readings taken during set-up (capture time and size).
        self.setup_host = {"capture_s": 0.0, "capture_instructions": 0}
        #: A ``cProfile.Profile`` enabled around set-up's compile and
        #: build steps in traced runs (trace capture stays unprofiled).
        self.setup_profiler = None

    def setup(self, spans):
        """Cold set-up; returns ``{op id: prepared state}`` for the first pass."""
        raise NotImplementedError

    @contextmanager
    def _step(self, spans, name, **attrs):
        """One set-up step: a span, profiled when a set-up profiler is set."""
        with spans.span(name, **attrs):
            if self.setup_profiler is None:
                yield
                return
            self.setup_profiler.enable()
            try:
                yield
            finally:
                self.setup_profiler.disable()

    def _compile(self, spans, label, source):
        with self._step(spans, "compile", target=label):
            compile_program(source)


# -- exec ---------------------------------------------------------------------


def _build_kernel(source, system):
    if system == "baseline":
        board = build_baseline(source, PLAN)
        return board, board, None
    built = build_swapram(source, PLAN)
    return built, built.board, built.runtime.stats


class ExecWorkload(Workload):
    """Quick kernels and generated programs executed to halt through Cpu."""

    name = "exec"

    def __init__(self, seed, program_seeds=None):
        super().__init__(seed)
        if program_seeds is None:
            program_seeds = sorted(self.rng.sample(EXEC_POOL, EXEC_GENERATED))
        self.kernels = [get_benchmark(name) for name in QUICK_NAMES]
        self.programs = [generate_program(program_seed) for program_seed in program_seeds]
        for kernel in self.kernels:
            for system in ("baseline", "swapram"):
                self.ops.append(
                    Op(
                        f"exec/{kernel.name}/{system}",
                        run=self._kernel_run(kernel),
                        prepare=partial(_build_kernel, kernel.source, system),
                    )
                )
        for program in self.programs:
            self.ops.append(Op(f"exec/gen{program.seed}", run=self._generated_run(program)))

    @staticmethod
    def _kernel_run(kernel):
        def run(state):
            runnable, board, stats = state
            result = runnable.run(max_instructions=MAX_INSTRUCTIONS)
            problems = []
            if result.debug_words != kernel.expected:
                problems.append(
                    f"debug words {result.debug_words[:8]} != expected "
                    f"{kernel.expected[:8]}"
                )
            return OpResult({**board_guest(board), **stats_guest(stats)}, problems)

        return run

    @staticmethod
    def _generated_run(program):
        configs = [ExecConfig("baseline"), ExecConfig("swapram")]

        def run(_state):
            report = run_differential(program, configs=configs)
            problems = [str(divergence) for divergence in report.divergences]
            problems += [
                f"{name}: {outcome}"
                for name, outcome in report.outcomes.items()
                if outcome != "ok"
            ]
            guest = {
                "cycles": 0,
                "energy_nj": 0.0,
                "machine.cpu.instructions": 0,
                "machine.bus.fram_accesses": 0,
                "machine.bus.sram_accesses": 0,
            }
            for result in report.results.values():
                guest["cycles"] += result["total_cycles"]
                guest["energy_nj"] += result["energy_nj"]
                guest["machine.cpu.instructions"] += result["instructions"]
                guest["machine.bus.fram_accesses"] += result["fram_accesses"]
                guest["machine.bus.sram_accesses"] += result["sram_accesses"]
            guest["difftest.programs"] = 1
            guest["difftest.divergences"] = len(report.divergences)
            return OpResult(guest, problems)

        return run

    def setup(self, spans):
        reset_build_cache()
        for kernel in self.kernels:
            self._compile(spans, kernel.name, kernel.source)
        for program in self.programs:
            self._compile(spans, f"gen{program.seed}", program.render())
        prepared = {}
        for op in self.ops:
            if op.prepare is not None:
                with self._step(spans, "build", op=op.id):
                    prepared[op.id] = op.prepare()
        return prepared


# -- sweep --------------------------------------------------------------------


class SweepWorkload(Workload):
    """Replay cells over traces captured once during set-up."""

    name = "sweep"
    #: Capturing eleven traces takes tens of seconds; one cold set-up
    #: per run keeps the run inside its time budget.
    setup_reps = 1

    def __init__(self, seed, geometries=None):
        super().__init__(seed)
        if geometries is None:
            geometries = sorted(self.rng.sample(FRAM_GEOMETRIES, SWEEP_GEOMETRIES))
        self.kernels = {name: get_benchmark(name) for name in QUICK_NAMES}
        self.captures = [(name, "swapram") for name in QUICK_NAMES]
        self.captures += [(name, "baseline") for name in QUICK_NAMES]
        self.captures += [(name, "block") for name in BLOCK_CELLS]
        self.engines = {}
        for name in QUICK_NAMES:
            for policy in POLICIES:
                for limit in CACHE_LIMITS:
                    as_captured = policy == "queue" and limit is None
                    self._cell(
                        name,
                        "swapram",
                        f"{policy}/{'none' if limit is None else hex(limit)}",
                        {} if as_captured else {"policy": policy, "cache_limit": limit},
                    )
            self._cell(name, "baseline", "captured", {})
            for sets, ways, line_bytes in geometries:
                self._cell(
                    name,
                    "baseline",
                    f"fram{sets}x{ways}x{line_bytes}",
                    {"fram_cache": (sets, ways, line_bytes)},
                )
            if name in DATACACHE_KERNELS:
                self._cell(name, "baseline", "dc-wt", {"datacache": DATACACHE_WT})
        for name, frequencies in BLOCK_CELLS.items():
            for mhz in frequencies:
                self._cell(
                    name,
                    "block",
                    f"{mhz}mhz",
                    {} if mhz == 24 else {"frequency_mhz": mhz},
                )

    def _cell(self, kernel, system, label, request):
        key = (kernel, system)

        def run(_state):
            engine = self.engines[key]
            outcome = engine.replay(**request)
            problems = []
            if not request:
                header = engine.header
                if _normalised(outcome.result.as_dict()) != _normalised(
                    header["capture_result"]
                ):
                    problems.append("as-captured replay result differs from its capture")
                stats = outcome.stats.as_dict() if outcome.stats is not None else None
                if _normalised(stats) != _normalised(header["capture_stats"]):
                    problems.append("as-captured replay stats differ from its capture")
            if isinstance(outcome.stats, DataCacheStats):
                problems += outcome.stats.invariant_problems(
                    outcome.runtime.model.line_words
                )
            guest = {**board_guest(outcome.board), **stats_guest(outcome.stats)}
            guest["replay.cells"] = 1
            guest["replay.events"] = outcome.events
            guest["replay.hook_invocations"] = outcome.hook_invocations
            return OpResult(guest, problems, {"replay.walk_s": outcome.seconds})

        self.ops.append(Op(f"sweep/{kernel}/{system}/{label}", run=run))

    def setup(self, spans):
        reset_build_cache()
        for name, kernel in self.kernels.items():
            self._compile(spans, name, kernel.source)
        self.engines = {}
        capture_s = 0.0
        instructions = 0
        for name, system in self.captures:
            with spans.span("capture", target=f"{name}/{system}"):
                started = time.perf_counter()
                document, _target, _result = capture_source(
                    self.kernels[name].source, system=system, benchmark=name
                )
                capture_s += time.perf_counter() - started
            instructions += document.header["instructions"]
            with self._step(spans, "build", target=f"{name}/{system}"):
                engine = ReplayEngine(document)
                engine.linked  # rebuild and hash-check the image
                engine._ensure_compiled()  # classify the stream once, as a sweep does
            self.engines[(name, system)] = engine
        self.setup_host = {"capture_s": capture_s, "capture_instructions": instructions}
        return {}


# -- faults -------------------------------------------------------------------


@contextmanager
def _probe_boards(spans):
    """Record every (system, board) the fault harness builds.

    ``run_case`` builds its board internally and reports only cycles;
    the probe keeps the board so instructions and energy across all
    boots can be read, and (when spans are on) wraps each boot's
    ``Cpu.run`` in a span.
    """
    built = []
    original = fault_harness.build_target

    def recording(target, counters=None):
        system, board = original(target, counters=counters)
        if spans.enabled:
            run = board.cpu.run

            def boot(*args, **kwargs):
                with spans.span("boot"):
                    return run(*args, **kwargs)

            board.cpu.run = boot
        built.append((system, board))
        return system, board

    fault_harness.build_target = recording
    try:
        yield built
    finally:
        fault_harness.build_target = original


class FaultsWorkload(Workload):
    """A seeded fault campaign through ``FaultSweep``."""

    name = "faults"
    #: A set-up takes about half a second, short enough for host noise
    #: to move one sample by a fifth; the median of seven is steadier.
    setup_reps = 7

    def __init__(self, seed, program_seeds=None):
        super().__init__(seed)
        if program_seeds is None:
            program_seeds = sorted(self.rng.sample(FAULT_POOL, FAULT_GENERATED))
        self.spans = None
        self.sweeps = {}
        self.sources = {}
        self.targets = []

        dcguard_source, dcguard_expected = build_dcguard()
        self.sources["dcguard"] = dcguard_source
        self._group(
            benchmark_target("dcguard", "swapram"),
            dcguard_expected,
            ["fixed:0.08", "adversarial:memcpy", "adversarial:evict",
             "adversarial:reloc", "periodic:1.2"],
        )
        for system in ("datacache-wb", "datacache-acp"):
            self._group(
                benchmark_target("dcguard", system),
                dcguard_expected,
                ["fixed:0.08", "periodic:1.2"],
            )
        for name, specs in (
            ("crc", ["fixed:0.5", "adversarial:memcpy"]),
            ("rc4", ["adversarial:memcpy", "adversarial:reloc"]),
        ):
            kernel = get_benchmark(name)
            self.sources[name] = kernel.source
            self._group(benchmark_target(name, "swapram"), kernel.expected, specs)
        for program_seed in program_seeds:
            program = generate_program(program_seed, size="small")
            expected = program.evaluate().debug_words
            for system in FAULT_SYSTEMS:
                target = difftest_target(program_seed, system)
                self.sources[target.label] = target.source
                specs = ["fixed:0.3", "periodic:1.5"]
                if system == "swapram":
                    specs.insert(1, "adversarial:memcpy")
                self._group(target, expected, specs)

    def _group(self, target, expected, specs):
        """A golden-run op followed by the target's fault-case ops."""
        self.targets.append(target)
        prefix = f"faults/{target.label}/{target.system}"

        def golden_run(_state):
            sweep = FaultSweep(CAMPAIGN_SEED)
            self.sweeps[target.name] = sweep
            with _probe_boards(self.spans) as built:
                golden = sweep.golden(target)
            system, board = built[-1]
            problems = []
            if golden.debug_words != expected:
                problems.append(
                    f"golden debug words {golden.debug_words[:8]} != expected "
                    f"{expected[:8]}"
                )
            guest = {**board_guest(board), **stats_guest(_runtime_stats(system))}
            return OpResult(guest, problems)

        self.ops.append(Op(f"{prefix}/golden", run=golden_run))
        for spec in specs:
            self.ops.append(Op(f"{prefix}/{spec}", run=self._case_run(target, spec)))

    def _case_run(self, target, spec):
        def run(_state):
            sweep = self.sweeps[target.name]
            with _probe_boards(self.spans) as built:
                (report,) = sweep.run([target], [spec])
            system, board = built[-1]
            guest = {**board_guest(board), **stats_guest(_runtime_stats(system))}
            guest["faults.cases"] = 1
            guest["faults.boots"] = len(report.boots)
            outcome = report.classification.replace("-", "_")
            guest[f"faults.{outcome}"] = 1
            guest["faults.audit_findings"] = len(report.consistency) + sum(
                len(boot.post_reboot_findings) for boot in report.boots
            )
            return OpResult(guest)

        return run

    def setup(self, spans):
        self.spans = spans
        reset_build_cache()
        for label, source in self.sources.items():
            self._compile(spans, label, source)
        # Instrument, link and load every target once, cold. The golden
        # runs and fault cases build their own systems again through
        # ``build_target``, so these are dropped.
        for target in self.targets:
            with self._step(spans, "build", target=f"{target.label}/{target.system}"):
                fault_harness.build_target(target)
        return {}


WORKLOADS = {
    workload.name: workload
    for workload in (ExecWorkload, SweepWorkload, FaultsWorkload)
}

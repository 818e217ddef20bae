"""Host-work ceilings: Python function calls per retired guest instruction.

Wall time on a shared host is noisy; a call count is not. Counting
``call`` events with ``sys.setprofile`` over one short run gives a
deterministic measure of interpreter overhead, so an accidental extra
call layer on the per-instruction path fails here at once. Each tier
has its own ceiling: a plain machine runs hot code as compiled
superblocks, a probed one steps every instruction.
"""

import sys

from repro.machine.tracelog import TraceLog
from repro.obs.collector import Collector
from repro.obs.funcmap import build_function_map
from repro.replay.capture import _Recorder, classify
from repro.toolchain import PLANS, build_baseline

from tests.helpers import LOOP_KERNEL

#: About 1.25x the step tier's measured 11.3 calls per instruction (the
#: per-call dispatch interpreter it replaced made 33.2).
CEILING = 14.0
#: About 1.25x the measured 2.67 of a plain machine with the superblock
#: code cache warm (each block is taken from the cache on its second
#: entry; the first runs on the step path).
BLOCK_CEILING = 3.3


def build():
    return build_baseline(LOOP_KERNEL, PLANS["unified"])


def calls_per_instruction(board):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        board.run()
    finally:
        sys.setprofile(None)
    assert board.bus.debug_words  # the kernel ran to completion
    return calls / board.counters.total_instructions


def warm_code_cache():
    """Compile the kernel's superblocks, so the count skips compiling."""
    build().run()


def test_calls_per_instruction_stay_under_the_ceiling():
    per_instruction = calls_per_instruction(build())
    assert per_instruction <= CEILING, (
        f"{per_instruction:.2f} Python calls per instruction > {CEILING}"
    )


def test_step_tier_calls_per_instruction_stay_under_the_ceiling():
    board = build()
    read = board.bus.read
    board.bus.read = lambda address, byte=False: read(address, byte)  # a probe
    per_instruction = calls_per_instruction(board)
    assert per_instruction <= CEILING, (
        f"{per_instruction:.2f} Python calls per instruction > {CEILING}"
    )


def test_block_tier_calls_per_instruction_stay_under_the_ceiling():
    warm_code_cache()
    per_instruction = calls_per_instruction(build())
    assert per_instruction <= BLOCK_CEILING, (
        f"{per_instruction:.2f} Python calls per instruction > {BLOCK_CEILING}"
    )


def test_detached_probes_leave_the_block_tier_running():
    warm_code_cache()
    board = build()
    kind, _, runtime = classify(board)
    for probe in (
        TraceLog(board.bus),
        Collector(board, build_function_map(board)),
        _Recorder(kind, board, runtime),
    ):
        probe.attach()
        probe.detach()
    per_instruction = calls_per_instruction(board)
    assert per_instruction <= BLOCK_CEILING, (
        f"{per_instruction:.2f} Python calls per instruction > {BLOCK_CEILING}"
    )

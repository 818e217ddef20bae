"""Host-work ceiling: Python function calls per retired guest instruction.

Wall time on a shared host is noisy; a call count is not. Counting
``call`` events with ``sys.setprofile`` over one short run gives a
deterministic measure of interpreter overhead, so an accidental extra
call layer on the per-instruction path fails here at once.
"""

import sys

from repro.toolchain import PLANS, build_baseline

from tests.helpers import LOOP_KERNEL

#: About 1.25x the measured 11.3 calls per instruction (the per-call
#: dispatch interpreter it replaced made 33.2).
CEILING = 14.0


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
    return calls / board.counters.total_instructions


def test_calls_per_instruction_stay_under_the_ceiling():
    board = build_baseline(LOOP_KERNEL, PLANS["unified"])
    per_instruction = calls_per_instruction(board)
    assert board.bus.debug_words  # the kernel ran to completion
    assert per_instruction <= CEILING, (
        f"{per_instruction:.2f} Python calls per instruction > {CEILING}"
    )

"""Probes attached to a warm decode cache see what cold ones see.

The CPU compiles each instruction once, but the compiled closures and
the step loop look up ``bus.read``/``write``/``fetch_word``/
``account_fetch``/``begin_instruction``, ``counters.record_*`` and
``cpu.step`` on the instance at call time. These tests attach each
probe after the decode cache is warm and check it misses nothing.
"""

import pytest

from repro.machine.probe import ProbeOrderError
from repro.machine.tracelog import TraceLog
from repro.obs.collector import Collector
from repro.obs.funcmap import build_function_map
from repro.replay.capture import _Recorder, classify
from repro.toolchain import PLANS, build_baseline

from tests.helpers import LOOP_KERNEL

#: Enough steps to run the start-up code and a few loop passes, so the
#: loop body is decoded and every later step is a decode-cache hit.
WARM_STEPS = 600


def build():
    return build_baseline(LOOP_KERNEL, PLANS["unified"])


def warm(board):
    for _ in range(WARM_STEPS):
        assert board.cpu.step()
    pcs = len(board.cpu._decode_cache)
    assert 0 < pcs < WARM_STEPS / 2  # mostly hits from here on


def events(log):
    return [
        (event.attribution, event.access, event.address, event.region)
        for event in log.events
    ]


def test_tracelog_attached_warm_matches_cold():
    cold = build()
    cold_log = TraceLog(cold.bus, capacity=1_000_000).attach()
    warm(cold)
    before = len(cold_log.events)
    cold.run()

    late = build()
    warm(late)
    late_log = TraceLog(late.bus, capacity=1_000_000).attach()
    late.run()
    assert events(late_log) == events(cold_log)[before:]
    assert late.bus.debug_words == cold.bus.debug_words


def recorder_for(board):
    kind, board, runtime = classify(board)
    return _Recorder(kind, board, runtime).attach()


def test_capture_recorder_attached_warm_matches_cold():
    cold = build()
    cold_recorder = recorder_for(cold)
    warm(cold)
    before = len(cold_recorder.records)
    cold.run()
    cold_recorder.detach()

    late = build()
    warm(late)
    late_recorder = recorder_for(late)
    late.run()
    late_recorder.detach()
    assert late_recorder.records == cold_recorder.records[before:]
    assert len(late_recorder.records) == late.counters.total_instructions - WARM_STEPS


def test_obs_collector_attached_mid_run_counts_every_instruction():
    """The collector replaces ``cpu.step``; attached from inside a step
    of a running ``Cpu.run``, it must profile every later instruction."""
    board = build()
    warm(board)
    collector = Collector(board, build_function_map(board))
    bus = board.bus
    attached_at = []

    def attach_then_begin():
        del bus.begin_instruction  # back to the Bus method
        attached_at.append(board.counters.total_instructions)
        collector.attach()
        bus.begin_instruction()

    bus.begin_instruction = attach_then_begin
    board.run()
    collector.detach()
    profiled = sum(profile.instructions for profile in collector.profiles.values())
    # The step that attached the collector ran unwrapped.
    assert profiled == board.counters.total_instructions - attached_at[0] - 1 > 0


def instance_overrides(board):
    """Method names shadowed on the bus, counters and CPU instances."""
    return {
        name
        for target in (board.bus, board.counters, board.cpu)
        for name, value in vars(target).items()
        if callable(value) and callable(getattr(type(target), name, None))
    }


def test_detach_in_order_leaves_no_instance_attribute():
    board = build()
    kind, _, runtime = classify(board)
    probes = [
        TraceLog(board.bus),
        Collector(board, build_function_map(board)),
        _Recorder(kind, board, runtime),
    ]
    for probe in probes:
        probe.attach()
        assert instance_overrides(board)
        probe.detach()
        assert not instance_overrides(board)
    for probe in probes:
        probe.attach()
    for probe in reversed(probes):
        probe.detach()
    assert not instance_overrides(board)
    assert board.cpu._plain()


def test_detach_out_of_order_raises_and_changes_nothing():
    board = build()
    log = TraceLog(board.bus, capacity=1_000_000).attach()
    collector = Collector(board, build_function_map(board)).attach()
    wrapped = {name: vars(board.bus)[name] for name in ("read", "write")}
    with pytest.raises(ProbeOrderError):
        log.detach()
    assert {name: vars(board.bus)[name] for name in wrapped} == wrapped
    board.run()
    collector.detach()
    recorded = len(log.events)
    assert recorded
    log.detach()
    assert not instance_overrides(board)
    board.cpu.reset(board.image.entry)
    board.bus.halted = False
    board.run()
    assert len(log.events) == recorded  # a detached log records nothing

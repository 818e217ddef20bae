"""AccessCounters: category bookkeeping used by every experiment."""

import pytest

from repro.isa.registers import PC
from repro.machine import fr2355_board
from repro.machine.memory import RegionKind
from repro.machine.trace import (
    FETCH,
    READ,
    WRITE,
    AccessCounters,
    Attribution,
)


def make_counters():
    counters = AccessCounters()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 2)
    counters.record_fetch(Attribution.APP, RegionKind.SRAM, 3)
    counters.record_fetch(Attribution.RUNTIME, RegionKind.FRAM, 5)
    counters.record_data(Attribution.APP, RegionKind.FRAM, READ)
    counters.record_data(Attribution.APP, RegionKind.FRAM, WRITE)
    counters.record_data(Attribution.MEMCPY, RegionKind.SRAM, WRITE, words=4)
    counters.record_instruction(Attribution.APP, RegionKind.FRAM, 3)
    counters.record_instruction(Attribution.APP, RegionKind.SRAM, 2)
    counters.record_instruction(Attribution.RUNTIME, RegionKind.FRAM, 6)
    counters.record_instruction(Attribution.MEMCPY, RegionKind.FRAM, 4)
    counters.stall_cycles = 7
    return counters


def test_region_totals():
    counters = make_counters()
    assert counters.fram_accesses == 2 + 5 + 1 + 1
    assert counters.sram_accesses == 3 + 4


def test_code_data_split_and_ratio():
    counters = make_counters()
    assert counters.code_accesses == 10
    assert counters.data_accesses == 6
    assert abs(counters.code_data_ratio - 10 / 6) < 1e-9


def test_ratio_with_no_data_accesses_is_infinite():
    counters = AccessCounters()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 1)
    assert counters.code_data_ratio == float("inf")


def test_cycle_totals():
    counters = make_counters()
    assert counters.unstalled_cycles == 3 + 2 + 6 + 4
    assert counters.total_cycles == 15 + 7


def test_instruction_breakdown_categories():
    counters = make_counters()
    breakdown = counters.instructions_by_source()
    assert breakdown == {
        "app_fram": 1,
        "app_sram": 1,
        "handler": 1,
        "memcpy": 1,
    }


def test_startup_folds_into_app_fram():
    counters = AccessCounters()
    counters.record_instruction(Attribution.STARTUP, RegionKind.FRAM, 2)
    assert counters.instructions_by_source()["app_fram"] == 1


def test_snapshot_is_independent():
    counters = make_counters()
    snapshot = counters.snapshot()
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 100)
    counters.stall_cycles += 10
    assert snapshot.fram_accesses == 9
    assert snapshot.stall_cycles == 7
    assert counters.fram_accesses == 109


# -- the tally views -------------------------------------------------------------


def test_views_read_like_counters():
    counters = make_counters()
    key = (Attribution.APP, RegionKind.FRAM, FETCH)
    assert counters.accesses[key] == 2
    assert counters.accesses[(Attribution.STARTUP, RegionKind.MMIO, READ)] == 0
    assert counters.instructions[(Attribution.MEMCPY, RegionKind.FRAM)] == 1
    assert counters.cycles[Attribution.RUNTIME] == 6
    # Only non-zero tallies are keys.
    assert dict(counters.cycles) == {
        Attribution.APP: 5,
        Attribution.RUNTIME: 6,
        Attribution.MEMCPY: 4,
    }
    assert len(counters.accesses) == 6
    assert (Attribution.STARTUP, RegionKind.FRAM) not in counters.instructions
    with pytest.raises(KeyError):
        counters.cycles["app"]


@pytest.mark.parametrize(
    "view,key",
    [
        ("accesses", (Attribution.APP, RegionKind.FRAM, FETCH)),
        ("instructions", (Attribution.APP, RegionKind.FRAM)),
        ("cycles", Attribution.APP),
    ],
)
def test_views_reject_item_assignment(view, key):
    counters = make_counters()
    before = getattr(counters, view)[key]
    with pytest.raises(TypeError, match="read-only"):
        getattr(counters, view)[key] += 1
    with pytest.raises(TypeError, match="read-only"):
        del getattr(counters, view)[key]
    assert getattr(counters, view)[key] == before


def test_view_bound_before_a_step_sees_its_increments():
    board = fr2355_board()
    board.memory.write_word(0x8000, 0x4303)  # NOP (MOV R3, R3)
    board.cpu.regs[PC] = 0x8000
    counters = board.counters
    cycles, instructions, accesses = (
        counters.cycles,
        counters.instructions,
        counters.accesses,
    )
    board.cpu.step()
    assert cycles[Attribution.APP] == 1
    assert instructions[(Attribution.APP, RegionKind.FRAM)] == 1
    assert accesses[(Attribution.APP, RegionKind.FRAM, FETCH)] == 1


def test_restore_is_in_place():
    counters = make_counters()
    snapshot = counters.snapshot()
    accesses = counters.accesses
    counters.record_fetch(Attribution.APP, RegionKind.FRAM, 100)
    assert accesses[(Attribution.APP, RegionKind.FRAM, FETCH)] == 102
    assert counters.restore(snapshot) is counters
    assert counters.accesses is accesses
    assert accesses[(Attribution.APP, RegionKind.FRAM, FETCH)] == 2
    assert counters.fram_accesses == snapshot.fram_accesses


def test_add_flushes_bulk_tallies():
    counters = make_counters()
    counters.add(
        accesses={(Attribution.APP, RegionKind.SRAM, READ): 5},
        instructions={(Attribution.APP, RegionKind.SRAM): 3},
        cycles={Attribution.APP: 9},
    )
    assert counters.accesses[(Attribution.APP, RegionKind.SRAM, READ)] == 5
    assert counters.instructions[(Attribution.APP, RegionKind.SRAM)] == 4
    assert counters.cycles[Attribution.APP] == 14
    assert counters.total_instructions == 7

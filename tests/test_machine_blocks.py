"""The block tier against the step tier, in lockstep.

A plain machine runs hot code as compiled superblocks; the same machine
with an identity wrapper on ``bus.read`` -- a probe, not an option --
runs every instruction through ``Cpu.step``. Whatever the program does,
both must leave the same machine state: registers, PC history, retired
count, every access/instruction/cycle tally, stalls, the FRAM read
cache's lines and tallies, memory, the debug output, energy, and the
cache runtime's stats.
"""

import pytest

from repro.asm import SectionLayout, assemble, parse_asm
from repro.bench import QUICK_NAMES, get_benchmark
from repro.core import build_swapram
from repro.difftest.generator import generate_program
from repro.isa.registers import PC
from repro.machine import fr2355_board
from repro.machine.cpu import HOT_ENTRIES, Cpu, RunawayError, SimulationError
from repro.machine.fram_cache import FramReadCache
from repro.obs.collector import Collector
from repro.toolchain import PLANS, build_baseline

PLAN = PLANS["unified"]


def probe(board):
    """Force *board* onto the step tier with a wrapper that changes nothing."""
    read = board.bus.read
    board.bus.read = lambda address, byte=False: read(address, byte)
    return board


def machine_state(board):
    counters = board.counters
    bus = board.bus
    cpu = board.cpu
    return {
        "accesses": dict(counters.accesses.items()),
        "instructions": dict(counters.instructions.items()),
        "cycles": dict(counters.cycles.items()),
        "stall_cycles": counters.stall_cycles,
        "fram_cache": bus.fram_cache.snapshot(),
        "fram_touches": bus._fram_touches,
        "memory": bytes(board.memory.data),
        "regs": list(cpu.regs),
        "pc_history": list(cpu.pc_history),
        "instructions_retired": cpu.instructions_retired,
        "debug_words": list(bus.debug_words),
        "halted": bus.halted,
        "energy_nj": board.energy_model.energy_nj(counters),
    }


def run_both(build, run=lambda board: board.cpu.run()):
    """Run a fresh plain and a fresh probed machine from *build*.

    Returns ``(target, board, state, error, formed)`` for each, where
    *state* adds the runtime's stats when *build* returns a system,
    *error* is the :class:`SimulationError` raised, if any, and *formed*
    lists the entry PC of every superblock formed.
    """
    results = []
    form = Cpu._form_block
    for probed in (False, True):
        target = build()
        board = getattr(target, "board", target)
        if probed:
            probe(board)
        formed = []

        def spy(cpu, start, **kwargs):
            block = form(cpu, start, **kwargs)
            if block is not None:
                formed.append(start)
            return block

        error = None
        Cpu._form_block = spy
        try:
            run(board)
        except SimulationError as raised:
            error = raised
        finally:
            Cpu._form_block = form
        state = machine_state(board)
        runtime = getattr(target, "runtime", None)
        if runtime is not None:
            state["runtime_stats"] = runtime.stats.as_dict()
        results.append((target, board, state, error, formed))
    assert results[0][4], "the plain machine never compiled a superblock"
    assert not results[1][4], "the probed machine left the step tier"
    return results


def assert_same(results):
    (_, _, plain, plain_error, _), (_, _, stepped, stepped_error, _) = results
    for key in plain:
        assert plain[key] == stepped[key], key
    assert type(plain_error) is type(stepped_error)
    assert str(plain_error) == str(stepped_error)


# -- whole programs -------------------------------------------------------------


def _systems(source):
    return [
        ("baseline", lambda: build_baseline(source, PLAN)),
        ("swapram", lambda: build_swapram(source, PLAN)),
    ]


@pytest.mark.parametrize("name", QUICK_NAMES)
@pytest.mark.parametrize("system", ["baseline", "swapram"])
def test_quick_kernels_match_the_step_tier(name, system):
    kernel = get_benchmark(name)
    build = dict(_systems(kernel.source))[system]
    results = run_both(build)
    assert_same(results)
    assert results[0][2]["debug_words"] == kernel.expected


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_programs_match_the_step_tier(seed):
    program = generate_program(seed)
    source = program.render()
    expected = program.evaluate().debug_words
    for _system, build in _systems(source):
        results = run_both(build)
        assert_same(results)
        assert results[0][2]["debug_words"] == expected


# -- block edges ----------------------------------------------------------------


def asm_board(source, **board_kwargs):
    image = assemble(
        parse_asm(source, entry="__start"),
        SectionLayout(text=0x8000, rodata=0x9000, data=0x9800, bss=0x9C00),
    )
    return fr2355_board(**board_kwargs).load(image)


#: Every operation and addressing mode the block compiler handles, byte
#: forms and flag-only forms included, in a hot loop over SRAM (R4) and
#: FRAM (R5) data; the loop ends with a CALL/RET and a RETI.
EVERY_FORM = """
.func __start
    MOV #0x3000, SP
    MOV #40, R10
    MOV #0x2100, R4
    MOV #0x9800, R5
loop:
    MOV.B @R4+, R6
    MOV.B R6, 1(R4)
    ADD.B #0x7F, R6
    ADDC @R5, R7
    SUBC.B 3(R5), R8
    SUB &0x9802, R9
    DADD #0x1999, R9
    DADD.B R6, 2(R4)
    XOR #0x0105, SR
    MOV SR, R15
    ADD R15, R12
    XOR R6, 6(R5)
    XOR.B @R4, R12
    RRA R7
    RRC.B 0(R4)
    RRA 8(R5)
    SWPB 2(R5)
    SXT R8
    SXT 10(R5)
    PUSH.B R6
    PUSH @R5
    POP R11
    POP R13
    PUSH SP
    POP R14
    BIT #4, R7
    BIT.B @R4, 2(R4)
    CMP.B #3, 1(R4)
    BIC.B #1, 0(R4)
    BIS #0x10, 4(R5)
    AND.B R9, 12(R5)
    AND @R5+, R13
    DECD R5
    MOV @R5, 14(R5)
    CMP.B @R4, R9
    JL less
    INC R12
less:
    CMP R7, R8
    JGE more
    DEC R12
more:
    JN negative
    INCD R12
negative:
    JC carry
    ADD R0, R12
carry:
    CALL #sub
    PUSH #back
    PUSH SR
    RETI
back:
    DEC R10
    JNZ loop
    MOV R12, &0x0200
    MOV R7, &0x0200
    MOV R9, &0x0200
    MOV #1, &0x0202
.endfunc

.func sub
    ADD @SP, R12
    RLA R12
    RET
.endfunc
"""


def test_every_form_matches_the_step_tier():
    results = run_both(lambda: asm_board(EVERY_FORM))
    assert_same(results)
    assert results[0][1].bus.halted


#: A CALL through R13, which turns odd after the loop body is compiled;
#: every pass enters ``call`` by a jump.
ODD_CALL = """
.func __start
    MOV #0x3000, SP
    MOV #sub, R13
    MOV #60, R10
loop:
    CMP #2, R10
    JNE call
    INC R13
    JMP call
call:
    INC R11
    CALL R13
    DEC R10
    JMP loop
.endfunc

.func sub
    RET
.endfunc
"""


def test_call_to_an_odd_address_in_mid_block():
    results = run_both(lambda: asm_board(ODD_CALL))
    assert_same(results)
    board, _, error, formed = results[0][1:]
    assert str(error) == f"CALL to odd address {board.image.symbols['sub'] + 1:#06x}"
    assert board.image.symbols["call"] in formed


#: R11 sums the loop counter through an ADD whose immediate the loop
#: rewrites: the store lands in a later instruction of the same block.
PATCH_LATER = """
.func __start
    MOV #0x3000, SP
    MOV #40, R10
    CLR R11
loop:
    MOV R10, &patch+2
patch:
    ADD #1000, R11
    DEC R10
    JNZ loop
    MOV R11, &0x0200
    MOV #1, &0x0202
.endfunc
"""


def test_store_into_a_later_instruction_of_the_running_block():
    results = run_both(lambda: asm_board(PATCH_LATER))
    assert_same(results)
    board, formed = results[0][1], results[0][4]
    assert board.bus.debug_words == [sum(range(1, 41))]
    assert board.image.symbols["loop"] in formed


#: The loop's first instruction adds an immediate the loop body then
#: rewrites with the counter rounded down to 32: the compiled body stores
#: into its own first instruction, and at each multiple of 32 the next
#: pass must see the new bytes.
PATCH_FIRST = """
.func __start
    MOV #0x3000, SP
    MOV #100, R10
    CLR R11
loop:
    ADD #1000, R11
    MOV R10, R12
    AND #0xFFE0, R12
    MOV R12, &loop+2
    DEC R10
    JNZ loop
    MOV R11, &0x0200
    MOV #1, &0x0202
.endfunc
"""


def test_loop_that_rewrites_its_own_first_instruction():
    results = run_both(lambda: asm_board(PATCH_FIRST))
    assert_same(results)
    board, formed = results[0][1], results[0][4]
    immediate, total = 1000, 0
    for counter in range(100, 0, -1):
        total += immediate
        immediate = counter & 0xFFE0
    assert board.bus.debug_words == [total & 0xFFFF]
    assert formed.count(board.image.symbols["loop"]) >= 2


#: On the last pass R9 points at the halt port: the instructions after
#: the store in the same block must not run. Every pass enters ``body``
#: by a jump, so the last one runs it compiled.
HALT_MID_BLOCK = """
.func __start
    MOV #0x3000, SP
    MOV #40, R10
    MOV #0x2100, R9
    CLR R11
loop:
    CMP #1, R10
    JNE body
    MOV #0x0202, R9
    JMP body
body:
    MOV #1, 0(R9)
    INC R11
    INC R12
    DEC R10
    JMP loop
.endfunc
"""


def test_halt_store_in_mid_block():
    results = run_both(lambda: asm_board(HALT_MID_BLOCK))
    assert_same(results)
    board, formed = results[0][1], results[0][4]
    assert board.bus.halted
    assert board.cpu.regs[11] == 39
    assert board.image.symbols["body"] in formed


#: R9 walks up SRAM by 0x80 a pass and reads unmapped memory at 0x3000,
#: well after the loop body was compiled; the read is mid-block.
BUS_ERROR_MID_BLOCK = """
.func __start
    MOV #0x3000, SP
    MOV #0x2000, R9
loop:
    INC R11
    MOV 0(R9), R12
    ADD #0x80, R9
    JMP loop
.endfunc
"""


def test_bus_error_in_mid_block():
    results = run_both(lambda: asm_board(BUS_ERROR_MID_BLOCK))
    assert_same(results)
    board, state, error, formed = results[0][1:]
    assert board.image.symbols["loop"] in formed
    assert str(error).startswith(f"at PC={board.image.symbols['loop'] + 2:#06x} (MOV")
    assert "unmapped" in str(error)
    assert state["regs"][PC] == board.image.symbols["loop"] + 6
    assert state["regs"][11] == 33


SPIN = """
.func __start
    MOV #0x3000, SP
loop:
    INC R11
    ADD R11, R12
    MOV R12, &0x2100
    JMP loop
.endfunc
"""


@pytest.mark.parametrize("budget", [HOT_ENTRIES * 10 + 3, 1000, 1001, 5000])
def test_runaway_fires_at_the_same_count(budget):
    results = run_both(
        lambda: asm_board(SPIN),
        run=lambda board: board.cpu.run(max_instructions=budget),
    )
    assert_same(results)
    error = results[0][3]
    assert isinstance(error, RunawayError)
    assert results[0][2]["instructions_retired"] == budget


#: A native hook sits on ``hooked``, in the middle of straight-line
#: code: it replaces the MOV there, which ran (and was decoded) on the
#: passes before the hook was installed.
HOOK_FALL_THROUGH = """
.func __start
    MOV #0x3000, SP
    MOV #40, R10
loop:
    INC R11
hooked:
    MOV #99, R12
after:
    INC R13
    DEC R10
    JNZ loop
    MOV #1, &0x0202
.endfunc
"""


def test_hook_at_a_fall_through_address():
    calls = []

    def build():
        board = asm_board(HOOK_FALL_THROUGH)
        after = board.image.symbols["after"]

        def hook(cpu):
            calls.append(cpu.regs[10])
            cpu.regs[12] = (cpu.regs[12] + 7) & 0xFFFF
            cpu.regs[PC] = after

        for _ in range(27):  # five passes of the loop
            board.cpu.step()
        board.add_hook(board.image.symbols["hooked"], hook)
        return board

    results = run_both(build)
    assert_same(results)
    board = results[0][1]
    assert calls[: len(calls) // 2] == list(range(35, 0, -1))
    assert board.cpu.regs[12] == 99 + 35 * 7
    hooked = board.image.symbols["hooked"]
    for start, block in board.cpu._blocks.items():
        assert not start < hooked < block.end


def test_hook_added_between_runs_splits_compiled_blocks():
    """Blocks formed before a hook was installed may span its address;
    the next run must drop them."""

    def run(board):
        with pytest.raises(RunawayError):
            board.cpu.run(max_instructions=300)
        after = board.image.symbols["after"]

        def hook(cpu):
            cpu.regs[12] = (cpu.regs[12] + 7) & 0xFFFF
            cpu.regs[PC] = after

        board.add_hook(board.image.symbols["hooked"], hook)
        board.cpu.run()

    source = HOOK_FALL_THROUGH.replace("MOV #40, R10", "MOV #100, R10")
    results = run_both(lambda: asm_board(source), run=run)
    assert_same(results)
    board = results[0][1]
    assert board.bus.halted
    assert board.cpu.regs[12] != 99 and board.cpu.regs[12] % 7 == 99 % 7


#: A long compiled loop, then a hook at ``attach`` (in place of the MOV
#: there) that attaches the obs collector, then more loop passes that
#: must all be profiled.
ATTACH_MID_RUN = """
.func __start
    MOV #0x3000, SP
    MOV #60, R10
first:
    INC R11
    DEC R10
    JNZ first
attach:
    MOV #60, R10
second:
    INC R12
    DEC R10
    JNZ second
    MOV #1, &0x0202
.endfunc
"""


class OneFunction:
    """A function map for hand-written assembly: all of it is ``__start``."""

    def resolve(self, pc):
        return "__start"


def test_hook_attaching_the_collector_profiles_every_later_instruction():
    board = asm_board(ATTACH_MID_RUN)
    attach = board.image.symbols["attach"]
    collector = Collector(board, OneFunction())
    attached_at = []

    def hook(cpu):
        attached_at.append(board.counters.total_instructions)
        collector.attach()
        cpu.regs[10] = 60
        cpu.regs[PC] = board.image.symbols["second"]

    board.add_hook(attach, hook)
    board.run()
    collector.detach()
    assert board.cpu._blocks  # the first loop ran compiled
    profiled = sum(profile.instructions for profile in collector.profiles.values())
    assert profiled == board.counters.total_instructions - attached_at[0] > 3 * 60
    assert board.cpu.regs[12] == 60


def test_code_cache_is_shared_only_by_matching_timing():
    kernel = get_benchmark("crc")

    def build(**kwargs):
        return build_baseline(kernel.source, PLAN, **kwargs)

    def with_geometry():
        board = build()
        board.bus.fram_cache = FramReadCache(sets=1, ways=4)
        return board

    first = build()
    first.run()
    same = build()
    same.run()
    shared = first.cpu._blocks.keys() & same.cpu._blocks.keys()
    assert shared
    assert all(first.cpu._blocks[pc] is same.cpu._blocks[pc] for pc in shared)
    for variant in (lambda: build(wait_states=1), with_geometry):
        results = run_both(variant)
        assert_same(results)
        other = results[0][1]
        common = first.cpu._blocks.keys() & other.cpu._blocks.keys()
        assert common
        assert not any(first.cpu._blocks[pc] is other.cpu._blocks[pc] for pc in common)
        assert other.bus.debug_words == kernel.expected
